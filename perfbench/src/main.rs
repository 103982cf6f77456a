//! End-to-end and per-layer benchmark of the ccr workspace.
//!
//! ```text
//! ccr-perfbench --workload suite-cold|exp-sweep|serve-mixed --seed N
//!               --seconds S --trace 0|1 [--ccr PATH] [--out DIR]
//! ```
//!
//! Run from the repository root (`python3 perfbench/run.py` builds
//! and runs it). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics when
//! untraced, the per-layer metrics when traced. See `README.md`.

mod exp;
mod probe;
mod report;
mod serve;
mod stream;
mod suite;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Outcome;
use trace::Tracer;

/// One invocation's settings.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Output directory, absolute.
    pub out: PathBuf,
    /// Output directory as given, relative to the root.
    pub out_rel: PathBuf,
    /// The `ccr` binary `serve-mixed` spawns.
    pub ccr: PathBuf,
}

/// Whether another round of work (a pass or an epoch) should start:
/// true while the time spent since `start` plus half the last round
/// stays under `budget`, so a run ends near its budget whatever a
/// round costs.
pub fn another_round(start: Instant, last: Duration, budget: Duration) -> bool {
    start.elapsed() + last / 2 < budget
}

const USAGE: &str = "usage: ccr-perfbench --workload suite-cold|exp-sweep|serve-mixed \
                     --seed N --seconds S --trace 0|1 [--ccr PATH] [--out DIR]";

fn parse_args() -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let mut ccr = target.join("release").join("ccr");
    let mut out_rel = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--ccr" => ccr = PathBuf::from(&value),
            "--out" => out_rel = PathBuf::from(&value),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Run {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: Duration::from_secs(seconds.ok_or_else(|| missing("--seconds"))?),
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out: root.join(&out_rel),
        out_rel,
        ccr: root.join(ccr),
        root,
    })
}

/// Unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_x") {
        "x"
    } else if name.ends_with("_ratio") || name.ends_with("_per_key") {
        "ratio"
    } else {
        "count"
    }
}

fn measure(run: &Run, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    match (run.workload.as_str(), run.trace) {
        ("suite-cold", false) => suite::run(run, o),
        ("suite-cold", true) => suite::run_traced(run, t, o),
        ("exp-sweep", _) => exp::run(run, t, o),
        ("serve-mixed", false) => serve::run(run, o),
        ("serve-mixed", true) => serve::run_traced(run, t, o),
        (other, _) => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    if !run.trace {
        return Ok(());
    }
    if run.workload != "suite-cold" {
        // Stage timings on the other workloads come from one reference
        // pass over the training builds, so they mean the same thing
        // everywhere.
        let first = t.spans().len();
        let counts = probe::ref_pass(
            t,
            &stream::suite_order(run.seed, 0),
            &probe::BenchConfig::cli_default(),
        )?;
        for (name, value) in probe::layer_metrics(&t.spans()[first..], &counts) {
            o.metric(name, value, unit_of(name));
        }
    }
    o.metric("failed_frac", o.failed_frac(), "frac");
    let spans_path = run
        .out
        .join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    t.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "self time by span (ref work excluded), {}:",
        spans_path.display()
    );
    for (name, ms) in trace::self_ms_by_name(&t.spans()) {
        eprintln!("  {name:<28} {ms:>12.3} ms");
    }
    Ok(())
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let t = Tracer::new(run.trace);
    let mut o = Outcome::default();
    if let Err(e) = measure(&run, &t, &mut o) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprint!("{}", o.render());
    println!("{}", o.to_json());
}
