//! Statistics, the result line, and readers for the logs the program
//! already writes (`--harness-out` event logs, `/proc` memory counters).

use std::collections::BTreeSet;
use std::path::Path;

use ccr_analyze::value::{self, Value};
use ccr_bench::Engine;

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when
/// empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The run's result: what was checked and every metric measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (units, tables or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts `n` attempted operations, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable metric table (stderr).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<28} {value:>16.4} {unit}\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>16} ({} failed)\n",
            "attempted", self.attempted, self.failed
        ));
        out
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives them.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric: a measurement that produced one
    /// is a benchmark bug, never a result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one),
/// in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one `--harness-out` event log says about the run it recorded.
#[derive(Clone, Debug, Default)]
pub struct HarnessLog {
    /// Busy ns of pool workers in compile-side maps (`compile`, `prep`).
    pub compile_busy_ns: u64,
    /// Busy ns of pool workers in simulation maps.
    pub sim_busy_ns: u64,
    /// Summed worker wall ns over every map (utilization's base).
    pub pool_wall_ns: u64,
    /// Summed wall ns of every map (its longest worker's wall).
    pub phase_ns: u64,
    /// `compile_finish` events.
    pub compiles: u64,
    /// Distinct workloads among the compiled labels: one value-profile
    /// key each, since profiles always run on the training build.
    pub compile_workloads: BTreeSet<String>,
    /// Summed `wall_ms` of `compile_finish` events.
    pub compile_ms: u64,
    /// Summed `wall_ms` of `sim_finish` events.
    pub sim_ms: u64,
    /// Summed simulated cycles of `sim_finish` events.
    pub sim_cycles: u64,
}

impl HarnessLog {
    /// Reads a harness event log and deletes it: runs would otherwise
    /// pile up megabytes of logs whose figures are already taken.
    /// Unparseable lines are skipped.
    pub fn take(path: &Path) -> HarnessLog {
        let mut log = HarnessLog::default();
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let _ = std::fs::remove_file(path);
        for line in text.lines() {
            let Ok(v) = value::parse(line) else { continue };
            let wall_ms = v.u64_field("wall_ms");
            match v.str_field("ev") {
                "pool" => {
                    let compile_side = matches!(v.str_field("phase"), "compile" | "prep");
                    let mut longest = 0;
                    for w in v.get("workers").and_then(Value::as_arr).unwrap_or(&[]) {
                        let busy = w.u64_field("busy_ns");
                        longest = longest.max(w.u64_field("wall_ns"));
                        log.pool_wall_ns += w.u64_field("wall_ns");
                        if compile_side {
                            log.compile_busy_ns += busy;
                        } else {
                            log.sim_busy_ns += busy;
                        }
                    }
                    log.phase_ns += longest;
                }
                "compile_finish" => {
                    log.compiles += 1;
                    log.compile_ms += wall_ms;
                    if let Some(name) = v.str_field("label").split(':').nth(1) {
                        log.compile_workloads.insert(name.to_string());
                    }
                }
                "sim_finish" => {
                    log.sim_ms += wall_ms;
                    log.sim_cycles += v.u64_field("cycles");
                }
                _ => {}
            }
        }
        log
    }

    /// Busy over wall across every pool worker, percent.
    pub fn pool_util_pct(&self) -> f64 {
        100.0 * (self.compile_busy_ns + self.sim_busy_ns) as f64 / self.pool_wall_ns.max(1) as f64
    }
}

/// One pass through an in-process engine, as the engine's public
/// counters and its harness log saw it.
pub struct EnginePass {
    /// The pass's wall time, s.
    pub wall_s: f64,
    /// The pass's harness log.
    pub log: HarnessLog,
    /// Compile-cache (hits, misses).
    pub compile: (u64, u64),
    /// Result-cache (hits, misses).
    pub result: (u64, u64),
}

impl EnginePass {
    /// Reads a finished pass: `engine`'s counters and the log at `log`.
    pub fn read(engine: &Engine, wall_s: f64, log: &Path) -> EnginePass {
        let (cc, rc) = (engine.compile_cache(), engine.result_cache());
        EnginePass {
            wall_s,
            log: HarnessLog::take(log),
            compile: (cc.hits(), cc.misses()),
            result: (rc.hits(), rc.misses()),
        }
    }
}

/// The engine-layer metrics of a traced run, medians over its untraced
/// passes. A pass counts as one request of the `serve.*` metrics: the
/// time inside the engine's pool maps, and the rest of the pass.
pub fn engine_metrics(o: &mut Outcome, ps: &[&EnginePass]) {
    let per = |f: &dyn Fn(&EnginePass) -> f64| median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>());
    o.metric("engine.compile_hits", per(&|p| p.compile.0 as f64), "count");
    o.metric(
        "engine.compile_misses",
        per(&|p| p.compile.1 as f64),
        "count",
    );
    o.metric(
        "engine.profile_runs_per_key",
        per(&|p| p.compile.1 as f64 / p.log.compile_workloads.len().max(1) as f64),
        "ratio",
    );
    o.metric(
        "engine.result_hit_ratio",
        per(&|p| p.result.0 as f64 / (p.result.0 + p.result.1).max(1) as f64),
        "ratio",
    );
    o.metric(
        "engine.compile_busy_ms",
        per(&|p| p.log.compile_busy_ns as f64 / 1e6),
        "ms",
    );
    o.metric(
        "engine.sim_busy_ms",
        per(&|p| p.log.sim_busy_ns as f64 / 1e6),
        "ms",
    );
    o.metric("engine.pool_util_pct", per(&|p| p.log.pool_util_pct()), "%");
    o.metric(
        "serve.server_ms",
        per(&|p| p.log.phase_ns as f64 / 1e6),
        "ms",
    );
    o.metric(
        "serve.wait_ms",
        per(&|p| p.wall_s * 1e3 - p.log.phase_ns as f64 / 1e6),
        "ms",
    );
    o.metric("serve.refused", 0.0, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.count(3, 0);
        o.metric("wall_s", 1.25, "s");
        let line = o.to_json();
        let v = value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.u64_field("attempted"), 3);
        assert_eq!(v.u64_field("failed"), 0);
        let m = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.str_field("unit"), "s");
    }
}
