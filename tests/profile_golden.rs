//! Golden-file test for the value profile (the RPS, paper §4.2).
//!
//! For three training builds at scale 1 the test dumps everything
//! region formation reads from a [`ReuseProfile`]:
//!
//! - each executed instruction's execution count, `Invariance_R[5]`
//!   ratio, recent-window ratio, taken ratio and distinct-vector count,
//! - each executed load's memory-unchanged ratio,
//! - each profiled loop's cyclic counters,
//! - the total dynamic instruction count.
//!
//! Ratios print with Rust's shortest round-trip float formatting, so
//! the comparison is bit-exact. A profiler rewrite must leave every
//! line unchanged.
//!
//! To refresh after an intentional change to the profiler or to the
//! workloads:
//!
//! ```text
//! CCR_UPDATE_GOLDEN=1 cargo test --test profile_golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ccr::profile::{ReuseProfile, TOP_K};
use ccr::workloads::{build, InputSet};
use ccr::{compile_ccr, CompileConfig};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/profile")
        .join(format!("{name}.golden"))
}

fn check_golden(path: &Path, actual: &str) {
    if std::env::var_os("CCR_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with CCR_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{} drifted from the committed golden at line {}.\n\
             If the change is intentional, refresh with:\n\
             CCR_UPDATE_GOLDEN=1 cargo test --test profile_golden\n\
             expected: {:?}\n  actual: {:?}",
            path.display(),
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

/// Renders the parts of `profile` region formation reads, in
/// instruction-id and then loop-key order.
fn dump(program: &ccr::ir::Program, profile: &ReuseProfile) -> String {
    let mut out = String::new();
    writeln!(out, "total_dyn_instrs {}", profile.total_dyn_instrs).unwrap();
    let mut instrs: Vec<_> = program.iter_instrs().map(|(_, i)| i).collect();
    instrs.sort_by_key(|i| i.id);
    for i in instrs {
        let id = i.id;
        let exec = profile.exec(id);
        if exec == 0 {
            continue;
        }
        let distinct = profile
            .instr_profile(id)
            .map_or(0, |p| p.distinct_vectors());
        writeln!(
            out,
            "instr {id} exec={exec} inv{TOP_K}={} recent={} taken={} distinct={distinct}",
            profile.invariance_ratio(id, TOP_K),
            profile.recent_ratio(id),
            profile.taken_ratio(id),
        )
        .unwrap();
        if i.is_load() {
            writeln!(
                out,
                "load {id} unchanged={}",
                profile.mem_unchanged_ratio(id)
            )
            .unwrap();
        }
    }
    let mut loops: Vec<_> = profile.iter_cyclic().collect();
    loops.sort_by_key(|(k, _)| **k);
    for (k, c) in loops {
        writeln!(
            out,
            "loop f{} b{} invocations={} multi={} reuse={} iterations={}",
            k.func.0,
            k.header.0,
            c.invocations,
            c.multi_iteration,
            c.reuse_opportunities,
            c.total_iterations,
        )
        .unwrap();
    }
    out
}

fn check_workload(name: &str) {
    let p = build(name, InputSet::Train, 1).expect("known workload");
    let cw = compile_ccr(&p, &p, &CompileConfig::paper()).expect("profiles within limits");
    check_golden(&golden_path(name), &dump(&cw.base, &cw.profile));
}

#[test]
fn m88ksim_profile_matches_golden() {
    check_workload("124.m88ksim");
}

#[test]
fn li_profile_matches_golden() {
    check_workload("130.li");
}

#[test]
fn espresso_profile_matches_golden() {
    check_workload("008.espresso");
}
