//! Golden-file test for the reuse-potential limit study (Figure 4).
//!
//! For every workload of the suite, on both the training and the
//! reference input at scale 1, the test records the four counters of
//! [`ReusePotential`]: total dynamic instructions, block-reusable,
//! region-reusable and cyclic-reusable instructions. `fig4` reads only
//! the training input; the reference rows pin the study on a second
//! data set of the same code. A rewrite of `PotentialStudy` must leave
//! every line unchanged.
//!
//! To refresh after an intentional change to the study or to the
//! workloads:
//!
//! ```text
//! CCR_UPDATE_GOLDEN=1 cargo test --release --test potential_golden
//! ```

use std::fmt::Write as _;
use std::path::Path;

use ccr::measure::reuse_potential;
use ccr::workloads::{build, InputSet, NAMES};

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn reuse_potential_matches_golden_on_train_and_ref() {
    let mut actual = String::new();
    for name in NAMES {
        for (tag, input) in [("train", InputSet::Train), ("ref", InputSet::Ref)] {
            let program = build(name, input, 1).expect("known workload");
            let pot = reuse_potential(&program, ccr_bench::emu_config()).expect("within limits");
            writeln!(
                actual,
                "{name} {tag} total={} block={} region={} cyclic={}",
                pot.total_instrs, pot.block_reusable, pot.region_reusable, pot.cyclic_reusable,
            )
            .unwrap();
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/potential.golden");
    if std::env::var_os("CCR_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with CCR_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "reuse potential drifted from {}", path.display());
    }
    assert_eq!(expected, actual, "line count drifted");
}
