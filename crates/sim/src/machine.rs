//! Machine (processor) configuration.

use crate::cache::CacheConfig;

/// The modeled processor, defaulting to the paper's evaluation
/// machine (Section 5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Integer ALUs (also execute multiplies/divides).
    pub int_alus: u32,
    /// Memory ports shared by loads and stores.
    pub mem_ports: u32,
    /// Floating-point ALUs.
    pub fp_alus: u32,
    /// Branch units (branches, jumps, calls, returns, reuse).
    pub branch_units: u32,
    /// Integer ALU latency (cycles).
    pub int_latency: u64,
    /// Integer multiply/divide latency (HP PA-7100 approximation; the
    /// paper only pins integer = 1 and load = 2).
    pub mul_latency: u64,
    /// Floating-point latency (PA-7100 approximation).
    pub fp_latency: u64,
    /// Load-use latency on a D-cache hit.
    pub load_latency: u64,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// BTB entries (2-bit counters).
    pub btb_entries: usize,
    /// Branch misprediction penalty (cycles).
    pub mispredict_penalty: u64,
    /// Pipeline delay of a successful reuse (CRB access + state read +
    /// validation) before live-outs start committing.
    pub reuse_hit_latency: u64,
    /// Penalty of a failed reuse ("a delay similar to the branch
    /// misprediction penalty").
    pub reuse_miss_penalty: u64,
    /// Value-speculate across reuse validation (the paper's
    /// future-work item: "the use of value speculation techniques to
    /// hide the latency of validating reuse opportunities"). When set,
    /// a hit's live-outs are forwarded without waiting for the input
    /// registers to be architecturally ready; validation completes off
    /// the critical path.
    pub speculative_validation: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

impl MachineConfig {
    /// The paper's 6-issue in-order machine.
    pub fn paper() -> MachineConfig {
        MachineConfig {
            issue_width: 6,
            int_alus: 4,
            mem_ports: 2,
            fp_alus: 2,
            branch_units: 1,
            int_latency: 1,
            mul_latency: 3,
            fp_latency: 2,
            load_latency: 2,
            icache: CacheConfig::paper(),
            dcache: CacheConfig::paper(),
            btb_entries: 4096,
            mispredict_penalty: 8,
            reuse_hit_latency: 2,
            reuse_miss_penalty: 8,
            speculative_validation: false,
        }
    }
}

impl MachineConfig {
    /// The paper machine plus speculative reuse validation.
    pub fn with_speculative_validation() -> MachineConfig {
        MachineConfig {
            speculative_validation: true,
            ..MachineConfig::paper()
        }
    }

    /// Canonical `(field, value)` enumeration of the machine model, in
    /// declaration order (caches flattened as `icache.size_bytes`
    /// etc.).
    ///
    /// The experiment planner keys simulation units by hashing these
    /// pairs and labels sweep axes by diffing them, so the list must
    /// stay exhaustive — a missing field would alias two distinct
    /// machines.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("issue_width", self.issue_width.to_string()),
            ("int_alus", self.int_alus.to_string()),
            ("mem_ports", self.mem_ports.to_string()),
            ("fp_alus", self.fp_alus.to_string()),
            ("branch_units", self.branch_units.to_string()),
            ("int_latency", self.int_latency.to_string()),
            ("mul_latency", self.mul_latency.to_string()),
            ("fp_latency", self.fp_latency.to_string()),
            ("load_latency", self.load_latency.to_string()),
        ];
        for (name, cache) in [
            (
                [
                    "icache.size_bytes",
                    "icache.line_bytes",
                    "icache.miss_penalty",
                ],
                &self.icache,
            ),
            (
                [
                    "dcache.size_bytes",
                    "dcache.line_bytes",
                    "dcache.miss_penalty",
                ],
                &self.dcache,
            ),
        ] {
            out.push((name[0], cache.size_bytes.to_string()));
            out.push((name[1], cache.line_bytes.to_string()));
            out.push((name[2], cache.miss_penalty.to_string()));
        }
        out.extend([
            ("btb_entries", self.btb_entries.to_string()),
            ("mispredict_penalty", self.mispredict_penalty.to_string()),
            ("reuse_hit_latency", self.reuse_hit_latency.to_string()),
            ("reuse_miss_penalty", self.reuse_miss_penalty.to_string()),
            (
                "speculative_validation",
                self.speculative_validation.to_string(),
            ),
        ]);
        out
    }

    /// The fields a baseline simulation reads: [`MachineConfig::fields`]
    /// minus `reuse_hit_latency`, `reuse_miss_penalty` and
    /// `speculative_validation`. The pipeline reads those three only on
    /// `reuse` events, and a baseline program has no `reuse`
    /// instructions, so two machines with equal baseline fields give
    /// identical baseline statistics.
    pub fn baseline_fields(&self) -> Vec<(&'static str, String)> {
        let mut out = self.fields();
        out.retain(|(name, _)| !REUSE_ONLY_FIELDS.contains(name));
        out
    }
}

/// The [`MachineConfig`] fields only reuse events read.
const REUSE_ONLY_FIELDS: [&str; 3] = [
    "reuse_hit_latency",
    "reuse_miss_penalty",
    "speculative_validation",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_section_5_1() {
        let m = MachineConfig::paper();
        assert_eq!(m.issue_width, 6);
        assert_eq!(m.int_alus, 4);
        assert_eq!(m.mem_ports, 2);
        assert_eq!(m.fp_alus, 2);
        assert_eq!(m.branch_units, 1);
        assert_eq!(m.int_latency, 1);
        assert_eq!(m.load_latency, 2);
        assert_eq!(m.icache.size_bytes, 32 * 1024);
        assert_eq!(m.icache.line_bytes, 32);
        assert_eq!(m.icache.miss_penalty, 12);
        assert_eq!(m.btb_entries, 4096);
        assert_eq!(m.mispredict_penalty, 8);
        assert_eq!(m.reuse_miss_penalty, 8);
    }

    #[test]
    fn machine_fields_enumeration_is_exhaustive() {
        let fields = MachineConfig::paper().fields();
        // 9 scalar units/latencies + 2×3 cache fields + 5 trailing
        // knobs. Update together with the struct.
        assert_eq!(fields.len(), 20);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "field names must be unique");
        let wide = MachineConfig {
            issue_width: 8,
            ..MachineConfig::paper()
        };
        assert_ne!(fields, wide.fields());
    }

    #[test]
    fn baseline_fields_drop_exactly_the_reuse_only_fields() {
        let m = MachineConfig::paper();
        let all = m.fields();
        let base = m.baseline_fields();
        assert_eq!(base.len(), 17);
        // Every dropped field is reuse-only, in `fields()` order.
        let dropped: Vec<&str> = all
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !base.iter().any(|(b, _)| b == n))
            .collect();
        assert_eq!(dropped, REUSE_ONLY_FIELDS);
        // The reuse-only knobs do not reach the baseline key...
        let reuse_knobs = MachineConfig {
            reuse_hit_latency: m.reuse_hit_latency + 3,
            reuse_miss_penalty: m.reuse_miss_penalty + 5,
            speculative_validation: !m.speculative_validation,
            ..m
        };
        assert_ne!(all, reuse_knobs.fields());
        assert_eq!(base, reuse_knobs.baseline_fields());
        // ...and every other field does.
        let wide = MachineConfig {
            issue_width: 8,
            ..m
        };
        assert_ne!(base, wide.baseline_fields());
    }

    #[test]
    fn crb_fields_enumeration_flattens_nonuniform() {
        use crate::{CrbConfig, NonuniformConfig};
        let uniform = CrbConfig::paper().fields();
        assert_eq!(uniform.len(), 8);
        assert!(uniform.contains(&("nonuniform.boost_every", "-".to_string())));
        let skewed = CrbConfig {
            nonuniform: Some(NonuniformConfig {
                boost_every: 4,
                boosted_instances: 20,
                mem_capable_percent: 100,
            }),
            ..CrbConfig::paper()
        };
        let fields = skewed.fields();
        assert!(fields.contains(&("nonuniform.boosted_instances", "20".to_string())));
        assert_ne!(uniform, fields);
        assert_ne!(uniform, CrbConfig::with_entries(32).fields());
    }
}
