//! The direct-mapped cache decomposes an address with a shift and a
//! mask precomputed from its power-of-two geometry. This property test
//! pins that decomposition to the textbook division/modulo formula:
//! over random geometries (128 B to 64 KiB, 4 to 128 B lines) and
//! random address streams reaching `u64::MAX`, the cache and a
//! div/mod reference model must agree on every hit/miss outcome and
//! on the final tag array.

use ccr_sim::{Cache, CacheConfig};
use proptest::prelude::*;

/// The div/mod reference: the same direct-mapped policy, computed
/// with `/` and `%` on the configured sizes.
struct DivModCache {
    line_bytes: u64,
    lines: u64,
    tags: Vec<Option<u64>>,
}

impl DivModCache {
    fn new(config: CacheConfig) -> DivModCache {
        DivModCache {
            line_bytes: config.line_bytes,
            lines: config.lines(),
            tags: vec![None; config.lines() as usize],
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let index = (line % self.lines) as usize;
        let tag = line / self.lines;
        let hit = self.tags[index] == Some(tag);
        self.tags[index] = Some(tag);
        hit
    }
}

/// An address stream that revisits: each access is a random full-width
/// address, a small stride off the previous one (a likely hit), the
/// conflicting address one cache size further (a likely eviction), or
/// an address just below `u64::MAX` (the top tag).
fn stream() -> impl Strategy<Value = Vec<(u64, u8, u16)>> {
    prop::collection::vec((any::<u64>(), 0u8..4, 0u16..512), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shift_mask_access_matches_div_mod(
        size_log in 7u32..17,
        line_log in 2u32..8,
        accesses in stream(),
    ) {
        let config = CacheConfig {
            size_bytes: 1 << size_log,
            line_bytes: 1 << line_log,
            miss_penalty: 12,
        };
        let mut cache = Cache::new(config);
        let mut reference = DivModCache::new(config);
        let mut prev = 0u64;
        for (i, &(random, kind, delta)) in accesses.iter().enumerate() {
            let addr = match kind {
                0 => random,
                1 => prev.wrapping_add(u64::from(delta)),
                2 => prev.wrapping_add(config.size_bytes),
                _ => u64::MAX - u64::from(delta),
            };
            let expect_hit = reference.access(addr);
            let extra = cache.access(addr);
            prop_assert_eq!(
                extra == 0,
                expect_hit,
                "access {} to {:#x}: cache {} vs div/mod {}",
                i,
                addr,
                if extra == 0 { "hit" } else { "miss" },
                if expect_hit { "hit" } else { "miss" }
            );
            prop_assert_eq!(cache.line_of(addr), addr / config.line_bytes);
            prev = addr;
        }
        prop_assert_eq!(cache.tags(), &reference.tags[..]);
        prop_assert_eq!(cache.hits() + cache.misses(), accesses.len() as u64);
    }
}
