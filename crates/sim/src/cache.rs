//! A direct-mapped cache timing model.

/// Cache geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Extra cycles charged on a miss.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// The paper's 32 KB direct-mapped cache with 32-byte lines and a
    /// 12-cycle miss penalty.
    pub fn paper() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            miss_penalty: 12,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// A direct-mapped cache: tag array only (timing model, no data).
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: `addr >> line_shift` is the line number.
    line_shift: u32,
    /// `lines - 1`: `line & index_mask` is the set index.
    index_mask: u64,
    /// `log2(lines)`: `line >> index_bits` is the tag.
    index_bits: u32,
    tags: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics unless line size and line count are nonzero powers of
    /// two.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two() && config.line_bytes > 0);
        assert!(config.lines().is_power_of_two() && config.lines() > 0);
        Cache {
            tags: vec![None; config.lines() as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            index_mask: config.lines() - 1,
            index_bits: config.lines().trailing_zeros(),
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`, returning the extra cycles charged (0 on hit,
    /// the miss penalty on miss). The line is installed on a miss.
    pub fn access(&mut self, addr: u64) -> u64 {
        let line = self.line_of(addr);
        let index = (line & self.index_mask) as usize;
        let tag = line >> self.index_bits;
        if self.tags[index] == Some(tag) {
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            self.tags[index] = Some(tag);
            self.config.miss_penalty
        }
    }

    /// The line number of `addr` (`addr / line_bytes`, as a shift:
    /// `new` guarantees a power-of-two line size).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The tag array (snapshot support). `None` = invalid line.
    pub fn tags(&self) -> &[Option<u64>] {
        &self.tags
    }

    /// Rebuilds a cache from snapshot state.
    ///
    /// # Errors
    ///
    /// Returns a one-line description if the tag array does not match
    /// the configured line count.
    pub fn restore(
        config: CacheConfig,
        tags: Vec<Option<u64>>,
        hits: u64,
        misses: u64,
    ) -> Result<Cache, String> {
        if tags.len() as u64 != config.lines() {
            return Err(format!(
                "cache snapshot has {} lines, config wants {}",
                tags.len(),
                config.lines()
            ));
        }
        let mut cache = Cache::new(config);
        cache.tags = tags;
        cache.hits = hits;
        cache.misses = misses;
        Ok(cache)
    }

    /// Folds the full cache state into `push` (fingerprint support).
    pub fn fold_state(&self, push: &mut dyn FnMut(u64)) {
        push(self.hits);
        push(self.misses);
        push(self.tags.len() as u64);
        for tag in &self.tags {
            match tag {
                None => push(0),
                Some(t) => {
                    push(1);
                    push(*t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            miss_penalty: 12,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0), 12);
        assert_eq!(c.access(4), 0, "same line");
        assert_eq!(c.access(31), 0);
        assert_eq!(c.access(32), 12, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.miss_ratio(), 0.5);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = tiny(); // 4 lines
        assert_eq!(c.access(0), 12);
        assert_eq!(c.access(128), 12, "maps to same index, evicts");
        assert_eq!(c.access(0), 12, "evicted line misses again");
    }

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper();
        assert_eq!(c.lines(), 1024);
        assert_eq!(c.miss_penalty, 12);
        let mut cache = Cache::new(c);
        // Distinct lines across the whole cache all miss cold.
        for i in 0..1024 {
            assert_eq!(cache.access(i * 32), 12);
        }
        for i in 0..1024 {
            assert_eq!(cache.access(i * 32), 0);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            miss_penalty: 1,
        });
    }
}
