//! The shared memory hierarchy behind the SMs: L2 cache and DRAM with a
//! bandwidth-limited channel model.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::stats::CacheStats;

/// L2 + DRAM service model shared by all SMs.
///
/// Requests are line-granular. An L2 hit completes after the configured L2
/// latency; a miss additionally waits for the DRAM channel (which serves
/// one line at the configured bytes/cycle) plus DRAM latency.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l2: Cache,
    l2_latency: u32,
    dram_latency: u32,
    line_cycles: u64,
    dram_busy_until: u64,
    dram_accesses: u64,
}

/// Outcome of one line request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Cycle at which the data is available at the requesting SM.
    pub completion_cycle: u64,
    /// Whether the L2 supplied the line.
    pub l2_hit: bool,
}

impl MemorySystem {
    /// Builds the hierarchy from a GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        let line_cycles = (config.l2.line_bytes as u64).div_ceil(config.dram_bytes_per_cycle.max(1) as u64);
        MemorySystem {
            l2: Cache::new(config.l2, true),
            l2_latency: config.l2_latency,
            dram_latency: config.dram_latency,
            line_cycles,
            dram_busy_until: 0,
            dram_accesses: 0,
        }
    }

    /// Services one line request issued at `now`.
    pub fn access(&mut self, now: u64, line_addr: u32, write: bool) -> MemResponse {
        let hit = self.l2.access(line_addr, write);
        if hit {
            MemResponse {
                completion_cycle: now + self.l2_latency as u64,
                l2_hit: true,
            }
        } else {
            self.dram_accesses += 1;
            let service_start = (now + self.l2_latency as u64).max(self.dram_busy_until);
            self.dram_busy_until = service_start + self.line_cycles;
            MemResponse {
                completion_cycle: service_start + self.dram_latency as u64,
                l2_hit: false,
            }
        }
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DRAM line transactions serviced.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Resets counters and the channel-queue clock for a new launch
    /// (cache contents stay warm, like a real device between kernels,
    /// but each launch starts its own cycle domain at zero).
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.dram_accesses = 0;
        self.dram_busy_until = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    #[test]
    fn l2_hit_is_faster_than_miss() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        let miss = m.access(0, 42, false);
        assert!(!miss.l2_hit);
        let hit = m.access(1000, 42, false);
        assert!(hit.l2_hit);
        assert!(hit.completion_cycle - 1000 < miss.completion_cycle);
    }

    #[test]
    fn dram_bandwidth_serializes_misses() {
        let cfg = GpuConfig::tx1(); // narrow DRAM: 26 B/cycle, 128 B lines
        let mut m = MemorySystem::new(&cfg);
        let a = m.access(0, 1, false);
        let b = m.access(0, 2, false);
        let c = m.access(0, 3, false);
        assert!(b.completion_cycle > a.completion_cycle);
        assert!(c.completion_cycle > b.completion_cycle);
        // Spacing equals the line transfer time.
        assert_eq!(
            c.completion_cycle - b.completion_cycle,
            b.completion_cycle - a.completion_cycle
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 7, false);
        m.access(0, 7, false);
        let s = m.l2_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(m.dram_accesses(), 1);
    }

    #[test]
    fn reset_clears_counters_only() {
        let cfg = GpuConfig::gp102();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 9, false);
        m.reset_stats();
        assert_eq!(m.l2_stats().accesses, 0);
        // Contents still warm: next access hits.
        assert!(m.access(0, 9, false).l2_hit);
    }
}
