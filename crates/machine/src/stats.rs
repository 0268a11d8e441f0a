//! Hardware event counters and per-operation cycle accounting.

use std::fmt;

use vic_core::serial::{SerialError, WordReader, WordWriter};

use crate::cost::CostOp;

/// A count of operations with the cycles they consumed; gives the "average
/// cycles" columns of the paper's Table 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Number of operations.
    pub count: u64,
    /// Total cycles spent in them.
    pub cycles: u64,
}

impl OpStat {
    /// Average cycles per operation (0 if none occurred).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cycles as f64 / self.count as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &OpStat) {
        self.count += other.count;
        self.cycles += other.cycles;
    }

    /// Serialize both counters.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.count);
        w.u64(self.cycles);
    }

    /// Restore counters saved by [`OpStat::save_state`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.count = r.u64()?;
        self.cycles = r.u64()?;
        Ok(())
    }
}

impl fmt::Display for OpStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops / {} cycles (avg {:.0})",
            self.count,
            self.cycles,
            self.avg()
        )
    }
}

/// Counters maintained by the simulated machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// CPU loads performed.
    pub loads: u64,
    /// CPU stores performed.
    pub stores: u64,
    /// Instruction fetches performed.
    pub ifetches: u64,
    /// Data cache hits.
    pub d_hits: u64,
    /// Data cache misses.
    pub d_misses: u64,
    /// Instruction cache hits.
    pub i_hits: u64,
    /// Instruction cache misses.
    pub i_misses: u64,
    /// Dirty lines written back at eviction (not by flushes).
    pub writebacks: u64,
    /// Accesses that bypassed the caches (uncached mappings).
    pub uncached: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Data-cache page flushes.
    pub d_flush_pages: OpStat,
    /// Data-cache page purges.
    pub d_purge_pages: OpStat,
    /// Instruction-cache page purges.
    pub i_purge_pages: OpStat,
    /// Lines written back by flushes.
    pub flush_writebacks: u64,
    /// Device-writes-memory transfers (pages).
    pub dma_writes: u64,
    /// Device-reads-memory transfers (pages).
    pub dma_reads: u64,
}

impl MachineStats {
    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = MachineStats::default();
    }

    /// Count `n` operations `op` costing `cycles` in total. Every counter
    /// but `flush_writebacks` (lines, not operations) moves only here.
    #[inline(always)]
    pub(crate) fn count(&mut self, op: CostOp, n: u64, cycles: u64) {
        use CostOp::*;
        match op {
            LoadHit | LoadMiss | LoadUncached => self.loads += n,
            StoreHit | StoreMiss | StoreUncached | WriteThroughHit | WriteThroughMiss => {
                self.stores += n;
            }
            IFetchHit | IFetchMiss | IFetchUncached => self.ifetches += n,
            _ => {}
        }
        let page_op = OpStat { count: n, cycles };
        match op {
            LoadHit | StoreHit | WriteThroughHit => self.d_hits += n,
            LoadMiss | StoreMiss | WriteThroughMiss => self.d_misses += n,
            IFetchHit => self.i_hits += n,
            IFetchMiss => self.i_misses += n,
            LoadUncached | StoreUncached | IFetchUncached => self.uncached += n,
            LoadWriteback | StoreWriteback => self.writebacks += n,
            TlbFill => self.tlb_misses += n,
            FlushPageD => self.d_flush_pages.merge(&page_op),
            PurgePageD => self.d_purge_pages.merge(&page_op),
            PurgePageI => self.i_purge_pages.merge(&page_op),
            DmaWrite => self.dma_writes += n,
            DmaRead => self.dma_reads += n,
            FaultTrap | MappingUpdate | Software => {}
        }
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &MachineStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.ifetches += other.ifetches;
        self.d_hits += other.d_hits;
        self.d_misses += other.d_misses;
        self.i_hits += other.i_hits;
        self.i_misses += other.i_misses;
        self.writebacks += other.writebacks;
        self.uncached += other.uncached;
        self.tlb_misses += other.tlb_misses;
        self.d_flush_pages.merge(&other.d_flush_pages);
        self.d_purge_pages.merge(&other.d_purge_pages);
        self.i_purge_pages.merge(&other.i_purge_pages);
        self.flush_writebacks += other.flush_writebacks;
        self.dma_writes += other.dma_writes;
        self.dma_reads += other.dma_reads;
    }

    /// Serialize every counter, in declaration order.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.ifetches);
        w.u64(self.d_hits);
        w.u64(self.d_misses);
        w.u64(self.i_hits);
        w.u64(self.i_misses);
        w.u64(self.writebacks);
        w.u64(self.uncached);
        w.u64(self.tlb_misses);
        self.d_flush_pages.save_state(w);
        self.d_purge_pages.save_state(w);
        self.i_purge_pages.save_state(w);
        w.u64(self.flush_writebacks);
        w.u64(self.dma_writes);
        w.u64(self.dma_reads);
    }

    /// Restore counters saved by [`MachineStats::save_state`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.loads = r.u64()?;
        self.stores = r.u64()?;
        self.ifetches = r.u64()?;
        self.d_hits = r.u64()?;
        self.d_misses = r.u64()?;
        self.i_hits = r.u64()?;
        self.i_misses = r.u64()?;
        self.writebacks = r.u64()?;
        self.uncached = r.u64()?;
        self.tlb_misses = r.u64()?;
        self.d_flush_pages.restore_state(r)?;
        self.d_purge_pages.restore_state(r)?;
        self.i_purge_pages.restore_state(r)?;
        self.flush_writebacks = r.u64()?;
        self.dma_writes = r.u64()?;
        self.dma_reads = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stat_average() {
        let mut m = MachineStats::default();
        assert_eq!(m.d_flush_pages.avg(), 0.0);
        m.count(CostOp::FlushPageD, 1, 10);
        m.count(CostOp::FlushPageD, 1, 30);
        let s = m.d_flush_pages;
        assert_eq!(s.count, 2);
        assert_eq!(s.avg(), 20.0);
        assert!(s.to_string().contains("avg 20"));
    }

    #[test]
    fn merge() {
        let mut a = MachineStats {
            loads: 5,
            ..MachineStats::default()
        };
        a.count(CostOp::FlushPageD, 1, 100);
        let mut b = MachineStats {
            loads: 3,
            ..MachineStats::default()
        };
        b.count(CostOp::FlushPageD, 1, 50);
        a.merge(&b);
        assert_eq!(a.loads, 8);
        assert_eq!(a.d_flush_pages.count, 2);
        assert_eq!(a.d_flush_pages.cycles, 150);
        a.reset();
        assert_eq!(a, MachineStats::default());
    }

    /// Every op bumps its kind's counter and its outcome's counter, and
    /// nothing else.
    #[test]
    fn count_bumps_each_ops_counters() {
        use CostOp::*;
        let mut s = MachineStats::default();
        for op in [
            LoadHit,
            LoadMiss,
            LoadWriteback,
            LoadUncached,
            StoreHit,
            StoreMiss,
            StoreWriteback,
            StoreUncached,
            WriteThroughHit,
            WriteThroughMiss,
            IFetchHit,
            IFetchMiss,
            IFetchUncached,
            TlbFill,
            FaultTrap,
            MappingUpdate,
            Software,
            FlushPageD,
            PurgePageD,
            PurgePageI,
            DmaWrite,
            DmaRead,
        ] {
            s.count(op, 2, 6);
        }
        let page_op = OpStat {
            count: 2,
            cycles: 6,
        };
        let expected = MachineStats {
            loads: 6,
            stores: 10,
            ifetches: 6,
            d_hits: 6,
            d_misses: 6,
            i_hits: 2,
            i_misses: 2,
            writebacks: 4,
            uncached: 6,
            tlb_misses: 2,
            d_flush_pages: page_op,
            d_purge_pages: page_op,
            i_purge_pages: page_op,
            flush_writebacks: 0,
            dma_writes: 2,
            dma_reads: 2,
        };
        assert_eq!(s, expected);
    }

    /// A stat struct with every field distinct and nonzero; merging it into
    /// a default must reproduce it exactly, so a field forgotten in
    /// `merge` shows up as an inequality here rather than as silently lost
    /// counts in a report.
    fn all_distinct() -> MachineStats {
        MachineStats {
            loads: 1,
            stores: 2,
            ifetches: 3,
            d_hits: 4,
            d_misses: 5,
            i_hits: 6,
            i_misses: 7,
            writebacks: 8,
            uncached: 9,
            tlb_misses: 10,
            d_flush_pages: OpStat {
                count: 11,
                cycles: 12,
            },
            d_purge_pages: OpStat {
                count: 13,
                cycles: 14,
            },
            i_purge_pages: OpStat {
                count: 15,
                cycles: 16,
            },
            flush_writebacks: 17,
            dma_writes: 18,
            dma_reads: 19,
        }
    }

    #[test]
    fn merge_covers_every_field() {
        let src = all_distinct();
        let mut dst = MachineStats::default();
        dst.merge(&src);
        assert_eq!(dst, src, "merge into empty must reproduce the source");
        dst.merge(&src);
        assert_eq!(dst.loads, 2 * src.loads);
        assert_eq!(dst.dma_reads, 2 * src.dma_reads);
        assert_eq!(dst.i_purge_pages.cycles, 2 * src.i_purge_pages.cycles);
    }

    #[test]
    fn op_stat_display() {
        assert_eq!(OpStat::default().to_string(), "0 ops / 0 cycles (avg 0)");
        let s = OpStat {
            count: 3,
            cycles: 10,
        };
        assert_eq!(s.to_string(), "3 ops / 10 cycles (avg 3)");
        let mut a = OpStat {
            count: 1,
            cycles: 7,
        };
        a.merge(&s);
        assert_eq!(a.count, 4);
        assert_eq!(a.cycles, 17);
    }
}
