//! The cycle cost model.
//!
//! Calibrated to the paper's qualitative statements about the HP 9000
//! Model 720 rather than to microarchitectural documentation:
//!
//! * "a purge or flush of a virtual address can be up to **seven times
//!   slower** when the data is in the cache as opposed to when it isn't"
//!   (§2.3) — `line_op_present ≈ 7 × line_op_absent`;
//! * "the 720 appears to **purge no more quickly than it flushes**" (§5.1)
//!   — purge and flush share line costs;
//! * "an artifact of the 720's implementation ... requires **constant time
//!   to purge the instruction cache**, regardless of its contents" (§5.1)
//!   — `icache_purge_page` is a flat cost;
//! * the paper recommends hardware with a **single-cycle page purge**
//!   (§5.1); [`CycleCosts::fast_purge`] models that proposal for the
//!   corresponding what-if experiment.

/// Cycle costs of the primitive operations of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCosts {
    /// A cache hit (load, store or fetch).
    pub cache_hit: u64,
    /// Filling a line from memory on a miss.
    pub miss_fill: u64,
    /// Writing a dirty line back to memory.
    pub writeback: u64,
    /// An uncached access straight to memory.
    pub uncached_access: u64,
    /// Servicing a TLB miss from the page tables (software-walked).
    pub tlb_miss: u64,
    /// Inspecting one line during a flush/purge when the line does not hold
    /// the target data ("absent").
    pub line_op_absent: u64,
    /// Flushing/purging one line that holds the target data ("present");
    /// write-back of dirty data costs [`CycleCosts::writeback`] on top.
    pub line_op_present: u64,
    /// Purging an entire instruction-cache page (constant, a 720 artifact).
    pub icache_purge_page: u64,
    /// Trap entry/exit for any fault into the kernel.
    pub fault_trap: u64,
    /// Kernel software servicing a mapping fault (page tables, VM lookup).
    pub mapping_fault_service: u64,
    /// Kernel software servicing a consistency fault (the `CacheControl`
    /// bookkeeping; the paper reports this overhead is small).
    pub consistency_fault_service: u64,
    /// Kernel software cost to enter/remove/re-protect one mapping.
    pub mapping_update: u64,
}

impl CycleCosts {
    /// Costs resembling the 50 MHz HP 9000 Model 720.
    pub fn hp720() -> Self {
        CycleCosts {
            cache_hit: 1,
            miss_fill: 20,
            writeback: 20,
            uncached_access: 25,
            tlb_miss: 25,
            line_op_absent: 1,
            line_op_present: 7,
            icache_purge_page: 160,
            fault_trap: 120,
            mapping_fault_service: 350,
            consistency_fault_service: 180,
            mapping_update: 25,
        }
    }

    /// The paper's proposed architecture: a cache page purge completes in a
    /// single cycle ("it should be possible to purge an empty, present, or
    /// dirty line, and possibly page, in one cache cycle"). Flushes keep
    /// their cost (dirty data still moves to memory).
    pub fn fast_purge(mut self) -> Self {
        self.line_op_absent = 0;
        self.line_op_present = 0;
        self.icache_purge_page = 1;
        self
    }
}

impl Default for CycleCosts {
    fn default() -> Self {
        CycleCosts::hp720()
    }
}

/// Every operation the machine charges cycles for. Each one names its
/// profiler leaf and the `MachineStats` counters it bumps, and
/// `Machine::account` is the one place an operation moves the clock, so
/// the cycle account, the counters and the cost tree agree by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CostOp {
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
    /// Kernel software work; the caller passes its cycles.
    Software,
    /// Priced by the lines the page holds.
    FlushPageD,
    /// Priced by the lines the page holds.
    PurgePageD,
    PurgePageI,
    DmaWrite,
    DmaRead,
}

impl CostOp {
    /// The profiler leaf the operation is charged to.
    pub(crate) const fn leaf(self) -> &'static str {
        match self {
            CostOp::LoadHit => "load.hit",
            CostOp::LoadMiss => "load.miss",
            CostOp::LoadWriteback => "load.writeback",
            CostOp::LoadUncached => "load.uncached",
            CostOp::StoreHit => "store.hit",
            CostOp::StoreMiss => "store.miss",
            CostOp::StoreWriteback => "store.writeback",
            CostOp::StoreUncached => "store.uncached",
            CostOp::WriteThroughHit | CostOp::WriteThroughMiss => "store.write_through",
            CostOp::IFetchHit => "ifetch.hit",
            CostOp::IFetchMiss => "ifetch.miss",
            CostOp::IFetchUncached => "ifetch.uncached",
            CostOp::TlbFill => "tlb_fill",
            CostOp::FaultTrap => "fault_trap",
            CostOp::MappingUpdate => "mapping_update",
            CostOp::Software => "software",
            CostOp::FlushPageD => "flush_page.d",
            CostOp::PurgePageD => "purge_page.d",
            CostOp::PurgePageI => "purge_page.i",
            CostOp::DmaWrite => "dma.write",
            CostOp::DmaRead => "dma.read",
        }
    }

    /// Cycles one operation costs. DMA is free to the CPU.
    ///
    /// # Panics
    ///
    /// Panics for the operations whose cost depends on the caller
    /// (`Software`, `FlushPageD`, `PurgePageD`).
    #[inline(always)]
    pub(crate) fn unit(self, c: &CycleCosts) -> u64 {
        match self {
            CostOp::LoadHit | CostOp::StoreHit | CostOp::IFetchHit => c.cache_hit,
            CostOp::LoadMiss | CostOp::StoreMiss | CostOp::IFetchMiss => c.cache_hit + c.miss_fill,
            CostOp::LoadWriteback | CostOp::StoreWriteback => c.writeback,
            CostOp::LoadUncached | CostOp::StoreUncached | CostOp::IFetchUncached => {
                c.uncached_access
            }
            CostOp::WriteThroughHit | CostOp::WriteThroughMiss => c.cache_hit + c.writeback,
            CostOp::TlbFill => c.tlb_miss,
            CostOp::FaultTrap => c.fault_trap,
            CostOp::MappingUpdate => c.mapping_update,
            CostOp::PurgePageI => c.icache_purge_page,
            CostOp::DmaWrite | CostOp::DmaRead => 0,
            CostOp::Software | CostOp::FlushPageD | CostOp::PurgePageD => {
                unreachable!("{self:?} is priced by its caller")
            }
        }
    }
}

/// The operations one kind of cached data access charges: a hit, a miss,
/// and the victim write-back a miss may cause.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessOps {
    pub(crate) hit: CostOp,
    pub(crate) miss: CostOp,
    pub(crate) writeback: CostOp,
}

impl AccessOps {
    pub(crate) const LOAD: AccessOps = AccessOps {
        hit: CostOp::LoadHit,
        miss: CostOp::LoadMiss,
        writeback: CostOp::LoadWriteback,
    };
    pub(crate) const STORE: AccessOps = AccessOps {
        hit: CostOp::StoreHit,
        miss: CostOp::StoreMiss,
        writeback: CostOp::StoreWriteback,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn present_is_seven_times_absent() {
        let c = CycleCosts::hp720();
        assert_eq!(c.line_op_present, 7 * c.line_op_absent);
    }

    #[test]
    fn fast_purge_zeroes_line_costs() {
        let c = CycleCosts::hp720().fast_purge();
        assert_eq!(c.line_op_absent, 0);
        assert_eq!(c.line_op_present, 0);
        assert_eq!(c.icache_purge_page, 1);
        // Memory traffic is unchanged.
        assert_eq!(c.writeback, CycleCosts::hp720().writeback);
    }
}
