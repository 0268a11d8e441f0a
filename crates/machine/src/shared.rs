//! The shared half of the machine: state every agent in the system —
//! CPUs and DMA devices alike — observes through one coherent view.
//!
//! Physical memory is the obvious member; the staleness oracle belongs
//! here too because its shadow tracks what physical memory *should*
//! contain regardless of which agent wrote it. Per-CPU state (caches,
//! TLB, cycle account) lives in [`Cpu`](crate::cpu::Cpu).

use crate::config::MachineConfig;
use crate::mem::PhysMemory;
use crate::oracle::Oracle;
use vic_core::serial::{SerialError, WordReader, WordWriter};

/// Section tag bracketing the shared state in a word stream.
const SHARED_STATE_TAG: u64 = u64::from_le_bytes(*b"shared-1");

/// System-wide state shared by all CPUs and devices.
#[derive(Debug)]
pub struct SharedState {
    /// Physical memory.
    pub(crate) mem: PhysMemory,
    /// The staleness oracle (shadow memory plus violation log).
    pub(crate) oracle: Oracle,
}

impl SharedState {
    /// Zero-filled memory with a matching, clean oracle. Both hold their
    /// bytes a simulated page at a time, materialised on first write.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        SharedState {
            mem: PhysMemory::new(cfg.mem_bytes, cfg.page_size),
            oracle: Oracle::new(cfg.mem_bytes, cfg.page_size),
        }
    }

    /// Serialize the shared state.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(SHARED_STATE_TAG);
        self.mem.save_state(w);
        self.oracle.save_state(w);
    }

    /// Restore state saved by [`SharedState::save_state`] into shared
    /// state built with the identical configuration (memory sizes must
    /// match).
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(SHARED_STATE_TAG)?;
        self.mem.restore_state(r)?;
        self.oracle.restore_state(r)
    }
}
