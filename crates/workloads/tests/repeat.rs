//! Every workload repeats: `Repeated` runs a driver back to back on one
//! kernel, so whatever a repetition leaves behind accumulates. A driver
//! that leaks disk blocks fails with `disk full` after a few repetitions;
//! one that cleans up ends every repetition with the disk exactly as a
//! single run leaves it.

use vic_core::policy::Configuration;
use vic_os::{Kernel, KernelConfig, SystemKind};
use vic_workloads::{Repeated, Workload, WorkloadKind};

/// Run `kind` (quick scale) `reps` times on a fresh small kernel under
/// CMU F; returns (oracle violations, free disk blocks).
fn repeated(kind: WorkloadKind, reps: u64) -> (u64, usize) {
    let mut k = Kernel::new(KernelConfig::small(SystemKind::Cmu(Configuration::F)));
    Repeated::new(kind.build_step(true), reps)
        .run(&mut k)
        .unwrap_or_else(|e| panic!("{kind} x{reps}: {e}"));
    (k.machine().oracle().violations(), k.disk_free_blocks())
}

#[test]
fn every_workload_repeats_without_leaking_disk() {
    for kind in WorkloadKind::ALL {
        let (_, once) = repeated(kind, 1);
        let (violations, after) = repeated(kind, 64);
        assert_eq!(violations, 0, "{kind} x64: oracle violations");
        assert_eq!(after, once, "{kind} x64: free disk blocks drifted");
    }
}
