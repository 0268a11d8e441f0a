//! The profiler's central invariant, end to end: **every simulated cycle
//! is attributed exactly once**. For any workload under any consistency
//! system, the cost tree's total equals the machine's cycle counter, and
//! per-operation slices of the tree equal the corresponding
//! `MachineStats` aggregates — the profiler is an exact decomposition of
//! the numbers the tables already report, not a sampled approximation.

use vic_bench::SystemSpec;
use vic_core::policy::Configuration;
use vic_os::SystemKind;
use vic_profile::Seg;
use vic_workloads::WorkloadKind;

fn machine_op_cycles(tree: &vic_profile::CostTree, op: &'static str) -> u64 {
    tree.cycles_where(|path| path.last() == Some(&Seg::Machine(op)))
}

/// Operations charged to any of the machine leaves `ops`, under any span.
fn machine_op_count(tree: &vic_profile::CostTree, ops: &[&'static str]) -> u64 {
    let mut n = 0;
    tree.visit(|path, count, _| {
        if let Some(Seg::Machine(op)) = path.last() {
            if ops.contains(op) {
                n += count;
            }
        }
    });
    n
}

#[test]
fn every_cycle_attributed_across_the_grid() {
    // One spec per workload kind, across dissimilar systems — COW, exec
    // text loading, file I/O, aliasing, IPC all exercised.
    let specs = [
        SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::A)),
        SystemSpec::quick(WorkloadKind::Latex, SystemKind::Cmu(Configuration::F)),
        SystemSpec::quick(WorkloadKind::KernelBuild, SystemKind::Utah),
        SystemSpec::quick(WorkloadKind::Fork, SystemKind::Apollo),
        SystemSpec::quick(WorkloadKind::AliasAligned, SystemKind::Tut),
        SystemSpec::quick(WorkloadKind::AliasUnaligned, SystemKind::Sun),
        // Sun's uncached pages take loads too on afs (the alias run
        // only stores through them).
        SystemSpec::quick(WorkloadKind::Afs, SystemKind::Sun),
        SystemSpec {
            write_through: true,
            ..SystemSpec::quick(WorkloadKind::KernelBuild, SystemKind::Cmu(Configuration::F))
        },
    ];
    // Each leaf family's total over the grid, so a family that never
    // occurs cannot pass the per-run checks vacuously.
    let mut seen = [0u64; 8];
    let mut write_through_seen = 0;
    for spec in specs {
        let (stats, tree) = spec.run_profiled();
        let label = spec.label();

        // The tentpole invariant: the tree is a partition of the run.
        assert_eq!(
            tree.total_cycles(),
            stats.cycles,
            "{label}: tree total != machine cycles"
        );

        // Per-operation slices equal the machine's own aggregates.
        assert_eq!(
            machine_op_cycles(&tree, "flush_page.d"),
            stats.machine.d_flush_pages.cycles,
            "{label}: flush cycles"
        );
        assert_eq!(
            machine_op_cycles(&tree, "purge_page.d"),
            stats.machine.d_purge_pages.cycles,
            "{label}: D-purge cycles"
        );
        assert_eq!(
            machine_op_cycles(&tree, "purge_page.i"),
            stats.machine.i_purge_pages.cycles,
            "{label}: I-purge cycles"
        );

        // Counts too, not only cycles.
        let flush_count = {
            let mut n = 0;
            tree.visit(|path, count, _| {
                if path.last() == Some(&Seg::Machine("flush_page.d")) {
                    n += count;
                }
            });
            n
        };
        assert_eq!(
            flush_count, stats.machine.d_flush_pages.count,
            "{label}: flush count"
        );

        // Every counter the machine keeps per access is the count of the
        // leaves charged with it: stats and profile share one vocabulary.
        let m = &stats.machine;
        let families: [(&[&'static str], u64, &str); 8] = [
            (
                &["load.hit", "load.miss", "load.uncached"],
                m.loads,
                "loads",
            ),
            (
                &[
                    "store.hit",
                    "store.miss",
                    "store.uncached",
                    "store.write_through",
                ],
                m.stores,
                "stores",
            ),
            (
                &["ifetch.hit", "ifetch.miss", "ifetch.uncached"],
                m.ifetches,
                "ifetches",
            ),
            (
                &["load.writeback", "store.writeback"],
                m.writebacks,
                "writebacks",
            ),
            (
                &["load.uncached", "store.uncached", "ifetch.uncached"],
                m.uncached,
                "uncached",
            ),
            (&["tlb_fill"], m.tlb_misses, "tlb_misses"),
            (&["dma.write"], m.dma_writes, "dma_writes"),
            (&["dma.read"], m.dma_reads, "dma_reads"),
        ];
        for (i, (ops, counter, name)) in families.into_iter().enumerate() {
            let leaves = machine_op_count(&tree, ops);
            assert_eq!(leaves, counter, "{label}: {name} vs leaves {ops:?}");
            seen[i] += leaves;
        }
        write_through_seen += machine_op_count(&tree, &["store.write_through"]);

        // Flattened rows re-sum to the total (the JSON round-trip rests
        // on this).
        let row_sum: u64 = tree.flatten().iter().map(|r| r.cycles).sum();
        assert_eq!(row_sum, stats.cycles, "{label}: flatten loses cycles");
    }
    assert!(
        seen.iter().all(|&n| n > 0) && write_through_seen > 0,
        "the grid must exercise every leaf family: {seen:?}, write-through {write_through_seen}"
    );
}

#[test]
fn profiling_changes_no_statistic() {
    // A profiled run and an unprofiled run of the same spec are the
    // same simulation: identical RunStats, bit for bit.
    let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
    let (profiled, _tree) = spec.run_profiled();
    let plain = spec.run();
    assert_eq!(profiled, plain, "the probe must not disturb the experiment");
}

#[test]
fn conservation_holds_with_fast_paths_off() {
    // The hot-path rework's host-side fast paths (occupancy
    // short-circuits, translation micro-cache) must not disturb the
    // attribution: with them force-disabled, the same spec yields the
    // same stats and the identical flattened cost tree, and every cycle
    // is still attributed exactly once.
    let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
    let (fast_stats, fast_tree) = spec.run_profiled();

    let mut cfg = spec.kernel_config();
    cfg.machine.fast_paths = false;
    let (slow_stats, slow_tree) = vic_workloads::run_profiled(
        cfg,
        spec.build_workload().as_ref(),
        vic_trace::Tracer::off(),
    );
    assert_eq!(fast_stats, slow_stats, "stats differ with fast paths off");
    assert_eq!(slow_tree.total_cycles(), slow_stats.cycles);
    assert_eq!(
        fast_tree.flatten(),
        slow_tree.flatten(),
        "cost attribution differs with fast paths off"
    );
}

#[test]
fn consistency_work_is_separated_from_user_work() {
    // The paper's Table 2/3 question — how much time goes to consistency
    // management — answered from the tree: manager-context cycles are a
    // nonzero, strict subset of the run under an old-style system on the
    // unaligned alias workload.
    let spec = SystemSpec::quick(
        WorkloadKind::AliasUnaligned,
        SystemKind::Cmu(Configuration::A),
    );
    let (stats, tree) = spec.run_profiled();
    let mgr_cycles = tree.cycles_where(|path| path.iter().any(|s| matches!(s, Seg::Mgr(_))));
    assert!(
        mgr_cycles > 0,
        "aliasing under A must cost consistency work"
    );
    assert!(mgr_cycles < stats.cycles);
    // Fault handling (kernel context) also shows up.
    let fault_cycles = tree.cycles_where(|path| {
        path.first() == Some(&Seg::Os("fault.mapping"))
            || path.first() == Some(&Seg::Os("fault.consistency"))
    });
    assert!(fault_cycles > 0);
}
