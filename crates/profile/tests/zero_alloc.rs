//! The zero-cost-when-disabled guarantee, enforced with a counting
//! global allocator: with the profiler off (the default), the machine's
//! access hot path — loads, stores, ifetches, including misses and
//! writebacks, and the bulk-run engine's `load_run` / `store_run` /
//! `copy_run` — performs **zero heap allocations**, and so do first
//! writes to memory and whole-page DMA transfers. The disabled
//! profiler is one `Option` discriminant test per span site, nothing
//! more.
//!
//! The counter is per thread: libtest runs these tests on parallel
//! threads, and a process-wide count would let a sibling test's setup
//! allocations leak into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vic_core::types::{Mapping, PFrame, Prot, SpaceId, VAddr, VPage};
use vic_machine::{Machine, MachineConfig};
use vic_os::bufcache::Disk;
use vic_profile::Profiler;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread (a const-initialized
    /// `Cell` needs no lazy init and no destructor, so touching it from
    /// inside the allocator cannot recurse).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by this thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn counter_sees_this_threads_allocations() {
    // The per-thread counter must still see the measured thread's own
    // allocations, or every zero below would hold vacuously.
    let (allocs, v) = allocations_during(|| std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert_eq!(allocs, 1);
    drop(v);
}

fn steady_state_machine() -> (Machine, SpaceId, Vec<VAddr>) {
    let mut m = Machine::new(MachineConfig::small());
    let sp = SpaceId(1);
    let mut vas = Vec::new();
    for vp in 0..4u64 {
        m.enter_mapping(
            Mapping::new(sp, VPage(vp)),
            PFrame(vp + 2),
            Prot::READ_WRITE,
        );
        vas.push(m.config().vaddr(VPage(vp)));
    }
    // Warm up: fault in TLB entries and cache lines so the measured
    // loop is the steady state, not first-touch growth of internal
    // tables.
    for &va in &vas {
        m.store(sp, va, 7).unwrap();
        let _ = m.load(sp, va).unwrap();
    }
    (m, sp, vas)
}

#[test]
fn disabled_profiler_allocates_nothing_on_the_access_path() {
    let (mut m, sp, vas) = steady_state_machine();
    assert!(!m.profiler().is_enabled(), "off is the default");

    let (allocs, _) = allocations_during(|| {
        for round in 0..64u32 {
            for &va in &vas {
                m.store(sp, va, round).unwrap();
                assert_eq!(m.load(sp, va).unwrap(), round);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "profiler-off steady-state accesses must not touch the heap"
    );
}

#[test]
fn steady_state_miss_path_allocates_nothing() {
    // The miss path too — fill, eviction, write-back — not only hits.
    // vp0 and vp4 collide in the small config's 4-page data cache but map
    // distinct frames (one mapping per frame, so no aliasing and no
    // oracle-violation logging): alternating stores conflict-miss and
    // write back forever, even in the steady state.
    let mut m = Machine::new(MachineConfig::small());
    let sp = SpaceId(1);
    for (vp, f) in [(0u64, 2u64), (4, 3)] {
        m.enter_mapping(Mapping::new(sp, VPage(vp)), PFrame(f), Prot::READ_WRITE);
    }
    let va0 = m.config().vaddr(VPage(0));
    let va4 = m.config().vaddr(VPage(4));
    // Warm up the TLB, oracle shadow state and the conflict pattern, and
    // leave `0` as the last value stored through va4.
    for round in 0..4u32 {
        m.store(sp, va0, round).unwrap();
        m.store(sp, va4, 0).unwrap();
    }
    let misses_before = m.stats().d_misses;
    let (allocs, _) = allocations_during(|| {
        for round in 1..=256u32 {
            // Evicts va4's dirty line (write-back), fills va0's: miss.
            m.store(sp, va0, round).unwrap();
            // Evicts va0's dirty line, reads back what the eviction above
            // just wrote to memory: miss.
            assert_eq!(m.load(sp, va4).unwrap(), round - 1);
            // Same line, same tag: hit, re-dirties for the next round.
            m.store(sp, va4, round).unwrap();
        }
    });
    assert_eq!(allocs, 0, "miss + write-back path must not touch the heap");
    assert!(
        m.stats().d_misses - misses_before >= 2 * 256,
        "the loop must actually conflict-miss throughout"
    );
    assert_eq!(m.oracle().violations(), 0, "no aliasing, no staleness");
}

#[test]
fn bulk_runs_allocate_nothing() {
    // The bulk-run engine's per-line path: stride-4 runs inside one page,
    // fast paths on, no tracer, and a copy between distinct cache pages,
    // so all three calls are eligible. The small config's 4-page data
    // cache makes vp0/vp4 and vp1/vp5 collide, so the steady state keeps
    // missing and writing back.
    let mut m = Machine::new(MachineConfig::small());
    let sp = SpaceId(1);
    for (vp, f) in [(0u64, 2u64), (1, 3), (4, 4), (5, 5)] {
        m.enter_mapping(Mapping::new(sp, VPage(vp)), PFrame(f), Prot::READ_WRITE);
    }
    let words = (m.config().page_size / 4) as usize;
    let va = |vp: u64| VAddr(vp * 256);
    let vals: Vec<u32> = (0..words as u32).collect();
    let mut out = vec![0u32; words];
    let round = |m: &mut Machine, out: &mut [u32]| {
        m.store_run(sp, va(0), 4, &vals).unwrap();
        m.store_run(sp, va(4), 4, &vals).unwrap();
        m.load_run(sp, va(0), 4, out).unwrap();
        m.copy_run(sp, va(4), sp, va(1), words).unwrap();
        m.copy_run(sp, va(0), sp, va(5), words).unwrap();
        m.load_run(sp, va(1), 4, out).unwrap();
    };
    // Warm up the TLB and the conflict pattern.
    round(&mut m, &mut out);
    let misses_before = m.stats().d_misses;
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..64 {
            round(&mut m, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "bulk load/store/copy runs must not touch the heap"
    );
    assert!(
        m.stats().d_misses - misses_before >= 64 * 4 * 16,
        "the runs must actually miss throughout"
    );
    assert_eq!(out, vals, "the last load read the copied words back");
    assert_eq!(m.oracle().violations(), 0, "no aliasing, no staleness");
}

#[test]
fn first_writes_and_dma_pages_allocate_nothing() {
    // Memory and the oracle's shadow give a page storage on its first
    // write, inside capacity reserved at boot; a DMA page moves through a
    // caller's buffer, and a disk block already written is overwritten in
    // place and lent back without a copy.
    let mut m = Machine::new(MachineConfig::small());
    let size = m.config().page_size as usize;
    let frames = m.config().num_frames();
    let page = vec![0x5au8; size];
    let mut back = vec![0u8; size];
    let mut disk = Disk::new(2, size as u64);
    let b = disk.alloc().unwrap();
    disk.write(b, &page);
    let (allocs, ()) = allocations_during(|| {
        for f in 0..frames {
            // Never written: reads the zero page, materialises nothing.
            m.dma_read_page(PFrame(f), &mut back);
            // First write of the frame's memory and shadow pages.
            m.dma_write_page(PFrame(f), &page);
            m.dma_read_page(PFrame(f), &mut back);
            disk.write(b, &back);
            m.dma_write_page(PFrame(f), disk.read(b));
        }
    });
    assert_eq!(
        allocs, 0,
        "first writes and DMA pages must not touch the heap"
    );
    assert_eq!(back, page);
    assert_eq!(m.oracle().violations(), 0);
}

#[test]
fn disabled_profiler_hooks_allocate_nothing() {
    // The hooks the kernel and manager call on every dispatch, with the
    // profiler off: pure no-ops, no heap.
    let mut p = Profiler::off();
    let (allocs, _) = allocations_during(|| {
        for _ in 0..1000 {
            p.push(vic_profile::Seg::Os("fault.mapping"));
            p.leaf("software", 3);
            p.event("dma.write");
            p.pop();
        }
    });
    assert_eq!(allocs, 0, "disabled spans must be a branch, not an alloc");
}

#[test]
fn enabled_profiler_reaches_steady_state_too() {
    // Not part of the disabled-guarantee, but worth pinning: once every
    // path in the working set has its tree node, repeating the same
    // accesses allocates nothing either — the arena only grows on new
    // paths.
    let (mut m, sp, vas) = steady_state_machine();
    m.set_profiler(Profiler::enabled());
    // One full round builds the needed nodes.
    for &va in &vas {
        m.store(sp, va, 1).unwrap();
        let _ = m.load(sp, va).unwrap();
    }
    let (allocs, _) = allocations_during(|| {
        for round in 0..64u32 {
            for &va in &vas {
                m.store(sp, va, round).unwrap();
                let _ = m.load(sp, va).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "repeated paths reuse their arena nodes");
}
