//! Property tests for the cache's page-occupancy index and its fast
//! paths, driven by the workspace's own deterministic RNG (no external
//! crates). Under a randomized stream of reads, writes, write-throughs,
//! page flushes, page purges and full purges, at several associativities:
//!
//! * the occupancy index always agrees with a brute-force scan of the
//!   line array ([`Cache::occupancy`] vs [`Cache::scan_occupancy`]);
//! * a fast-paths cache and a slow (scan-only) twin return identical
//!   results for every operation, and their memories stay byte-equal;
//! * [`Cache::page_holds`] agrees with the original division-based
//!   scanning implementation ([`Cache::page_holds_scan`]).

use vic_core::rng::Rng64;
use vic_core::types::{CacheKind, CachePage, PAddr, PFrame, VAddr};
use vic_machine::cache::Cache;
use vic_machine::mem::PhysMemory;

const MEM_BYTES: u64 = 64 * 1024;
const PAGE_SIZE: u64 = 256;
const LINE_SIZE: u64 = 16;
const CAPACITY: u64 = 1024;

struct Twin {
    fast: Cache,
    fast_mem: PhysMemory,
    slow: Cache,
    slow_mem: PhysMemory,
}

impl Twin {
    fn new(assoc: u64) -> Self {
        let build =
            || Cache::with_associativity(CacheKind::Data, CAPACITY, LINE_SIZE, PAGE_SIZE, assoc);
        let mut slow = build();
        slow.set_fast_paths(false);
        Twin {
            fast: build(),
            fast_mem: PhysMemory::new(MEM_BYTES, PAGE_SIZE),
            slow,
            slow_mem: PhysMemory::new(MEM_BYTES, PAGE_SIZE),
        }
    }

    /// The index and the fast paths never disagree with brute force.
    fn check_invariants(&self, step: usize) {
        for cp in 0..self.fast.num_cache_pages() {
            let cp = CachePage(cp);
            assert_eq!(
                self.fast.occupancy(cp),
                self.fast.scan_occupancy(cp),
                "step {step}: occupancy index diverged from scan on {cp:?}"
            );
            for frame in 0..8u64 {
                assert_eq!(
                    self.fast.page_holds(cp, PFrame(frame), PAGE_SIZE),
                    self.fast.page_holds_scan(cp, PFrame(frame), PAGE_SIZE),
                    "step {step}: page_holds fast path diverged on {cp:?} frame {frame}"
                );
            }
        }
    }
}

fn random_op(rng: &mut Rng64, t: &mut Twin, step: usize) {
    // Addresses: line-aligned, within a few cache-size multiples of
    // virtual space and the first 8 physical frames, so collisions,
    // aliases and evictions all occur often.
    let va = VAddr(rng.gen_u64(0, 4 * CAPACITY / LINE_SIZE - 1) * LINE_SIZE);
    let pa = PAddr(rng.gen_u64(0, 8 * PAGE_SIZE / LINE_SIZE - 1) * LINE_SIZE);
    let cp = CachePage(rng.gen_u32(0, t.fast.num_cache_pages() - 1));
    let frame = PFrame(rng.gen_u64(0, 7));
    match rng.gen_index(100) {
        0..=34 => {
            let mut a = [0u8; 4];
            let mut b = [0u8; 4];
            let ra = t.fast.read(va, pa, &mut t.fast_mem, &mut a);
            let rb = t.slow.read(va, pa, &mut t.slow_mem, &mut b);
            assert_eq!(ra, rb, "step {step}: read result");
            assert_eq!(a, b, "step {step}: read data");
        }
        35..=64 => {
            let bytes = rng.next_u32().to_le_bytes();
            let ra = t.fast.write(va, pa, &mut t.fast_mem, &bytes);
            let rb = t.slow.write(va, pa, &mut t.slow_mem, &bytes);
            assert_eq!(ra, rb, "step {step}: write result");
        }
        65..=74 => {
            let bytes = rng.next_u32().to_le_bytes();
            let ra = t.fast.write_through(va, pa, &mut t.fast_mem, &bytes);
            let rb = t.slow.write_through(va, pa, &mut t.slow_mem, &bytes);
            assert_eq!(ra, rb, "step {step}: write-through result");
        }
        75..=86 => {
            let oa = t.fast.flush_page(cp, frame, PAGE_SIZE, &mut t.fast_mem);
            let ob = t.slow.flush_page(cp, frame, PAGE_SIZE, &mut t.slow_mem);
            assert_eq!(oa, ob, "step {step}: flush_page outcome");
        }
        87..=97 => {
            let oa = t.fast.purge_page(cp, frame, PAGE_SIZE);
            let ob = t.slow.purge_page(cp, frame, PAGE_SIZE);
            assert_eq!(oa, ob, "step {step}: purge_page outcome");
        }
        _ => {
            t.fast.purge_all();
            t.slow.purge_all();
        }
    }
}

#[test]
fn occupancy_index_matches_brute_force_under_random_traffic() {
    for assoc in [1u64, 2, 4] {
        let mut rng = Rng64::seed_from_u64(0xfeed_0000 + assoc);
        let mut t = Twin::new(assoc);
        for step in 0..4000 {
            random_op(&mut rng, &mut t, step);
            // Full-state checks are quadratic; sample them, but always
            // check the occupancy counters.
            if step % 7 == 0 {
                t.check_invariants(step);
            }
        }
        t.check_invariants(usize::MAX);
        // The two memories must have seen the same write-back traffic.
        for off in (0..MEM_BYTES).step_by(4) {
            assert_eq!(
                t.fast_mem.read_u32(PAddr(off)),
                t.slow_mem.read_u32(PAddr(off)),
                "memories diverged at {off:#x} (assoc {assoc})"
            );
        }
    }
}

#[test]
fn fast_paths_default_on_and_slow_twin_off() {
    let t = Twin::new(2);
    assert!(t.fast.fast_paths());
    assert!(!t.slow.fast_paths());
}
