//! Twin property test for the bulk-run engine: a machine driven through
//! [`Machine::load_run`] / [`Machine::store_run`] / [`Machine::copy_run`]
//! must be *observably identical* to a twin driven through the per-word
//! [`Machine::load`] / [`Machine::store`] loops those APIs replace —
//! identical cycles, stats, returned data, faults, oracle verdicts (the
//! count and the logged violations, after every step) and (after
//! flushing) memory contents — under randomized run lengths,
//! strides, alignments, protections, uncached pages and mapping churn,
//! across associativities 1/2/4 and both write policies.
//!
//! Runs are free to cross pages, hit unmapped or read-only pages, or
//! alias each other: ineligible runs must degrade to the literal word
//! loop, so every case is in scope.

use vic_core::rng::Rng64;
use vic_core::types::{CacheKind, CachePage, Mapping, PFrame, Prot, SpaceId, VAddr, VPage};
use vic_machine::{Machine, MachineConfig, WritePolicy};

const VPAGES: u64 = 16;
const FRAMES: u64 = 32;
const MAX_RUN: usize = 64;

struct Twin {
    /// Driven through the run APIs (bulk engine live where eligible).
    bulk: Machine,
    /// Driven through the per-word loops the run APIs must match.
    word: Machine,
}

impl Twin {
    fn new(cfg: &MachineConfig, rng: &mut Rng64) -> Self {
        let mut t = Twin {
            bulk: Machine::new(*cfg),
            word: Machine::new(*cfg),
        };
        // A randomized address-space layout, identical on both sides:
        // most pages writable, some read-only, some uncached, some holes,
        // and colliding frames so runs alias each other.
        for space in [SpaceId(1), SpaceId(2)] {
            for vp in 0..VPAGES {
                if rng.gen_bool(0.15) {
                    continue; // hole
                }
                let m = Mapping::new(space, VPage(vp));
                let frame = PFrame(rng.gen_u64(0, FRAMES - 1));
                let prot = if rng.gen_bool(0.15) {
                    Prot::READ
                } else {
                    Prot::READ_WRITE
                };
                t.enter(m, frame, prot);
                if rng.gen_bool(0.1) {
                    t.bulk.set_uncached(m, true);
                    t.word.set_uncached(m, true);
                }
            }
        }
        t
    }

    fn enter(&mut self, m: Mapping, frame: PFrame, prot: Prot) {
        self.bulk.enter_mapping(m, frame, prot);
        self.word.enter_mapping(m, frame, prot);
    }

    fn check(&self, step: usize, ctx: &str) {
        assert_eq!(
            self.bulk.cycles(),
            self.word.cycles(),
            "step {step}: cycles diverged after {ctx}"
        );
        assert_eq!(
            self.bulk.stats(),
            self.word.stats(),
            "step {step}: stats diverged after {ctx}"
        );
        assert_eq!(
            self.bulk.oracle().violations(),
            self.word.oracle().violations(),
            "step {step}: violation count diverged after {ctx}"
        );
        assert_eq!(
            self.bulk.oracle().sample(),
            self.word.oracle().sample(),
            "step {step}: logged violations diverged after {ctx}"
        );
    }

    /// A load run on the bulk twin vs the per-word load loop on the word
    /// twin.
    fn load(&mut self, step: usize, space: SpaceId, va: VAddr, stride: u64, n: usize) {
        let mut out_a = [0u32; MAX_RUN];
        let mut out_b = [0u32; MAX_RUN];
        let ra = self.bulk.load_run(space, va, stride, &mut out_a[..n]);
        let mut rb = Ok(());
        for (i, slot) in out_b[..n].iter_mut().enumerate() {
            match self.word.load(space, VAddr(va.0 + i as u64 * stride)) {
                Ok(v) => *slot = v,
                Err(f) => {
                    rb = Err(f);
                    break;
                }
            }
        }
        assert_eq!(ra, rb, "step {step}: load_run result");
        assert_eq!(out_a, out_b, "step {step}: load_run data");
        self.check(step, "load_run");
    }

    /// A store run vs the per-word store loop.
    fn store(&mut self, step: usize, space: SpaceId, va: VAddr, stride: u64, vals: &[u32]) {
        let ra = self.bulk.store_run(space, va, stride, vals);
        let mut rb = Ok(());
        for (i, &v) in vals.iter().enumerate() {
            if let Err(f) = self.word.store(space, VAddr(va.0 + i as u64 * stride), v) {
                rb = Err(f);
                break;
            }
        }
        assert_eq!(ra, rb, "step {step}: store_run result");
        self.check(step, "store_run");
    }

    /// A copy run vs the alternating load/store loop.
    fn copy(&mut self, step: usize, src: (SpaceId, VAddr), dst: (SpaceId, VAddr), n: usize) {
        let ((ss, sva), (ds, dva)) = (src, dst);
        let ra = self.bulk.copy_run(ss, sva, ds, dva, n);
        let mut rb = Ok(());
        for i in 0..n {
            let off = i as u64 * 4;
            match self.word.load(ss, VAddr(sva.0 + off)) {
                Ok(v) => {
                    if let Err(f) = self.word.store(ds, VAddr(dva.0 + off), v) {
                        rb = Err(f);
                        break;
                    }
                }
                Err(f) => {
                    rb = Err(f);
                    break;
                }
            }
        }
        assert_eq!(ra, rb, "step {step}: copy_run result");
        self.check(step, "copy_run");
    }
}

fn random_addr(rng: &mut Rng64) -> (SpaceId, VAddr) {
    let space = SpaceId(rng.gen_u32(1, 2));
    let va = rng.gen_u64(0, VPAGES * 64 - 1) * 4;
    (space, VAddr(va))
}

fn random_op(rng: &mut Rng64, t: &mut Twin, step: usize) {
    match rng.gen_index(100) {
        0..=37 => {
            let (space, va) = random_addr(rng);
            let stride = rng.gen_u64(1, 4) * 4;
            let n = rng.gen_index(MAX_RUN + 1);
            t.load(step, space, va, stride, n);
        }
        38..=75 => {
            let (space, va) = random_addr(rng);
            let stride = rng.gen_u64(1, 4) * 4;
            let n = rng.gen_index(MAX_RUN + 1);
            let mut vals = [0u32; MAX_RUN];
            for v in vals[..n].iter_mut() {
                *v = rng.next_u32();
            }
            t.store(step, space, va, stride, &vals[..n]);
        }
        76..=95 => {
            let src = random_addr(rng);
            let dst = random_addr(rng);
            let n = rng.gen_index(MAX_RUN + 1);
            t.copy(step, src, dst, n);
        }
        _ => {
            // Mapping churn: remap a page (possibly changing frame,
            // protection or cachability) or drop it. Applied identically
            // to both machines; both invalidate their micro-caches.
            let space = SpaceId(rng.gen_u32(1, 2));
            let m = Mapping::new(space, VPage(rng.gen_u64(0, VPAGES - 1)));
            if rng.gen_bool(0.3) {
                t.bulk.remove_mapping(m);
                t.word.remove_mapping(m);
            } else {
                let frame = PFrame(rng.gen_u64(0, FRAMES - 1));
                let prot = if rng.gen_bool(0.15) {
                    Prot::READ
                } else {
                    Prot::READ_WRITE
                };
                t.enter(m, frame, prot);
                if rng.gen_bool(0.1) {
                    t.bulk.set_uncached(m, true);
                    t.word.set_uncached(m, true);
                }
            }
        }
    }
}

fn drive(cfg: MachineConfig, seed: u64) {
    cfg.validate();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = Twin::new(&cfg, &mut rng);
    for step in 0..3000 {
        random_op(&mut rng, &mut t, step);
    }
    // Flush everything so dirty lines reach memory, then the two physical
    // memories must be byte-identical.
    let cache_pages = cfg.dcache_bytes / (cfg.page_size * cfg.dcache_assoc);
    for cp in 0..cache_pages {
        for frame in 0..FRAMES {
            t.bulk
                .flush_dcache_page(CachePage(cp as u32), PFrame(frame));
            t.word
                .flush_dcache_page(CachePage(cp as u32), PFrame(frame));
        }
    }
    t.check(usize::MAX, "final flush");
    for frame in 0..FRAMES {
        for off in (0..cfg.page_size).step_by(4) {
            assert_eq!(
                t.bulk.peek_memory(PFrame(frame), off),
                t.word.peek_memory(PFrame(frame), off),
                "memories diverged at frame {frame} offset {off:#x}"
            );
        }
    }
}

#[test]
fn bulk_runs_match_word_loops_write_back() {
    for assoc in [1u64, 2, 4] {
        let mut cfg = MachineConfig::small();
        cfg.dcache_assoc = assoc;
        drive(cfg, 0xb01c_0000 + assoc);
    }
}

#[test]
fn bulk_runs_match_word_loops_write_through() {
    for assoc in [1u64, 2, 4] {
        let mut cfg = MachineConfig::small();
        cfg.write_policy = WritePolicy::WriteThrough;
        cfg.dcache_assoc = assoc;
        drive(cfg, 0x3717_0000 + assoc);
    }
}

#[test]
fn bulk_runs_match_word_loops_one_entry_tlb() {
    // With a single TLB entry the alternating copy loop thrashes the TLB
    // per word; the bulk copy must refuse (eligibility) rather than charge
    // fewer TLB fills than the word loop would.
    let mut cfg = MachineConfig::small();
    cfg.tlb_entries = 1;
    drive(cfg, 0x0001_71b0);
}

/// Twins over the small geometry with one frame mapped at two virtual
/// pages in different data-cache pages (an unaligned alias), and nothing
/// else mapped.
fn alias_twin(frame: u64, vps: [u64; 2]) -> (Twin, [VAddr; 2]) {
    let cfg = MachineConfig::small();
    let mut t = Twin {
        bulk: Machine::new(cfg),
        word: Machine::new(cfg),
    };
    let sp = SpaceId(1);
    for vp in vps {
        t.enter(Mapping::new(sp, VPage(vp)), PFrame(frame), Prot::READ_WRITE);
    }
    assert_ne!(
        cfg.cache_page(CacheKind::Data, VPage(vps[0])),
        cfg.cache_page(CacheKind::Data, VPage(vps[1])),
        "the alias must be unaligned"
    );
    (t, vps.map(|vp| cfg.vaddr(VPage(vp))))
}

#[test]
fn stale_line_groups_fall_back_to_per_word_checks() {
    // Stores through one alias stay dirty in its cache page; loads through
    // the other fill from stale memory. Every third word stores 0, which
    // memory already holds, so most line groups mix stale and clean words
    // and the grouped check must fall back to per-word checks to log the
    // same violations as the word loop.
    let (mut t, [a, b]) = alias_twin(5, [0, 1]);
    let sp = SpaceId(1);
    let vals: Vec<u32> = (0..MAX_RUN as u32)
        .map(|j| if j % 3 == 0 { 0 } else { 0x100 + j })
        .collect();
    t.store(0, sp, a, 4, &vals);
    t.load(1, sp, b, 4, MAX_RUN);
    assert!(t.bulk.oracle().violations() > 0, "the alias must go stale");
    // Mid-line starts and a stride the grouped path leaves per word.
    t.load(2, sp, VAddr(b.0 + 8), 4, 21);
    t.load(3, sp, VAddr(b.0 + 4), 8, 30);
    assert!(t.bulk.oracle().violations() >= 2 * MAX_RUN as u64 / 3);
}

#[test]
fn copy_between_aliases_of_one_frame_keeps_word_order() {
    // Source and destination are the same frame through two unaligned
    // aliases, copied at the same page offset: the physical byte ranges of
    // each line pair coincide, and the grouped check-then-record must
    // give the word loop's verdicts. The destination alias holds dirty data the
    // source alias cannot see, so the copy reads stale words.
    let (mut t, [src, dst]) = alias_twin(6, [2, 3]);
    let sp = SpaceId(1);
    let vals: Vec<u32> = (1..=32).collect();
    t.store(0, sp, dst, 4, &vals);
    t.copy(1, (sp, VAddr(src.0 + 4)), (sp, VAddr(dst.0 + 4)), 40);
    assert!(
        t.bulk.oracle().violations() > 0,
        "the copy must read stale words"
    );
    // Back the other way, from a mid-line offset.
    t.copy(2, (sp, VAddr(dst.0 + 12)), (sp, VAddr(src.0 + 12)), 33);
    t.load(3, sp, src, 4, MAX_RUN);
}
