//! Property test for the page-granular store behind physical memory and
//! the oracle's shadow, driven by the workspace's own deterministic RNG
//! (no external crates). A paged [`PhysMemory`] and a paged [`Oracle`]
//! run twinned with a flat `Vec<u8>` model of each under a randomized
//! stream of in-page reads, writes, shadow records, byte checks and
//! word-group checks, over a memory most of whose pages are never
//! written:
//!
//! * every read returns the flat model's bytes;
//! * the oracle's verdicts (violation count and retained sample) are the
//!   flat model's;
//! * `save_state` writes the same words as the flat byte string, and a
//!   restore materialises exactly the pages holding a non-zero byte;
//! * a page is materialised exactly when it is first written.

use std::collections::BTreeSet;

use vic_core::rng::Rng64;
use vic_core::serial::{WordReader, WordWriter};
use vic_core::types::PAddr;
use vic_machine::mem::PhysMemory;
use vic_machine::oracle::{Oracle, Violation};

const PAGE: u64 = 256;
const PAGES: u64 = 64;
const MEM_BYTES: u64 = PAGE * PAGES;
/// Lines of the small machine: the word-group checks stay within one.
const LINE: u64 = 16;
/// Only the first quarter of the pages is ever written; the rest are
/// read and checked while still unmaterialised.
const WRITTEN_PAGES: u64 = PAGES / 4;
const KEEP: usize = 8;

/// The flat reference: memory, shadow and the oracle's verdict log.
struct Flat {
    mem: Vec<u8>,
    shadow: Vec<u8>,
    violations: u64,
    first: Vec<Violation>,
}

impl Flat {
    fn check(&mut self, pa: u64, data: &[u8], observer: &'static str) {
        let want = &self.shadow[pa as usize..pa as usize + data.len()];
        if let Some(i) = data.iter().zip(want).position(|(a, b)| a != b) {
            self.violations += 1;
            if self.first.len() < KEEP {
                self.first.push(Violation {
                    pa: PAddr(pa + i as u64),
                    got: data[i],
                    expected: want[i],
                    observer,
                });
            }
        }
    }

    /// The words `Oracle::save_state` must write for this model.
    fn oracle_words(&self) -> Vec<u64> {
        let mut w = WordWriter::new();
        w.bytes(&self.shadow);
        w.u64(self.violations);
        w.usize(self.first.len());
        for v in &self.first {
            w.u64(v.pa.0);
            w.u64(u64::from(v.got));
            w.u64(u64::from(v.expected));
            w.u64(match v.observer {
                "CPU load" => 0,
                _ => 2,
            });
        }
        w.into_words()
    }
}

struct Twin {
    mem: PhysMemory,
    oracle: Oracle,
    flat: Flat,
    written: BTreeSet<u64>,
}

/// A random in-page range: `(pa, len)`, on any page or only on the
/// writable ones.
fn range(rng: &mut Rng64, pages: u64) -> (u64, usize) {
    let page = rng.gen_u64(0, pages - 1);
    let off = rng.gen_u64(0, PAGE - 1);
    let len = rng.gen_u64(1, (PAGE - off).min(40));
    (page * PAGE + off, len as usize)
}

fn random_bytes(rng: &mut Rng64, len: usize) -> Vec<u8> {
    // Small values, zeros often: zero writes still materialise a page,
    // and zeroed-again pages must stay out of a restore.
    (0..len).map(|_| rng.gen_u32(0, 3) as u8).collect()
}

fn random_op(rng: &mut Rng64, t: &mut Twin, step: usize) {
    match rng.gen_index(100) {
        0..=24 => {
            let (pa, len) = range(rng, WRITTEN_PAGES);
            let data = random_bytes(rng, len);
            t.mem.write(PAddr(pa), &data);
            t.flat.mem[pa as usize..pa as usize + len].copy_from_slice(&data);
            t.written.insert(pa / PAGE);
        }
        25..=44 => {
            let (pa, len) = range(rng, PAGES);
            let mut buf = vec![0xee; len];
            t.mem.read(PAddr(pa), &mut buf);
            assert_eq!(
                buf,
                &t.flat.mem[pa as usize..pa as usize + len],
                "step {step}: read at {pa:#x}"
            );
        }
        45..=64 => {
            let (pa, len) = range(rng, WRITTEN_PAGES);
            let data = random_bytes(rng, len);
            t.oracle.record_write(PAddr(pa), &data);
            t.flat.shadow[pa as usize..pa as usize + len].copy_from_slice(&data);
        }
        65..=79 => {
            // Check what the flat shadow holds, sometimes with one byte
            // perturbed (a stale read).
            let (pa, len) = range(rng, PAGES);
            let mut data = t.flat.shadow[pa as usize..pa as usize + len].to_vec();
            if rng.gen_bool(0.3) {
                let i = rng.gen_index(len);
                data[i] ^= 1 + rng.gen_u32(0, 254) as u8;
            }
            t.oracle.check_read(PAddr(pa), &data, "device (DMA) read");
            t.flat.check(pa, &data, "device (DMA) read");
        }
        _ => {
            // A word group within one line, as the bulk engine checks it.
            let line = rng.gen_u64(0, MEM_BYTES / LINE - 1) * LINE;
            let first = rng.gen_u64(0, LINE / 4 - 1);
            let words = rng.gen_u64(1, LINE / 4 - first);
            let pa = line + 4 * first;
            let len = 4 * words as usize;
            let mut data = t.flat.shadow[pa as usize..pa as usize + len].to_vec();
            for b in &mut data {
                if rng.gen_bool(0.05) {
                    *b = b.wrapping_add(1);
                }
            }
            t.oracle.check_read_words(PAddr(pa), &data, "CPU load");
            for (i, word) in data.chunks_exact(4).enumerate() {
                t.flat.check(pa + 4 * i as u64, word, "CPU load");
            }
        }
    }
    assert_eq!(
        t.oracle.violations(),
        t.flat.violations,
        "step {step}: violation count"
    );
    assert_eq!(t.oracle.sample(), &t.flat.first[..], "step {step}: sample");
    assert_eq!(
        t.mem.materialised_pages(),
        t.written.len(),
        "step {step}: pages materialised"
    );
}

/// Saved words equal the flat byte string's; a restore of them holds the
/// same bytes and materialises only the pages with a non-zero byte.
fn check_checkpoint(t: &Twin, step: usize) {
    let mut w = WordWriter::new();
    t.mem.save_state(&mut w);
    let words = w.into_words();
    let mut flat = WordWriter::new();
    flat.bytes(&t.flat.mem);
    assert_eq!(words, flat.into_words(), "step {step}: memory words");

    let mut w = WordWriter::new();
    t.oracle.save_state(&mut w);
    assert_eq!(
        w.into_words(),
        t.flat.oracle_words(),
        "step {step}: oracle words"
    );

    let mut back = PhysMemory::new(MEM_BYTES, PAGE);
    back.restore_state(&mut WordReader::new(&words)).unwrap();
    let nonzero = t
        .flat
        .mem
        .chunks(PAGE as usize)
        .filter(|p| p.iter().any(|&b| b != 0))
        .count();
    assert_eq!(back.materialised_pages(), nonzero, "step {step}: restored");
    let mut buf = vec![0u8; PAGE as usize];
    for (page, want) in t.flat.mem.chunks(PAGE as usize).enumerate() {
        back.read(PAddr(page as u64 * PAGE), &mut buf);
        assert_eq!(buf, want, "step {step}: restored page {page}");
    }
}

#[test]
fn paged_store_matches_flat_bytes_under_random_traffic() {
    for seed in 0..4u64 {
        let mut rng = Rng64::seed_from_u64(0x9a9e_0000 + seed);
        let mut t = Twin {
            mem: PhysMemory::new(MEM_BYTES, PAGE),
            oracle: Oracle::new(MEM_BYTES, PAGE),
            flat: Flat {
                mem: vec![0; MEM_BYTES as usize],
                shadow: vec![0; MEM_BYTES as usize],
                violations: 0,
                first: Vec::new(),
            },
            written: BTreeSet::new(),
        };
        assert_eq!(t.mem.materialised_pages(), 0, "a fresh store is empty");
        for step in 0..3000 {
            random_op(&mut rng, &mut t, step);
            if step % 500 == 0 {
                check_checkpoint(&t, step);
            }
        }
        check_checkpoint(&t, 3000);
        assert!(t.written.len() < PAGES as usize, "some pages never written");
        assert!(t.flat.violations > 0, "the stream exercised stale reads");
    }
}
