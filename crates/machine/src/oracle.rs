//! The staleness oracle: shadow memory that knows what every physical byte
//! *should* contain.
//!
//! The paper's correctness criterion is that "the memory system never
//! transfers a stale value to either the CPU or a device". The oracle
//! enforces exactly that: every CPU store and device write updates the
//! shadow; every CPU load, instruction fetch and device read is compared
//! against it. Because the simulated caches really do go inconsistent when
//! mismanaged, a clean oracle run is end-to-end evidence that a consistency
//! manager is correct — and the deliberately broken `NullManager`
//! demonstrates the oracle catches real staleness.
//!
//! The shadow is a [`PhysMemory`] of its own, so it is materialised a page
//! at a time on first write, exactly like the memory it shadows: a page
//! nobody wrote reads as zero in both. Every check and record lies within
//! one page (a word, a line's word group or a DMA page).

use crate::mem::{le_word, PhysMemory};
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::PAddr;

/// One detected staleness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Physical address of the first mismatching byte.
    pub pa: PAddr,
    /// What the memory system returned.
    pub got: u8,
    /// What the most recent write put there.
    pub expected: u8,
    /// Who observed the stale value.
    pub observer: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} observed stale data at {}: got {:#04x}, expected {:#04x}",
            self.observer, self.pa, self.got, self.expected
        )
    }
}

/// Shadow memory plus a violation log.
#[derive(Debug)]
pub struct Oracle {
    expected: PhysMemory,
    violations: u64,
    first: Vec<Violation>,
    /// Panic on first violation instead of logging (for tests that want a
    /// precise failure point).
    pub panic_on_violation: bool,
}

/// How many violations are retained verbatim (the count is always exact).
const KEEP: usize = 8;

impl Oracle {
    /// An oracle over `size` bytes of physical memory, initially all zero
    /// (matching a fresh [`PhysMemory`] with the same page size).
    pub fn new(size: u64, page_size: u64) -> Self {
        Oracle {
            expected: PhysMemory::new(size, page_size),
            violations: 0,
            first: Vec::new(),
            panic_on_violation: false,
        }
    }

    /// Record a write (CPU store or device write) of `data` at `pa`.
    #[inline(always)]
    pub fn record_write(&mut self, pa: PAddr, data: &[u8]) {
        self.expected.write(pa, data);
    }

    /// Check data returned by the memory system against the shadow.
    #[inline(always)]
    pub fn check_read(&mut self, pa: PAddr, data: &[u8], observer: &'static str) {
        if data != self.expected.bytes(pa, data.len()) {
            self.violation(pa, data, observer);
        }
    }

    /// Log the first mismatching byte of a failed [`Oracle::check_read`].
    #[cold]
    #[inline(never)]
    fn violation(&mut self, pa: PAddr, data: &[u8], observer: &'static str) {
        let want = self.expected.bytes(pa, data.len());
        let i = data
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .expect("differs");
        let v = Violation {
            pa: PAddr(pa.0 + i as u64),
            got: data[i],
            expected: want[i],
            observer,
        };
        if self.panic_on_violation {
            panic!("staleness: {v}");
        }
        self.violations += 1;
        if self.first.len() < KEEP {
            self.first.push(v);
        }
    }

    /// Check a group of consecutive aligned 32-bit words read at `pa` —
    /// exactly equivalent to [`Oracle::check_read`] per 4-byte word in
    /// ascending order. A clean group costs one slice comparison; only a
    /// mismatching group repeats the per-word checks, so the violation
    /// count and the retained sample are the same as the word loop's.
    #[inline(always)]
    pub fn check_read_words(&mut self, pa: PAddr, data: &[u8], observer: &'static str) {
        debug_assert!(data.len().is_multiple_of(4), "whole words only");
        if data == self.expected.bytes(pa, data.len()) {
            return;
        }
        for (i, word) in data.chunks_exact(4).enumerate() {
            self.check_read(PAddr(pa.0 + 4 * i as u64), word, observer);
        }
    }

    /// Check a run of loaded 32-bit words, `words[i]` read at
    /// `pa + i * stride`, all within one page — exactly equivalent to
    /// [`Oracle::check_read`] of each word's little-endian bytes in
    /// ascending order. A clean run costs one page lookup and one pass
    /// over the words; only a stale run repeats the per-word checks, so
    /// the violation count and the retained sample are the word loop's.
    #[inline(always)]
    pub fn check_read_run(
        &mut self,
        pa: PAddr,
        stride: u64,
        words: &[u32],
        observer: &'static str,
    ) {
        let Some(span) = run_span(stride, words.len()) else {
            return;
        };
        let shadow = self.expected.bytes(pa, span);
        // An OR of XORs with no early exit: a branch-free loop.
        let mut diff = 0;
        if stride == 4 {
            for (b, &w) in shadow.chunks_exact(4).zip(words) {
                diff |= le_word(b) ^ w;
            }
        } else {
            for (b, &w) in shadow.chunks(stride as usize).zip(words) {
                diff |= le_word(b) ^ w;
            }
        }
        if diff != 0 {
            for (i, w) in words.iter().enumerate() {
                self.check_read(PAddr(pa.0 + i as u64 * stride), &w.to_le_bytes(), observer);
            }
        }
    }

    /// Record a run of stored 32-bit words, `words[i]` written at
    /// `pa + i * stride`, all within one page: the shadow that
    /// [`Oracle::record_write`] of each word's little-endian bytes leaves,
    /// from one page lookup.
    #[inline(always)]
    pub fn record_write_run(&mut self, pa: PAddr, stride: u64, words: &[u32]) {
        let Some(span) = run_span(stride, words.len()) else {
            return;
        };
        let shadow = self.expected.bytes_mut(pa, span);
        if stride == 4 {
            for (b, w) in shadow.chunks_exact_mut(4).zip(words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
        } else {
            for (b, w) in shadow.chunks_mut(stride as usize).zip(words) {
                b[..4].copy_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// Total violations observed.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first few violations, verbatim.
    pub fn sample(&self) -> &[Violation] {
        &self.first
    }

    /// Forget recorded violations (the shadow contents are kept).
    pub fn clear_violations(&mut self) {
        self.violations = 0;
        self.first.clear();
    }

    /// Serialize the shadow and the violation log. The observer of each
    /// retained violation is a `&'static str` in memory; on the wire it
    /// becomes a small code (see `observer_code`). `panic_on_violation`
    /// is a test harness knob, not simulated state, and is not written.
    pub fn save_state(&self, w: &mut WordWriter) {
        self.expected.save_state(w);
        w.u64(self.violations);
        w.usize(self.first.len());
        for v in &self.first {
            w.u64(v.pa.0);
            w.u64(u64::from(v.got));
            w.u64(u64::from(v.expected));
            w.u64(observer_code(v.observer));
        }
    }

    /// Restore state saved by [`Oracle::save_state`]; the shadow size must
    /// match the configured memory size.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.expected.restore_contents(r, "oracle size")?;
        self.violations = r.u64()?;
        let at = r.position();
        let n = r.usize()?;
        if n > KEEP {
            return Err(SerialError::Corrupt {
                at,
                what: "violation sample size",
            });
        }
        self.first.clear();
        for _ in 0..n {
            let pa = PAddr(r.u64()?);
            let at = r.position();
            let got = u8::try_from(r.u64()?).map_err(|_| SerialError::Corrupt {
                at,
                what: "violation byte",
            })?;
            let at = r.position();
            let expected = u8::try_from(r.u64()?).map_err(|_| SerialError::Corrupt {
                at,
                what: "violation byte",
            })?;
            let at = r.position();
            let observer = observer_name(r.u64()?).ok_or(SerialError::Corrupt {
                at,
                what: "observer code",
            })?;
            self.first.push(Violation {
                pa,
                got,
                expected,
                observer,
            });
        }
        Ok(())
    }
}

/// Bytes from the first word of a run of `n` words `stride` apart to the
/// end of its last word; `None` for an empty run.
fn run_span(stride: u64, n: usize) -> Option<usize> {
    debug_assert!(stride >= 4, "words of a run do not overlap");
    n.checked_sub(1).map(|last| last * stride as usize + 4)
}

/// Wire code for a violation observer (the machine uses a fixed set of
/// `&'static str` names; anything else maps to the reserved code 3).
fn observer_code(observer: &'static str) -> u64 {
    match observer {
        "CPU load" => 0,
        "instruction fetch" => 1,
        "device (DMA) read" => 2,
        _ => 3,
    }
}

/// Inverse of [`observer_code`]; `None` for codes never written.
fn observer_name(code: u64) -> Option<&'static str> {
    match code {
        0 => Some("CPU load"),
        1 => Some("instruction fetch"),
        2 => Some("device (DMA) read"),
        3 => Some("unknown observer"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_reads_pass() {
        let mut o = Oracle::new(64, 64);
        o.record_write(PAddr(8), &[1, 2, 3, 4]);
        o.check_read(PAddr(8), &[1, 2, 3, 4], "CPU");
        o.check_read(PAddr(0), &[0, 0], "CPU");
        assert_eq!(o.violations(), 0);
    }

    #[test]
    fn stale_read_detected() {
        let mut o = Oracle::new(64, 64);
        o.record_write(PAddr(8), &[9]);
        o.check_read(PAddr(8), &[0], "device");
        assert_eq!(o.violations(), 1);
        let v = &o.sample()[0];
        assert_eq!(v.pa, PAddr(8));
        assert_eq!((v.got, v.expected), (0, 9));
        assert_eq!(v.observer, "device");
        assert!(v.to_string().contains("stale"));
    }

    #[test]
    fn mismatch_position_reported() {
        let mut o = Oracle::new(64, 64);
        o.record_write(PAddr(0), &[1, 2, 3, 4]);
        o.check_read(PAddr(0), &[1, 2, 9, 4], "CPU");
        assert_eq!(o.sample()[0].pa, PAddr(2));
    }

    #[test]
    fn word_group_check_matches_per_word_checks() {
        let mut grouped = Oracle::new(64, 64);
        let mut per_word = Oracle::new(64, 64);
        let written: Vec<u8> = (1..=32).collect();
        grouped.record_write(PAddr(16), &written);
        per_word.record_write(PAddr(16), &written);
        // Clean, then stale in words 1 and 3 (two bytes in word 3): one
        // violation per stale word, at its first stale byte.
        let mut read = written.clone();
        for data in [written.clone(), {
            read[5] = 0;
            read[13] = 0;
            read[14] = 0;
            read
        }] {
            grouped.check_read_words(PAddr(16), &data, "CPU load");
            for (i, w) in data.chunks_exact(4).enumerate() {
                per_word.check_read(PAddr(16 + 4 * i as u64), w, "CPU load");
            }
        }
        assert_eq!(grouped.violations(), 2);
        assert_eq!(grouped.violations(), per_word.violations());
        assert_eq!(grouped.sample(), per_word.sample());
        assert_eq!(grouped.sample()[1].pa, PAddr(16 + 13));
    }

    #[test]
    fn run_checks_and_records_match_per_word_calls() {
        for stride in [4u64, 12] {
            let mut run = Oracle::new(256, 256);
            let mut per_word = Oracle::new(256, 256);
            let pa = PAddr(20);
            let stored: Vec<u32> = (0..10).map(|i| 0x0101_0101 * (i + 1)).collect();
            run.record_write_run(pa, stride, &stored);
            for (i, w) in stored.iter().enumerate() {
                per_word.record_write(PAddr(pa.0 + i as u64 * stride), &w.to_le_bytes());
            }
            // Clean, then stale in words 2 and 7, then a read of words
            // that straddle what was stored.
            let mut stale = stored.clone();
            stale[2] ^= 0x100;
            stale[7] = 0;
            for (at, words) in [(pa, &stored), (pa, &stale), (PAddr(pa.0 - 4), &stored)] {
                run.check_read_run(at, stride, words, "CPU load");
                for (i, w) in words.iter().enumerate() {
                    let wpa = PAddr(at.0 + i as u64 * stride);
                    per_word.check_read(wpa, &w.to_le_bytes(), "CPU load");
                }
                assert_eq!(run.violations(), per_word.violations(), "stride {stride}");
                assert_eq!(run.sample(), per_word.sample(), "stride {stride}");
            }
            assert!(run.violations() >= 2);
            assert_eq!(run.sample()[0].pa, PAddr(pa.0 + 2 * stride + 1));
            let (mut a, mut b) = (WordWriter::new(), WordWriter::new());
            run.save_state(&mut a);
            per_word.save_state(&mut b);
            assert_eq!(a.into_words(), b.into_words(), "same shadow");
            run.check_read_run(pa, stride, &[], "CPU load");
            run.record_write_run(pa, stride, &[]);
        }
    }

    #[test]
    #[should_panic(expected = "staleness")]
    fn panic_mode() {
        let mut o = Oracle::new(16, 16);
        o.panic_on_violation = true;
        o.record_write(PAddr(0), &[1]);
        o.check_read(PAddr(0), &[2], "CPU");
    }

    #[test]
    fn clear_violations() {
        let mut o = Oracle::new(16, 16);
        o.record_write(PAddr(0), &[1]);
        o.check_read(PAddr(0), &[2], "CPU");
        assert_eq!(o.violations(), 1);
        o.clear_violations();
        assert_eq!(o.violations(), 0);
        assert!(o.sample().is_empty());
    }
}
