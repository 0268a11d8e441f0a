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
#[derive(Debug, Clone)]
pub struct Oracle {
    expected: Vec<u8>,
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
    /// (matching fresh [`PhysMemory`](crate::mem::PhysMemory)).
    pub fn new(size: u64) -> Self {
        Oracle {
            expected: vec![0; size as usize],
            violations: 0,
            first: Vec::new(),
            panic_on_violation: false,
        }
    }

    /// Record a write (CPU store or device write) of `data` at `pa`.
    pub fn record_write(&mut self, pa: PAddr, data: &[u8]) {
        let s = pa.0 as usize;
        self.expected[s..s + data.len()].copy_from_slice(data);
    }

    /// Check data returned by the memory system against the shadow.
    pub fn check_read(&mut self, pa: PAddr, data: &[u8], observer: &'static str) {
        let s = pa.0 as usize;
        let want = &self.expected[s..s + data.len()];
        if data != want {
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
    }

    /// Check a group of consecutive aligned 32-bit words read at `pa` —
    /// exactly equivalent to [`Oracle::check_read`] per 4-byte word in
    /// ascending order. A clean group costs one slice comparison; only a
    /// mismatching group repeats the per-word checks, so the violation
    /// count and the retained sample are the same as the word loop's.
    pub fn check_read_words(&mut self, pa: PAddr, data: &[u8], observer: &'static str) {
        debug_assert!(data.len().is_multiple_of(4), "whole words only");
        let s = pa.0 as usize;
        if data == &self.expected[s..s + data.len()] {
            return;
        }
        for (i, word) in data.chunks_exact(4).enumerate() {
            self.check_read(PAddr(pa.0 + 4 * i as u64), word, observer);
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
    /// becomes a small code (see [`observer_code`]). `panic_on_violation`
    /// is a test harness knob, not simulated state, and is not written.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.bytes(&self.expected);
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
        let at = r.position();
        let expected = r.bytes()?;
        if expected.len() != self.expected.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "oracle size",
            });
        }
        self.expected = expected;
        self.violations = r.u64()?;
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
        let mut o = Oracle::new(64);
        o.record_write(PAddr(8), &[1, 2, 3, 4]);
        o.check_read(PAddr(8), &[1, 2, 3, 4], "CPU");
        o.check_read(PAddr(0), &[0, 0], "CPU");
        assert_eq!(o.violations(), 0);
    }

    #[test]
    fn stale_read_detected() {
        let mut o = Oracle::new(64);
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
        let mut o = Oracle::new(64);
        o.record_write(PAddr(0), &[1, 2, 3, 4]);
        o.check_read(PAddr(0), &[1, 2, 9, 4], "CPU");
        assert_eq!(o.sample()[0].pa, PAddr(2));
    }

    #[test]
    fn word_group_check_matches_per_word_checks() {
        let mut grouped = Oracle::new(64);
        let mut per_word = Oracle::new(64);
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
    #[should_panic(expected = "staleness")]
    fn panic_mode() {
        let mut o = Oracle::new(16);
        o.panic_on_violation = true;
        o.record_write(PAddr(0), &[1]);
        o.check_read(PAddr(0), &[2], "CPU");
    }

    #[test]
    fn clear_violations() {
        let mut o = Oracle::new(16);
        o.record_write(PAddr(0), &[1]);
        o.check_read(PAddr(0), &[2], "CPU");
        assert_eq!(o.violations(), 1);
        o.clear_violations();
        assert_eq!(o.violations(), 0);
        assert!(o.sample().is_empty());
    }
}
