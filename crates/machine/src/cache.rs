//! A virtually indexed, physically tagged cache with a write-back,
//! write-allocate policy — direct mapped by default, optionally
//! set-associative.
//!
//! The line index is taken from the **virtual** address, the tag is the
//! **physical** line number — the PA-RISC arrangement. Consequences the
//! consistency machinery relies on emerge naturally:
//!
//! * two virtual addresses that *align* (same index) and map to the same
//!   physical address share a line: aligned aliases are resolved by the tag
//!   match without going to memory;
//! * unaligned aliases select different lines, so the same physical data
//!   can be cached — and go stale — in several places;
//! * a dirty line written back at eviction can overwrite newer memory if
//!   the software let two copies diverge;
//! * within a **set**, physical tags are unique (a fill first probes every
//!   way), so set-associativity changes nothing about the consistency
//!   rules — the paper's §3.3 observation.
//!
//! # Host hot path
//!
//! Every consistency operation the algorithms issue lands here, so the
//! representation is built for the host, without changing a single
//! simulated cost:
//!
//! * line payloads live in one contiguous **data arena** indexed by line
//!   number, not in per-line boxes — one allocation per cache, no pointer
//!   chase per access;
//! * all sizes are powers of two (asserted at construction), so indexing
//!   and tag→frame checks are shifts and masks, never divisions;
//! * a per-cache-page **occupancy index** (valid-line and dirty-line
//!   counters, maintained on fill, dirtying and invalidation) lets
//!   [`Cache::flush_page`], [`Cache::purge_page`] and [`Cache::page_holds`]
//!   short-circuit in O(1) when the page holds nothing — the common case,
//!   and the paper's whole point (most pages are Empty). The returned
//!   [`PageOpOutcome`] is identical to a full scan's, so simulated cycle
//!   accounting is unchanged; `set_fast_paths(false)` forces the scans for
//!   the equivalence tests.

use crate::mem::PhysMemory;
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{CacheKind, CachePage, PAddr, PFrame, VAddr};

/// Section tag bracketing a cache's state in a word stream.
const CACHE_STATE_TAG: u64 = u64::from_le_bytes(*b"cache--1");

/// One cache line's metadata. The payload lives in the cache's data
/// arena at `line_index << line_shift`.
#[derive(Debug, Clone)]
struct Line {
    valid: bool,
    dirty: bool,
    /// Physical line number (physical address / line size).
    ptag: u64,
}

/// What an access did, for cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present with a matching tag.
    Hit,
    /// The line was filled from memory; `wrote_back` reports whether a
    /// dirty victim was written back first.
    Miss {
        /// A dirty victim line was written back to memory.
        wrote_back: bool,
    },
}

/// Counts from a page flush/purge, for cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageOpOutcome {
    /// Lines inspected that did not hold the target frame's data.
    pub absent: u64,
    /// Lines that held the target frame's data.
    pub present: u64,
    /// Lines written back to memory (flush of dirty lines only).
    pub written_back: u64,
}

/// A virtually indexed physically tagged cache (direct mapped when
/// `assoc == 1`).
#[derive(Debug, Clone)]
pub struct Cache {
    kind: CacheKind,
    line_size: u64,
    num_sets: u64,
    assoc: u64,
    sets_per_page: u64,
    /// log2(line_size): byte address → line number.
    line_shift: u32,
    /// num_sets - 1: line number → set index.
    set_mask: u64,
    /// log2(page_size / line_size): ptag → physical frame.
    tag_frame_shift: u32,
    /// log2(sets_per_page * assoc): line index → cache page.
    cpage_shift: u32,
    /// Line metadata, set-major (`lines[set * assoc + way]`).
    lines: Vec<Line>,
    /// The data arena: line `i`'s payload at `i << line_shift`.
    data: Box<[u8]>,
    /// Round-robin victim pointer per set.
    victim: Vec<u8>,
    /// Occupancy index: valid lines per cache page.
    occ_valid: Vec<u32>,
    /// Occupancy index: dirty lines per cache page.
    occ_dirty: Vec<u32>,
    /// Use the occupancy short-circuits. Test-only knob: behaviour is
    /// identical either way, only host time differs.
    fast_paths: bool,
}

impl Cache {
    /// Build a direct-mapped cache of `capacity` bytes with the given line
    /// and page sizes.
    pub fn new(kind: CacheKind, capacity: u64, line_size: u64, page_size: u64) -> Self {
        Self::with_associativity(kind, capacity, line_size, page_size, 1)
    }

    /// Build an `assoc`-way set-associative cache. The physical tags
    /// within a set are kept unique by construction, so — as the paper's
    /// §3.3 observes — the consistency rules are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any size or `assoc` is not a power of two, or the cache
    /// cannot hold a page-worth of sets.
    pub fn with_associativity(
        kind: CacheKind,
        capacity: u64,
        line_size: u64,
        page_size: u64,
        assoc: u64,
    ) -> Self {
        assert!(assoc >= 1, "at least one way");
        for (name, v) in [
            ("capacity", capacity),
            ("line_size", line_size),
            ("page_size", page_size),
            ("assoc", assoc),
        ] {
            assert!(v.is_power_of_two(), "{name} must be a power of two: {v}");
        }
        let num_lines = capacity / line_size;
        assert_eq!(num_lines % assoc, 0, "ways must divide the line count");
        let num_sets = num_lines / assoc;
        let lines_per_page = page_size / line_size;
        assert!(
            num_sets >= lines_per_page,
            "the cache must hold at least one page-worth of sets"
        );
        let lines_per_cpage = lines_per_page * assoc;
        let num_cpages = (num_lines / lines_per_cpage) as usize;
        Cache {
            kind,
            line_size,
            num_sets,
            assoc,
            sets_per_page: lines_per_page,
            line_shift: line_size.trailing_zeros(),
            set_mask: num_sets - 1,
            tag_frame_shift: (page_size / line_size).trailing_zeros(),
            cpage_shift: lines_per_cpage.trailing_zeros(),
            lines: (0..num_lines)
                .map(|_| Line {
                    valid: false,
                    dirty: false,
                    ptag: 0,
                })
                .collect(),
            data: vec![0u8; capacity as usize].into_boxed_slice(),
            victim: vec![0; num_sets as usize],
            occ_valid: vec![0; num_cpages],
            occ_dirty: vec![0; num_cpages],
            fast_paths: true,
        }
    }

    /// Which cache this is.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u64 {
        self.num_sets * self.assoc
    }

    /// Associativity (ways per set).
    pub fn associativity(&self) -> u64 {
        self.assoc
    }

    /// Enable or disable the occupancy-index short-circuits (enabled by
    /// default). The index itself is always maintained; only whether the
    /// page operations consult it changes. Simulated behaviour — outcomes,
    /// stats, cycle accounting — is identical either way; the knob exists
    /// so the equivalence tests can diff the two paths.
    pub fn set_fast_paths(&mut self, on: bool) {
        self.fast_paths = on;
    }

    /// Whether the occupancy short-circuits are in use.
    pub fn fast_paths(&self) -> bool {
        self.fast_paths
    }

    #[inline]
    fn set_of(&self, va: VAddr) -> usize {
        ((va.0 >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc as usize..(set + 1) * self.assoc as usize
    }

    #[inline]
    fn ptag_of(&self, pa: PAddr) -> u64 {
        pa.0 >> self.line_shift
    }

    /// The line's payload range in the data arena.
    #[inline]
    fn data_range(&self, idx: usize) -> std::ops::Range<usize> {
        let start = idx << self.line_shift;
        start..start + self.line_size as usize
    }

    /// The way holding `ptag` in `set`, if any (tags are unique per set).
    #[inline]
    fn find(&self, set: usize, ptag: u64) -> Option<usize> {
        self.ways_of(set)
            .find(|&i| self.lines[i].valid && self.lines[i].ptag == ptag)
    }

    /// Look up without side effects: does the cache hold `pa` in the set
    /// selected by `va`?
    pub fn probe(&self, va: VAddr, pa: PAddr) -> Option<bool> {
        self.find(self.set_of(va), self.ptag_of(pa))
            .map(|i| self.lines[i].dirty)
    }

    /// Fill `ptag` into `set` (victimizing an invalid way, else round
    /// robin); returns (way, wrote_back).
    fn fill(&mut self, set: usize, ptag: u64, mem: &mut PhysMemory) -> (usize, bool) {
        debug_assert!(self.find(set, ptag).is_none(), "tag already in set");
        let idx = match self.ways_of(set).find(|&i| !self.lines[i].valid) {
            Some(free) => free,
            None => {
                let v = self.victim[set] as usize % self.assoc as usize;
                self.victim[set] = self.victim[set].wrapping_add(1);
                set * self.assoc as usize + v
            }
        };
        let cp = idx >> self.cpage_shift;
        let line_shift = self.line_shift;
        let range = self.data_range(idx);
        let data = &mut self.data[range];
        let l = &mut self.lines[idx];
        let mut wrote_back = false;
        if l.valid {
            if l.dirty {
                mem.write(PAddr(l.ptag << line_shift), data);
                wrote_back = true;
                self.occ_dirty[cp] -= 1;
            }
        } else {
            self.occ_valid[cp] += 1;
        }
        mem.read(PAddr(ptag << line_shift), data);
        l.valid = true;
        l.dirty = false;
        l.ptag = ptag;
        (idx, wrote_back)
    }

    /// Read `buf.len()` bytes at (va, pa); the access must not cross a line
    /// boundary.
    pub fn read(
        &mut self,
        va: VAddr,
        pa: PAddr,
        mem: &mut PhysMemory,
        buf: &mut [u8],
    ) -> AccessResult {
        debug_assert!(va.0 % self.line_size + buf.len() as u64 <= self.line_size);
        let set = self.set_of(va);
        let ptag = self.ptag_of(pa);
        let (idx, result) = match self.find(set, ptag) {
            Some(idx) => (idx, AccessResult::Hit),
            None => {
                let (idx, wrote_back) = self.fill(set, ptag, mem);
                (idx, AccessResult::Miss { wrote_back })
            }
        };
        let start = (idx << self.line_shift) + (pa.0 & (self.line_size - 1)) as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        result
    }

    /// Write `data` at (va, pa) — write-back, write-allocate. Only valid on
    /// the data cache.
    ///
    /// # Panics
    ///
    /// Panics if called on the instruction cache.
    pub fn write(
        &mut self,
        va: VAddr,
        pa: PAddr,
        mem: &mut PhysMemory,
        data: &[u8],
    ) -> AccessResult {
        assert_eq!(self.kind, CacheKind::Data, "stores go to the data cache");
        debug_assert!(va.0 % self.line_size + data.len() as u64 <= self.line_size);
        let set = self.set_of(va);
        let ptag = self.ptag_of(pa);
        let (idx, result) = match self.find(set, ptag) {
            Some(idx) => (idx, AccessResult::Hit),
            None => {
                let (idx, wrote_back) = self.fill(set, ptag, mem);
                (idx, AccessResult::Miss { wrote_back })
            }
        };
        let start = (idx << self.line_shift) + (pa.0 & (self.line_size - 1)) as usize;
        self.data[start..start + data.len()].copy_from_slice(data);
        if !self.lines[idx].dirty {
            self.lines[idx].dirty = true;
            self.occ_dirty[idx >> self.cpage_shift] += 1;
        }
        result
    }

    /// Write `data` at (va, pa) — write-through, no-write-allocate: memory
    /// is updated immediately, a hit also updates the line, lines never go
    /// dirty. Only valid on the data cache.
    ///
    /// # Panics
    ///
    /// Panics if called on the instruction cache.
    pub fn write_through(
        &mut self,
        va: VAddr,
        pa: PAddr,
        mem: &mut PhysMemory,
        data: &[u8],
    ) -> AccessResult {
        assert_eq!(self.kind, CacheKind::Data, "stores go to the data cache");
        debug_assert!(va.0 % self.line_size + data.len() as u64 <= self.line_size);
        mem.write(pa, data);
        let set = self.set_of(va);
        let ptag = self.ptag_of(pa);
        if let Some(idx) = self.find(set, ptag) {
            let start = (idx << self.line_shift) + (pa.0 & (self.line_size - 1)) as usize;
            self.data[start..start + data.len()].copy_from_slice(data);
            AccessResult::Hit
        } else {
            AccessResult::Miss { wrote_back: false }
        }
    }

    /// Find-or-fill the line for `(va, pa)` without touching its payload:
    /// the shared prefix of [`Cache::read`] and [`Cache::write`], split out
    /// for the machine's bulk-run engine. Returns the access result (for
    /// cycle accounting, identical to what `read`/`write` would report) and
    /// the line index, whose payload is reachable through
    /// [`Cache::line_data`] / [`Cache::line_data_mut`]. Forced inline
    /// into the bulk engine's per-line loops, like
    /// `Machine::charge_cached_access`.
    #[inline(always)]
    pub fn touch_line(
        &mut self,
        va: VAddr,
        pa: PAddr,
        mem: &mut PhysMemory,
    ) -> (AccessResult, usize) {
        let set = self.set_of(va);
        let ptag = self.ptag_of(pa);
        match self.find(set, ptag) {
            Some(idx) => (AccessResult::Hit, idx),
            None => {
                let (idx, wrote_back) = self.fill(set, ptag, mem);
                (AccessResult::Miss { wrote_back }, idx)
            }
        }
    }

    /// The payload of line `idx` (from [`Cache::touch_line`]).
    pub fn line_data(&self, idx: usize) -> &[u8] {
        &self.data[self.data_range(idx)]
    }

    /// The mutable payload of line `idx`. Writing through this does **not**
    /// mark the line dirty — bulk writers must pair it with
    /// [`Cache::mark_line_dirty`], exactly as [`Cache::write`] would.
    pub fn line_data_mut(&mut self, idx: usize) -> &mut [u8] {
        let range = self.data_range(idx);
        &mut self.data[range]
    }

    /// Copy `len` payload bytes at line offset `off` from line `src` to
    /// the same offset of line `dst` (distinct lines). Like
    /// [`Cache::line_data_mut`], this does not mark `dst` dirty.
    pub fn copy_line_bytes(&mut self, src: usize, dst: usize, off: usize, len: usize) {
        debug_assert_ne!(src, dst, "distinct lines");
        debug_assert!(off + len <= self.line_size as usize);
        let from = (src << self.line_shift) + off;
        self.data
            .copy_within(from..from + len, (dst << self.line_shift) + off);
    }

    /// Mark line `idx` dirty, maintaining the occupancy index — the same
    /// transition [`Cache::write`] performs, idempotent on already-dirty
    /// lines.
    pub fn mark_line_dirty(&mut self, idx: usize) {
        if !self.lines[idx].dirty {
            self.lines[idx].dirty = true;
            self.occ_dirty[idx >> self.cpage_shift] += 1;
        }
    }

    /// Line index range of a cache page: the contiguous sets it covers,
    /// all ways included.
    fn page_range(&self, cp: CachePage) -> std::ops::Range<usize> {
        let start = cp.0 as u64 * self.sets_per_page * self.assoc;
        let len = self.sets_per_page * self.assoc;
        start as usize..(start + len) as usize
    }

    /// Flush (write back if dirty, then invalidate) every line of cache
    /// page `cp` holding data of `frame`.
    pub fn flush_page(
        &mut self,
        cp: CachePage,
        frame: PFrame,
        page_size: u64,
        mem: &mut PhysMemory,
    ) -> PageOpOutcome {
        debug_assert_eq!(page_size >> self.line_shift, self.sets_per_page);
        let range = self.page_range(cp);
        if self.fast_paths && self.occ_valid[cp.0 as usize] == 0 {
            // An empty page scans to all-absent; produce that outcome
            // without touching the lines.
            return PageOpOutcome {
                absent: range.len() as u64,
                ..PageOpOutcome::default()
            };
        }
        let mut out = PageOpOutcome::default();
        let cpi = cp.0 as usize;
        let line_shift = self.line_shift;
        let tag_frame_shift = self.tag_frame_shift;
        for idx in range {
            let l = &mut self.lines[idx];
            if l.valid && l.ptag >> tag_frame_shift == frame.0 {
                out.present += 1;
                if l.dirty {
                    let start = idx << line_shift;
                    mem.write(
                        PAddr(l.ptag << line_shift),
                        &self.data[start..start + (1 << line_shift)],
                    );
                    out.written_back += 1;
                    l.dirty = false;
                    self.occ_dirty[cpi] -= 1;
                }
                l.valid = false;
                self.occ_valid[cpi] -= 1;
            } else {
                out.absent += 1;
            }
        }
        out
    }

    /// Invalidate, without write-back, every line of cache page `cp`
    /// holding data of `frame`.
    pub fn purge_page(&mut self, cp: CachePage, frame: PFrame, page_size: u64) -> PageOpOutcome {
        debug_assert_eq!(page_size >> self.line_shift, self.sets_per_page);
        let range = self.page_range(cp);
        if self.fast_paths && self.occ_valid[cp.0 as usize] == 0 {
            return PageOpOutcome {
                absent: range.len() as u64,
                ..PageOpOutcome::default()
            };
        }
        let mut out = PageOpOutcome::default();
        let cpi = cp.0 as usize;
        let tag_frame_shift = self.tag_frame_shift;
        for idx in range {
            let l = &mut self.lines[idx];
            if l.valid && l.ptag >> tag_frame_shift == frame.0 {
                out.present += 1;
                if l.dirty {
                    l.dirty = false;
                    self.occ_dirty[cpi] -= 1;
                }
                l.valid = false;
                self.occ_valid[cpi] -= 1;
            } else {
                out.absent += 1;
            }
        }
        out
    }

    /// Does any line of cache page `cp` hold data of `frame`? (Testing and
    /// assertions.)
    pub fn page_holds(&self, cp: CachePage, frame: PFrame, page_size: u64) -> bool {
        debug_assert_eq!(page_size >> self.line_shift, self.sets_per_page);
        if self.fast_paths && self.occ_valid[cp.0 as usize] == 0 {
            return false;
        }
        self.page_range(cp).any(|idx| {
            let l = &self.lines[idx];
            l.valid && l.ptag >> self.tag_frame_shift == frame.0
        })
    }

    /// Reference implementation of [`Cache::page_holds`]: the original
    /// full scan with a division per line, never consulting the occupancy
    /// index. Kept for the property tests that pin the fast paths to it.
    pub fn page_holds_scan(&self, cp: CachePage, frame: PFrame, page_size: u64) -> bool {
        let line_size = self.line_size;
        self.page_range(cp).any(|idx| {
            let l = &self.lines[idx];
            l.valid && l.ptag * line_size / page_size == frame.0
        })
    }

    /// The occupancy index's (valid, dirty) line counts for a cache page.
    pub fn occupancy(&self, cp: CachePage) -> (u64, u64) {
        (
            u64::from(self.occ_valid[cp.0 as usize]),
            u64::from(self.occ_dirty[cp.0 as usize]),
        )
    }

    /// Brute-force (valid, dirty) line counts for a cache page, by
    /// scanning the line array. The property tests assert this always
    /// equals [`Cache::occupancy`].
    pub fn scan_occupancy(&self, cp: CachePage) -> (u64, u64) {
        let mut valid = 0;
        let mut dirty = 0;
        for idx in self.page_range(cp) {
            let l = &self.lines[idx];
            valid += u64::from(l.valid);
            dirty += u64::from(l.dirty);
        }
        (valid, dirty)
    }

    /// Number of cache pages (occupancy index entries).
    pub fn num_cache_pages(&self) -> u32 {
        self.occ_valid.len() as u32
    }

    /// Victim-buffer state for live inspection: element `w` counts the
    /// sets whose round-robin replacement pointer currently selects way
    /// `w`. A direct-mapped cache reports a single bucket holding every
    /// set; an even spread across ways indicates balanced replacement.
    pub fn victim_way_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.assoc as usize];
        for &v in &self.victim {
            counts[v as usize % self.assoc as usize] += 1;
        }
        counts
    }

    /// Invalidate everything and reset the replacement state (power-up
    /// state: a purged cache behaves exactly like a freshly built one).
    /// Dirty data is lost.
    pub fn purge_all(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
        // Power-up state includes the round-robin victim pointers: without
        // this, a purged cache's eviction order diverges from a fresh one.
        self.victim.fill(0);
        self.occ_valid.fill(0);
        self.occ_dirty.fill(0);
    }

    /// Serialize the cache contents: line metadata, the data arena and the
    /// round-robin victim pointers. Geometry is construction-time
    /// configuration and is not written; the occupancy index is derived
    /// from the line array and rebuilt on restore.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(CACHE_STATE_TAG);
        w.usize(self.lines.len());
        for l in &self.lines {
            w.bool(l.valid);
            w.bool(l.dirty);
            w.u64(l.ptag);
        }
        w.bytes(&self.data);
        w.bytes(&self.victim);
    }

    /// Restore contents saved by [`Cache::save_state`] into a cache built
    /// with the identical geometry.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(CACHE_STATE_TAG)?;
        let at = r.position();
        if r.usize()? != self.lines.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "cache line count",
            });
        }
        for l in &mut self.lines {
            let at = r.position();
            l.valid = r.bool()?;
            l.dirty = r.bool()?;
            l.ptag = r.u64()?;
            if l.dirty && !l.valid {
                return Err(SerialError::Corrupt {
                    at,
                    what: "dirty invalid line",
                });
            }
        }
        let at = r.position();
        let data = r.bytes()?;
        if data.len() != self.data.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "cache data size",
            });
        }
        self.data.copy_from_slice(&data);
        let at = r.position();
        let victim = r.bytes()?;
        if victim.len() != self.victim.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "victim pointer count",
            });
        }
        self.victim = victim;
        // Rebuild the derived occupancy index from the line array.
        self.occ_valid.fill(0);
        self.occ_dirty.fill(0);
        for (idx, l) in self.lines.iter().enumerate() {
            let cp = idx >> self.cpage_shift;
            self.occ_valid[cp] += u32::from(l.valid);
            self.occ_dirty[cp] += u32::from(l.dirty);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Cache, PhysMemory) {
        // 4 pages of 256 bytes; cache 1 KB, 16-byte lines.
        (
            Cache::new(CacheKind::Data, 1024, 16, 256),
            PhysMemory::new(64 * 1024, 256),
        )
    }

    #[test]
    fn read_miss_then_hit() {
        let (mut c, mut mem) = setup();
        mem.write_u32(PAddr(0x100), 42);
        let mut buf = [0u8; 4];
        let r = c.read(VAddr(0x100), PAddr(0x100), &mut mem, &mut buf);
        assert_eq!(r, AccessResult::Miss { wrote_back: false });
        assert_eq!(u32::from_le_bytes(buf), 42);
        let r = c.read(VAddr(0x100), PAddr(0x100), &mut mem, &mut buf);
        assert_eq!(r, AccessResult::Hit);
    }

    #[test]
    fn write_back_only_at_eviction() {
        let (mut c, mut mem) = setup();
        c.write(VAddr(0), PAddr(0), &mut mem, &7u32.to_le_bytes());
        assert_eq!(mem.read_u32(PAddr(0)), 0, "write-back: memory still stale");
        // Evict by touching a conflicting line (same index, different
        // physical address): index of va 0 and va 1024 collide (1 KB cache).
        let mut buf = [0u8; 4];
        let r = c.read(VAddr(1024), PAddr(0x400), &mut mem, &mut buf);
        assert_eq!(r, AccessResult::Miss { wrote_back: true });
        assert_eq!(mem.read_u32(PAddr(0)), 7, "dirty victim written back");
    }

    #[test]
    fn aligned_aliases_share_a_line() {
        let (mut c, mut mem) = setup();
        // va 0 and va 1024 both index line 0 (1 KB cache); same pa.
        c.write(VAddr(0), PAddr(0x200), &mut mem, &9u32.to_le_bytes());
        let mut buf = [0u8; 4];
        let r = c.read(VAddr(1024), PAddr(0x200), &mut mem, &mut buf);
        assert_eq!(r, AccessResult::Hit, "physically tagged: alias hits");
        assert_eq!(u32::from_le_bytes(buf), 9);
    }

    #[test]
    fn unaligned_alias_goes_stale() {
        // The paper's core problem, reproduced bit-for-bit: write through
        // one virtual address, read stale data through an unaligned alias.
        let (mut c, mut mem) = setup();
        mem.write_u32(PAddr(0x200), 1);
        let mut buf = [0u8; 4];
        // Prime the alias's line with the old value.
        c.read(VAddr(0x100), PAddr(0x200), &mut mem, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 1);
        // Write through the other virtual address (different index).
        c.write(VAddr(0x000), PAddr(0x200), &mut mem, &2u32.to_le_bytes());
        // The alias still returns the stale value.
        c.read(VAddr(0x100), PAddr(0x200), &mut mem, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 1, "stale!");
    }

    #[test]
    fn flush_page_writes_back_and_invalidates() {
        let (mut c, mut mem) = setup();
        c.write(VAddr(0), PAddr(0), &mut mem, &5u32.to_le_bytes());
        let out = c.flush_page(CachePage(0), PFrame(0), 256, &mut mem);
        assert_eq!(out.present, 1);
        assert_eq!(out.written_back, 1);
        assert_eq!(out.absent, 15, "16 lines per page, one held data");
        assert_eq!(mem.read_u32(PAddr(0)), 5);
        assert!(!c.page_holds(CachePage(0), PFrame(0), 256));
    }

    #[test]
    fn purge_page_discards_dirty_data() {
        let (mut c, mut mem) = setup();
        mem.write_u32(PAddr(0), 1);
        c.write(VAddr(0), PAddr(0), &mut mem, &9u32.to_le_bytes());
        let out = c.purge_page(CachePage(0), PFrame(0), 256);
        assert_eq!(out.present, 1);
        assert_eq!(out.written_back, 0);
        assert_eq!(
            mem.read_u32(PAddr(0)),
            1,
            "dirty data discarded, not written"
        );
        assert!(!c.page_holds(CachePage(0), PFrame(0), 256));
    }

    #[test]
    fn flush_only_touches_matching_frame() {
        let (mut c, mut mem) = setup();
        // Two frames cached in the same cache page via different offsets.
        c.write(VAddr(0x00), PAddr(0x000), &mut mem, &1u32.to_le_bytes()); // frame 0
        c.write(VAddr(0x10), PAddr(0x110), &mut mem, &2u32.to_le_bytes()); // frame 1
        let out = c.flush_page(CachePage(0), PFrame(0), 256, &mut mem);
        assert_eq!(out.present, 1, "only frame 0's line flushed");
        assert!(
            c.page_holds(CachePage(0), PFrame(1), 256),
            "frame 1 untouched"
        );
    }

    #[test]
    fn probe_reports_dirtiness() {
        let (mut c, mut mem) = setup();
        assert_eq!(c.probe(VAddr(0), PAddr(0)), None);
        let mut buf = [0u8; 4];
        c.read(VAddr(0), PAddr(0), &mut mem, &mut buf);
        assert_eq!(c.probe(VAddr(0), PAddr(0)), Some(false));
        c.write(VAddr(0), PAddr(0), &mut mem, &1u32.to_le_bytes());
        assert_eq!(c.probe(VAddr(0), PAddr(0)), Some(true));
    }

    #[test]
    #[should_panic(expected = "data cache")]
    fn icache_rejects_writes() {
        let mut c = Cache::new(CacheKind::Insn, 512, 16, 256);
        let mut mem = PhysMemory::new(1024, 256);
        c.write(VAddr(0), PAddr(0), &mut mem, &1u32.to_le_bytes());
    }

    #[test]
    fn purge_all_resets() {
        let (mut c, mut mem) = setup();
        c.write(VAddr(0), PAddr(0), &mut mem, &1u32.to_le_bytes());
        c.purge_all();
        assert_eq!(c.probe(VAddr(0), PAddr(0)), None);
        assert_eq!(c.occupancy(CachePage(0)), (0, 0));
    }

    #[test]
    fn occupancy_tracks_fills_dirties_and_invalidations() {
        let (mut c, mut mem) = setup();
        assert_eq!(c.num_cache_pages(), 4);
        assert_eq!(c.occupancy(CachePage(0)), (0, 0));
        let mut buf = [0u8; 4];
        c.read(VAddr(0), PAddr(0), &mut mem, &mut buf);
        assert_eq!(c.occupancy(CachePage(0)), (1, 0), "clean fill");
        c.write(VAddr(0), PAddr(0), &mut mem, &1u32.to_le_bytes());
        assert_eq!(c.occupancy(CachePage(0)), (1, 1), "dirtied in place");
        c.write(VAddr(0x10), PAddr(0x10), &mut mem, &2u32.to_le_bytes());
        assert_eq!(c.occupancy(CachePage(0)), (2, 2), "dirty fill");
        // Evicting the dirty line at va 0 with a conflicting fill keeps
        // valid count (replaced, not vacated) but drops the dirty count.
        c.read(VAddr(1024), PAddr(0x400), &mut mem, &mut buf);
        assert_eq!(c.occupancy(CachePage(0)), (2, 1), "dirty victim evicted");
        let out = c.flush_page(CachePage(0), PFrame(0), 256, &mut mem);
        assert_eq!(out.present, 1, "va 0x10 line only; 0x400 is frame 4");
        assert_eq!(c.occupancy(CachePage(0)), (1, 0));
        for cp in 0..4 {
            assert_eq!(
                c.occupancy(CachePage(cp)),
                c.scan_occupancy(CachePage(cp)),
                "index agrees with brute force on page {cp}"
            );
        }
    }

    #[test]
    fn empty_page_short_circuit_matches_full_scan() {
        let (mut c, mut mem) = setup();
        let mut slow = c.clone();
        slow.set_fast_paths(false);
        assert!(!slow.fast_paths() && c.fast_paths());
        for cp in 0..4u32 {
            for frame in 0..3u64 {
                assert_eq!(
                    c.flush_page(CachePage(cp), PFrame(frame), 256, &mut mem),
                    slow.flush_page(CachePage(cp), PFrame(frame), 256, &mut mem),
                    "empty flush outcome"
                );
                assert_eq!(
                    c.purge_page(CachePage(cp), PFrame(frame), 256),
                    slow.purge_page(CachePage(cp), PFrame(frame), 256),
                    "empty purge outcome"
                );
                assert_eq!(
                    c.page_holds(CachePage(cp), PFrame(frame), 256),
                    slow.page_holds_scan(CachePage(cp), PFrame(frame), 256),
                );
            }
        }
    }

    #[test]
    fn touch_line_is_the_shared_prefix_of_read_and_write() {
        // A cache driven through touch_line + line_data(+mark_line_dirty)
        // stays bit-identical to one driven through read/write.
        let (mut a, mut mem_a) = setup();
        let (mut b, mut mem_b) = setup();
        let traffic = [
            (0x000u64, 0x000u64, false),
            (0x010, 0x110, true),
            (0x400, 0x200, false), // conflicts with 0x000 (1 KB cache)
            (0x000, 0x000, true),  // refill after eviction, then dirty
            (0x010, 0x110, false),
        ];
        for &(va, pa, is_write) in &traffic {
            let (va, pa) = (VAddr(va), PAddr(pa));
            let off = (pa.0 & 15) as usize;
            if is_write {
                let bytes = (pa.0 as u32 ^ 0x5a5a).to_le_bytes();
                let (ra, idx) = a.touch_line(va, pa, &mut mem_a);
                a.line_data_mut(idx)[off..off + 4].copy_from_slice(&bytes);
                a.mark_line_dirty(idx);
                let rb = b.write(va, pa, &mut mem_b, &bytes);
                assert_eq!(ra, rb);
            } else {
                let mut buf = [0u8; 4];
                let (ra, idx) = a.touch_line(va, pa, &mut mem_a);
                buf.copy_from_slice(&a.line_data(idx)[off..off + 4]);
                let mut buf_b = [0u8; 4];
                let rb = b.read(va, pa, &mut mem_b, &mut buf_b);
                assert_eq!((ra, buf), (rb, buf_b));
            }
            for cp in 0..4 {
                assert_eq!(a.occupancy(CachePage(cp)), b.occupancy(CachePage(cp)));
            }
        }
        // Flush everything through both and compare the memories.
        for cp in 0..4u32 {
            for frame in 0..8u64 {
                a.flush_page(CachePage(cp), PFrame(frame), 256, &mut mem_a);
                b.flush_page(CachePage(cp), PFrame(frame), 256, &mut mem_b);
            }
        }
        for off in (0..2048u64).step_by(4) {
            assert_eq!(mem_a.read_u32(PAddr(off)), mem_b.read_u32(PAddr(off)));
        }
    }

    #[test]
    fn victim_way_counts_track_replacement_pointers() {
        let mut c = Cache::with_associativity(CacheKind::Data, 1024, 16, 256, 2);
        let mut mem = PhysMemory::new(64 * 1024, 256);
        // 32 sets, 2 ways: power-up state points every set at way 0.
        assert_eq!(c.victim_way_counts(), vec![32, 0]);
        // Fill both ways of set 0, then force one eviction: set 0's
        // pointer advances to way 1.
        let mut buf = [0u8; 4];
        c.read(VAddr(0), PAddr(0x000), &mut mem, &mut buf);
        c.read(VAddr(0), PAddr(0x100), &mut mem, &mut buf);
        c.read(VAddr(0), PAddr(0x200), &mut mem, &mut buf);
        assert_eq!(c.victim_way_counts(), vec![31, 1]);
        c.purge_all();
        assert_eq!(c.victim_way_counts(), vec![32, 0], "reset at power-up");
        // Direct-mapped: one bucket holding every set.
        let d = Cache::new(CacheKind::Data, 1024, 16, 256);
        assert_eq!(d.victim_way_counts(), vec![64]);
    }

    /// The purge_all satellite regression: after `purge_all`, the
    /// round-robin victim pointers are back at power-up state, so the
    /// subsequent eviction sequence is identical to a freshly built
    /// cache's.
    #[test]
    fn purged_cache_evicts_like_a_fresh_one() {
        let build = || Cache::with_associativity(CacheKind::Data, 1024, 16, 256, 2);
        let mut mem = PhysMemory::new(64 * 1024, 256);

        // Advance the victim pointer: fill both ways of set 0, then force
        // an eviction (round robin moves off way 0).
        let mut purged = build();
        let mut buf = [0u8; 4];
        purged.read(VAddr(0), PAddr(0x000), &mut mem, &mut buf);
        purged.read(VAddr(0), PAddr(0x100), &mut mem, &mut buf);
        purged.read(VAddr(0), PAddr(0x200), &mut mem, &mut buf);
        purged.purge_all();

        let mut fresh = build();
        // The same access sequence must evict the same tags in the same
        // order — observable through probe() after each conflicting fill.
        let pas = [0x000u64, 0x100, 0x200, 0x300, 0x400, 0x500];
        for (step, &fill) in pas.iter().enumerate() {
            let a = purged.read(VAddr(0), PAddr(fill), &mut mem, &mut buf);
            let b = fresh.read(VAddr(0), PAddr(fill), &mut mem, &mut buf);
            assert_eq!(a, b, "step {step}: access result");
            for &pa in &pas {
                assert_eq!(
                    purged.probe(VAddr(0), PAddr(pa)),
                    fresh.probe(VAddr(0), PAddr(pa)),
                    "step {step}: residency of pa {pa:#x}"
                );
            }
        }
    }
}
