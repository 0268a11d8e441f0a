//! Physical memory: zero-initialised bytes addressed by [`PAddr`], held a
//! page at a time.
//!
//! A paper-scale run writes a few hundred of the machine's thousands of
//! frames, so memory is not allocated as one flat, zero-filled array.
//! Each page's bytes sit in an arena that grows by one zeroed page the
//! first time the page is written, and a table holds each page's offset
//! in it. The arena's first page is a shared all-zero page that every
//! unwritten page reads from, so reads never branch and never materialise
//! anything. The arena's capacity is reserved up front (reserving does no
//! zeroing), so it never reallocates.
//!
//! Every access the machine makes lies within one simulated page —
//! cache lines, the oracle's word groups and DMA pages never cross one —
//! so the grain is the simulated page size and an access that crosses a
//! page boundary is rejected like one past the end of memory. The
//! staleness oracle keeps its shadow in a [`PhysMemory`] of its own.
//!
//! The checkpoint format is the flat one: the byte length, then every
//! byte packed eight to a word. Saving streams it page by page; restoring
//! materialises only the pages that hold a non-zero byte.

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::PAddr;

/// Simulated physical memory.
#[derive(Debug)]
pub struct PhysMemory {
    /// Arena offset of each page's bytes; 0 (the zero page) until the
    /// page is first written.
    base: Vec<usize>,
    /// The pages' bytes, one page after another; the first page stays
    /// all zero.
    arena: Vec<u8>,
    /// The page (grain) size, a power of two, and its log2.
    page: usize,
    shift: u32,
}

impl PhysMemory {
    /// Zero-filled memory of `size` bytes, materialised `page_size` bytes
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics unless `page_size` is a power of two and `size` a whole
    /// number of pages.
    pub fn new(size: u64, page_size: u64) -> Self {
        // Pages of at least eight bytes (one checkpoint word) keep the
        // page-by-page checkpoint stream identical to the flat one; a
        // single smaller page is fine too.
        let grain = page_size.max(8).min(size);
        assert!(
            grain.is_power_of_two() && size.is_multiple_of(grain),
            "memory of {size} bytes is not a whole number of {grain}-byte pages"
        );
        let mut arena = Vec::with_capacity((size + grain) as usize);
        arena.resize(grain as usize, 0);
        PhysMemory {
            base: vec![0; (size / grain) as usize],
            arena,
            page: grain as usize,
            shift: grain.trailing_zeros(),
        }
    }

    /// Memory capacity in bytes.
    pub fn len(&self) -> u64 {
        (self.base.len() * self.page) as u64
    }

    /// True if the memory has zero capacity (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// How many pages have been written (and so hold storage of their own).
    pub fn materialised_pages(&self) -> usize {
        self.arena.len() / self.page - 1
    }

    /// The page holding `pa` and the offset within it, checking that
    /// `len` bytes from `pa` stay in that page (and, through the page
    /// lookup, in memory).
    #[inline(always)]
    fn locate(&self, pa: PAddr, len: usize) -> (usize, usize) {
        let off = pa.0 as usize & (self.page - 1);
        if off + len > self.page {
            crosses_a_page(pa);
        }
        ((pa.0 >> self.shift) as usize, off)
    }

    /// The `len` bytes at `pa`, which must lie within one page. Never
    /// materialises a page.
    #[inline(always)]
    pub(crate) fn bytes(&self, pa: PAddr, len: usize) -> &[u8] {
        let (page, off) = self.locate(pa, len);
        let start = self.base[page] + off;
        &self.arena[start..start + len]
    }

    /// The `len` bytes at `pa` for writing, materialising the page on its
    /// first write. The range must lie within one page.
    #[inline(always)]
    pub(crate) fn bytes_mut(&mut self, pa: PAddr, len: usize) -> &mut [u8] {
        let (page, off) = self.locate(pa, len);
        let mut base = self.base[page];
        if base == 0 {
            base = self.materialise(page);
        }
        let start = base + off;
        &mut self.arena[start..start + len]
    }

    /// Give `page` zeroed bytes of its own at the end of the arena
    /// (within the reserved capacity, so the arena does not move) and
    /// return their offset.
    #[cold]
    #[inline(never)]
    fn materialise(&mut self, page: usize) -> usize {
        let base = self.arena.len();
        self.arena.resize(base + self.page, 0);
        self.base[page] = base;
        base
    }

    /// Read `buf.len()` bytes starting at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or crosses a page.
    #[inline(always)]
    pub fn read(&self, pa: PAddr, buf: &mut [u8]) {
        buf.copy_from_slice(self.bytes(pa, buf.len()));
    }

    /// Write `data` starting at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or crosses a page.
    #[inline(always)]
    pub fn write(&mut self, pa: PAddr, data: &[u8]) {
        self.bytes_mut(pa, data.len()).copy_from_slice(data);
    }

    /// Read one aligned 32-bit word (little endian).
    pub fn read_u32(&self, pa: PAddr) -> u32 {
        le_word(self.bytes(pa, 4))
    }

    /// Write one aligned 32-bit word (little endian).
    pub fn write_u32(&mut self, pa: PAddr, v: u32) {
        self.write(pa, &v.to_le_bytes());
    }

    /// Serialize the full contents, exactly as one flat byte string.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.len());
        for &base in &self.base {
            w.packed(&self.arena[base..base + self.page]);
        }
    }

    /// Restore contents saved by [`PhysMemory::save_state`]; the capacity
    /// must match (it comes from the configuration, not the stream).
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.restore_contents(r, "memory size")
    }

    /// [`PhysMemory::restore_state`], naming a size mismatch `what`.
    /// Pages that come back all zero stay unmaterialised.
    pub(crate) fn restore_contents(
        &mut self,
        r: &mut WordReader,
        what: &'static str,
    ) -> Result<(), SerialError> {
        let at = r.position();
        if r.u64()? != self.len() {
            return Err(SerialError::Corrupt { at, what });
        }
        self.base.fill(0);
        self.arena.truncate(self.page);
        for page in 0..self.base.len() {
            let base = self.materialise(page);
            let bytes = &mut self.arena[base..base + self.page];
            r.packed_into(bytes)?;
            if bytes.iter().all(|&b| b == 0) {
                self.arena.truncate(base);
                self.base[page] = 0;
            }
        }
        Ok(())
    }
}

/// The little-endian 32-bit word at the start of `b` (a memory, shadow or
/// line payload slice).
#[inline]
pub(crate) fn le_word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The panic of an access that crosses a page, kept out of line so the
/// check costs the hot path one compare.
#[cold]
#[inline(never)]
fn crosses_a_page(pa: PAddr) -> ! {
    panic!("access at {pa} crosses a page")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved(m: &PhysMemory) -> Vec<u64> {
        let mut w = WordWriter::new();
        m.save_state(&mut w);
        w.into_words()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMemory::new(1024, 256);
        assert_eq!(m.len(), 1024);
        assert!(!m.is_empty());
        m.write(PAddr(100), &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(PAddr(100), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn word_access() {
        let mut m = PhysMemory::new(64, 64);
        m.write_u32(PAddr(8), 0xdead_beef);
        assert_eq!(m.read_u32(PAddr(8)), 0xdead_beef);
        assert_eq!(m.bytes(PAddr(8), 4), &0xdead_beefu32.to_le_bytes());
    }

    #[test]
    fn only_writes_materialise_pages() {
        let mut m = PhysMemory::new(16 * 256, 256);
        assert_eq!(m.materialised_pages(), 0, "a fresh memory holds no page");
        let mut buf = [7u8; 256];
        for page in 0..16 {
            m.read(PAddr(page * 256), &mut buf);
            assert_eq!(buf, [0; 256]);
        }
        assert_eq!(m.read_u32(PAddr(4 * 256 + 12)), 0);
        assert_eq!(m.materialised_pages(), 0, "reads materialise nothing");
        m.write_u32(PAddr(5 * 256 + 12), 9);
        assert_eq!(m.materialised_pages(), 1, "one write, one page");
        m.write_u32(PAddr(5 * 256 + 16), 10);
        assert_eq!(m.materialised_pages(), 1, "same page again");
        assert_eq!(m.read_u32(PAddr(5 * 256 + 12)), 9);
        assert_eq!(m.read_u32(PAddr(4 * 256 + 12)), 0, "neighbours untouched");
        assert_eq!(m.read_u32(PAddr(6 * 256 + 12)), 0);
    }

    #[test]
    fn checkpoint_is_the_flat_byte_string() {
        let mut m = PhysMemory::new(8 * 256, 256);
        let mut flat = vec![0u8; 8 * 256];
        for (pa, v) in [(300u64, 0x0102_0304u32), (7 * 256 + 252, 0xffff_ffff)] {
            m.write_u32(PAddr(pa), v);
            flat[pa as usize..pa as usize + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut w = WordWriter::new();
        w.bytes(&flat);
        assert_eq!(saved(&m), w.into_words());
    }

    #[test]
    fn restore_materialises_only_nonzero_pages() {
        let mut m = PhysMemory::new(32 * 256, 256);
        m.write_u32(PAddr(3 * 256), 1);
        m.write_u32(PAddr(17 * 256 + 40), 2);
        // Written, then zeroed again: comes back unmaterialised.
        m.write_u32(PAddr(9 * 256), 3);
        m.write_u32(PAddr(9 * 256), 0);
        let words = saved(&m);
        let mut back = PhysMemory::new(32 * 256, 256);
        back.write_u32(PAddr(20 * 256), 5);
        back.restore_state(&mut WordReader::new(&words)).unwrap();
        assert_eq!(back.materialised_pages(), 2);
        assert_eq!(back.read_u32(PAddr(17 * 256 + 40)), 2);
        assert_eq!(back.read_u32(PAddr(20 * 256)), 0, "old contents dropped");
        assert_eq!(saved(&back), words);
    }

    #[test]
    fn restore_rejects_another_size() {
        let words = saved(&PhysMemory::new(1024, 256));
        let mut m = PhysMemory::new(2048, 256);
        assert_eq!(
            m.restore_state(&mut WordReader::new(&words)),
            Err(SerialError::Corrupt {
                at: 0,
                what: "memory size"
            })
        );
        assert!(matches!(
            m.restore_state(&mut WordReader::new(&words[..words.len() - 1])),
            Err(SerialError::Corrupt { .. })
        ));
        let mut same = PhysMemory::new(1024, 256);
        assert_eq!(
            same.restore_state(&mut WordReader::new(&words[..words.len() - 1])),
            Err(SerialError::Truncated {
                at: words.len() - 1
            })
        );
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let m = PhysMemory::new(16, 16);
        let mut buf = [0u8; 4];
        m.read(PAddr(14), &mut buf);
    }

    #[test]
    #[should_panic]
    fn past_the_last_page_panics() {
        let m = PhysMemory::new(1024, 256);
        m.read_u32(PAddr(1024));
    }

    #[test]
    #[should_panic(expected = "crosses a page")]
    fn page_crossing_access_panics() {
        let mut m = PhysMemory::new(1024, 256);
        m.write(PAddr(254), &[1, 2, 3, 4]);
    }
}
