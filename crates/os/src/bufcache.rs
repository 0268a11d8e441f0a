//! The DMA disk and the file-system buffer cache.
//!
//! Disk transfers are the system's only DMA traffic, as in the paper's
//! benchmarks: a disk **read** is a *DMA-write* into memory, a disk
//! **write** (write-behind of a dirty buffer) is a *DMA-read* out of
//! memory. The buffer cache absorbs file reads and writes; its write-behind
//! policy "introduces delays between the dirtying and subsequent flushing
//! of a buffer cache block, so the dirty lines tend to be written back
//! naturally" (§5) — reproduced here by the time between dirtying a buffer
//! and the eventual sync.

use std::collections::VecDeque;

use vic_core::fxhash::FxHashMap;

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{PFrame, VPage};

use crate::error::OsError;

/// A disk block number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk:{}", self.0)
    }
}

/// The simulated disk: an array of page-sized blocks. A block gets
/// storage on its first write and keeps it, overwritten in place, until
/// it is released.
#[derive(Debug, Clone)]
pub struct Disk {
    blocks: Vec<Option<Box<[u8]>>>,
    block_size: u64,
    free: Vec<BlockId>,
    /// What every never-written block reads as.
    zero: Box<[u8]>,
}

impl Disk {
    /// A disk of `num_blocks` blocks of `block_size` bytes (the block size
    /// equals the page size so every transfer is one DMA page).
    pub fn new(num_blocks: u32, block_size: u64) -> Self {
        Disk {
            blocks: vec![None; num_blocks as usize],
            block_size,
            free: (0..num_blocks).rev().map(BlockId).collect(),
            zero: vec![0; block_size as usize].into_boxed_slice(),
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of unallocated blocks.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Allocate a block.
    ///
    /// # Errors
    ///
    /// [`OsError::DiskFull`] when no block is free.
    pub fn alloc(&mut self) -> Result<BlockId, OsError> {
        self.free.pop().ok_or(OsError::DiskFull)
    }

    /// Return a block to the free pool, discarding its contents.
    pub fn release(&mut self, b: BlockId) {
        self.blocks[b.0 as usize] = None;
        self.free.push(b);
    }

    /// The block's contents (all zero if never written).
    pub fn read(&self, b: BlockId) -> &[u8] {
        self.blocks[b.0 as usize].as_deref().unwrap_or(&self.zero)
    }

    /// Overwrite the block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn write(&mut self, b: BlockId, data: &[u8]) {
        assert_eq!(data.len() as u64, self.block_size);
        match &mut self.blocks[b.0 as usize] {
            Some(block) => block.copy_from_slice(data),
            empty => *empty = Some(data.into()),
        }
    }

    /// Serialize the block contents and the free list. The free list is a
    /// LIFO stack (its order decides the next allocation) and is written
    /// exactly.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.usize(self.blocks.len());
        for b in &self.blocks {
            match b {
                Some(data) => {
                    w.bool(true);
                    w.bytes(data);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.free.len());
        for b in &self.free {
            w.u32(b.0);
        }
    }

    /// Restore state saved by [`Disk::save_state`] into a disk with the
    /// same block count and size.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let at = r.position();
        let n = r.usize()?;
        if n != self.blocks.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "disk block count",
            });
        }
        for slot in &mut self.blocks {
            *slot = if r.bool()? {
                let at = r.position();
                let data = r.bytes()?;
                if data.len() as u64 != self.block_size {
                    return Err(SerialError::Corrupt {
                        at,
                        what: "disk block size",
                    });
                }
                Some(data.into_boxed_slice())
            } else {
                None
            };
        }
        let nfree = r.usize()?;
        self.free.clear();
        for _ in 0..nfree {
            let at = r.position();
            let b = r.u32()?;
            if b as usize >= self.blocks.len() {
                return Err(SerialError::Corrupt {
                    at,
                    what: "free block id",
                });
            }
            self.free.push(BlockId(b));
        }
        Ok(())
    }
}

/// One resident buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buf {
    /// The disk block cached here.
    pub block: BlockId,
    /// The physical frame holding it.
    pub frame: PFrame,
    /// Modified since last written to disk.
    pub dirty: bool,
}

/// Buffer-cache bookkeeping (slots, LRU order, block map). The kernel
/// performs the actual DMA, mapping, and frame management around it.
#[derive(Debug, Clone)]
pub struct BufferCache {
    slots: Vec<Option<Buf>>,
    map: FxHashMap<BlockId, usize>,
    lru: VecDeque<usize>,
    base_vp: u64,
}

impl BufferCache {
    /// A cache of `num_slots` buffers whose kernel mappings start at
    /// virtual page `base_vp` (slot `i` lives at `base_vp + i`).
    pub fn new(num_slots: usize, base_vp: u64) -> Self {
        BufferCache {
            slots: vec![None; num_slots],
            map: FxHashMap::default(),
            lru: VecDeque::new(),
            base_vp,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The kernel virtual page of a slot.
    pub fn vpage_of(&self, slot: usize) -> VPage {
        VPage(self.base_vp + slot as u64)
    }

    /// The buffer in a slot.
    pub fn buf(&self, slot: usize) -> Option<&Buf> {
        self.slots[slot].as_ref()
    }

    /// Find the slot caching a block, marking it most recently used.
    pub fn lookup(&mut self, b: BlockId) -> Option<usize> {
        let slot = *self.map.get(&b)?;
        self.touch(slot);
        Some(slot)
    }

    fn touch(&mut self, slot: usize) {
        self.lru.retain(|s| *s != slot);
        self.lru.push_back(slot);
    }

    /// Choose a slot for a new block: a free slot if any, otherwise the
    /// least recently used. Returns `(slot, evicted)`; the caller must
    /// write back a dirty evictee *before* installing the new block.
    pub fn pick_victim(&mut self) -> (usize, Option<Buf>) {
        if let Some(free) = self.slots.iter().position(Option::is_none) {
            return (free, None);
        }
        let slot = self
            .lru
            .pop_front()
            .expect("all slots busy implies LRU entries");
        let old = self.slots[slot].expect("victim slot is occupied");
        self.map.remove(&old.block);
        self.slots[slot] = None;
        (slot, Some(old))
    }

    /// Install a (clean) block into a slot chosen by
    /// [`BufferCache::pick_victim`].
    pub fn install(&mut self, slot: usize, block: BlockId, frame: PFrame) {
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(Buf {
            block,
            frame,
            dirty: false,
        });
        self.map.insert(block, slot);
        self.touch(slot);
    }

    /// Mark a slot dirty (a write landed in the buffer).
    pub fn mark_dirty(&mut self, slot: usize) {
        self.slots[slot]
            .as_mut()
            .expect("dirtying an empty slot")
            .dirty = true;
    }

    /// Mark a slot clean (written back).
    pub fn mark_clean(&mut self, slot: usize) {
        if let Some(b) = self.slots[slot].as_mut() {
            b.dirty = false;
        }
    }

    /// Slots currently dirty (for write-behind sync).
    pub fn dirty_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.filter(|b| b.dirty).map(|_| i))
            .collect()
    }

    /// Serialize the slots and the LRU order. The block map is a derived
    /// index (rebuilt from the slots on restore); the LRU queue decides the
    /// next eviction victim and is written exactly.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.usize(self.slots.len());
        for s in &self.slots {
            match s {
                Some(buf) => {
                    w.bool(true);
                    w.u32(buf.block.0);
                    w.u64(buf.frame.0);
                    w.bool(buf.dirty);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.lru.len());
        for s in &self.lru {
            w.usize(*s);
        }
    }

    /// Restore state saved by [`BufferCache::save_state`] into a cache with
    /// the same slot count, rebuilding the block map.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let at = r.position();
        let n = r.usize()?;
        if n != self.slots.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "buffer slot count",
            });
        }
        self.map.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            *slot = if r.bool()? {
                let block = BlockId(r.u32()?);
                let frame = PFrame(r.u64()?);
                let dirty = r.bool()?;
                self.map.insert(block, i);
                Some(Buf {
                    block,
                    frame,
                    dirty,
                })
            } else {
                None
            };
        }
        let nlru = r.usize()?;
        self.lru.clear();
        for _ in 0..nlru {
            let at = r.position();
            let s = r.usize()?;
            if s >= self.slots.len() {
                return Err(SerialError::Corrupt {
                    at,
                    what: "lru slot index",
                });
            }
            self.lru.push_back(s);
        }
        Ok(())
    }

    /// Drop a block from the cache (file deletion). Returns the slot and
    /// its buffer so the caller can tear down the mapping and free the
    /// frame.
    pub fn evict_block(&mut self, b: BlockId) -> Option<(usize, Buf)> {
        let slot = self.map.remove(&b)?;
        self.lru.retain(|s| *s != slot);
        self.slots[slot].take().map(|buf| (slot, buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_alloc_read_write() {
        let mut d = Disk::new(4, 256);
        assert_eq!(d.free_blocks(), 4);
        let b = d.alloc().unwrap();
        assert_eq!(b, BlockId(0), "blocks allocated in order");
        assert_eq!(d.read(b), [0; 256], "fresh block reads zero");
        d.write(b, &[7u8; 256]);
        assert_eq!(d.read(b)[0], 7);
        d.write(b, &[8u8; 256]);
        assert_eq!(d.read(b), [8; 256], "rewritten in place");
        d.release(b);
        assert_eq!(d.free_blocks(), 4);
        assert_eq!(d.read(b), [0; 256], "released block is cleared");
    }

    #[test]
    fn disk_exhaustion() {
        let mut d = Disk::new(1, 256);
        let _ = d.alloc().unwrap();
        assert_eq!(d.alloc(), Err(OsError::DiskFull));
    }

    #[test]
    fn cache_lookup_and_lru() {
        let mut c = BufferCache::new(2, 100);
        assert_eq!(c.capacity(), 2);
        let (s0, ev) = c.pick_victim();
        assert!(ev.is_none());
        c.install(s0, BlockId(10), PFrame(1));
        let (s1, ev) = c.pick_victim();
        assert!(ev.is_none());
        c.install(s1, BlockId(11), PFrame(2));
        // Touch block 10 so block 11 becomes LRU.
        assert_eq!(c.lookup(BlockId(10)), Some(s0));
        let (victim_slot, evicted) = c.pick_victim();
        assert_eq!(victim_slot, s1);
        assert_eq!(evicted.unwrap().block, BlockId(11));
        assert_eq!(c.lookup(BlockId(11)), None);
    }

    #[test]
    fn dirty_tracking() {
        let mut c = BufferCache::new(2, 100);
        let (s, _) = c.pick_victim();
        c.install(s, BlockId(5), PFrame(3));
        assert!(c.dirty_slots().is_empty());
        c.mark_dirty(s);
        assert_eq!(c.dirty_slots(), vec![s]);
        c.mark_clean(s);
        assert!(c.dirty_slots().is_empty());
    }

    #[test]
    fn vpage_mapping() {
        let c = BufferCache::new(4, 0x100);
        assert_eq!(c.vpage_of(0), VPage(0x100));
        assert_eq!(c.vpage_of(3), VPage(0x103));
    }

    #[test]
    fn evict_block_by_id() {
        let mut c = BufferCache::new(2, 100);
        let (s, _) = c.pick_victim();
        c.install(s, BlockId(5), PFrame(3));
        let (slot, b) = c.evict_block(BlockId(5)).unwrap();
        assert_eq!(slot, s);
        assert_eq!(b.frame, PFrame(3));
        assert!(c.evict_block(BlockId(5)).is_none());
        assert!(c.buf(s).is_none());
    }
}
