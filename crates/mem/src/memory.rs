//! Sparse backing memory holding real data bytes.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::{Addr, BlockAddr, BlockData, PageAddr, PageMap, BLOCK_SIZE, PAGE_SIZE};
use std::fmt;

/// Bytes of one cache block.
type Block = [u8; BLOCK_SIZE as usize];

/// Cache blocks per page.
const BLOCKS_PER_PAGE: usize = (PAGE_SIZE / BLOCK_SIZE) as usize;

// The encoding keeps one bit per block of a page in a `u64`.
const _: () = assert!(BLOCKS_PER_PAGE == 64);

const ZERO_BLOCK: Block = [0; BLOCK_SIZE as usize];

/// The index of `block` within its page.
#[inline]
fn block_index(block: BlockAddr) -> usize {
    (block.0 % BLOCKS_PER_PAGE as u64) as usize
}

/// One resident page: the blocks of it that have been written.
///
/// The heap hierarchy hands every task fresh pages, so a typical page holds
/// only a block or two of data; storing just those keeps an image's size
/// proportional to what the run wrote rather than to the pages it touched.
#[derive(Clone)]
struct Page {
    /// `slots[i]` is one more than the index in `blocks` of the page's
    /// block `i`, or 0 if that block is absent (it reads as zero).
    slots: [u8; BLOCKS_PER_PAGE],
    /// The stored blocks, in the order they were first written.
    blocks: Vec<Block>,
}

impl Page {
    fn new() -> Page {
        Page {
            slots: [0; BLOCKS_PER_PAGE],
            blocks: Vec::new(),
        }
    }

    /// The bytes of block `i`, or `None` if it is absent.
    #[inline]
    fn block(&self, i: usize) -> Option<&Block> {
        match self.slots[i] {
            0 => None,
            s => Some(&self.blocks[s as usize - 1]),
        }
    }

    /// Write `src` at byte `off` of block `i`. An absent block is stored
    /// only if `src` has a non-zero byte: zeros over an absent block change
    /// nothing a reader can see.
    #[inline]
    fn write(&mut self, i: usize, off: usize, src: &[u8]) {
        if self.slots[i] == 0 {
            if src.iter().all(|&b| b == 0) {
                return;
            }
            self.blocks.push(ZERO_BLOCK);
            self.slots[i] = self.blocks.len() as u8;
        }
        let s = self.slots[i] as usize - 1;
        self.blocks[s][off..off + src.len()].copy_from_slice(src);
    }

    /// Whether every byte of the page is zero.
    fn is_zero(&self) -> bool {
        self.blocks.iter().all(|b| *b == ZERO_BLOCK)
    }

    /// The page's blocks that hold a non-zero byte, with their indices, in
    /// address order.
    fn nonzero_blocks(&self) -> impl Iterator<Item = (usize, &Block)> {
        (0..BLOCKS_PER_PAGE).filter_map(|i| Some((i, self.block(i).filter(|b| **b != ZERO_BLOCK)?)))
    }

    /// The page's 4 KiB of bytes.
    fn to_bytes(&self) -> [u8; PAGE_SIZE as usize] {
        let mut out = [0; PAGE_SIZE as usize];
        for (i, dst) in out.chunks_exact_mut(BLOCK_SIZE as usize).enumerate() {
            if let Some(src) = self.block(i) {
                dst.copy_from_slice(src);
            }
        }
        out
    }
}

/// A sparse, block-granular simulated main memory.
///
/// A page becomes resident on its first write, and stores only the 64-byte
/// blocks written with a non-zero byte; everything else reads as zero. The
/// HLPL runtime computes program results directly in a `Memory`, and the
/// coherence simulators move `BlockData` between it and the caches, so final
/// memory images can be compared between protocols.
///
/// # Example
///
/// ```
/// use warden_mem::{Addr, Memory};
/// let mut mem = Memory::new();
/// mem.write_bytes(Addr(100), &[1, 2, 3]);
/// assert_eq!(mem.read_u8(Addr(101)), 2);
/// // Untouched memory reads as zero.
/// assert_eq!(mem.read_u64(Addr(1 << 40)), 0);
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    /// Flat page table: dense over the program's address span, spilling to
    /// a hash map only for far outliers (see [`PageMap`]).
    pages: PageMap<Page>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident pages (pages written at least once, including
    /// those written only with zeros).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The stored bytes of `block`, or `None` if it reads as zero.
    #[inline]
    fn block(&self, block: BlockAddr) -> Option<&Block> {
        self.pages.get(block.page())?.block(block_index(block))
    }

    /// The resident pages in ascending address order.
    fn sorted_pages(&self) -> Vec<(PageAddr, &Page)> {
        let mut pages: Vec<(PageAddr, &Page)> = self.pages.iter().collect();
        pages.sort_by_key(|&(p, _)| p);
        pages
    }

    /// Read `dst.len()` bytes starting at `addr`. May cross block and page
    /// boundaries.
    pub fn read_bytes(&self, addr: Addr, dst: &mut [u8]) {
        let mut cur = addr;
        let mut done = 0;
        while done < dst.len() {
            let off = cur.block_offset() as usize;
            let n = (BLOCK_SIZE as usize - off).min(dst.len() - done);
            let out = &mut dst[done..done + n];
            match self.block(cur.block()) {
                Some(b) => out.copy_from_slice(&b[off..off + n]),
                None => out.fill(0),
            }
            done += n;
            cur += n as u64;
        }
    }

    /// Write `src` starting at `addr`. May cross block and page boundaries.
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        let mut cur = addr;
        let mut done = 0;
        while done < src.len() {
            let off = cur.block_offset() as usize;
            let n = (BLOCK_SIZE as usize - off).min(src.len() - done);
            let block = cur.block();
            self.pages.or_insert_with(block.page(), Page::new).write(
                block_index(block),
                off,
                &src[done..done + n],
            );
            done += n;
            cur += n as u64;
        }
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read a whole cache block: one page lookup and one slot read.
    #[inline]
    pub fn read_block(&self, block: BlockAddr) -> BlockData {
        self.block(block)
            .map_or_else(BlockData::zeroed, |b| BlockData::from_bytes(*b))
    }

    /// Write a whole cache block: one page lookup and one slot read.
    #[inline]
    pub fn write_block(&mut self, block: BlockAddr, data: &BlockData) {
        self.pages.or_insert_with(block.page(), Page::new).write(
            block_index(block),
            0,
            data.bytes(),
        );
    }

    /// The resident pages with a non-zero byte, in ascending address order,
    /// each as its 4 KiB of bytes (all-zero pages are skipped: they are
    /// indistinguishable from absent pages).
    pub fn resident(&self) -> Vec<(PageAddr, [u8; PAGE_SIZE as usize])> {
        self.sorted_pages()
            .into_iter()
            .filter(|(_, page)| !page.is_zero())
            .map(|(p, page)| (p, page.to_bytes()))
            .collect()
    }

    /// A content digest of the memory image (FNV-1a folded over 64-bit
    /// little-endian words of each resident page in address order, skipping
    /// all-zero pages so that an untouched page and an absent page hash
    /// identically). Hashing word-at-a-time instead of byte-at-a-time makes
    /// the digest ~8× cheaper — it dominates end-of-run accounting on
    /// multi-megabyte images. Two memories with equal digests are equal
    /// with overwhelming probability; use [`Self::first_difference`] for an
    /// exact check.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        // An absent block is eight zero words, two per lane, and folding a
        // zero word into a lane multiplies it by the prime.
        const ZERO_BLOCK_FOLD: u64 = FNV_PRIME.wrapping_mul(FNV_PRIME);
        let mut h = FNV_OFFSET;
        for (p, page) in self.sorted_pages() {
            if page.is_zero() {
                continue;
            }
            h = (h ^ p.0).wrapping_mul(FNV_PRIME);
            // Four independent FNV lanes folded at the end: a single chain is
            // one dependent multiply per word, and its latency alone is a
            // visible slice of a multi-megabyte final-image hash.
            let mut lanes = [h, h ^ FNV_PRIME, h.rotate_left(17), h.rotate_left(43)];
            for i in 0..BLOCKS_PER_PAGE {
                let Some(block) = page.block(i) else {
                    for lane in &mut lanes {
                        *lane = lane.wrapping_mul(ZERO_BLOCK_FOLD);
                    }
                    continue;
                };
                // A block is 8 words, so it splits exactly into two groups
                // of four, one word per lane.
                for group in block.chunks_exact(32) {
                    for (lane, w) in lanes.iter_mut().zip(group.chunks_exact(8)) {
                        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                        *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
                    }
                }
            }
            for lane in lanes {
                h = (h ^ lane).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Serialize the full memory image: every resident page in ascending
    /// address order, each as its page address, a `u64` bitmap of its
    /// blocks that hold a non-zero byte (bit `i` for block `i`), and those
    /// blocks' 64 bytes in index order. An image costs what the run wrote,
    /// not 4 KiB per page it touched.
    ///
    /// A resident all-zero page is written as bitmap 0, which keeps a
    /// decoded memory's page map identical to the original's, not just
    /// semantically equal.
    pub fn encode_into(&self, enc: &mut Encoder) {
        let pages = self.sorted_pages();
        enc.put_usize(pages.len());
        for (p, page) in pages {
            enc.put_u64(p.0);
            enc.put_u64(page.nonzero_blocks().fold(0, |m, (i, _)| m | 1 << i));
            for (_, block) in page.nonzero_blocks() {
                enc.put_raw(block);
            }
        }
    }

    /// Decode a memory image produced by [`Self::encode_into`]. Pages out
    /// of address order and listed blocks that are all zero are rejected:
    /// the encoder writes neither, so each image has one encoding.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Memory, CodecError> {
        let invalid = |what, detail| CodecError::Invalid { what, detail };
        let n = dec.take_count(8 + 8)?;
        let mut pages = PageMap::new();
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let addr = dec.take_u64()?;
            if last.is_some_and(|prev| addr <= prev) {
                return Err(invalid(
                    "memory page",
                    format!("page {addr:#x} out of order"),
                ));
            }
            last = Some(addr);
            let mask = dec.take_u64()?;
            let mut page = Page::new();
            for i in (0..BLOCKS_PER_PAGE).filter(|&i| mask >> i & 1 == 1) {
                page.write(i, 0, dec.take_raw(BLOCK_SIZE as usize)?);
                if page.block(i).is_none() {
                    return Err(invalid(
                        "memory block",
                        format!("block {i} of page {addr:#x} is listed but all zero"),
                    ));
                }
            }
            pages.insert(PageAddr(addr), page);
        }
        Ok(Memory { pages })
    }

    /// Compare two memories over a byte range, returning the first differing
    /// address (useful in tests comparing protocol end states).
    pub fn first_difference(&self, other: &Memory, start: Addr, len: u64) -> Option<Addr> {
        let mut cur = start;
        let end_excl = Addr(start.0 + len);
        let mut a = [0u8; BLOCK_SIZE as usize];
        let mut b = [0u8; BLOCK_SIZE as usize];
        while cur < end_excl {
            let n = (BLOCK_SIZE.min(end_excl - cur)) as usize;
            self.read_bytes(cur, &mut a[..n]);
            other.read_bytes(cur, &mut b[..n]);
            if let Some(i) = (0..n).find(|&i| a[i] != b[i]) {
                return Some(cur + i as u64);
            }
            cur += n as u64;
        }
        None
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} resident pages)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_first_touch() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(Addr(0xdead_0000)), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_u64() {
        let mut mem = Memory::new();
        mem.write_u64(Addr(8), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(Addr(8)), 0x0102_0304_0506_0708);
        // Little-endian layout.
        assert_eq!(mem.read_u8(Addr(8)), 0x08);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut mem = Memory::new();
        let addr = Addr(PAGE_SIZE - 3);
        mem.write_bytes(addr, &[1, 2, 3, 4, 5, 6]);
        let mut out = [0u8; 6];
        mem.read_bytes(addr, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn block_roundtrip() {
        let mut mem = Memory::new();
        let mut data = BlockData::zeroed();
        data.write(0, &[7; 64]);
        mem.write_block(BlockAddr(3), &data);
        assert_eq!(mem.read_block(BlockAddr(3)), data);
    }

    #[test]
    fn first_difference_finds_exact_byte() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_bytes(Addr(0), &[0; 200]);
        b.write_bytes(Addr(0), &[0; 200]);
        b.write_u8(Addr(131), 9);
        assert_eq!(a.first_difference(&b, Addr(0), 200), Some(Addr(131)));
        assert_eq!(a.first_difference(&b, Addr(0), 131), None);
    }

    #[test]
    fn digest_ignores_zero_pages() {
        let mut a = Memory::new();
        let b = Memory::new();
        // Touch a page with zeros only: digest must equal the empty memory.
        a.write_bytes(Addr(0), &[0; 64]);
        assert_eq!(a.digest(), b.digest());
        a.write_u8(Addr(1), 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_order_insensitive_to_write_order() {
        let mut a = Memory::new();
        a.write_u8(Addr(0), 1);
        a.write_u8(Addr(PAGE_SIZE), 2);
        let mut b = Memory::new();
        b.write_u8(Addr(PAGE_SIZE), 2);
        b.write_u8(Addr(0), 1);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn codec_roundtrip_preserves_exact_page_map() {
        let mut m = Memory::new();
        m.write_u64(Addr(16), 0xfeed);
        m.write_bytes(Addr(3 * PAGE_SIZE - 2), &[9; 5]);
        m.write_bytes(Addr(10 * PAGE_SIZE), &[0; 8]); // resident all-zero page
        let mut enc = crate::codec::Encoder::new();
        m.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Decoder::new(&bytes);
        let back = Memory::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.resident_pages(), m.resident_pages());
        assert_eq!(back.digest(), m.digest());
        assert_eq!(m.first_difference(&back, Addr(0), 12 * PAGE_SIZE), None);
    }

    /// Page address, bitmap and listed blocks for each page.
    fn encode_pages(pages: &[(u64, u64, &[Block])]) -> Vec<u8> {
        let mut enc = crate::codec::Encoder::new();
        enc.put_usize(pages.len());
        for &(addr, mask, blocks) in pages {
            enc.put_u64(addr);
            enc.put_u64(mask);
            for b in blocks {
                enc.put_raw(b);
            }
        }
        enc.into_bytes()
    }

    fn decodes(bytes: &[u8]) -> bool {
        let mut dec = crate::codec::Decoder::new(bytes);
        Memory::decode_from(&mut dec).is_ok() && dec.finish().is_ok()
    }

    #[test]
    fn codec_rejects_out_of_order_pages() {
        let data = [[7; BLOCK_SIZE as usize]];
        assert!(decodes(&encode_pages(&[(5, 0, &[]), (6, 1 << 3, &data)])));
        // Duplicate / not strictly ascending.
        assert!(!decodes(&encode_pages(&[(5, 0, &[]), (5, 0, &[])])));
        assert!(!decodes(&encode_pages(&[(6, 1 << 3, &data), (5, 0, &[])])));
    }

    #[test]
    fn codec_rejects_listed_zero_and_missing_blocks() {
        let (data, zero) = ([7; BLOCK_SIZE as usize], ZERO_BLOCK);
        assert!(decodes(&encode_pages(&[(5, 0b101, &[data, data])])));
        assert!(!decodes(&encode_pages(&[(5, 0b101, &[data, zero])])));
        assert!(!decodes(&encode_pages(&[(5, 0b101, &[data])])));
    }

    /// Number of blocks `page` stores.
    fn stored_blocks(mem: &Memory, page: u64) -> usize {
        mem.pages.get(PageAddr(page)).map_or(0, |p| p.blocks.len())
    }

    #[test]
    fn only_blocks_with_data_are_stored() {
        let mut mem = Memory::new();
        mem.write_bytes(Addr(0), &[0; PAGE_SIZE as usize]);
        assert_eq!((mem.resident_pages(), stored_blocks(&mem, 0)), (1, 0));
        // Three bytes across a block boundary store two blocks.
        mem.write_bytes(Addr(BLOCK_SIZE - 1), &[1, 2, 3]);
        assert_eq!(stored_blocks(&mem, 0), 2);
        // Zeros over stored blocks overwrite them in place.
        mem.write_bytes(Addr(BLOCK_SIZE - 1), &[0; 3]);
        assert_eq!(mem.read_u64(Addr(BLOCK_SIZE - 1)), 0);
        mem.write_block(BlockAddr(5), &BlockData::zeroed());
        assert_eq!(stored_blocks(&mem, 0), 2);
        assert_eq!(mem.digest(), Memory::new().digest());
    }

    #[test]
    fn digest_folds_absent_blocks_as_zero_words() {
        let mut sparse = Memory::new();
        sparse.write_u64(Addr(3 * BLOCK_SIZE + 8), 0xabcd);
        sparse.write_u8(Addr(PAGE_SIZE - 1), 7);
        // The same image with every block of the page stored.
        let mut dense = sparse.clone();
        let page = dense.pages.get_mut(PageAddr(0)).unwrap();
        for i in 0..BLOCKS_PER_PAGE {
            if page.slots[i] == 0 {
                page.blocks.push(ZERO_BLOCK);
                page.slots[i] = page.blocks.len() as u8;
            }
        }
        assert_eq!(stored_blocks(&dense, 0), BLOCKS_PER_PAGE);
        assert_eq!(dense.digest(), sparse.digest());
    }

    #[test]
    fn first_difference_none_when_equal() {
        let mut a = Memory::new();
        a.write_u64(Addr(16), 5);
        let b = a.clone();
        assert_eq!(a.first_difference(&b, Addr(0), 4096), None);
    }
}
