//! Oracle-based property test: `Memory` must be observably identical to a
//! reference image that stores one zero-filled 4 KiB page per touched page.
//!
//! The oracle below is the page-per-`Box` layout `Memory` used to have,
//! with its digest. Both get the same random ops — byte writes that cross
//! block and page boundaries, all-zero writes, whole-block and `u64`
//! writes, pages far enough apart to land in `PageMap`'s spill tier, and a
//! `clone()` that later ops are fed to — and after every op the test
//! compares reads, resident page counts, digests, the non-zero resident
//! pages and `first_difference`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use warden_mem::{Addr, BlockAddr, BlockData, Memory, PageAddr, PageMap, PAGE_SIZE};

const PAGE: usize = PAGE_SIZE as usize;

/// Page numbers the ops draw from: a compact run (with a hole and a page
/// just below it), one page below the prepend slack, and two pages far
/// past the dense window.
const NEAR: u64 = 0x400;
const FAR: u64 = NEAR + 3 * PageMap::<()>::MAX_DENSE_SPAN;
const PAGES: [u64; 9] = [
    NEAR,
    NEAR + 1,
    NEAR + 2,
    NEAR + 3,
    NEAR + 5,
    NEAR - 1,
    NEAR - 70,
    FAR,
    FAR + 1,
];

/// The reference image: one zero-filled page per page ever written to.
#[derive(Clone, Default)]
struct Oracle {
    pages: BTreeMap<u64, Box<[u8; PAGE]>>,
}

impl Oracle {
    fn read_bytes(&self, addr: Addr, dst: &mut [u8]) {
        let mut done = 0;
        while done < dst.len() {
            let at = addr + done as u64;
            let off = at.page_offset() as usize;
            let n = (PAGE - off).min(dst.len() - done);
            match self.pages.get(&at.page().0) {
                Some(p) => dst[done..done + n].copy_from_slice(&p[off..off + n]),
                None => dst[done..done + n].fill(0),
            }
            done += n;
        }
    }

    fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        for (i, &b) in src.iter().enumerate() {
            let a = addr + i as u64;
            let page = self
                .pages
                .entry(a.page().0)
                .or_insert_with(|| Box::new([0; PAGE]));
            page[a.page_offset() as usize] = b;
        }
    }

    fn resident(&self) -> Vec<(PageAddr, Vec<u8>)> {
        self.pages
            .iter()
            .filter(|(_, d)| d.iter().any(|&b| b != 0))
            .map(|(&p, d)| (PageAddr(p), d.to_vec()))
            .collect()
    }

    /// Four FNV lanes over the little-endian words of each non-zero page,
    /// folded into the running hash after the page's address.
    fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        for (&p, data) in &self.pages {
            if data.iter().all(|&b| b == 0) {
                continue;
            }
            h = (h ^ p).wrapping_mul(FNV_PRIME);
            let mut lanes = [h, h ^ FNV_PRIME, h.rotate_left(17), h.rotate_left(43)];
            for group in data.chunks_exact(32) {
                for (lane, w) in lanes.iter_mut().zip(group.chunks_exact(8)) {
                    let w = u64::from_le_bytes(w.try_into().unwrap());
                    *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
                }
            }
            for lane in lanes {
                h = (h ^ lane).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    fn first_difference(&self, other: &Oracle, start: Addr, len: u64) -> Option<Addr> {
        let (mut a, mut b) = (vec![0u8; len as usize], vec![0u8; len as usize]);
        self.read_bytes(start, &mut a);
        other.read_bytes(start, &mut b);
        (0..a.len())
            .find(|&i| a[i] != b[i])
            .map(|i| start + i as u64)
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// `len` bytes of `seed`-derived data (never all zero).
    Write {
        page: usize,
        off: u64,
        len: usize,
        seed: u8,
    },
    /// `len` zero bytes.
    Zero { page: usize, off: u64, len: usize },
    /// A whole block; `seed == 0` writes a zero block.
    Block { page: usize, idx: u64, seed: u8 },
    /// A `u64` at any byte offset (it may straddle a block or page).
    U64 { page: usize, off: u64, v: u64 },
    /// Continue on a clone of both images; the originals must not change.
    Clone,
}

/// A byte offset in a page, biased towards its first block and its tail so
/// that writes often straddle a block or the next page.
fn off() -> impl Strategy<Value = u64> {
    prop_oneof![0..PAGE_SIZE, (PAGE_SIZE - 100)..PAGE_SIZE, 0..64u64]
}

fn op() -> impl Strategy<Value = Op> {
    let page = || 0..PAGES.len();
    let write = || {
        (page(), off(), 1..=200usize, any::<u8>()).prop_map(|(page, off, len, seed)| Op::Write {
            page,
            off,
            len,
            seed,
        })
    };
    prop_oneof![
        write(),
        write(),
        (page(), off(), 1..=200usize).prop_map(|(page, off, len)| Op::Zero { page, off, len }),
        (page(), 0..64u64, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(page, idx, seed)| Op::Block { page, idx, seed }),
        (page(), off(), prop_oneof![Just(0u64), any::<u64>()]).prop_map(|(page, off, v)| Op::U64 {
            page,
            off,
            v
        }),
        Just(Op::Clone),
    ]
}

fn addr(page: usize, off: u64) -> Addr {
    PageAddr(PAGES[page]).base() + off
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    // Byte i is seed + 37i with its low bit set: never zero.
    (0..len)
        .map(|i| seed.wrapping_add((i as u8).wrapping_mul(37)) | 1)
        .collect()
}

fn block_data(seed: u8) -> BlockData {
    let mut data = BlockData::zeroed();
    if seed != 0 {
        data.write(0, &pattern(seed, 64));
        data.bytes_mut()[seed as usize % 64] = 0;
    }
    data
}

/// The byte range an op wrote, for the `first_difference` probe.
fn span(op: &Op) -> Option<(Addr, u64)> {
    match *op {
        Op::Write { page, off, len, .. } | Op::Zero { page, off, len } => {
            Some((addr(page, off), len as u64))
        }
        Op::Block { page, idx, .. } => Some((addr(page, idx * 64), 64)),
        Op::U64 { page, off, .. } => Some((addr(page, off), 8)),
        Op::Clone => None,
    }
}

fn apply(mem: &mut Memory, oracle: &mut Oracle, op: &Op) {
    match *op {
        Op::Write {
            page,
            off,
            len,
            seed,
        } => {
            let src = pattern(seed, len);
            mem.write_bytes(addr(page, off), &src);
            oracle.write_bytes(addr(page, off), &src);
        }
        Op::Zero { page, off, len } => {
            mem.write_bytes(addr(page, off), &vec![0; len]);
            oracle.write_bytes(addr(page, off), &vec![0; len]);
        }
        Op::Block { page, idx, seed } => {
            let block = BlockAddr(PageAddr(PAGES[page]).first_block().0 + idx);
            let data = block_data(seed);
            mem.write_block(block, &data);
            oracle.write_bytes(block.base(), data.bytes());
        }
        Op::U64 { page, off, v } => {
            mem.write_u64(addr(page, off), v);
            oracle.write_bytes(addr(page, off), &v.to_le_bytes());
        }
        Op::Clone => unreachable!("handled by the driver"),
    }
}

/// Everything observable about `mem` must match `oracle`.
fn check(mem: &Memory, oracle: &Oracle) -> Result<(), TestCaseError> {
    for &p in PAGES.iter().chain(&[NEAR + 4, NEAR + 6, FAR + 2]) {
        let base = PageAddr(p).base();
        let (mut got, mut want) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        mem.read_bytes(base, &mut got);
        oracle.read_bytes(base, &mut want);
        prop_assert!(got == want, "page {:#x} reads differ", p);
        // An unaligned read straddling into the next page.
        let (mut got, mut want) = ([0u8; 100], [0u8; 100]);
        mem.read_bytes(base + (PAGE_SIZE - 37), &mut got);
        oracle.read_bytes(base + (PAGE_SIZE - 37), &mut want);
        prop_assert!(got == want, "read across page {:#x} differs", p);
    }
    prop_assert_eq!(mem.resident_pages(), oracle.pages.len());
    prop_assert_eq!(mem.digest(), oracle.digest());
    let resident: Vec<(PageAddr, Vec<u8>)> = mem
        .resident()
        .into_iter()
        .map(|(p, data)| (p, data.to_vec()))
        .collect();
    prop_assert!(resident == oracle.resident(), "resident pages differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_matches_the_page_per_box_oracle(ops in proptest::collection::vec(op(), 1..48)) {
        let mut mem = Memory::new();
        let mut oracle = Oracle::default();
        // Images set aside by `Op::Clone`, with their digest at the time.
        let mut frozen: Vec<(Memory, Oracle, u64)> = Vec::new();
        check(&mem, &oracle)?;
        for op in &ops {
            if let Op::Clone = op {
                let (m, o) = (mem.clone(), oracle.clone());
                let digest = mem.digest();
                frozen.push((std::mem::replace(&mut mem, m), std::mem::replace(&mut oracle, o), digest));
                check(&mem, &oracle)?;
                continue;
            }
            let (mem_before, oracle_before) = (mem.clone(), oracle.clone());
            apply(&mut mem, &mut oracle, op);
            check(&mem, &oracle)?;
            // The written range with a block of margin on each side.
            let (start, len) = span(op).expect("writes have a span");
            let (probe, probe_len) = (Addr(start.0 - 64), len + 128);
            prop_assert_eq!(
                mem.first_difference(&mem_before, probe, probe_len),
                oracle.first_difference(&oracle_before, probe, probe_len)
            );
            // Every candidate page (and the first block past it), against
            // the image before the op.
            for &p in &PAGES {
                let base = PageAddr(p).base();
                let n = PAGE_SIZE + 64;
                prop_assert_eq!(
                    mem.first_difference(&mem_before, base, n),
                    oracle.first_difference(&oracle_before, base, n)
                );
            }
        }
        for (m, o, digest) in &frozen {
            check(m, o)?;
            prop_assert_eq!(m.digest(), *digest, "a clone's writes reached its original");
        }
    }
}
