//! Oracle-based property tests: `CacheArray` must behave exactly like a
//! reference model (per-set line lists in storage order with LRU stamps),
//! and `WriteMask`/`BlockData` merging must match naive byte-level
//! bookkeeping.

use proptest::prelude::*;
use std::collections::BTreeMap;
use warden_mem::{BlockAddr, BlockData, CacheArray, CacheGeometry, WriteMask};

/// One resident line of the model.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ModelLine {
    block: u64,
    value: u32,
    stamp: u64,
}

/// A straightforward model: one `Vec` per set in storage order (inserts
/// append, removals swap the last line in), an LRU stamp per line from a
/// tick that every demand access and insert advances, and the first
/// minimum stamp as the victim.
#[derive(Clone)]
struct ModelCache {
    geometry: CacheGeometry,
    tick: u64,
    sets: BTreeMap<u64, Vec<ModelLine>>,
}

impl ModelCache {
    fn new(geometry: CacheGeometry) -> ModelCache {
        ModelCache {
            geometry,
            tick: 0,
            sets: BTreeMap::new(),
        }
    }

    fn set(&mut self, block: u64) -> &mut Vec<ModelLine> {
        let set = self.geometry.set_of(BlockAddr(block));
        self.sets.entry(set).or_default()
    }

    fn get(&mut self, block: u64) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        let line = self.set(block).iter_mut().find(|l| l.block == block)?;
        line.stamp = tick;
        Some(line.value)
    }

    fn insert(&mut self, block: u64, value: u32) -> Option<(u64, u32)> {
        self.tick += 1;
        let stamp = self.tick;
        let ways = self.geometry.associativity() as usize;
        let set = self.set(block);
        if let Some(line) = set.iter_mut().find(|l| l.block == block) {
            line.value = value;
            line.stamp = stamp;
            return None;
        }
        let evicted = (set.len() == ways).then(|| {
            let min = set.iter().map(|l| l.stamp).min().unwrap();
            let victim = set.iter().position(|l| l.stamp == min).unwrap();
            let line = set.swap_remove(victim);
            (line.block, line.value)
        });
        set.push(ModelLine {
            block,
            value,
            stamp,
        });
        evicted
    }

    fn invalidate(&mut self, block: u64) -> Option<u32> {
        let set = self.set(block);
        let pos = set.iter().position(|l| l.block == block)?;
        Some(set.swap_remove(pos).value)
    }

    /// Remove the lines whose value has low bit `bit`, set by set; within
    /// a set, a removal swaps the last line into the hole, which is then
    /// examined next.
    fn drain_matching(&mut self, bit: u32) -> Vec<(u64, u32)> {
        let mut removed = Vec::new();
        for set in self.sets.values_mut() {
            let mut way = 0;
            while way < set.len() {
                if set[way].value & 1 == bit {
                    let line = set.swap_remove(way);
                    removed.push((line.block, line.value));
                } else {
                    way += 1;
                }
            }
        }
        removed
    }

    fn drain_all(&mut self) -> Vec<(u64, u32)> {
        let lines = self.lines();
        self.sets.clear();
        lines
    }

    /// Every resident line, in (set, storage) order.
    fn lines(&self) -> Vec<(u64, u32)> {
        self.sets
            .values()
            .flatten()
            .map(|l| (l.block, l.value))
            .collect()
    }
}

fn lines(cache: &CacheArray<u32>) -> Vec<(u64, u32)> {
    cache.iter().map(|(b, v)| (b.0, *v)).collect()
}

/// Geometries under test: 8 sets of 2 ways (mask indexing), and 6,144
/// sets of 4 ways (modulo indexing, and far more sets than any case
/// touches).
const GEOMETRIES: [(u64, u32); 2] = [(1024, 2), (6144 * 4 * 64, 4)];

/// Map a small block id onto the geometry: ids 0..8 pick one of 8 sets
/// spread evenly over the index, and higher ids stack ways onto them.
fn block_of(geometry: CacheGeometry, id: u64) -> u64 {
    let sets = geometry.num_sets();
    (id % 8) * (sets / 8) + (id / 8) * sets
}

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Insert(u64, u32),
    Invalidate(u64),
    /// Drain the lines whose value has this low bit.
    DrainMatching(u32),
    DrainAll,
    /// Start (or restart) a twin from `clone()`, to receive every later op.
    Fork,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..100, 0u64..64, any::<u32>()).prop_map(|(pick, b, v)| match pick {
        0..=34 => Op::Get(b),
        35..=74 => Op::Insert(b, v),
        75..=89 => Op::Invalidate(b),
        90..=93 => Op::DrainMatching(v & 1),
        94 => Op::DrainAll,
        _ => Op::Fork,
    })
}

proptest! {
    #[test]
    fn cache_array_matches_lru_model(
        g in 0usize..GEOMETRIES.len(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let (size, ways) = GEOMETRIES[g];
        let geometry = CacheGeometry::new(size, ways);
        let mut real: CacheArray<u32> = CacheArray::new(geometry);
        let mut twin: Option<CacheArray<u32>> = None;
        let mut model = ModelCache::new(geometry);
        for op in ops {
            // The twin must answer every op exactly as the original does.
            let before = model.clone();
            for cache in std::iter::once(&mut real).chain(twin.as_mut()) {
                let mut replay = before.clone();
                match op {
                    Op::Get(b) => {
                        let b = block_of(geometry, b);
                        prop_assert_eq!(cache.get(BlockAddr(b)).copied(), replay.get(b));
                    }
                    Op::Insert(b, v) => {
                        let b = block_of(geometry, b);
                        let evicted = cache.insert(BlockAddr(b), v).map(|e| (e.block.0, e.payload));
                        prop_assert_eq!(evicted, replay.insert(b, v));
                    }
                    Op::Invalidate(b) => {
                        let b = block_of(geometry, b);
                        prop_assert_eq!(cache.invalidate(BlockAddr(b)), replay.invalidate(b));
                    }
                    Op::DrainMatching(bit) => {
                        let mut removed = Vec::new();
                        cache.drain_matching(|_, v| v & 1 == bit, |b, v| removed.push((b.0, v)));
                        prop_assert_eq!(removed, replay.drain_matching(bit));
                    }
                    Op::DrainAll => {
                        let mut removed = Vec::new();
                        cache.drain_all(|b, v| removed.push((b.0, v)));
                        prop_assert_eq!(removed, replay.drain_all());
                    }
                    Op::Fork => {}
                }
                prop_assert_eq!(lines(cache), replay.lines());
                prop_assert_eq!(cache.len(), replay.lines().len());
                model = replay;
            }
            if let Op::Fork = op {
                twin = Some(real.clone());
            }
        }
    }

    #[test]
    fn masked_merges_match_byte_bookkeeping(
        writes in proptest::collection::vec((0u64..64, 1u64..9, any::<u8>(), 0usize..3), 1..60)
    ) {
        // Three "cores" write byte ranges; merging their masked copies into
        // a base block must equal naive last-writer bookkeeping per byte,
        // as long as ranges written by different cores do not overlap.
        let mut owner: [Option<usize>; 64] = [None; 64];
        let mut expected = [0u8; 64];
        let mut copies = [(BlockData::zeroed(), WriteMask::empty()); 3];
        for (start, len, val, core) in writes {
            let len = len.min(64 - start);
            if len == 0 { continue; }
            // Skip writes that would overlap another core's bytes (that
            // would be a true-WAW race with order-dependent outcome).
            let range = start as usize..(start + len) as usize;
            if range.clone().any(|i| owner[i].is_some_and(|o| o != core)) {
                continue;
            }
            for i in range.clone() {
                owner[i] = Some(core);
                expected[i] = val;
            }
            let bytes = vec![val; len as usize];
            copies[core].0.write(start, &bytes);
            copies[core].1.set_range(start, len);
        }
        let mut merged = BlockData::zeroed();
        for (data, mask) in &copies {
            merged.merge_from(data, *mask);
        }
        prop_assert_eq!(merged.bytes(), &expected);
    }
}
