//! Set-associative cache arrays with LRU replacement.
//!
//! Tags and payloads are stored separately (a struct-of-arrays layout): the
//! per-set tag scan — the operation every lookup performs — walks a dense
//! `(block, lru)` array of 16 bytes per way, while the fat payloads
//! (coherence state, block data, write masks) live in parallel per-set
//! vectors touched only on a hit. With ~100-byte payloads this cuts the
//! memory traffic of a 20-way scan by an order of magnitude, which is where
//! the simulator's hot loop spends its time.
//!
//! Storage follows the footprint, not the geometry. A set gets its ways
//! (tags, LRU stamps, payload vector) from a dense arena the first time a
//! line is inserted into it; until then it costs one index word. The
//! paper's machine holds 24,576 sets per LLC slice, and a small kernel
//! touches a few thousand blocks in all, so building, walking, flushing and
//! freeing only the touched sets is what keeps engine setup and teardown
//! proportional to the run rather than to the machine.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::{BlockAddr, CacheGeometry};
use std::fmt;

/// Low bits of an index word: the set's live line count. The high bits
/// hold the set's dense storage id.
const FILL_BITS: u32 = 32;
const FILL_MASK: u64 = (1 << FILL_BITS) - 1;

/// A block evicted by [`CacheArray::insert`], handed back to the caller so
/// the protocol layer can write it back or notify the directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Block number of the victim line.
    pub block: BlockAddr,
    /// The victim's payload.
    pub payload: T,
}

/// An opaque handle to a resident line, returned by [`CacheArray::locate`]
/// and [`CacheArray::get_slot`]. Dereference with [`CacheArray::at`] /
/// [`CacheArray::at_mut`].
///
/// A slot stays valid until the array's membership next changes (any
/// `insert`, `invalidate` or drain); payload mutation through `at_mut` or
/// the borrow-based lookups does not disturb it. The protocol layer relies
/// on this to look a block up once per directory transaction instead of
/// re-scanning the set for every read and write of the same line.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Dense storage id of the line's set.
    dense: u32,
    way: u32,
}

/// A successful mutable lookup, exposing the payload.
pub struct LookupMut<'a, T> {
    payload: &'a mut T,
}

impl<'a, T> LookupMut<'a, T> {
    /// The payload of the found line.
    pub fn payload(&mut self) -> &mut T {
        self.payload
    }
}

/// A set-associative, LRU-replaced cache array with payloads of type `T`.
///
/// The array itself is protocol-agnostic: the coherence layer stores MESI/W
/// state, block data and write masks in `T`. Evictions are returned, never
/// silently dropped, so the protocol can model write-backs.
///
/// # Example
///
/// ```
/// use warden_mem::{BlockAddr, CacheArray, CacheGeometry};
/// let mut cache: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1024, 2));
/// assert!(cache.insert(BlockAddr(1), 11).is_none());
/// assert_eq!(cache.get(BlockAddr(1)), Some(&11));
/// cache.invalidate(BlockAddr(1));
/// assert_eq!(cache.get(BlockAddr(1)), None);
/// ```
#[derive(Clone)]
pub struct CacheArray<T> {
    geometry: CacheGeometry,
    assoc: usize,
    /// One word per set: `dense << FILL_BITS | fill`, where `dense` is the
    /// set's storage id and `fill` its live line count. A set without
    /// storage reads `0`: a fill of zero, so a lookup there misses after
    /// this one read.
    index: Vec<u64>,
    /// One bit per set that has storage; walks visit these in set order.
    stored: Vec<u64>,
    /// Raw block number per way slot, `assoc` slots per dense id; only the
    /// first `fill` slots of a set are live. Within-set slot order is the
    /// order lines were stored (inserts append, removals swap the last
    /// live slot in) — victim selection on LRU ties depends on it.
    blocks: Vec<u64>,
    /// LRU stamp per way slot, parallel to `blocks`; read only on a hit or
    /// during victim selection, so tag scans stay within `blocks`.
    lru: Vec<u64>,
    /// `payloads[dense][way]`, same within-set order as `blocks`.
    payloads: Vec<Vec<T>>,
    tick: u64,
    len: usize,
}

/// Live line count of an index word.
#[inline]
fn fill_of(word: u64) -> usize {
    (word & FILL_MASK) as usize
}

/// Dense storage id of an index word.
#[inline]
fn dense_of(word: u64) -> usize {
    (word >> FILL_BITS) as usize
}

/// Indices of the set bits of `word`, the `w`-th word of a bitmap,
/// ascending.
fn word_ones(w: usize, word: u64) -> impl Iterator<Item = usize> {
    let mut bits = word;
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * 64 + bit
        })
    })
}

/// Indices of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| word_ones(w, word))
}

impl<T> CacheArray<T> {
    /// Create an empty array with the given geometry. No set has storage
    /// yet; each gets its ways on its first insert.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than `u32::MAX` sets.
    pub fn new(geometry: CacheGeometry) -> CacheArray<T> {
        let num_sets = geometry.num_sets() as usize;
        assert!(
            u32::try_from(num_sets).is_ok(),
            "cache arrays hold at most u32::MAX sets"
        );
        CacheArray {
            geometry,
            assoc: geometry.associativity() as usize,
            index: vec![0; num_sets],
            stored: vec![0; num_sets.div_ceil(64)],
            blocks: Vec::new(),
            lru: Vec::new(),
            payloads: Vec::new(),
            tick: 0,
            len: 0,
        }
    }

    /// The geometry this array was created with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The slot of `block` within its set, if resident.
    #[inline]
    fn find(&self, set: usize, block: BlockAddr) -> Option<Slot> {
        let word = self.index[set];
        let base = dense_of(word) * self.assoc;
        let way = self.blocks[base..base + fill_of(word)]
            .iter()
            .position(|&b| b == block.0)?;
        Some(Slot {
            dense: dense_of(word) as u32,
            way: way as u32,
        })
    }

    /// Position of `slot` in `blocks` and `lru`.
    #[inline]
    fn way_index(&self, slot: Slot) -> usize {
        slot.dense as usize * self.assoc + slot.way as usize
    }

    /// The dense storage id of `set`, giving the set its ways first if it
    /// has none.
    fn storage(&mut self, set: usize) -> usize {
        let bit = 1u64 << (set % 64);
        if self.stored[set / 64] & bit == 0 {
            self.stored[set / 64] |= bit;
            self.index[set] = (self.payloads.len() as u64) << FILL_BITS;
            self.blocks.resize(self.blocks.len() + self.assoc, 0);
            self.lru.resize(self.lru.len() + self.assoc, 0);
            self.payloads.push(Vec::new());
        }
        dense_of(self.index[set])
    }

    /// Look up a block without touching LRU state (a "probe", as a directory
    /// snoop would do).
    pub fn peek(&self, block: BlockAddr) -> Option<&T> {
        let set = self.geometry.set_of(block) as usize;
        Some(self.at(self.find(set, block)?))
    }

    /// Look up a block, updating LRU state (a demand access).
    pub fn get(&mut self, block: BlockAddr) -> Option<&T> {
        let slot = self.get_slot(block)?;
        Some(self.at(slot))
    }

    /// Look up a block mutably, updating LRU state.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        let slot = self.get_slot(block)?;
        Some(self.at_mut(slot))
    }

    /// Look up a block mutably *without* updating LRU state (for snoops and
    /// reconciliation scans that should not perturb replacement).
    pub fn peek_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        let slot = self.locate(block)?;
        Some(self.at_mut(slot))
    }

    /// Locate a resident block without touching LRU state, returning a
    /// [`Slot`] handle for repeated O(1) access to the same line.
    #[inline]
    pub fn locate(&self, block: BlockAddr) -> Option<Slot> {
        self.find(self.geometry.set_of(block) as usize, block)
    }

    /// Locate a resident block, updating LRU state (a demand access), and
    /// return its [`Slot`]. Equivalent to [`Self::get`] plus [`Self::locate`]
    /// in one scan.
    #[inline]
    pub fn get_slot(&mut self, block: BlockAddr) -> Option<Slot> {
        let tick = self.bump();
        let slot = self.locate(block)?;
        let i = self.way_index(slot);
        self.lru[i] = tick;
        Some(slot)
    }

    /// Mark `slot` as most-recently used, exactly as a [`Self::get`] on its
    /// block would (the tick advances once). Lets a caller that already
    /// located a line promote it without a second set scan.
    #[inline]
    pub fn touch(&mut self, slot: Slot) {
        let tick = self.bump();
        let i = self.way_index(slot);
        self.lru[i] = tick;
    }

    /// The payload at `slot` (no LRU effect).
    ///
    /// # Panics
    ///
    /// Panics if the slot no longer names a live line (its set's membership
    /// changed since [`Self::locate`]).
    #[inline]
    pub fn at(&self, slot: Slot) -> &T {
        &self.payloads[slot.dense as usize][slot.way as usize]
    }

    /// The payload at `slot`, mutably (no LRU effect).
    ///
    /// # Panics
    ///
    /// Panics if the slot no longer names a live line (its set's membership
    /// changed since [`Self::locate`]).
    #[inline]
    pub fn at_mut(&mut self, slot: Slot) -> &mut T {
        &mut self.payloads[slot.dense as usize][slot.way as usize]
    }

    /// Remove the line at `slot` of `set`, swap-filling the hole with the
    /// set's last live line (the same order perturbation `Vec::swap_remove`
    /// produces — encodings and victim selection depend on it).
    fn remove_at(&mut self, set: usize, slot: Slot) -> (BlockAddr, T) {
        let i = self.way_index(slot);
        let last = slot.dense as usize * self.assoc + fill_of(self.index[set]) - 1;
        let block = BlockAddr(self.blocks[i]);
        self.blocks[i] = self.blocks[last];
        self.lru[i] = self.lru[last];
        let payload = self.payloads[slot.dense as usize].swap_remove(slot.way as usize);
        self.index[set] -= 1;
        self.len -= 1;
        (block, payload)
    }

    /// Insert (or replace) a block's payload. If the set is full, the LRU
    /// victim is evicted and returned.
    ///
    /// Replacing an existing block never evicts and returns `None`.
    pub fn insert(&mut self, block: BlockAddr, payload: T) -> Option<Evicted<T>> {
        let tick = self.bump();
        let set = self.geometry.set_of(block) as usize;
        if let Some(slot) = self.find(set, block) {
            let i = self.way_index(slot);
            self.lru[i] = tick;
            *self.at_mut(slot) = payload;
            return None;
        }
        let dense = self.storage(set);
        let base = dense * self.assoc;
        let mut evicted = None;
        if fill_of(self.index[set]) == self.assoc {
            // First minimum wins on LRU ties, like `Iterator::min_by_key`.
            let victim = self.lru[base..base + self.assoc]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &lru)| lru)
                .expect("full set is non-empty")
                .0;
            let slot = Slot {
                dense: dense as u32,
                way: victim as u32,
            };
            let (vblock, vpayload) = self.remove_at(set, slot);
            evicted = Some(Evicted {
                block: vblock,
                payload: vpayload,
            });
        }
        let n = fill_of(self.index[set]);
        self.blocks[base + n] = block.0;
        self.lru[base + n] = tick;
        self.payloads[dense].push(payload);
        self.index[set] += 1;
        self.len += 1;
        evicted
    }

    /// Remove a block, returning its payload if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let set = self.geometry.set_of(block) as usize;
        let slot = self.find(set, block)?;
        Some(self.remove_at(set, slot).1)
    }

    /// Iterate over all resident lines (block, payload), in set order and,
    /// within a set, in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> {
        ones(&self.stored).flat_map(move |set| {
            let dense = dense_of(self.index[set]);
            let base = dense * self.assoc;
            self.payloads[dense]
                .iter()
                .enumerate()
                .map(move |(way, p)| (BlockAddr(self.blocks[base + way]), p))
        })
    }

    /// Remove every line for which `pred` returns true, invoking `on_removed`
    /// for each (used for WARD-region flushes during reconciliation). Sets
    /// are visited in set order.
    pub fn drain_matching(
        &mut self,
        mut pred: impl FnMut(BlockAddr, &T) -> bool,
        mut on_removed: impl FnMut(BlockAddr, T),
    ) {
        for w in 0..self.stored.len() {
            for set in word_ones(w, self.stored[w]) {
                let dense = dense_of(self.index[set]);
                let mut way = 0;
                while way < fill_of(self.index[set]) {
                    let slot = Slot {
                        dense: dense as u32,
                        way: way as u32,
                    };
                    if pred(BlockAddr(self.blocks[self.way_index(slot)]), self.at(slot)) {
                        let (block, payload) = self.remove_at(set, slot);
                        on_removed(block, payload);
                    } else {
                        way += 1;
                    }
                }
            }
        }
    }

    /// Remove all lines, invoking `on_removed` for each in [`Self::iter`]
    /// order (a full cache flush). Sets keep their storage.
    pub fn drain_all(&mut self, mut on_removed: impl FnMut(BlockAddr, T)) {
        for w in 0..self.stored.len() {
            for set in word_ones(w, self.stored[w]) {
                let dense = dense_of(self.index[set]);
                let base = dense * self.assoc;
                for (way, payload) in self.payloads[dense].drain(..).enumerate() {
                    on_removed(BlockAddr(self.blocks[base + way]), payload);
                }
                self.index[set] &= !FILL_MASK;
            }
        }
        self.len = 0;
    }

    /// Mutable lookup wrapped in [`LookupMut`], updating LRU state.
    pub fn lookup_mut(&mut self, block: BlockAddr) -> Option<LookupMut<'_, T>> {
        self.get_mut(block).map(|payload| LookupMut { payload })
    }

    /// Serialize the array's complete replacement state: the LRU tick and,
    /// per set, every line *in its exact storage order* with its LRU stamp.
    /// Every set is written, in set order, with a zero count for a set
    /// holding no lines, whether or not it has storage. Order matters for
    /// bit-identical resume: [`Self::insert`] evicts with a swap-remove, so
    /// within-set position influences future victim selection whenever LRU
    /// stamps tie.
    ///
    /// Payloads are emitted through `put` so the protocol layer controls
    /// their encoding.
    pub fn encode_with(&self, enc: &mut Encoder, mut put: impl FnMut(&mut Encoder, &T)) {
        enc.put_u64(self.tick);
        enc.put_usize(self.index.len());
        for &word in &self.index {
            let n = fill_of(word);
            enc.put_usize(n);
            let dense = dense_of(word);
            let base = dense * self.assoc;
            for way in 0..n {
                enc.put_u64(self.blocks[base + way]);
                enc.put_u64(self.lru[base + way]);
                put(enc, &self.payloads[dense][way]);
            }
        }
    }

    /// Decode an array serialized by [`Self::encode_with`] into the given
    /// geometry, restoring tick, per-set line order and LRU stamps exactly.
    /// Only sets that hold lines get storage.
    pub fn decode_with(
        geometry: CacheGeometry,
        dec: &mut Decoder<'_>,
        mut take: impl FnMut(&mut Decoder<'_>) -> Result<T, CodecError>,
    ) -> Result<CacheArray<T>, CodecError> {
        let tick = dec.take_u64()?;
        let num_sets = dec.take_usize()?;
        if num_sets != geometry.num_sets() as usize {
            return Err(CodecError::Invalid {
                what: "cache array",
                detail: format!(
                    "snapshot has {num_sets} sets, geometry expects {}",
                    geometry.num_sets()
                ),
            });
        }
        let ways = geometry.associativity() as usize;
        let mut out: CacheArray<T> = CacheArray::new(geometry);
        out.tick = tick;
        for set_idx in 0..num_sets {
            let n = dec.take_count(16)?;
            if n > ways {
                return Err(CodecError::Invalid {
                    what: "cache set",
                    detail: format!("set {set_idx} holds {n} lines, associativity is {ways}"),
                });
            }
            if n == 0 {
                continue;
            }
            let dense = out.storage(set_idx);
            let base = dense * ways;
            for way in 0..n {
                let block = BlockAddr(dec.take_u64()?);
                if geometry.set_of(block) as usize != set_idx {
                    return Err(CodecError::Invalid {
                        what: "cache line",
                        detail: format!("block {} does not map to set {set_idx}", block.0),
                    });
                }
                if out.blocks[base..base + way].contains(&block.0) {
                    return Err(CodecError::Invalid {
                        what: "cache line",
                        detail: format!("block {} duplicated within set {set_idx}", block.0),
                    });
                }
                let lru = dec.take_u64()?;
                let payload = take(dec)?;
                out.blocks[base + way] = block.0;
                out.lru[base + way] = lru;
                out.payloads[dense].push(payload);
            }
            out.index[set_idx] += n as u64;
            out.len += n;
        }
        Ok(out)
    }
}

impl<T: fmt::Debug> fmt::Debug for CacheArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheArray({:?}, {} resident)",
            self.geometry,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheGeometry;

    fn small() -> CacheArray<u32> {
        // 2-way, 2 sets.
        CacheArray::new(CacheGeometry::new(256, 2))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = small();
        assert!(c.insert(BlockAddr(0), 7).is_none());
        assert_eq!(c.get(BlockAddr(0)), Some(&7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_updates_payload_without_eviction() {
        let mut c = small();
        c.insert(BlockAddr(0), 1);
        assert!(c.insert(BlockAddr(0), 2).is_none());
        assert_eq!(c.get(BlockAddr(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = small();
        // Blocks 0 and 2 both map to set 0 (2 sets).
        c.insert(BlockAddr(0), 10);
        c.insert(BlockAddr(2), 20);
        // Touch 0 so 2 becomes LRU.
        c.get(BlockAddr(0));
        let ev = c.insert(BlockAddr(4), 40).expect("set was full");
        assert_eq!(ev.block, BlockAddr(2));
        assert_eq!(ev.payload, 20);
        assert!(c.peek(BlockAddr(0)).is_some());
        assert!(c.peek(BlockAddr(4)).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = small();
        c.insert(BlockAddr(0), 10);
        c.insert(BlockAddr(2), 20);
        // Peek at 0: should NOT protect it.
        assert_eq!(c.peek(BlockAddr(0)), Some(&10));
        let ev = c.insert(BlockAddr(4), 40).expect("eviction");
        assert_eq!(ev.block, BlockAddr(0));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(BlockAddr(1), 5);
        assert_eq!(c.invalidate(BlockAddr(1)), Some(5));
        assert_eq!(c.invalidate(BlockAddr(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn drain_matching_removes_only_matches() {
        let mut c = small();
        c.insert(BlockAddr(0), 1);
        c.insert(BlockAddr(1), 2);
        c.insert(BlockAddr(2), 3);
        let mut removed = Vec::new();
        c.drain_matching(|_, p| *p >= 2, |b, p| removed.push((b, p)));
        removed.sort();
        assert_eq!(removed, vec![(BlockAddr(1), 2), (BlockAddr(2), 3)]);
        assert_eq!(c.len(), 1);
        assert!(c.peek(BlockAddr(0)).is_some());
    }

    #[test]
    fn drain_all_empties() {
        let mut c = small();
        c.insert(BlockAddr(0), 1);
        c.insert(BlockAddr(1), 2);
        let mut n = 0;
        c.drain_all(|_, _| n += 1);
        assert_eq!(n, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        // Blocks 0,2 -> set 0; blocks 1,3 -> set 1.
        c.insert(BlockAddr(0), 0);
        c.insert(BlockAddr(2), 2);
        assert!(c.insert(BlockAddr(1), 1).is_none());
        assert!(c.insert(BlockAddr(3), 3).is_none());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut c = small();
        c.insert(BlockAddr(0), 1);
        *c.get_mut(BlockAddr(0)).unwrap() += 10;
        assert_eq!(c.peek(BlockAddr(0)), Some(&11));
    }

    #[test]
    fn slot_accessors_match_lookups_and_touch_promotes() {
        let mut c = small();
        c.insert(BlockAddr(0), 10);
        c.insert(BlockAddr(2), 20);
        let s0 = c.locate(BlockAddr(0)).expect("resident");
        assert_eq!(c.at(s0), &10);
        *c.at_mut(s0) += 1;
        assert_eq!(c.peek(BlockAddr(0)), Some(&11));
        // touch(slot) behaves like get(): 0 is protected, 2 is the victim.
        c.touch(s0);
        let ev = c.insert(BlockAddr(4), 40).expect("set was full");
        assert_eq!(ev.block, BlockAddr(2));
        // get_slot is a demand access: it promotes 4 over 0.
        let s4 = c.get_slot(BlockAddr(4)).expect("resident");
        assert_eq!(c.at(s4), &40);
        let ev = c.insert(BlockAddr(6), 60).expect("set was full");
        assert_eq!(ev.block, BlockAddr(0));
    }

    #[test]
    fn codec_roundtrip_preserves_order_lru_and_tick() {
        let mut c = small();
        c.insert(BlockAddr(0), 10);
        c.insert(BlockAddr(2), 20);
        c.get(BlockAddr(0));
        c.insert(BlockAddr(4), 40); // evicts via swap-remove, perturbing order
        c.insert(BlockAddr(1), 11);

        let mut enc = crate::codec::Encoder::new();
        c.encode_with(&mut enc, |e, p| e.put_u32(*p));
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Decoder::new(&bytes);
        let mut d: CacheArray<u32> =
            CacheArray::decode_with(c.geometry(), &mut dec, |d| d.take_u32()).unwrap();
        dec.finish().unwrap();

        // Behavioral equivalence: the same future insert evicts the same victim.
        let ev_c = c.insert(BlockAddr(6), 60).expect("eviction");
        let ev_d = d.insert(BlockAddr(6), 60).expect("eviction");
        assert_eq!(ev_c.block, ev_d.block);
        assert_eq!(ev_c.payload, ev_d.payload);
        assert_eq!(c.len(), d.len());

        // Re-encoding the decoded array reproduces the snapshot... after
        // undoing the insert above would be awkward; instead check a fresh
        // encode of both mutated arrays agrees (same storage order).
        let mut e1 = crate::codec::Encoder::new();
        c.encode_with(&mut e1, |e, p| e.put_u32(*p));
        let mut e2 = crate::codec::Encoder::new();
        d.encode_with(&mut e2, |e, p| e.put_u32(*p));
        assert_eq!(e1.into_bytes(), e2.into_bytes());
    }
}
