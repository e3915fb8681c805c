//! Oracle-based property tests for the WARD region store: arbitrary
//! interleavings of overlapping adds, removes, `remove_covering` calls and
//! capacity overflows must keep the page index consistent with the live
//! region list and behave deterministically.

use proptest::prelude::*;
use warden_coherence::{AddRegion, RegionId, RegionStore};
use warden_mem::{Addr, PAGE_SIZE};

/// One operation against the store, in page units.
#[derive(Clone, Debug)]
enum Op {
    /// Add `[start_page, start_page + len)` in the near page universe.
    Add { start_page: u64, len: u64 },
    /// Add a region at a far-away base (exercises the `PageMap` spill path,
    /// like the fault injector's decoy regions do).
    AddFar { slot: u64, len: u64 },
    /// Remove the `k % len`-th live region (by position in id order).
    Remove { k: usize },
    /// Remove whatever region owns `page`, if any.
    RemoveCovering { page: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1u64..5).prop_map(|(start_page, len)| Op::Add { start_page, len }),
        (0u64..12, 1u64..5).prop_map(|(start_page, len)| Op::Add { start_page, len }),
        (0u64..4, 1u64..3).prop_map(|(slot, len)| Op::AddFar { slot, len }),
        (0usize..16).prop_map(|k| Op::Remove { k }),
        (0u64..16).prop_map(|page| Op::RemoveCovering { page }),
    ]
}

/// Far bases are ~40 GiB apart so they always land in `PageMap` spill
/// storage rather than the dense window.
fn far_base(slot: u64) -> u64 {
    (10_000_000 + slot * 10_000_000) * PAGE_SIZE
}

/// Naive reference: live regions as `(id, start, end)` byte ranges, in
/// insertion (= ascending id) order.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u64, u64)>,
    next_id: u64,
    overflows: u64,
}

impl Model {
    /// The page's owner: the lowest live id whose range covers it.
    fn owner_of(&self, page_base: u64) -> Option<u64> {
        self.live
            .iter()
            .filter(|&&(_, s, e)| s <= page_base && page_base < e)
            .map(|&(id, _, _)| id)
            .min()
    }

    /// Every page base covered by at least one live region.
    fn covered_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self
            .live
            .iter()
            .flat_map(|&(_, s, e)| (s / PAGE_SIZE..e / PAGE_SIZE).map(|p| p * PAGE_SIZE))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

/// Apply one op to both the store and the model, checking the op-level
/// results agree.
fn apply(op: &Op, store: &mut RegionStore, model: &mut Model, capacity: usize) {
    match *op {
        Op::Add { start_page, len }
        | Op::AddFar {
            slot: start_page,
            len,
        } => {
            let start = match op {
                Op::AddFar { slot, .. } => far_base(*slot),
                _ => start_page * PAGE_SIZE,
            };
            let end = start + len * PAGE_SIZE;
            let got = store.add(Addr(start), Addr(end));
            if model.live.len() == capacity {
                assert_eq!(got, AddRegion::Overflow);
                model.overflows += 1;
            } else {
                assert_eq!(got, AddRegion::Added(RegionId(model.next_id)));
                model.live.push((model.next_id, start, end));
                model.next_id += 1;
            }
        }
        Op::Remove { k } => {
            if model.live.is_empty() {
                // Any id is unknown; removal must be a no-op returning None.
                assert_eq!(store.remove(RegionId(model.next_id + 7)), None);
                return;
            }
            let (id, s, e) = model.live.remove(k % model.live.len());
            assert_eq!(store.remove(RegionId(id)), Some((Addr(s), Addr(e))));
        }
        Op::RemoveCovering { page } => {
            let base = page * PAGE_SIZE;
            let got = store.remove_covering(Addr(base));
            match model.owner_of(base) {
                Some(id) => {
                    let pos = model.live.iter().position(|&(i, _, _)| i == id).unwrap();
                    let (_, s, e) = model.live.remove(pos);
                    assert_eq!(got, Some((RegionId(id), Addr(s), Addr(e))));
                }
                None => assert_eq!(got, None),
            }
        }
    }
}

/// The store's page index matches the model: a page is mapped iff some live
/// region covers it, and its owner is the lowest live covering id.
fn check_consistency(store: &RegionStore, model: &Model) {
    assert_eq!(store.len(), model.live.len());
    assert_eq!(store.overflows(), model.overflows);
    for base in model.covered_pages() {
        assert_eq!(
            store.region_of(Addr(base)),
            model.owner_of(base).map(RegionId),
            "page base {base:#x}"
        );
    }
    // Pages nobody covers (near universe + far slots) must be absent.
    for page in 0..20u64 {
        let base = page * PAGE_SIZE;
        if model.owner_of(base).is_none() {
            assert!(!store.contains(Addr(base)));
        }
    }
    for slot in 0..4u64 {
        let base = far_base(slot);
        if model.owner_of(base).is_none() {
            assert!(!store.contains(Addr(base)));
        }
    }
}

/// Everything a caller can ask the store: its counters and the owner of
/// every page in the near universe and at every far slot.
fn observe(store: &RegionStore) -> (usize, usize, u64, Vec<Option<RegionId>>) {
    let bases = (0..20u64)
        .map(|page| page * PAGE_SIZE)
        .chain((0..4u64).map(far_base));
    let owners = bases.map(|base| store.region_of(Addr(base))).collect();
    (store.len(), store.peak(), store.overflows(), owners)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of overlapping adds, removes, covering removes and
    /// overflows keeps page↔region bookkeeping consistent with the naive
    /// model.
    #[test]
    fn interleavings_stay_consistent(
        capacity in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut store = RegionStore::new(capacity);
        let mut model = Model::default();
        for op in &ops {
            apply(op, &mut store, &mut model, capacity);
            check_consistency(&store, &model);
        }
    }

    /// Two stores driven by the same operation sequence are observationally
    /// identical — including after removes that force overlapping pages to
    /// be reassigned (the old hash-scan reassignment was nondeterministic).
    #[test]
    fn identically_driven_stores_answer_identically(
        capacity in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut a = RegionStore::new(capacity);
        let mut b = RegionStore::new(capacity);
        let mut model_a = Model::default();
        let mut model_b = Model::default();
        for op in &ops {
            apply(op, &mut a, &mut model_a, capacity);
            apply(op, &mut b, &mut model_b, capacity);
        }
        prop_assert_eq!(observe(&a), observe(&b));
    }
}
