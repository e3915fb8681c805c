//! Property tests of the runtime + simulator pipeline: random fork-join
//! programs must produce well-formed traces whose replay reproduces the
//! logical memory image under both protocols on random machine shapes.

use proptest::prelude::*;
use warden::prelude::*;
use warden::rt::TraceProgram;

/// A small recursive program description: at each node either compute
/// sequentially or fork two subtrees, with leaves writing slices of a shared
/// output array and their own scratch.
#[derive(Clone, Debug)]
enum Tree {
    Leaf { work: u64, writes: u8 },
    Fork(Box<Tree>, Box<Tree>),
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = (1u64..200, any::<u8>()).prop_map(|(work, writes)| Tree::Leaf { work, writes });
    leaf.prop_recursive(5, 64, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Tree::Fork(Box::new(a), Box::new(b)))
    })
}

fn leaves(t: &Tree) -> u64 {
    match t {
        Tree::Leaf { .. } => 1,
        Tree::Fork(a, b) => leaves(a) + leaves(b),
    }
}

fn run_tree(ctx: &mut TaskCtx<'_>, t: &Tree, out: &SimSlice<u64>, next: &mut u64) {
    match t {
        Tree::Leaf { work, writes } => {
            ctx.work(*work);
            let scratch = ctx.alloc_scratch::<u64>(u64::from(*writes) + 1);
            for i in 0..scratch.len() {
                ctx.write(&scratch, i, i ^ *work);
            }
            let slot = *next;
            *next += 1;
            let check = (0..scratch.len()).fold(0u64, |acc, i| acc ^ ctx.read(&scratch, i));
            ctx.write(out, slot, check.wrapping_add(slot));
        }
        Tree::Fork(a, b) => {
            // The logical leaf numbering must match the replayed structure,
            // so split the slot range before forking.
            let la = leaves(a);
            let mut na = *next;
            let mut nb = *next + la;
            *next += leaves(t);
            let (aa, bb) = (a.clone(), b.clone());
            let out_a = *out;
            let out_b = *out;
            ctx.fork2_dyn(&mut |c| run_tree(c, &aa, &out_a, &mut na), &mut |c| {
                run_tree(c, &bb, &out_b, &mut nb)
            });
        }
    }
}

fn build(t: &Tree) -> TraceProgram {
    let n = leaves(t);
    let t = t.clone();
    trace_program("proptree", RtOptions::default(), move |ctx| {
        let out = ctx.alloc::<u64>(n);
        let mut next = 0;
        run_tree(ctx, &t, &out, &mut next);
        // Read everything back (parent consuming leaf results).
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(ctx.read(&out, i));
        }
        std::hint::black_box(acc);
    })
}

/// Replays the shrunk input recorded in `proptest_rt.proptest-regressions`
/// as a plain unit test, so the historical failure stays covered even if the
/// regression file is lost or the proptest seeding scheme changes.
#[test]
fn regression_unbalanced_tree_replays_faithfully() {
    fn leaf(work: u64, writes: u8) -> Tree {
        Tree::Leaf { work, writes }
    }
    fn fork(a: Tree, b: Tree) -> Tree {
        Tree::Fork(Box::new(a), Box::new(b))
    }
    let t = fork(
        fork(leaf(1, 0), fork(leaf(6, 168), leaf(166, 52))),
        fork(
            fork(leaf(12, 23), leaf(67, 95)),
            fork(leaf(172, 211), fork(leaf(23, 196), leaf(147, 255))),
        ),
    );
    let p = build(&t);
    p.check_invariants().unwrap();
    let m = MachineConfig::single_socket()
        .with_cores(2)
        .with_seed(3463122757351628199);
    let mesi = simulate(&p, &m, ProtocolId::Mesi);
    let warden = simulate(&p, &m, ProtocolId::Warden);
    assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
    assert_eq!(warden.memory_image_digest, p.memory.digest());
    assert_eq!(mesi.stats.tasks, p.tasks.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_trees_replay_faithfully(
        t in tree_strategy(),
        cores in 1usize..5,
        sockets in 1usize..3,
        seed in any::<u64>(),
    ) {
        let p = build(&t);
        prop_assert!(p.check_invariants().is_ok());
        let m = match sockets {
            1 => MachineConfig::single_socket(),
            _ => MachineConfig::dual_socket(),
        }
        .with_cores(cores)
        .with_seed(seed);
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        prop_assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
        prop_assert_eq!(warden.memory_image_digest, p.memory.digest());
        // Every task ran.
        prop_assert_eq!(mesi.stats.tasks, p.tasks.len() as u64);
    }

    #[test]
    fn instruction_counts_match_trace(t in tree_strategy()) {
        let p = build(&t);
        let m = MachineConfig::single_socket().with_cores(2);
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        // MESI executes exactly the traced instructions minus the region
        // instructions (which only a WARDen machine runs).
        let region_instrs: u64 = p
            .tasks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| {
                matches!(
                    e,
                    warden::rt::Event::RegionAdd { .. } | warden::rt::Event::RegionRemove { .. }
                )
            })
            .count() as u64;
        prop_assert_eq!(mesi.stats.instructions + region_instrs, p.stats.instructions);
    }
}
