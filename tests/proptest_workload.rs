//! Property tests of the synthetic workload generator: every generated
//! spec must build a well-formed, decodable, deterministic DRF trace.

use proptest::prelude::*;
use warden::rt::workload::{SharingPattern, WorkloadGen, WorkloadSpec};
use warden::rt::{trace_io, TraceProgram};

/// A bounded, always-valid spec: every knob inside the validated range.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0..SharingPattern::ALL.len(),
        any::<u64>(),
        2u32..=8,
        1u32..=4,
        1u32..=48,
        prop_oneof![Just(512u64), Just(2048), Just(4096), Just(16384)],
    )
        .prop_map(|(p, seed, tasks, rounds, ops, footprint)| WorkloadSpec {
            tasks,
            rounds,
            ops,
            footprint,
            ..WorkloadSpec::new(SharingPattern::ALL[p], seed)
        })
}

fn encode(p: &TraceProgram) -> Vec<u8> {
    let mut buf = Vec::new();
    trace_io::write_trace(&mut buf, p).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every valid spec builds (the strict in-generation scope checker is
    /// on by default, so a non-DRF pattern would panic here), passes the
    /// trace well-formedness invariants, and round-trips through the
    /// binary codec bit-exactly.
    #[test]
    fn specs_build_valid_round_trippable_traces(spec in spec_strategy()) {
        spec.validate().unwrap();
        let p = spec.build();
        p.check_invariants().unwrap();
        let buf = encode(&p);
        let q = trace_io::read_trace(&mut buf.as_slice()).unwrap();
        q.check_invariants().unwrap();
        prop_assert_eq!(p.fingerprint(), q.fingerprint());
        prop_assert_eq!(p.stats, q.stats);
        prop_assert_eq!(p.memory.digest(), q.memory.digest());
    }

    /// Building the same spec twice yields bit-identical encodings: the
    /// generator draws no entropy outside the seed.
    #[test]
    fn equal_seeds_build_bit_identical_traces(spec in spec_strategy()) {
        prop_assert_eq!(encode(&spec.build()), encode(&spec.build()));
    }

    /// Tokens round-trip: the archived-seed replay path reconstructs the
    /// exact spec.
    #[test]
    fn tokens_round_trip(spec in spec_strategy()) {
        prop_assert_eq!(WorkloadSpec::from_token(&spec.token()).unwrap(), spec);
    }

    /// The generator stream itself is deterministic and cycles through the
    /// requested pattern set.
    #[test]
    fn generator_streams_are_seed_deterministic(seed in any::<u64>(), n in 1usize..24) {
        let a: Vec<WorkloadSpec> = WorkloadGen::new(seed).take(n).collect();
        let b: Vec<WorkloadSpec> = WorkloadGen::new(seed).take(n).collect();
        prop_assert_eq!(&a, &b);
        for (i, s) in a.iter().enumerate() {
            s.validate().unwrap();
            prop_assert_eq!(s.pattern, SharingPattern::ALL[i % SharingPattern::ALL.len()]);
        }
    }
}
