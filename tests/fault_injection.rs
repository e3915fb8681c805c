//! Benign fault injection must be semantically invisible: across the whole
//! benchmark suite, under both protocols, a run with CAM-exhaustion storms,
//! forced reconciliations and latency spikes must end with a final memory
//! image bit-identical to the fault-free run.

use proptest::prelude::*;
use warden::pbbs::{Bench, Scale};
use warden::prelude::*;
use warden::rt::TraceProgram;
use warden::sim::{try_simulate, FaultPlan, SimOptions};

fn machine() -> MachineConfig {
    MachineConfig::dual_socket().with_cores(3)
}

fn faulty(seed: u64) -> SimOptions {
    SimOptions {
        check: true,
        faults: Some(FaultPlan::benign(seed)),
        ..SimOptions::default()
    }
}

#[test]
fn benign_faults_preserve_every_benchmark_image() {
    let m = machine();
    let mut injected_anything = false;
    for bench in Bench::ALL {
        let p = bench.build(Scale::Tiny);
        for proto in [ProtocolId::Mesi, ProtocolId::Warden] {
            let clean = simulate(&p, &m, proto);
            let shaken = try_simulate(&p, &m, proto, &faulty(0xFAB + p.stats.events)).unwrap();
            assert_eq!(
                clean.memory_image_digest,
                shaken.memory_image_digest,
                "{} under {:?}: benign faults changed the final memory image",
                bench.name(),
                proto
            );
            assert!(
                shaken.violations.is_empty(),
                "{} under {:?}: benign faults must not trip the checker: {}",
                bench.name(),
                proto,
                shaken.violations[0]
            );
            let f = &shaken.stats.faults;
            let events = f.latency_spikes + f.cam_storms + f.forced_reconciles;
            injected_anything |= events > 0;
        }
    }
    assert!(
        injected_anything,
        "the benign plan never fired across the whole suite — the test is vacuous"
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let m = machine();
    let p = Bench::Msort.build(Scale::Tiny);
    let a = try_simulate(&p, &m, ProtocolId::Warden, &faulty(77)).unwrap();
    let b = try_simulate(&p, &m, ProtocolId::Warden, &faulty(77)).unwrap();
    assert_eq!(a.stats, b.stats, "same seed must replay identically");
    assert_eq!(a.memory_image_digest, b.memory_image_digest);
    let c = try_simulate(&p, &m, ProtocolId::Warden, &faulty(78)).unwrap();
    assert_eq!(
        a.memory_image_digest, c.memory_image_digest,
        "a different fault schedule still must not change the answer"
    );
}

#[test]
fn fault_stats_feed_the_latency_and_energy_models() {
    let m = machine();
    let p = Bench::Primes.build(Scale::Tiny);
    // A plan that spikes on every access.
    let mut plan = FaultPlan::benign(5);
    plan.spike_prob = 1.0;
    plan.spike_cycles = 50;
    let opts = SimOptions {
        faults: Some(plan),
        ..SimOptions::default()
    };
    let clean = simulate(&p, &m, ProtocolId::Warden);
    let shaken = try_simulate(&p, &m, ProtocolId::Warden, &opts).unwrap();
    assert!(shaken.stats.faults.latency_spikes > 0);
    assert!(
        shaken.stats.cycles > clean.stats.cycles,
        "universal latency spikes must slow the run down"
    );
    assert_eq!(clean.memory_image_digest, shaken.memory_image_digest);
    assert!(
        shaken.energy.static_nj > clean.energy.static_nj,
        "a run the spikes stretched must burn more static energy"
    );
}

#[test]
fn invalid_plans_are_rejected_not_run() {
    let m = machine();
    let p = Bench::MakeArray.build(Scale::Tiny);
    let mut plan = FaultPlan::benign(1);
    plan.spike_prob = 2.0;
    let opts = SimOptions {
        faults: Some(plan),
        ..SimOptions::default()
    };
    assert!(try_simulate(&p, &m, ProtocolId::Warden, &opts).is_err());
}

/// Random fork-join programs (same generator family as `proptest_rt`) under
/// random benign plans: the image must always match the fault-free run.
fn build(script: Vec<u8>) -> TraceProgram {
    trace_program("fault-prop", RtOptions::default(), move |ctx| {
        let xs = ctx.alloc::<u64>(96);
        for (idx, &op) in script.iter().enumerate() {
            let i = idx as u64;
            match op % 5 {
                0 => ctx.write(&xs, i % 96, u64::from(op)),
                1 => {
                    let _ = ctx.read(&xs, i % 96);
                }
                2 => {
                    let _ = ctx.fetch_add(&xs, i % 96, u64::from(op) + 1);
                }
                3 => {
                    let v = u64::from(op);
                    ctx.fork2(
                        |c| {
                            let s = c.alloc_scratch::<u64>(8);
                            for j in 0..8 {
                                c.write(&s, j, v ^ j);
                            }
                        },
                        |c| c.work(v % 17 + 1),
                    );
                }
                _ => ctx.work(u64::from(op) % 13 + 1),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_survive_random_benign_plans(
        script in proptest::collection::vec(any::<u8>(), 0..60),
        seed in any::<u64>(),
        proto_warden in any::<bool>(),
    ) {
        let p = build(script);
        let m = MachineConfig::single_socket().with_cores(2);
        let proto = if proto_warden { ProtocolId::Warden } else { ProtocolId::Mesi };
        let clean = simulate(&p, &m, proto);
        let shaken = try_simulate(&p, &m, proto, &faulty(seed)).unwrap();
        prop_assert_eq!(clean.memory_image_digest, shaken.memory_image_digest);
        prop_assert!(shaken.violations.is_empty());
    }
}
