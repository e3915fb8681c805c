//! The termination bound that stands in for a wall-clock watchdog. Each
//! `SimEngine::step` call that returns `true` runs one trace event, one
//! task completion, or one pop or steal; cores that find every deque empty
//! park inside the call instead of costing one. Every event and completion
//! runs once and every task is taken at most once, so a replay makes at
//! least `total_events() + tasks - 1` and at most
//! `total_events() + 2 * tasks` such calls, whatever the protocol, machine
//! or schedule (see `SimEngine::run`).

use proptest::prelude::*;
use warden::coherence::ProtocolId;
use warden::pbbs::{Bench, Scale};
use warden::rt::workload::WorkloadGen;
use warden::rt::TraceProgram;
use warden::sim::{MachineConfig, SimEngine, SimOptions};

/// The `step` calls that return `true` in a full replay.
fn busy_steps(program: &TraceProgram, machine: &MachineConfig, protocol: ProtocolId) -> u64 {
    let mut engine = SimEngine::new(program, machine, protocol, &SimOptions::default());
    let mut calls = 0;
    while engine.step() {
        calls += 1;
    }
    calls
}

/// Whether `calls` lies inside the bound, with a message naming the run.
fn within_bound(program: &TraceProgram, calls: u64) -> Result<(), String> {
    let tasks = program.tasks.len() as u64;
    let (lo, hi) = (
        program.total_events() + tasks - 1,
        program.total_events() + 2 * tasks,
    );
    if (lo..=hi).contains(&calls) {
        Ok(())
    } else {
        Err(format!(
            "{}: {calls} busy steps outside [{lo}, {hi}] ({} events, {tasks} tasks)",
            program.name,
            program.total_events()
        ))
    }
}

#[test]
fn every_tiny_kernel_replays_within_the_step_bound() {
    let machines = [MachineConfig::dual_socket(), MachineConfig::many_socket(4)];
    for bench in Bench::ALL {
        let program = bench.build(Scale::Tiny);
        for machine in &machines {
            for protocol in ProtocolId::ALL {
                let calls = busy_steps(&program, machine, protocol);
                if let Err(msg) = within_bound(&program, calls) {
                    panic!("{} under {}: {msg}", machine.name, protocol.name());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated workloads of every sharing pattern stay inside the bound
    /// on a small and on a mostly idle machine.
    #[test]
    fn generated_workloads_replay_within_the_step_bound(
        seed in any::<u64>(),
        protocol in 0..ProtocolId::ALL.len(),
        many in any::<bool>(),
    ) {
        let program = WorkloadGen::new(seed).next_spec().build();
        let machine = if many {
            MachineConfig::many_socket(4)
        } else {
            MachineConfig::dual_socket().with_cores(4)
        };
        let calls = busy_steps(&program, &machine, ProtocolId::ALL[protocol]);
        let verdict = within_bound(&program, calls);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }
}
