//! The coherence atlas: a machine-space × sharing-pattern × protocol sweep.
//!
//! The paper evaluates WARDen at three machine points (single socket, dual
//! socket, the §7.3 1 µs disaggregated machine). The atlas sweeps a small
//! grid of machines — including a CXL-class remote-latency point and a
//! many-thin-sockets point — against every synthetic sharing pattern under
//! every registered protocol, and reports the **win region**: which
//! protocol is fastest where. Every run goes through the supervised
//! campaign with the invariant checker on, and every cell is checked for
//! digest agreement first — a protocol may only "win" a cell it simulated
//! correctly.
//!
//! The atlas is deterministic: equal seeds produce byte-identical
//! [`Atlas::records`] output, which is what CI diffs against the committed
//! figure data.

use crate::campaign::{check_agreement, run_campaign, CampaignConfig, RunSpec, Workload};
use crate::error::HarnessError;
use warden_coherence::{LatencyModel, ProtocolId};
use warden_rt::workload::{SharingPattern, WorkloadSpec};
use warden_sim::{MachineConfig, SimOptions, SimOutcome};

/// The atlas's machine grid: the paper's native NUMA point scaled down,
/// a single socket, the §7.3 1 µs disaggregated point, a CXL-class
/// intermediate, and a many-thin-sockets geometry (1 core per socket —
/// every access to another core's data crosses the interconnect).
///
/// Small core counts keep the full grid (5 machines × 7 patterns × 5
/// protocols = 175 runs) fast enough for CI.
pub fn atlas_machines() -> Vec<MachineConfig> {
    [
        ("1s4c-xeon", 1, 4, LatencyModel::xeon_gold_6126()),
        ("2s2c-xeon", 2, 2, LatencyModel::xeon_gold_6126()),
        ("2s2c-cxl", 2, 2, LatencyModel::cxl()),
        ("2s2c-disagg", 2, 2, LatencyModel::disaggregated()),
        ("4s1c-xeon", 4, 1, LatencyModel::xeon_gold_6126()),
    ]
    .into_iter()
    .map(|(name, sockets, cores, lat)| {
        MachineConfig::sweep_point(name, sockets, cores, lat)
            .expect("static atlas grid points are valid")
    })
    .collect()
}

/// One simulated cell of the atlas.
#[derive(Clone, Debug)]
pub struct AtlasCell {
    /// Machine name (see [`atlas_machines`]).
    pub machine: String,
    /// The sharing pattern.
    pub pattern: SharingPattern,
    /// The protocol.
    pub protocol: ProtocolId,
    /// Replay makespan in cycles.
    pub cycles: u64,
    /// Invalidations sent.
    pub invalidations: u64,
    /// Downgrades sent.
    pub downgrades: u64,
    /// LLC misses (DRAM / remote fills).
    pub llc_misses: u64,
    /// Final memory image digest (equal across protocols per cell group —
    /// verified before the atlas is assembled).
    pub digest: u64,
}

/// The finished sweep, cells in deterministic machine-major order.
#[derive(Clone, Debug)]
pub struct Atlas {
    /// Generator seed the sweep ran under.
    pub seed: u64,
    /// All cells: machines × patterns × protocols, in grid order.
    pub cells: Vec<AtlasCell>,
}

impl Atlas {
    /// The protocols that won each (machine, pattern) cell group — lowest
    /// cycle count, ties broken toward the earlier protocol in
    /// [`ProtocolId::ALL`] order.
    pub fn winners(&self) -> Vec<(&str, SharingPattern, ProtocolId)> {
        let mut out = Vec::new();
        for group in self.cells.chunks(ProtocolId::ALL.len()) {
            let best = group
                .iter()
                .min_by_key(|c| c.cycles)
                .expect("cell groups are non-empty");
            out.push((best.machine.as_str(), best.pattern, best.protocol));
        }
        out
    }

    /// The committed figure data: one header line plus one CSV row per
    /// cell, every field an exact integer (no floats), in grid order —
    /// byte-identical across reruns with the same seed.
    pub fn records(&self) -> String {
        let mut s = format!(
            "# coherence atlas, seed {}\nmachine,pattern,protocol,cycles,invalidations,\
             downgrades,llc_misses,digest\n",
            self.seed
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{:#018x}\n",
                c.machine,
                c.pattern,
                c.protocol.name(),
                c.cycles,
                c.invalidations,
                c.downgrades,
                c.llc_misses,
                c.digest
            ));
        }
        s
    }
}

/// The per-pattern workload the atlas holds fixed across machines: small
/// enough for a 175-run CI sweep, seeded per pattern so the patterns do
/// not share random streams.
fn atlas_spec(pattern: SharingPattern, index: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        tasks: 4,
        rounds: 3,
        ops: 24,
        footprint: 2048,
        ..WorkloadSpec::new(
            pattern,
            seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }
}

/// Run the full atlas sweep through the supervised campaign (checker on),
/// verify per-cell-group digest agreement, and assemble the atlas.
///
/// # Errors
///
/// Campaign failures propagate; a protocol disagreement or invariant
/// violation inside the sweep is a [`HarnessError::Failed`].
pub fn run_atlas(seed: u64, cfg: &CampaignConfig) -> Result<Atlas, HarnessError> {
    let machines = atlas_machines();
    let opts = SimOptions {
        check: true,
        ..SimOptions::default()
    };
    let mut specs = Vec::new();
    for machine in &machines {
        for (i, &pattern) in SharingPattern::ALL.iter().enumerate() {
            let w = atlas_spec(pattern, i, seed);
            for &protocol in &ProtocolId::ALL {
                specs.push(RunSpec {
                    id: format!("atlas/{}/{}/{}", machine.name, pattern, protocol.name()),
                    workload: Workload::custom(w.token(), move || w.build()),
                    machine: machine.clone(),
                    protocol,
                    opts: opts.clone(),
                });
            }
        }
    }
    let outcomes: Vec<SimOutcome> = run_campaign(&specs, cfg)?
        .into_iter()
        .map(|r| r.outcome)
        .collect();

    let groups = machines
        .iter()
        .flat_map(|m| SharingPattern::ALL.map(|pattern| (m, pattern)));
    let mut cells = Vec::with_capacity(outcomes.len());
    for ((machine, pattern), group) in groups.zip(outcomes.chunks(ProtocolId::ALL.len())) {
        let name = format!("atlas/{}/{pattern}", machine.name);
        check_agreement(&name, &ProtocolId::ALL, group)?;
        for (o, &protocol) in group.iter().zip(&ProtocolId::ALL) {
            let c = &o.stats.coherence;
            cells.push(AtlasCell {
                machine: machine.name.clone(),
                pattern,
                protocol,
                cycles: o.stats.cycles,
                invalidations: c.invalidations,
                downgrades: c.downgrades,
                llc_misses: c.llc_misses,
                digest: o.memory_image_digest,
            });
        }
    }
    Ok(Atlas { seed, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_machine_grid_is_valid_and_diverse() {
        let machines = atlas_machines();
        assert!(machines.len() >= 3, "need >= 3 machine points");
        for m in &machines {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
        // Thin-socket point really has 1-core sockets.
        assert!(machines.iter().any(|m| m.topo.cores_per_socket() == 1));
        // Remote latency spans native NUMA to the 1 µs point.
        let lats: Vec<u64> = machines.iter().map(|m| m.lat.intersocket).collect();
        assert!(lats.contains(&330) && lats.contains(&600) && lats.contains(&3300));
    }

    #[test]
    fn atlas_specs_are_per_pattern_deterministic() {
        for (i, &p) in SharingPattern::ALL.iter().enumerate() {
            assert_eq!(atlas_spec(p, i, 7), atlas_spec(p, i, 7));
            assert_ne!(atlas_spec(p, i, 7).seed, atlas_spec(p, i, 8).seed);
        }
    }
}
