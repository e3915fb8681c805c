//! Writing observability artifacts to disk.
//!
//! A run simulated with [`SimOptions::obs`](warden_sim::SimOptions) carries
//! an [`ObsReport`](warden_sim::ObsReport) in its outcome; this module turns
//! that report into files under the `--obs <dir>` directory:
//!
//! * `<label>-<protocol>.trace.json` — a Chrome trace-event timeline.
//!   Open it at <https://ui.perfetto.dev> (or `chrome://tracing`) to see
//!   per-core protocol events, WARD-region lifetime slices, and the
//!   per-epoch activity counter track, all on the simulated-cycle axis.
//! * `<label>-<protocol>.epochs.txt` — the event-count/histogram summary
//!   followed by the per-epoch activity table, for grepping without a UI.
//!
//! Every written trace round-trips through
//! [`warden_obs::validate_trace`] in this module's tests, and the
//! `obs_lint` binary re-validates exported files in CI.

use crate::error::HarnessError;
use std::path::{Path, PathBuf};
use warden_sim::SimOutcome;

fn write(path: &Path, text: &str) -> Result<(), HarnessError> {
    std::fs::write(path, text).map_err(|e| HarnessError::Io {
        path: path.into(),
        source: e,
    })
}

/// Export one observed outcome's trace + epoch summary into `dir`
/// (created if missing). Returns the paths written, trace first.
///
/// Fails with a typed error if the outcome carries no report — the caller
/// forgot to simulate with [`SimOptions::obs`](warden_sim::SimOptions).
pub fn export_outcome(
    dir: &Path,
    label: &str,
    outcome: &SimOutcome,
) -> Result<Vec<PathBuf>, HarnessError> {
    let Some(rep) = &outcome.obs else {
        return Err(HarnessError::Failed(format!(
            "{label}: outcome carries no observability report \
             (simulate with SimOptions::obs or pass --obs)"
        )));
    };
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
        path: dir.into(),
        source: e,
    })?;
    let proto = format!("{:?}", outcome.protocol).to_lowercase();
    let stem = format!("{label}-{proto}");

    let trace_path = dir.join(format!("{stem}.trace.json"));
    write(
        &trace_path,
        &rep.trace_event_json(&format!("{label} ({proto})")),
    )?;

    let epochs_path = dir.join(format!("{stem}.epochs.txt"));
    let mut txt = rep.render_summary();
    txt.push('\n');
    txt.push_str(&rep.render_epochs());
    write(&epochs_path, &txt)?;

    Ok(vec![trace_path, epochs_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_coherence::ProtocolId;
    use warden_pbbs::{Bench, Scale};
    use warden_sim::{simulate_with_options, MachineConfig, SimOptions};

    #[test]
    fn exports_are_wellformed_and_refuse_unobserved_runs() {
        let program = Bench::MakeArray.build(Scale::Tiny);
        let m = MachineConfig::dual_socket().with_cores(4);
        let opts = SimOptions {
            obs: true,
            ..SimOptions::default()
        };
        let out = simulate_with_options(&program, &m, ProtocolId::Warden, &opts);

        let dir = warden_sim::checkpoint::unique_dir(&std::env::temp_dir(), "warden-obs-export")
            .expect("scratch dir");
        let paths = export_outcome(&dir, "make_array", &out).expect("export succeeds");
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("make_array-warden.trace.json"));
        assert!(paths[1].ends_with("make_array-warden.epochs.txt"));

        let trace = std::fs::read_to_string(&paths[0]).unwrap();
        let stats = warden_obs::validate_trace(&trace).expect("well-formed trace");
        assert!(stats.events > 0);
        let epochs = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(epochs.contains("== event counts =="));

        let plain = simulate_with_options(&program, &m, ProtocolId::Warden, &SimOptions::default());
        assert!(export_outcome(&dir, "make_array", &plain).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
