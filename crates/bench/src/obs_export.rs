//! Writing observability artifacts to disk.
//!
//! A run driven by [`SimEngine::run_observed`](warden_sim::SimEngine)
//! returns an [`ObsReport`] next to its outcome; this module turns that
//! report into files under the `--obs <dir>` directory:
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
use warden_coherence::ProtocolId;
use warden_sim::ObsReport;

fn write(path: &Path, text: &str) -> Result<(), HarnessError> {
    std::fs::write(path, text).map_err(|e| HarnessError::Io {
        path: path.into(),
        source: e,
    })
}

/// Export the trace + epoch summary of one run observed under `protocol`
/// into `dir` (created if missing). Returns the paths written, trace first.
pub fn export_outcome(
    dir: &Path,
    label: &str,
    protocol: ProtocolId,
    rep: &ObsReport,
) -> Result<Vec<PathBuf>, HarnessError> {
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
        path: dir.into(),
        source: e,
    })?;
    let proto = format!("{protocol:?}").to_lowercase();
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
    use warden_pbbs::{Bench, Scale};
    use warden_sim::{MachineConfig, SimEngine, SimOptions};

    #[test]
    fn exports_are_wellformed() {
        let program = Bench::MakeArray.build(Scale::Tiny);
        let m = MachineConfig::dual_socket().with_cores(4);
        let (_, rep) =
            SimEngine::new(&program, &m, ProtocolId::Warden, &SimOptions::default()).run_observed();

        let dir = warden_sim::checkpoint::unique_dir(&std::env::temp_dir(), "warden-obs-export")
            .expect("scratch dir");
        let paths =
            export_outcome(&dir, "make_array", ProtocolId::Warden, &rep).expect("export succeeds");
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("make_array-warden.trace.json"));
        assert!(paths[1].ends_with("make_array-warden.epochs.txt"));

        let trace = std::fs::read_to_string(&paths[0]).unwrap();
        let stats = warden_obs::validate_trace(&trace).expect("well-formed trace");
        assert!(stats.events > 0);
        let epochs = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(epochs.contains("== event counts =="));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
