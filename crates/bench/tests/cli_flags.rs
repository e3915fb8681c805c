//! The harness binaries reject a valid flag they do not read, with the
//! usage exit code, before doing any work.

use std::process::Command;

#[test]
fn breakdown_rejects_obs() {
    let dir = std::env::temp_dir().join(format!("warden-cli-flags-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_breakdown"))
        .arg("--obs")
        .arg(&dir)
        .output()
        .expect("breakdown starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not read \"--obs\""), "{stderr}");
    assert!(stderr.contains("--campaign-dir <dir>"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!dir.exists());
}

/// Every figure comes from one campaign over every registered protocol, so
/// `all_figures` has no protocol list to choose.
#[test]
fn all_figures_rejects_protocols() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--protocols", "all"])
        .output()
        .expect("all_figures starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not read \"--protocols\""), "{stderr}");
    assert!(out.stdout.is_empty());
}
