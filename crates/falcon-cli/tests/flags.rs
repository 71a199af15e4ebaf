//! Every subcommand checks its flags before it reads any: a flag it does
//! not take — mistyped, or retired like `serve --slots` — and a value
//! flag given no value are errors naming the flag, never silently
//! ignored. Drives the `falcon` binary.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory holding a one-tenant serve manifest.
struct Fixture(PathBuf);

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("falcon_flags_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("jobs.manifest"), "dataset=products scale=0.05\n").unwrap();
        Fixture(dir)
    }

    fn manifest(&self) -> String {
        self.0.join("jobs.manifest").display().to_string()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `falcon args…` and return its exit code and stderr.
fn falcon(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_falcon"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn serve_rejects_an_unknown_or_retired_flag_by_name() {
    let fx = Fixture::new("serve");
    let manifest = fx.manifest();
    for (flag, value) in [("--node", "4"), ("--slots", "4")] {
        let (code, stderr) = falcon(&["serve", &manifest, flag, value]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag} ")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn a_value_flag_without_its_value_is_an_error() {
    let fx = Fixture::new("value");
    let manifest = fx.manifest();
    let cases: [&[&str]; 3] = [
        &["serve", &manifest, "--nodes"],
        &["serve", &manifest, "--threads", "--nodes", "4"],
        &["demo", "products", "--scale"],
    ];
    for args in cases {
        let (code, stderr) = falcon(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("expects a value"), "{args:?}: {stderr}");
    }
}

#[test]
fn every_subcommand_checks_its_flags() {
    let cases: [&[&str]; 4] = [
        &["demo", "products", "--scael", "0.1"],
        &["match", "a.csv", "b.csv", "--interactiv"],
        &["plan", "check", "a.csv", "b.csv", "--out", "m.csv"],
        &["profile", "a.csv", "--explain"],
    ];
    for args in cases {
        let (code, stderr) = falcon(args);
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag} ")),
            "{args:?}: {stderr}"
        );
    }
}

/// A crowd error rate outside [0, 1] — on the command line or on a
/// manifest line — is a typed error before any dataset is generated, not
/// a panic in the simulated crowd.
#[test]
fn a_crowd_error_rate_outside_the_unit_interval_is_an_error() {
    for v in ["2", "NaN", "-1"] {
        let (code, stderr) = falcon(&["demo", "products", "--error", v]);
        assert_eq!(code, Some(1), "--error {v}: {stderr}");
        assert_eq!(stderr, "error: --error expects a number in [0, 1]\n");
    }
    let fx = Fixture::new("error");
    let manifest = fx.manifest();
    std::fs::write(&manifest, "dataset=products scale=0.01 error=-1\n").unwrap();
    let (code, stderr) = falcon(&["serve", &manifest]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr, "error: line 1: error= expects a number in [0, 1]\n");
}

/// `demo --scale` takes the manifest's `scale=` check: a value datagen
/// cannot honour is an error, not a silent run at datagen's floor size.
#[test]
fn a_demo_scale_datagen_cannot_honour_is_an_error() {
    for v in ["-1", "0", "NaN"] {
        let (code, stderr) = falcon(&["demo", "products", "--scale", v]);
        assert_eq!(code, Some(1), "--scale {v}: {stderr}");
        assert_eq!(stderr, "error: --scale expects a finite positive number\n");
    }
}
