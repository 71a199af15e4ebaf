//! `--smoke`: all four workloads and the traced path, end to end, on
//! tables a tenth of the size (under 15 s in a release build).

use std::process::Command;

#[test]
fn smoke_runs_every_workload_through_both_paths() {
    let exe = env!("CARGO_BIN_EXE_falcon-e2e-bench");
    let doc = std::path::Path::new(exe).with_file_name("smoke-test-out.json");
    let out = Command::new(exe)
        .arg("--smoke")
        .arg("--out")
        .arg(&doc)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "smoke run failed:\n{stdout}");

    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect();
    assert_eq!(results.len(), 4, "one result line per workload");
    assert_eq!(stdout.lines().last(), results.last().copied());
    for r in &results {
        assert!(r.starts_with("{\"correct\":true,\"attempted\":"), "{r}");
        assert!(r.contains("\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":"));
        // Both paths ran: end-to-end metrics and per-layer metrics.
        for name in ["setup_s", "f1", "stage.gen_fvs_m.wall_s", "serve.rounds"] {
            assert!(
                r.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} in {r}"
            );
        }
    }
    // The traced pipelines attribute their wall; serve reports its layer.
    assert!(results[0].contains("\"trace.wall_s\":{\"value\":0."));
    assert!(!results[3].contains("\"serve.rounds\":{\"value\":0,"));

    let written = std::fs::read_to_string(&doc).expect("--out document");
    std::fs::remove_file(&doc).expect("remove the --out document");
    assert!(written.starts_with("{\"provenance\":{\"nproc\":"));
    assert_eq!(written.matches("\"why\":").count(), 4);
}

#[test]
fn bad_arguments_print_usage_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_falcon-e2e-bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
