//! Smoke tests of the `experiments` binary.

use std::process::Command;

fn run_experiments(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (ok, _, stderr) = run_experiments(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn unknown_experiment_fails() {
    let dir = std::env::temp_dir().join("kiff-cli-unknown");
    let (ok, _, stderr) =
        run_experiments(&["table42", "--scale", "0.02", "--out", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
}

#[test]
fn bad_option_fails() {
    let (ok, _, stderr) = run_experiments(&["table1", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"), "stderr: {stderr}");
}

#[test]
fn table1_tiny_scale_writes_reports() {
    let dir = std::env::temp_dir().join("kiff-cli-table1");
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stdout, stderr) = run_experiments(&[
        "table1",
        "--scale",
        "0.02",
        "--seed",
        "7",
        "--threads",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Table I"), "stdout: {stdout}");
    assert!(dir.join("table1.txt").exists());
    assert!(dir.join("table1.json").exists());
    let json = std::fs::read_to_string(dir.join("table1.json")).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["id"], "table1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table7_tiny_scale_shows_rcs_advantage() {
    let dir = std::env::temp_dir().join("kiff-cli-table7");
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stdout, stderr) = run_experiments(&[
        "table7",
        "--scale",
        "0.02",
        "--threads",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Top k from RCS"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn online_tiny_scale_writes_bench_baseline() {
    let dir = std::env::temp_dir().join("kiff-cli-online");
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stdout, stderr) = run_experiments(&[
        "online",
        "--scale",
        "0.1",
        "--seed",
        "7",
        "--threads",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Online maintenance"), "stdout: {stdout}");
    assert!(stdout.contains("updates/s"), "stdout: {stdout}");
    // `Ctx::finish` is the one writer: the report and its record, nothing else.
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["online.json", "online.txt"]);
    let record = std::fs::read_to_string(dir.join("online.json")).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&record).unwrap();
    assert_eq!(parsed["id"], "online");
    let data = &parsed["data"];
    assert!(data["rebuild"]["sim_evals"].as_f64().unwrap() > 0.0);
    assert_eq!(data["runs"][0]["mode"], "one-by-one");
    assert_eq!(data["runs"][1]["mode"], "batched");
    std::fs::remove_dir_all(&dir).ok();
}
