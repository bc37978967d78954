//! Kill-and-resume drill against the real `pythia-sim` binary: a run is
//! aborted mid-flight (`--die-at-event` lands like a `kill -9` — no
//! unwinding, no destructors), then `--resume` picks up the last good
//! checkpoint and must finish with the *identical* report fingerprint
//! the uninterrupted run prints.
//!
//! The drill runs the default (exact) solver; the comparison baseline is
//! itself a checkpointing run at the same cadence. The relaxed solver's
//! drill runs in process, in pythia-cluster's `snapshot_resume` suite
//! (`relaxed_checkpointed_run_resumes_to_its_fingerprint`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pythia-sim"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pythia-kill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The canonical report fingerprint the binary prints.
fn printed_fingerprint(out: &Output) -> String {
    stdout(out)
        .lines()
        .find_map(|l| Some(l.strip_prefix("fingerprint:")?.trim().to_string()))
        .unwrap_or_else(|| panic!("no fingerprint line in:\n{}", stdout(out)))
}

/// Shared scenario: small enough for CI, big enough to cross several
/// checkpoints before the crash point.
fn base_args(dir: &std::path::Path) -> Vec<String> {
    [
        "--workload",
        "sort",
        "--scale",
        "0.003",
        "--seed",
        "3",
        "--checkpoint-every-events",
        "20",
        "--checkpoint-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([dir.display().to_string()])
    .collect()
}

#[test]
fn killed_run_resumes_to_the_uninterrupted_fingerprint() {
    let dir = tmpdir("drill");

    // Reference: the same checkpointing run, never interrupted.
    let reference = sim().args(base_args(&dir)).output().expect("spawn");
    assert!(reference.status.success(), "{}", stdout(&reference));
    let want = printed_fingerprint(&reference);
    let _ = std::fs::remove_dir_all(&dir);

    // Crash drill: abort() mid-run — the process dies without unwinding,
    // exactly like `kill -9` landing between two events.
    let killed = sim()
        .args(base_args(&dir))
        .args(["--die-at-event", "60"])
        .output()
        .expect("spawn");
    assert!(
        !killed.status.success(),
        "crash drill was supposed to die: {}",
        stdout(&killed)
    );
    assert!(
        dir.join("MANIFEST").exists(),
        "no checkpoint survived the crash"
    );

    // Resume from the wreckage and compare fingerprints.
    let resumed = sim()
        .args(base_args(&dir))
        .arg("--resume")
        .output()
        .expect("spawn");
    assert!(resumed.status.success(), "{}", stdout(&resumed));
    assert_eq!(
        printed_fingerprint(&resumed),
        want,
        "resumed run diverged from the uninterrupted one\nresumed:\n{}",
        stdout(&resumed)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_mismatched_scenario() {
    let dir = tmpdir("mismatch");
    let run = sim().args(base_args(&dir)).output().expect("spawn");
    assert!(run.status.success(), "{}", stdout(&run));

    // Same checkpoint directory, different seed: typed refusal, exit 1.
    let mut args = base_args(&dir);
    let seed_pos = args.iter().position(|a| a == "--seed").unwrap();
    args[seed_pos + 1] = "4".into();
    let bad = sim().args(args).arg("--resume").output().expect("spawn");
    assert!(!bad.status.success());
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("snapshot error") && err.contains("config hash"),
        "stderr: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
