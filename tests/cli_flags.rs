//! CLI contract tests against the real `pythia-sim` binary: flag values
//! the program cannot honor are refused with a typed message and exit 2
//! (never a panic or a silent "never" policy), and the `serve`
//! subcommand's machine-parsed output line holds its shape.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pythia-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn zero_checkpoint_every_events_is_refused() {
    let out = sim(&["--checkpoint-every-events", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("--checkpoint-every-events must be greater than zero"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn zero_checkpoint_every_secs_is_refused() {
    let out = sim(&["--checkpoint-every-secs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--checkpoint-every-secs must be greater than zero"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn non_finite_checkpoint_every_secs_is_refused() {
    for value in ["NaN", "inf", "-inf"] {
        let out = sim(&["--checkpoint-every-secs", value]);
        assert_eq!(out.status.code(), Some(2), "{value}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--checkpoint-every-secs must be a finite number"),
            "{value}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn zero_ratio_is_refused() {
    for args in [&["--ratio", "0"][..], &["serve", "--ratio", "0"]] {
        let out = sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--ratio must be greater than zero"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn serve_zero_flags_are_refused() {
    let out = sim(&["serve", "--predictions", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--predictions must be greater than zero"));

    let out = sim(&["serve", "--queue-capacity", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--queue-capacity must be greater than zero"));
}

#[test]
fn serve_smoke_prints_the_daemon_line() {
    let out = sim(&["serve", "--predictions", "2000", "--queue-capacity", "512"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let line = text
        .lines()
        .find(|l| l.starts_with("daemon: "))
        .unwrap_or_else(|| panic!("no daemon line in:\n{text}"));
    for field in [
        "backend=sim-dataplane",
        "shed=0",
        "tcam_rejected=",
        "throughput=",
        "predictions/hour",
        "p50=",
        "p99=",
    ] {
        assert!(line.contains(field), "missing {field} in: {line}");
    }
    // The lossless blocking feed ingested the whole stream and the
    // allocator actually installed rules.
    let installed: u64 = line
        .split("installed=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable installed= in: {line}"));
    assert!(installed > 0, "daemon installed nothing: {line}");
}
