//! Fixed-work session calibration for a drifting benchmark host.
//!
//! The benchmark box exposes a single shared vCPU whose effective speed
//! drifts between (and within) sessions — see `BENCH_HOST.json`. Raw
//! events-per-second floors therefore cannot distinguish "the code got
//! slower" from "the box got slower". This module provides the fixed
//! reference workload the release perf gates (`tests/perf_gates.rs`)
//! and the fleet smoke time alongside the real run: a deterministic
//! [splitmix64] mixing loop whose instruction stream never changes, so
//! its measured duration tracks only the host. Dividing a session's
//! measured reference time by the recorded baseline
//! (`calibration.reference_ns` in `BENCH_HOST.json`) yields the
//! **session factor** used to scale throughput floors.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::time::Instant;

/// Iterations of the mixing loop per measurement. Sized so one
/// measurement takes tens of milliseconds on the reference host — long
/// enough to average over scheduler jitter, short enough to run three
/// repetitions in every gated run.
pub const FIXED_WORK_ITERS: u64 = 20_000_000;

/// One splitmix64 step: advance the state and return the mixed output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the fixed workload once and return the folded output (callers
/// must consume it so the loop cannot be optimized away).
pub fn fixed_work(iters: u64) -> u64 {
    let mut state = 0x5eed_5eed_5eed_5eedu64;
    let mut acc = 0u64;
    for _ in 0..iters {
        acc ^= splitmix64(&mut state);
    }
    acc
}

/// Time the fixed workload, taking the fastest of `reps` repetitions
/// (contention on a shared box only ever adds time, so the minimum is
/// the least-noisy estimate). Returns nanoseconds.
pub fn fixed_work_ns(reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = fixed_work(FIXED_WORK_ITERS);
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(out);
        if ns < best {
            best = ns;
        }
    }
    best
}

/// The session factor against a recorded reference: how many times
/// slower this session's host is than the one the floors were measured
/// on. Clamped to `[0.5, 3.0]` — a session more than 3× slower than
/// reference is too degraded to excuse a throughput miss (the run should
/// be treated as failed/noisy), and a session faster than 2× reference
/// still has to clear half the floor.
pub fn session_factor(measured_ns: f64, reference_ns: f64) -> f64 {
    assert!(reference_ns > 0.0 && measured_ns > 0.0);
    (measured_ns / reference_ns).clamp(0.5, 3.0)
}

/// Read the number stored under `"key":` in a JSON file without a JSON
/// dependency (the workspace vendors no serde). The key matches exactly
/// (`sort60_fat8_pythia` never reads `sort60_fat8_pythia_relaxed`),
/// nesting is ignored, and the key must name exactly one finite number
/// in the file. Every failure — unreadable file, missing or repeated
/// key, unparsable value — is an error naming the file and the key, so
/// a gate built on it fails instead of comparing against nothing.
pub fn json_number(path: &str, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: key \"{key}\": {e}"))?;
    number_under_key(&text, key).map_err(|why| format!("{path}: key \"{key}\" {why}"))
}

fn number_under_key(text: &str, key: &str) -> Result<f64, &'static str> {
    let quoted = format!("\"{key}\"");
    let mut found = None;
    for (at, _) in text.match_indices(&quoted) {
        // A quoted string not followed by a colon is a value, not a key.
        let Some(rest) = text[at + quoted.len()..].trim_start().strip_prefix(':') else {
            continue;
        };
        if found.is_some() {
            return Err("appears more than once");
        }
        let rest = rest.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
            .unwrap_or(rest.len());
        match rest[..end].parse::<f64>() {
            Ok(v) if v.is_finite() => found = Some(v),
            _ => return Err("is not a finite number"),
        }
    }
    found.ok_or("is missing")
}

/// Measure this session and return the floor-scaling factor against the
/// `reference_ns` recorded in `host_json` (see [`session_factor`]). A
/// missing, unparsable or non-positive reference is an error: a gate
/// never falls back to an unscaled comparison.
pub fn measured_session_factor(host_json: &str) -> Result<f64, String> {
    let reference = json_number(host_json, "reference_ns")?;
    if reference <= 0.0 {
        return Err(format!(
            "{host_json}: key \"reference_ns\" must be positive, got {reference}"
        ));
    }
    Ok(session_factor(fixed_work_ns(3), reference))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_work_is_deterministic() {
        assert_eq!(fixed_work(1000), fixed_work(1000));
        assert_ne!(fixed_work(1000), fixed_work(1001));
    }

    #[test]
    fn factor_clamps() {
        assert_eq!(session_factor(1.0, 1.0), 1.0);
        assert_eq!(session_factor(10.0, 1.0), 3.0);
        assert_eq!(session_factor(1.0, 10.0), 0.5);
        assert!((session_factor(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn keys_match_exactly() {
        let floors = r#"{"floor_events_per_sec": {
            "sort60_fat8_pythia_relaxed": 300000,
            "sort60_fat8_pythia" : 125000
        }, "gated": ["sort60_fat8_pythia"]}"#;
        assert_eq!(number_under_key(floors, "sort60_fat8_pythia"), Ok(125000.0));
        assert_eq!(
            number_under_key(floors, "sort60_fat8_pythia_relaxed"),
            Ok(300000.0)
        );
        assert_eq!(number_under_key(floors, "fat8_pythia"), Err("is missing"));
        assert_eq!(
            number_under_key(r#"{"a": {"x": 1}, "b": {"x": 2}}"#, "x"),
            Err("appears more than once")
        );
    }

    #[test]
    fn missing_or_unparsable_values_are_errors() {
        assert_eq!(number_under_key("{}", "reference_ns"), Err("is missing"));
        for bad in [
            r#"{"reference_ns": "23045000"}"#,
            r#"{"reference_ns": null}"#,
            r#"{"reference_ns": 1e999}"#,
        ] {
            assert_eq!(
                number_under_key(bad, "reference_ns"),
                Err("is not a finite number"),
                "{bad}"
            );
        }
    }

    #[test]
    fn exponent_forms_parse() {
        for (text, want) in [
            (r#"{"v": 2.3045e7}"#, 2.3045e7),
            (r#"{"v": 1E+6}"#, 1e6),
            (r#"{"v":-5e-1}"#, -0.5),
            (r#"{"v": 12345678.5, "w": 3}"#, 12345678.5),
        ] {
            assert_eq!(number_under_key(text, "v"), Ok(want), "{text}");
        }
    }

    #[test]
    fn reference_parses_from_host_json() {
        let dir = std::env::temp_dir().join("pythia-calibrate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("host.json");
        std::fs::write(
            &p,
            "{\n  \"calibration\": {\n    \"reference_ns\": 12345678.5,\n    \"reps\": 3\n  }\n}",
        )
        .unwrap();
        let path = p.to_str().unwrap();
        assert_eq!(json_number(path, "reference_ns"), Ok(12345678.5));
        let err = json_number(path, "floor").unwrap_err();
        assert!(err.contains(path) && err.contains("\"floor\""), "{err}");
        let err = json_number("/nonexistent/host.json", "reference_ns").unwrap_err();
        assert!(err.contains("/nonexistent/host.json") && err.contains("reference_ns"));
        let err = measured_session_factor("/nonexistent/host.json").unwrap_err();
        assert!(err.contains("reference_ns"), "{err}");
    }
}
