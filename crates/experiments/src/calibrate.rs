//! Fixed-work session calibration for a drifting benchmark host.
//!
//! The floors were measured on a shared virtual host whose effective
//! speed drifts 15–40% between (and within) sessions. Raw
//! events-per-second floors therefore cannot distinguish "the code got
//! slower" from "the box got slower". This module provides the fixed
//! reference workload the release perf gates (`tests/perf_gates.rs`)
//! and the fleet smoke time alongside the real run: a deterministic
//! [splitmix64] mixing loop whose instruction stream never changes, so
//! its measured duration tracks only the host. Dividing a session's
//! measured reference time by [`REFERENCE_NS`] yields the **session
//! factor** used to scale throughput floors. EXPERIMENTS.md ("Retired
//! bench records") derives the reference and records the sessions the
//! floors come from.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::time::Instant;

/// Iterations of the mixing loop per measurement. Sized so one
/// measurement takes tens of milliseconds on the reference host — long
/// enough to average over scheduler jitter, short enough to run three
/// repetitions in every gated run.
pub const FIXED_WORK_ITERS: u64 = 20_000_000;

/// Fixed-work time, in ns, of the host state the floors were set on: a
/// 41.12 ms slow-window reading scaled by that window's relaxed `sort60`
/// slowdown against the fastest recorded session (58.9 / 105.1 ms).
pub const REFERENCE_NS: f64 = 23_045_000.0;

/// A calibrated rate passes at more than this fraction of its floor, so
/// run-to-run noise left after calibration cannot fail a gate.
pub const FLOOR_ALLOWANCE: f64 = 0.7;

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

/// Measure this session and return the floor-scaling factor against
/// [`REFERENCE_NS`] (see [`session_factor`]).
pub fn measured_session_factor() -> f64 {
    session_factor(fixed_work_ns(3), REFERENCE_NS)
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
}
