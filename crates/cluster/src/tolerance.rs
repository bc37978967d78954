//! Tolerance comparison between an exact-order and a relaxed-order run.
//!
//! The relaxed solver trades bit-exactness for speed: deferred fair-share
//! solves let stale rates ride for up to the engine's deferral cap (1 s
//! of simulated time), so per-flow
//! completion times and probe curves drift within a bounded envelope
//! instead of matching byte-for-byte. This module quantifies that drift
//! and checks it against the published bounds
//! ([`RELAXED_COMPLETION_EPS`], [`RELAXED_ABS_EPS_SECS`],
//! [`RELAXED_CURVE_EPS`]): run the same scenario both ways, match flows
//! by their `(src, dst, wire bytes)` key, and compare completion times
//! and cumulative curves.

use std::collections::BTreeMap;

use pythia_des::SimTime;

use crate::config::{RELAXED_ABS_EPS_SECS, RELAXED_COMPLETION_EPS, RELAXED_CURVE_EPS};
use crate::report::RunReport;

/// Result of comparing a relaxed-order run against its exact reference.
#[derive(Debug, Clone, Default)]
pub struct ToleranceReport {
    /// Flows matched between the two runs.
    pub flows_compared: usize,
    /// Largest absolute completion-time difference, seconds.
    pub max_abs_err_secs: f64,
    /// Largest completion-time difference relative to the exact flow's
    /// end time, over flows whose absolute error exceeds the absolute
    /// slack.
    pub max_rel_err: f64,
    /// Curve points compared (at the relaxed run's own sample instants).
    pub curve_points_compared: usize,
    /// Largest curve divergence as a fraction of the source's exact
    /// total transferred bytes.
    pub max_curve_err_frac: f64,
    /// Human-readable descriptions of every tolerance violation.
    pub violations: Vec<String>,
}

impl ToleranceReport {
    /// Whether every compared quantity stayed within the published bounds.
    pub fn within_bounds(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and the refcheck example.
    pub fn summary(&self) -> String {
        format!(
            "flows={} max_abs_err={:.4}s max_rel_err={:.4} curve_points={} \
             max_curve_err={:.4} violations={}",
            self.flows_compared,
            self.max_abs_err_secs,
            self.max_rel_err,
            self.curve_points_compared,
            self.max_curve_err_frac,
            self.violations.len(),
        )
    }
}

/// Compare a relaxed-order run against its exact-order reference.
///
/// Flows are matched by `(src_node, dst_node, wire_bytes)` — the wire
/// volume of a fetch is a pure function of its (map, reducer, seed), so
/// the key is identical across solver modes, unlike the copier's
/// ephemeral port, which is allocated in fetch-start order and therefore
/// schedule-dependent. Both runs execute the same logical fetches, so
/// the multisets must agree (a mismatch is itself reported as a
/// violation). Completion times must satisfy `|relaxed − exact| ≤
/// RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS · exact`. Measured
/// curves are compared at the relaxed run's own sample instants — where
/// its lazy integration is fresh — normalized by the exact curve's
/// total.
pub fn compare_tolerance(exact: &RunReport, relaxed: &RunReport) -> ToleranceReport {
    compare(exact, relaxed, true)
}

/// Compare a relaxed-order run against its exact-order reference on
/// conservation invariants only: the multiset of logical fetches and the
/// total bytes moved per source must agree, but per-flow completion
/// times and curve shapes are reported without being held to the epsilon
/// bounds.
///
/// This is the right check for hash-routed schedulers (ECMP, Hedera):
/// their path choice hashes the flow 5-tuple, and the copier's ephemeral
/// port is allocated in fetch-start order — so the first completion-order
/// flip the relaxed solver introduces rehashes downstream flows onto
/// different trunks, and the divergence cascades without bound. That is
/// a property of hash routing under schedule perturbation, not solver
/// error; what the solver must still guarantee is that every fetch runs,
/// moves exactly its wire bytes, and the run terminates.
pub fn compare_conservation(exact: &RunReport, relaxed: &RunReport) -> ToleranceReport {
    compare(exact, relaxed, false)
}

/// Shared comparison body. `strict` gates the epsilon assertions:
/// completion-time and curve-envelope violations are only recorded when
/// set, while conservation violations (flow multisets, per-source byte
/// totals) are always recorded. Drift maxima are measured either way so
/// non-strict callers still see how far the run wandered.
fn compare(exact: &RunReport, relaxed: &RunReport, strict: bool) -> ToleranceReport {
    let mut rep = ToleranceReport::default();

    // Group completion times per key; a key can recur (equal-sized
    // fetches between the same endpoints), so compare sorted lists —
    // pairing the k-th fastest with the k-th fastest.
    type Key = (u32, u32, u64);
    let group = |r: &RunReport| -> BTreeMap<Key, Vec<f64>> {
        let mut m: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
        for f in r.flow_trace.records() {
            m.entry((f.src_node, f.dst_node, f.bytes.round() as u64))
                .or_default()
                .push(f.end_secs);
        }
        for v in m.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        m
    };
    let ge = group(exact);
    let gr = group(relaxed);
    if ge.len() != gr.len() || exact.flow_trace.len() != relaxed.flow_trace.len() {
        rep.violations.push(format!(
            "flow sets differ: exact {} flows / {} tuples, relaxed {} flows / {} tuples",
            exact.flow_trace.len(),
            ge.len(),
            relaxed.flow_trace.len(),
            gr.len(),
        ));
    }
    for (key, ends_e) in &ge {
        let Some(ends_r) = gr.get(key) else {
            rep.violations
                .push(format!("tuple {key:?} missing from relaxed run"));
            continue;
        };
        if ends_e.len() != ends_r.len() {
            rep.violations.push(format!(
                "tuple {key:?}: {} exact flows vs {} relaxed",
                ends_e.len(),
                ends_r.len()
            ));
            continue;
        }
        for (&e, &r) in ends_e.iter().zip(ends_r) {
            rep.flows_compared += 1;
            let abs = (r - e).abs();
            rep.max_abs_err_secs = rep.max_abs_err_secs.max(abs);
            if abs > RELAXED_ABS_EPS_SECS {
                let rel = abs / e.max(f64::MIN_POSITIVE);
                rep.max_rel_err = rep.max_rel_err.max(rel);
            }
            if strict && abs > RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS * e {
                rep.violations.push(format!(
                    "flow {key:?}: completion {r:.6}s vs exact {e:.6}s \
                     (err {abs:.6}s > {RELAXED_ABS_EPS_SECS} + {RELAXED_COMPLETION_EPS}·exact)",
                ));
            }
        }
    }

    // Curves: evaluate both step curves at the relaxed run's sample
    // instants and normalize by the exact total for that source. A
    // cumulative counter is a monotone step function whose jumps sit at
    // flow events; relaxed mode is allowed to shift those events within
    // the completion-time envelope, and a jump shifted by even a
    // microsecond would read as the full jump height if curves were
    // compared at exact instants. So each relaxed point is compared
    // against the exact curve's *range* over `t ± δ` (the envelope at
    // `t`): only the distance outside `[value_at(t−δ), value_at(t+δ)]`
    // counts as divergence.
    for (node, ce) in &exact.measured_curves {
        let Some(cr) = relaxed.measured_curves.get(node) else {
            rep.violations
                .push(format!("node {node:?} curve missing from relaxed run"));
            continue;
        };
        let total = ce.total().max(1.0);
        for &(t, v) in cr.points() {
            rep.curve_points_compared += 1;
            let secs = t.as_secs_f64();
            let delta = RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS * secs;
            let lo = ce.value_at(SimTime::from_secs_f64((secs - delta).max(0.0)));
            let hi = ce.value_at(SimTime::from_secs_f64(secs + delta));
            let err = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            let frac = err / total;
            rep.max_curve_err_frac = rep.max_curve_err_frac.max(frac);
            if strict && frac > RELAXED_CURVE_EPS {
                rep.violations.push(format!(
                    "node {node:?} curve at {t}: relaxed {v:.0} outside exact \
                     [{lo:.0}, {hi:.0}] ({frac:.4} of total > {RELAXED_CURVE_EPS})",
                ));
            }
        }
        // Totals must agree almost exactly: lazy integration defers
        // bookkeeping but conserves bytes.
        let dtot = (cr.total() - ce.total()).abs() / total;
        if dtot > 1e-6 {
            rep.violations.push(format!(
                "node {node:?} total bytes differ: relaxed {:.0} vs exact {:.0}",
                cr.total(),
                ce.total()
            ));
        }
    }
    rep
}
