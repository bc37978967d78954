//! Engine runs: timed `sort60` passes through `run_scenario`, and the
//! tapped runs that produce each workload's control stream, with the
//! report reduced to what the benchmark reports and checks.

use std::time::Instant;

use pythia_cluster::{
    run_multi_scenario_tapped, run_scenario, run_scenario_tapped, ControlMsg, MultiRunReport,
    RunReport, ScenarioConfig,
};
use pythia_des::SimTime;
use pythia_metrics::LeadTimeReport;
use pythia_netsim::CumulativeCurve;
use pythia_trace::TraceStats;

use crate::spec::{Kind, Workload};

/// A control stream as the engine dispatched it.
pub type Stream = Vec<(SimTime, ControlMsg)>;

/// What one engine pass produced.
pub struct Outcome {
    pub jobs: usize,
    pub completed: usize,
    /// Completion times of the finished jobs, ascending, simulated seconds.
    pub jct_s: Vec<f64>,
    /// End of the last job, simulated seconds from t = 0.
    pub makespan_s: f64,
    pub events: u64,
    pub rules_installed: u64,
    pub tcam_rejected: u64,
    pub demands_deferred: u64,
    pub demands_no_path: u64,
    pub epoch_batches: u64,
    pub trace: TraceStats,
    /// Fig-5 minimum volume lead over server pairs (needs component
    /// events; `None` when none were recorded).
    pub lead_min_s: Option<f64>,
    /// Fig-5 volume over-estimate: predicted over measured shuffle bytes.
    pub overestimate_pct: Option<f64>,
}

impl Outcome {
    /// The simulated results two passes of one seed must agree on.
    pub fn fingerprint(&self) -> (usize, u64, u64, u64) {
        (
            self.completed,
            self.makespan_s.to_bits(),
            self.events,
            self.rules_installed,
        )
    }
}

/// Run `sort60`'s job once; returns host seconds and the outcome. The
/// reduction of the report happens after the clock stops.
pub fn pass(w: &Workload, cfg: &ScenarioConfig) -> (f64, Outcome) {
    let job = w.sort_job();
    let t0 = Instant::now();
    let r = run_scenario(job, cfg);
    let wall = t0.elapsed().as_secs_f64();
    (wall, from_single(r))
}

/// Run the job set once while recording every control message the
/// engine dispatched (input generation for the daemon phase).
pub fn tapped(w: &Workload, cfg: &ScenarioConfig) -> (Outcome, Stream) {
    if w.kind == Kind::Sort60 {
        let (r, stream) = run_scenario_tapped(w.sort_job(), cfg);
        (from_single(r), stream)
    } else {
        let (r, stream) = run_multi_scenario_tapped(w.fleet_jobs(), cfg);
        (from_multi(r), stream)
    }
}

fn from_single(mut r: RunReport) -> Outcome {
    let events = std::mem::take(&mut r.trace_events);
    let done = r
        .timeline
        .job_end
        .map(|t| t.saturating_since(SimTime::ZERO));
    Outcome {
        jobs: 1,
        completed: usize::from(done.is_some()),
        jct_s: r
            .timeline
            .completion()
            .map(|c| c.as_secs_f64())
            .into_iter()
            .collect(),
        makespan_s: done.map_or(0.0, |d| d.as_secs_f64()),
        events: r.events_processed,
        rules_installed: r.rules_installed,
        tcam_rejected: r.degradation.rules_tcam_rejected,
        demands_deferred: r.degradation.demands_deferred,
        demands_no_path: r.degradation.demands_no_path,
        epoch_batches: 0,
        lead_min_s: lead_min_s(&events),
        overestimate_pct: (!events.is_empty())
            .then(|| overestimate_pct(&r.predicted_curves, &r.measured_curves)),
        trace: r.trace_stats,
    }
}

fn from_multi(mut r: MultiRunReport) -> Outcome {
    let events = std::mem::take(&mut r.trace_events);
    let mut jct_s: Vec<f64> = r
        .jobs
        .iter()
        .filter_map(|j| j.timeline.completion())
        .map(|c| c.as_secs_f64())
        .collect();
    jct_s.sort_by(f64::total_cmp);
    let makespan = r
        .jobs
        .iter()
        .filter_map(|j| j.timeline.job_end)
        .max()
        .map_or(0.0, |t| t.saturating_since(SimTime::ZERO).as_secs_f64());
    Outcome {
        jobs: r.jobs.len(),
        completed: jct_s.len(),
        jct_s,
        makespan_s: makespan,
        events: r.events_processed,
        rules_installed: r.rules_installed,
        tcam_rejected: r.degradation.rules_tcam_rejected,
        demands_deferred: r.degradation.demands_deferred,
        demands_no_path: r.degradation.demands_no_path,
        epoch_batches: r.epoch_batches,
        lead_min_s: lead_min_s(&events),
        overestimate_pct: (!events.is_empty())
            .then(|| overestimate_pct(&r.predicted_curves, &r.measured_curves)),
        trace: r.trace_stats,
    }
}

fn lead_min_s(events: &[pythia_trace::TimedEvent]) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    LeadTimeReport::from_events(events)
        .min_lead()
        .map(|d| d.as_secs_f64())
}

fn overestimate_pct<K>(
    predicted: &std::collections::BTreeMap<K, CumulativeCurve>,
    measured: &std::collections::BTreeMap<K, CumulativeCurve>,
) -> f64 {
    let p: f64 = predicted.values().map(CumulativeCurve::total).sum();
    let m: f64 = measured.values().map(CumulativeCurve::total).sum();
    (p / m - 1.0) * 100.0
}
