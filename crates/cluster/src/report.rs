//! The outcome of scenario runs, and the one canonical fingerprint that
//! says whether two runs were observably identical.

use std::collections::BTreeMap;
use std::fmt;

use pythia_des::{Fnv1a64, SimDuration, SimTime};
use pythia_hadoop::{JobId, MapTaskId, ReducerId, ReducerTimeline, ServerId, TaskSpan, Timeline};
use pythia_metrics::{DegradationReport, FlowTrace, JobReport, ShuffleFlowRecord, TenantUsage};
use pythia_netsim::{CumulativeCurve, LinkId, NodeId};
use pythia_trace::{SpanHist, TimedEvent, TraceEvent, TraceStats};

/// One job's result inside a (possibly multi-job) run.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's engine-assigned id.
    pub job: JobId,
    /// The job's name from its spec.
    pub name: String,
    /// When the job was submitted (absolute simulated time).
    pub started_at: SimTime,
    /// Its Hadoop-side phase timeline.
    pub timeline: Timeline,
}

impl JobOutcome {
    /// Completion time measured from the job's own start.
    pub fn completion(&self) -> SimDuration {
        self.timeline
            .completion()
            .expect("outcome of unfinished job")
    }
}

/// The outcome of a multi-job scenario run.
#[derive(Debug)]
pub struct MultiRunReport {
    /// Flow scheduler label.
    pub scheduler: String,
    /// Over-subscription ratio (N of 1:N).
    pub oversubscription: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// One outcome per submitted job, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// NetFlow-style per-flow records (all jobs combined).
    pub flow_trace: FlowTrace,
    /// Measured cumulative sourced bytes per server node (NetFlow probe).
    pub measured_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Pythia's predicted cumulative curves (empty for baselines).
    pub predicted_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Spill-index decodes per Hadoop server (overhead model input).
    pub spills_per_server: Vec<u64>,
    /// Events the engine processed.
    pub events_processed: u64,
    /// OpenFlow rules that actually landed in switch TCAMs.
    pub rules_installed: u64,
    /// Reroutes issued by the Hedera baseline (0 otherwise).
    pub hedera_reroutes: u64,
    /// Non-empty per-pod install batches flushed (epoch-batched install
    /// mode; 0 under per-prediction installs).
    pub epoch_batches: u64,
    /// Per-tenant control-plane footprint (rules issued/installed, TCAM
    /// rejections, completion), in job order. Feed to
    /// [`MultiRunReport::fairness`] for the fleet-level summary.
    pub tenant_usage: Vec<pythia_metrics::TenantUsage>,
    /// Control-plane faults absorbed during the run (all-zeros —
    /// [`DegradationReport::is_clean`] — on a fault-free scenario).
    pub degradation: DegradationReport,
    /// Trunk links of the topology (for balance analyses).
    pub trunk_links: Vec<pythia_netsim::LinkId>,
    /// Trunk links grouped by direction (parallel cables between the same
    /// switch pair form one group).
    pub trunk_groups: Vec<Vec<pythia_netsim::LinkId>>,
    /// Flight-recorder events of the run (empty unless
    /// `ScenarioConfig::trace` enabled the recorder).
    pub trace_events: Vec<TimedEvent>,
    /// Flight-recorder registry snapshot (counters, span histograms).
    pub trace_stats: TraceStats,
}

impl MultiRunReport {
    /// Fleet-level fairness summary over the run's tenants (rule-install
    /// shares, Jain indices, TCAM contention). Pass the result through
    /// [`pythia_metrics::FairnessReport::with_isolated`] to add
    /// slowdown-vs-isolated once per-job baselines exist.
    pub fn fairness(&self) -> pythia_metrics::FairnessReport {
        pythia_metrics::FairnessReport::from_tenants(self.tenant_usage.clone())
    }

    /// End of the last job, from t = 0.
    pub fn makespan(&self) -> SimDuration {
        self.jobs
            .iter()
            .map(|j| j.timeline.job_end.expect("unfinished job"))
            .max()
            .expect("no jobs")
            .saturating_since(SimTime::ZERO)
    }

    /// The run's canonical [`Fingerprint`], with the makespan as its
    /// headline time.
    pub fn fingerprint(&self) -> Fingerprint {
        let MultiRunReport {
            scheduler,
            oversubscription,
            seed,
            jobs,
            flow_trace,
            measured_curves,
            predicted_curves,
            spills_per_server,
            events_processed,
            rules_installed,
            hedera_reroutes,
            epoch_batches,
            tenant_usage,
            degradation,
            trunk_links,
            trunk_groups,
            trace_events,
            trace_stats,
        } = self;
        let end = jobs.iter().filter_map(|j| j.timeline.job_end).max();
        let fields: [&dyn Observed; 18] = [
            scheduler,
            oversubscription,
            seed,
            jobs,
            flow_trace,
            &Grid(measured_curves, end),
            &Grid(predicted_curves, end),
            spills_per_server,
            events_processed,
            rules_installed,
            hedera_reroutes,
            epoch_batches,
            tenant_usage,
            degradation,
            trunk_links,
            trunk_groups,
            trace_events,
            trace_stats,
        ];
        Fingerprint {
            t: self.makespan(),
            events: *events_processed,
            rules: *rules_installed,
            flows: flow_trace.len(),
            hash: digest(&fields),
        }
    }

    /// Collapse a single-job run into the classic [`RunReport`].
    ///
    /// # Panics
    /// Panics if the run held more than one job.
    pub fn into_single(mut self) -> RunReport {
        assert_eq!(self.jobs.len(), 1, "into_single on a multi-job run");
        let job = self.jobs.remove(0);
        RunReport {
            workload: job.name,
            scheduler: self.scheduler,
            oversubscription: self.oversubscription,
            seed: self.seed,
            timeline: job.timeline,
            flow_trace: self.flow_trace,
            measured_curves: self.measured_curves,
            predicted_curves: self.predicted_curves,
            spills_per_server: self.spills_per_server,
            events_processed: self.events_processed,
            rules_installed: self.rules_installed,
            hedera_reroutes: self.hedera_reroutes,
            degradation: self.degradation,
            trunk_links: self.trunk_links,
            trunk_groups: self.trunk_groups,
            trace_events: self.trace_events,
            trace_stats: self.trace_stats,
        }
    }
}

/// Everything an experiment might want to know about one single-job run.
#[derive(Debug)]
pub struct RunReport {
    /// Benchmark/job name.
    pub workload: String,
    /// Flow scheduler label.
    pub scheduler: String,
    /// Over-subscription ratio (N of 1:N).
    pub oversubscription: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// The Hadoop-side phase timeline.
    pub timeline: Timeline,
    /// NetFlow-style per-flow records.
    pub flow_trace: FlowTrace,
    /// Measured cumulative sourced bytes per server node (NetFlow probe).
    pub measured_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Pythia's predicted cumulative curves (empty for baselines).
    pub predicted_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Spill-index decodes per Hadoop server (overhead model input).
    pub spills_per_server: Vec<u64>,
    /// Events the engine processed.
    pub events_processed: u64,
    /// OpenFlow rules that actually landed in switch TCAMs.
    pub rules_installed: u64,
    /// Reroutes issued by the Hedera baseline (0 otherwise).
    pub hedera_reroutes: u64,
    /// Control-plane faults absorbed during the run (all-zeros —
    /// [`DegradationReport::is_clean`] — on a fault-free scenario).
    pub degradation: DegradationReport,
    /// Trunk links of the topology (for balance analyses).
    pub trunk_links: Vec<pythia_netsim::LinkId>,
    /// Trunk links grouped by direction (parallel cables between the same
    /// switch pair form one group).
    pub trunk_groups: Vec<Vec<pythia_netsim::LinkId>>,
    /// Flight-recorder events of the run (empty unless
    /// `ScenarioConfig::trace` enabled the recorder).
    pub trace_events: Vec<TimedEvent>,
    /// Flight-recorder registry snapshot (counters, span histograms).
    pub trace_stats: TraceStats,
}

impl RunReport {
    /// Job completion time.
    pub fn completion(&self) -> SimDuration {
        self.timeline
            .completion()
            .expect("run report of unfinished job")
    }

    /// Flattened per-run record for CSV output.
    pub fn job_report(&self) -> JobReport {
        JobReport::from_timeline(
            &self.workload,
            &self.scheduler,
            self.oversubscription,
            self.seed,
            &self.timeline,
        )
    }

    /// Imbalance of shuffle bytes across parallel trunk cables, grouped
    /// by direction (1.0 = perfect balance of every used direction).
    pub fn trunk_imbalance(&self) -> f64 {
        self.flow_trace.trunk_imbalance_grouped(&self.trunk_groups)
    }

    /// The run's canonical [`Fingerprint`], with the job completion as
    /// its headline time.
    pub fn fingerprint(&self) -> Fingerprint {
        let RunReport {
            workload,
            scheduler,
            oversubscription,
            seed,
            timeline,
            flow_trace,
            measured_curves,
            predicted_curves,
            spills_per_server,
            events_processed,
            rules_installed,
            hedera_reroutes,
            degradation,
            trunk_links,
            trunk_groups,
            trace_events,
            trace_stats,
        } = self;
        let end = timeline.job_end;
        let fields: [&dyn Observed; 17] = [
            workload,
            scheduler,
            oversubscription,
            seed,
            timeline,
            flow_trace,
            &Grid(measured_curves, end),
            &Grid(predicted_curves, end),
            spills_per_server,
            events_processed,
            rules_installed,
            hedera_reroutes,
            degradation,
            trunk_links,
            trunk_groups,
            trace_events,
            trace_stats,
        ];
        Fingerprint {
            t: self.completion(),
            events: *events_processed,
            rules: *rules_installed,
            flows: flow_trace.len(),
            hash: digest(&fields),
        }
    }
}

/// Everything observable about a run, collapsed to one comparable value:
/// the headline numbers plus an FNV-1a hash over every report field.
///
/// Two runs with equal fingerprints were observably identical: same
/// timelines, flow records, curves, counters and trace events. Only
/// wall-clock data is left out (span wall times in
/// [`RunReport::trace_stats`] and the `wall_ns` of
/// [`TraceEvent::Span`] events), because it differs run to run. The
/// hash reads what the run observed, not how it is stored: flow records
/// and timelines field by field, curves through
/// [`CumulativeCurve::value_at`] on a 100 ms grid up to the run's end,
/// trace events through their JSONL export
/// ([`pythia_trace::export::to_jsonl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Job completion ([`RunReport`]) or makespan ([`MultiRunReport`]).
    pub t: SimDuration,
    /// Events the engine processed.
    pub events: u64,
    /// OpenFlow rules that landed in switch TCAMs.
    pub rules: u64,
    /// Completed shuffle flows.
    pub flows: usize,
    /// Content hash over the whole report.
    pub hash: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} ev={} rules={} flows={} #{:016x}",
            self.t, self.events, self.rules, self.flows, self.hash
        )
    }
}

/// Sampling step of the curve grid in the fingerprint.
const CURVE_GRID: SimDuration = SimDuration::from_millis(100);

/// FNV-1a over `fields`, in order.
fn digest(fields: &[&dyn Observed]) -> u64 {
    let mut h = Fnv1a64::default();
    for f in fields {
        f.feed(&mut h);
    }
    h.finish()
}

/// How a value enters [`Fingerprint::hash`]: little-endian, field by
/// field, with collections prefixed by their length.
trait Observed {
    fn feed(&self, h: &mut Fnv1a64);
}

impl Observed for u64 {
    fn feed(&self, h: &mut Fnv1a64) {
        h.write(&self.to_le_bytes());
    }
}

impl Observed for str {
    fn feed(&self, h: &mut Fnv1a64) {
        self.len().feed(h);
        h.write(self.as_bytes());
    }
}

impl Observed for String {
    fn feed(&self, h: &mut Fnv1a64) {
        self.as_str().feed(h);
    }
}

impl<T: Observed + ?Sized> Observed for &T {
    fn feed(&self, h: &mut Fnv1a64) {
        (**self).feed(h);
    }
}

impl<T: Observed> Observed for Option<T> {
    fn feed(&self, h: &mut Fnv1a64) {
        h.write(&[u8::from(self.is_some())]);
        if let Some(x) = self {
            x.feed(h);
        }
    }
}

impl<A: Observed, B: Observed> Observed for (A, B) {
    fn feed(&self, h: &mut Fnv1a64) {
        self.0.feed(h);
        self.1.feed(h);
    }
}

impl<T: Observed> Observed for [T] {
    fn feed(&self, h: &mut Fnv1a64) {
        self.len().feed(h);
        for x in self {
            x.feed(h);
        }
    }
}

impl<T: Observed> Observed for Vec<T> {
    fn feed(&self, h: &mut Fnv1a64) {
        self.as_slice().feed(h);
    }
}

impl<K: Observed, V: Observed> Observed for BTreeMap<K, V> {
    fn feed(&self, h: &mut Fnv1a64) {
        self.len().feed(h);
        for kv in self {
            kv.feed(h);
        }
    }
}

impl Observed for FlowTrace {
    fn feed(&self, h: &mut Fnv1a64) {
        self.records().feed(h);
    }
}

/// Scalars and id newtypes, as one `u64` each.
macro_rules! observe_as_u64 {
    ($($ty:ty => |$x:ident| $wide:expr;)*) => {$(
        impl Observed for $ty {
            fn feed(&self, h: &mut Fnv1a64) {
                let $x = *self;
                ($wide as u64).feed(h);
            }
        }
    )*};
}

observe_as_u64! {
    u32 => |x| x;
    u16 => |x| x;
    usize => |x| x;
    f64 => |x| x.to_bits();
    SimTime => |x| x.as_nanos();
    JobId => |x| x.0;
    MapTaskId => |x| x.0;
    ReducerId => |x| x.0;
    ServerId => |x| x.0;
    NodeId => |x| x.0;
    LinkId => |x| x.0;
}

/// Plain-data structs, every field in declaration order. The destructure
/// has no `..`, so a new field does not compile until it is listed here.
macro_rules! observe_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Observed for $ty {
            fn feed(&self, h: &mut Fnv1a64) {
                let $ty { $($field),* } = self;
                $($field.feed(h);)*
            }
        }
    )*};
}

observe_fields! {
    JobOutcome { job, name, started_at, timeline }
    Timeline { job_start, job_end, maps, reducers, first_fetch_at, last_fetch_end }
    TaskSpan { start, end }
    ReducerTimeline {
        server, launched_at, shuffle_end, sort_end, finished_at, local_bytes, remote_bytes
    }
    ShuffleFlowRecord {
        src_node, dst_node, src_port, dst_port, bytes, start_secs, end_secs, trunk_link
    }
    TenantUsage {
        job, name, completion_secs, slowdown, rules_issued, rules_installed, tcam_rejected
    }
    DegradationReport {
        predictions_sent, predictions_delivered, prediction_transmissions_lost,
        predictions_lost, predictions_deduped, predictions_retracted, predictions_malformed,
        parked_expired, rules_failed, rules_timed_out, rules_tcam_rejected, controller_outages,
        controller_down_secs, demands_deferred, rules_reinstalled, demands_no_path,
        flows_unroutable, background_flows_skipped
    }
    TraceStats { events_recorded, events_dropped, events_filtered, counters, spans }
}

/// Curves and the run's end. They enter as the run observed them:
/// `value_at` on the [`CURVE_GRID`] from 0 up to the run's end, or up to
/// a curve's last sample if that comes later.
struct Grid<'a>(&'a BTreeMap<NodeId, CumulativeCurve>, Option<SimTime>);

impl Observed for Grid<'_> {
    fn feed(&self, h: &mut Fnv1a64) {
        self.0.len().feed(h);
        for (node, curve) in self.0 {
            node.feed(h);
            let last = curve.points().last().map(|&(t, _)| t);
            let end = self.1.max(last).unwrap_or(SimTime::ZERO);
            let mut t = SimTime::ZERO;
            while t <= end {
                curve.value_at(t).feed(h);
                t += CURVE_GRID;
            }
        }
    }
}

/// Trace events enter as their JSONL export line. A `Span` event's
/// `wall_ns` is wall-clock, so it enters as zero.
impl Observed for TimedEvent {
    fn feed(&self, h: &mut Fnv1a64) {
        let line = match self.event {
            TraceEvent::Span { name, wall_ns: _ } => {
                pythia_trace::export::to_jsonl(&[TimedEvent {
                    t: self.t,
                    seq: self.seq,
                    event: TraceEvent::Span { name, wall_ns: 0 },
                }])
            }
            _ => pythia_trace::export::to_jsonl(std::slice::from_ref(self)),
        };
        h.write(line.as_bytes());
    }
}

/// A span histogram holds wall-clock times: only its count enters.
impl Observed for SpanHist {
    fn feed(&self, h: &mut Fnv1a64) {
        let SpanHist {
            count,
            total_wall_ns: _,
            max_wall_ns: _,
            buckets: _,
        } = self;
        count.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::FlowId;

    /// A small hand-built two-job report that ends at 90 s, so its
    /// curves are sampled well past the old fixed 60 s grid.
    fn sample() -> MultiRunReport {
        let secs = SimTime::from_secs;
        let mut timeline = Timeline {
            job_start: SimTime::ZERO,
            job_end: Some(secs(90)),
            first_fetch_at: Some(secs(5)),
            last_fetch_end: Some(secs(80)),
            ..Timeline::default()
        };
        timeline.maps.insert(
            MapTaskId(0),
            (
                ServerId(1),
                TaskSpan {
                    start: secs(0),
                    end: secs(4),
                },
            ),
        );
        timeline.reducers.insert(
            ReducerId(0),
            ReducerTimeline {
                server: ServerId(2),
                launched_at: secs(1),
                shuffle_end: Some(secs(80)),
                sort_end: Some(secs(85)),
                finished_at: Some(secs(90)),
                local_bytes: 10,
                remote_bytes: 20,
            },
        );
        let mut flow_trace = FlowTrace::default();
        for i in 0..2u32 {
            flow_trace.push(ShuffleFlowRecord {
                src_node: i,
                dst_node: 2,
                src_port: 40_000 + i as u16,
                dst_port: 50060,
                bytes: 1e6,
                start_secs: 5.0,
                end_secs: 70.0 + f64::from(i),
                trunk_link: Some(7),
            });
        }
        let mut curve = CumulativeCurve::default();
        curve.push(secs(5), 1e6);
        curve.push(secs(70), 2e6);
        let mut hist = SpanHist::default();
        hist.observe(1_500);
        let job = |i: u32| JobOutcome {
            job: JobId(i),
            name: format!("job{i}"),
            started_at: SimTime::ZERO,
            timeline: timeline.clone(),
        };
        MultiRunReport {
            scheduler: "pythia".into(),
            oversubscription: 10,
            seed: 1,
            jobs: vec![job(0), job(1)],
            flow_trace,
            measured_curves: BTreeMap::from([(NodeId(0), curve.clone())]),
            predicted_curves: BTreeMap::from([(NodeId(0), curve)]),
            spills_per_server: vec![1, 2, 3],
            events_processed: 100,
            rules_installed: 4,
            hedera_reroutes: 0,
            epoch_batches: 2,
            tenant_usage: vec![TenantUsage {
                job: 0,
                name: "job0".into(),
                completion_secs: 90.0,
                slowdown: None,
                rules_issued: 5,
                rules_installed: 4,
                tcam_rejected: 1,
            }],
            degradation: DegradationReport::default(),
            trunk_links: vec![LinkId(7), LinkId(8)],
            trunk_groups: vec![vec![LinkId(7)], vec![LinkId(8)]],
            trace_events: vec![
                TimedEvent {
                    t: secs(5),
                    seq: 0,
                    event: TraceEvent::FlowStart {
                        flow: FlowId(1),
                        src: NodeId(0),
                        dst: NodeId(2),
                        bytes: 1_000_000,
                    },
                },
                TimedEvent {
                    t: secs(6),
                    seq: 1,
                    event: TraceEvent::Span {
                        name: "path_compute",
                        wall_ns: 1_500,
                    },
                },
            ],
            trace_stats: TraceStats {
                events_recorded: 2,
                counters: vec![("rules".into(), 4)],
                spans: vec![("path_compute".into(), hist)],
                ..TraceStats::default()
            },
        }
    }

    type Mutation = fn(&mut MultiRunReport);

    fn with(mutate: impl FnOnce(&mut MultiRunReport)) -> Fingerprint {
        let mut r = sample();
        mutate(&mut r);
        r.fingerprint()
    }

    /// Rewrite the trace with its last record edited.
    fn edit_last_flow(trace: &mut FlowTrace, edit: impl FnOnce(&mut ShuffleFlowRecord)) {
        let mut records = trace.records().to_vec();
        edit(records.last_mut().expect("sample has flows"));
        *trace = FlowTrace::default();
        for f in records {
            trace.push(f);
        }
    }

    #[test]
    fn fingerprint_displays_headline_and_hash() {
        let fp = sample().fingerprint();
        assert_eq!(fp, sample().fingerprint());
        let shown = fp.to_string();
        assert!(
            shown.starts_with("t=90.000000s ev=100 rules=4 flows=2 #"),
            "{shown}"
        );
        assert_eq!(
            shown.len(),
            "t=90.000000s ev=100 rules=4 flows=2 #".len() + 16
        );
    }

    #[test]
    fn every_observed_field_moves_the_fingerprint() {
        let base = sample().fingerprint();
        let cases: [(&str, Mutation); 12] = [
            ("flow bytes", |r| {
                edit_last_flow(&mut r.flow_trace, |f| f.bytes += 1.0)
            }),
            ("flow end", |r| {
                edit_last_flow(&mut r.flow_trace, |f| f.end_secs += 1e-6)
            }),
            ("curve point after 60 s", |r| {
                let mut c = CumulativeCurve::default();
                c.push(SimTime::from_secs(5), 1e6);
                c.push(SimTime::from_secs(75), 2e6);
                r.predicted_curves.insert(NodeId(0), c);
            }),
            ("timeline span", |r| {
                let span = &mut r.jobs[1].timeline.maps.get_mut(&MapTaskId(0)).unwrap().1;
                span.end = SimTime::from_millis(4_001);
            }),
            ("spills_per_server", |r| r.spills_per_server[2] += 1),
            ("epoch_batches", |r| r.epoch_batches += 1),
            ("tenant_usage", |r| r.tenant_usage[0].tcam_rejected += 1),
            ("degradation counter", |r| {
                r.degradation.rules_reinstalled += 1
            }),
            ("trunk group", |r| r.trunk_groups[1].push(LinkId(9))),
            ("trace event", |r| {
                r.trace_events[0].t = SimTime::from_millis(5_001)
            }),
            ("trace counter", |r| r.trace_stats.counters[0].1 += 1),
            ("span count", |r| r.trace_stats.spans[0].1.count += 1),
        ];
        for (what, mutate) in cases {
            assert_ne!(with(mutate), base, "{what} did not move the fingerprint");
        }
    }

    #[test]
    fn wall_clock_data_leaves_the_fingerprint_alone() {
        let base = sample().fingerprint();
        let slower = with(|r| {
            let mut hist = SpanHist::default();
            hist.observe(9_000_000);
            r.trace_stats.spans[0].1 = hist;
            let TraceEvent::Span { wall_ns, .. } = &mut r.trace_events[1].event else {
                unreachable!("sample's second event is a span");
            };
            *wall_ns = 9_000_000;
        });
        assert_eq!(slower, base);
    }

    #[test]
    fn single_run_fingerprint_covers_the_collapsed_report() {
        let single = |mutate: fn(&mut RunReport)| {
            let mut r = sample();
            r.jobs.truncate(1);
            let mut r = r.into_single();
            mutate(&mut r);
            r.fingerprint()
        };
        let base = single(|_| {});
        assert_eq!(base.t, SimDuration::from_secs(90));
        assert_ne!(single(|r| r.workload.push('x')), base);
        assert_ne!(single(|r| r.hedera_reroutes += 1), base);
        assert_ne!(
            single(|r| edit_last_flow(&mut r.flow_trace, |f| f.end_secs += 1e-6)),
            base
        );
    }
}
