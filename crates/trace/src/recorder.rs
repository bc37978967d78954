//! The flight recorder itself: config, handle, ring buffer, spans.
//!
//! [`Trace`] is a cheaply-clonable handle that is either **off**
//! (`None` inside — every call is a single branch and event
//! construction closures never run) or **on** (a shared ring buffer of
//! [`TimedEvent`]s plus a counter/histogram registry). Components hold a
//! clone of the handle; the engine stamps the current sim-time once per
//! event-loop iteration via [`Trace::set_now`], so recording sites do
//! not need a `now` parameter threaded through.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use pythia_des::SimTime;

use crate::event::{Component, TimedEvent, TraceEvent, COMPONENTS};

/// Filter mask accepting every component.
pub const ALL_COMPONENTS: u16 = {
    let mut m = 0u16;
    let mut i = 0;
    while i < COMPONENTS.len() {
        m |= 1 << i;
        i += 1;
    }
    m
};

/// Default ring-buffer capacity (events) when tracing is enabled.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Plain-data recorder configuration.
///
/// Lives in `ScenarioConfig` (which crosses threads), so it carries no
/// interior state — the engine turns it into a live [`Trace`] per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off (the default) costs one branch per site.
    pub enabled: bool,
    /// Ring-buffer bound: the recorder keeps at most this many events,
    /// dropping the **oldest** beyond it (bounded-memory mode for
    /// 1024-server runs). Dropped events are counted in
    /// [`TraceStats::events_dropped`].
    pub capacity: usize,
    /// Bit mask of accepted [`Component`]s (see [`Component::bit`]).
    pub components: u16,
    /// Also append wall-clock [`TraceEvent::Span`] events to the event
    /// stream. Off by default: span durations are wall-clock and thus
    /// non-deterministic, so they live only in the histogram registry
    /// unless explicitly requested.
    pub record_spans: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

impl TraceConfig {
    /// Tracing off — the zero-cost default.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            components: ALL_COMPONENTS,
            record_spans: false,
        }
    }

    /// Tracing on for all components with the default buffer bound.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::disabled()
        }
    }

    /// Same, with an explicit ring-buffer bound (bounded-memory mode).
    pub fn bounded(capacity: usize) -> Self {
        TraceConfig {
            capacity: capacity.max(1),
            ..TraceConfig::enabled()
        }
    }

    /// Restrict to the given components only.
    pub fn with_components(mut self, components: &[Component]) -> Self {
        self.components = components.iter().fold(0, |m, c| m | c.bit());
        self
    }

    /// Enable in-stream [`TraceEvent::Span`] events.
    pub fn with_spans(mut self) -> Self {
        self.record_spans = true;
        self
    }
}

/// Log₂-bucketed wall-clock histogram: one per span label, and the
/// daemon's ingest→install latency.
///
/// 40 buckets cover 1 ns to ~18 minutes with constant memory and O(1)
/// record. Quantiles are read from the bucket bounds, so a reported p99
/// is an upper bound accurate to a factor of two; the maximum is kept
/// exactly so no quantile reports past the worst observed sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanHist {
    /// Completed spans.
    pub count: u64,
    /// Total wall nanoseconds across all spans.
    pub total_wall_ns: u64,
    /// Slowest single span, wall nanoseconds.
    pub max_wall_ns: u64,
    /// `buckets[i]` counts spans with `wall_ns` in `[2^i, 2^(i+1))`
    /// (bucket 0 also holds 0 ns).
    pub buckets: [u64; 40],
}

// `[u64; 40]` has no `Default` impl (arrays beyond 32 elements), so the
// derive cannot be used here.
impl Default for SpanHist {
    fn default() -> Self {
        SpanHist {
            count: 0,
            total_wall_ns: 0,
            max_wall_ns: 0,
            buckets: [0; 40],
        }
    }
}

impl SpanHist {
    /// Record one sample of `wall_ns` nanoseconds.
    pub fn observe(&mut self, wall_ns: u64) {
        self.count += 1;
        self.total_wall_ns += wall_ns;
        self.max_wall_ns = self.max_wall_ns.max(wall_ns);
        let b = (64 - wall_ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b.min(39)] += 1;
    }

    /// Mean wall nanoseconds per span (0 when empty).
    pub fn mean_wall_ns(&self) -> u64 {
        (self.total_wall_ns + self.count / 2)
            .checked_div(self.count)
            .unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of its bucket,
    /// clamped to the exact maximum; the top bucket's bound is the
    /// maximum itself. Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // The top bucket is open-ended: its bound is the max.
                let upper = if b + 1 < self.buckets.len() {
                    (1u64 << (b + 1)) - 1
                } else {
                    u64::MAX
                };
                return Duration::from_nanos(upper.min(self.max_wall_ns));
            }
        }
        Duration::from_nanos(self.max_wall_ns)
    }

    /// Median upper bound.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// Tail upper bound.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// Snapshot of the recorder's registries, cheap to clone into reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Events accepted into the ring buffer (including later-dropped).
    pub events_recorded: u64,
    /// Events evicted by the ring bound (oldest-first).
    pub events_dropped: u64,
    /// Events rejected by the component filter.
    pub events_filtered: u64,
    /// Named monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Span histograms keyed by span label, sorted by name.
    pub spans: Vec<(String, SpanHist)>,
}

impl TraceStats {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a span histogram by label.
    pub fn span(&self, name: &str) -> Option<&SpanHist> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

struct Inner {
    now: SimTime,
    seq: u64,
    mask: u16,
    capacity: usize,
    record_spans: bool,
    buf: VecDeque<TimedEvent>,
    recorded: u64,
    dropped: u64,
    filtered: u64,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, SpanHist>,
}

impl Inner {
    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.recorded += 1;
        let te = TimedEvent {
            t: self.now,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.buf.push_back(te);
    }
}

/// A handle to the flight recorder — `None` inside when disabled.
///
/// Clones share the same buffer; the engine owns the original and hands
/// clones to the controller, the Pythia scheduler, etc. Single-threaded
/// by design (one recorder per simulation run), hence `Rc`.
#[derive(Clone, Default)]
pub struct Trace(Option<Rc<RefCell<Inner>>>);

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Trace(disabled)"),
            Some(rc) => {
                let i = rc.borrow();
                write!(f, "Trace(events={}, dropped={})", i.buf.len(), i.dropped)
            }
        }
    }
}

impl Trace {
    /// Build a recorder from plain config (disabled config → no-op handle).
    pub fn new(cfg: &TraceConfig) -> Trace {
        if !cfg.enabled {
            return Trace(None);
        }
        Trace(Some(Rc::new(RefCell::new(Inner {
            now: SimTime::ZERO,
            seq: 0,
            mask: cfg.components,
            capacity: cfg.capacity.max(1),
            record_spans: cfg.record_spans,
            buf: VecDeque::new(),
            recorded: 0,
            dropped: 0,
            filtered: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }))))
    }

    /// The always-off handle.
    pub fn off() -> Trace {
        Trace(None)
    }

    /// Whether the recorder is live at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether events from `component` would be kept — lets call sites
    /// skip expensive argument gathering the closure can't defer.
    pub fn wants(&self, component: Component) -> bool {
        match &self.0 {
            None => false,
            Some(rc) => rc.borrow().mask & component.bit() != 0,
        }
    }

    /// Stamp the current simulation time; the engine calls this once
    /// per event-loop iteration before dispatching.
    pub fn set_now(&self, now: SimTime) {
        if let Some(rc) = &self.0 {
            rc.borrow_mut().now = now;
        }
    }

    /// Record one event. `make` runs only when the recorder is on and
    /// the component passes the filter, so argument construction is
    /// free on the disabled path.
    pub fn record<F: FnOnce() -> TraceEvent>(&self, component: Component, make: F) {
        if let Some(rc) = &self.0 {
            let mut inner = rc.borrow_mut();
            if inner.mask & component.bit() != 0 {
                let ev = make();
                debug_assert_eq!(ev.component(), component);
                inner.push(ev);
            } else {
                inner.filtered += 1;
            }
        }
    }

    /// Bump a named counter in the registry.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(rc) = &self.0 {
            *rc.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Start timing a control-plane operation. Dropping the guard
    /// observes the wall-clock duration into the histogram registry
    /// (and, with [`TraceConfig::record_spans`], the event stream).
    #[must_use = "the span measures until the guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.0 {
            None => SpanGuard(None),
            Some(rc) => SpanGuard(Some((Rc::clone(rc), name, Instant::now()))),
        }
    }

    /// Drain the event buffer (oldest first).
    pub fn take_events(&self) -> Vec<TimedEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(rc) => rc.borrow_mut().buf.drain(..).collect(),
        }
    }

    /// Snapshot the registries without draining events.
    pub fn stats(&self) -> TraceStats {
        match &self.0 {
            None => TraceStats::default(),
            Some(rc) => {
                let i = rc.borrow();
                TraceStats {
                    events_recorded: i.recorded,
                    events_dropped: i.dropped,
                    events_filtered: i.filtered,
                    counters: i
                        .counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    spans: i
                        .hists
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.clone()))
                        .collect(),
                }
            }
        }
    }
}

/// RAII timer returned by [`Trace::span`].
pub struct SpanGuard(Option<(Rc<RefCell<Inner>>, &'static str, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rc, name, start)) = self.0.take() {
            let wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let mut inner = rc.borrow_mut();
            inner.hists.entry(name).or_default().observe(wall_ns);
            if inner.record_spans && inner.mask & Component::Engine.bit() != 0 {
                inner.push(TraceEvent::Span { name, wall_ns });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::LinkId;

    fn link_event(id: u32, up: bool) -> TraceEvent {
        TraceEvent::LinkState {
            link: LinkId(id),
            up,
        }
    }

    #[test]
    fn disabled_records_nothing_and_never_runs_closures() {
        let t = Trace::off();
        let mut ran = false;
        t.record(Component::Engine, || {
            ran = true;
            link_event(0, true)
        });
        assert!(!ran);
        assert!(t.take_events().is_empty());
        assert_eq!(t.stats(), TraceStats::default());
        assert!(!t.is_enabled());
        assert!(!t.wants(Component::Engine));
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let t = Trace::new(&TraceConfig::bounded(3));
        for i in 0..5u32 {
            t.set_now(SimTime::from_nanos(u64::from(i)));
            t.record(Component::Engine, || link_event(i, false));
        }
        let evs = t.take_events();
        assert_eq!(evs.len(), 3);
        // Oldest two were evicted: seq 2..=4 survive.
        assert_eq!(evs[0].seq, 2);
        assert_eq!(evs[2].seq, 4);
        assert_eq!(evs[2].t, SimTime::from_nanos(4));
        let st = t.stats();
        assert_eq!(st.events_recorded, 5);
        assert_eq!(st.events_dropped, 2);
    }

    #[test]
    fn component_filter_rejects_and_counts() {
        let t = Trace::new(&TraceConfig::enabled().with_components(&[Component::NetSim]));
        assert!(t.wants(Component::NetSim));
        assert!(!t.wants(Component::Engine));
        t.record(Component::Engine, || link_event(0, true));
        t.record(Component::NetSim, || TraceEvent::FlowFinish {
            flow: pythia_netsim::FlowId(1),
            src: pythia_netsim::NodeId(0),
            dst: pythia_netsim::NodeId(1),
        });
        assert_eq!(t.take_events().len(), 1);
        assert_eq!(t.stats().events_filtered, 1);
    }

    #[test]
    fn counters_and_spans_register() {
        let t = Trace::new(&TraceConfig::enabled());
        t.count("demo", 2);
        t.count("demo", 3);
        {
            let _g = t.span("op");
        }
        let st = t.stats();
        assert_eq!(st.counter("demo"), 5);
        let h = st.span("op").expect("span histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        // Spans stay out of the event stream by default.
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn record_spans_appends_span_events() {
        let t = Trace::new(&TraceConfig::enabled().with_spans());
        {
            let _g = t.span("op");
        }
        let evs = t.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].event, TraceEvent::Span { name: "op", .. }));
    }

    #[test]
    fn empty_hist_quantiles_are_zero() {
        let h = SpanHist::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = SpanHist::default();
        for ns in [100u64, 200, 300, 400, 1_000_000] {
            h.observe(ns);
        }
        assert_eq!(h.count, 5);
        // p50 falls in the 256..512 bucket; the bound must cover 300 ns
        // but stay within 2x of it.
        let p50 = h.p50().as_nanos() as u64;
        assert!((300..=511).contains(&p50), "p50 bound {p50}");
        // p99 lands in the outlier's bucket, clamped to the exact max.
        assert_eq!(h.p99(), Duration::from_nanos(1_000_000));
        assert_eq!(h.max_wall_ns, 1_000_000);
    }

    #[test]
    fn zero_samples_report_zero() {
        let mut h = SpanHist::default();
        h.observe(0);
        h.observe(0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
    }

    /// From 1 ns to 2^39 ns a quantile is `2^(⌊log₂ ns⌋ + 1) − 1`, the
    /// upper bound of the sample's power-of-two bucket, clamped to the
    /// maximum — including in the top bucket, whose bound is the max.
    #[test]
    fn quantile_is_the_bucket_bound_clamped_to_max() {
        let top = 1u64 << 39;
        for k in 0..=39u32 {
            for ns in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                if ns == 0 || ns > top {
                    continue;
                }
                let mut h = SpanHist::default();
                h.observe(ns);
                h.observe(top);
                let bound = ((1u64 << (ns.ilog2() + 1)) - 1).min(top);
                assert_eq!(h.p50(), Duration::from_nanos(bound), "ns={ns}");
                assert_eq!(h.p99(), Duration::from_nanos(top), "ns={ns}");
            }
        }
    }

    #[test]
    fn span_hist_mean_rounds_to_nearest() {
        let mut h = SpanHist::default();
        h.observe(1);
        h.observe(2);
        assert_eq!(h.mean_wall_ns(), 2); // 3/2 rounds up, not truncates
    }
}
