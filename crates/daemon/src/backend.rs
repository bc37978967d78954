//! Where the daemon's rule installs go: the [`InstallBackend`] trait and
//! its two stock implementations.
//!
//! The daemon core is backend-agnostic — it dispatches control messages
//! through [`pythia_cluster::ServiceCore`] and hands every provoked
//! [`PendingRule`] batch to an `InstallBackend`. The two shipped sinks:
//!
//! * [`SimDataplaneBackend`] programs the same simulated switch TCAMs
//!   the batch engine uses, honoring per-rule programming latency in
//!   `(due, issue-order)` priority order — the exact order the engine's
//!   event queue applies them. This is the backend the daemon-vs-batch
//!   equivalence test runs against.
//! * [`RecordingBackend`] writes every install into an append-only log
//!   and synthesizes trace events from it, feeding a queryable
//!   [`InstallArchive`](crate::archive::InstallArchive) that answers the
//!   paper's Figure 5 question — how much lead time did prediction buy —
//!   live, per server pair.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pythia_cluster::ControlMsg;
use pythia_cluster::ScenarioConfig;
use pythia_des::SimTime;
use pythia_netsim::{FlowId, NodeId, Protocol};
use pythia_openflow::{Dataplane, FlowRule, PendingRule};
use pythia_snapshot::crc32;
use pythia_trace::{TimedEvent, TraceEvent};

use crate::archive::InstallArchive;

/// A sink for the daemon's rule installs.
///
/// `install` receives every rule batch a dispatched message provoked,
/// stamped with the ingest time and owning tenant; `observe` sees every
/// message (rule-provoking or not) after dispatch, for sinks that index
/// completions or telemetry; `finish` flushes anything still in flight
/// when the stream ends.
pub trait InstallBackend {
    /// Accept a batch of rules issued at `now` on behalf of `tenant`.
    /// Each rule carries its own hardware programming delay.
    fn install(&mut self, now: SimTime, tenant: u32, rules: &[PendingRule]);

    /// See a control message after it was dispatched (default: ignore).
    fn observe(&mut self, _now: SimTime, _msg: &ControlMsg) {}

    /// The stream ended at `now`: flush in-flight installs.
    fn finish(&mut self, now: SimTime);

    /// Stable backend name for reports.
    fn name(&self) -> &'static str;
}

/// What one queued install programs, and for whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedRule {
    tenant: u32,
    switch: NodeId,
    rule: FlowRule,
}

/// Installs waiting out their hardware programming latency, popped in
/// `(due, issue-order)` order: ties on the due instant apply in issue
/// order, matching the engine's FIFO-on-equal-time event queue.
///
/// The heap holds only the 16-byte `(due, seq)` keys; what each install
/// programs waits in an issue-order ring, slot `seq - head`. A slot is
/// emptied when its install applies, and empty slots leave the front of
/// the ring as soon as they reach it.
#[derive(Debug, Default)]
struct InstallQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    ring: VecDeque<Option<QueuedRule>>,
    /// Issue sequence number of `ring[0]`.
    head: u64,
}

impl InstallQueue {
    fn push(&mut self, due: SimTime, q: QueuedRule) {
        let seq = self.head + self.ring.len() as u64;
        self.ring.push_back(Some(q));
        self.heap.push(Reverse((due, seq)));
    }

    /// The earliest `(due, issue-order)` install due by `horizon`.
    fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, QueuedRule)> {
        let &Reverse((due, seq)) = self.heap.peek().filter(|r| r.0 .0 <= horizon)?;
        self.heap.pop();
        let q = self.ring[(seq - self.head) as usize]
            .take()
            .expect("every queued seq holds its install until it applies");
        while self.ring.front().is_some_and(Option::is_none) {
            self.ring.pop_front();
            self.head += 1;
        }
        Some((due, q))
    }

    /// Drop every waiting install; issue order continues past them.
    fn clear(&mut self) {
        self.head += self.ring.len() as u64;
        self.ring.clear();
        self.heap.clear();
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Bytes in one [`install_record`].
const INSTALL_RECORD_LEN: usize = 4 + 8 + 4 + 4 + (8 + 8 + 4 + 4 + 1) + 2 + 4 + 1;

/// One applied install as a fixed little-endian record, for the chained
/// install digest: the previous digest, `due` in nanoseconds, tenant,
/// switch, the five match fields, priority, out link and outcome (1 =
/// installed, 0 = TCAM full). Each match field is widened past its value
/// range so a wildcard has a sentinel (all ones) no pinned value can
/// take. The record is hashed on the stack — no allocation per install
/// on the apply path — and it holds the observed values themselves, not
/// their `Debug` rendering, so the digest moves only when what was
/// programmed does.
fn install_record(prev: u32, due: SimTime, q: &QueuedRule, ok: bool) -> [u8; INSTALL_RECORD_LEN] {
    let m = &q.rule.matcher;
    let mut buf = [0u8; INSTALL_RECORD_LEN];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        buf[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&prev.to_le_bytes());
    put(&due.as_nanos().to_le_bytes());
    put(&q.tenant.to_le_bytes());
    put(&q.switch.0.to_le_bytes());
    put(&m.src.map_or(u64::MAX, |n| n.0 as u64).to_le_bytes());
    put(&m.dst.map_or(u64::MAX, |n| n.0 as u64).to_le_bytes());
    put(&m.src_port.map_or(u32::MAX, u32::from).to_le_bytes());
    put(&m.dst_port.map_or(u32::MAX, u32::from).to_le_bytes());
    put(&[m.proto.map_or(u8::MAX, |p| match p {
        Protocol::Tcp => 0,
        Protocol::Udp => 1,
    })]);
    put(&q.rule.priority.to_le_bytes());
    put(&q.rule.out_link.0.to_le_bytes());
    put(&[ok as u8]);
    debug_assert_eq!(at, INSTALL_RECORD_LEN);
    buf
}

/// Installs rules into the simulator's switch TCAMs — the dataplane half
/// of the batch engine, driven live.
///
/// Reproduces the engine's install semantics on fault-free streams:
/// per-rule programming delay, `(due, issue-order)` application order,
/// TCAM-full rejection as graceful degradation, and in-flight installs
/// dying with a controller crash. What it deliberately does *not* model
/// is the fabric side (no flow rerouting, no `remove_rules_via` on link
/// failure) — the daemon owns the control plane, the caller owns the
/// network.
#[derive(Debug)]
pub struct SimDataplaneBackend {
    dataplane: Dataplane,
    pending: InstallQueue,
    installed: u64,
    tcam_rejected: u64,
    crc: u32,
}

impl SimDataplaneBackend {
    /// Build the switch tables for a scenario's fabric (same topology
    /// and TCAM capacity the batch engine would use).
    pub fn from_config(cfg: &ScenarioConfig) -> SimDataplaneBackend {
        let mr = cfg.topology.build();
        SimDataplaneBackend {
            dataplane: Dataplane::new(&mr.topology, cfg.tcam_capacity),
            pending: InstallQueue::default(),
            installed: 0,
            tcam_rejected: 0,
            crc: 0,
        }
    }

    fn apply_due(&mut self, horizon: SimTime) {
        while let Some((due, q)) = self.pending.pop_due(horizon) {
            let ok = self.dataplane.install(q.switch, q.rule).is_ok();
            if ok {
                self.installed += 1;
            } else {
                self.tcam_rejected += 1;
            }
            // Chain the digest over every applied install: two daemons
            // with the same digest programmed the same rules, in the same
            // order and at the same times, with the same outcomes.
            self.crc = crc32(&install_record(self.crc, due, &q, ok));
        }
    }

    /// Rules that landed in a TCAM.
    pub fn installed(&self) -> u64 {
        self.installed
    }

    /// Installs rejected by a full TCAM (traffic rides default ECMP).
    pub fn tcam_rejected(&self) -> u64 {
        self.tcam_rejected
    }

    /// Installs still waiting out their programming delay.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Order-sensitive digest over every applied install.
    pub fn install_crc(&self) -> u32 {
        self.crc
    }

    /// Rules currently resident across all switch tables.
    pub fn resident_rules(&self) -> usize {
        self.dataplane.total_rules()
    }
}

impl InstallBackend for SimDataplaneBackend {
    fn install(&mut self, now: SimTime, tenant: u32, rules: &[PendingRule]) {
        for p in rules {
            self.pending.push(
                now + p.delay,
                QueuedRule {
                    tenant,
                    switch: p.switch,
                    rule: p.rule,
                },
            );
        }
        self.apply_due(now);
    }

    fn observe(&mut self, _now: SimTime, msg: &ControlMsg) {
        // A controller crash severs the switch connections: installs
        // still waiting out their programming delay never complete —
        // the same drop the engine's generation check performs.
        if matches!(msg, ControlMsg::ControllerDown) {
            self.pending.clear();
        }
    }

    fn finish(&mut self, _now: SimTime) {
        self.apply_due(SimTime::MAX);
    }

    fn name(&self) -> &'static str {
        "sim-dataplane"
    }
}

/// One logged install: when it was issued, when it took effect, and what
/// it programmed where.
#[derive(Debug, Clone)]
pub struct InstallRecord {
    /// Issue (ingest-dispatch) time.
    pub at: SimTime,
    /// When the rule became active (issue + programming delay).
    pub due: SimTime,
    /// Owning tenant (job id, or `SYSTEM_TENANT`).
    pub tenant: u32,
    /// The programmed switch.
    pub switch: NodeId,
    /// The rule.
    pub rule: FlowRule,
}

/// Synthetic trace events sort after natively traced events that share
/// an instant — the rule became active after whatever provoked it.
const SYNTH_SEQ_BASE: u64 = 1 << 48;

/// Logs every install and synthesizes the trace events needed to join
/// them against the collector's demand timeline — the live Figure 5.
///
/// `install` appends an [`InstallRecord`] and a `RuleActive` event at
/// the rule's due time; `observe` turns every `FetchCompleted` into a
/// `FlowFinish` so traffic end times exist even without a simulator.
/// [`RecordingBackend::into_archive`] merges the synthetic events with
/// the service core's native trace into a queryable archive.
#[derive(Debug)]
pub struct RecordingBackend {
    node_of_server: Vec<NodeId>,
    records: Vec<InstallRecord>,
    synth: Vec<TimedEvent>,
    seq: u64,
    flows: u64,
}

impl RecordingBackend {
    /// Build the server→node map for a scenario's fabric.
    pub fn from_config(cfg: &ScenarioConfig) -> RecordingBackend {
        RecordingBackend {
            node_of_server: cfg.topology.build().servers,
            records: Vec::new(),
            synth: Vec::new(),
            seq: 0,
            flows: 0,
        }
    }

    fn push_synth(&mut self, t: SimTime, event: TraceEvent) {
        self.seq += 1;
        self.synth.push(TimedEvent {
            t,
            seq: SYNTH_SEQ_BASE + self.seq,
            event,
        });
    }

    /// Installs logged so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge the log's synthetic events with the service core's native
    /// trace (pass `trace.take_events()`) into a queryable archive.
    pub fn into_archive(self, mut native: Vec<TimedEvent>) -> InstallArchive {
        native.extend(self.synth);
        native.sort_by_key(|ev| (ev.t, ev.seq));
        InstallArchive::new(native, self.records)
    }
}

impl InstallBackend for RecordingBackend {
    fn install(&mut self, now: SimTime, tenant: u32, rules: &[PendingRule]) {
        for p in rules {
            let due = now + p.delay;
            self.records.push(InstallRecord {
                at: now,
                due,
                tenant,
                switch: p.switch,
                rule: p.rule,
            });
            self.push_synth(
                due,
                TraceEvent::RuleActive {
                    switch: p.switch,
                    src: p.rule.matcher.src,
                    dst: p.rule.matcher.dst,
                    out_link: p.rule.out_link,
                },
            );
        }
    }

    fn observe(&mut self, now: SimTime, msg: &ControlMsg) {
        if let ControlMsg::FetchCompleted { src, dst, .. } = msg {
            let (Some(&s), Some(&d)) = (
                self.node_of_server.get(src.0 as usize),
                self.node_of_server.get(dst.0 as usize),
            ) else {
                return;
            };
            self.flows += 1;
            self.push_synth(
                now,
                TraceEvent::FlowFinish {
                    flow: FlowId(self.flows),
                    src: s,
                    dst: d,
                },
            );
        }
    }

    fn finish(&mut self, _now: SimTime) {}

    fn name(&self) -> &'static str {
        "recording"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_des::SimDuration;
    use pythia_openflow::FlowMatch;

    fn rule(src: u32, dst: u32, link: u32) -> PendingRule {
        PendingRule {
            switch: NodeId(10),
            rule: FlowRule {
                matcher: FlowMatch {
                    src: Some(NodeId(src)),
                    dst: Some(NodeId(dst)),
                    src_port: None,
                    dst_port: None,
                    proto: None,
                },
                priority: 100,
                out_link: pythia_netsim::LinkId(link),
            },
            delay: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn delayed_installs_apply_in_due_then_issue_order() {
        let cfg = ScenarioConfig::default();
        let mut b = SimDataplaneBackend::from_config(&cfg);
        // Switch 10 must exist in the default topology; find a real one.
        let mr = cfg.topology.build();
        let sw = mr.tors[0];
        let mk = |src: u32, delay_ms: u64| {
            PendingRule {
                switch: sw,
                ..rule(src, src + 1, 0)
            }
            .with_delay(SimDuration::from_millis(delay_ms))
        };
        let t0 = SimTime::from_millis(0);
        b.install(t0, 1, &[mk(1, 20), mk(2, 10)]);
        // Nothing due yet.
        assert_eq!(b.installed(), 0);
        assert_eq!(b.pending_len(), 2);
        // At t=10ms the second-issued (earlier-due) rule applies first.
        b.install(SimTime::from_millis(10), 1, &[]);
        assert_eq!(b.installed(), 1);
        b.finish(SimTime::from_millis(10));
        assert_eq!(b.installed(), 2);
        assert_eq!(b.pending_len(), 0);
        assert_ne!(b.install_crc(), 0);
    }

    #[test]
    fn controller_crash_drops_inflight_installs() {
        let cfg = ScenarioConfig::default();
        let mr = cfg.topology.build();
        let mut b = SimDataplaneBackend::from_config(&cfg);
        let p = PendingRule {
            switch: mr.tors[0],
            ..rule(1, 2, 0)
        };
        b.install(SimTime::ZERO, 1, &[p]);
        assert_eq!(b.pending_len(), 1);
        b.observe(SimTime::ZERO, &ControlMsg::ControllerDown);
        assert_eq!(b.pending_len(), 0);
        b.finish(SimTime::ZERO);
        assert_eq!(b.installed(), 0);
    }

    /// Install digest of a replay on the default fabric: every
    /// `(tenant, rule)` issued at t = 0, then the stream finishes.
    fn digest(tcam_capacity: usize, installs: &[(u32, PendingRule)]) -> u32 {
        let cfg = ScenarioConfig {
            tcam_capacity,
            ..ScenarioConfig::default()
        };
        let mut b = SimDataplaneBackend::from_config(&cfg);
        for (tenant, p) in installs {
            b.install(SimTime::ZERO, *tenant, std::slice::from_ref(p));
        }
        b.finish(SimTime::MAX);
        b.install_crc()
    }

    #[test]
    fn install_digest_notices_every_field() {
        let mr = ScenarioConfig::default().topology.build();
        let on_tor = |src, dst| PendingRule {
            switch: mr.tors[0],
            ..rule(src, dst, 0)
        };
        // Both installs are due at 5 ms and both fit the TCAM.
        let base = [(1, on_tor(1, 2)), (1, on_tor(3, 4))];
        let base_crc = digest(2000, &base);
        assert_eq!(base_crc, digest(2000, &base), "digest is deterministic");

        // Each variant changes exactly one observed field of one install.
        let edit = |f: &dyn Fn(&mut (u32, PendingRule))| {
            let mut v = base.clone();
            f(&mut v[1]);
            digest(2000, &v)
        };
        let variants = [
            ("due", edit(&|(_, p)| p.delay = SimDuration::from_millis(6))),
            ("tenant", edit(&|(t, _)| *t = 2)),
            ("switch", edit(&|(_, p)| p.switch = mr.tors[1])),
            ("src wildcard", edit(&|(_, p)| p.rule.matcher.src = None)),
            ("dst wildcard", edit(&|(_, p)| p.rule.matcher.dst = None)),
            // Pinned to the largest value, which must still differ from
            // the wildcard sentinel.
            (
                "src_port pinned",
                edit(&|(_, p)| p.rule.matcher.src_port = Some(u16::MAX)),
            ),
            (
                "dst_port pinned",
                edit(&|(_, p)| p.rule.matcher.dst_port = Some(u16::MAX)),
            ),
            (
                "proto pinned",
                edit(&|(_, p)| p.rule.matcher.proto = Some(Protocol::Udp)),
            ),
            ("priority", edit(&|(_, p)| p.rule.priority = 101)),
            (
                "out_link",
                edit(&|(_, p)| p.rule.out_link = pythia_netsim::LinkId(1)),
            ),
            // A one-rule TCAM rejects the second install: only the
            // outcome differs.
            ("outcome", digest(1, &base)),
            // Same due instant, opposite issue order.
            ("order", digest(2000, &[base[1].clone(), base[0].clone()])),
        ];
        for (field, crc) in variants {
            assert_ne!(crc, base_crc, "changing {field} left the digest unchanged");
        }
    }

    /// The install queue against a sorted-`Vec` reference: random
    /// batches whose dues collide within and across batches, drains to
    /// random horizons, and controller crashes with installs in flight.
    #[test]
    fn install_queue_matches_sorted_reference() {
        let mut draws = 0u64;
        let mut draw = |n: u64| {
            draws += 1;
            pythia_des::splitmix64(draws) % n
        };
        let mut q = InstallQueue::default();
        // `(due, issue seq, rule)`, kept sorted by `(due, seq)`.
        let mut reference: Vec<(SimTime, u64, QueuedRule)> = Vec::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut dropped = 0;
        for round in 0..2_000 {
            if round % 150 == 149 {
                // ControllerDown: everything in flight is lost.
                dropped += reference.len();
                q.clear();
                reference.clear();
            }
            for _ in 0..draw(6) {
                // Four distinct delays and a slow clock: dues collide
                // inside a batch and with earlier batches.
                let due = now + SimDuration::from_millis(draw(4));
                let r = rule(draw(5) as u32, draw(5) as u32, draw(3) as u32);
                let queued = QueuedRule {
                    tenant: draw(3) as u32,
                    switch: r.switch,
                    rule: r.rule,
                };
                q.push(due, queued);
                let at = reference.partition_point(|&(d, s, _)| (d, s) < (due, seq));
                reference.insert(at, (due, seq, queued));
                seq += 1;
            }
            now += SimDuration::from_millis(draw(2));
            let horizon = if round % 40 == 39 { SimTime::MAX } else { now };
            loop {
                let want = reference
                    .first()
                    .filter(|&&(due, _, _)| due <= horizon)
                    .map(|&(due, _, rule)| (due, rule));
                assert_eq!(q.pop_due(horizon), want, "round {round}");
                if want.is_none() {
                    break;
                }
                reference.remove(0);
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(dropped > 0, "no crash caught installs in flight");
    }

    // Helper so the ordering test can override only the delay.
    trait WithDelay {
        fn with_delay(self, d: SimDuration) -> Self;
    }
    impl WithDelay for PendingRule {
        fn with_delay(mut self, d: SimDuration) -> Self {
            self.delay = d;
            self
        }
    }
}
