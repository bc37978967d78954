//! The central prediction collector.
//!
//! Receives [`PredictionMsg`]s from every server's instrumentation (over
//! the management network) and turns them into **aggregated server-pair
//! transfers** (§IV): all flows from one mapper server to one reducer
//! server are summed into a single entry, because a shuffle flow's TCP
//! port cannot be known at prediction time — rules must be installable at
//! server-pair granularity.
//!
//! Two Hadoop realities the collector absorbs (§III):
//! * **Unknown reducer destinations** — reducers are scheduled only after
//!   the slow-start threshold, so early predictions carry reducer indices
//!   with no location yet. Those entries are parked and completed by the
//!   collector thread the moment the reducer-launch event arrives.
//! * **Mapper/reducer → network location resolution** — Hadoop task ids
//!   are translated to network node ids via the server map given at
//!   construction.
//!
//! The management network is a datagram channel ([`crate::mgmtnet`]), so
//! ingestion must be **idempotent**: predictions are keyed by
//! `(job, map)`, re-sent or duplicated copies from the same server are
//! dropped, and a copy from a *different* server means Hadoop re-executed
//! the map task (failure or speculation) — the old prediction is retracted
//! before the new one is ingested. Entries parked for a reducer that never
//! launches can be expired by a TTL sweep.

use std::collections::BTreeSet;
use std::fmt;

use pythia_des::{FastMap, SimDuration, SimTime};
use pythia_hadoop::{JobId, MapTaskId, ReducerId, ServerId};
use pythia_netsim::{CumulativeCurve, NodeId};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

use crate::instrument::PredictionMsg;

/// An increment of predicted demand on one server pair, ready for the
/// flow allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregatedDemand {
    /// Mapper-side network node.
    pub src: NodeId,
    /// Reducer-side network node.
    pub dst: NodeId,
    /// Newly predicted wire bytes for this pair.
    pub added_bytes: u64,
}

/// A prediction referenced a server id outside the cluster map — a
/// malformed or corrupted message that must be dropped, not indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownServer(pub ServerId);

impl fmt::Display for UnknownServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown server id {:?} in prediction", self.0)
    }
}

impl std::error::Error for UnknownServer {}

/// Everything one ingested prediction message implies for the allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// Newly aggregated demand increments (reducer location known).
    pub demands: Vec<AggregatedDemand>,
    /// Volumes withdrawn because a re-executed map task invalidated its
    /// earlier prediction: the allocator must drain these.
    pub retracted: Vec<((NodeId, NodeId), u64)>,
}

/// One parked per-reducer prediction entry awaiting reducer location.
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    job: JobId,
    map: MapTaskId,
    src: ServerId,
    reducer: ReducerId,
    bytes: u64,
    /// When the entry was parked, for TTL expiry.
    parked_at: SimTime,
}

/// The server whose prediction currently represents a map task, and how
/// many reducers that prediction named — the bound of the map's
/// `(job, map, reducer)` keys, so a retraction probes them directly.
#[derive(Debug, Clone, Copy)]
struct MapSource {
    server: ServerId,
    reducers: u32,
}

/// What one committed per-fetch prediction recorded, so drains and
/// retractions reverse it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CommittedFetch {
    bytes: u64,
    src: NodeId,
    dst: NodeId,
}

/// The collector state machine.
///
/// Per-message state is hash-keyed, so each message costs O(the state it
/// names). Nothing reads a map's iteration order: the outputs that walk
/// a map ([`Collector::outstanding_pairs`], [`Collector::put_state`])
/// sort first.
pub struct Collector {
    /// Hadoop server id → network node.
    server_nodes: Vec<NodeId>,
    /// Known reducer locations (hadoop server ids), per job.
    reducer_loc: FastMap<(JobId, ReducerId), ServerId>,
    /// Predictions whose reducer location is not yet known, grouped per
    /// `(job, reducer)`, each group in park order, so a reducer launch
    /// takes its group with one probe. The sequence number beside each
    /// entry orders the groups against each other: snapshots write the
    /// entries in global park order.
    pending: FastMap<(JobId, ReducerId), Vec<(u64, PendingEntry)>>,
    /// Sequence number of the next parked entry.
    next_park_seq: u64,
    /// Parked entries over all jobs.
    parked: usize,
    /// Committed prediction per (job, map, reducer), for exact reversal
    /// when a fetch completes or the map is re-executed.
    predicted_fetch: FastMap<(JobId, MapTaskId, ReducerId), CommittedFetch>,
    /// The prediction currently representing each map task — the
    /// idempotency key of the lossy management network.
    latest_src: FastMap<(JobId, MapTaskId), MapSource>,
    /// Outstanding predicted bytes per (src node, dst node), remote only.
    outstanding: FastMap<(NodeId, NodeId), u64>,
    /// Cumulative predicted remote traffic per source node over time —
    /// Pythia's side of the Figure 5 comparison.
    predicted_curves: FastMap<NodeId, (f64, CumulativeCurve)>,
    /// Prediction messages ingested (duplicates excluded).
    pub predictions_received: u64,
    /// Per-reducer entries parked for unknown destinations.
    pub entries_parked: u64,
    /// Re-sent/duplicated messages dropped by the (job, map) key.
    pub duplicates_dropped: u64,
    /// Predictions withdrawn because the map task re-executed elsewhere.
    pub retractions: u64,
    /// Parked entries removed by TTL expiry.
    pub parked_expired: u64,
    /// Messages dropped for referencing an unknown server.
    pub malformed_dropped: u64,
}

impl Collector {
    /// A collector where Hadoop server `i` lives on `server_nodes[i]`.
    pub fn new(server_nodes: Vec<NodeId>) -> Self {
        Collector {
            server_nodes,
            reducer_loc: FastMap::default(),
            pending: FastMap::default(),
            next_park_seq: 0,
            parked: 0,
            predicted_fetch: FastMap::default(),
            latest_src: FastMap::default(),
            outstanding: FastMap::default(),
            predicted_curves: FastMap::default(),
            predictions_received: 0,
            entries_parked: 0,
            duplicates_dropped: 0,
            retractions: 0,
            parked_expired: 0,
            malformed_dropped: 0,
        }
    }

    /// Resolve a Hadoop server id to its network node. Out-of-range ids
    /// (malformed predictions) are an error, not a panic.
    pub fn node_of(&self, s: ServerId) -> Result<NodeId, UnknownServer> {
        self.server_nodes
            .get(s.0 as usize)
            .copied()
            .ok_or(UnknownServer(s))
    }

    /// A prediction message arrived (management-network latency already
    /// applied by the caller). Idempotent: re-delivered copies of a
    /// message already ingested are dropped; a copy from a different
    /// server retracts the stale prediction (map re-execution) before
    /// ingesting the new one. Entries for reducers with no known location
    /// are parked.
    pub fn on_prediction(&mut self, now: SimTime, msg: &PredictionMsg) -> PredictionOutcome {
        if self.node_of(msg.src_server).is_err() {
            self.malformed_dropped += 1;
            return PredictionOutcome::default();
        }
        let mut outcome = PredictionOutcome::default();
        match self.latest_src.get(&(msg.job, msg.map)) {
            Some(prev) if prev.server == msg.src_server => {
                // Network duplicate or agent retransmission: already
                // ingested, drop without touching the aggregates.
                self.duplicates_dropped += 1;
                return outcome;
            }
            Some(&prev) => {
                // Same map, different server: Hadoop re-executed the task
                // (failure or speculation). The old output will never be
                // fetched — withdraw its predicted volume first.
                outcome.retracted = self.retract(msg.job, msg.map, prev.reducers);
                self.retractions += 1;
            }
            None => {}
        }
        self.latest_src.insert(
            (msg.job, msg.map),
            MapSource {
                server: msg.src_server,
                reducers: msg.per_reducer_bytes.len() as u32,
            },
        );
        self.predictions_received += 1;
        let mut out = Vec::new();
        for (r_idx, &bytes) in msg.per_reducer_bytes.iter().enumerate() {
            let reducer = ReducerId(r_idx as u32);
            let entry = PendingEntry {
                job: msg.job,
                map: msg.map,
                src: msg.src_server,
                reducer,
                bytes,
                parked_at: now,
            };
            match self.reducer_loc.get(&(msg.job, reducer)).copied() {
                Some(loc) => {
                    if let Some(d) = self.commit(now, entry, loc) {
                        out.push(d);
                    }
                }
                None => {
                    self.park(entry);
                    self.entries_parked += 1;
                }
            }
        }
        outcome.demands = Self::coalesce(out);
        outcome
    }

    /// Append `entry` to its reducer's parked group.
    fn park(&mut self, entry: PendingEntry) {
        let seq = self.next_park_seq;
        self.next_park_seq += 1;
        self.pending
            .entry((entry.job, entry.reducer))
            .or_default()
            .push((seq, entry));
        self.parked += 1;
    }

    /// Reducer-launch event observed: fill in every parked entry for this
    /// reducer, in park order. The reducer's group is removed whole.
    pub fn on_reducer_location(
        &mut self,
        now: SimTime,
        job: JobId,
        reducer: ReducerId,
        server: ServerId,
    ) -> Vec<AggregatedDemand> {
        if self.node_of(server).is_err() {
            self.malformed_dropped += 1;
            return Vec::new();
        }
        self.reducer_loc.insert((job, reducer), server);
        let Some(group) = self.pending.remove(&(job, reducer)) else {
            return Vec::new();
        };
        self.parked -= group.len();
        let out = group
            .into_iter()
            .filter_map(|(_, entry)| self.commit(now, entry, server))
            .collect();
        Self::coalesce(out)
    }

    /// Fold one resolved entry into the aggregates. Local transfers
    /// (mapper and reducer on the same server) never touch the network:
    /// recorded for exactness but produce no demand.
    fn commit(
        &mut self,
        now: SimTime,
        entry: PendingEntry,
        reducer_server: ServerId,
    ) -> Option<AggregatedDemand> {
        let src = self.node_of(entry.src).ok()?;
        let dst = self.node_of(reducer_server).ok()?;
        let committed = CommittedFetch {
            bytes: entry.bytes,
            src,
            dst,
        };
        let prev = self
            .predicted_fetch
            .insert((entry.job, entry.map, entry.reducer), committed);
        if let Some(p) = prev {
            if p == committed {
                // Identical re-commit (e.g. a duplicate that was parked
                // before its twin resolved): a no-op, not extra demand.
                return None;
            }
            // A differing stale commit for the same fetch: reverse it so
            // every fetch counts toward `outstanding` exactly once.
            if p.src != p.dst {
                self.sub_outstanding((p.src, p.dst), p.bytes);
            }
        }
        if src == dst || entry.bytes == 0 {
            return None;
        }
        *self.outstanding.entry((src, dst)).or_insert(0) += entry.bytes;
        let (total, curve) = self
            .predicted_curves
            .entry(src)
            .or_insert_with(|| (0.0, CumulativeCurve::default()));
        *total += entry.bytes as f64;
        let t = *total;
        curve.push(now, t);
        Some(AggregatedDemand {
            src,
            dst,
            added_bytes: entry.bytes,
        })
    }

    /// Withdraw every committed and parked entry of `(job, map)`, whose
    /// prediction named `reducers` reducers: its earlier execution's
    /// output will never be fetched. Returns the per-pair volumes removed
    /// from `outstanding` (for allocator drains), in pair order.
    fn retract(
        &mut self,
        job: JobId,
        map: MapTaskId,
        reducers: u32,
    ) -> Vec<((NodeId, NodeId), u64)> {
        let mut drains = Vec::new();
        for r in 0..reducers {
            let reducer = ReducerId(r);
            if let Some(c) = self.predicted_fetch.remove(&(job, map, reducer)) {
                if c.src != c.dst && c.bytes > 0 {
                    self.sub_outstanding((c.src, c.dst), c.bytes);
                    drains.push(((c.src, c.dst), c.bytes));
                }
            }
            if let Some(group) = self.pending.get_mut(&(job, reducer)) {
                let before = group.len();
                group.retain(|(_, e)| e.map != map);
                self.parked -= before - group.len();
                if group.is_empty() {
                    self.pending.remove(&(job, reducer));
                }
            }
        }
        drains.sort_unstable_by_key(|&(pair, _)| pair);
        drains.dedup_by(|d, kept| {
            let same = d.0 == kept.0;
            if same {
                kept.1 += d.1;
            }
            same
        });
        drains
    }

    fn sub_outstanding(&mut self, pair: (NodeId, NodeId), bytes: u64) {
        if let Some(o) = self.outstanding.get_mut(&pair) {
            *o = o.saturating_sub(bytes);
            if *o == 0 {
                self.outstanding.remove(&pair);
            }
        }
    }

    /// Merge demands that share a server pair (one message can carry
    /// several reducers living on the same server), in pair order.
    fn coalesce(mut demands: Vec<AggregatedDemand>) -> Vec<AggregatedDemand> {
        demands.sort_unstable_by_key(|d| (d.src, d.dst));
        demands.dedup_by(|d, kept| {
            let same = (d.src, d.dst) == (kept.src, kept.dst);
            if same {
                kept.added_bytes += d.added_bytes;
            }
            same
        });
        demands
    }

    /// A fetch completed: drain its predicted contribution from the pair's
    /// outstanding volume. Returns the (pair, drained bytes) if the fetch
    /// was remote and predicted. The pair recorded at commit time is
    /// authoritative — it reverses exactly what was added.
    pub fn on_fetch_completed(
        &mut self,
        job: JobId,
        map: MapTaskId,
        reducer: ReducerId,
        src: ServerId,
        dst: ServerId,
    ) -> Option<((NodeId, NodeId), u64)> {
        let _ = (src, dst);
        let c = self.predicted_fetch.remove(&(job, map, reducer))?;
        if c.src == c.dst || c.bytes == 0 {
            return None;
        }
        self.sub_outstanding((c.src, c.dst), c.bytes);
        Some(((c.src, c.dst), c.bytes))
    }

    /// Drop parked entries older than `ttl` (their reducer never
    /// launched — stale job, retracted map, or a lost launch event).
    /// Returns how many were expired.
    pub fn expire_parked(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.parked;
        self.pending.retain(|_, group| {
            group.retain(|(_, e)| now.saturating_since(e.parked_at) < ttl);
            !group.is_empty()
        });
        self.parked = self.pending.values().map(Vec::len).sum();
        let expired = before - self.parked;
        self.parked_expired += expired as u64;
        expired
    }

    /// Outstanding predicted bytes for a pair.
    pub fn outstanding(&self, src: NodeId, dst: NodeId) -> u64 {
        self.outstanding.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Every pair with outstanding predicted volume, in deterministic
    /// order — the source of truth a recovering controller resyncs from.
    pub fn outstanding_pairs(&self) -> Vec<((NodeId, NodeId), u64)> {
        let mut pairs: Vec<((NodeId, NodeId), u64)> = self
            .outstanding
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(&k, &v)| (k, v))
            .collect();
        pairs.sort_unstable_by_key(|&(pair, _)| pair);
        pairs
    }

    /// Number of parked (unknown-destination) entries.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Every parked entry in global park order.
    fn parked_in_order(&self) -> Vec<PendingEntry> {
        let mut all: Vec<(u64, PendingEntry)> = self.pending.values().flatten().copied().collect();
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, e)| e).collect()
    }

    /// Predicted cumulative remote-traffic curve for `node` (Figure 5).
    pub fn predicted_curve(&self, node: NodeId) -> Option<&CumulativeCurve> {
        self.predicted_curves.get(&node).map(|(_, c)| c)
    }

    /// Serialize the collector's mutable state. The server map is written
    /// too so a resume against a different scenario is a typed error, not
    /// silent misrouting. Parked entries keep their global park order —
    /// resolution order decides demand order at reducer launch. Maps go
    /// out in key order.
    pub fn put_state(&self, w: &mut SectionWriter) {
        self.server_nodes.put(w);
        self.reducer_loc.put(w);
        self.parked_in_order().put(w);
        self.predicted_fetch.put(w);
        self.latest_src.put(w);
        self.outstanding.put(w);
        self.predicted_curves.put(w);
        self.predictions_received.put(w);
        self.entries_parked.put(w);
        self.duplicates_dropped.put(w);
        self.retractions.put(w);
        self.parked_expired.put(w);
        self.malformed_dropped.put(w);
    }

    /// Overlay state from a snapshot onto a freshly constructed collector.
    /// Validates internal invariants (server/node ids in range, parked
    /// entries genuinely unresolved, no zero outstanding entries) before
    /// committing anything.
    pub fn restore_state(&mut self, r: &mut SectionReader) -> Result<(), SnapshotError> {
        let server_nodes = Vec::<NodeId>::get(r)?;
        if server_nodes != self.server_nodes {
            return Err(r.malformed("collector server map differs from the running scenario"));
        }
        let n_servers = server_nodes.len();
        let node_set: BTreeSet<NodeId> = server_nodes.iter().copied().collect();
        let reducer_loc = <FastMap<(JobId, ReducerId), ServerId> as Persist>::get(r)?;
        for loc in reducer_loc.values() {
            if loc.0 as usize >= n_servers {
                return Err(r.malformed(format!("reducer location {loc} out of range")));
            }
        }
        let pending = Vec::<PendingEntry>::get(r)?;
        for e in &pending {
            if e.src.0 as usize >= n_servers {
                return Err(r.malformed(format!("parked entry src {} out of range", e.src)));
            }
            if reducer_loc.contains_key(&(e.job, e.reducer)) {
                return Err(r.malformed("parked entry for a reducer with a known location"));
            }
        }
        let predicted_fetch =
            <FastMap<(JobId, MapTaskId, ReducerId), CommittedFetch> as Persist>::get(r)?;
        for c in predicted_fetch.values() {
            if !node_set.contains(&c.src) || !node_set.contains(&c.dst) {
                return Err(r.malformed("committed fetch references a non-server node"));
            }
        }
        let mut latest_src = <FastMap<(JobId, MapTaskId), MapSource> as Persist>::get(r)?;
        for m in latest_src.values() {
            if m.server.0 as usize >= n_servers {
                return Err(r.malformed(format!("latest-src server {} out of range", m.server)));
            }
        }
        // A map's reducer count bounds every reducer index it holds state
        // for, committed or parked.
        let held = predicted_fetch
            .keys()
            .copied()
            .chain(pending.iter().map(|e| (e.job, e.map, e.reducer)));
        for (job, map, reducer) in held {
            if let Some(m) = latest_src.get_mut(&(job, map)) {
                m.reducers = m.reducers.max(reducer.0.saturating_add(1));
            }
        }
        let outstanding = <FastMap<(NodeId, NodeId), u64> as Persist>::get(r)?;
        for (&(src, dst), &v) in &outstanding {
            if v == 0 {
                return Err(r.malformed("zero outstanding entry (should be removed)"));
            }
            if !node_set.contains(&src) || !node_set.contains(&dst) {
                return Err(r.malformed("outstanding pair references a non-server node"));
            }
        }
        let predicted_curves = <FastMap<NodeId, (f64, CumulativeCurve)> as Persist>::get(r)?;
        for (node, (total, _)) in &predicted_curves {
            if !node_set.contains(node) {
                return Err(r.malformed("predicted curve for a non-server node"));
            }
            if !total.is_finite() || *total < 0.0 {
                return Err(r.malformed(format!("predicted-curve total {total} not a valid sum")));
            }
        }
        self.reducer_loc = reducer_loc;
        self.parked = pending.len();
        self.next_park_seq = pending.len() as u64;
        self.pending = FastMap::default();
        for (seq, e) in pending.into_iter().enumerate() {
            self.pending
                .entry((e.job, e.reducer))
                .or_default()
                .push((seq as u64, e));
        }
        self.predicted_fetch = predicted_fetch;
        self.latest_src = latest_src;
        self.outstanding = outstanding;
        self.predicted_curves = predicted_curves;
        self.predictions_received = u64::get(r)?;
        self.entries_parked = u64::get(r)?;
        self.duplicates_dropped = u64::get(r)?;
        self.retractions = u64::get(r)?;
        self.parked_expired = u64::get(r)?;
        self.malformed_dropped = u64::get(r)?;
        Ok(())
    }
}

impl Persist for PendingEntry {
    fn put(&self, w: &mut SectionWriter) {
        self.job.put(w);
        self.map.put(w);
        self.src.put(w);
        self.reducer.put(w);
        self.bytes.put(w);
        self.parked_at.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(PendingEntry {
            job: JobId::get(r)?,
            map: MapTaskId::get(r)?,
            src: ServerId::get(r)?,
            reducer: ReducerId::get(r)?,
            bytes: u64::get(r)?,
            parked_at: SimTime::get(r)?,
        })
    }
}

/// Only the server goes to bytes; `Collector::restore_state` derives the
/// reducer count from the state the map still holds.
impl Persist for MapSource {
    fn put(&self, w: &mut SectionWriter) {
        self.server.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(MapSource {
            server: ServerId::get(r)?,
            reducers: 0,
        })
    }
}

impl Persist for CommittedFetch {
    fn put(&self, w: &mut SectionWriter) {
        self.bytes.put(w);
        self.src.put(w);
        self.dst.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(CommittedFetch {
            bytes: u64::get(r)?,
            src: NodeId::get(r)?,
            dst: NodeId::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn msg(map: u32, src: u32, bytes: Vec<u64>, at_secs: u64) -> PredictionMsg {
        PredictionMsg {
            job: JobId(0),
            map: MapTaskId(map),
            src_server: ServerId(src),
            per_reducer_bytes: bytes,
            predicted_at: SimTime::from_secs(at_secs),
        }
    }

    fn collector() -> Collector {
        // server i lives on node 10+i.
        Collector::new((0..4).map(|i| NodeId(10 + i)).collect())
    }

    #[test]
    fn known_reducer_aggregates_immediately() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        let d = c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        assert_eq!(
            d.demands,
            vec![AggregatedDemand {
                src: NodeId(10),
                dst: NodeId(11),
                added_bytes: 500
            }]
        );
        assert!(d.retracted.is_empty());
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 500);
    }

    #[test]
    fn unknown_reducer_parks_until_launch() {
        let mut c = collector();
        let d = c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        assert!(d.demands.is_empty());
        assert_eq!(c.parked(), 1);
        // Launch fills the parked entry.
        let d2 = c.on_reducer_location(SimTime::from_secs(2), JobId(0), ReducerId(0), ServerId(2));
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].dst, NodeId(12));
        assert_eq!(c.parked(), 0);
        assert_eq!(c.outstanding(NodeId(10), NodeId(12)), 500);
    }

    #[test]
    fn local_transfers_produce_no_demand() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(0));
        let d = c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        assert!(d.demands.is_empty(), "mapper and reducer co-located");
        assert_eq!(c.outstanding(NodeId(10), NodeId(10)), 0);
    }

    #[test]
    fn same_pair_reducers_coalesce() {
        let mut c = collector();
        // Reducers 0 and 1 both on server 1.
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(1), ServerId(1));
        let d = c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![300, 200], 0));
        assert_eq!(d.demands.len(), 1, "one aggregated entry per server pair");
        assert_eq!(d.demands[0].added_bytes, 500);
    }

    #[test]
    fn fetch_completion_drains_exactly() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        c.on_prediction(SimTime::ZERO, &msg(1, 0, vec![300], 0));
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 800);
        let drained = c
            .on_fetch_completed(
                JobId(0),
                MapTaskId(0),
                ReducerId(0),
                ServerId(0),
                ServerId(1),
            )
            .unwrap();
        assert_eq!(drained, ((NodeId(10), NodeId(11)), 500));
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 300);
        // Unknown fetch: None.
        assert!(c
            .on_fetch_completed(
                JobId(0),
                MapTaskId(9),
                ReducerId(0),
                ServerId(0),
                ServerId(1)
            )
            .is_none());
    }

    #[test]
    fn predicted_curve_steps_at_commit_times() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![100], 1));
        c.on_prediction(SimTime::from_secs(3), &msg(1, 0, vec![200], 3));
        let curve = c.predicted_curve(NodeId(10)).unwrap();
        assert_eq!(curve.value_at(SimTime::from_secs(1)), 100.0);
        assert_eq!(curve.value_at(SimTime::from_secs(2)), 100.0);
        assert_eq!(curve.value_at(SimTime::from_secs(3)), 300.0);
    }

    #[test]
    fn park_then_resolve_timestamps_curve_at_resolution() {
        let mut c = collector();
        c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![100], 1));
        assert!(c.predicted_curve(NodeId(10)).is_none());
        c.on_reducer_location(SimTime::from_secs(5), JobId(0), ReducerId(0), ServerId(1));
        let curve = c.predicted_curve(NodeId(10)).unwrap();
        assert_eq!(curve.value_at(SimTime::from_secs(4)), 0.0);
        assert_eq!(curve.value_at(SimTime::from_secs(5)), 100.0);
    }

    /// Regression: a duplicate `PredictionMsg` for the same `(job, map)`
    /// used to inflate `outstanding` — `predicted_fetch.insert` overwrote
    /// while `outstanding +=` added again. Duplicates are now dropped.
    #[test]
    fn duplicate_prediction_does_not_double_count() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        let d1 = c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        assert_eq!(d1.demands.len(), 1);
        // The exact same message again — a network dup or agent retry.
        let d2 = c.on_prediction(SimTime::from_secs(2), &msg(0, 0, vec![500], 1));
        assert!(d2.demands.is_empty(), "duplicate must add no demand");
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 500, "not 1000");
        assert_eq!(c.duplicates_dropped, 1);
        assert_eq!(c.predictions_received, 1);
        // One fetch drains the pair to exactly zero.
        c.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(0),
            ServerId(1),
        );
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 0);
    }

    #[test]
    fn duplicate_while_parked_parks_once() {
        let mut c = collector();
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        assert_eq!(c.parked(), 1, "duplicate must not park a second entry");
        let d = c.on_reducer_location(SimTime::from_secs(1), JobId(0), ReducerId(0), ServerId(1));
        assert_eq!(d.len(), 1);
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 500);
    }

    #[test]
    fn reexecuted_map_retracts_old_prediction() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 500);
        // Map 0 re-executes on server 2 (speculation / task failure).
        let d = c.on_prediction(SimTime::from_secs(2), &msg(0, 2, vec![500], 2));
        assert_eq!(d.retracted, vec![((NodeId(10), NodeId(11)), 500)]);
        assert_eq!(d.demands.len(), 1);
        assert_eq!(d.demands[0].src, NodeId(12));
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 0, "old src gone");
        assert_eq!(c.outstanding(NodeId(12), NodeId(11)), 500);
        assert_eq!(c.retractions, 1);
        // The fetch (from the new location) drains to zero.
        c.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(2),
            ServerId(1),
        );
        assert_eq!(c.outstanding(NodeId(12), NodeId(11)), 0);
    }

    #[test]
    fn reexecuted_map_drops_parked_entries() {
        let mut c = collector();
        // Parked: reducer location unknown.
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        assert_eq!(c.parked(), 1);
        // Re-execution elsewhere replaces the parked entry too.
        c.on_prediction(SimTime::from_secs(1), &msg(0, 2, vec![500], 1));
        assert_eq!(c.parked(), 1, "old parked entry replaced, not added");
        let d = c.on_reducer_location(SimTime::from_secs(2), JobId(0), ReducerId(0), ServerId(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].src, NodeId(12), "resolved from the re-execution");
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 0);
    }

    #[test]
    fn malformed_server_id_is_dropped_not_a_panic() {
        let mut c = collector();
        // Only servers 0..4 exist; 99 is garbage.
        let d = c.on_prediction(SimTime::ZERO, &msg(0, 99, vec![500], 0));
        assert!(d.demands.is_empty() && d.retracted.is_empty());
        assert_eq!(c.malformed_dropped, 1);
        assert_eq!(c.predictions_received, 0);
        assert!(c.node_of(ServerId(99)).is_err());
        assert_eq!(c.node_of(ServerId(1)), Ok(NodeId(11)));
        // A malformed reducer location is likewise dropped.
        let d2 = c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(42));
        assert!(d2.is_empty());
        assert_eq!(c.malformed_dropped, 2);
    }

    #[test]
    fn parked_entries_expire_after_ttl() {
        let mut c = collector();
        c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        c.on_prediction(SimTime::from_secs(8), &msg(1, 0, vec![300], 8));
        assert_eq!(c.parked(), 2);
        // TTL 5 s at t=10: the t=1 entry dies, the t=8 entry survives.
        let expired = c.expire_parked(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(expired, 1);
        assert_eq!(c.parked(), 1);
        assert_eq!(c.parked_expired, 1);
        // The survivor still resolves normally.
        let d = c.on_reducer_location(SimTime::from_secs(11), JobId(0), ReducerId(0), ServerId(1));
        assert_eq!(d.len(), 1);
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 300);
    }

    #[test]
    fn outstanding_pairs_lists_live_volume() {
        let mut c = collector();
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        assert!(c.outstanding_pairs().is_empty());
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        c.on_prediction(SimTime::ZERO, &msg(1, 2, vec![300], 0));
        assert_eq!(
            c.outstanding_pairs(),
            vec![
                ((NodeId(10), NodeId(11)), 500),
                ((NodeId(12), NodeId(11)), 300)
            ]
        );
        c.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(0),
            ServerId(1),
        );
        assert_eq!(c.outstanding_pairs(), vec![((NodeId(12), NodeId(11)), 300)]);
        // Every remote pair of the cluster, committed in reverse pair
        // order: the listing is still in pair order.
        for r in 0..4 {
            c.on_reducer_location(SimTime::ZERO, JobId(1), ReducerId(r), ServerId(r));
        }
        for (map, src) in (0..4).rev().enumerate() {
            let p = job_msg(1, map as u32, src, vec![1, 2, 3, 4], 0);
            c.on_prediction(SimTime::ZERO, &p);
        }
        let pairs: Vec<(NodeId, NodeId)> = c.outstanding_pairs().iter().map(|&(p, _)| p).collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs.len(), 12);
        assert_eq!(pairs, sorted);
    }

    fn snapshot(c: &Collector) -> Vec<u8> {
        let mut w = pythia_snapshot::Writer::new();
        w.section("collector", |s| c.put_state(s));
        w.finish()
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut c = collector();
        // Committed demand, a parked entry, a duplicate, and a retraction:
        // every aggregate the collector keeps is non-trivial.
        c.on_reducer_location(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(1));
        c.on_prediction(SimTime::from_secs(1), &msg(0, 0, vec![500], 1));
        c.on_prediction(SimTime::from_secs(2), &msg(0, 0, vec![500], 2));
        c.on_prediction(SimTime::from_secs(3), &msg(1, 2, vec![300], 3));
        c.on_prediction(SimTime::from_secs(4), &msg(2, 0, vec![0, 700], 4)); // parks reducer 1
        c.on_prediction(SimTime::from_secs(5), &msg(1, 3, vec![300], 5)); // re-execution

        let bytes = snapshot(&c);
        let mut c2 = collector();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("collector")
            .unwrap();
        c2.restore_state(&mut sec).unwrap();
        sec.finish().unwrap();

        // Re-snapshot is byte-identical; counters and aggregates survive.
        assert_eq!(snapshot(&c2), bytes);
        assert_eq!(c2.duplicates_dropped, 1);
        assert_eq!(c2.retractions, 1);
        assert_eq!(c2.parked(), 1);
        assert_eq!(c2.outstanding_pairs(), c.outstanding_pairs());
        // Both resume identically: the parked entry resolves the same way.
        let at = SimTime::from_secs(6);
        let d1 = c.on_reducer_location(at, JobId(0), ReducerId(1), ServerId(2));
        let d2 = c2.on_reducer_location(at, JobId(0), ReducerId(1), ServerId(2));
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 1);
        assert_eq!(
            c.predicted_curve(NodeId(10)).unwrap().value_at(at),
            c2.predicted_curve(NodeId(10)).unwrap().value_at(at),
        );
    }

    fn job_msg(job: u32, map: u32, src: u32, bytes: Vec<u64>, at_secs: u64) -> PredictionMsg {
        PredictionMsg {
            job: JobId(job),
            ..msg(map, src, bytes, at_secs)
        }
    }

    /// Parked entries as `(job, map, reducer)`, in the order a snapshot
    /// writes them.
    fn parked_keys(c: &Collector) -> Vec<(u32, u32, u32)> {
        c.parked_in_order()
            .iter()
            .map(|e| (e.job.0, e.map.0, e.reducer.0))
            .collect()
    }

    /// A parked entry of the reference model: `(job, map, reducer,
    /// bytes, src server)`.
    type Parked = (u32, u32, u32, u64, u32);

    fn model_keys(model: &[Parked]) -> Vec<(u32, u32, u32)> {
        model.iter().map(|&(j, m, r, _, _)| (j, m, r)).collect()
    }

    /// Predictions of three jobs, two reducers each, interleaved in time;
    /// every entry parks. Returns the parked model in park order.
    fn park_three_jobs(c: &mut Collector) -> Vec<Parked> {
        let mut model = Vec::new();
        let preds = [
            (0, 0, 0),
            (1, 0, 1),
            (0, 1, 2),
            (2, 0, 3),
            (1, 1, 0),
            (0, 2, 1),
        ];
        for (i, &(job, map, src)) in preds.iter().enumerate() {
            let bytes = vec![100 * (i as u64 + 1), 1000 * (i as u64 + 1)];
            let out = c.on_prediction(
                SimTime::from_secs(i as u64),
                &job_msg(job, map, src, bytes.clone(), i as u64),
            );
            assert!(out.demands.is_empty());
            for (r, &b) in bytes.iter().enumerate() {
                model.push((job, map, r as u32, b, src));
            }
            assert_eq!(parked_keys(c), model_keys(&model));
        }
        model
    }

    #[test]
    fn interleaved_jobs_release_in_park_order() {
        let mut c = collector();
        let mut model = park_three_jobs(&mut c);
        // Launches alternate between jobs; each releases exactly the
        // model's matching entries and leaves the rest in park order.
        let launches = [
            (1, 1, 2),
            (0, 0, 3),
            (2, 1, 1),
            (0, 1, 2),
            (1, 0, 3),
            (2, 0, 0),
        ];
        for (k, &(job, reducer, server)) in launches.iter().enumerate() {
            let at = SimTime::from_secs(10 + k as u64);
            let demands =
                c.on_reducer_location(at, JobId(job), ReducerId(reducer), ServerId(server));
            let (released, kept): (Vec<Parked>, Vec<Parked>) = model
                .iter()
                .partition(|&&(j, _, r, _, _)| j == job && r == reducer);
            model = kept;
            let mut want: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            for &(_, _, _, bytes, src) in &released {
                if src != server {
                    *want
                        .entry((NodeId(10 + src), NodeId(10 + server)))
                        .or_insert(0) += bytes;
                }
            }
            let want: Vec<AggregatedDemand> = want
                .into_iter()
                .map(|((src, dst), added_bytes)| AggregatedDemand {
                    src,
                    dst,
                    added_bytes,
                })
                .collect();
            assert_eq!(demands, want, "launch {k}");
            assert_eq!(parked_keys(&c), model_keys(&model), "launch {k}");
            assert_eq!(c.parked(), model.len());
        }
        assert_eq!(c.parked(), 0);
    }

    #[test]
    fn retracting_a_parked_map_keeps_other_entries_in_order() {
        let mut c = collector();
        let mut model = park_three_jobs(&mut c);
        // Job 0's reducer 0 launches on server 3: map 0's reducer-0 entry
        // commits (src 0 → 3, 100 bytes), its reducer-1 entry stays parked.
        c.on_reducer_location(SimTime::from_secs(10), JobId(0), ReducerId(0), ServerId(3));
        model.retain(|&(j, _, r, _, _)| !(j == 0 && r == 0));
        assert_eq!(parked_keys(&c), model_keys(&model));
        assert_eq!(c.outstanding(NodeId(10), NodeId(13)), 100);
        // Map 0 of job 0 re-executes on server 2: its committed volume is
        // withdrawn, its parked entry dropped, and the new prediction
        // commits reducer 0 and parks reducer 1 at the back.
        let out = c.on_prediction(SimTime::from_secs(11), &job_msg(0, 0, 2, vec![7, 70], 11));
        assert_eq!(out.retracted, vec![((NodeId(10), NodeId(13)), 100)]);
        assert_eq!(
            out.demands,
            vec![AggregatedDemand {
                src: NodeId(12),
                dst: NodeId(13),
                added_bytes: 7
            }]
        );
        model.retain(|&(j, m, _, _, _)| !(j == 0 && m == 0));
        model.push((0, 0, 1, 70, 2));
        assert_eq!(parked_keys(&c), model_keys(&model));
        assert_eq!(c.parked(), model.len());
        assert_eq!(c.retractions, 1);
        // Reducer 1 of job 0 then releases the re-executed entry, not the
        // withdrawn one.
        let d = c.on_reducer_location(SimTime::from_secs(12), JobId(0), ReducerId(1), ServerId(1));
        let from_src = |s: u32| {
            d.iter()
                .find(|x| x.src == NodeId(10 + s))
                .map(|x| x.added_bytes)
        };
        assert_eq!(from_src(2), Some(70 + 3000));
        assert_eq!(from_src(0), None, "the withdrawn entry must not release");
    }

    #[test]
    fn ttl_expiry_spans_jobs() {
        let mut c = collector();
        let mut model = park_three_jobs(&mut c); // parked at t = 0..=5 s
                                                 // TTL 3 s at t = 6 s: entries parked at t ≤ 3 s die, across jobs
                                                 // 0, 1 and 2; survivors keep their order.
        let expired = c.expire_parked(SimTime::from_secs(6), SimDuration::from_secs(3));
        let parked_at = |m: &Parked| -> u64 {
            [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
                .iter()
                .position(|&(j, mm)| (j, mm) == (m.0, m.1))
                .unwrap() as u64
        };
        let before = model.len();
        model.retain(|m| 6 - parked_at(m) < 3);
        assert_eq!(expired, before - model.len());
        assert_eq!(expired, 8);
        assert_eq!(c.parked_expired, 8);
        assert_eq!(parked_keys(&c), model_keys(&model));
        // Job 2's only map expired: its launch releases nothing, and it
        // parks again from scratch.
        assert!(c
            .on_reducer_location(SimTime::from_secs(7), JobId(2), ReducerId(0), ServerId(1))
            .is_empty());
        c.on_prediction(SimTime::from_secs(8), &job_msg(2, 1, 0, vec![5, 50], 8));
        model.push((2, 1, 1, 50, 0));
        assert_eq!(parked_keys(&c), model_keys(&model));
        assert_eq!(c.outstanding(NodeId(10), NodeId(11)), 5);
        // Everything expires eventually.
        c.expire_parked(SimTime::from_secs(100), SimDuration::from_secs(3));
        assert_eq!(c.parked(), 0);
        assert!(parked_keys(&c).is_empty());
    }

    #[test]
    fn snapshot_keeps_global_park_order_and_resumes_identically() {
        let mut c = collector();
        park_three_jobs(&mut c);
        // Partial release, a committed map, a re-execution and a TTL
        // sweep, so every map is non-trivial and park order spans jobs.
        c.on_reducer_location(SimTime::from_secs(10), JobId(1), ReducerId(1), ServerId(2));
        c.on_reducer_location(SimTime::from_secs(11), JobId(0), ReducerId(0), ServerId(3));
        c.on_prediction(SimTime::from_secs(12), &job_msg(2, 0, 1, vec![9, 90], 12));
        // A TTL sweep across jobs 0 and 1 (entries parked at t ≤ 3 s)
        // leaves the survivors of three jobs in park order.
        assert_eq!(
            c.expire_parked(SimTime::from_secs(12), SimDuration::from_secs(9)),
            3
        );
        assert_eq!(
            parked_keys(&c),
            vec![(1, 1, 0), (0, 2, 1), (2, 0, 0), (2, 0, 1)]
        );
        let bytes = snapshot(&c);
        let mut c2 = collector();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("collector")
            .unwrap();
        c2.restore_state(&mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(snapshot(&c2), bytes);
        assert_eq!(parked_keys(&c2), parked_keys(&c));
        assert_eq!(c2.parked(), c.parked());
        // Both go on identically: new entries park behind the restored
        // ones, a restored committed map retracts in full, launches
        // release the same demands.
        for col in [&mut c, &mut c2] {
            col.on_prediction(SimTime::from_secs(13), &job_msg(1, 2, 3, vec![4, 40], 13));
        }
        assert_eq!(parked_keys(&c2), parked_keys(&c));
        let r1 = c.on_prediction(SimTime::from_secs(14), &job_msg(0, 1, 0, vec![1, 1], 14));
        let r2 = c2.on_prediction(SimTime::from_secs(14), &job_msg(0, 1, 0, vec![1, 1], 14));
        assert_eq!(r1, r2);
        assert_eq!(r1.retracted, vec![((NodeId(12), NodeId(13)), 300)]);
        for (job, reducer, server) in [(0, 1, 1), (1, 0, 0), (2, 1, 3), (2, 0, 2)] {
            let at = SimTime::from_secs(15);
            let d1 = c.on_reducer_location(at, JobId(job), ReducerId(reducer), ServerId(server));
            let d2 = c2.on_reducer_location(at, JobId(job), ReducerId(reducer), ServerId(server));
            assert_eq!(d1, d2);
        }
        assert_eq!(snapshot(&c2), snapshot(&c));
    }

    #[test]
    fn restore_against_different_cluster_is_a_typed_error() {
        let mut c = collector();
        c.on_prediction(SimTime::ZERO, &msg(0, 0, vec![500], 0));
        let bytes = snapshot(&c);
        // A cluster with a different server map must refuse the snapshot.
        let mut other = Collector::new((0..4).map(|i| NodeId(20 + i)).collect());
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("collector")
            .unwrap();
        match other.restore_state(&mut sec) {
            Err(pythia_snapshot::SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn parked_entry_with_known_location_is_a_typed_error() {
        // Hand-craft an impossible state: an entry parked for a reducer
        // whose location the same snapshot claims to know. A live
        // collector resolves such entries immediately, so this can only
        // come from corruption — restore must reject it.
        let server_nodes: Vec<NodeId> = (0..4).map(|i| NodeId(10 + i)).collect();
        let mut w = pythia_snapshot::Writer::new();
        w.section("collector", |s| {
            server_nodes.put(s);
            let mut loc = BTreeMap::new();
            loc.insert((JobId(0), ReducerId(0)), ServerId(1));
            loc.put(s);
            vec![PendingEntry {
                job: JobId(0),
                map: MapTaskId(0),
                src: ServerId(0),
                reducer: ReducerId(0),
                bytes: 500,
                parked_at: SimTime::ZERO,
            }]
            .put(s);
            BTreeMap::<(JobId, MapTaskId, ReducerId), CommittedFetch>::new().put(s);
            BTreeMap::<(JobId, MapTaskId), ServerId>::new().put(s);
            BTreeMap::<(NodeId, NodeId), u64>::new().put(s);
            BTreeMap::<NodeId, (f64, CumulativeCurve)>::new().put(s);
            for _ in 0..6 {
                0u64.put(s);
            }
        });
        let bytes = w.finish();
        let mut c = collector();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("collector")
            .unwrap();
        match c.restore_state(&mut sec) {
            Err(pythia_snapshot::SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
