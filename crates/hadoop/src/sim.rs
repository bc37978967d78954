//! The MapReduce runtime state machine (jobtracker + tasktrackers).
//!
//! [`MapReduceSim`] is pure logic: the cluster engine feeds it *inputs*
//! (time-stamped occurrences like "map finished" or "fetch completed") and
//! it returns *outputs* ([`HadoopEvent`]) telling the engine what to
//! schedule next (task finish timers, shuffle flows to start, spill index
//! files the instrumentation can decode). This mirrors the paper's split:
//! Hadoop runs obliviously; Pythia observes it from the outside.
//!
//! Faithfully modelled Hadoop 1.x mechanisms:
//! * slot-based task scheduling (map/reduce slots per tasktracker);
//! * reducer **slow-start** (reducers scheduled once a configured fraction
//!   of maps completed — the reason Pythia sees predictions with unknown
//!   reducer destinations, §III);
//! * per-map **spill index files** written at map completion;
//! * the copier's `parallel_copies`/one-per-host fetch discipline;
//! * the **shuffle barrier**: sort/reduce start only after every map
//!   output has been fetched.

use std::collections::{BTreeMap, VecDeque};

use pythia_des::{get_rng, put_rng, RngFactory, SimTime};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};
use rand::rngs::SmallRng;

use crate::config::HadoopConfig;
use crate::copier::{Copier, FetchRequest};
use crate::ids::{FetchId, MapTaskId, ReducerId, ServerId};
use crate::index_file::IndexFile;
use crate::job::JobSpec;

/// Outputs of the state machine — things the driving engine must act on.
#[derive(Debug, Clone)]
pub enum HadoopEvent {
    /// Schedule `map_finished(map)` at `at`.
    MapFinishAt {
        /// The finishing map task.
        map: MapTaskId,
        /// When its compute completes.
        at: SimTime,
    },
    /// A map task spilled its output: the index file is now on `server`'s
    /// local disk. This is the hook Pythia's instrumentation subscribes to.
    SpillIndex {
        /// The map task that spilled.
        map: MapTaskId,
        /// The tasktracker whose local disk holds the index file.
        server: ServerId,
        /// The encoded index file, exactly as written to disk.
        data: Vec<u8>,
    },
    /// Schedule `reducer_started(reducer)` at `at`: the reduce task's JVM
    /// is spawning on its assigned tasktracker.
    ReducerLaunchAt {
        /// The reducer being launched.
        reducer: ReducerId,
        /// When its JVM will be up.
        at: SimTime,
    },
    /// A reduce task is up on `server` (resolves a reducer's location and
    /// starts its copier).
    ReducerLaunched {
        /// The reducer that is now running.
        reducer: ReducerId,
        /// The tasktracker hosting it (resolves its network location).
        server: ServerId,
    },
    /// Start a shuffle fetch: a TCP transfer of `bytes` from the map-side
    /// tasktracker (`src`, serving port `src_port`) to the reducer
    /// (`dst:dst_port`). The engine must call `fetch_completed(fetch)`
    /// when the transfer finishes.
    FetchStart {
        /// Handle to pass back via `fetch_completed`.
        fetch: FetchId,
        /// The map task whose output is being fetched.
        map: MapTaskId,
        /// The fetching reducer.
        reducer: ReducerId,
        /// Map-side server (data source).
        src: ServerId,
        /// Reduce-side server (data sink).
        dst: ServerId,
        /// Application payload bytes of the partition.
        bytes: u64,
        /// Source port: the tasktracker HTTP port (50060).
        src_port: u16,
        /// Destination port: the copier's ephemeral port.
        dst_port: u16,
    },
    /// Schedule `sort_finished(reducer)` at `at`.
    SortFinishAt {
        /// The sorting reducer.
        reducer: ReducerId,
        /// When its merge-sort completes.
        at: SimTime,
    },
    /// Schedule `reducer_finished(reducer)` at `at`.
    ReducerFinishAt {
        /// The reducing/writing reducer.
        reducer: ReducerId,
        /// When its output write completes.
        at: SimTime,
    },
    /// Every reducer wrote its output; the job is done.
    JobCompleted {
        /// Completion instant.
        at: SimTime,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapState {
    Pending,
    Running,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReducerState {
    NotLaunched,
    /// Slot reserved, JVM spawning.
    Scheduled,
    Shuffling,
    Sorting,
    Reducing,
    Done,
}

/// Span of one task phase, for sequence diagrams and phase accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Phase start.
    pub start: SimTime,
    /// Phase end.
    pub end: SimTime,
}

/// Everything the metrics layer wants to know about one reducer.
#[derive(Debug, Clone)]
pub struct ReducerTimeline {
    /// The tasktracker the reducer ran on.
    pub server: ServerId,
    /// When the copier came up (post JVM spawn).
    pub launched_at: SimTime,
    /// When the last map output was fetched (barrier lift).
    pub shuffle_end: Option<SimTime>,
    /// When the merge-sort finished.
    pub sort_end: Option<SimTime>,
    /// When the reduce function + output write finished.
    pub finished_at: Option<SimTime>,
    /// Bytes copied from the reducer's own server (no network).
    pub local_bytes: u64,
    /// Bytes fetched over the network.
    pub remote_bytes: u64,
}

/// Per-job phase timestamps, filled in as the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// When the job was submitted.
    pub job_start: SimTime,
    /// When the last reducer finished (None while running).
    pub job_end: Option<SimTime>,
    /// Per-map-task placement and compute span.
    pub maps: BTreeMap<MapTaskId, (ServerId, TaskSpan)>,
    /// Per-reducer phase timestamps and byte counts.
    pub reducers: BTreeMap<ReducerId, ReducerTimeline>,
    /// Start of the first network fetch (shuffle-phase start).
    pub first_fetch_at: Option<SimTime>,
    /// End of the last network fetch (shuffle-phase end).
    pub last_fetch_end: Option<SimTime>,
}

impl Timeline {
    /// Job completion time (None until done).
    pub fn completion(&self) -> Option<pythia_des::SimDuration> {
        self.job_end.map(|e| e.saturating_since(self.job_start))
    }

    /// Shuffle-phase span: first fetch start to last fetch end.
    pub fn shuffle_span(&self) -> Option<TaskSpan> {
        match (self.first_fetch_at, self.last_fetch_end) {
            (Some(s), Some(e)) => Some(TaskSpan { start: s, end: e }),
            _ => None,
        }
    }
}

/// Metadata of an in-flight fetch.
#[derive(Debug, Clone, Copy)]
pub struct FetchMeta {
    /// The map task whose output is fetched.
    pub map: MapTaskId,
    /// The fetching reducer.
    pub reducer: ReducerId,
    /// Map-side server.
    pub src: ServerId,
    /// Reduce-side server.
    pub dst: ServerId,
    /// Application payload bytes.
    pub bytes: u64,
}

/// The MapReduce runtime state machine. See module docs for the driving
/// contract.
pub struct MapReduceSim {
    cfg: HadoopConfig,
    spec: JobSpec,
    servers: Vec<ServerId>,

    map_state: Vec<MapState>,
    map_server: Vec<ServerId>,
    pending_maps: VecDeque<MapTaskId>,
    running_maps_per_server: BTreeMap<ServerId, usize>,
    completed_maps: usize,
    /// Completion order, for announcing outputs to late-launching reducers.
    done_order: Vec<MapTaskId>,
    /// Per-map per-reducer partition bytes, filled at spill time.
    map_partitions: Vec<Option<Vec<u64>>>,

    reducer_state: Vec<ReducerState>,
    reducer_server: Vec<ServerId>,
    copiers: BTreeMap<ReducerId, Copier>,
    reducers_launched: bool,
    pending_reducers: VecDeque<ReducerId>,
    running_reducers_per_server: BTreeMap<ServerId, usize>,
    finished_reducers: usize,

    fetches: BTreeMap<FetchId, FetchMeta>,
    next_fetch_id: u64,
    /// Per-reducer-server ephemeral port allocator.
    next_ephemeral_port: BTreeMap<ServerId, u16>,

    rng: SmallRng,
    /// Phase timestamps, readable at any point during the run.
    pub timeline: Timeline,
    started: bool,
    job_done: bool,
}

impl MapReduceSim {
    /// Create a job over the given tasktracker servers.
    pub fn new(
        cfg: HadoopConfig,
        spec: JobSpec,
        servers: Vec<ServerId>,
        rngs: &RngFactory,
    ) -> Self {
        cfg.validate().expect("invalid HadoopConfig");
        spec.validate().expect("invalid JobSpec");
        assert!(!servers.is_empty(), "need at least one server");
        let num_maps = spec.num_maps;
        let num_reducers = spec.num_reducers;
        assert!(
            num_reducers <= servers.len() * cfg.reduce_slots_per_server,
            "not enough reduce slots for {num_reducers} reducers"
        );
        MapReduceSim {
            rng: rngs.stream("hadoop-task-durations"),
            map_state: vec![MapState::Pending; num_maps],
            map_server: vec![ServerId(0); num_maps],
            pending_maps: (0..num_maps as u32).map(MapTaskId).collect(),
            running_maps_per_server: servers.iter().map(|&s| (s, 0)).collect(),
            completed_maps: 0,
            done_order: Vec::new(),
            map_partitions: vec![None; num_maps],
            reducer_state: vec![ReducerState::NotLaunched; num_reducers],
            reducer_server: vec![ServerId(0); num_reducers],
            copiers: BTreeMap::new(),
            reducers_launched: false,
            pending_reducers: VecDeque::new(),
            running_reducers_per_server: servers.iter().map(|&s| (s, 0)).collect(),
            finished_reducers: 0,
            fetches: BTreeMap::new(),
            next_fetch_id: 0,
            next_ephemeral_port: BTreeMap::new(),
            timeline: Timeline::default(),
            started: false,
            job_done: false,
            cfg,
            spec,
            servers,
        }
    }

    /// The framework configuration in force.
    pub fn config(&self) -> &HadoopConfig {
        &self.cfg
    }

    /// The job being executed.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The tasktracker servers of the cluster.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Where a map task ran (valid once it has been scheduled).
    pub fn map_location(&self, m: MapTaskId) -> ServerId {
        self.map_server[m.0 as usize]
    }

    /// Where a reducer runs (valid once launched).
    pub fn reducer_location(&self, r: ReducerId) -> ServerId {
        self.reducer_server[r.0 as usize]
    }

    /// A restarted instrumentation middleware re-scans the tasktrackers'
    /// intermediate-output directories and sees every spill index still
    /// on disk: re-emit a [`HadoopEvent::SpillIndex`] per completed map,
    /// in completion order, byte-identical to the originals. Purely
    /// observational — no Hadoop state changes; downstream consumers must
    /// deduplicate (the Pythia collector keys by `(job, map)`).
    pub fn respill_completed(&self) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.respill_completed_into(&mut out);
        out
    }

    /// [`Self::respill_completed`] into a caller-owned buffer, so a hot
    /// dispatch loop can reuse its scratch allocation. Appends; does not
    /// clear.
    pub fn respill_completed_into(&self, out: &mut Vec<HadoopEvent>) {
        for &m in &self.done_order {
            let parts = self.map_partitions[m.0 as usize]
                .as_ref()
                .expect("completed map has partition sizes");
            let index = IndexFile::from_partition_sizes(parts, 1.0);
            out.push(HadoopEvent::SpillIndex {
                map: m,
                server: self.map_server[m.0 as usize],
                data: index.encode(),
            });
        }
    }

    /// Metadata of an in-flight fetch.
    pub fn fetch_meta(&self, f: FetchId) -> Option<&FetchMeta> {
        self.fetches.get(&f)
    }

    /// True once every reducer has written its output.
    pub fn is_done(&self) -> bool {
        self.job_done
    }

    /// Map tasks completed so far.
    pub fn completed_maps(&self) -> usize {
        self.completed_maps
    }

    // ---------------------------------------------------------------- start

    /// Begin the job: fill every map slot, and launch reducers right away
    /// if slow-start is zero.
    pub fn start(&mut self, now: SimTime) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.start_into(now, &mut out);
        out
    }

    /// [`Self::start`] into a caller-owned buffer. Appends; does not
    /// clear.
    pub fn start_into(&mut self, now: SimTime, out: &mut Vec<HadoopEvent>) {
        assert!(!self.started, "job already started");
        self.started = true;
        self.timeline.job_start = now;
        self.fill_map_slots(now, out);
        self.maybe_launch_reducers(now, out);
    }

    fn fill_map_slots(&mut self, now: SimTime, out: &mut Vec<HadoopEvent>) {
        // Round-robin over servers, filling free slots.
        loop {
            let mut assigned_any = false;
            for &s in &self.servers.clone() {
                if self.pending_maps.is_empty() {
                    return;
                }
                let running = self.running_maps_per_server.get_mut(&s).unwrap();
                if *running < self.cfg.map_slots_per_server {
                    let m = self.pending_maps.pop_front().unwrap();
                    *running += 1;
                    self.start_map(now, m, s, out);
                    assigned_any = true;
                }
            }
            if !assigned_any {
                return;
            }
        }
    }

    fn start_map(&mut self, now: SimTime, m: MapTaskId, s: ServerId, out: &mut Vec<HadoopEvent>) {
        let idx = m.0 as usize;
        debug_assert_eq!(self.map_state[idx], MapState::Pending);
        self.map_state[idx] = MapState::Running;
        self.map_server[idx] = s;
        let dur = self
            .spec
            .map_duration
            .sample(self.spec.split_bytes(), &mut self.rng);
        let at = now + dur;
        self.timeline.maps.insert(
            m,
            (
                s,
                TaskSpan {
                    start: now,
                    end: at,
                },
            ),
        );
        out.push(HadoopEvent::MapFinishAt { map: m, at });
    }

    // --------------------------------------------------------- map finished

    /// Input: the map-finish timer fired.
    pub fn map_finished(&mut self, now: SimTime, m: MapTaskId) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.map_finished_into(now, m, &mut out);
        out
    }

    /// [`Self::map_finished`] into a caller-owned buffer. Appends; does
    /// not clear.
    pub fn map_finished_into(&mut self, now: SimTime, m: MapTaskId, out: &mut Vec<HadoopEvent>) {
        let idx = m.0 as usize;
        assert_eq!(
            self.map_state[idx],
            MapState::Running,
            "map {m} not running"
        );
        self.map_state[idx] = MapState::Done;
        self.completed_maps += 1;
        self.done_order.push(m);
        let server = self.map_server[idx];
        // Record the true end (the scheduled estimate is authoritative).
        if let Some((_, span)) = self.timeline.maps.get_mut(&m) {
            span.end = now;
        }

        // Spill: compute partition sizes, write the index file.
        let parts = self.spec.partitioner.partition(
            idx,
            self.spec.map_output_bytes(),
            self.spec.num_reducers,
        );
        let index = IndexFile::from_partition_sizes(&parts, 1.0);
        out.push(HadoopEvent::SpillIndex {
            map: m,
            server,
            data: index.encode(),
        });
        self.map_partitions[idx] = Some(parts);

        // Free the slot and start the next pending map.
        *self.running_maps_per_server.get_mut(&server).unwrap() -= 1;
        self.fill_map_slots(now, out);

        // Announce the new output to every already-launched copier, then
        // run the slow-start check: a reducer launched *by this very
        // completion* replays the full done_order (which now includes this
        // map), so announcing first avoids double-announcing it.
        self.announce_to_copiers(now, m, out);
        self.maybe_launch_reducers(now, out);
    }

    fn slowstart_reached(&self) -> bool {
        let need = (self.cfg.slowstart_completed_maps * self.spec.num_maps as f64).ceil() as usize;
        self.completed_maps >= need
    }

    fn maybe_launch_reducers(&mut self, now: SimTime, out: &mut Vec<HadoopEvent>) {
        if self.reducers_launched || !self.slowstart_reached() {
            return;
        }
        self.reducers_launched = true;
        self.pending_reducers = (0..self.spec.num_reducers as u32).map(ReducerId).collect();
        self.launch_pending_reducers(now, out);
    }

    fn launch_pending_reducers(&mut self, now: SimTime, out: &mut Vec<HadoopEvent>) {
        // Round-robin reducers over servers with free reduce slots.
        loop {
            let mut assigned_any = false;
            for &s in &self.servers.clone() {
                if self.pending_reducers.is_empty() {
                    return;
                }
                let running = self.running_reducers_per_server.get_mut(&s).unwrap();
                if *running < self.cfg.reduce_slots_per_server {
                    let r = self.pending_reducers.pop_front().unwrap();
                    *running += 1;
                    self.schedule_reducer(now, r, s, out);
                    assigned_any = true;
                }
            }
            if !assigned_any {
                return;
            }
        }
    }

    /// Reserve the slot and start the task JVM; the copier comes up after
    /// `reducer_launch_overhead`.
    fn schedule_reducer(
        &mut self,
        now: SimTime,
        r: ReducerId,
        s: ServerId,
        out: &mut Vec<HadoopEvent>,
    ) {
        let idx = r.0 as usize;
        debug_assert_eq!(self.reducer_state[idx], ReducerState::NotLaunched);
        self.reducer_state[idx] = ReducerState::Scheduled;
        self.reducer_server[idx] = s;
        out.push(HadoopEvent::ReducerLaunchAt {
            reducer: r,
            at: now + self.cfg.reducer_launch_overhead,
        });
    }

    /// Input: the reduce task's JVM is up; start shuffling.
    pub fn reducer_started(&mut self, now: SimTime, r: ReducerId) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.reducer_started_into(now, r, &mut out);
        out
    }

    /// [`Self::reducer_started`] into a caller-owned buffer. Appends;
    /// does not clear.
    pub fn reducer_started_into(&mut self, now: SimTime, r: ReducerId, out: &mut Vec<HadoopEvent>) {
        let idx = r.0 as usize;
        assert_eq!(
            self.reducer_state[idx],
            ReducerState::Scheduled,
            "reducer {r} not scheduled"
        );
        let s = self.reducer_server[idx];
        self.reducer_state[idx] = ReducerState::Shuffling;
        self.timeline.reducers.insert(
            r,
            ReducerTimeline {
                server: s,
                launched_at: now,
                shuffle_end: None,
                sort_end: None,
                finished_at: None,
                local_bytes: 0,
                remote_bytes: 0,
            },
        );
        out.push(HadoopEvent::ReducerLaunched {
            reducer: r,
            server: s,
        });
        let mut copier = Copier::new(s, self.spec.num_maps, self.cfg.parallel_copies);
        // Announce everything already spilled, in completion order.
        let mut requests: Vec<(ReducerId, Vec<FetchRequest>)> = Vec::new();
        for &m in &self.done_order {
            let bytes = self.map_partitions[m.0 as usize].as_ref().unwrap()[idx];
            let reqs = copier.announce_map_output(m, self.map_server[m.0 as usize], bytes);
            if !reqs.is_empty() {
                requests.push((r, reqs));
            }
        }
        self.copiers.insert(r, copier);
        for (rr, reqs) in requests {
            for req in reqs {
                self.emit_fetch(now, rr, req, out);
            }
        }
        // All maps might already be done and all partitions empty/local.
        self.check_shuffle_barrier(now, r, out);
    }

    fn announce_to_copiers(&mut self, now: SimTime, m: MapTaskId, out: &mut Vec<HadoopEvent>) {
        let src = self.map_server[m.0 as usize];
        let reducer_ids: Vec<ReducerId> = self.copiers.keys().copied().collect();
        for r in reducer_ids {
            if self.reducer_state[r.0 as usize] != ReducerState::Shuffling {
                continue;
            }
            let bytes = self.map_partitions[m.0 as usize].as_ref().unwrap()[r.0 as usize];
            let reqs = self
                .copiers
                .get_mut(&r)
                .unwrap()
                .announce_map_output(m, src, bytes);
            for req in reqs {
                self.emit_fetch(now, r, req, out);
            }
            self.check_shuffle_barrier(now, r, out);
        }
    }

    fn emit_fetch(
        &mut self,
        now: SimTime,
        r: ReducerId,
        req: FetchRequest,
        out: &mut Vec<HadoopEvent>,
    ) {
        let fetch = FetchId(self.next_fetch_id);
        self.next_fetch_id += 1;
        let dst = self.reducer_server[r.0 as usize];
        let port = self.next_ephemeral_port.entry(dst).or_insert(40000);
        let dst_port = *port;
        *port = port.checked_add(1).unwrap_or(40000);
        self.fetches.insert(
            fetch,
            FetchMeta {
                map: req.map,
                reducer: r,
                src: req.src_server,
                dst,
                bytes: req.bytes,
            },
        );
        if self.timeline.first_fetch_at.is_none() {
            self.timeline.first_fetch_at = Some(now);
        }
        out.push(HadoopEvent::FetchStart {
            fetch,
            map: req.map,
            reducer: r,
            src: req.src_server,
            dst,
            bytes: req.bytes,
            src_port: self.cfg.shuffle_port,
            dst_port,
        });
    }

    // ------------------------------------------------------ fetch completed

    /// Input: a shuffle flow finished on the network.
    pub fn fetch_completed(&mut self, now: SimTime, fetch: FetchId) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.fetch_completed_into(now, fetch, &mut out);
        out
    }

    /// [`Self::fetch_completed`] into a caller-owned buffer. Appends;
    /// does not clear.
    pub fn fetch_completed_into(
        &mut self,
        now: SimTime,
        fetch: FetchId,
        out: &mut Vec<HadoopEvent>,
    ) {
        let meta = self
            .fetches
            .remove(&fetch)
            .expect("completion of unknown fetch");
        let r = meta.reducer;
        self.timeline.last_fetch_end = Some(now);
        let reqs = self
            .copiers
            .get_mut(&r)
            .unwrap()
            .fetch_completed(meta.src, meta.bytes);
        for req in reqs {
            self.emit_fetch(now, r, req, out);
        }
        self.check_shuffle_barrier(now, r, out);
    }

    fn check_shuffle_barrier(&mut self, now: SimTime, r: ReducerId, out: &mut Vec<HadoopEvent>) {
        let idx = r.0 as usize;
        if self.reducer_state[idx] != ReducerState::Shuffling {
            return;
        }
        // The barrier needs every map *completed and fetched*.
        if self.completed_maps != self.spec.num_maps {
            return;
        }
        let copier = &self.copiers[&r];
        if !copier.all_fetched() {
            return;
        }
        self.reducer_state[idx] = ReducerState::Sorting;
        let total = copier.local_bytes + copier.remote_bytes;
        if let Some(tl) = self.timeline.reducers.get_mut(&r) {
            tl.shuffle_end = Some(now);
            tl.local_bytes = copier.local_bytes;
            tl.remote_bytes = copier.remote_bytes;
        }
        let dur = self.spec.sort_duration.sample(total, &mut self.rng);
        out.push(HadoopEvent::SortFinishAt {
            reducer: r,
            at: now + dur,
        });
    }

    // -------------------------------------------------------- sort finished

    /// Input: the sort timer fired.
    pub fn sort_finished(&mut self, now: SimTime, r: ReducerId) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.sort_finished_into(now, r, &mut out);
        out
    }

    /// [`Self::sort_finished`] into a caller-owned buffer. Appends; does
    /// not clear.
    pub fn sort_finished_into(&mut self, now: SimTime, r: ReducerId, out: &mut Vec<HadoopEvent>) {
        let idx = r.0 as usize;
        assert_eq!(self.reducer_state[idx], ReducerState::Sorting);
        self.reducer_state[idx] = ReducerState::Reducing;
        let tl = self.timeline.reducers.get_mut(&r).unwrap();
        tl.sort_end = Some(now);
        let total = tl.local_bytes + tl.remote_bytes;
        let dur = self.spec.reduce_duration.sample(total, &mut self.rng);
        out.push(HadoopEvent::ReducerFinishAt {
            reducer: r,
            at: now + dur,
        });
    }

    // ----------------------------------------------------- reducer finished

    /// Input: the reduce+write timer fired.
    pub fn reducer_finished(&mut self, now: SimTime, r: ReducerId) -> Vec<HadoopEvent> {
        let mut out = Vec::new();
        self.reducer_finished_into(now, r, &mut out);
        out
    }

    /// [`Self::reducer_finished`] into a caller-owned buffer. Appends;
    /// does not clear.
    pub fn reducer_finished_into(
        &mut self,
        now: SimTime,
        r: ReducerId,
        out: &mut Vec<HadoopEvent>,
    ) {
        let idx = r.0 as usize;
        assert_eq!(self.reducer_state[idx], ReducerState::Reducing);
        self.reducer_state[idx] = ReducerState::Done;
        self.finished_reducers += 1;
        let server = self.reducer_server[idx];
        self.timeline.reducers.get_mut(&r).unwrap().finished_at = Some(now);
        *self.running_reducers_per_server.get_mut(&server).unwrap() -= 1;
        // Slot freed: launch any reducer still waiting for a slot.
        self.launch_pending_reducers(now, out);
        if self.finished_reducers == self.spec.num_reducers {
            self.job_done = true;
            self.timeline.job_end = Some(now);
            out.push(HadoopEvent::JobCompleted { at: now });
        }
    }

    // ------------------------------------------------------------- snapshot

    /// Serialize the runtime's mutable state. Config, job spec, and server
    /// list are *not* written: they derive from the scenario, and the
    /// restore path rebuilds the sim from them before overlaying this
    /// state (the partitioner is a trait object and can't round-trip
    /// through bytes anyway).
    pub fn put_state(&self, w: &mut SectionWriter) {
        self.map_state.put(w);
        self.map_server.put(w);
        self.pending_maps.iter().copied().collect::<Vec<_>>().put(w);
        self.running_maps_per_server
            .iter()
            .map(|(&s, &n)| (s, n as u64))
            .collect::<BTreeMap<_, _>>()
            .put(w);
        (self.completed_maps as u64).put(w);
        self.done_order.put(w);
        self.map_partitions.put(w);
        self.reducer_state.put(w);
        self.reducer_server.put(w);
        self.copiers.put(w);
        self.reducers_launched.put(w);
        self.pending_reducers
            .iter()
            .copied()
            .collect::<Vec<_>>()
            .put(w);
        self.running_reducers_per_server
            .iter()
            .map(|(&s, &n)| (s, n as u64))
            .collect::<BTreeMap<_, _>>()
            .put(w);
        (self.finished_reducers as u64).put(w);
        self.fetches.put(w);
        self.next_fetch_id.put(w);
        self.next_ephemeral_port.put(w);
        put_rng(w, &self.rng);
        self.timeline.put(w);
        self.started.put(w);
        self.job_done.put(w);
    }

    /// Overlay state from [`MapReduceSim::put_state`] bytes onto this
    /// freshly-built sim (same config, spec, and servers as at snapshot
    /// time), validating sizes and cross-references against the spec.
    pub fn restore_state(&mut self, r: &mut SectionReader) -> Result<(), SnapshotError> {
        let num_maps = self.spec.num_maps;
        let num_reducers = self.spec.num_reducers;
        let map_state = Vec::<MapState>::get(r)?;
        let map_server = Vec::<ServerId>::get(r)?;
        if map_state.len() != num_maps || map_server.len() != num_maps {
            return Err(r.malformed("map table lengths != spec.num_maps"));
        }
        let pending_maps: VecDeque<MapTaskId> = Vec::<MapTaskId>::get(r)?.into();
        let running_maps = <BTreeMap<ServerId, u64> as Persist>::get(r)?;
        let completed_maps = u64::get(r)? as usize;
        let done_order = Vec::<MapTaskId>::get(r)?;
        let map_partitions = Vec::<Option<Vec<u64>>>::get(r)?;
        if map_partitions.len() != num_maps {
            return Err(r.malformed("partition table length != spec.num_maps"));
        }
        if done_order.len() != completed_maps {
            return Err(r.malformed("done_order length != completed_maps"));
        }
        for &m in pending_maps.iter().chain(done_order.iter()) {
            if m.0 as usize >= num_maps {
                return Err(r.malformed(format!("map id {m} out of range")));
            }
        }
        for (i, p) in map_partitions.iter().enumerate() {
            let done = map_state[i] == MapState::Done;
            match p {
                Some(parts) if parts.len() != num_reducers => {
                    return Err(r.malformed("partition row length != spec.num_reducers"));
                }
                Some(_) if !done => {
                    return Err(r.malformed("partition sizes for an unfinished map"));
                }
                None if done => {
                    return Err(r.malformed("completed map missing partition sizes"));
                }
                _ => {}
            }
        }
        let reducer_state = Vec::<ReducerState>::get(r)?;
        let reducer_server = Vec::<ServerId>::get(r)?;
        if reducer_state.len() != num_reducers || reducer_server.len() != num_reducers {
            return Err(r.malformed("reducer table lengths != spec.num_reducers"));
        }
        let copiers = <BTreeMap<ReducerId, Copier> as Persist>::get(r)?;
        for &rr in copiers.keys() {
            if rr.0 as usize >= num_reducers {
                return Err(r.malformed(format!("copier for unknown reducer {rr}")));
            }
        }
        let reducers_launched = bool::get(r)?;
        let pending_reducers: VecDeque<ReducerId> = Vec::<ReducerId>::get(r)?.into();
        let running_reducers = <BTreeMap<ServerId, u64> as Persist>::get(r)?;
        let finished_reducers = u64::get(r)? as usize;
        let fetches = <BTreeMap<FetchId, FetchMeta> as Persist>::get(r)?;
        let next_fetch_id = u64::get(r)?;
        for (&f, meta) in &fetches {
            if f.0 >= next_fetch_id {
                return Err(r.malformed(format!("fetch id {f} >= next_fetch_id")));
            }
            if meta.map.0 as usize >= num_maps || meta.reducer.0 as usize >= num_reducers {
                return Err(r.malformed("in-flight fetch references unknown task"));
            }
        }
        let next_ephemeral_port = <BTreeMap<ServerId, u16> as Persist>::get(r)?;
        let rng = get_rng(r)?;
        let timeline = Timeline::get(r)?;
        let started = bool::get(r)?;
        let job_done = bool::get(r)?;
        let server_set: std::collections::BTreeSet<ServerId> =
            self.servers.iter().copied().collect();
        for map in [&running_maps, &running_reducers] {
            if !map.keys().all(|s| server_set.contains(s)) {
                return Err(r.malformed("slot table references unknown server"));
            }
        }
        self.map_state = map_state;
        self.map_server = map_server;
        self.pending_maps = pending_maps;
        self.running_maps_per_server = running_maps
            .into_iter()
            .map(|(s, n)| (s, n as usize))
            .collect();
        self.completed_maps = completed_maps;
        self.done_order = done_order;
        self.map_partitions = map_partitions;
        self.reducer_state = reducer_state;
        self.reducer_server = reducer_server;
        self.copiers = copiers;
        self.reducers_launched = reducers_launched;
        self.pending_reducers = pending_reducers;
        self.running_reducers_per_server = running_reducers
            .into_iter()
            .map(|(s, n)| (s, n as usize))
            .collect();
        self.finished_reducers = finished_reducers;
        self.fetches = fetches;
        self.next_fetch_id = next_fetch_id;
        self.next_ephemeral_port = next_ephemeral_port;
        self.rng = rng;
        self.timeline = timeline;
        self.started = started;
        self.job_done = job_done;
        Ok(())
    }
}

impl Persist for MapState {
    fn put(&self, w: &mut SectionWriter) {
        let tag: u8 = match self {
            MapState::Pending => 0,
            MapState::Running => 1,
            MapState::Done => 2,
        };
        tag.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(MapState::Pending),
            1 => Ok(MapState::Running),
            2 => Ok(MapState::Done),
            t => Err(r.malformed(format!("unknown map state tag {t}"))),
        }
    }
}

impl Persist for ReducerState {
    fn put(&self, w: &mut SectionWriter) {
        let tag: u8 = match self {
            ReducerState::NotLaunched => 0,
            ReducerState::Scheduled => 1,
            ReducerState::Shuffling => 2,
            ReducerState::Sorting => 3,
            ReducerState::Reducing => 4,
            ReducerState::Done => 5,
        };
        tag.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(ReducerState::NotLaunched),
            1 => Ok(ReducerState::Scheduled),
            2 => Ok(ReducerState::Shuffling),
            3 => Ok(ReducerState::Sorting),
            4 => Ok(ReducerState::Reducing),
            5 => Ok(ReducerState::Done),
            t => Err(r.malformed(format!("unknown reducer state tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DurationModel, UniformPartitioner, WeightedPartitioner};
    use pythia_des::SimDuration;

    fn cfg() -> HadoopConfig {
        HadoopConfig {
            map_slots_per_server: 2,
            reduce_slots_per_server: 2,
            parallel_copies: 5,
            slowstart_completed_maps: 0.05,
            reducer_launch_overhead: pythia_des::SimDuration::ZERO,
            ..Default::default()
        }
    }

    fn spec(maps: usize, reducers: usize) -> JobSpec {
        JobSpec {
            name: "test".into(),
            num_maps: maps,
            num_reducers: reducers,
            input_bytes: (maps as u64) * 1000,
            map_output_ratio: 1.0,
            map_duration: DurationModel::fixed(SimDuration::from_secs(10)),
            sort_duration: DurationModel::fixed(SimDuration::from_secs(1)),
            reduce_duration: DurationModel::fixed(SimDuration::from_secs(2)),
            partitioner: Box::new(UniformPartitioner),
        }
    }

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    /// Drive the sim to completion with "instant network": every fetch
    /// completes `delay` after it starts. Returns the timeline.
    fn drive(mut sim: MapReduceSim, fetch_delay: SimDuration) -> Timeline {
        use pythia_des::EventQueue;
        #[derive(Debug)]
        enum Ev {
            MapDone(MapTaskId),
            ReducerStart(ReducerId),
            FetchDone(FetchId),
            SortDone(ReducerId),
            ReduceDone(ReducerId),
        }
        let mut q = EventQueue::new();
        let handle = |evts: Vec<HadoopEvent>, q: &mut EventQueue<Ev>, now: SimTime| {
            for e in evts {
                match e {
                    HadoopEvent::MapFinishAt { map, at } => {
                        q.push(at, Ev::MapDone(map));
                    }
                    HadoopEvent::ReducerLaunchAt { reducer, at } => {
                        q.push(at, Ev::ReducerStart(reducer));
                    }
                    HadoopEvent::FetchStart { fetch, .. } => {
                        q.push(now + fetch_delay, Ev::FetchDone(fetch));
                    }
                    HadoopEvent::SortFinishAt { reducer, at } => {
                        q.push(at, Ev::SortDone(reducer));
                    }
                    HadoopEvent::ReducerFinishAt { reducer, at } => {
                        q.push(at, Ev::ReduceDone(reducer));
                    }
                    HadoopEvent::SpillIndex { .. }
                    | HadoopEvent::ReducerLaunched { .. }
                    | HadoopEvent::JobCompleted { .. } => {}
                }
            }
        };
        let evts = sim.start(SimTime::ZERO);
        handle(evts, &mut q, SimTime::ZERO);
        let mut guard = 0u64;
        while let Some((now, _, ev)) = q.pop() {
            guard += 1;
            assert!(guard < 1_000_000, "runaway simulation");
            let evts = match ev {
                Ev::MapDone(m) => sim.map_finished(now, m),
                Ev::ReducerStart(r) => sim.reducer_started(now, r),
                Ev::FetchDone(f) => sim.fetch_completed(now, f),
                Ev::SortDone(r) => sim.sort_finished(now, r),
                Ev::ReduceDone(r) => sim.reducer_finished(now, r),
            };
            handle(evts, &mut q, now);
        }
        assert!(sim.is_done(), "job did not complete");
        sim.timeline
    }

    #[test]
    fn toy_job_completes_with_correct_phases() {
        let sim = MapReduceSim::new(cfg(), spec(3, 2), servers(3), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(100));
        assert_eq!(tl.maps.len(), 3);
        assert_eq!(tl.reducers.len(), 2);
        // Maps run in parallel (3 servers × 2 slots): all end at 10 s.
        for (_, span) in tl.maps.values() {
            assert_eq!(span.start, SimTime::ZERO);
            assert_eq!(span.end, SimTime::from_secs(10));
        }
        // Then shuffle (0.1 s waves) → sort (1 s) → reduce (2 s).
        let end = tl.job_end.unwrap();
        assert!(end > SimTime::from_secs(13), "end {end}");
        assert!(end < SimTime::from_secs(14), "end {end}");
    }

    #[test]
    fn respill_replays_identical_spill_indices() {
        let mut sim = MapReduceSim::new(cfg(), spec(3, 2), servers(3), &RngFactory::new(1));
        let mut finish: Vec<(SimTime, MapTaskId)> = Vec::new();
        for e in sim.start(SimTime::ZERO) {
            if let HadoopEvent::MapFinishAt { map, at } = e {
                finish.push((at, map));
            }
        }
        assert!(sim.respill_completed().is_empty(), "nothing spilled yet");
        let mut originals = Vec::new();
        for (at, m) in finish {
            for e in sim.map_finished(at, m) {
                if let HadoopEvent::SpillIndex { map, server, data } = e {
                    originals.push((map, server, data));
                }
            }
        }
        assert_eq!(originals.len(), 3);
        let replay: Vec<_> = sim
            .respill_completed()
            .into_iter()
            .map(|e| match e {
                HadoopEvent::SpillIndex { map, server, data } => (map, server, data),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(replay, originals, "replay must be byte-identical");
    }

    #[test]
    fn slot_limit_serializes_maps() {
        // 4 maps on 1 server with 2 slots: two waves of 10 s.
        let sim = MapReduceSim::new(cfg(), spec(4, 1), servers(1), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(1));
        let mut ends: Vec<SimTime> = tl.maps.values().map(|&(_, s)| s.end).collect();
        ends.sort();
        assert_eq!(ends[0], SimTime::from_secs(10));
        assert_eq!(ends[3], SimTime::from_secs(20));
    }

    #[test]
    fn slowstart_delays_reducer_launch() {
        // 20 maps, 2 per server wave; slowstart 0.5 ⇒ reducers launch only
        // after 10 maps completed (at t=10s with 10 servers × 2 slots... use
        // 5 servers × 2 = 10 concurrent; second wave ends t=20).
        let mut c = cfg();
        c.slowstart_completed_maps = 0.5;
        let sim = MapReduceSim::new(c, spec(20, 2), servers(5), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(1));
        for r in tl.reducers.values() {
            assert!(r.launched_at >= SimTime::from_secs(10));
        }
    }

    #[test]
    fn reducer_launch_overhead_delays_first_fetch() {
        let mut c = cfg();
        c.slowstart_completed_maps = 0.0;
        c.reducer_launch_overhead = SimDuration::from_secs(3);
        let sim = MapReduceSim::new(c, spec(4, 2), servers(2), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(1));
        // Reducers scheduled at t=0, copiers up at t=3.
        for r in tl.reducers.values() {
            assert_eq!(r.launched_at, SimTime::from_secs(3));
        }
        assert!(tl.first_fetch_at.unwrap() >= SimTime::from_secs(3));
    }

    #[test]
    fn zero_slowstart_launches_reducers_at_start() {
        let mut c = cfg();
        c.slowstart_completed_maps = 0.0;
        let sim = MapReduceSim::new(c, spec(4, 2), servers(2), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(1));
        for r in tl.reducers.values() {
            assert_eq!(r.launched_at, SimTime::ZERO);
        }
    }

    #[test]
    fn skewed_partitioner_shows_in_reducer_bytes() {
        let mut s = spec(4, 2);
        s.partitioner = Box::new(WeightedPartitioner::new(vec![5.0, 1.0]));
        let sim = MapReduceSim::new(cfg(), s, servers(4), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_millis(1));
        let r0 = &tl.reducers[&ReducerId(0)];
        let r1 = &tl.reducers[&ReducerId(1)];
        let b0 = r0.local_bytes + r0.remote_bytes;
        let b1 = r1.local_bytes + r1.remote_bytes;
        assert!(b0 >= 4 * b1, "skew not reflected: {b0} vs {b1}");
        // Byte conservation: all intermediate output lands somewhere.
        assert_eq!(b0 + b1, 4 * 1000);
    }

    #[test]
    fn barrier_holds_until_last_fetch() {
        let sim = MapReduceSim::new(cfg(), spec(6, 1), servers(3), &RngFactory::new(1));
        let tl = drive(sim, SimDuration::from_secs(2));
        let r = &tl.reducers[&ReducerId(0)];
        let shuffle_end = r.shuffle_end.unwrap();
        assert_eq!(tl.last_fetch_end.unwrap(), shuffle_end);
        assert!(r.sort_end.unwrap() > shuffle_end);
        assert!(r.finished_at.unwrap() > r.sort_end.unwrap());
    }

    #[test]
    fn reducer_slot_shortage_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            MapReduceSim::new(cfg(), spec(2, 5), servers(2), &RngFactory::new(1))
        });
        assert!(result.is_err(), "5 reducers on 4 slots must panic");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = spec(10, 3);
            s.map_duration = DurationModel::rate(SimDuration::from_secs(5), 1e6, 0.2);
            let sim = MapReduceSim::new(cfg(), s, servers(5), &RngFactory::new(seed));
            drive(sim, SimDuration::from_millis(10)).job_end.unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn snapshot_mid_shuffle_resumes_identically() {
        use pythia_des::EventQueue;
        #[derive(Debug, Clone)]
        enum Ev {
            MapDone(MapTaskId),
            ReducerStart(ReducerId),
            FetchDone(FetchId),
            SortDone(ReducerId),
            ReduceDone(ReducerId),
        }
        let fetch_delay = SimDuration::from_millis(100);
        let mk = || MapReduceSim::new(cfg(), spec(6, 2), servers(3), &RngFactory::new(11));
        let handle = |evts: Vec<HadoopEvent>, q: &mut EventQueue<Ev>, now: SimTime| {
            for e in evts {
                match e {
                    HadoopEvent::MapFinishAt { map, at } => {
                        q.push(at, Ev::MapDone(map));
                    }
                    HadoopEvent::ReducerLaunchAt { reducer, at } => {
                        q.push(at, Ev::ReducerStart(reducer));
                    }
                    HadoopEvent::FetchStart { fetch, .. } => {
                        q.push(now + fetch_delay, Ev::FetchDone(fetch));
                    }
                    HadoopEvent::SortFinishAt { reducer, at } => {
                        q.push(at, Ev::SortDone(reducer));
                    }
                    HadoopEvent::ReducerFinishAt { reducer, at } => {
                        q.push(at, Ev::ReduceDone(reducer));
                    }
                    _ => {}
                }
            }
        };
        let dispatch = |sim: &mut MapReduceSim, now: SimTime, ev: Ev| match ev {
            Ev::MapDone(m) => sim.map_finished(now, m),
            Ev::ReducerStart(r) => sim.reducer_started(now, r),
            Ev::FetchDone(f) => sim.fetch_completed(now, f),
            Ev::SortDone(r) => sim.sort_finished(now, r),
            Ev::ReduceDone(r) => sim.reducer_finished(now, r),
        };
        let snap = |sim: &MapReduceSim| {
            let mut w = pythia_snapshot::Writer::new();
            w.section("mr", |s| sim.put_state(s));
            w.finish()
        };

        let mut sim = mk();
        let mut q = EventQueue::new();
        handle(sim.start(SimTime::ZERO), &mut q, SimTime::ZERO);
        // Run up to mid-shuffle: stop once fetches are in flight.
        let mut steps = 0;
        while sim.fetches.is_empty() || steps < 9 {
            let (now, _, ev) = q.pop().expect("ran dry before mid-shuffle");
            steps += 1;
            let evts = dispatch(&mut sim, now, ev);
            handle(evts, &mut q, now);
        }
        assert!(!sim.fetches.is_empty(), "want in-flight fetches");

        // Snapshot the sim plus the outstanding timer/fetch events.
        let bytes = snap(&sim);
        let entries: Vec<(SimTime, u64, Ev)> = q
            .live_entries()
            .into_iter()
            .map(|(t, s, e)| (t, s, e.clone()))
            .collect();
        let mut sim2 = mk();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("mr")
            .unwrap();
        sim2.restore_state(&mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(snap(&sim2), bytes, "restore must re-snapshot identically");
        let mut q2 = EventQueue::from_entries(entries, q.next_seq()).unwrap();

        // Drive both copies to completion in lock-step: identical outputs.
        loop {
            let a = q.pop();
            let b = q2.pop();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "event streams diverged");
            let Some((now, _, ev)) = a else { break };
            let (now2, _, ev2) = b.unwrap();
            let ea = dispatch(&mut sim, now, ev);
            let eb = dispatch(&mut sim2, now2, ev2);
            assert_eq!(format!("{ea:?}"), format!("{eb:?}"), "outputs diverged");
            handle(ea, &mut q, now);
            handle(eb, &mut q2, now2);
        }
        assert!(sim.is_done() && sim2.is_done());
        assert_eq!(
            format!("{:?}", sim.timeline),
            format!("{:?}", sim2.timeline),
            "timelines diverged"
        );
    }

    #[test]
    fn corrupt_copier_state_is_a_typed_error() {
        let mut sim = MapReduceSim::new(cfg(), spec(3, 2), servers(3), &RngFactory::new(1));
        let evts = sim.start(SimTime::ZERO);
        for e in evts {
            if let HadoopEvent::MapFinishAt { map, at } = e {
                sim.map_finished(at, map);
            }
        }
        let mut w = pythia_snapshot::Writer::new();
        w.section("mr", |s| sim.put_state(s));
        let good = w.finish();
        // A sim with a smaller spec must reject the foreign state.
        let mut other = MapReduceSim::new(cfg(), spec(2, 1), servers(3), &RngFactory::new(1));
        let mut sec = pythia_snapshot::Reader::new(&good)
            .unwrap()
            .section("mr")
            .unwrap();
        match other.restore_state(&mut sec) {
            Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn fetch_ports_use_shuffle_port_as_source() {
        let mut sim = MapReduceSim::new(cfg(), spec(2, 1), servers(2), &RngFactory::new(1));
        let mut evts = sim.start(SimTime::ZERO);
        let mut fetches = Vec::new();
        let mut t = SimTime::ZERO;
        let mut guard = 0;
        while !sim.is_done() && guard < 10000 {
            guard += 1;
            let mut next = Vec::new();
            for e in evts.drain(..) {
                match e {
                    HadoopEvent::MapFinishAt { map, at } => {
                        t = at;
                        next.extend(sim.map_finished(at, map));
                    }
                    HadoopEvent::ReducerLaunchAt { reducer, at } => {
                        next.extend(sim.reducer_started(at, reducer));
                    }
                    HadoopEvent::FetchStart {
                        fetch,
                        src_port,
                        dst_port,
                        ..
                    } => {
                        assert_eq!(src_port, 50060);
                        assert!(dst_port >= 40000);
                        fetches.push(fetch);
                    }
                    HadoopEvent::SortFinishAt { reducer, at } => {
                        next.extend(sim.sort_finished(at, reducer));
                    }
                    HadoopEvent::ReducerFinishAt { reducer, at } => {
                        next.extend(sim.reducer_finished(at, reducer));
                    }
                    _ => {}
                }
            }
            for f in fetches.drain(..) {
                next.extend(sim.fetch_completed(t, f));
            }
            evts = next;
        }
        assert!(sim.is_done());
    }
}
