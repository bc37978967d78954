//! Deterministic pending-event set.
//!
//! The queue is a binary heap of 24-byte `(time, seq, slot)` keys over a
//! payload slab. The sequence number is assigned at push time, so events
//! scheduled for the same instant fire in FIFO order — a requirement for
//! bit-reproducible runs. The payload waits in `slots[slot]`, so sifting
//! moves keys only, and a slot freed by a pop or a cancel goes on a free
//! list for the next push.
//!
//! An entry is live while its slot still holds its sequence number: a pop
//! or a cancel frees the slot, and a later push may refill it with a newer
//! sequence number while the old key still sits in the heap. No separate
//! live set exists.
//!
//! Cancellation is lazy: [`EventQueue::cancel`] frees the slot and the
//! dead key is discarded when it reaches the top of the heap. This keeps
//! `push` O(log n) and `cancel` O(1), the standard technique for DES
//! engines where most cancelled events are "stale completion estimates"
//! (see the flow simulator).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Identity is the sequence number alone; the slot is where the issuing
/// queue keeps the payload, so a cancel finds it without a search. Only
/// the sequence number is persisted: a handle read back from a snapshot,
/// or issued by the queue a restore replaced, is found by a search of the
/// live entries instead.
#[derive(Clone, Copy)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// The slot of a handle whose slot is unknown (read from a snapshot).
const NO_SLOT: u32 = u32::MAX;

/// The sequence number a free slot holds; never issued.
const FREE: u64 = u64::MAX;

impl PartialEq for EventId {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for EventId {}
impl Hash for EventId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}
impl PartialOrd for EventId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.seq.cmp(&other.seq)
    }
}
impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventId({})", self.seq)
    }
}

/// A heap key: the payload waits in `slots[slot]`, live while that slot
/// still holds `seq`.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One payload slot: the sequence number of the entry it holds, or
/// [`FREE`].
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A deterministic future-event set.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    slots: Vec<Slot<E>>,
    /// Free slot indices, reused before the slab grows.
    free: Vec<u32>,
    /// Live (not cancelled, not popped) entries.
    live: usize,
    next_seq: u64,
    /// Handles with a sequence number below this were issued before the
    /// restore that built this queue, so their slots mean nothing here.
    restored_below: u64,
    /// Dead entries still physically in the heap.
    cancelled: u64,
    /// Dead entries physically removed over the queue's lifetime (lazy
    /// pops plus compaction sweeps).
    dead_shed: u64,
    /// Eager compaction sweeps performed.
    compactions: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            restored_below: 0,
            cancelled: 0,
            dead_shed: 0,
            compactions: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle for
    /// cancellation.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, payload)
    }

    /// Place `payload` under `seq` in a free slot (or a new one) and key
    /// it into the heap.
    fn insert(&mut self, time: SimTime, seq: u64, payload: E) -> EventId {
        let filled = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = filled;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NO_SLOT)
                    .expect("event queue slab full");
                self.slots.push(filled);
                s
            }
        };
        self.heap.push(Key { time, seq, slot });
        self.live += 1;
        EventId { seq, slot }
    }

    /// The slot holding `id`'s entry, if it is still live. A handle this
    /// queue issued names its slot; one issued before the restore that
    /// built it is looked up among the live entries.
    fn slot_of(&self, id: EventId) -> Option<usize> {
        let s = id.slot as usize;
        if self.slots.get(s).is_some_and(|sl| sl.seq == id.seq) {
            return Some(s);
        }
        if id.seq < self.restored_below {
            return self.slots.iter().position(|sl| sl.seq == id.seq);
        }
        None
    }

    /// Free slot `s`, returning its payload.
    fn release(&mut self, s: usize) -> E {
        let sl = &mut self.slots[s];
        sl.seq = FREE;
        self.free.push(s as u32);
        self.live -= 1;
        sl.payload.take().expect("live slot holds a payload")
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not fired and had not already been
    /// cancelled).
    ///
    /// Cancellation stays O(1): the slot is freed at once and the heap key
    /// is left in place to be skipped on pop. When dead keys outnumber
    /// live ones the heap is compacted eagerly, so workloads that cancel
    /// almost everything they schedule (stale completion estimates,
    /// crashed-controller installs) keep the heap at O(live) instead of
    /// O(ever scheduled). Each sweep removes more keys than survive it,
    /// so its cost amortizes into the cancellations that triggered it:
    /// amortized O(1) per cancel.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(s) = self.slot_of(id) else {
            return false;
        };
        self.release(s);
        self.cancelled += 1;
        if self.cancelled as usize > self.live && self.heap.len() > 64 {
            self.compact();
        }
        true
    }

    /// Drop every dead key from the heap.
    fn compact(&mut self) {
        self.compactions += 1;
        let slots = &self.slots;
        self.heap.retain(|k| slots[k.slot as usize].seq == k.seq);
        self.dead_shed += self.cancelled;
        self.cancelled = 0;
    }

    /// True if `id` is scheduled and not cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Whether `k`'s entry is still live.
    fn is_live(&self, k: &Key) -> bool {
        self.slots[k.slot as usize].seq == k.seq
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        while let Some(k) = self.heap.pop() {
            if self.is_live(&k) {
                let payload = self.release(k.slot as usize);
                let id = EventId {
                    seq: k.seq,
                    slot: k.slot,
                };
                return Some((k.time, id, payload));
            }
            self.cancelled -= 1;
            self.dead_shed += 1;
        }
        None
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop dead keys from the top so peek is accurate.
        while let Some(&k) = self.heap.peek() {
            if self.is_live(&k) {
                return Some(k.time);
            }
            self.heap.pop();
            self.cancelled -= 1;
            self.dead_shed += 1;
        }
        None
    }

    /// Number of live (not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of keys physically in the heap, including dead ones.
    /// Exposed for engine-health assertions in tests.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Fraction of physical heap keys that are dead (cancelled but not
    /// yet removed), in `[0, 1]`. An engine-health signal: stays below
    /// 1/2 by construction thanks to eager compaction.
    pub fn dead_fraction(&self) -> f64 {
        if self.heap.is_empty() {
            return 0.0;
        }
        self.cancelled as f64 / self.heap.len() as f64
    }

    /// Total dead keys physically removed so far (lazy pops plus
    /// compaction sweeps).
    pub fn dead_shed(&self) -> u64 {
        self.dead_shed
    }

    /// Eager compaction sweeps performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live entries as `(time, sequence, payload)` in sequence order, for
    /// checkpointing. Dead (cancelled) entries are not included: lazy
    /// deletion is semantically invisible, so a restored queue simply
    /// starts compacted.
    pub fn live_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .filter(|k| self.is_live(k))
            .map(|k| {
                let payload = self.slots[k.slot as usize].payload.as_ref();
                (k.time, k.seq, payload.expect("live slot holds a payload"))
            })
            .collect();
        out.sort_unstable_by_key(|&(_, seq, _)| seq);
        out
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuild a queue from checkpointed entries. Sequence numbers are
    /// preserved, so FIFO tie-breaking — and therefore pop order — is
    /// identical to the queue that was snapshotted, and outstanding
    /// [`EventId`] handles stay valid (they are found by sequence number).
    ///
    /// Returns a description of the violation (for the caller to wrap in
    /// its own error type) if a sequence repeats or is not below
    /// `next_seq`.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
        next_seq: u64,
    ) -> Result<Self, String> {
        let mut entries: Vec<(SimTime, u64, E)> = entries.into_iter().collect();
        if let Some(&(_, seq, _)) = entries.iter().find(|e| e.1 >= next_seq) {
            return Err(format!("event seq {seq} >= next_seq {next_seq}"));
        }
        entries.sort_unstable_by_key(|e| e.1);
        if let Some(w) = entries.windows(2).find(|w| w[0].1 == w[1].1) {
            return Err(format!("duplicate event seq {}", w[0].1));
        }
        let mut q = EventQueue::new();
        for (time, seq, payload) in entries {
            q.insert(time, seq, payload);
        }
        q.next_seq = next_seq;
        q.restored_below = next_seq;
        Ok(q)
    }
}

impl pythia_snapshot::Persist for EventId {
    fn put(&self, w: &mut pythia_snapshot::SectionWriter) {
        self.seq.put(w);
    }
    fn get(r: &mut pythia_snapshot::SectionReader) -> Result<Self, pythia_snapshot::SnapshotError> {
        Ok(EventId {
            seq: u64::get(r)?,
            slot: NO_SLOT,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop().unwrap().2, "a");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().2, i);
        }
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.push(t(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.push(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), ());
        q.push(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_heavy_workload_keeps_heap_near_live() {
        // Schedule far-future events and cancel almost all of them, the
        // way the engine cancels stale completion estimates. The physical
        // heap must track O(live), not O(ever scheduled).
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            ids.push(q.push(t(1_000 + i), i));
        }
        // Keep every 100th event; cancel the rest.
        for (i, &id) in ids.iter().enumerate() {
            if i % 100 != 0 {
                assert!(q.cancel(id));
            }
            // Invariant holds continuously, not just at the end: dead
            // entries never outnumber live ones once past the small-heap
            // threshold.
            if q.heap_len() > 64 {
                assert!(
                    q.dead_fraction() <= 0.5 + 1e-9,
                    "dead fraction {} with heap_len {}",
                    q.dead_fraction(),
                    q.heap_len()
                );
            }
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.heap_len() <= 2 * q.len().max(64),
            "heap_len {} for {} live events",
            q.heap_len(),
            q.len()
        );
        assert!(q.compactions() > 0, "compaction never triggered");
        // Everything shed somewhere: lazily or by compaction.
        assert_eq!(q.dead_shed() + q.cancelled, 9_900);
        // Survivors still pop in order despite the rebuilds.
        let mut prev = None;
        let mut popped = 0;
        while let Some((time, _, _)) = q.pop() {
            if let Some(p) = prev {
                assert!(time >= p);
            }
            prev = Some(time);
            popped += 1;
        }
        assert_eq!(popped, 100);
    }

    #[test]
    fn continuous_arrival_churn_stays_flat() {
        // A streaming fleet runs the queue at steady state for millions of
        // events: every arrival schedules work plus a completion estimate,
        // the estimate goes stale and is cancelled, work fires. Memory
        // must stay proportional to the *concurrent* population, not to
        // the total ever streamed — the heap may not creep run-long.
        let mut q = EventQueue::new();
        let mut stale = std::collections::VecDeque::new();
        let mut max_heap = 0usize;
        let mut max_live = 0usize;
        for i in 0..200_000u64 {
            q.push(t(i + 10), i);
            stale.push_back(q.push(t(i + 500), i));
            // The estimate from ~50 arrivals ago is now stale.
            if stale.len() > 50 {
                let dead = stale.pop_front().unwrap();
                assert!(q.cancel(dead));
            }
            // Steady state: drain as fast as work arrives.
            q.pop();
            max_heap = max_heap.max(q.heap_len());
            max_live = max_live.max(q.len());
        }
        // ~100 concurrent entries; the physical heap must stay within a
        // small constant of that forever, despite 400k pushes.
        assert!(max_live < 200, "live population drifted: {max_live}");
        assert!(
            max_heap <= 4 * max_live.max(64),
            "heap crept to {max_heap} entries for at most {max_live} live \
             ones over a 400k-push stream"
        );
        assert!(q.dead_fraction() <= 0.5 + 1e-9);
    }

    #[test]
    fn checkpoint_round_trip_preserves_order_and_handles() {
        let mut q = EventQueue::new();
        let _a = q.push(t(10), "a");
        let b = q.push(t(5), "b");
        let c = q.push(t(5), "c"); // same time: FIFO after b
        let dead = q.push(t(1), "dead");
        q.cancel(dead);
        let entries: Vec<(SimTime, u64, &str)> = q
            .live_entries()
            .into_iter()
            .map(|(time, seq, &p)| (time, seq, p))
            .collect();
        let mut restored = EventQueue::from_entries(entries, q.next_seq()).unwrap();
        assert_eq!(restored.len(), 3);
        // The pre-snapshot handle still cancels the right entry.
        assert!(restored.cancel(c));
        assert_eq!(restored.pop().unwrap().2, "b");
        assert_eq!(restored.pop().unwrap().2, "a");
        assert!(restored.pop().is_none());
        // New pushes continue the sequence without colliding.
        let mut again = EventQueue::from_entries(vec![(t(5), 1u64, "b")], q.next_seq()).unwrap();
        let fresh = again.push(t(5), "later");
        assert!(fresh != b, "restored queue reissued a live seq");
        assert_eq!(again.pop().unwrap().2, "b");
        assert_eq!(again.pop().unwrap().2, "later");
    }

    #[test]
    fn restore_rejects_bad_seqs() {
        assert!(EventQueue::from_entries(vec![(t(1), 5u64, ())], 5).is_err());
        assert!(EventQueue::from_entries(vec![(t(1), 0u64, ()), (t(2), 0u64, ())], 3).is_err());
    }

    #[test]
    fn reused_slot_leaves_the_dead_key_dead() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.push(t(30), "c");
        assert!(q.cancel(a));
        // The next push takes the freed slot while `a`'s key is still in
        // the heap, ahead of the new entry.
        let b = q.push(t(20), "b");
        assert_eq!(q.heap_len(), 3);
        assert!(!q.is_pending(a));
        assert!(
            !q.cancel(a),
            "a stale handle must not cancel the slot's new entry"
        );
        assert!(q.is_pending(b));
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.dead_shed(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn restored_handles_find_their_entries_by_seq() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), 'a');
        let b = q.push(t(20), 'b');
        let c = q.push(t(30), 'c');
        q.cancel(a);
        let entries: Vec<(SimTime, u64, char)> = q
            .live_entries()
            .into_iter()
            .map(|(time, seq, &p)| (time, seq, p))
            .collect();
        let mut r = EventQueue::from_entries(entries, q.next_seq()).unwrap();
        let d = r.push(t(5), 'd');
        assert!(!r.cancel(a), "cancelled before the snapshot");
        assert!(r.is_pending(c));
        assert!(r.cancel(c));
        assert!(!r.cancel(c));
        assert_eq!(r.pop().unwrap().2, 'd');
        assert!(!r.cancel(d), "fired after the restore");
        assert_eq!(r.pop().unwrap().2, 'b');
        assert!(!r.cancel(b), "fired after the restore");
        assert!(r.is_empty());
    }

    #[test]
    fn is_pending_reflects_state() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), ());
        assert!(q.is_pending(a));
        q.cancel(a);
        assert!(!q.is_pending(a));
    }
}
