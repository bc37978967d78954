//! Property tests for the event queue: ordering, FIFO tie-break, and
//! cancellation semantics under arbitrary interleavings, plus a model
//! check against a `BTreeMap` that restores the queue midway.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pythia_des::{EventId, EventQueue, SimTime};

proptest! {
    /// Popped times are monotone non-decreasing regardless of push order.
    #[test]
    fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Events at the same instant pop in push order (FIFO).
    #[test]
    fn equal_times_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(t), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().2, i);
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_subset(
        times in proptest::collection::vec(0u64..1_000_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, _, p)) = q.pop() {
            got.push(p);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// `peek_time` always equals the time of the next pop.
    #[test]
    fn peek_matches_pop(times in proptest::collection::vec(0u64..1_000, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        while let Some(peek) = q.peek_time() {
            let (t, _, _) = q.pop().unwrap();
            prop_assert_eq!(peek, t);
        }
        prop_assert!(q.is_empty());
    }
}

/// One step of a model-checked queue run.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    /// Cancel the handle at this index (modulo the handles issued).
    Cancel(usize),
    Pop,
    Peek,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50).prop_map(Op::Push),
        (0u64..50).prop_map(Op::Push),
        any::<usize>().prop_map(Op::Cancel),
        any::<usize>().prop_map(Op::Cancel),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

proptest! {
    /// Random interleavings of push, cancel, pop and peek agree with a
    /// `BTreeMap<(time, seq), payload>` model, across a restore through
    /// `live_entries` → `from_entries` midway. Few distinct times make
    /// equal-time FIFO ties common, and cancels pick among every handle
    /// ever issued, so fired, cancelled and pre-restore handles all come
    /// back.
    #[test]
    fn matches_btreemap_model_across_restore(
        ops in proptest::collection::vec(op(), 1..300),
        restore_at in 0usize..300,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // Every handle issued, with the model key it was issued for.
        let mut handles: Vec<(EventId, (u64, u64))> = Vec::new();
        let mut next_seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i == restore_at {
                let entries: Vec<(SimTime, u64, u64)> = q
                    .live_entries()
                    .into_iter()
                    .map(|(t, s, &p)| (t, s, p))
                    .collect();
                let mut by_seq: Vec<(u64, u64)> = model.keys().map(|&(t, s)| (s, t)).collect();
                by_seq.sort_unstable();
                let got: Vec<(u64, u64)> =
                    entries.iter().map(|&(t, s, _)| (s, t.as_nanos())).collect();
                prop_assert_eq!(got, by_seq);
                q = EventQueue::from_entries(entries, q.next_seq()).unwrap();
            }
            match *op {
                Op::Push(t) => {
                    let id = q.push(SimTime::from_nanos(t), next_seq);
                    model.insert((t, next_seq), next_seq);
                    handles.push((id, (t, next_seq)));
                    next_seq += 1;
                }
                Op::Cancel(k) if !handles.is_empty() => {
                    let (id, key) = handles[k % handles.len()];
                    let live = model.remove(&key).is_some();
                    prop_assert_eq!(q.is_pending(id), live);
                    prop_assert_eq!(q.cancel(id), live);
                    prop_assert!(!q.cancel(id), "second cancel of a handle");
                }
                Op::Cancel(_) => {}
                Op::Pop => {
                    let want = model.pop_first();
                    let got = q.pop();
                    match (want, got) {
                        (None, None) => {}
                        (Some(((t, s), p)), Some((gt, gid, gp))) => {
                            prop_assert_eq!(gt, SimTime::from_nanos(t));
                            prop_assert_eq!(gp, p);
                            prop_assert_eq!(gid, handles[s as usize].0);
                        }
                        (w, g) => prop_assert!(false, "model {:?} vs queue {:?}", w, g),
                    }
                }
                Op::Peek => {
                    let want = model.keys().next().map(|&(t, _)| SimTime::from_nanos(t));
                    prop_assert_eq!(q.peek_time(), want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert!(q.dead_fraction() <= 0.5 || q.heap_len() <= 64);
        }
        // Drain: whatever is left pops in model order.
        for ((t, _), p) in std::mem::take(&mut model) {
            let (gt, _, gp) = q.pop().unwrap();
            prop_assert_eq!((gt, gp), (SimTime::from_nanos(t), p));
        }
        prop_assert!(q.pop().is_none());
    }
}
