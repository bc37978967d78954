//! Seeded fast hashing for keyed tables.
//!
//! The control plane and the event queue key their maps by small
//! integer tuples — job, map and reducer ids, server pairs, link ids,
//! event ids — and look them up several times per message. SipHash
//! (std's default) is built to resist chosen keys, which these tables do
//! not need, and costs several times a multiply-rotate fold on 8–12-byte
//! keys. [`FastState`] folds each written word as
//! `h = (h.rotl(5) ^ w) * 0x517c_c1b7_2722_0a95`.
//!
//! Every [`FastState::default`] starts from its own seed: a base drawn
//! once per process from std's random hasher keys, mixed through
//! [`splitmix64`] with a per-map counter. Two maps built in one process
//! therefore iterate the same keys in different orders, and two
//! processes differ as well, so a walk that forgets to sort before it
//! reaches output shows up in tests instead of hiding behind one fixed
//! order. The hash is not collision-resistant: keys chosen against a
//! known seed could degrade a table to linear probing.
//!
//! ```
//! use pythia_des::{FastMap, FastSet};
//!
//! let mut m: FastMap<(u32, u32), u64> = FastMap::default();
//! m.insert((1, 2), 3);
//! let s: FastSet<u32> = [5, 1, 9].into_iter().collect();
//! assert_eq!(m[&(1, 2)], 3);
//! assert!(s.contains(&9));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::rng::splitmix64;

/// The fold's multiplier (odd, with well-spread bits).
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A `HashMap` hashed by [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` hashed by [`FastState`].
pub type FastSet<K> = HashSet<K, FastState>;

/// Builds [`FastHasher`]s from one seed; each `default()` draws a fresh
/// seed, and a clone keeps its original's.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        static BASE: OnceLock<u64> = OnceLock::new();
        static MAPS: AtomicU64 = AtomicU64::new(0);
        let base =
            *BASE.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u64));
        let n = MAPS.fetch_add(1, Ordering::Relaxed);
        FastState {
            seed: splitmix64(base ^ n),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

/// The multiply-rotate hasher [`FastState`] builds.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn fold(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(MUL);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_state_draws_its_own_seed_and_order() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.seed, b.seed);
        let fill = |s: FastState| -> Vec<u32> {
            let mut set = FastSet::with_capacity_and_hasher(1000, s);
            set.extend(0..1000u32);
            set.into_iter().collect()
        };
        let (order_a, order_b) = (fill(a), fill(b));
        assert_ne!(order_a, order_b, "two seeds iterated 1,000 keys alike");
        let mut sorted = order_a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn hash_is_a_function_of_seed_and_key() {
        let s = FastState::default();
        let twin = FastState { seed: s.seed };
        for key in [(0u32, 0u64), (7, 11), (u32::MAX, u64::MAX)] {
            assert_eq!(s.hash_one(key), s.hash_one(key));
            assert_eq!(s.hash_one(key), twin.hash_one(key));
        }
        assert_ne!(s.hash_one(1u32), FastState::default().hash_one(1u32));
    }

    #[test]
    fn swapped_pairs_hash_differently() {
        let s = FastState::default();
        for (a, b) in [(0u32, 1u32), (3, 17), (1023, 64), (u32::MAX, 0)] {
            assert_ne!(s.hash_one((a, b)), s.hash_one((b, a)), "({a}, {b})");
        }
    }

    #[test]
    fn byte_writes_fold_every_byte() {
        let s = FastState::default();
        let words: Vec<u64> = ["", "a", "ab", "abcdefgh", "abcdefghi", "abcdefghj"]
            .iter()
            .map(|k| s.hash_one(k))
            .collect();
        let distinct: FastSet<u64> = words.iter().copied().collect();
        assert_eq!(distinct.len(), words.len());
    }
}
