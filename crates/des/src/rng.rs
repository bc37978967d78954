//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (map-task duration noise,
//! ECMP hash seeds, background-traffic phases, key-space skew, …) draws
//! from its own named stream derived from a single master seed. Streams are
//! independent of the order in which other components consume randomness,
//! which is what makes "same seed ⇒ identical run" hold even as the code
//! evolves.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Factory for named, reproducible RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// A factory deriving every stream from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// A stream keyed by a human-readable name, e.g. `"map-durations"`.
    pub fn stream(&self, name: &str) -> SmallRng {
        self.stream_with_index(name, 0)
    }

    /// A stream keyed by name plus an index (e.g. one stream per server).
    pub fn stream_with_index(&self, name: &str, index: u64) -> SmallRng {
        let seed = splitmix64(
            self.master_seed ^ fnv1a64(name.as_bytes()) ^ splitmix64(index ^ 0x9e37_79b9_7f4a_7c15),
        );
        SmallRng::seed_from_u64(seed)
    }
}

/// FNV-1a 64-bit hash. Also used by the ECMP baseline for 5-tuple hashing,
/// so it lives here in the kernel crate.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv1a64`]: writing bytes in pieces hashes the same as one
/// call over their concatenation, without buffering them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f.stream("x").random_iter().take(8).collect();
        let b: Vec<u64> = f.stream("x").random_iter().take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("x").random();
        let b: u64 = f.stream("y").random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").random();
        let b: u64 = RngFactory::new(2).stream("x").random();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_differ() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream_with_index("srv", 0).random();
        let b: u64 = f.stream_with_index("srv", 1).random();
        assert_ne!(a, b);
    }

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn splitmix_is_not_identity_and_is_deterministic() {
        assert_ne!(splitmix64(0), 0);
        assert_eq!(splitmix64(12345), splitmix64(12345));
        assert_ne!(splitmix64(12345), splitmix64(12346));
    }
}
