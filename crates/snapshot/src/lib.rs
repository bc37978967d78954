#![warn(missing_docs)]

//! `pythia-snapshot` — crash-durable checkpoints for the whole simulation.
//!
//! A snapshot is a sequence of named, length-prefixed, CRC32-checksummed
//! sections behind a magic/version header — hand-rolled little-endian
//! framing like `pythia-trace`'s exporters, no serde. Every stateful
//! component serializes itself through the [`Persist`] trait; the
//! imperative shell ([`shell`]) does atomic write-to-temp-then-rename
//! with a manifest so a `kill -9` mid-write can never destroy the last
//! good checkpoint.
//!
//! Corruption of any kind — truncation, bit flips, version skew, a
//! snapshot paired with the wrong scenario — surfaces as a typed
//! [`SnapshotError`] naming the failing section, never a panic.
//!
//! ## Format
//!
//! ```text
//! magic    b"PYSN"
//! version  u32 LE            (SNAPSHOT_VERSION)
//! section* name_len  u16 LE
//!          name      UTF-8 bytes
//!          body_len  u64 LE
//!          body      bytes   (Persist-encoded fields, LE)
//!          crc32     u32 LE  (IEEE CRC32 of body)
//! ```
//!
//! Readers consume sections in writer order via [`Reader::section`]; a
//! name mismatch, a failed checksum, or trailing/missing body bytes each
//! produce a distinct error pointing at the section concerned.

use std::fmt;

pub mod shell;

/// Current on-disk snapshot format version. Bump on any layout change;
/// readers reject other versions with [`SnapshotError::Version`].
/// Version 2 stores the Pythia per-server instrumentation once, ahead of
/// the collector shards (version 1 repeated it inside every shard).
/// Version 3 drops the network's solver-mode byte and records a deferred
/// rate solve as pending (dirty links, the engine's deferral state)
/// instead of forcing it at the checkpoint.
pub const SNAPSHOT_VERSION: u32 = 3;

const MAGIC: &[u8; 4] = b"PYSN";

/// Why a snapshot could not be read or applied.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not the one this build writes.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// The file ends in the middle of the named section (or its header).
    Truncated {
        /// Section being read when bytes ran out.
        section: String,
    },
    /// The named section's body does not match its stored CRC32.
    Checksum {
        /// Section whose checksum failed.
        section: String,
    },
    /// The next section in the file is not the one the reader expected.
    SectionMismatch {
        /// Section the reader asked for.
        expected: String,
        /// Section actually found (empty if the header was unreadable).
        found: String,
    },
    /// The section passed its checksum but its contents do not decode —
    /// an out-of-range discriminant, an impossible length, a value that
    /// violates an invariant of the restored component.
    Malformed {
        /// Section whose body failed to decode.
        section: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// The snapshot was taken under a different scenario configuration
    /// than the one it is being restored into.
    ConfigMismatch {
        /// Config hash recorded in the snapshot.
        expected: u64,
        /// Config hash of the restoring scenario.
        found: u64,
    },
    /// A fork request whose chaos schedule cannot be mapped onto the
    /// snapshot (different event counts, or events before the fork point).
    Fork {
        /// What exactly could not be mapped.
        detail: String,
    },
    /// Filesystem failure in the checkpoint shell.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::Version { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in section `{section}`")
            }
            SnapshotError::Checksum { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            SnapshotError::SectionMismatch { expected, found } => {
                write!(f, "expected section `{expected}`, found `{found}`")
            }
            SnapshotError::Malformed { section, detail } => {
                write!(f, "malformed section `{section}`: {detail}")
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot taken under config hash {expected:#018x}, \
                 restoring under {found:#018x}"
            ),
            SnapshotError::Fork { detail } => write!(f, "fork schedule mismatch: {detail}"),
            SnapshotError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), slicing-by-8 over tables generated at
// compile time.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups fold one little-endian 64-bit word into the register.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 of `data` (the polynomial zlib and Ethernet use), eight
/// bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a snapshot in memory, section by section.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer with the magic/version header already emitted.
    pub fn new() -> Writer {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        Writer { buf }
    }

    /// Append one named section whose body is produced by `body`.
    pub fn section(&mut self, name: &str, body: impl FnOnce(&mut SectionWriter)) {
        debug_assert!(name.len() <= u16::MAX as usize);
        self.buf
            .extend_from_slice(&(name.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let body_at = self.buf.len();
        let mut w = SectionWriter { buf: &mut self.buf };
        body(&mut w);
        let body_len = (self.buf.len() - body_at) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&self.buf[body_at..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// The finished snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

/// Encodes one section's body. All integers are little-endian; floats are
/// stored as their exact IEEE-754 bit patterns (incrementally accumulated
/// values must survive verbatim — re-deriving them would differ by float
/// non-associativity).
pub struct SectionWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl SectionWriter<'_> {
    /// Append any [`Persist`] value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        v.put(self);
    }

    /// Append raw bytes (length NOT prefixed — pair with a counted read).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Parses a snapshot, section by section, in writer order.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate the header and position at the first section.
    pub fn new(bytes: &'a [u8]) -> Result<Reader<'a>, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::BadMagic);
        }
        if &bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let found = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if found != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(Reader { bytes, pos: 8 })
    }

    /// Read the next section, which must be named `name`; its body is
    /// checksum-verified before the [`SectionReader`] is handed out.
    pub fn section(&mut self, name: &str) -> Result<SectionReader<'a>, SnapshotError> {
        let trunc = || SnapshotError::Truncated {
            section: name.to_string(),
        };
        let hdr = self.bytes.get(self.pos..self.pos + 2).ok_or_else(trunc)?;
        let name_len = u16::from_le_bytes(hdr.try_into().unwrap()) as usize;
        let name_at = self.pos + 2;
        let found_raw = self
            .bytes
            .get(name_at..name_at + name_len)
            .ok_or_else(trunc)?;
        let found = std::str::from_utf8(found_raw).unwrap_or("<non-utf8>");
        if found != name {
            return Err(SnapshotError::SectionMismatch {
                expected: name.to_string(),
                found: found.to_string(),
            });
        }
        let len_at = name_at + name_len;
        let len_raw = self.bytes.get(len_at..len_at + 8).ok_or_else(trunc)?;
        let body_len = u64::from_le_bytes(len_raw.try_into().unwrap()) as usize;
        let body_at = len_at + 8;
        let body = self
            .bytes
            .get(body_at..body_at + body_len)
            .ok_or_else(trunc)?;
        let crc_at = body_at + body_len;
        let crc_raw = self.bytes.get(crc_at..crc_at + 4).ok_or_else(trunc)?;
        let stored = u32::from_le_bytes(crc_raw.try_into().unwrap());
        if crc32(body) != stored {
            return Err(SnapshotError::Checksum {
                section: name.to_string(),
            });
        }
        self.pos = crc_at + 4;
        Ok(SectionReader {
            section: name.to_string(),
            body,
            pos: 0,
        })
    }

    /// True once every section has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes one checksum-verified section body.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: String,
    body: &'a [u8],
    pos: usize,
}

impl SectionReader<'_> {
    /// Decode the next [`Persist`] value.
    pub fn get<T: Persist>(&mut self) -> Result<T, SnapshotError> {
        T::get(self)
    }

    /// The section's name (for error construction in domain decoders).
    pub fn name(&self) -> &str {
        &self.section
    }

    /// Remaining undecoded bytes in this section.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Read exactly `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let out = self
            .body
            .get(self.pos..self.pos.checked_add(n).ok_or_else(|| self.truncated())?)
            .ok_or_else(|| self.truncated())?;
        self.pos += n;
        Ok(out)
    }

    /// A [`SnapshotError::Malformed`] pointing at this section.
    pub fn malformed(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section.clone(),
            detail: detail.into(),
        }
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            section: self.section.clone(),
        }
    }

    /// Error unless every body byte was consumed — catches decoder drift
    /// even when the checksum passes.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.body.len() {
            return Err(SnapshotError::Malformed {
                section: self.section,
                detail: format!("{} trailing bytes", self.body.len() - self.pos),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Persist: the common snapshot/restore trait
// ---------------------------------------------------------------------------

/// The common serialization trait every stateful component implements:
/// `put` writes the component's state, `get` rebuilds it. Domain crates
/// implement it for their ID/state types; containers compose.
pub trait Persist: Sized {
    /// Encode `self` into the section body.
    fn put(&self, w: &mut SectionWriter);
    /// Decode a value, or a typed error naming the failing section.
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError>;
}

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn put(&self, w: &mut SectionWriter) {
                w.put_raw(&self.to_le_bytes());
            }
            fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
                let raw = r.take_raw(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().unwrap()))
            }
        }
    )*};
}

persist_int!(u8, u16, u32, u64, i64);

impl Persist for usize {
    fn put(&self, w: &mut SectionWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| r.malformed(format!("usize out of range: {v}")))
    }
}

impl Persist for bool {
    fn put(&self, w: &mut SectionWriter) {
        (*self as u8).put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(r.malformed(format!("bool byte {b}"))),
        }
    }
}

/// Floats are persisted as raw IEEE-754 bits: incrementally maintained
/// accumulators must round-trip exactly, NaN payloads and signed zeros
/// included.
impl Persist for f64 {
    fn put(&self, w: &mut SectionWriter) {
        self.to_bits().put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Persist for String {
    fn put(&self, w: &mut SectionWriter) {
        self.len().put(w);
        w.put_raw(self.as_bytes());
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let len = usize::get(r)?;
        if len > r.remaining() {
            return Err(r.malformed(format!("string length {len} exceeds section")));
        }
        let raw = r.take_raw(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| r.malformed("string not UTF-8"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, w: &mut SectionWriter) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(r.malformed(format!("Option tag {b}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, w: &mut SectionWriter) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let len = usize::get(r)?;
        // Every element takes at least one body byte, so a length beyond
        // the remaining span is corrupt — reject before allocating.
        if len > r.remaining() {
            return Err(r.malformed(format!("vec length {len} exceeds section")));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn put(&self, w: &mut SectionWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn put(&self, w: &mut SectionWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist, D: Persist> Persist for (A, B, C, D) {
    fn put(&self, w: &mut SectionWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
        self.3.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?, D::get(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for std::collections::BTreeMap<K, V> {
    fn put(&self, w: &mut SectionWriter) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let len = usize::get(r)?;
        if len > r.remaining() {
            return Err(r.malformed(format!("map length {len} exceeds section")));
        }
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let k = K::get(r)?;
            let v = V::get(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Written in key order, so the bytes equal those of a `BTreeMap` with
/// the same entries whatever the hasher's seed; read back the same way.
impl<K, V, S> Persist for std::collections::HashMap<K, V, S>
where
    K: Persist + Ord + std::hash::Hash,
    V: Persist,
    S: std::hash::BuildHasher + Default,
{
    fn put(&self, w: &mut SectionWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.len().put(w);
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let len = usize::get(r)?;
        if len > r.remaining() {
            return Err(r.malformed(format!("map length {len} exceeds section")));
        }
        let mut out = Self::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::get(r)?;
            let v = V::get(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Persist + Ord> Persist for std::collections::BTreeSet<K> {
    fn put(&self, w: &mut SectionWriter) {
        self.len().put(w);
        for k in self {
            k.put(w);
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let len = usize::get(r)?;
        if len > r.remaining() {
            return Err(r.malformed(format!("set length {len} exceeds section")));
        }
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(K::get(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        w.section("t", |s| s.put(&v));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let mut s = r.section("t").unwrap();
        let back: T = s.get().unwrap();
        s.finish().unwrap();
        assert!(r.at_end());
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip((1u32, 2u64));
        round_trip((1u8, 2u16, 3u32));
        round_trip(BTreeMap::from([(1u32, 2u64), (3, 4)]));
        round_trip(std::collections::BTreeSet::from([5u32, 1, 9]));
    }

    #[test]
    fn hash_map_writes_the_bytes_of_the_ordered_map() {
        let entries: Vec<(u32, u64)> = (0..200).map(|i| ((i * 7919) % 1000, i as u64)).collect();
        let ordered: BTreeMap<u32, u64> = entries.iter().copied().collect();
        let bytes = |f: &dyn Fn(&mut SectionWriter)| {
            let mut w = Writer::new();
            w.section("m", f);
            w.finish()
        };
        let want = bytes(&|s| s.put(&ordered));
        // Two maps with independent hasher seeds, filled in opposite
        // orders, iterate differently but write the same bytes.
        let fwd: std::collections::HashMap<u32, u64> = entries.iter().copied().collect();
        let rev: std::collections::HashMap<u32, u64> = entries.iter().rev().copied().collect();
        assert_eq!(bytes(&|s| s.put(&fwd)), want);
        assert_eq!(bytes(&|s| s.put(&rev)), want);
        round_trip(fwd);
        // The same for the control plane's seeded fast hasher: two tables
        // draw two seeds and still write the ordered map's bytes.
        let fast_fwd: pythia_des::FastMap<u32, u64> = entries.iter().copied().collect();
        let fast_rev: pythia_des::FastMap<u32, u64> = entries.iter().rev().copied().collect();
        assert_ne!(
            fast_fwd.keys().collect::<Vec<_>>(),
            fast_rev.keys().collect::<Vec<_>>(),
            "two seeds iterated alike"
        );
        assert_eq!(bytes(&|s| s.put(&fast_fwd)), want);
        assert_eq!(bytes(&|s| s.put(&fast_rev)), want);
        round_trip(fast_fwd);
    }

    #[test]
    fn float_bits_survive_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            round_trip(v);
        }
        // NaN payload bits must survive even though NaN != NaN.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = Writer::new();
        w.section("f", |s| s.put(&nan));
        let bytes = w.finish();
        let back: f64 = Reader::new(&bytes)
            .unwrap()
            .section("f")
            .unwrap()
            .get()
            .unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn crc32_known_vector() {
        // The classic zlib test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time IEEE CRC32, the definition the table
    /// driven version must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_wordwise_matches_bytewise_definition() {
        // Every length 0..=256 at every start offset 0..8, so each word
        // alignment and each remainder length is covered.
        let data: Vec<u8> = (0..264u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=256 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn multi_section_ordering() {
        let mut w = Writer::new();
        w.section("a", |s| s.put(&1u32));
        w.section("b", |s| s.put(&2u32));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(r.section("a").unwrap().get::<u32>().unwrap(), 1);
        assert_eq!(r.section("b").unwrap().get::<u32>().unwrap(), 2);
        assert!(r.at_end());
    }

    #[test]
    fn wrong_section_name_is_typed() {
        let mut w = Writer::new();
        w.section("net", |s| s.put(&1u32));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        match r.section("queue") {
            Err(SnapshotError::SectionMismatch { expected, found }) => {
                assert_eq!(expected, "queue");
                assert_eq!(found, "net");
            }
            other => panic!("wanted SectionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version() {
        assert!(matches!(Reader::new(b"oops"), Err(SnapshotError::BadMagic)));
        let mut bytes = Writer::new().finish();
        bytes[4] = 99;
        match Reader::new(&bytes) {
            Err(SnapshotError::Version {
                found: 99,
                expected,
            }) => {
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("wanted Version, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_errors() {
        let mut w = Writer::new();
        w.section("data", |s| s.put(&vec![1u64, 2, 3]));
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            let failed = match Reader::new(short) {
                Err(_) => true,
                Ok(mut r) => match r.section("data") {
                    Err(_) => true,
                    Ok(mut s) => s.get::<Vec<u64>>().and_then(|_| s.finish()).is_err(),
                },
            };
            assert!(failed, "truncation at {cut}/{} went unnoticed", bytes.len());
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        let mut w = Writer::new();
        w.section("data", |s| {
            s.put(&vec![7u64, 8, 9]);
            s.put(&3.25f64);
        });
        let bytes = w.finish();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                let failed = match Reader::new(&mutated) {
                    Err(_) => true,
                    Ok(mut r) => match r.section("data") {
                        Err(_) => true,
                        Ok(mut s) => {
                            // A flip that reaches here would have had to
                            // defeat CRC32 — impossible for one bit.
                            let ok = s.get::<Vec<u64>>().is_ok()
                                && s.get::<f64>().is_ok()
                                && s.finish().is_ok();
                            !ok
                        }
                    },
                };
                assert!(failed, "bit flip at byte {byte} bit {bit} went unnoticed");
            }
        }
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A huge vec length must be rejected up front, not allocated.
        let mut w = Writer::new();
        w.section("v", |s| s.put(&u64::MAX)); // masquerades as a length
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let mut s = r.section("v").unwrap();
        assert!(matches!(
            s.get::<Vec<u64>>(),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.section("s", |sw| {
            sw.put(&1u32);
            sw.put(&2u32);
        });
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let mut s = r.section("s").unwrap();
        let _: u32 = s.get().unwrap();
        assert!(matches!(s.finish(), Err(SnapshotError::Malformed { .. })));
    }
}
