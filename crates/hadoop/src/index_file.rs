//! The map-output spill **index file**.
//!
//! When a map task finishes, Hadoop writes its sorted intermediate output
//! to `file.out` and a sidecar `file.out.index` recording, per reducer
//! partition, where that partition lives in the data file and how long it
//! is. Pythia's instrumentation middleware learns future shuffle volumes
//! by *decoding exactly this file* the moment it appears (§III: "decodes
//! the file(s) containing the intermediate map output and calculates the
//! size of key,value pairs that correspond … to each one of the job's
//! reducers").
//!
//! Layout (big-endian, mirroring Hadoop's `SpillRecord`):
//!
//! ```text
//! magic   u32   "HIDX"
//! version u16
//! parts   u32   number of reducer partitions
//! per partition:
//!   start_offset u64   byte offset of the partition in file.out
//!   raw_length   u64   uncompressed key/value bytes
//!   part_length  u64   on-disk (possibly compressed) bytes
//! checksum u64   FNV-1a over everything above
//! ```

use pythia_des::fnv1a64;

/// File magic, ASCII "HIDX".
pub const INDEX_MAGIC: u32 = 0x4849_4458;
/// Current layout version.
pub const INDEX_VERSION: u16 = 1;

/// One reducer partition's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRecord {
    /// Byte offset of the partition in the data file.
    pub start_offset: u64,
    /// Uncompressed key/value bytes.
    pub raw_length: u64,
    /// On-disk (possibly compressed) bytes — what gets shuffled.
    pub part_length: u64,
}

/// A decoded spill index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexFile {
    records: Vec<IndexRecord>,
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Fewer bytes than the header + records + checksum require.
    Truncated,
    /// First word is not [`INDEX_MAGIC`].
    BadMagic(u32),
    /// Unsupported layout version.
    BadVersion(u16),
    /// Stored checksum does not match the body.
    ChecksumMismatch {
        /// Checksum recomputed over the body.
        expected: u64,
        /// Checksum stored in the file.
        actual: u64,
    },
    /// Partitions must be laid out back to back.
    InconsistentOffsets {
        /// Index of the first out-of-place partition.
        partition: usize,
    },
}

impl IndexFile {
    /// Build an index for partitions of the given on-disk lengths, laid
    /// out contiguously. `compression_ratio` scales raw → part length
    /// (1.0 = uncompressed, matching the paper's in-memory setup).
    pub fn from_partition_sizes(raw_sizes: &[u64], compression_ratio: f64) -> IndexFile {
        assert!(compression_ratio > 0.0 && compression_ratio <= 1.0);
        let mut records = Vec::with_capacity(raw_sizes.len());
        let mut offset = 0u64;
        for &raw in raw_sizes {
            let part = (raw as f64 * compression_ratio).round() as u64;
            records.push(IndexRecord {
                start_offset: offset,
                raw_length: raw,
                part_length: part,
            });
            offset += part;
        }
        IndexFile { records }
    }

    /// The per-partition records, in reducer order.
    pub fn records(&self) -> &[IndexRecord] {
        &self.records
    }

    /// Number of reducer partitions described.
    pub fn num_partitions(&self) -> usize {
        self.records.len()
    }

    /// On-disk bytes that will be shuffled to reducer `r` — what the
    /// tasktracker actually serves over HTTP.
    pub fn partition_bytes(&self, r: usize) -> u64 {
        self.records[r].part_length
    }

    /// Total on-disk output size.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.part_length).sum()
    }

    /// Serialize to the wire/disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(10 + self.records.len() * 24 + 8);
        buf.extend_from_slice(&INDEX_MAGIC.to_be_bytes());
        buf.extend_from_slice(&INDEX_VERSION.to_be_bytes());
        buf.extend_from_slice(&(self.records.len() as u32).to_be_bytes());
        for r in &self.records {
            for x in [r.start_offset, r.raw_length, r.part_length] {
                buf.extend_from_slice(&x.to_be_bytes());
            }
        }
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        buf
    }

    /// Decode and fully validate an index file.
    pub fn decode(data: &[u8]) -> Result<IndexFile, IndexError> {
        let mut buf = data;
        if buf.len() < 10 {
            return Err(IndexError::Truncated);
        }
        let magic = u32::from_be_bytes(take(&mut buf)?);
        if magic != INDEX_MAGIC {
            return Err(IndexError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(take(&mut buf)?);
        if version != INDEX_VERSION {
            return Err(IndexError::BadVersion(version));
        }
        let parts = u32::from_be_bytes(take(&mut buf)?) as usize;
        if buf.len() < parts * 24 + 8 {
            return Err(IndexError::Truncated);
        }
        let mut records = Vec::with_capacity(parts);
        for _ in 0..parts {
            records.push(IndexRecord {
                start_offset: u64::from_be_bytes(take(&mut buf)?),
                raw_length: u64::from_be_bytes(take(&mut buf)?),
                part_length: u64::from_be_bytes(take(&mut buf)?),
            });
        }
        let actual = u64::from_be_bytes(take(&mut buf)?);
        let body_len = 10 + parts * 24;
        let expected = fnv1a64(&data[..body_len]);
        if actual != expected {
            return Err(IndexError::ChecksumMismatch { expected, actual });
        }
        // Contiguity check.
        let mut offset = 0u64;
        for (i, r) in records.iter().enumerate() {
            if r.start_offset != offset {
                return Err(IndexError::InconsistentOffsets { partition: i });
            }
            offset += r.part_length;
        }
        Ok(IndexFile { records })
    }
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], IndexError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(IndexError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = IndexFile::from_partition_sizes(&[100, 0, 250, 7], 1.0);
        let decoded = IndexFile::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.num_partitions(), 4);
        assert_eq!(decoded.partition_bytes(2), 250);
        assert_eq!(decoded.total_bytes(), 357);
    }

    #[test]
    fn compression_scales_part_length() {
        let f = IndexFile::from_partition_sizes(&[1000], 0.5);
        assert_eq!(f.records()[0].raw_length, 1000);
        assert_eq!(f.records()[0].part_length, 500);
        assert_eq!(f.total_bytes(), 500);
    }

    #[test]
    fn offsets_are_contiguous() {
        let f = IndexFile::from_partition_sizes(&[10, 20, 30], 1.0);
        assert_eq!(f.records()[0].start_offset, 0);
        assert_eq!(f.records()[1].start_offset, 10);
        assert_eq!(f.records()[2].start_offset, 30);
    }

    #[test]
    fn truncated_rejected() {
        let enc = IndexFile::from_partition_sizes(&[10, 20], 1.0).encode();
        for cut in [0, 5, 9, enc.len() - 1] {
            assert_eq!(IndexFile::decode(&enc[..cut]), Err(IndexError::Truncated));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = IndexFile::from_partition_sizes(&[10], 1.0).encode();
        enc[0] ^= 0xff;
        assert!(matches!(
            IndexFile::decode(&enc),
            Err(IndexError::BadMagic(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut enc = IndexFile::from_partition_sizes(&[10, 20], 1.0).encode();
        // Flip a byte inside the first record.
        enc[12] ^= 0x01;
        assert!(matches!(
            IndexFile::decode(&enc),
            Err(IndexError::ChecksumMismatch { .. })
        ));
    }

    /// Recompute the trailing checksum after an edit, so only the check
    /// under test can reject the file.
    fn resign(enc: &mut [u8]) {
        let body = enc.len() - 8;
        let sum = fnv1a64(&enc[..body]);
        enc[body..].copy_from_slice(&sum.to_be_bytes());
    }

    #[test]
    fn bad_version_rejected() {
        let mut enc = IndexFile::from_partition_sizes(&[10], 1.0).encode();
        enc[4..6].copy_from_slice(&(INDEX_VERSION + 1).to_be_bytes());
        resign(&mut enc);
        assert_eq!(
            IndexFile::decode(&enc),
            Err(IndexError::BadVersion(INDEX_VERSION + 1))
        );
    }

    #[test]
    fn gapped_partitions_rejected() {
        let mut enc = IndexFile::from_partition_sizes(&[10, 20, 30], 1.0).encode();
        // Partition 1 claims to start at 11, one byte past partition 0.
        enc[10 + 24..10 + 32].copy_from_slice(&11u64.to_be_bytes());
        resign(&mut enc);
        assert_eq!(
            IndexFile::decode(&enc),
            Err(IndexError::InconsistentOffsets { partition: 1 })
        );
    }

    #[test]
    fn encoding_is_big_endian_hadoop_layout() {
        let enc = IndexFile::from_partition_sizes(&[7], 1.0).encode();
        assert_eq!(enc.len(), 10 + 24 + 8);
        assert_eq!(&enc[..4], b"HIDX");
        assert_eq!(enc[4..6], INDEX_VERSION.to_be_bytes());
        assert_eq!(enc[6..10], 1u32.to_be_bytes());
        assert_eq!(enc[10 + 8..10 + 16], 7u64.to_be_bytes());
    }

    #[test]
    fn empty_index_roundtrips() {
        let f = IndexFile::from_partition_sizes(&[], 1.0);
        let decoded = IndexFile::decode(&f.encode()).unwrap();
        assert_eq!(decoded.num_partitions(), 0);
        assert_eq!(decoded.total_bytes(), 0);
    }
}
