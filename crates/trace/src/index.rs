//! The `foray-trace/v2` checkpoint index: per-block seek metadata.
//!
//! A v2 writer appends one [`IndexEntry`] per block between the block
//! terminator and the footer. Each entry records where the block starts,
//! which global record ordinal it begins at, and the range of loop ids
//! whose checkpoints appear inside it — enough for `trace analyze
//! --from-loop N` to drop a reader at the first block that can contain
//! loop `N` without decoding the prefix (opening the file has already
//! CRC-checked every block). Because the v2 delta state resets at block
//! boundaries, a block located through the index decodes stand-alone.
//!
//! On-disk layout (all integers little-endian, following the 12-byte zero
//! block terminator):
//!
//! ```text
//! +0       4     entry count E, u32 (0 = index absent/disabled)
//! +4       24·E  entries:
//!   +0     8     block file offset (of the block's length field), u64
//!   +8     8     global ordinal of the block's first record, u64
//!   +16    4     smallest checkpoint LoopId in the block, u32
//!   +20    4     largest checkpoint LoopId in the block, u32
//! +4+24·E  4     CRC32 over the E·24 entry bytes
//! ```
//!
//! Blocks with no checkpoint records store the inverted range
//! `(u32::MAX, 0)` — impossible for a real min/max pair, so every actual
//! loop id (including `u32::MAX`) stays representable. It is surfaced as
//! [`IndexEntry::loop_range`] = `None`.

use crate::crc::crc32;
use minic::LoopId;

/// Sentinel pair for "this block holds no checkpoint records": an
/// inverted (min, max) range no real block can produce.
const NO_LOOPS: (u32, u32) = (u32::MAX, 0);

/// Encoded size of one index entry.
pub const ENTRY_BYTES: usize = 24;

/// Seek metadata for one block of a v2 trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// File offset of the block (its length field).
    pub offset: u64,
    /// Global ordinal (0-based) of the block's first record.
    pub first_ordinal: u64,
    /// Smallest loop id among the block's checkpoints (the [`NO_LOOPS`]
    /// inverted pair if the block has none).
    loop_min: u32,
    /// Largest loop id among the block's checkpoints.
    loop_max: u32,
}

impl IndexEntry {
    /// Builds an entry; `loops` is the (min, max) checkpoint loop-id range
    /// observed in the block, or `None` for a checkpoint-free block.
    pub fn new(offset: u64, first_ordinal: u64, loops: Option<(LoopId, LoopId)>) -> IndexEntry {
        let (loop_min, loop_max) = match loops {
            Some((lo, hi)) => (lo.0, hi.0),
            None => NO_LOOPS,
        };
        IndexEntry { offset, first_ordinal, loop_min, loop_max }
    }

    /// The inclusive range of checkpoint loop ids in the block, `None` if
    /// the block holds only access records.
    pub fn loop_range(&self) -> Option<(LoopId, LoopId)> {
        if self.loop_min > self.loop_max {
            None
        } else {
            Some((LoopId(self.loop_min), LoopId(self.loop_max)))
        }
    }

    /// Whether checkpoints for `loop_id` can appear in this block (range
    /// test — a hit means "possibly present", a miss means "certainly
    /// absent").
    pub fn may_contain(&self, loop_id: LoopId) -> bool {
        self.loop_range().is_some_and(|(lo, hi)| lo <= loop_id && loop_id <= hi)
    }
}

/// The complete per-block index of a v2 trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointIndex {
    entries: Vec<IndexEntry>,
}

impl CheckpointIndex {
    /// Wraps a built entry list (one per block, in file order).
    pub fn new(entries: Vec<IndexEntry>) -> CheckpointIndex {
        CheckpointIndex { entries }
    }

    /// The entries, in file order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Entry of the first block that may contain a checkpoint for
    /// `loop_id` (see [`IndexEntry::may_contain`]); `None` when no block's
    /// range covers it, i.e. the loop certainly never runs in this trace.
    pub fn find_loop(&self, loop_id: LoopId) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.may_contain(loop_id))
    }

    /// Serializes the index section (count, entries, CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.entries.len() * ENTRY_BYTES);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.first_ordinal.to_le_bytes());
            out.extend_from_slice(&e.loop_min.to_le_bytes());
            out.extend_from_slice(&e.loop_max.to_le_bytes());
        }
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses the entry block of an index section (the `E·24` bytes after
    /// the count) and verifies `crc` against it.
    ///
    /// # Errors
    ///
    /// A static reason string when the byte length disagrees with the
    /// entry size or the CRC does not match.
    pub fn parse(entry_bytes: &[u8], crc: u32) -> Result<CheckpointIndex, &'static str> {
        if entry_bytes.len() % ENTRY_BYTES != 0 {
            return Err("index size is not a multiple of the entry size");
        }
        if crc32(entry_bytes) != crc {
            return Err("index CRC mismatch");
        }
        let u64_at = |b: &[u8], i: usize| {
            u64::from_le_bytes(b[i..i + 8].try_into().expect("length checked"))
        };
        let u32_at = |b: &[u8], i: usize| {
            u32::from_le_bytes(b[i..i + 4].try_into().expect("length checked"))
        };
        let entries = entry_bytes
            .chunks_exact(ENTRY_BYTES)
            .map(|e| IndexEntry {
                offset: u64_at(e, 0),
                first_ordinal: u64_at(e, 8),
                loop_min: u32_at(e, 16),
                loop_max: u32_at(e, 20),
            })
            .collect();
        Ok(CheckpointIndex { entries })
    }
}

/// Running (min, max) loop-range accumulator a writer keeps per block.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopRange {
    range: Option<(u32, u32)>,
}

impl LoopRange {
    /// Folds one checkpoint's loop id into the range.
    pub fn observe(&mut self, loop_id: LoopId) {
        self.range = Some(match self.range {
            None => (loop_id.0, loop_id.0),
            Some((lo, hi)) => (lo.min(loop_id.0), hi.max(loop_id.0)),
        });
    }

    /// The accumulated range, and resets for the next block.
    pub fn take(&mut self) -> Option<(LoopId, LoopId)> {
        self.range.take().map(|(lo, hi)| (LoopId(lo), LoopId(hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointIndex {
        CheckpointIndex::new(vec![
            IndexEntry::new(16, 0, Some((LoopId(0), LoopId(3)))),
            IndexEntry::new(4096, 900, None),
            IndexEntry::new(8192, 1800, Some((LoopId(2), LoopId(7)))),
        ])
    }

    #[test]
    fn encode_parse_round_trip() {
        let index = sample();
        let bytes = index.encode();
        assert_eq!(bytes.len(), 4 + 3 * ENTRY_BYTES + 4);
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let parsed = CheckpointIndex::parse(&bytes[4..bytes.len() - 4], crc).unwrap();
        assert_eq!(parsed, index);
    }

    #[test]
    fn parse_rejects_corruption() {
        let index = sample();
        let bytes = index.encode();
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let mut flipped = bytes[4..bytes.len() - 4].to_vec();
        flipped[5] ^= 1;
        assert_eq!(CheckpointIndex::parse(&flipped, crc), Err("index CRC mismatch"));
        assert!(CheckpointIndex::parse(&bytes[4..bytes.len() - 5], crc).is_err());
    }

    #[test]
    fn find_loop_uses_the_first_covering_block() {
        let index = sample();
        assert_eq!(index.find_loop(LoopId(2)).unwrap().offset, 16);
        assert_eq!(index.find_loop(LoopId(7)).unwrap().offset, 8192);
        assert!(index.find_loop(LoopId(8)).is_none());
        // The checkpoint-free block never matches.
        assert!(!index.entries()[1].may_contain(LoopId(0)));
    }

    #[test]
    fn loop_range_accumulates_and_resets() {
        let mut r = LoopRange::default();
        assert!(r.take().is_none());
        r.observe(LoopId(5));
        r.observe(LoopId(2));
        r.observe(LoopId(9));
        assert_eq!(r.take(), Some((LoopId(2), LoopId(9))));
        assert!(r.take().is_none());
    }
}
