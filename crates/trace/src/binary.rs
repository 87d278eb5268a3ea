//! The fixed-width record codec inside `foray-trace/v1` blocks.
//!
//! Each record is a 1-byte tag followed by little-endian fields:
//!
//! ```text
//! 0x01 loop:u32 kind:u8              checkpoint   (6 bytes)
//! 0x02 instr:u32 addr:u32 kind:u8    access       (10 bytes)
//! ```
//!
//! The codec is private to the container: [`crate::file`] frames these
//! records into blocks and decodes them in place from the block payload.
//! Failures are reported as a typed [`DecodeError`] carrying the byte
//! offset and reason.

use crate::record::{Access, AccessKind, InstrAddr, MemAddr, Record};
use minic::{CheckpointKind, LoopId};
use std::fmt;
use std::io;

const TAG_CHECKPOINT: u8 = 0x01;
const TAG_ACCESS: u8 = 0x02;

const CHECKPOINT_BYTES: usize = 6;
const ACCESS_BYTES: usize = 10;

/// Upper bound on the encoded size of any single record — the size of a
/// caller-provided scratch buffer for [`encode_record_into`].
pub(crate) const MAX_RECORD_BYTES: usize = ACCESS_BYTES;

fn kind_byte(kind: CheckpointKind) -> u8 {
    match kind {
        CheckpointKind::LoopBegin => 0,
        CheckpointKind::BodyBegin => 1,
        CheckpointKind::BodyEnd => 2,
    }
}

fn kind_from_byte(b: u8) -> Option<CheckpointKind> {
    Some(match b {
        0 => CheckpointKind::LoopBegin,
        1 => CheckpointKind::BodyBegin,
        2 => CheckpointKind::BodyEnd,
        _ => return None,
    })
}

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeReason {
    /// The record tag byte is neither checkpoint nor access.
    BadTag(u8),
    /// The checkpoint-kind byte is out of range.
    BadCheckpointKind(u8),
    /// The read/write byte is out of range.
    BadAccessKind(u8),
    /// The stream ends mid-record.
    Truncated {
        /// Bytes the current record still needs (tag included).
        needed: usize,
        /// Bytes actually left in the stream.
        available: usize,
    },
}

impl fmt::Display for DecodeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeReason::BadTag(t) => write!(f, "bad record tag {t:#04x}"),
            DecodeReason::BadCheckpointKind(k) => write!(f, "bad checkpoint kind {k}"),
            DecodeReason::BadAccessKind(k) => write!(f, "bad access kind {k}"),
            DecodeReason::Truncated { needed, available } => {
                write!(f, "truncated record: needs {needed} bytes, {available} left")
            }
        }
    }
}

/// Typed decode failure: where in the stream, and why.
///
/// # Examples
///
/// A `foray-trace/v1` file whose first record tag, after the 16-byte file
/// header and the 8-byte block header, is overwritten:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use minic_trace::file::{self, FormatVersion, TraceFile};
/// use minic_trace::{AccessKind, DecodeReason, ReadError, Record};
///
/// let mut bytes = Vec::new();
/// let recs = [Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
/// file::write_to_with(&mut bytes, &recs, FormatVersion::V1)?;
/// bytes[24] = 0xff;
/// let first = TraceFile::from_bytes(bytes)?.records().next();
/// let Some(Err(ReadError::Decode(err))) = first else { unreachable!() };
/// assert_eq!((err.offset, err.reason), (24, DecodeReason::BadTag(0xff)));
/// assert_eq!(err.to_string(), "trace byte 24: bad record tag 0xff");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the record that failed to decode (the tag byte).
    pub offset: u64,
    /// What went wrong.
    pub reason: DecodeReason,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Encodes one record into a caller-provided fixed scratch buffer,
/// returning the number of bytes written — the allocation-free core of
/// [`encode_record`].
pub(crate) fn encode_record_into(rec: &Record, buf: &mut [u8; MAX_RECORD_BYTES]) -> usize {
    match rec {
        Record::Checkpoint { loop_id, kind } => {
            buf[0] = TAG_CHECKPOINT;
            buf[1..5].copy_from_slice(&loop_id.0.to_le_bytes());
            buf[5] = kind_byte(*kind);
            CHECKPOINT_BYTES
        }
        Record::Access(a) => {
            buf[0] = TAG_ACCESS;
            buf[1..5].copy_from_slice(&a.instr.0.to_le_bytes());
            buf[5..9].copy_from_slice(&a.addr.0.to_le_bytes());
            buf[9] = match a.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            };
            ACCESS_BYTES
        }
    }
}

/// Appends one encoded record to `out` (no temporary allocation; the bytes
/// go through a stack scratch buffer).
pub(crate) fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let mut scratch = [0u8; MAX_RECORD_BYTES];
    let n = encode_record_into(rec, &mut scratch);
    out.extend_from_slice(&scratch[..n]);
}

/// Decodes the record starting at `bytes[0]`, reporting errors at absolute
/// offset `base`. Returns the record and its encoded length.
pub(crate) fn decode_one(bytes: &[u8], base: u64) -> Result<(Record, usize), DecodeError> {
    let err = |reason| DecodeError { offset: base, reason };
    let need = |n: usize| {
        if bytes.len() < n {
            Err(err(DecodeReason::Truncated { needed: n, available: bytes.len() }))
        } else {
            Ok(())
        }
    };
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("length checked"));
    match bytes.first() {
        None => Err(err(DecodeReason::Truncated { needed: 1, available: 0 })),
        Some(&TAG_CHECKPOINT) => {
            need(CHECKPOINT_BYTES)?;
            let kind = kind_from_byte(bytes[5])
                .ok_or_else(|| err(DecodeReason::BadCheckpointKind(bytes[5])))?;
            Ok((Record::Checkpoint { loop_id: LoopId(u32_at(1)), kind }, CHECKPOINT_BYTES))
        }
        Some(&TAG_ACCESS) => {
            need(ACCESS_BYTES)?;
            let kind = match bytes[9] {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                k => return Err(err(DecodeReason::BadAccessKind(k))),
            };
            let access = Access { instr: InstrAddr(u32_at(1)), addr: MemAddr(u32_at(5)), kind };
            Ok((Record::Access(access), ACCESS_BYTES))
        }
        Some(&t) => Err(err(DecodeReason::BadTag(t))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::checkpoint(0, CheckpointKind::LoopBegin),
            Record::checkpoint(0, CheckpointKind::BodyBegin),
            Record::access(0x4002a0, 0x7fff5934, AccessKind::Write),
            Record::access(0x400004, 0x10000000, AccessKind::Read),
            Record::checkpoint(0, CheckpointKind::BodyEnd),
        ]
    }

    fn encode(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        records.iter().for_each(|r| encode_record(r, &mut out));
        out
    }

    /// Decodes a whole payload the way a v1 block is walked: record by
    /// record from offset 0, stopping at the first error.
    fn decode(bytes: &[u8]) -> Result<Vec<Record>, DecodeError> {
        let (mut out, mut pos) = (Vec::new(), 0);
        while pos < bytes.len() {
            let (rec, len) = decode_one(&bytes[pos..], pos as u64)?;
            out.push(rec);
            pos += len;
        }
        Ok(out)
    }

    #[test]
    fn round_trip() {
        let recs = sample();
        assert_eq!(decode(&encode(&recs)).unwrap(), recs);
    }

    #[test]
    fn rejects_truncation_and_bad_tags() {
        let bytes = encode(&sample());
        let err = decode(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err.reason, DecodeReason::Truncated { .. }));
        // The stream ends inside the final 6-byte checkpoint.
        assert_eq!(err.offset, bytes.len() as u64 - CHECKPOINT_BYTES as u64);
        let err = decode(&[0xff]).unwrap_err();
        assert_eq!(err, DecodeError { offset: 0, reason: DecodeReason::BadTag(0xff) });
        let err = decode(&[TAG_CHECKPOINT, 0, 0, 0, 0, 9]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadCheckpointKind(9));
        let mut corrupt = encode(&[Record::access(1, 2, AccessKind::Read)]);
        corrupt[9] = 7;
        assert_eq!(decode(&corrupt).unwrap_err().reason, DecodeReason::BadAccessKind(7));
    }

    #[test]
    fn error_offsets_point_at_the_failing_record() {
        // Two good checkpoints (12 bytes), then garbage.
        let mut bytes = encode(&sample()[..2]);
        bytes.push(0xee);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.offset, 12);
        assert_eq!(err.reason, DecodeReason::BadTag(0xee));
    }

    #[test]
    fn encoding_is_compact_and_sized_exactly() {
        // 2 accesses * 10 bytes + 3 checkpoints * 6 bytes.
        assert_eq!(encode(&sample()).len(), 2 * 10 + 3 * 6);
        for rec in sample() {
            let mut scratch = [0u8; MAX_RECORD_BYTES];
            let n = encode_record_into(&rec, &mut scratch);
            assert_eq!(decode_one(&scratch[..n], 0).unwrap(), (rec, n));
        }
    }

    #[test]
    fn decode_errors_convert_to_io_errors() {
        let e: io::Error = decode(&[0xff]).unwrap_err().into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad record tag"));
    }
}
