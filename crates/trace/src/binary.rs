//! Compact binary trace format.
//!
//! Traces get long (the paper's runs reach tens of millions of accesses), so
//! a fixed-width binary encoding is provided alongside the paper-style text
//! format: a 1-byte tag followed by little-endian fields.
//!
//! ```text
//! 0x01 loop:u32 kind:u8              checkpoint   (6 bytes)
//! 0x02 instr:u32 addr:u32 kind:u8    access       (10 bytes)
//! ```
//!
//! Decoding is **zero-copy**: [`RecordReader`] walks a `&[u8]` in place and
//! yields [`Record`]s without any intermediate `Vec<Record>` or per-record
//! heap allocation — the building block under the framed
//! [`foray-trace/v1`](crate::file) container. Failures are reported as a
//! typed [`DecodeError`] carrying the byte offset and reason.

use crate::record::{Access, AccessKind, InstrAddr, MemAddr, Record};
use crate::sink::TraceSink;
use minic::{CheckpointKind, LoopId};
use std::fmt;
use std::io::{self, Write};

const TAG_CHECKPOINT: u8 = 0x01;
const TAG_ACCESS: u8 = 0x02;

const CHECKPOINT_BYTES: usize = 6;
const ACCESS_BYTES: usize = 10;

/// Upper bound on the encoded size of any single record — the size of a
/// caller-provided scratch buffer for [`encode_record_into`].
pub const MAX_RECORD_BYTES: usize = ACCESS_BYTES;

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
/// ```
/// use minic_trace::binary::{self, DecodeReason};
///
/// let err = binary::from_bytes(&[0xff]).unwrap_err();
/// assert_eq!(err.offset, 0);
/// assert_eq!(err.reason, DecodeReason::BadTag(0xff));
/// assert_eq!(err.to_string(), "trace byte 0: bad record tag 0xff");
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

/// Encoded size of one record, in bytes.
pub fn encoded_len(rec: &Record) -> usize {
    match rec {
        Record::Checkpoint { .. } => CHECKPOINT_BYTES,
        Record::Access(_) => ACCESS_BYTES,
    }
}

/// Encodes one record into a caller-provided fixed scratch buffer,
/// returning the number of bytes written — the allocation-free core of
/// every encoder in this module.
///
/// # Examples
///
/// ```
/// use minic_trace::binary::{encode_record_into, MAX_RECORD_BYTES};
/// use minic_trace::{AccessKind, Record};
///
/// let mut scratch = [0u8; MAX_RECORD_BYTES];
/// let rec = Record::access(0x4002a0, 0x7fff5934, AccessKind::Write);
/// let n = encode_record_into(&rec, &mut scratch);
/// assert_eq!(n, 10);
/// assert_eq!(scratch[0], 0x02);
/// ```
pub fn encode_record_into(rec: &Record, buf: &mut [u8; MAX_RECORD_BYTES]) -> usize {
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
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let mut scratch = [0u8; MAX_RECORD_BYTES];
    let n = encode_record_into(rec, &mut scratch);
    out.extend_from_slice(&scratch[..n]);
}

/// Encodes a whole trace, reserving the exact output size up front.
pub fn to_bytes(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.iter().map(encoded_len).sum());
    for r in records {
        encode_record(r, &mut out);
    }
    out
}

/// Decodes a whole binary trace into an owned vector.
///
/// Prefer [`RecordReader`] when the records are consumed once in order —
/// it performs no intermediate allocation.
///
/// # Errors
///
/// Returns a [`DecodeError`] with byte offset and reason on bad tags, bad
/// kind bytes, or truncation.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic_trace::DecodeError> {
/// use minic_trace::{binary, AccessKind, Record};
/// let recs = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
/// let bytes = binary::to_bytes(&recs);
/// assert_eq!(binary::from_bytes(&bytes)?, recs);
/// # Ok(())
/// # }
/// ```
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<Record>, DecodeError> {
    RecordReader::new(bytes).collect()
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

/// Zero-copy streaming decoder over a byte slice.
///
/// Decodes records in place — no intermediate `Vec<Record>`, no per-record
/// heap allocation. After the first error the iterator is fused (further
/// calls yield `None`).
///
/// # Examples
///
/// ```
/// use minic_trace::{binary, AccessKind, Record};
///
/// let recs =
///     vec![Record::checkpoint(4, minic::CheckpointKind::LoopBegin), Record::access(0x4002a0, 0x7fff5934, AccessKind::Write)];
/// let bytes = binary::to_bytes(&recs);
/// let decoded: Result<Vec<Record>, _> = binary::RecordReader::new(&bytes).collect();
/// assert_eq!(decoded.unwrap(), recs);
/// ```
#[derive(Debug, Clone)]
pub struct RecordReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> RecordReader<'a> {
    /// Wraps a byte slice holding concatenated binary records.
    pub fn new(bytes: &'a [u8]) -> Self {
        RecordReader { bytes, pos: 0, failed: false }
    }

    /// Byte offset of the next record to decode.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The undecoded tail of the input.
    pub fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

impl Iterator for RecordReader<'_> {
    type Item = Result<Record, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos == self.bytes.len() {
            return None;
        }
        match decode_one(&self.bytes[self.pos..], self.pos as u64) {
            Ok((rec, len)) => {
                self.pos += len;
                Some(Ok(rec))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Writes binary records to any [`Write`]; pass `&mut writer` to keep
/// ownership.
#[derive(Debug)]
pub struct BinaryWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> BinaryWriter<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        BinaryWriter { out, error: None }
    }

    /// First latched I/O error, if any (see [`crate::text::TextWriter`]).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for BinaryWriter<W> {
    fn record(&mut self, rec: &Record) {
        if self.error.is_some() {
            return;
        }
        let mut scratch = [0u8; MAX_RECORD_BYTES];
        let n = encode_record_into(rec, &mut scratch);
        if let Err(e) = self.out.write_all(&scratch[..n]) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
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

    #[test]
    fn round_trip() {
        let recs = sample();
        assert_eq!(from_bytes(&to_bytes(&recs)).unwrap(), recs);
    }

    #[test]
    fn record_reader_round_trip_and_offsets() {
        let recs = sample();
        let bytes = to_bytes(&recs);
        let mut reader = RecordReader::new(&bytes);
        assert_eq!(reader.offset(), 0);
        let decoded: Vec<Record> = reader.by_ref().map(Result::unwrap).collect();
        assert_eq!(decoded, recs);
        assert_eq!(reader.offset(), bytes.len());
        assert!(reader.remaining().is_empty());
    }

    #[test]
    fn writer_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf);
            for r in sample() {
                w.record(&r);
            }
            w.finish();
            assert!(w.io_error().is_none());
        }
        assert_eq!(from_bytes(&buf).unwrap(), sample());
    }

    #[test]
    fn rejects_truncation_and_bad_tags() {
        let bytes = to_bytes(&sample());
        let err = from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err.reason, DecodeReason::Truncated { .. }));
        // The stream ends inside the final 6-byte checkpoint.
        assert_eq!(err.offset, bytes.len() as u64 - CHECKPOINT_BYTES as u64);
        let err = from_bytes(&[0xff]).unwrap_err();
        assert_eq!(err, DecodeError { offset: 0, reason: DecodeReason::BadTag(0xff) });
        let err = from_bytes(&[TAG_CHECKPOINT, 0, 0, 0, 0, 9]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadCheckpointKind(9));
        let bytes = to_bytes(&[Record::access(1, 2, AccessKind::Read)]);
        let mut corrupt = bytes.clone();
        corrupt[9] = 7;
        assert_eq!(from_bytes(&corrupt).unwrap_err().reason, DecodeReason::BadAccessKind(7));
    }

    #[test]
    fn error_offsets_point_at_the_failing_record() {
        // Two good checkpoints (12 bytes), then garbage.
        let mut bytes = to_bytes(&sample()[..2]);
        bytes.push(0xee);
        let err = from_bytes(&bytes).unwrap_err();
        assert_eq!(err.offset, 12);
        assert_eq!(err.reason, DecodeReason::BadTag(0xee));
        // The zero-copy reader fuses after the error.
        let mut r = RecordReader::new(&bytes);
        assert!(r.next().unwrap().is_ok());
        assert!(r.next().unwrap().is_ok());
        assert!(r.next().unwrap().is_err());
        assert!(r.next().is_none());
    }

    #[test]
    fn encoding_is_compact_and_sized_exactly() {
        let recs = sample();
        let bytes = to_bytes(&recs);
        // 2 accesses * 10 bytes + 3 checkpoints * 6 bytes.
        assert_eq!(bytes.len(), 2 * 10 + 3 * 6);
        assert_eq!(bytes.len(), recs.iter().map(encoded_len).sum::<usize>());
        assert_eq!(bytes.capacity(), bytes.len(), "to_bytes reserves exactly");
    }

    #[test]
    fn decode_errors_convert_to_io_errors() {
        let e: io::Error = from_bytes(&[0xff]).unwrap_err().into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad record tag"));
    }
}
