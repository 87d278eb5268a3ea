//! The [`RecordSource`] abstraction: anything that can replay a record
//! stream into a [`TraceSink`].
//!
//! [`TraceSink`] is the *push* half of the trace contract (the simulator
//! pushes records during profiling); `RecordSource` is the *pull* half —
//! in-memory slices and on-disk trace files (opened or streamed) all
//! replay through the same interface, so every consumer built on
//! `TraceSink` (the analyzer, statistics, tees, writers) works identically
//! on any of them.
//!
//! Sources are consumed by value: replaying advances the underlying
//! decoder, and a second replay needs a fresh source (cheap for slices and
//! for [`TraceFile::records`](crate::file::TraceFile::records)).
//!
//! [`FileRecords`](crate::file::FileRecords) is also the *seekable* source:
//! [`TraceFile::records_from_loop`](crate::file::TraceFile::records_from_loop)
//! returns one positioned mid-file by the v2 checkpoint index, so an
//! analysis scoped to one loop nest streams only the trace suffix.

use crate::file::{ReadError, TraceFile};
use crate::record::Record;
use crate::sink::TraceSink;
use std::convert::Infallible;

/// A replayable stream of trace records.
///
/// # Examples
///
/// A slice and a trace file drive the same sink:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use minic_trace::{file, AccessKind, CountingSink, Record, RecordSource};
///
/// let recs = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
///
/// let mut counter = CountingSink::new();
/// recs.as_slice().stream_into(&mut counter)?; // Error = Infallible
/// assert_eq!(counter.total(), 1);
///
/// let mut framed = Vec::new();
/// file::write_to(&mut framed, &recs)?;
/// let file = file::TraceFile::from_bytes(framed)?;
/// let mut counter = CountingSink::new();
/// (&file).stream_into(&mut counter)?;
/// assert_eq!(counter.total(), 1);
/// # Ok(())
/// # }
/// ```
pub trait RecordSource {
    /// The replay failure type ([`Infallible`] for in-memory slices).
    type Error;

    /// Replays every record into `sink` in stream order, calling
    /// [`TraceSink::finish`] at the end, and returns the record count.
    ///
    /// # Errors
    ///
    /// Stops at the source's first decode/read failure; records already
    /// replayed stay consumed by the sink.
    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Self::Error>;
}

/// Both file readers are sources: the constant-memory
/// [`TraceReader`](crate::file::TraceReader) and the zero-copy walk of an
/// opened trace file, [`FileRecords`](crate::file::FileRecords).
impl<B: crate::file::bytes::Source> RecordSource for crate::file::Records<B> {
    type Error = ReadError;

    /// Drains through `fold`, whose override decodes a whole block per
    /// iterator step with the sink inlined, instead of paying a `next()`
    /// call per record. Sound because the readers yield nothing after
    /// their first `Err`, since `fold` cannot stop early.
    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Self::Error> {
        // `try_fold` cannot be overridden on stable, so the readers
        // override `fold`; switching this to `try_fold` would silently
        // fall back to the per-record `next()` path.
        #[allow(clippy::manual_try_fold)]
        let n = self.fold(Ok(0u64), |acc: Result<u64, ReadError>, rec| {
            let n = acc?;
            sink.record(&rec?);
            Ok(n + 1)
        })?;
        sink.finish();
        Ok(n)
    }
}

impl RecordSource for &[Record] {
    type Error = Infallible;

    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Infallible> {
        for rec in self {
            sink.record(rec);
        }
        sink.finish();
        Ok(self.len() as u64)
    }
}

/// Replays [`TraceFile::records`]; the borrow lets one opened file be
/// replayed many times (e.g. analyses under different configurations of
/// the same trace).
impl RecordSource for &TraceFile {
    type Error = ReadError;

    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, ReadError> {
        self.records().stream_into(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file;
    use crate::record::AccessKind;
    use crate::sink::{CountingSink, VecSink};
    use minic::CheckpointKind;

    fn sample() -> Vec<Record> {
        vec![
            Record::checkpoint(0, CheckpointKind::LoopBegin),
            Record::checkpoint(0, CheckpointKind::BodyBegin),
            Record::access(0x400000, 0x10000000, AccessKind::Read),
            Record::checkpoint(0, CheckpointKind::BodyEnd),
        ]
    }

    #[test]
    fn slice_source_replays_in_order() {
        let recs = sample();
        let mut sink = VecSink::new();
        let n = recs.as_slice().stream_into(&mut sink).unwrap();
        assert_eq!(n, 4);
        assert_eq!(sink.into_records(), recs);
    }

    #[test]
    fn decoder_and_file_sources_agree_with_the_slice() {
        let recs = sample();
        let mut framed = Vec::new();
        file::write_to(&mut framed, &recs).unwrap();
        let tf = file::TraceFile::from_bytes(framed.clone()).unwrap();
        let mut b = VecSink::new();
        let n = (&tf).stream_into(&mut b).unwrap();
        assert_eq!((n, b.records), (4, recs.clone()));

        let mut c = CountingSink::new();
        file::TraceReader::new(framed.as_slice()).unwrap().stream_into(&mut c).unwrap();
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn errors_propagate_from_the_source() {
        // A v1 file whose last record's tag is overwritten: the tag follows
        // the 16-byte file header, the 8-byte block header, two 6-byte
        // checkpoints and one 10-byte access.
        let mut framed = Vec::new();
        file::write_to_with(&mut framed, &sample(), file::FormatVersion::V1).unwrap();
        let tag_at = file::HEADER_BYTES + 8 + 2 * 6 + 10;
        framed[tag_at] = 0xff;
        let mut sink = CountingSink::new();
        let err = file::TraceReader::new(framed.as_slice()).unwrap().stream_into(&mut sink);
        let Err(ReadError::Decode(err)) = err else { panic!("want a decode error, got {err:?}") };
        assert_eq!(err.offset, tag_at as u64);
        // Records before the corruption were still delivered.
        assert_eq!(sink.total(), 3);
    }
}
