//! The [`RecordSource`] abstraction: anything that can replay a record
//! stream into a [`TraceSink`].
//!
//! [`TraceSink`] is the *push* half of the trace contract (the simulator
//! pushes records during profiling); `RecordSource` is the *pull* half —
//! in-memory slices, zero-copy byte decoders, and on-disk trace files all
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
/// A slice, raw bytes, and a trace file all drive the same sink:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use minic_trace::{binary, file, AccessKind, CountingSink, Record, RecordSource};
///
/// let recs = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
///
/// let mut counter = CountingSink::new();
/// recs.as_slice().stream_into(&mut counter)?; // Error = Infallible
/// assert_eq!(counter.total(), 1);
///
/// let bytes = binary::to_bytes(&recs);
/// let mut counter = CountingSink::new();
/// binary::RecordReader::new(&bytes).stream_into(&mut counter)?;
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

/// Drains a fallible record iterator into a sink — the shared body of the
/// decoder-backed [`RecordSource`] impls. Public so new sources outside
/// this crate can reuse it.
pub fn drain_iter<E, S>(
    iter: impl Iterator<Item = Result<Record, E>>,
    sink: &mut S,
) -> Result<u64, E>
where
    S: TraceSink + ?Sized,
{
    let mut n = 0u64;
    for rec in iter {
        sink.record(&rec?);
        n += 1;
    }
    sink.finish();
    Ok(n)
}

/// Drains a *fused* fallible iterator through its `fold` — the bulk path
/// for the file-backed sources, whose `fold` overrides decode a whole
/// block per iterator step with the sink inlined, instead of paying a
/// `next()` call per record. Only sound for iterators that yield nothing
/// after their first `Err` (both file readers fuse), since `fold` cannot
/// stop early.
fn drain_fold<E, S>(iter: impl Iterator<Item = Result<Record, E>>, sink: &mut S) -> Result<u64, E>
where
    S: TraceSink + ?Sized,
{
    // `try_fold` cannot be overridden on stable, so the readers override
    // `fold`; switching this to `try_fold` would silently fall back to
    // the per-record `next()` path.
    #[allow(clippy::manual_try_fold)]
    let n = iter.fold(Ok(0u64), |acc: Result<u64, E>, rec| {
        let n = acc?;
        sink.record(&rec?);
        Ok(n + 1)
    })?;
    sink.finish();
    Ok(n)
}

/// The zero-copy in-place byte decoder is a source.
impl RecordSource for crate::binary::RecordReader<'_> {
    type Error = crate::binary::DecodeError;

    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Self::Error> {
        drain_iter(self, sink)
    }
}

/// The constant-memory streaming file reader is a source.
impl<R: std::io::Read> RecordSource for crate::file::TraceReader<R> {
    type Error = ReadError;

    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Self::Error> {
        drain_fold(self, sink)
    }
}

/// A zero-copy walk of an opened trace file is a source.
impl RecordSource for crate::file::FileRecords<'_> {
    type Error = ReadError;

    fn stream_into<S: TraceSink + ?Sized>(self, sink: &mut S) -> Result<u64, Self::Error> {
        drain_fold(self, sink)
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
    use crate::binary::RecordReader;
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
        let bytes = crate::binary::to_bytes(&recs);
        let mut a = VecSink::new();
        RecordReader::new(&bytes).stream_into(&mut a).unwrap();
        assert_eq!(a.records, recs);

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
        let mut bytes = crate::binary::to_bytes(&sample());
        bytes.push(0xff);
        let mut sink = CountingSink::new();
        let err = RecordReader::new(&bytes).stream_into(&mut sink).unwrap_err();
        assert_eq!(err.offset, (bytes.len() - 1) as u64);
        // Records before the corruption were still delivered.
        assert_eq!(sink.total(), 4);
    }
}
