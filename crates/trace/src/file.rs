//! The `foray-trace` on-disk trace container (versions 1 and 2).
//!
//! The container is the one binary trace format: it frames record streams
//! into a self-describing file that can be identified on disk, versioned
//! and validated, so traces can be recorded once and re-analyzed many
//! times (the paper's offline mode at scales where re-profiling is the
//! bottleneck). Two format versions share the 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FORAYTRC"
//! 8       2     format version, u16 LE (1 or 2)
//! 10      2     reserved, must be 0
//! 12      4     writer block-capacity hint in bytes, u32 LE
//! 16      ..    length-prefixed blocks, then the terminator + trailer
//! ```
//!
//! **Version 1** (frozen, readable forever) stores fixed-width records:
//!
//! ```text
//! block   4     payload length N in bytes, u32 LE (N = 0 terminates)
//!         4     record count in this block, u32 LE
//!         N     payload: concatenated fixed-width binary records
//! footer  8     total record count, u64 LE (after the N = 0 terminator)
//! ```
//!
//! **Version 2** (the default) compresses each block with a
//! length-tagged delta codec, adds a CRC32 per payload, and appends
//! a [checkpoint index](crate::index) before the footer so readers can
//! seek to a loop region without replaying the prefix:
//!
//! ```text
//! block   4     payload length N in bytes, u32 LE (N = 0 terminates)
//!         4     record count in this block, u32 LE
//!         4     CRC32 of the payload, u32 LE
//!         N     payload: v2 length-tagged delta records (state resets per block)
//! index   4     entry count E, u32 LE; then E × 24-byte entries + CRC32
//! footer  8     total record count, u64 LE
//! ```
//!
//! All integers are little-endian. Blocks make streaming writes cheap (one
//! `write` syscall per ~64 KiB, no seeking back to patch a header), let
//! readers detect truncation at block granularity, and keep the in-memory
//! working set of [`TraceReader`] at one block regardless of trace length.
//! The footer double-checks that the stream was finished, not chopped.
//!
//! Both readers run one walker over the container: it alone reads block
//! headers, checks payload CRCs, and reads the terminator, the index
//! (audited against the blocks it walked) and the footer, so the two
//! accept exactly the same files. They differ only in the byte source:
//!
//! * [`TraceFile`] — whole file in one buffer, walked once at open, then
//!   records decoded zero-copy by [`FileRecords`]. This is the
//!   memory-mapped shape; the workspace denies `unsafe` code, so the
//!   buffer comes from one [`std::fs::read`] instead of `mmap(2)` — same
//!   single-allocation behaviour, no page-cache sharing. v2 files
//!   additionally expose [`TraceFile::records_from_loop`], the seekable
//!   entry point.
//! * [`TraceReader`] — constant-memory streaming over any [`Read`], which
//!   refills one block buffer and decodes as it walks.
//!
//! [`TraceWriter`] is a [`TraceSink`], so it can ride a profiling run and
//! write the file without ever materializing a `Vec<Record>`. The
//! [`FormatVersion`] knob picks the container version (default v2).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use minic_trace::file::{FormatVersion, TraceFile, TraceWriter};
//! use minic_trace::{AccessKind, Record, TraceSink};
//!
//! let trace = vec![
//!     Record::checkpoint(0, minic::CheckpointKind::LoopBegin),
//!     Record::access(0x400000, 0x1000_0000, AccessKind::Read),
//! ];
//! let mut writer = TraceWriter::new(Vec::new()); // v2 by default
//! for r in &trace {
//!     writer.record(r);
//! }
//! writer.finish();
//! let file = TraceFile::from_bytes(writer.into_inner())?;
//! assert_eq!(file.version(), FormatVersion::V2);
//! assert_eq!(file.record_count(), 2);
//! let decoded: Result<Vec<Record>, _> = file.records().collect();
//! assert_eq!(decoded?, trace);
//! # Ok(())
//! # }
//! ```

use crate::binary::{self, DecodeError};
use crate::crc::crc32;
use crate::index::{CheckpointIndex, IndexEntry, LoopRange, ENTRY_BYTES};
use crate::record::Record;
use crate::sink::TraceSink;
use crate::v2::{self, V2State};
use minic::LoopId;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// The 8 magic bytes opening every trace file.
pub const MAGIC: [u8; 8] = *b"FORAYTRC";

/// The newest format version this module writes (and the default).
pub const VERSION: u16 = 2;

/// Fixed header size: magic + version + reserved + block hint.
pub const HEADER_BYTES: usize = 16;

/// Default block payload capacity for [`TraceWriter`].
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// Upper bound a reader accepts for one block's payload — a corrupt length
/// field must not trigger a gigabyte allocation.
const MAX_BLOCK_BYTES: u32 = 1 << 30;

/// Container version selector for [`TraceWriter`] (readers accept both,
/// per the versioning contract in `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FormatVersion {
    /// Fixed-width records, no checksums, no index. Frozen; readable
    /// forever.
    V1,
    /// Per-block length-tagged delta compression + CRC32 + checkpoint index.
    #[default]
    V2,
}

impl FormatVersion {
    /// The on-disk `u16` version number.
    pub const fn number(self) -> u16 {
        match self {
            FormatVersion::V1 => 1,
            FormatVersion::V2 => 2,
        }
    }

    /// Maps an on-disk version number back to a known format.
    pub fn from_number(v: u16) -> Option<FormatVersion> {
        match v {
            1 => Some(FormatVersion::V1),
            2 => Some(FormatVersion::V2),
            _ => None,
        }
    }

    /// CLI spelling (`v1` / `v2`).
    pub fn as_str(self) -> &'static str {
        match self {
            FormatVersion::V1 => "v1",
            FormatVersion::V2 => "v2",
        }
    }

    /// Parses the CLI spelling accepted by `--trace-format`.
    pub fn parse(s: &str) -> Option<FormatVersion> {
        match s {
            "v1" | "1" => Some(FormatVersion::V1),
            "v2" | "2" => Some(FormatVersion::V2),
            _ => None,
        }
    }

    /// Size of a block header in this version (v2 adds the CRC field).
    const fn block_header_bytes(self) -> usize {
        match self {
            FormatVersion::V1 => 8,
            FormatVersion::V2 => 12,
        }
    }

    /// Worst-case encoded size of one record in this version.
    const fn max_record_bytes(self) -> usize {
        match self {
            FormatVersion::V1 => binary::MAX_RECORD_BYTES,
            FormatVersion::V2 => v2::MAX_RECORD_BYTES,
        }
    }
}

impl fmt::Display for FormatVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a trace file failed to open or replay.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 8]),
    /// The file's format version is not one this reader knows (newer than
    /// [`VERSION`], or an unknown number like 0).
    UnsupportedVersion(u16),
    /// The reserved header field is non-zero.
    BadHeader,
    /// The file ends mid-structure (`what` names the missing piece).
    Truncated {
        /// Byte offset where the missing structure should start.
        offset: u64,
        /// Which structure is cut off.
        what: &'static str,
    },
    /// A block's payload failed to decode; the offset is absolute.
    Decode(DecodeError),
    /// A block declares a payload length past the sanity bound.
    OversizedBlock {
        /// Byte offset of the block header.
        offset: u64,
        /// The declared payload length.
        len: u32,
    },
    /// A v2 block's payload does not match its stored CRC32.
    BadBlockCrc {
        /// Byte offset of the block header.
        offset: u64,
        /// CRC stored in the block header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The v2 checkpoint index is corrupt or disagrees with the blocks.
    BadIndex {
        /// Byte offset of the index section.
        offset: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A block's payload decoded to a different number of records than its
    /// header declared.
    BlockCountMismatch {
        /// Byte offset of the block header.
        offset: u64,
        /// Record count the block header declared.
        declared: u32,
        /// Records actually decoded from the payload.
        decoded: u32,
    },
    /// The footer's total record count disagrees with the blocks.
    CountMismatch {
        /// Count the footer declared.
        declared: u64,
        /// Records actually seen across all blocks.
        decoded: u64,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "trace file i/o: {e}"),
            ReadError::BadMagic(m) => write!(f, "not a foray-trace file (magic {m:02x?})"),
            ReadError::UnsupportedVersion(v) => {
                if *v > VERSION {
                    write!(
                        f,
                        "foray-trace version {v} is newer than this reader supports \
                         (reads 1..={VERSION})"
                    )
                } else {
                    write!(f, "unknown foray-trace version {v} (reader reads 1..={VERSION})")
                }
            }
            ReadError::BadHeader => write!(f, "corrupt foray-trace header (reserved field set)"),
            ReadError::Truncated { offset, what } => {
                write!(f, "trace file truncated at byte {offset}: missing {what}")
            }
            ReadError::Decode(e) => write!(f, "trace file {e}"),
            ReadError::OversizedBlock { offset, len } => {
                write!(f, "block at byte {offset} declares an oversized payload ({len} bytes)")
            }
            ReadError::BadBlockCrc { offset, stored, computed } => {
                write!(
                    f,
                    "block at byte {offset} fails its integrity check \
                     (stored crc {stored:#010x}, computed {computed:#010x})"
                )
            }
            ReadError::BadIndex { offset, reason } => {
                write!(f, "checkpoint index at byte {offset} is corrupt: {reason}")
            }
            ReadError::BlockCountMismatch { offset, declared, decoded } => {
                write!(f, "block at byte {offset} declares {declared} records but holds {decoded}")
            }
            ReadError::CountMismatch { declared, decoded } => {
                write!(f, "footer declares {declared} records but the blocks hold {decoded}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn header_bytes(format: FormatVersion, block_hint: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&format.number().to_le_bytes());
    h[12..16].copy_from_slice(&block_hint.to_le_bytes());
    h
}

/// Validates a header, returning the format version and the writer's
/// block-capacity hint.
fn parse_header(h: &[u8; HEADER_BYTES]) -> Result<(FormatVersion, u32), ReadError> {
    if h[..8] != MAGIC {
        return Err(ReadError::BadMagic(h[..8].try_into().expect("slice length")));
    }
    let version = u16::from_le_bytes(h[8..10].try_into().expect("slice length"));
    let format =
        FormatVersion::from_number(version).ok_or(ReadError::UnsupportedVersion(version))?;
    if h[10..12] != [0, 0] {
        return Err(ReadError::BadHeader);
    }
    Ok((format, u32::from_le_bytes(h[12..16].try_into().expect("slice length"))))
}

/// Writes a `foray-trace` file (v1 or v2) to any [`Write`], buffering
/// records into length-prefixed blocks.
///
/// `TraceWriter` is a [`TraceSink`], so it can sit directly behind the
/// profiler: `minic_sim::run_with_sink(&prog, &cfg, &inputs, &mut writer)`
/// records a trace to disk without ever holding it in memory. Because
/// [`TraceSink::record`] cannot return errors, I/O failures are latched;
/// check [`Self::io_error`] after [`Self::finish`].
///
/// In v2 mode (the default) each flushed block is delta-compressed
/// with its own CRC32, and a checkpoint index is accumulated (one entry
/// per block) and appended at [`Self::finish`]; a v2 writer always writes
/// it.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    format: FormatVersion,
    block: Vec<u8>,
    block_records: u32,
    block_cap: usize,
    total: u64,
    error: Option<io::Error>,
    finished: bool,
    /// v2 delta state, reset at block boundaries.
    v2_state: V2State,
    /// File offset where the next block will land (v2 index bookkeeping).
    out_offset: u64,
    /// Global ordinal of the current block's first record.
    block_first_ordinal: u64,
    /// Loop-id range observed in the current block.
    loops: LoopRange,
    /// Accumulated index entries (v2 only; v1 has no index).
    index: Vec<IndexEntry>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer, emitting the file header immediately — the default
    /// format ([`FormatVersion::V2`]) with the default block capacity.
    pub fn new(out: W) -> Self {
        TraceWriter::with_options(out, FormatVersion::default(), DEFAULT_BLOCK_BYTES)
    }

    /// [`Self::new`] with an explicit container version.
    pub fn with_format(out: W, format: FormatVersion) -> Self {
        TraceWriter::with_options(out, format, DEFAULT_BLOCK_BYTES)
    }

    /// Fully explicit constructor. The capacity is clamped to at least one
    /// record and to the readers' block sanity bound (a block may overshoot
    /// the capacity by one record before it flushes, so the upper clamp
    /// leaves that headroom — every written block stays readable whatever
    /// capacity the caller asks for).
    pub fn with_options(out: W, format: FormatVersion, block_cap: usize) -> Self {
        let max_record = format.max_record_bytes();
        let block_cap = block_cap.clamp(max_record, MAX_BLOCK_BYTES as usize - max_record);
        let mut w = TraceWriter {
            out,
            format,
            // Reserve for the common case only; oversized blocks grow
            // organically instead of pre-claiming up to the 1 GiB bound.
            block: Vec::with_capacity(block_cap.min(DEFAULT_BLOCK_BYTES) + max_record),
            block_records: 0,
            block_cap,
            total: 0,
            error: None,
            finished: false,
            v2_state: V2State::default(),
            out_offset: HEADER_BYTES as u64,
            block_first_ordinal: 0,
            loops: LoopRange::default(),
            index: Vec::new(),
        };
        let header = header_bytes(format, block_cap as u32);
        if let Err(e) = w.out.write_all(&header) {
            w.error = Some(e);
        }
        w
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.total
    }

    /// First latched I/O error, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the inner writer (call [`Self::finish`] first).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn flush_block(&mut self) {
        if self.error.is_some() || self.block.is_empty() {
            return;
        }
        let len = self.block.len() as u32;
        let result = self
            .out
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.out.write_all(&self.block_records.to_le_bytes()))
            .and_then(|()| match self.format {
                FormatVersion::V1 => Ok(()),
                FormatVersion::V2 => self.out.write_all(&crc32(&self.block).to_le_bytes()),
            })
            .and_then(|()| self.out.write_all(&self.block));
        if let Err(e) = result {
            self.error = Some(e);
        }
        let loops = self.loops.take();
        if self.format == FormatVersion::V2 {
            self.index.push(IndexEntry::new(self.out_offset, self.block_first_ordinal, loops));
        }
        self.out_offset += (self.format.block_header_bytes() + self.block.len()) as u64;
        self.v2_state = V2State::default();
        self.block.clear();
        self.block_records = 0;
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn record(&mut self, rec: &Record) {
        if self.error.is_some() {
            return;
        }
        if self.block.is_empty() {
            self.block_first_ordinal = self.total;
        }
        match self.format {
            FormatVersion::V1 => binary::encode_record(rec, &mut self.block),
            FormatVersion::V2 => {
                if let Record::Checkpoint { loop_id, .. } = rec {
                    self.loops.observe(*loop_id);
                }
                v2::encode_record(&mut self.v2_state, rec, &mut self.block);
            }
        }
        self.block_records += 1;
        self.total += 1;
        if self.block.len() >= self.block_cap {
            self.flush_block();
        }
    }

    /// Flushes the last block and writes the terminator, the index (v2),
    /// and the footer. Idempotent: later calls are no-ops.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_block();
        if self.error.is_some() {
            return;
        }
        let terminator = [0u8; 12];
        let result = self
            .out
            .write_all(&terminator[..self.format.block_header_bytes()])
            .and_then(|()| match self.format {
                FormatVersion::V1 => Ok(()),
                FormatVersion::V2 => {
                    let index = CheckpointIndex::new(std::mem::take(&mut self.index));
                    self.out.write_all(&index.encode())
                }
            })
            .and_then(|()| self.out.write_all(&self.total.to_le_bytes()))
            .and_then(|()| self.out.flush());
        if let Err(e) = result {
            self.error = Some(e);
        }
    }
}

/// Writes a complete record slice as a trace stream in the given format.
///
/// # Errors
///
/// Propagates the first I/O failure.
pub fn write_to_with<W: Write>(
    out: W,
    records: &[Record],
    format: FormatVersion,
) -> io::Result<u64> {
    let mut w = TraceWriter::with_format(out, format);
    for r in records {
        w.record(r);
    }
    w.finish();
    match w.error {
        Some(e) => Err(e),
        None => Ok(w.total),
    }
}

/// Writes a complete record slice as a trace stream in the default format
/// ([`FormatVersion::V2`]).
///
/// # Errors
///
/// Propagates the first I/O failure.
pub fn write_to<W: Write>(out: W, records: &[Record]) -> io::Result<u64> {
    write_to_with(out, records, FormatVersion::default())
}

/// Writes a complete record slice to a new trace file in the given
/// format, returning the record count.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_file_with<P: AsRef<Path>>(
    path: P,
    records: &[Record],
    format: FormatVersion,
) -> io::Result<u64> {
    write_to_with(io::BufWriter::new(std::fs::File::create(path)?), records, format)
}

/// Writes a complete record slice to a new trace file in the default
/// format ([`FormatVersion::V2`]), returning the record count.
///
/// # Errors
///
/// Propagates file-creation and write failures.
///
/// # Examples
///
/// ```no_run
/// use minic_trace::{file, AccessKind, Record};
/// let recs = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
/// file::write_file("trace.ftrace", &recs).unwrap();
/// ```
pub fn write_file<P: AsRef<Path>>(path: P, records: &[Record]) -> io::Result<u64> {
    write_file_with(path, records, FormatVersion::default())
}

/// The byte sources the block walker reads: the buffer of an opened
/// [`TraceFile`], or a stream that refills one reusable block buffer.
/// The types are public only so that [`TraceReader`] and [`FileRecords`]
/// can name them; nothing outside this crate can build one or implement
/// [`Source`](bytes::Source).
pub(crate) mod bytes {
    use super::ReadError;
    use std::io::Read;

    /// Hands the walker the container's structures in file order.
    pub trait Source {
        /// Consumes the next `n` bytes: a `what` that starts at file
        /// offset `at`.
        fn take(&mut self, n: usize, at: u64, what: &'static str) -> Result<&[u8], ReadError>;
        /// Consumes the next `n` bytes, starting at `at`, as the current
        /// block payload, which [`Self::block`] returns from then on.
        fn load(&mut self, n: usize, at: u64) -> Result<&[u8], ReadError>;
        /// The current block payload (empty before the first block).
        fn block(&self) -> &[u8];
    }

    /// A whole container in memory; payloads are borrowed, not copied.
    #[derive(Debug, Clone)]
    pub struct Slice<'a> {
        bytes: &'a [u8],
        block: &'a [u8],
    }

    impl<'a> Slice<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            Slice { bytes, block: &[] }
        }

        fn get(&self, n: usize, at: u64, what: &'static str) -> Result<&'a [u8], ReadError> {
            usize::try_from(at)
                .ok()
                .and_then(|at| self.bytes.get(at..))
                .and_then(|rest| rest.get(..n))
                .ok_or(ReadError::Truncated { offset: at, what })
        }
    }

    impl Source for Slice<'_> {
        fn take(&mut self, n: usize, at: u64, what: &'static str) -> Result<&[u8], ReadError> {
            self.get(n, at, what)
        }

        fn load(&mut self, n: usize, at: u64) -> Result<&[u8], ReadError> {
            self.block = self.get(n, at, "block payload")?;
            Ok(self.block)
        }

        fn block(&self) -> &[u8] {
            self.block
        }
    }

    /// A container read from a stream: the current block payload, plus a
    /// scratch buffer for the other structures (the largest is the v2
    /// index section).
    #[derive(Debug)]
    pub struct Stream<R> {
        input: R,
        block: Vec<u8>,
        scratch: Vec<u8>,
    }

    impl<R: Read> Stream<R> {
        pub(crate) fn new(input: R) -> Self {
            Stream { input, block: Vec::new(), scratch: Vec::new() }
        }
    }

    /// Reads exactly `n` bytes into `buf`; a stream that ends first is
    /// [`ReadError::Truncated`] at `at`, so corrupt files report *what* is
    /// missing. `buf` grows only as bytes arrive, so a length the input
    /// does not back costs memory in proportion to the input, not to the
    /// declared length.
    fn fill(
        input: &mut impl Read,
        buf: &mut Vec<u8>,
        n: usize,
        at: u64,
        what: &'static str,
    ) -> Result<(), ReadError> {
        buf.clear();
        input.take(n as u64).read_to_end(buf)?;
        if buf.len() < n {
            return Err(ReadError::Truncated { offset: at, what });
        }
        Ok(())
    }

    impl<R: Read> Source for Stream<R> {
        fn take(&mut self, n: usize, at: u64, what: &'static str) -> Result<&[u8], ReadError> {
            fill(&mut self.input, &mut self.scratch, n, at, what)?;
            Ok(&self.scratch)
        }

        fn load(&mut self, n: usize, at: u64) -> Result<&[u8], ReadError> {
            fill(&mut self.input, &mut self.block, n, at, "block payload")?;
            Ok(&self.block)
        }

        fn block(&self) -> &[u8] {
            &self.block
        }
    }

    #[cfg(test)]
    impl<R> Stream<R> {
        /// Bytes the block buffer has allocated.
        pub(super) fn block_capacity(&self) -> usize {
            self.block.capacity()
        }
    }
}

use bytes::{Slice, Source, Stream};

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("four bytes"))
}

/// The one walk over a container's structure after the file header: block
/// headers, payload CRCs, the terminator, the v2 index section and the
/// footer. Decoding is left to [`Records`], which reads the payloads the
/// walker loads.
#[derive(Debug, Clone)]
struct Walker<S> {
    src: S,
    format: FormatVersion,
    /// File offset of the next unread structure.
    offset: u64,
    /// Records the blocks walked so far declare: the next block's first
    /// ordinal, and at the footer the file's total.
    ordinal: u64,
    /// An earlier walk over these bytes already checked the payload CRCs,
    /// the index and the footer, so this one stops at the terminator.
    checked: bool,
    /// `(offset, first ordinal)` of each v2 block walked, for the index
    /// audit.
    blocks: Vec<(u64, u64)>,
    /// The v2 checkpoint index, once the trailer has been read.
    index: Option<CheckpointIndex>,
    /// File offset of the current block's header.
    base: u64,
    /// Records the current block declares, and those decoded from it.
    declared: u32,
    decoded: u32,
    /// Decode position in the current payload, and the v2 delta state.
    pos: usize,
    v2: V2State,
}

impl<S: Source> Walker<S> {
    fn new(src: S, format: FormatVersion, offset: u64, checked: bool) -> Self {
        Walker {
            src,
            format,
            offset,
            ordinal: 0,
            checked,
            blocks: Vec::new(),
            index: None,
            base: offset,
            declared: 0,
            decoded: 0,
            pos: 0,
            v2: V2State::default(),
        }
    }

    /// Loads the next block; `Ok(false)` means the terminator, and the
    /// trailer after it, were read.
    fn next_block(&mut self) -> Result<bool, ReadError> {
        if self.decoded != self.declared {
            return Err(ReadError::BlockCountMismatch {
                offset: self.base,
                declared: self.declared,
                decoded: self.decoded,
            });
        }
        let at = self.offset;
        let v2 = self.format == FormatVersion::V2;
        let header_len = self.format.block_header_bytes();
        let header = self.src.take(header_len, at, "block header")?;
        let (len, count) = (le32(header), le32(&header[4..]));
        let stored_crc = if v2 { le32(&header[8..]) } else { 0 };
        self.offset += header_len as u64;
        if len == 0 {
            if !self.checked {
                self.trailer()?;
            }
            return Ok(false);
        }
        if len > MAX_BLOCK_BYTES {
            return Err(ReadError::OversizedBlock { offset: at, len });
        }
        let payload = self.src.load(len as usize, self.offset)?;
        if v2 && !self.checked {
            let computed = crc32(payload);
            if computed != stored_crc {
                return Err(ReadError::BadBlockCrc { offset: at, stored: stored_crc, computed });
            }
            self.blocks.push((at, self.ordinal));
        }
        self.ordinal += u64::from(count);
        self.offset += u64::from(len);
        self.base = at;
        self.declared = count;
        self.decoded = 0;
        self.pos = 0;
        self.v2 = V2State::default();
        Ok(true)
    }

    /// Reads the v2 index section, auditing it against the blocks walked,
    /// and the footer.
    fn trailer(&mut self) -> Result<(), ReadError> {
        if self.format == FormatVersion::V2 {
            let at = self.offset;
            let bad = |reason| ReadError::BadIndex { offset: at, reason };
            let count = le32(self.src.take(4, at, "index entry count")?) as usize;
            // No entries means no index. Otherwise there is one entry per
            // block, which also bounds the read below by the blocks
            // already read.
            if count != 0 && count != self.blocks.len() {
                return Err(bad("entry count disagrees with the block count"));
            }
            let len = count * ENTRY_BYTES;
            // The source lends one structure at a time and the stored CRC
            // follows the entries, so the entries are parsed where they
            // lie against the CRC they hash to, which is then compared
            // with the stored one.
            let entries = self.src.take(len, at + 4, "index entries")?;
            let computed = crc32(entries);
            let index = CheckpointIndex::parse(entries, computed).map_err(bad)?;
            if le32(self.src.take(4, at + 4 + len as u64, "index checksum")?) != computed {
                return Err(bad("index CRC mismatch"));
            }
            let layout = index.entries().iter().map(|e| (e.offset, e.first_ordinal));
            if count != 0 && !layout.eq(self.blocks.iter().copied()) {
                return Err(bad("entry disagrees with the block layout"));
            }
            self.index = (count != 0).then_some(index);
            self.offset = at + 8 + len as u64;
        }
        let footer = self.src.take(8, self.offset, "footer")?;
        let declared = u64::from_le_bytes(footer.try_into().expect("eight bytes"));
        if declared != self.ordinal {
            return Err(ReadError::CountMismatch { declared, decoded: self.ordinal });
        }
        Ok(())
    }
}

/// The records of a `foray-trace` file, decoded block by block as the
/// walker loads them: the one iterator behind [`TraceReader`] and
/// [`FileRecords`]. Both container versions are read, dispatching on the
/// header. Fuses after the first error.
#[derive(Debug, Clone)]
pub struct Records<S> {
    walk: Walker<S>,
    /// When seeking: drop records until this loop's first checkpoint.
    skip_until: Option<LoopId>,
    done: bool,
}

/// Constant-memory streaming reader over any [`Read`]: holds one block in
/// memory at a time, whatever the trace length, plus the v2 index section
/// and 16 bytes per v2 block for the index audit at the end. It accepts
/// exactly the files [`TraceFile`] accepts, but checks each block (its
/// CRC in v2) as it loads it, and the index and the footer only after the
/// last block.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic_trace::ReadError> {
/// use minic_trace::{file, AccessKind, Record};
///
/// let recs = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
/// let mut bytes = Vec::new();
/// file::write_to(&mut bytes, &recs).unwrap();
/// let reader = file::TraceReader::new(bytes.as_slice())?;
/// let decoded: Result<Vec<Record>, _> = reader.collect();
/// assert_eq!(decoded?, recs);
/// # Ok(())
/// # }
/// ```
pub type TraceReader<R> = Records<Stream<R>>;

/// Zero-copy record iterator over a [`TraceFile`] buffer, obtained from
/// [`TraceFile::records`] (the whole stream) or
/// [`TraceFile::records_from_loop`] (positioned mid-file by the checkpoint
/// index). It decodes each block payload in place, with no per-record or
/// per-block allocation, and does not check the CRCs, the index or the
/// footer again.
pub type FileRecords<'a> = Records<Slice<'a>>;

impl<R: Read> TraceReader<R> {
    /// Wraps a reader, consuming and validating the file header.
    ///
    /// # Errors
    ///
    /// [`ReadError::BadMagic`], [`ReadError::UnsupportedVersion`],
    /// [`ReadError::BadHeader`], or an I/O / truncation failure.
    pub fn new(input: R) -> Result<Self, ReadError> {
        let mut src = Stream::new(input);
        let header = src.take(HEADER_BYTES, 0, "file header")?;
        let (format, _) = parse_header(header.try_into().expect("HEADER_BYTES long"))?;
        let walk = Walker::new(src, format, HEADER_BYTES as u64, false);
        Ok(Records { walk, skip_until: None, done: false })
    }
}

impl<S: Source> Iterator for Records<S> {
    type Item = Result<Record, ReadError>;

    /// Bulk drain: decodes each block in a tight loop with the consumer
    /// inlined, instead of paying a `next()` call (and its memory-returned
    /// `Option<Result<..>>`) per record. `for_each`, `fold`-composing
    /// adapters like `map`, and the `RecordSource::stream_into` replay
    /// path `trace analyze` sits on all route through here. Semantics match
    /// `next()` exactly: the closure sees every record up to and including
    /// the first error and nothing after.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = init;
        // A seek's prefix goes through `next`, which drops records up to
        // the loop's first checkpoint, so the bulk loop carries no filter.
        if self.skip_until.is_some() {
            match self.next() {
                Some(Ok(rec)) => acc = f(acc, Ok(rec)),
                Some(Err(e)) => return f(acc, Err(e)),
                None => return acc,
            }
        }
        if self.done {
            return acc;
        }
        let w = &mut self.walk;
        loop {
            let payload = w.src.block();
            let base = w.base + w.format.block_header_bytes() as u64;
            match w.format {
                FormatVersion::V1 => {
                    while w.pos < payload.len() {
                        match binary::decode_one(&payload[w.pos..], base + w.pos as u64) {
                            Ok((rec, len)) => {
                                w.pos += len;
                                w.decoded += 1;
                                acc = f(acc, Ok(rec));
                            }
                            Err(e) => return f(acc, Err(ReadError::Decode(e))),
                        }
                    }
                }
                FormatVersion::V2 => {
                    // The count rides in the accumulator so the loop's
                    // only per-record memory traffic is the payload and
                    // the address table (see `v2::decode_fold`).
                    let ((a, n), err) = v2::decode_fold(
                        payload,
                        &mut w.pos,
                        base,
                        &mut w.v2,
                        (acc, 0u32),
                        |(a, n), rec| (f(a, Ok(rec)), n + 1),
                    );
                    acc = a;
                    w.decoded += n;
                    if let Some(e) = err {
                        return f(acc, Err(ReadError::Decode(e)));
                    }
                }
            }
            match w.next_block() {
                Ok(true) => {}
                Ok(false) => return acc,
                Err(e) => return f(acc, Err(e)),
            }
        }
    }

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let w = &mut self.walk;
        loop {
            let payload = w.src.block();
            if w.pos < payload.len() {
                // Payload offsets are relative to the block payload start
                // (the block header's offset plus its length).
                let base = w.base + w.format.block_header_bytes() as u64;
                let res = match w.format {
                    FormatVersion::V1 => binary::decode_one(&payload[w.pos..], base + w.pos as u64)
                        .map(|(rec, len)| {
                            w.pos += len;
                            rec
                        }),
                    FormatVersion::V2 => v2::decode_step(payload, &mut w.pos, base, &mut w.v2),
                };
                match res {
                    Ok(rec) => {
                        w.decoded += 1;
                        if let Some(id) = self.skip_until {
                            if !matches!(rec, Record::Checkpoint { loop_id, .. } if loop_id == id) {
                                continue;
                            }
                            self.skip_until = None;
                        }
                        return Some(Ok(rec));
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(ReadError::Decode(e)));
                    }
                }
            }
            match w.next_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// A whole trace file held in one buffer, decoded zero-copy.
///
/// [`Self::open`] performs a single bulk read (the workspace forbids
/// `unsafe`, so this is the `mmap` stand-in), validates the header and the
/// block structure up front — including every v2 block CRC and the
/// checkpoint index — and then [`Self::records`] iterates without further
/// allocation. Structure and integrity errors surface at open time; only
/// payload decode errors can appear during iteration.
#[derive(Debug, Clone)]
pub struct TraceFile {
    bytes: Vec<u8>,
    format: FormatVersion,
    record_count: u64,
    block_hint: u32,
    index: Option<CheckpointIndex>,
}

impl TraceFile {
    /// Reads and validates a trace file.
    ///
    /// # Errors
    ///
    /// Any [`ReadError`] arising from I/O or file structure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<TraceFile, ReadError> {
        TraceFile::from_bytes(std::fs::read(path)?)
    }

    /// Validates an in-memory byte buffer as a trace file.
    ///
    /// # Errors
    ///
    /// Any structural [`ReadError`] — including [`ReadError::BadBlockCrc`]
    /// and [`ReadError::BadIndex`] for v2 files, both checked here.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceFile, ReadError> {
        let Some(header) = bytes.first_chunk() else {
            return Err(ReadError::Truncated { offset: bytes.len() as u64, what: "file header" });
        };
        let (format, block_hint) = parse_header(header)?;
        let mut walk = Walker::new(Slice::new(&bytes), format, HEADER_BYTES as u64, false);
        // The structure only: `records` decodes the payloads later.
        while walk.next_block()? {
            walk.decoded = walk.declared;
        }
        let (record_count, index) = (walk.ordinal, walk.index);
        Ok(TraceFile { bytes, format, record_count, block_hint, index })
    }

    /// The container version of this file.
    pub fn version(&self) -> FormatVersion {
        self.format
    }

    /// Total records in the file (from the block headers, validated against
    /// the footer at open time).
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// The writer's block-capacity hint recorded in the header.
    pub fn block_hint(&self) -> u32 {
        self.block_hint
    }

    /// The checkpoint index (v2 files written with one), validated at
    /// open time against the actual block offsets and ordinals.
    pub fn index(&self) -> Option<&CheckpointIndex> {
        self.index.as_ref()
    }

    /// Iterates the records, decoding zero-copy from the file buffer.
    pub fn records(&self) -> FileRecords<'_> {
        self.records_at(HEADER_BYTES as u64, None)
    }

    /// Seeks to loop `loop_id` via the checkpoint index: returns an
    /// iterator positioned at the first block whose loop range covers the
    /// id, which then skips records until the loop's first checkpoint and
    /// yields everything from that checkpoint on, without decoding the
    /// prefix ([`Self::open`] has already CRC-checked every block). This
    /// is the seekable [`RecordSource`](crate::source::RecordSource) entry
    /// point.
    ///
    /// Returns `None` when the file has no index (v1, or a v2 file
    /// written with the index disabled) or when no block's range covers
    /// the loop — i.e. the loop certainly never runs in this trace. A
    /// range hit is only "possibly present": if the id turns out to be
    /// absent, the returned iterator skips to the end and yields nothing.
    pub fn records_from_loop(&self, loop_id: LoopId) -> Option<FileRecords<'_>> {
        let entry = self.index.as_ref()?.find_loop(loop_id)?;
        Some(self.records_at(entry.offset, Some(loop_id)))
    }

    /// Records from the block at `offset`, which open time validated.
    fn records_at(&self, offset: u64, skip_until: Option<LoopId>) -> FileRecords<'_> {
        let walk = Walker::new(Slice::new(&self.bytes), self.format, offset, true);
        Records { walk, skip_until, done: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;
    use minic::CheckpointKind;

    const FORMATS: [FormatVersion; 2] = [FormatVersion::V1, FormatVersion::V2];

    fn sample(n: u32) -> Vec<Record> {
        let mut recs = vec![Record::checkpoint(0, CheckpointKind::LoopBegin)];
        for i in 0..n {
            recs.push(Record::checkpoint(0, CheckpointKind::BodyBegin));
            recs.push(Record::access(0x40_0000 + 4 * (i % 7), 0x1000_0000 + i, AccessKind::Read));
            recs.push(Record::checkpoint(0, CheckpointKind::BodyEnd));
        }
        recs
    }

    fn encode_with(format: FormatVersion, records: &[Record], block_bytes: usize) -> Vec<u8> {
        let mut w = TraceWriter::with_options(Vec::new(), format, block_bytes);
        for r in records {
            w.record(r);
        }
        w.finish();
        assert!(w.io_error().is_none());
        w.into_inner()
    }

    #[test]
    fn round_trip_across_block_sizes_and_formats() {
        let recs = sample(100);
        for format in FORMATS {
            for block_bytes in [1, 16, 64, 4096, DEFAULT_BLOCK_BYTES] {
                let bytes = encode_with(format, &recs, block_bytes);
                let file = TraceFile::from_bytes(bytes.clone()).unwrap();
                assert_eq!(file.version(), format);
                assert_eq!(file.record_count(), recs.len() as u64);
                let decoded: Vec<Record> = file.records().map(Result::unwrap).collect();
                assert_eq!(decoded, recs, "{format} block_bytes={block_bytes}");
                let reader = TraceReader::new(bytes.as_slice()).unwrap();
                let streamed: Vec<Record> = reader.map(Result::unwrap).collect();
                assert_eq!(streamed, recs, "{format} block_bytes={block_bytes}");
            }
        }
    }

    #[test]
    fn v2_files_are_smaller() {
        let recs = sample(500);
        let v1 = encode_with(FormatVersion::V1, &recs, DEFAULT_BLOCK_BYTES);
        let v2 = encode_with(FormatVersion::V2, &recs, DEFAULT_BLOCK_BYTES);
        assert!(
            v2.len() * 3 <= v1.len(),
            "v2 ({}) should be at least 3x smaller than v1 ({})",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn empty_trace_is_a_valid_file_in_both_formats() {
        let v1 = encode_with(FormatVersion::V1, &[], DEFAULT_BLOCK_BYTES);
        assert_eq!(v1.len(), HEADER_BYTES + 8 + 8, "v1: header + terminator + footer");
        let v2 = encode_with(FormatVersion::V2, &[], DEFAULT_BLOCK_BYTES);
        assert_eq!(
            v2.len(),
            HEADER_BYTES + 12 + 8 + 8,
            "v2: header + terminator + empty index + footer"
        );
        for bytes in [v1, v2] {
            let file = TraceFile::from_bytes(bytes.clone()).unwrap();
            assert_eq!(file.record_count(), 0);
            assert_eq!(file.records().count(), 0);
            assert!(file.index().is_none());
            assert_eq!(TraceReader::new(bytes.as_slice()).unwrap().count(), 0);
        }
    }

    #[test]
    fn write_file_and_open_round_trip() {
        let recs = sample(30);
        let path = std::env::temp_dir().join("foray_trace_file_test.ftrace");
        assert_eq!(write_file(&path, &recs).unwrap(), recs.len() as u64);
        let file = TraceFile::open(&path).unwrap();
        assert_eq!(file.version(), FormatVersion::V2);
        let decoded: Vec<Record> = file.records().map(Result::unwrap).collect();
        assert_eq!(decoded, recs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode_with(FormatVersion::V2, &sample(3), 64);
        bytes[0] = b'X';
        assert!(matches!(TraceFile::from_bytes(bytes.clone()), Err(ReadError::BadMagic(_))));
        bytes[0] = MAGIC[0];
        bytes[8] = 0xfe;
        let err = TraceFile::from_bytes(bytes.clone()).unwrap_err();
        assert!(matches!(err, ReadError::UnsupportedVersion(0xfe)));
        assert!(err.to_string().contains("newer than this reader"), "{err}");
        // Version 0 is not "newer", it is unknown.
        bytes[8] = 0;
        let err = TraceFile::from_bytes(bytes.clone()).unwrap_err();
        assert!(matches!(err, ReadError::UnsupportedVersion(0)));
        assert!(err.to_string().contains("unknown"), "{err}");
        bytes[8] = VERSION as u8;
        bytes[10] = 1;
        assert!(matches!(TraceFile::from_bytes(bytes.clone()), Err(ReadError::BadHeader)));
        bytes[10] = 0;
        assert!(TraceFile::from_bytes(bytes).is_ok(), "restored header parses again");
    }

    #[test]
    fn old_version_stays_readable_through_the_dispatch() {
        // The versioning contract: a v1 file written by an older tree must
        // open in a reader whose default (and newest) format is v2.
        let recs = sample(10);
        let bytes = encode_with(FormatVersion::V1, &recs, 64);
        assert_eq!(bytes[8], 1, "v1 on disk");
        let file = TraceFile::from_bytes(bytes).unwrap();
        assert_eq!(file.version(), FormatVersion::V1);
        let decoded: Vec<Record> = file.records().map(Result::unwrap).collect();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for format in FORMATS {
            let bytes = encode_with(format, &sample(40), 64);
            for cut in [3, HEADER_BYTES - 1, HEADER_BYTES + 3, bytes.len() / 2, bytes.len() - 1] {
                let truncated = bytes[..cut].to_vec();
                assert!(
                    TraceFile::from_bytes(truncated.clone()).is_err(),
                    "{format} cut={cut} must not open"
                );
                let streamed: Result<Vec<Record>, ReadError> =
                    match TraceReader::new(truncated.as_slice()) {
                        Ok(r) => r.collect(),
                        Err(e) => Err(e),
                    };
                assert!(streamed.is_err(), "{format} cut={cut} must not stream");
            }
        }
    }

    #[test]
    fn rejects_footer_count_mismatch() {
        for format in FORMATS {
            let mut bytes = encode_with(format, &sample(5), DEFAULT_BLOCK_BYTES);
            let footer_at = bytes.len() - 8;
            bytes[footer_at] ^= 1;
            assert!(matches!(
                TraceFile::from_bytes(bytes.clone()),
                Err(ReadError::CountMismatch { .. })
            ));
            let streamed: Result<Vec<Record>, _> =
                TraceReader::new(bytes.as_slice()).unwrap().collect();
            assert!(matches!(streamed, Err(ReadError::CountMismatch { .. })), "{format}");
        }
    }

    #[test]
    fn rejects_block_count_mismatch() {
        // v1 only: in v2 the per-block record count is validated against
        // the index ordinals at open, and payload tampering trips the CRC
        // first — the v1 path is the one that must catch the lie at
        // decode time.
        let mut bytes = encode_with(FormatVersion::V1, &sample(5), DEFAULT_BLOCK_BYTES);
        // Bump the single block's record-count field; fix the footer to
        // match so the frame walk passes and decoding catches the lie.
        let count_at = HEADER_BYTES + 4;
        bytes[count_at] += 1;
        let footer_at = bytes.len() - 8;
        bytes[footer_at] += 1;
        let file = TraceFile::from_bytes(bytes.clone()).unwrap();
        let got: Result<Vec<Record>, _> = file.records().collect();
        assert!(matches!(got, Err(ReadError::BlockCountMismatch { .. })));
        let streamed: Result<Vec<Record>, _> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(streamed, Err(ReadError::BlockCountMismatch { .. })));
    }

    #[test]
    fn v1_corrupt_payload_reports_absolute_offset() {
        let recs = sample(2);
        let mut bytes = encode_with(FormatVersion::V1, &recs, DEFAULT_BLOCK_BYTES);
        // First payload byte is the first record's tag.
        let tag_at = HEADER_BYTES + 8;
        bytes[tag_at] = 0xaa;
        let file = TraceFile::from_bytes(bytes.clone()).unwrap();
        let err = file.records().find_map(Result::err).unwrap();
        let ReadError::Decode(d) = &err else { panic!("want decode error, got {err}") };
        assert_eq!(d.offset, tag_at as u64);
        let err = TraceReader::new(bytes.as_slice()).unwrap().find_map(Result::err).unwrap();
        let ReadError::Decode(d) = &err else { panic!("want decode error, got {err}") };
        assert_eq!(d.offset, tag_at as u64);
    }

    #[test]
    fn v2_payload_corruption_trips_the_block_crc() {
        let mut bytes = encode_with(FormatVersion::V2, &sample(8), DEFAULT_BLOCK_BYTES);
        let payload_at = HEADER_BYTES + 12;
        bytes[payload_at] ^= 0x40;
        assert!(matches!(TraceFile::from_bytes(bytes.clone()), Err(ReadError::BadBlockCrc { .. })));
        let streamed: Result<Vec<Record>, _> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        assert!(matches!(streamed, Err(ReadError::BadBlockCrc { .. })));
        // Corrupting the stored CRC itself is equally fatal.
        let mut bytes = encode_with(FormatVersion::V2, &sample(8), DEFAULT_BLOCK_BYTES);
        bytes[HEADER_BYTES + 8] ^= 1;
        assert!(matches!(TraceFile::from_bytes(bytes), Err(ReadError::BadBlockCrc { .. })));
    }

    #[test]
    fn v2_index_corruption_is_rejected() {
        let bytes = encode_with(FormatVersion::V2, &sample(200), 64);
        let file = TraceFile::from_bytes(bytes.clone()).unwrap();
        let n_blocks = file.index().unwrap().entries().len();
        assert!(n_blocks > 1, "want a multi-block file");
        // The index section starts after the terminator; entry count is
        // its first field. Find it from the end: footer(8) + crc(4) +
        // entries + count(4).
        let count_at = bytes.len() - 8 - 4 - n_blocks * ENTRY_BYTES - 4;
        let entries_at = count_at + 4;
        let crc_at = entries_at + n_blocks * ENTRY_BYTES;
        // Both readers refuse each tampered file at the index section.
        let rejected = |tampered: Vec<u8>| {
            let streamed: Result<Vec<Record>, _> =
                TraceReader::new(tampered.as_slice()).unwrap().collect();
            for got in [TraceFile::from_bytes(tampered).map(|_| ()), streamed.map(|_| ())] {
                let Err(ReadError::BadIndex { offset, .. }) = got else {
                    panic!("want BadIndex, got {got:?}")
                };
                assert_eq!(offset, count_at as u64);
            }
        };
        let mut tampered = bytes.clone();
        tampered[count_at] ^= 1;
        rejected(tampered);
        // Flipping an entry byte breaks the index CRC.
        let mut tampered = bytes.clone();
        tampered[entries_at] ^= 1;
        rejected(tampered);
        // An entry's offset or first ordinal moved, with the CRC
        // recomputed, disagrees with the block layout.
        for field in [0, 8] {
            let mut tampered = bytes.clone();
            tampered[entries_at + ENTRY_BYTES + field] += 1;
            let crc = crc32(&tampered[entries_at..crc_at]);
            tampered[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            rejected(tampered);
        }
    }

    #[test]
    fn rejects_oversized_block_declarations() {
        for format in FORMATS {
            let mut bytes = Vec::from(header_bytes(format, 64));
            bytes.extend_from_slice(&(MAX_BLOCK_BYTES + 1).to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            if format == FormatVersion::V2 {
                bytes.extend_from_slice(&0u32.to_le_bytes());
            }
            assert!(matches!(
                TraceFile::from_bytes(bytes.clone()),
                Err(ReadError::OversizedBlock { .. })
            ));
            let streamed: Result<Vec<Record>, _> =
                TraceReader::new(bytes.as_slice()).unwrap().collect();
            assert!(matches!(streamed, Err(ReadError::OversizedBlock { .. })), "{format}");
        }
    }

    #[test]
    fn a_short_stream_allocates_by_its_bytes_not_its_declared_block_length() {
        // The file header, then one v2 block header (payload length,
        // record count, CRC) that declares a 1 GiB payload, of which only
        // four bytes follow.
        let mut bytes = Vec::from(header_bytes(FormatVersion::V2, 64));
        for field in [MAX_BLOCK_BYTES, 1, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(bytes.len(), 32);
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let err = reader.next().unwrap().unwrap_err();
        assert!(
            matches!(err, ReadError::Truncated { offset: 28, what: "block payload" }),
            "{err:?}"
        );
        assert!(reader.walk.src.block_capacity() < 1 << 12, "{}", reader.walk.src.block_capacity());
    }

    #[test]
    fn absurd_block_capacities_still_produce_readable_files() {
        // Capacities past the readers' sanity bound (or past u32) must be
        // clamped at write time, never produce a file the readers reject.
        let recs = sample(20);
        for format in FORMATS {
            for cap in [0usize, MAX_BLOCK_BYTES as usize, usize::MAX] {
                let mut w = TraceWriter::with_options(Vec::new(), format, cap);
                for r in &recs {
                    w.record(r);
                }
                w.finish();
                assert!(w.io_error().is_none());
                let file = TraceFile::from_bytes(w.into_inner()).unwrap();
                assert!(file.block_hint() <= MAX_BLOCK_BYTES, "{format} cap={cap}");
                let decoded: Vec<Record> = file.records().map(Result::unwrap).collect();
                assert_eq!(decoded, recs, "{format} cap={cap}");
            }
        }
    }

    #[test]
    fn writer_reports_counts_and_is_idempotent_on_finish() {
        let recs = sample(10);
        let mut w = TraceWriter::new(Vec::new());
        for r in &recs {
            w.record(r);
        }
        assert_eq!(w.records_written(), recs.len() as u64);
        w.finish();
        w.finish(); // no double terminator / index / footer
        let bytes = w.into_inner();
        let file = TraceFile::from_bytes(bytes).unwrap();
        assert_eq!(file.record_count(), recs.len() as u64);
    }

    #[test]
    fn index_entries_describe_the_blocks() {
        let recs = sample(50);
        // Tiny blocks so the index has many entries.
        let file = TraceFile::from_bytes(encode_with(FormatVersion::V2, &recs, 32)).unwrap();
        let index = file.index().expect("v2 writes an index by default");
        assert!(index.entries().len() > 1);
        assert_eq!(index.entries()[0].offset, HEADER_BYTES as u64);
        assert_eq!(index.entries()[0].first_ordinal, 0);
        // Ordinals are strictly increasing and cover all records.
        let ordinals: Vec<u64> = index.entries().iter().map(|e| e.first_ordinal).collect();
        assert!(ordinals.windows(2).all(|w| w[0] < w[1]));
        // Every entry's loop range covers loop 0 or is access-only.
        assert!(index.find_loop(LoopId(0)).is_some());
    }

    #[test]
    fn disabled_index_round_trips_and_reports_unseekable() {
        // The format allows an index of no entries (empty traces write
        // one). Rewrite a multi-block file's trailer that way: E = 0, the
        // CRC of no bytes, then the footer.
        let recs = sample(20);
        let mut bytes = encode_with(FormatVersion::V2, &recs, 64);
        let n_blocks =
            TraceFile::from_bytes(bytes.clone()).unwrap().index().unwrap().entries().len();
        assert!(n_blocks > 1, "want a multi-block file");
        let footer = bytes.split_off(bytes.len() - 8);
        bytes.truncate(bytes.len() - (4 + n_blocks * ENTRY_BYTES + 4));
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&crc32(&[]).to_le_bytes());
        bytes.extend_from_slice(&footer);
        let streamed: Vec<Record> =
            TraceReader::new(bytes.as_slice()).unwrap().map(Result::unwrap).collect();
        assert_eq!(streamed, recs);
        let file = TraceFile::from_bytes(bytes).unwrap();
        assert!(file.index().is_none());
        assert!(file.records_from_loop(LoopId(0)).is_none());
        let decoded: Vec<Record> = file.records().map(Result::unwrap).collect();
        assert_eq!(decoded, recs);
    }

    /// A trace where loop ids appear in disjoint phases, so later loops
    /// live in blocks the seek must skip to.
    fn phased_trace(loops: u32, bodies: u32) -> Vec<Record> {
        let mut t = Vec::new();
        for l in 0..loops {
            t.push(Record::checkpoint(l, CheckpointKind::LoopBegin));
            for i in 0..bodies {
                t.push(Record::checkpoint(l, CheckpointKind::BodyBegin));
                t.push(Record::access(
                    0x40_0000 + 16 * l,
                    0x1000_0000 + (l << 20) + 4 * i,
                    AccessKind::Read,
                ));
                t.push(Record::checkpoint(l, CheckpointKind::BodyEnd));
            }
        }
        t
    }

    #[test]
    fn seek_to_loop_equals_the_scanned_suffix() {
        let recs = phased_trace(6, 30);
        for block_bytes in [24, 64, 512] {
            let bytes = encode_with(FormatVersion::V2, &recs, block_bytes);
            let file = TraceFile::from_bytes(bytes).unwrap();
            for l in 0..6u32 {
                let want: Vec<Record> = {
                    let at = recs
                        .iter()
                        .position(
                            |r| matches!(r, Record::Checkpoint { loop_id, .. } if loop_id.0 == l),
                        )
                        .unwrap();
                    recs[at..].to_vec()
                };
                let got: Vec<Record> = file
                    .records_from_loop(LoopId(l))
                    .expect("indexed loop is seekable")
                    .map(Result::unwrap)
                    .collect();
                assert_eq!(got, want, "loop {l} block_bytes={block_bytes}");
            }
            // A loop id past every range is reported as certainly absent.
            assert!(file.records_from_loop(LoopId(99)).is_none());
        }
    }
}
