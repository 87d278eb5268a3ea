//! # minic-trace — profiling trace substrate for the FORAY-GEN reproduction
//!
//! The paper's flow (Algorithm 1) profiles an annotated program on an
//! instruction-set simulator that emits a *trace file*: memory access events
//! `(instruction address, access address, read/write)` interleaved with loop
//! *checkpoints*. This crate defines those records, the paper-compatible
//! text format of Fig. 4(c), the versioned binary `foray-trace` on-disk
//! container ([`mod@file`]: fixed-width v1, and the default compressed +
//! CRC-checked + [indexed](mod@index) v2, which packs records as
//! length-tagged deltas), the shared address-space layout, and the two
//! halves of the stream contract: [`TraceSink`] (push — lets the analyzer
//! run *online* during profiling, the constant-space mode the paper
//! highlights at the end of Section 4) and [`RecordSource`] (pull —
//! replays slices and trace files into any sink). See
//! `docs/ARCHITECTURE.md` at the repository root for the full
//! stream contract and the on-disk format specification.
//!
//! # Examples
//!
//! ```
//! use minic_trace::{text, AccessKind, Record, TraceSink, TraceStats, VecSink};
//!
//! // Produce a small trace.
//! let mut sink = VecSink::new();
//! sink.record(&Record::checkpoint(4, minic::CheckpointKind::LoopBegin));
//! sink.record(&Record::access(0x4002a0, 0x7fff5934, AccessKind::Write));
//!
//! // Serialize it in the paper's format.
//! let textual = text::to_text(&sink.records);
//! assert!(textual.contains("Instr: 4002a0 addr: 7fff5934 wr"));
//!
//! // And compute whole-trace totals.
//! let stats = TraceStats::from_records(&sink.records);
//! assert_eq!(stats.references(), 1);
//! ```

#![warn(missing_docs)]

mod binary;
pub mod crc;
pub mod file;
pub mod index;
pub mod layout;
pub mod record;
pub mod sink;
pub mod source;
pub mod stats;
pub mod text;
mod v2;

pub use binary::{DecodeError, DecodeReason};
pub use file::{FormatVersion, ReadError, TraceFile, TraceReader, TraceWriter};
pub use index::{CheckpointIndex, IndexEntry};
pub use record::{Access, AccessKind, InstrAddr, MemAddr, Record};
pub use sink::{CountingSink, NullSink, TeeSink, TraceSink, VecSink};
pub use source::RecordSource;
pub use stats::TraceStats;
pub use text::ParseTraceError;
