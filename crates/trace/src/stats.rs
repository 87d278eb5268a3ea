//! Whole-trace statistics: reference, access and footprint totals over a
//! raw trace, split user vs library.
//!
//! The paper's Table III, as `foray-gen report` prints it, comes from
//! `foray::report::MemoryBehavior` over the analysis. `ForayGen` does not
//! compute `TraceStats`: tee it next to the analyzer with a
//! [`TeeSink`](crate::sink::TeeSink), or run [`TraceStats::from_records`].

use crate::layout;
use crate::record::{AccessKind, InstrAddr, MemAddr, Record};
use crate::sink::TraceSink;
use std::collections::HashSet;

/// Aggregate statistics over a trace. Implements [`TraceSink`], so it can
/// ride along any profiling run (e.g. inside a
/// [`TeeSink`](crate::sink::TeeSink)).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total access records.
    pub accesses: u64,
    /// Total checkpoint records.
    pub checkpoints: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Accesses from library instruction addresses.
    pub library_accesses: u64,
    distinct_instrs: HashSet<InstrAddr>,
    library_instrs: HashSet<InstrAddr>,
    distinct_addrs: HashSet<MemAddr>,
    library_addrs: HashSet<MemAddr>,
}

impl TraceStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TraceStats::default()
    }

    /// Computes statistics over a complete trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use minic_trace::{AccessKind, Record, TraceStats};
    /// let recs = [
    ///     Record::access(0x400000, 0x1000_0000, AccessKind::Read),
    ///     Record::access(0x400000, 0x1000_0004, AccessKind::Write),
    /// ];
    /// let stats = TraceStats::from_records(&recs);
    /// assert_eq!(stats.references(), 1);
    /// assert_eq!(stats.footprint(), 2);
    /// ```
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut stats = TraceStats::new();
        for r in records {
            stats.record(r);
        }
        stats
    }

    /// Number of distinct static references (instruction addresses),
    /// library references included.
    pub fn references(&self) -> u64 {
        self.distinct_instrs.len() as u64
    }

    /// Number of distinct library references.
    pub fn library_references(&self) -> u64 {
        self.library_instrs.len() as u64
    }

    /// Number of distinct data addresses touched.
    pub fn footprint(&self) -> u64 {
        self.distinct_addrs.len() as u64
    }

    /// Number of distinct data addresses touched by library code.
    pub fn library_footprint(&self) -> u64 {
        self.library_addrs.len() as u64
    }

    /// Accesses from user code.
    pub fn user_accesses(&self) -> u64 {
        self.accesses - self.library_accesses
    }
}

impl TraceSink for TraceStats {
    fn record(&mut self, rec: &Record) {
        match rec {
            Record::Checkpoint { .. } => self.checkpoints += 1,
            Record::Access(a) => {
                self.accesses += 1;
                match a.kind {
                    AccessKind::Read => self.reads += 1,
                    AccessKind::Write => self.writes += 1,
                }
                self.distinct_instrs.insert(a.instr);
                self.distinct_addrs.insert(a.addr);
                if layout::is_library_instr(a.instr) {
                    self.library_accesses += 1;
                    self.library_instrs.insert(a.instr);
                    self.library_addrs.insert(a.addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::CheckpointKind;

    #[test]
    fn splits_library_traffic() {
        let recs = [
            Record::access(layout::CODE_BASE, 0x1000_0000, AccessKind::Read),
            Record::access(layout::LIB_CODE_BASE, 0x4000_0000, AccessKind::Write),
            Record::access(layout::LIB_CODE_BASE, 0x4000_0000, AccessKind::Write),
            Record::checkpoint(0, CheckpointKind::LoopBegin),
        ];
        let s = TraceStats::from_records(&recs);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.library_accesses, 2);
        assert_eq!(s.user_accesses(), 1);
        assert_eq!(s.references(), 2);
        assert_eq!(s.library_references(), 1);
        assert_eq!(s.footprint(), 2);
        assert_eq!(s.library_footprint(), 1);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn footprint_dedupes() {
        let recs: Vec<Record> = (0..100)
            .map(|i| Record::access(0x400000, 0x1000_0000 + (i % 10), AccessKind::Read))
            .collect();
        let s = TraceStats::from_records(&recs);
        assert_eq!(s.accesses, 100);
        assert_eq!(s.footprint(), 10);
        assert_eq!(s.references(), 1);
    }
}
