//! The streaming trace analyzer: Algorithm 2 + Algorithm 3 fused behind a
//! [`TraceSink`].
//!
//! Because the analyzer consumes each record exactly once, in order, it can
//! run *during* profiling (plug it into the simulator as the sink) with
//! space independent of trace length — the property the paper highlights at
//! the end of Section 4. Offline analysis of a stored trace uses the same
//! type via [`Analyzer::consume`].

use crate::affine::AffineState;
use crate::fasthash::FastMap;
use crate::looptree::{LoopTree, NodeId};
use minic::{CheckpointKind, LoopId};
use minic_trace::{layout, Access, AccessKind, InstrAddr, Record, RecordSource, TraceSink};
use std::collections::HashMap;

/// How the analyzer finds the reference record for an incoming access.
///
/// The paper argues average-constant complexity "if we use hash tables for
/// the searches"; we go one step further: the simulator's instruction
/// addresses are *dense* (user sites at `CODE_BASE + 4·site`, library and
/// frame sites likewise stride-packed), so [`LookupStrategy::Dense`] — the
/// default — replaces the hash with a bounds-checked array index, fronted
/// by a successor predictor: each reference remembers the reference that
/// followed it, and that one is checked first. [`LookupStrategy::Hash`]
/// (the paper's choice, one probe per access) remains as the ablation
/// that `analyzer_hot`'s hash row times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupStrategy {
    /// Successor predictor, then instruction-indexed side tables (dense
    /// synthetic address ranges) with a spill hash for unaligned or
    /// out-of-range addresses.
    #[default]
    Dense,
    /// Hash map keyed by `(node, instruction)` — the paper's choice.
    Hash,
}

/// Per-range slot cap for the dense tables (256 Ki slots ≈ 2 MiB fully
/// grown); instruction addresses mapping past the cap fall back to the
/// spill hash, so arbitrary `u32` addresses stay correct, just slower.
const DENSE_SLOTS_CAP: usize = 1 << 18;

/// One dense-table slot: the loop-tree context that most recently resolved
/// this instruction, and its reference index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DenseSlot {
    node: NodeId,
    index: u32,
}

/// `NodeId(u32::MAX)` cannot occur in a real tree (the arena would need
/// 2^32 nodes), so it marks an empty slot.
const EMPTY_SLOT: DenseSlot = DenseSlot { node: NodeId(u32::MAX), index: u32::MAX };

/// Which dense range an instruction address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DenseRange {
    Lib,
    User,
    Frame,
}

/// Maps a 4-aligned synthetic instruction address to its dense range and
/// slot; `None` routes to the spill hash.
#[inline]
fn dense_slot(instr: u32) -> Option<(DenseRange, usize)> {
    if instr & 3 != 0 {
        return None;
    }
    let (range, base) = if (layout::CODE_BASE..layout::FRAME_CODE_BASE).contains(&instr) {
        (DenseRange::User, layout::CODE_BASE)
    } else if (layout::LIB_CODE_BASE..layout::LIB_CODE_END).contains(&instr) {
        (DenseRange::Lib, layout::LIB_CODE_BASE)
    } else if (layout::FRAME_CODE_BASE..layout::GLOBAL_BASE).contains(&instr) {
        (DenseRange::Frame, layout::FRAME_CODE_BASE)
    } else {
        return None;
    };
    let slot = ((instr - base) >> 2) as usize;
    (slot < DENSE_SLOTS_CAP).then_some((range, slot))
}

/// The dense dispatch tables: one lazily-grown slot array per synthetic
/// instruction range, and a spill hash for everything else — unaligned
/// addresses, addresses outside every range, and *additional* loop-tree
/// contexts of an instruction whose slot is already taken (the multi-hit
/// path promotes the requested context back into the slot, so the common
/// context always costs one array index).
#[derive(Debug, Clone, Default)]
struct DenseTables {
    lib: Vec<DenseSlot>,
    user: Vec<DenseSlot>,
    frame: Vec<DenseSlot>,
    spill: FastMap<(u32, NodeId), u32>,
}

impl DenseTables {
    fn table_mut(&mut self, range: DenseRange) -> &mut Vec<DenseSlot> {
        match range {
            DenseRange::Lib => &mut self.lib,
            DenseRange::User => &mut self.user,
            DenseRange::Frame => &mut self.frame,
        }
    }

    /// Finds the reference index for `(instr, node)`, if one was inserted.
    #[inline]
    fn get(&mut self, instr: u32, node: NodeId) -> Option<u32> {
        match dense_slot(instr) {
            Some((range, slot)) => {
                let table = self.table_mut(range);
                if slot >= table.len() {
                    return None;
                }
                let e = table[slot];
                if e.node == node {
                    return Some(e.index);
                }
                if e == EMPTY_SLOT {
                    return None;
                }
                // Same instruction, different loop-tree context: consult
                // the spill and swap the contexts so the one in use stays
                // on the fast path (move-to-front).
                let index = self.spill.remove(&(instr, node))?;
                self.spill.insert((instr, e.node), e.index);
                self.table_mut(range)[slot] = DenseSlot { node, index };
                Some(index)
            }
            None => self.spill.get(&(instr, node)).copied(),
        }
    }

    /// Records a newly created reference. Each `(instr, node)` pair lives
    /// in exactly one place: its range slot if free, else the spill.
    fn insert(&mut self, instr: u32, node: NodeId, index: u32) {
        match dense_slot(instr) {
            Some((range, slot)) => {
                let table = self.table_mut(range);
                if slot >= table.len() {
                    table.resize(slot + 1, EMPTY_SLOT);
                }
                if table[slot] == EMPTY_SLOT {
                    table[slot] = DenseSlot { node, index };
                } else {
                    self.spill.insert((instr, node), index);
                }
            }
            None => {
                self.spill.insert((instr, node), index);
            }
        }
    }
}

/// Marks "no reference" in the predictor's links; it can never index
/// `Analyzer::refs`.
const NO_REF: u32 = u32::MAX;

/// A reference's access-path state, parallel to `Analyzer::refs` and kept
/// out of [`RefRecord`].
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The reference whose access followed this one's last time
    /// ([`NO_REF`] until one has).
    next: u32,
    /// Loop-tree tick at this reference's previous execution.
    last: u64,
}

/// The successor predictor's cursor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// The reference of the previous access.
    prev: u32,
    /// Its successor last time: the guess for the next access.
    guess: u32,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor { prev: NO_REF, guess: NO_REF }
    }
}

/// Deterministic counts of the analyzer's work off the per-access fast
/// path: a typical access hits the successor predictor and observes only
/// its innermost iterator, and counts nothing but `accesses`. The counts
/// are a pure function of the record stream and the configuration; they
/// never enter an [`Analysis`], output bytes or cache keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzerCounters {
    /// Accesses analyzed: every access in the stream.
    pub accesses: u64,
    /// Accesses whose reference was looked up in the table: predictor
    /// misses under [`LookupStrategy::Dense`], every access under
    /// [`LookupStrategy::Hash`]. Includes the lookups that created a
    /// reference.
    pub table_lookups: u64,
    /// Accesses that ran Algorithm 3 over the whole iterator vector
    /// because an enclosing loop's iterator changed since the reference
    /// last ran (or the reference sits at the root).
    pub full_observes: u64,
    /// Times the iterator vector was collected from the loop tree: at most
    /// once per checkpoint interval, and only for full observes and new
    /// references.
    pub iterator_collections: u64,
    /// References created.
    pub refs_created: u64,
}

impl AnalyzerCounters {
    /// Accesses whose reference the successor predictor named.
    pub fn predictor_hits(&self) -> u64 {
        self.accesses - self.table_lookups
    }

    /// Accesses that ran Algorithm 3 on the innermost iterator alone.
    pub fn inner_observes(&self) -> u64 {
        self.accesses - self.full_observes - self.refs_created
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalyzerConfig {
    /// Reference lookup strategy.
    pub lookup: LookupStrategy,
}

/// Classification of a static reference by its instruction-address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefClass {
    /// An access site in user source code.
    User,
    /// System-library traffic (`malloc`, `memset`, I/O, ...) — Table III's
    /// middle column; never part of the FORAY model.
    Library,
    /// Compiler-generated argument-passing / spill traffic — user code, but
    /// invisible in the source; the paper notes Step 4 filters it.
    Frame,
}

impl RefClass {
    fn of(instr: InstrAddr) -> RefClass {
        if layout::is_library_instr(instr) {
            RefClass::Library
        } else if (layout::FRAME_CODE_BASE..layout::GLOBAL_BASE).contains(&instr.0) {
            RefClass::Frame
        } else {
            RefClass::User
        }
    }
}

/// One static memory reference: an instruction address at a loop-tree
/// position, with its fitted affine state and access counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRecord {
    /// Instruction address identifying the source-level site.
    pub instr: InstrAddr,
    /// Loop-tree position (references of the same instruction in different
    /// calling contexts are distinct, i.e. "inlined").
    pub node: NodeId,
    /// Fitted affine model.
    pub state: AffineState,
    /// Loads observed.
    pub reads: u64,
    /// Stores observed.
    pub writes: u64,
    /// User / library / frame classification.
    pub class: RefClass,
}

/// Streaming analyzer state.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    tree: LoopTree,
    refs: Vec<RefRecord>,
    links: Vec<Link>,
    cursor: Cursor,
    dense: DenseTables,
    by_key: HashMap<(NodeId, InstrAddr), u32>,
    config: AnalyzerConfig,
    iters_buf: Vec<i64>,
    /// Whether `iters_buf` holds the current node's iterator vector. Every
    /// checkpoint invalidates it; it is collected again on demand, at most
    /// once per checkpoint interval.
    iters_valid: bool,
    counters: AnalyzerCounters,
}

impl Analyzer {
    /// Creates an analyzer with the default configuration.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Creates an analyzer with an explicit configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        Analyzer { config, ..Analyzer::default() }
    }

    /// Feeds a whole pre-recorded trace (offline mode).
    pub fn consume<'a>(&mut self, records: impl IntoIterator<Item = &'a Record>) {
        for r in records {
            self.record(r);
        }
    }

    /// Counts of the work done off the per-access fast path so far.
    pub fn counters(&self) -> AnalyzerCounters {
        self.counters
    }

    /// Finishes analysis, yielding the immutable results.
    pub fn into_analysis(self) -> Analysis {
        Analysis { tree: self.tree, refs: self.refs, accesses: self.counters.accesses }
    }

    fn on_checkpoint(&mut self, loop_id: LoopId, kind: CheckpointKind) {
        self.tree.on_checkpoint(loop_id, kind);
        self.iters_valid = false;
    }

    // Kept out of line: inlined into `record`, its only caller, it slowed
    // trace-file replay by about 8% (perfbench `trace_replay`, 2-core
    // x86-64 host).
    #[inline(never)]
    fn on_access(&mut self, a: &Access) {
        self.counters.accesses += 1;
        let node = self.tree.current();
        // The successor predictor: a hit names the reference without a
        // table lookup. Under `Hash` no successor is ever recorded, so the
        // guess is always `NO_REF` and every access probes the hash.
        let guess = self.cursor.guess;
        let i = match self.refs.get(guess as usize) {
            Some(r) if r.instr == a.instr && r.node == node => guess,
            _ => match self.lookup(a.instr, node) {
                Some(i) => i,
                None => return self.create(a, node),
            },
        };
        let iu = i as usize;
        // The stamp test makes the innermost-only observe exact: no outer
        // iterator moved since this reference's previous execution.
        let inner = self.tree.inner_iter_since(self.links[iu].last);
        if inner.is_none() {
            self.collect_iters();
            self.counters.full_observes += 1;
        }
        let rec = &mut self.refs[iu];
        match inner {
            Some(it) => rec.state.observe_inner(it, a.addr.0),
            None => rec.state.observe(&self.iters_buf, a.addr.0),
        }
        match a.kind {
            AccessKind::Read => rec.reads += 1,
            AccessKind::Write => rec.writes += 1,
        }
        let link = &mut self.links[iu];
        link.last = self.tree.tick();
        self.cursor = Cursor { prev: i, guess: link.next };
    }

    /// The lookup-table path: finds `(instr, node)`'s reference and, if it
    /// exists, records it as the previous access's successor.
    fn lookup(&mut self, instr: InstrAddr, node: NodeId) -> Option<u32> {
        self.counters.table_lookups += 1;
        let found = match self.config.lookup {
            LookupStrategy::Dense => self.dense.get(instr.0, node),
            LookupStrategy::Hash => self.by_key.get(&(node, instr)).copied(),
        };
        if let Some(i) = found {
            self.set_successor(i);
        }
        found
    }

    /// Records reference `i` as the successor of the previous access's
    /// reference (the predictor runs under [`LookupStrategy::Dense`] only).
    fn set_successor(&mut self, i: u32) {
        if self.config.lookup != LookupStrategy::Dense {
            return;
        }
        if let Some(link) = self.links.get_mut(self.cursor.prev as usize) {
            link.next = i;
        }
    }

    /// Collects the current node's iterator vector unless this checkpoint
    /// interval already did.
    fn collect_iters(&mut self) {
        if !self.iters_valid {
            self.iters_buf.clear();
            self.tree.iterators_into(self.tree.current(), &mut self.iters_buf);
            self.iters_valid = true;
            self.counters.iterator_collections += 1;
        }
    }

    /// First execution of `(a.instr, node)`: a new reference.
    #[cold]
    fn create(&mut self, a: &Access, node: NodeId) {
        self.collect_iters();
        self.counters.refs_created += 1;
        let depth = self.tree.node(node).depth;
        let state = AffineState::first(depth, &self.iters_buf, a.addr.0);
        let (mut reads, mut writes) = (0, 0);
        match a.kind {
            AccessKind::Read => reads = 1,
            AccessKind::Write => writes = 1,
        }
        let i = self.refs.len() as u32;
        self.refs.push(RefRecord {
            instr: a.instr,
            node,
            state,
            reads,
            writes,
            class: RefClass::of(a.instr),
        });
        self.links.push(Link { next: NO_REF, last: self.tree.tick() });
        match self.config.lookup {
            LookupStrategy::Dense => self.dense.insert(a.instr.0, node, i),
            LookupStrategy::Hash => {
                self.by_key.insert((node, a.instr), i);
            }
        }
        self.set_successor(i);
        self.cursor = Cursor { prev: i, guess: NO_REF };
    }
}

impl TraceSink for Analyzer {
    fn record(&mut self, rec: &Record) {
        match rec {
            Record::Checkpoint { loop_id, kind } => self.on_checkpoint(*loop_id, *kind),
            Record::Access(a) => self.on_access(a),
        }
    }
}

/// Immutable analysis results: the reconstructed loop tree and every
/// reference with its fitted affine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    tree: LoopTree,
    refs: Vec<RefRecord>,
    accesses: u64,
}

impl Analysis {
    /// The reconstructed loop tree.
    pub fn tree(&self) -> &LoopTree {
        &self.tree
    }

    /// All references, in first-observation order.
    pub fn refs(&self) -> &[RefRecord] {
        &self.refs
    }

    /// Total accesses analyzed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Analyzes a complete record slice in one call (offline convenience).
///
/// # Examples
///
/// ```
/// use minic::CheckpointKind::*;
/// use minic_trace::{AccessKind, Record};
///
/// let trace = vec![
///     Record::checkpoint(0, LoopBegin),
///     Record::checkpoint(0, BodyBegin),
///     Record::access(0x400000, 0x1000_0000, AccessKind::Read),
///     Record::checkpoint(0, BodyEnd),
///     Record::checkpoint(0, BodyBegin),
///     Record::access(0x400000, 0x1000_0004, AccessKind::Read),
///     Record::checkpoint(0, BodyEnd),
/// ];
/// let analysis = foray::analyze(&trace);
/// assert_eq!(analysis.refs().len(), 1);
/// assert_eq!(analysis.refs()[0].state.coefficients(), &[Some(4)]);
/// ```
pub fn analyze(records: &[Record]) -> Analysis {
    analyze_with(records, AnalyzerConfig::default())
}

/// [`analyze`] with an explicit configuration.
pub fn analyze_with(records: &[Record], config: AnalyzerConfig) -> Analysis {
    let mut analyzer = Analyzer::with_config(config);
    analyzer.consume(records);
    analyzer.into_analysis()
}

/// Analyzes any [`RecordSource`] — a slice, a zero-copy byte decoder, or a
/// trace file — producing the same result [`analyze`] gives on the
/// equivalent record slice.
///
/// # Errors
///
/// Propagates the source's first decode/read failure.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic_trace::ReadError> {
/// use minic_trace::{file, AccessKind, Record};
///
/// let trace = vec![
///     Record::checkpoint(0, minic::CheckpointKind::LoopBegin),
///     Record::checkpoint(0, minic::CheckpointKind::BodyBegin),
///     Record::access(0x400000, 0x1000_0000, AccessKind::Read),
///     Record::checkpoint(0, minic::CheckpointKind::BodyEnd),
/// ];
/// let mut bytes = Vec::new();
/// file::write_to(&mut bytes, &trace).unwrap();
/// let file = file::TraceFile::from_bytes(bytes)?;
/// let analysis = foray::analyze_source(&file)?;
/// assert_eq!(analysis, foray::analyze(&trace));
/// # Ok(())
/// # }
/// ```
pub fn analyze_source<Src: RecordSource>(source: Src) -> Result<Analysis, Src::Error> {
    analyze_source_with(source, AnalyzerConfig::default())
}

/// [`analyze_source`] with an explicit configuration.
///
/// # Errors
///
/// Propagates the source's first decode/read failure.
pub fn analyze_source_with<Src: RecordSource>(
    source: Src,
    config: AnalyzerConfig,
) -> Result<Analysis, Src::Error> {
    let mut analyzer = Analyzer::with_config(config);
    source.stream_into(&mut analyzer)?;
    Ok(analyzer.into_analysis())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};

    /// The paper's Fig 4(c) trace, verbatim (checkpoint ids 12..17 are the
    /// flat `3*loop + kind` encodings for loops 4 and 5).
    fn figure4_trace() -> Vec<Record> {
        let mut t = Vec::new();
        let acc = |addr: u32| Record::access(0x4002a0, addr, AccessKind::Write);
        t.push(Record::checkpoint(4, LB)); // Checkpoint: 12
        for (body, addrs) in [
            (0, [0x7fff5934u32, 0x7fff5935, 0x7fff5936]),
            (1, [0x7fff599b, 0x7fff599c, 0x7fff599d]),
        ] {
            let _ = body;
            t.push(Record::checkpoint(4, BB)); // 13
            t.push(Record::checkpoint(5, LB)); // 15
            for a in addrs {
                t.push(Record::checkpoint(5, BB)); // 16
                t.push(acc(a));
                t.push(Record::checkpoint(5, BE)); // 14
            }
            t.push(Record::checkpoint(4, BE)); // 17
        }
        t
    }

    #[test]
    fn figure4_end_to_end() {
        let analysis = analyze(&figure4_trace());
        assert_eq!(analysis.refs().len(), 1);
        let r = &analysis.refs()[0];
        assert_eq!(r.instr, InstrAddr(0x4002a0));
        assert_eq!(r.state.constant(), 2147440948);
        assert_eq!(r.state.coefficients(), &[Some(1), Some(103)]);
        assert!(r.state.is_full());
        assert_eq!(r.writes, 6);
        assert_eq!(r.reads, 0);
        assert_eq!(r.class, RefClass::User);
        assert_eq!(analysis.accesses(), 6);
    }

    #[test]
    fn all_lookup_strategies_agree() {
        let trace = figure4_trace();
        let dense = analyze_with(&trace, AnalyzerConfig::default());
        let hash = analyze_with(&trace, AnalyzerConfig { lookup: LookupStrategy::Hash });
        assert_eq!(dense, hash, "Hash diverged from Dense");
    }

    /// Unaligned and out-of-range instruction addresses can never use a
    /// dense slot; the spill hash must keep them exactly equivalent to the
    /// plain hash strategy.
    #[test]
    fn dense_spill_handles_arbitrary_instruction_addresses() {
        let mut t = vec![Record::checkpoint(0, LB)];
        for i in 0..6u32 {
            t.push(Record::checkpoint(0, BB));
            for instr in [0x400001u32, 0x400002, 0x1234_5677, u32::MAX, 0] {
                t.push(Record::access(instr, 0x1000 + 8 * i, AccessKind::Read));
            }
            t.push(Record::checkpoint(0, BE));
        }
        let dense = analyze_with(&t, AnalyzerConfig::default());
        let hash = analyze_with(&t, AnalyzerConfig { lookup: LookupStrategy::Hash });
        assert_eq!(dense, hash);
        assert_eq!(dense.refs().len(), 5);
    }

    /// One instruction alternating between two loop-tree contexts per
    /// iteration exercises the dense slot's promote/demote path on every
    /// other access.
    #[test]
    fn dense_multi_context_promotion_stays_identical() {
        let mut t = Vec::new();
        for round in 0..4u32 {
            for outer in [0u32, 1] {
                t.push(Record::checkpoint(outer, LB));
                t.push(Record::checkpoint(outer, BB));
                t.push(Record::checkpoint(9, LB));
                t.push(Record::checkpoint(9, BB));
                t.push(Record::access(0x400010, 0x1000 + 4 * round, AccessKind::Read));
                t.push(Record::checkpoint(9, BE));
                t.push(Record::checkpoint(outer, BE));
            }
        }
        let dense = analyze_with(&t, AnalyzerConfig::default());
        let hash = analyze_with(&t, AnalyzerConfig { lookup: LookupStrategy::Hash });
        assert_eq!(dense, hash);
        assert_eq!(dense.refs().len(), 2, "one reference per inlined context");
    }

    #[test]
    fn same_instr_in_two_contexts_is_two_references() {
        // Loop 9 under loop 0 and under loop 1; instr 0x400010 inside.
        let mut t = Vec::new();
        for outer in [0u32, 1] {
            t.push(Record::checkpoint(outer, LB));
            t.push(Record::checkpoint(outer, BB));
            t.push(Record::checkpoint(9, LB));
            for i in 0..3u32 {
                t.push(Record::checkpoint(9, BB));
                t.push(Record::access(0x400010, 0x1000 + 4 * i, AccessKind::Read));
                t.push(Record::checkpoint(9, BE));
            }
            t.push(Record::checkpoint(outer, BE));
        }
        let analysis = analyze(&t);
        assert_eq!(analysis.refs().len(), 2, "one reference per inlined context");
        for r in analysis.refs() {
            assert_eq!(r.state.coefficients()[0], Some(4));
        }
    }

    #[test]
    fn library_and_frame_classification() {
        let t = vec![
            Record::access(layout::LIB_CODE_BASE, 0x4000_0000, AccessKind::Write),
            Record::access(layout::FRAME_CODE_BASE, 0x7fff_0000, AccessKind::Write),
            Record::access(layout::CODE_BASE, 0x1000_0000, AccessKind::Read),
        ];
        let analysis = analyze(&t);
        let classes: Vec<RefClass> = analysis.refs().iter().map(|r| r.class).collect();
        assert_eq!(classes, vec![RefClass::Library, RefClass::Frame, RefClass::User]);
    }

    #[test]
    fn top_level_accesses_attach_to_root() {
        let t = vec![Record::access(0x400000, 0x1000_0000, AccessKind::Read)];
        let analysis = analyze(&t);
        assert_eq!(analysis.refs()[0].state.nest_level(), 0);
        assert!(!analysis.refs()[0].state.has_iterator());
    }
}
