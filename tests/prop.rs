//! Property-based tests (proptest) for the core invariants:
//!
//! * Algorithm 3 recovers randomly generated affine access patterns
//!   *exactly*;
//! * both trace codecs round-trip arbitrary record streams;
//! * the streaming analyzer equals a naive Algorithm 2 + 3 reference on
//!   hostile (unbalanced, deep, multi-context) checkpoint streams;
//! * the interpreter agrees with a Rust-side reference evaluator on random
//!   arithmetic expressions;
//! * pretty-printed programs re-parse to the same text (fixpoint);
//! * the frontend answers every random token sequence and byte-mutated
//!   corpus source with `Ok` or a typed error, and never panics;
//! * the exact knapsack dominates greedy and matches brute force on small
//!   instances.

use foray::looptree::{LoopTree, NodeId};
use foray::{
    analyze, analyze_with, AffineState, AnalyzerConfig, FilterConfig, ForayModel, LookupStrategy,
};
use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
use minic::{CheckpointKind, LoopId};
use minic_trace::{AccessKind, FormatVersion, InstrAddr, Record, TraceFile};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------- Algorithm 3 recovers synthetic affine nests ----------

#[derive(Debug, Clone)]
struct AffineSpec {
    base: u32,
    coeffs: Vec<i64>, // innermost first
    trips: Vec<u64>,  // innermost first
}

fn affine_spec() -> impl Strategy<Value = AffineSpec> {
    (1usize..=3)
        .prop_flat_map(|depth| {
            (
                0x1000_0000u32..0x2000_0000,
                proptest::collection::vec((-64i64..=64).prop_filter("nonzero", |c| *c != 0), depth),
                proptest::collection::vec(2u64..=6, depth),
            )
        })
        .prop_map(|(base, coeffs, trips)| AffineSpec { base, coeffs, trips })
}

/// Builds the exact checkpoint/access stream of a perfect loop nest
/// executing `A[base + Σ c_i * it_i]` once per innermost iteration.
fn synth_trace(spec: &AffineSpec) -> Vec<Record> {
    let depth = spec.trips.len();
    let mut recs = Vec::new();
    // Iterative odometer over outermost..innermost.
    fn rec(
        level: usize, // 0 = outermost in this walk
        depth: usize,
        spec: &AffineSpec,
        iters: &mut Vec<i64>, // innermost-first
        recs: &mut Vec<Record>,
    ) {
        let loop_id = level as u32; // outermost loop gets id 0
        let inner_index = depth - 1 - level; // position in innermost-first vectors
        recs.push(Record::checkpoint(loop_id, LoopBegin));
        for it in 0..spec.trips[inner_index] {
            recs.push(Record::checkpoint(loop_id, BodyBegin));
            iters[inner_index] = it as i64;
            if level + 1 == depth {
                let mut addr = spec.base as i64;
                for (c, v) in spec.coeffs.iter().zip(iters.iter()) {
                    addr += c * v;
                }
                recs.push(Record::access(0x40_0000, addr as u32, AccessKind::Read));
            } else {
                rec(level + 1, depth, spec, iters, recs);
            }
            recs.push(Record::checkpoint(loop_id, BodyEnd));
        }
    }
    let mut iters = vec![0i64; depth];
    rec(0, depth, spec, &mut iters, &mut recs);
    recs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn algorithm3_recovers_random_affine_nests(spec in affine_spec()) {
        let trace = synth_trace(&spec);
        let analysis = analyze(&trace);
        prop_assert_eq!(analysis.refs().len(), 1);
        let st = &analysis.refs()[0].state;
        prop_assert!(!st.is_non_analyzable());
        prop_assert!(st.is_full(), "window {} of {}", st.window(), st.nest_level());
        prop_assert_eq!(st.constant(), spec.base as i64);
        prop_assert_eq!(st.mispredictions(), 0);
        for (i, c) in spec.coeffs.iter().enumerate() {
            prop_assert_eq!(st.coefficients()[i], Some(*c));
        }
        // Prediction reproduces every address (spot-check the last corner).
        let corner: Vec<i64> = spec.trips.iter().map(|t| *t as i64 - 1).collect();
        let mut expect = spec.base as i64;
        for (c, v) in spec.coeffs.iter().zip(corner.iter()) {
            expect += c * v;
        }
        prop_assert_eq!(st.predict(&corner), expect);
    }

    #[test]
    fn perturbed_nests_are_never_misreported_as_full(
        spec in affine_spec(),
        jitter in 1u32..1000,
    ) {
        // Corrupt one address mid-stream; the reference must not surface as
        // a clean full-affine fit with zero mispredictions.
        let mut trace = synth_trace(&spec);
        let accesses: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Record::Access(_)))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(accesses.len() >= 3);
        let victim = accesses[accesses.len() / 2];
        if let Record::Access(a) = &mut trace[victim] {
            a.addr = minic_trace::MemAddr(a.addr.0 ^ jitter);
        }
        let analysis = analyze(&trace);
        let st = &analysis.refs()[0].state;
        prop_assert!(
            st.is_non_analyzable() || st.mispredictions() > 0 || !st.is_full(),
            "corruption must leave a trace"
        );
    }
}

// ---------- trace codecs ----------

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u32..64, 0usize..3).prop_map(|(l, k)| {
            let kind = [LoopBegin, BodyBegin, BodyEnd][k];
            Record::checkpoint(l, kind)
        }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(i, a, w)| {
            Record::access(i, a, if w { AccessKind::Write } else { AccessKind::Read })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_codec_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let text = minic_trace::text::to_text(&records);
        let parsed = minic_trace::text::from_text(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn binary_codec_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        // Both `.ftrace` versions, over arbitrary `u32` addresses.
        for format in [FormatVersion::V1, FormatVersion::V2] {
            let mut bytes = Vec::new();
            minic_trace::file::write_to_with(&mut bytes, &records, format).unwrap();
            let file = TraceFile::from_bytes(bytes).unwrap();
            let parsed: Result<Vec<Record>, _> = file.records().collect();
            prop_assert_eq!(parsed.unwrap(), records.clone());
        }
    }
}

// ---------- streaming analyzer vs a naive reference ----------

/// One step of a generated stream. Sites are `(site, mode)` pairs: modes
/// 0–2 are affine in the iterators, 3 is constant and 4 is random.
#[derive(Debug, Clone)]
enum Event {
    /// A lone checkpoint `(loop id, kind index)`, wherever the walker is:
    /// body-begins with no loop-begin, body-ends off the path, body-begins
    /// for an ancestor from deep inside a nest, re-entries.
    Checkpoint(u32, usize),
    /// One access `(site, mode, noise)`.
    Access(u32, u32, u32),
    /// A balanced two-level nest `(outer id, inner id, outer trips, inner
    /// trips, body)`: the first body site runs in the outer body, the rest
    /// in the inner one. An inner id equal to the outer one nests the loop
    /// under itself.
    Nest(u32, u32, u32, u32, Vec<(u32, u32)>),
    /// `(first id, depth)`: that many loop-begin/body-begin pairs in a row,
    /// nesting deeper than any corpus program.
    Dive(u32, u32),
}

fn arb_site() -> impl Strategy<Value = (u32, u32)> {
    (0u32..7, 0u32..5)
}

fn arb_event() -> impl Strategy<Value = Event> {
    let nest = (0u32..4, 0u32..4, 1u32..5, 0u32..5, proptest::collection::vec(arb_site(), 0..5))
        .prop_map(|(o, i, ot, it, body)| Event::Nest(o, i, ot, it, body))
        .boxed();
    prop_oneof![
        (0u32..4, 0usize..3).prop_map(|(l, k)| Event::Checkpoint(l, k)),
        (0u32..4, 0usize..3).prop_map(|(l, k)| Event::Checkpoint(l, k)),
        (arb_site(), any::<u32>()).prop_map(|((s, m), n)| Event::Access(s, m, n)),
        (arb_site(), any::<u32>()).prop_map(|((s, m), n)| Event::Access(s, m, n)),
        nest.clone(),
        nest,
        (0u32..4, 1u32..9).prop_map(|(l, d)| Event::Dive(l, d)),
    ]
}

/// One node of [`NaiveTree`], with the fields `foray::looptree::Node`
/// exposes.
#[derive(Debug, Clone, PartialEq)]
struct NaiveNode {
    parent: Option<usize>,
    loop_id: Option<LoopId>,
    depth: u32,
    iter: i64,
    entries: u64,
    total_iters: u64,
    max_trip: u64,
}

impl NaiveNode {
    fn new(parent: Option<usize>, loop_id: Option<LoopId>, depth: u32) -> Self {
        NaiveNode { parent, loop_id, depth, iter: -1, entries: 0, total_iters: 0, max_trip: 0 }
    }
}

/// Algorithm 2 written straight from the landing table in
/// docs/ARCHITECTURE.md ("Unbalanced checkpoint streams"), sharing no code
/// with `foray::LoopTree`: nodes in creation order (index 0 is the root),
/// children found by scanning every node, no shortcuts.
struct NaiveTree {
    nodes: Vec<NaiveNode>,
    current: usize,
}

impl NaiveTree {
    fn new() -> Self {
        NaiveTree { nodes: vec![NaiveNode::new(None, None, 0)], current: 0 }
    }

    fn find_child(&self, parent: usize, loop_id: LoopId) -> Option<usize> {
        self.nodes.iter().position(|n| n.parent == Some(parent) && n.loop_id == Some(loop_id))
    }

    /// The child of the current node for `loop_id`, created on first sight.
    fn child_of_current(&mut self, loop_id: LoopId) -> usize {
        let parent = self.current;
        self.find_child(parent, loop_id).unwrap_or_else(|| {
            let depth = self.nodes[parent].depth + 1;
            self.nodes.push(NaiveNode::new(Some(parent), Some(loop_id), depth));
            self.nodes.len() - 1
        })
    }

    /// The current node and its ancestors, innermost first.
    fn path(&self) -> Vec<usize> {
        std::iter::successors(Some(self.current), |&n| self.nodes[n].parent).collect()
    }

    fn checkpoint(&mut self, loop_id: LoopId, kind: CheckpointKind) {
        match kind {
            LoopBegin => {
                let c = self.child_of_current(loop_id);
                self.nodes[c].iter = -1;
                self.nodes[c].entries += 1;
                self.current = c;
            }
            BodyBegin => {
                // The first node walking up that is `loop_id` or has a child
                // for it: that node or that child; else a new child of the
                // current node, counted as one entry.
                let found = self.path().into_iter().find_map(|n| {
                    if self.nodes[n].loop_id == Some(loop_id) {
                        Some(n)
                    } else {
                        self.find_child(n, loop_id)
                    }
                });
                let target = found.unwrap_or_else(|| {
                    let c = self.child_of_current(loop_id);
                    self.nodes[c].entries += 1;
                    c
                });
                let node = &mut self.nodes[target];
                node.iter += 1;
                node.total_iters += 1;
                node.max_trip = node.max_trip.max(node.iter as u64 + 1);
                self.current = target;
            }
            BodyEnd => {
                // The parent of the nearest node on the path that is
                // `loop_id`; off the path, the walker stays.
                if let Some(n) =
                    self.path().into_iter().find(|&n| self.nodes[n].loop_id == Some(loop_id))
                {
                    self.current = self.nodes[n].parent.expect("a loop node has a parent");
                }
            }
        }
    }

    /// The current node's loop iterators, innermost first.
    fn iterators(&self) -> Vec<i64> {
        self.path()
            .into_iter()
            .filter(|&n| self.nodes[n].loop_id.is_some())
            .map(|n| self.nodes[n].iter)
            .collect()
    }
}

/// Expands events into records, walking the naive loop tree alongside so
/// affine addresses follow the iterators the analyzer will see.
struct StreamBuilder {
    tree: NaiveTree,
    records: Vec<Record>,
}

impl StreamBuilder {
    fn checkpoint(&mut self, loop_id: u32, kind: CheckpointKind) {
        self.tree.checkpoint(LoopId(loop_id), kind);
        self.records.push(Record::checkpoint(loop_id, kind));
    }

    fn access(&mut self, (site, mode): (u32, u32), noise: u32) {
        // Six dense user sites and one unaligned one (the spill-hash path).
        let instr = if site == 6 { 0x40_0001 } else { 0x40_0000 + 4 * site };
        let base = 0x1000_0000i64 + 0x1_0000 * i64::from(site);
        let addr = match mode {
            0..=2 => {
                let iters = self.tree.iterators();
                let coeff = |j: usize| 4 * ((i64::from(site) * 5 + j as i64 * 3) % 7) - 12;
                base + iters.iter().enumerate().map(|(j, it)| coeff(j) * it).sum::<i64>()
            }
            3 => base,
            // A small range: the deltas are often not a multiple of the
            // iterator delta, so Step 3 finds non-integral quotients.
            _ => base + i64::from(noise % 64),
        };
        let kind = if noise & 1 == 0 { AccessKind::Read } else { AccessKind::Write };
        self.records.push(Record::access(instr, addr as u32, kind));
    }
}

fn build_stream(events: &[Event]) -> Vec<Record> {
    let mut b = StreamBuilder { tree: NaiveTree::new(), records: Vec::new() };
    for e in events {
        match e {
            Event::Checkpoint(l, k) => b.checkpoint(*l, [LoopBegin, BodyBegin, BodyEnd][*k]),
            Event::Access(site, mode, noise) => b.access((*site, *mode), *noise),
            Event::Nest(outer, inner, outer_trips, inner_trips, body) => {
                b.checkpoint(*outer, LoopBegin);
                for t in 0..*outer_trips {
                    b.checkpoint(*outer, BodyBegin);
                    let mut sites = body.iter();
                    if let Some(site) = sites.next() {
                        b.access(*site, t.wrapping_mul(0x9E37_79B9));
                    }
                    b.checkpoint(*inner, LoopBegin);
                    for u in 0..*inner_trips {
                        b.checkpoint(*inner, BodyBegin);
                        for site in sites.clone() {
                            b.access(*site, (t * 7 + u).wrapping_mul(0x9E37_79B9));
                        }
                        b.checkpoint(*inner, BodyEnd);
                    }
                    b.checkpoint(*outer, BodyEnd);
                }
            }
            Event::Dive(first, depth) => {
                for j in 0..*depth {
                    b.checkpoint((first + j) % 4, LoopBegin);
                    b.checkpoint((first + j) % 4, BodyBegin);
                }
            }
        }
    }
    b.records
}

/// One reference as the naive analyzer sees it.
#[derive(Debug, PartialEq)]
struct NaiveRef {
    instr: InstrAddr,
    node: NodeId,
    state: AffineState,
    reads: u64,
    writes: u64,
}

/// Algorithms 2 and 3 from public parts only: the naive loop tree, the
/// full iterator vector at every access, and one `AffineState` per
/// `(node, instruction)`.
fn naive_analysis(records: &[Record]) -> (NaiveTree, Vec<NaiveRef>, u64) {
    let mut tree = NaiveTree::new();
    let mut refs: Vec<NaiveRef> = Vec::new();
    let mut index: HashMap<(NodeId, InstrAddr), usize> = HashMap::new();
    let mut accesses = 0;
    for r in records {
        match r {
            Record::Checkpoint { loop_id, kind } => tree.checkpoint(*loop_id, *kind),
            Record::Access(a) => {
                accesses += 1;
                let node = NodeId(tree.current as u32);
                let iters = tree.iterators();
                let i = match index.get(&(node, a.instr)) {
                    Some(&i) => {
                        refs[i].state.observe(&iters, a.addr.0);
                        i
                    }
                    None => {
                        let state = AffineState::first(iters.len() as u32, &iters, a.addr.0);
                        refs.push(NaiveRef { instr: a.instr, node, state, reads: 0, writes: 0 });
                        index.insert((node, a.instr), refs.len() - 1);
                        refs.len() - 1
                    }
                };
                let rec = &mut refs[i];
                match a.kind {
                    AccessKind::Read => rec.reads += 1,
                    AccessKind::Write => rec.writes += 1,
                }
            }
        }
    }
    (tree, refs, accesses)
}

/// Asserts `tree` equals the naive one node by node, through the public
/// accessors.
fn assert_same_tree(tree: &LoopTree, naive: &NaiveTree) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree.len(), naive.nodes.len());
    for (i, want) in naive.nodes.iter().enumerate() {
        let node = tree.node(NodeId(i as u32));
        let got = NaiveNode {
            parent: node.parent.map(|p| p.0 as usize),
            loop_id: node.loop_id,
            depth: node.depth,
            iter: node.iter,
            entries: node.entries,
            total_iters: node.total_iters,
            max_trip: node.max_trip,
        };
        prop_assert_eq!(&got, want, "node {}", i);
    }
    prop_assert_eq!(tree.current(), NodeId(naive.current as u32));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The analyzer's access path (successor predictor, innermost-only
    /// observe behind the loop tree's change stamps, lazily collected
    /// iterator vector) must equal the naive reference exactly, under both
    /// lookup strategies.
    #[test]
    fn analyzer_equals_naive_reference_on_hostile_streams(
        events in proptest::collection::vec(arb_event(), 0..40),
    ) {
        let records = build_stream(&events);
        let (tree, expect, accesses) = naive_analysis(&records);
        for lookup in [LookupStrategy::Dense, LookupStrategy::Hash] {
            let got = analyze_with(&records, AnalyzerConfig { lookup });
            prop_assert_eq!(got.accesses(), accesses);
            assert_same_tree(got.tree(), &tree)?;
            let got: Vec<NaiveRef> = got
                .refs()
                .iter()
                .map(|r| NaiveRef {
                    instr: r.instr,
                    node: r.node,
                    state: r.state.clone(),
                    reads: r.reads,
                    writes: r.writes,
                })
                .collect();
            prop_assert_eq!(&got, &expect, "{:?}", lookup);
        }
    }
}

// ---------- interpreter vs reference evaluator ----------

#[derive(Debug, Clone)]
enum RefExpr {
    Lit(i32),
    Add(Box<RefExpr>, Box<RefExpr>),
    Sub(Box<RefExpr>, Box<RefExpr>),
    Mul(Box<RefExpr>, Box<RefExpr>),
    Div(Box<RefExpr>, Box<RefExpr>),
    Rem(Box<RefExpr>, Box<RefExpr>),
}

impl RefExpr {
    fn eval(&self) -> i64 {
        match self {
            RefExpr::Lit(v) => *v as i64,
            RefExpr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            RefExpr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            RefExpr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            RefExpr::Div(a, b) => {
                let d = b.eval();
                if d == 0 {
                    0
                } else {
                    a.eval().wrapping_div(d)
                }
            }
            RefExpr::Rem(a, b) => {
                let d = b.eval();
                if d == 0 {
                    0
                } else {
                    a.eval().wrapping_rem(d)
                }
            }
        }
    }

    /// Renders as mini-C, guarding divisions like the generator does.
    fn to_c(&self) -> String {
        match self {
            RefExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            RefExpr::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            RefExpr::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            RefExpr::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            // Mini-C division by zero is a runtime error; mirror the
            // reference's guard inline with a ternary.
            RefExpr::Div(a, b) => {
                format!("({1} == 0 ? 0 : {0} / {1})", a.to_c(), b.to_c())
            }
            RefExpr::Rem(a, b) => {
                format!("({1} == 0 ? 0 : {0} % {1})", a.to_c(), b.to_c())
            }
        }
    }
}

fn arb_ref_expr() -> impl Strategy<Value = RefExpr> {
    let leaf = (-1000i32..1000).prop_map(RefExpr::Lit);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Rem(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interpreter_matches_reference_arithmetic(e in arb_ref_expr()) {
        // The ternary guards make the expression total; values can exceed
        // i32 mid-expression (both sides compute in i64).
        let expected = e.eval();
        let src = format!("void main() {{ print_int({}); }}", e.to_c());
        let prog = minic::frontend(&src).unwrap();
        let (outcome, _) =
            minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
        prop_assert_eq!(outcome.printed[0], expected);
    }

    #[test]
    fn pretty_print_is_a_fixpoint(e in arb_ref_expr()) {
        // parse . pretty = identity on the pretty form.
        let src = format!("void main() {{ print_int({}); }}", e.to_c());
        let prog = minic::parse(&src).unwrap();
        let once = minic::pretty(&prog);
        let twice = minic::pretty(&minic::parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }
}

// ---------- the frontend is total ----------

/// Spellings for random token sequences, one space apart: every keyword
/// and operator, a few names, literals of each form (one past `i64::MAX`
/// too), both comment openers, and bytes the lexer refuses or leaves
/// unterminated. The glue between tokens adds the blanks.
const TOKENS: &str = "int char void if else for while do return break continue main x a f \
    print_int input 0 7 -1 0x1F 0x 'a' '\\n' 9223372036854775808 12ab ( ) { } [ ] ; , + - * / \
    % & | ^ ~ ! < > <= >= == != && || << >> = += -= *= /= %= ++ -- ? : /*c*/ // /* @ '";

/// Bytes that mutations write into corpus sources.
const MUTANT_BYTES: &[u8] = b"{}()[];,-+*/=<>!&|?:'0123456789xai \n\t\r@";

/// The corpus sources at scale 1, built once.
fn corpus_sources() -> &'static [String] {
    static SOURCES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    SOURCES.get_or_init(|| {
        let corpus = foray_workloads::build(None, 1).expect("the corpus builds");
        corpus.into_iter().map(|w| w.source).collect()
    })
}

/// Runs the frontend: `Ok`, a semantic error, or a lex or parse error
/// located in the source all pass; a panic fails the test.
fn frontend_answers(src: &str) -> Result<(), TestCaseError> {
    if let Err(minic::Error::Lex { loc, .. } | minic::Error::Parse { loc, .. }) =
        minic::frontend(src)
    {
        let lines = src.split('\n').count() as u32;
        prop_assert!(loc.line >= 1 && loc.line <= lines && loc.col >= 1, "{loc} in {src:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontend_answers_random_token_sequences(
        picks in proptest::collection::vec(any::<usize>(), 0..80),
        glue in 0..5usize,
    ) {
        let tokens: Vec<&str> = TOKENS.split(' ').filter(|t| !t.is_empty()).collect();
        let glue = [" ", "", "\n", "\t", "\r\n"][glue];
        let src = picks.iter().map(|&i| tokens[i % tokens.len()]).collect::<Vec<_>>().join(glue);
        frontend_answers(&src)?;
        // The same tokens inside a function body and an initializer list.
        frontend_answers(&format!("void main() {{ {src} }}"))?;
        frontend_answers(&format!("int t[4] = {{{src}}};"))?;
    }

    #[test]
    fn frontend_answers_byte_mutated_corpus_sources(
        which in 0..7usize,
        edits in proptest::collection::vec((any::<u64>(), 0..3u8, 0..MUTANT_BYTES.len()), 1..6),
    ) {
        let mut bytes = corpus_sources()[which].clone().into_bytes();
        for (at, op, byte) in edits {
            let at = (at % bytes.len() as u64) as usize;
            match op {
                0 => bytes[at] = MUTANT_BYTES[byte],
                1 => bytes.insert(at, MUTANT_BYTES[byte]),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        frontend_answers(&String::from_utf8_lossy(&bytes))?;
    }
}

// ---------- knapsack optimality ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_knapsack_matches_bruteforce(
        sizes in proptest::collection::vec((16u32..200, 100u64..100_000), 1..7),
        capacity in 50u32..600,
    ) {
        let energy = foray_spm::EnergyModel::default();
        let candidates: Vec<foray_spm::BufferCandidate> = sizes
            .iter()
            .enumerate()
            .map(|(i, (size, accesses))| foray_spm::BufferCandidate {
                ref_idx: i,
                array: format!("A{i}"),
                level: 1,
                size_bytes: *size,
                spm_accesses: *accesses,
                fill_elems: accesses / 50,
                writeback_elems: 0,
                activations: 1,
                elem_bytes: 4,
            })
            .collect();
        let exact = foray_spm::select_exact(&candidates, &energy, capacity);
        prop_assert!(exact.used_bytes <= capacity);

        // Brute force over all subsets (≤ 2^6).
        let mut best = 0.0f64;
        for mask in 0u32..(1 << candidates.len()) {
            let mut size = 0u32;
            let mut value = 0.0;
            for (i, c) in candidates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    size += c.size_bytes;
                    value += c.savings_nj(&energy);
                }
            }
            if size <= capacity && value > best {
                best = value;
            }
        }
        prop_assert!((exact.savings_nj - best).abs() < 1e-6,
            "exact {} vs brute force {}", exact.savings_nj, best);
    }
}

// ---------- model extraction sanity over random nests ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extraction_respects_filter_thresholds(
        spec in affine_spec(),
        n_exec in 1u64..200,
        n_loc in 1u64..100,
    ) {
        let trace = synth_trace(&spec);
        let analysis = analyze(&trace);
        let model = ForayModel::extract(&analysis, &FilterConfig { n_exec, n_loc });
        let execs: u64 = spec.trips.iter().product();
        let kept = model.ref_count() == 1;
        if kept {
            let r = &model.refs[0];
            prop_assert!(r.execs >= n_exec);
            prop_assert!(r.footprint >= n_loc);
            prop_assert_eq!(r.execs, execs);
        } else {
            // Dropped: at least one threshold (or the iterator condition)
            // must have failed.
            let footprint = analysis.refs()[0].state.footprint();
            prop_assert!(
                execs < n_exec
                    || footprint < n_loc
                    || !analysis.refs()[0].state.has_iterator()
            );
        }
    }
}
