//! The FORAY model: filtering (Step 4 of Algorithm 1) and the extracted
//! intermediate representation.
//!
//! A FORAY model is "another C program consisting of any combination of
//! `for` loops and array references, with all array index expressions being
//! affine functions of outer loop iterators" (paper, Section 3). Here the
//! model is an IR — loops with trip counts plus references with affine
//! expressions — which [`crate::codegen`] renders as C text in the style of
//! the paper's Fig. 2/4(d).

use crate::analyzer::{Analysis, RefClass, RefRecord};
use crate::looptree::NodeId;
use minic::LoopId;
use minic_trace::InstrAddr;
use std::collections::{BTreeMap, HashMap};

/// Step 4's purge heuristic. A reference stays only if its (partial) affine
/// expression uses at least one iterator, it executed at least `n_exec`
/// times, and it touched at least `n_loc` distinct locations. The paper used
/// 20 and 10 "to eliminate small arrays that can fit in the scratch pad
/// completely ... and to eliminate references which do not exhibit a lot of
/// reuse".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Minimum executions (`Nexec`).
    pub n_exec: u64,
    /// Minimum distinct locations (`Nloc`).
    pub n_loc: u64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig { n_exec: 20, n_loc: 10 }
    }
}

impl FilterConfig {
    /// Whether a reference survives the purge. Library and frame traffic
    /// never does (the paper's FORAY model captures source-level user
    /// references only).
    pub fn keeps(&self, r: &RefRecord) -> bool {
        r.class == RefClass::User
            && !r.state.is_non_analyzable()
            && r.state.has_iterator()
            && r.state.executions() >= self.n_exec
            && r.state.footprint() >= self.n_loc
    }
}

/// One loop of the model: a node of the reconstructed tree with its trip
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelLoop {
    /// Tree node.
    pub node: NodeId,
    /// Static loop id.
    pub loop_id: LoopId,
    /// Emitted trip count (the largest per-entry iteration count observed).
    pub trip: u64,
    /// Nesting depth in the tree (1 = outermost).
    pub depth: u32,
    /// Parent loop node, if any (`None` for top-level nests).
    pub parent: Option<NodeId>,
}

/// One affine term `coeff * iter(level)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineTerm {
    /// Iterator level, 1 = innermost (the paper's `iter1`).
    pub level: u32,
    /// The loop that iterator belongs to.
    pub loop_id: LoopId,
    /// Integer coefficient (non-zero).
    pub coeff: i64,
}

/// One array reference of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRef {
    /// Instruction address; also names the array (`A4002a0` style).
    pub instr: InstrAddr,
    /// Tree position.
    pub node: NodeId,
    /// Constant term. For partial expressions this is the most recent
    /// re-based value — valid within one activation of the outer context.
    pub constant: i64,
    /// Non-zero affine terms within the window, innermost first.
    pub terms: Vec<AffineTerm>,
    /// Partial window `M` (`M == nest` for full expressions).
    pub window: u32,
    /// Nest depth `N`.
    pub nest: u32,
    /// Loop ids enclosing the reference, innermost first.
    pub loop_path: Vec<LoopId>,
    /// Tree nodes enclosing the reference, innermost first.
    pub node_path: Vec<NodeId>,
    /// Executions observed.
    pub execs: u64,
    /// Distinct addresses touched (0 if tracking was disabled).
    pub footprint: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
}

impl ModelRef {
    /// `A{instr:x}` — the array name used in emitted code (Fig. 4(d)).
    pub fn array_name(&self) -> String {
        format!("A{:x}", self.instr)
    }

    /// Whether the expression is partial (`M < N`).
    pub fn is_partial(&self) -> bool {
        self.window < self.nest
    }
}

/// The extracted FORAY model.
#[derive(Debug, Clone, Default)]
pub struct ForayModel {
    /// Surviving references, in first-observation order.
    pub refs: Vec<ModelRef>,
    /// Loops hosting those references (every node on a surviving
    /// reference's path), keyed by node.
    pub loops: BTreeMap<NodeId, ModelLoop>,
}

impl ForayModel {
    /// Extracts the model from an analysis (Step 4 + model construction).
    ///
    /// # Examples
    ///
    /// ```
    /// use foray::{analyze, FilterConfig, ForayModel};
    /// use minic::CheckpointKind::*;
    /// use minic_trace::{AccessKind, Record};
    ///
    /// let mut trace = vec![Record::checkpoint(0, LoopBegin)];
    /// for i in 0..32u32 {
    ///     trace.push(Record::checkpoint(0, BodyBegin));
    ///     trace.push(Record::access(0x400000, 0x1000_0000 + 4 * i, AccessKind::Read));
    ///     trace.push(Record::checkpoint(0, BodyEnd));
    /// }
    /// let model = ForayModel::extract(&analyze(&trace), &FilterConfig::default());
    /// assert_eq!(model.refs.len(), 1);
    /// assert_eq!(model.refs[0].terms[0].coeff, 4);
    /// ```
    pub fn extract(analysis: &Analysis, filter: &FilterConfig) -> ForayModel {
        let mut model = ForayModel::default();
        let tree = analysis.tree();
        for r in analysis.refs() {
            if !filter.keeps(r) {
                continue;
            }
            let node_path = tree.node_path(r.node);
            let loop_path = tree.loop_path(r.node);
            let terms = r
                .state
                .coefficients()
                .iter()
                .take(r.state.window() as usize)
                .enumerate()
                .filter_map(|(i, c)| match c {
                    Some(c) if *c != 0 => {
                        Some(AffineTerm { level: i as u32 + 1, loop_id: loop_path[i], coeff: *c })
                    }
                    _ => None,
                })
                .collect();
            model.refs.push(ModelRef {
                instr: r.instr,
                node: r.node,
                constant: r.state.constant(),
                terms,
                window: r.state.window(),
                nest: r.state.nest_level(),
                loop_path,
                node_path: node_path.clone(),
                execs: r.state.executions(),
                footprint: r.state.footprint(),
                reads: r.reads,
                writes: r.writes,
            });
            // Register every loop on the path.
            for nid in node_path {
                let n = tree.node(nid);
                model.loops.entry(nid).or_insert_with(|| ModelLoop {
                    node: nid,
                    loop_id: n.loop_id.expect("path nodes are loops"),
                    trip: n.max_trip,
                    depth: n.depth,
                    parent: {
                        let mut p = n.parent;
                        // Nearest ancestor that is itself a loop.
                        loop {
                            match p {
                                Some(pid) if tree.node(pid).loop_id.is_some() => break Some(pid),
                                Some(pid) => p = tree.node(pid).parent,
                                None => break None,
                            }
                        }
                    },
                });
            }
        }
        model
    }

    /// Distinct static loop ids in the model (Table II's loop count uses
    /// nodes; this is the static view).
    pub fn distinct_loop_ids(&self) -> Vec<LoopId> {
        let mut v: Vec<LoopId> = self.loops.values().map(|l| l.loop_id).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of loop nodes ("inlined" view, as the paper counts).
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Number of references.
    pub fn ref_count(&self) -> usize {
        self.refs.len()
    }

    /// Total accesses covered by the model.
    pub fn covered_accesses(&self) -> u64 {
        self.refs.iter().map(|r| r.execs).sum()
    }

    /// Compares two models of the *same program* (e.g. profiled under
    /// different inputs), keying references by `(instruction, static loop
    /// path)` — stable across runs, unlike tree node ids.
    pub fn diff(&self, other: &ForayModel) -> ModelDiff {
        let key = |r: &ModelRef| (r.instr, r.loop_path.clone());
        let left: HashMap<_, &ModelRef> = self.refs.iter().map(|r| (key(r), r)).collect();
        let right: HashMap<_, &ModelRef> = other.refs.iter().map(|r| (key(r), r)).collect();
        let mut diff = ModelDiff::default();
        for (k, l) in &left {
            match right.get(k) {
                None => diff.only_left += 1,
                Some(r) => {
                    let same_terms = l.terms == r.terms && l.window == r.window;
                    if same_terms && l.constant == r.constant {
                        diff.matching += 1;
                    } else if same_terms {
                        diff.constant_only += 1;
                    } else {
                        diff.changed += 1;
                    }
                }
            }
        }
        diff.only_right = right.keys().filter(|k| !left.contains_key(*k)).count() as u64;
        diff
    }
}

/// Result of [`ForayModel::diff`]: how stable the model is across inputs
/// (the paper's stated future work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelDiff {
    /// References identical in both models.
    pub matching: u64,
    /// Same affine terms, different constant (e.g. different allocation
    /// base) — still the same buffering decision.
    pub constant_only: u64,
    /// Different coefficients or window.
    pub changed: u64,
    /// Present only in the left model.
    pub only_left: u64,
    /// Present only in the right model.
    pub only_right: u64,
}

impl ModelDiff {
    /// Fraction of the union that matches up to the constant term.
    pub fn stability(&self) -> f64 {
        let total =
            self.matching + self.constant_only + self.changed + self.only_left + self.only_right;
        if total == 0 {
            1.0
        } else {
            (self.matching + self.constant_only) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use minic::CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};
    use minic_trace::{AccessKind, Record};

    fn strided_loop_trace(instr: u32, base: u32, stride: u32, n: u32) -> Vec<Record> {
        let mut t = vec![Record::checkpoint(0, LB)];
        for i in 0..n {
            t.push(Record::checkpoint(0, BB));
            t.push(Record::access(instr, base + stride * i, AccessKind::Read));
            t.push(Record::checkpoint(0, BE));
        }
        t
    }

    #[test]
    fn extraction_keeps_strided_reference() {
        let analysis = analyze(&strided_loop_trace(0x400000, 0x1000_0000, 4, 64));
        let model = ForayModel::extract(&analysis, &FilterConfig::default());
        assert_eq!(model.ref_count(), 1);
        assert_eq!(model.loop_count(), 1);
        let r = &model.refs[0];
        assert_eq!(r.array_name(), "A400000");
        assert_eq!(r.constant, 0x1000_0000);
        assert_eq!(r.terms.len(), 1);
        assert_eq!(r.terms[0].coeff, 4);
        assert!(!r.is_partial());
        assert_eq!(model.loops.values().next().unwrap().trip, 64);
        assert_eq!(model.covered_accesses(), 64);
    }

    #[test]
    fn filter_drops_short_and_narrow_references() {
        // Only 8 executions: below Nexec=20.
        let analysis = analyze(&strided_loop_trace(0x400000, 0x1000_0000, 4, 8));
        let model = ForayModel::extract(&analysis, &FilterConfig::default());
        assert_eq!(model.ref_count(), 0);
        // 64 executions over 4 locations: below Nloc=10.
        let mut t = vec![Record::checkpoint(0, LB)];
        for i in 0..64u32 {
            t.push(Record::checkpoint(0, BB));
            t.push(Record::access(0x400000, 0x1000_0000 + 4 * (i % 4), AccessKind::Read));
            t.push(Record::checkpoint(0, BE));
        }
        // (i % 4) is not affine, so this is rejected even before Nloc; use a
        // tiny loop re-entered many times instead.
        let mut t2 = Vec::new();
        for _ in 0..16 {
            t2.push(Record::checkpoint(0, LB));
            for i in 0..4u32 {
                t2.push(Record::checkpoint(0, BB));
                t2.push(Record::access(0x400000, 0x1000_0000 + 4 * i, AccessKind::Read));
                t2.push(Record::checkpoint(0, BE));
            }
        }
        let model2 = ForayModel::extract(&analyze(&t2), &FilterConfig::default());
        assert_eq!(model2.ref_count(), 0, "4 locations < Nloc");
        let relaxed = FilterConfig { n_exec: 20, n_loc: 2 };
        let model3 = ForayModel::extract(&analyze(&t2), &relaxed);
        assert_eq!(model3.ref_count(), 1);
        let _ = t;
    }

    #[test]
    fn custom_thresholds() {
        let analysis = analyze(&strided_loop_trace(0x400000, 0x1000_0000, 4, 8));
        let model = ForayModel::extract(&analysis, &FilterConfig { n_exec: 4, n_loc: 4 });
        assert_eq!(model.ref_count(), 1);
    }

    #[test]
    fn nested_loops_register_parent_chain() {
        let mut t = vec![Record::checkpoint(0, LB)];
        for j in 0..4u32 {
            t.push(Record::checkpoint(0, BB));
            t.push(Record::checkpoint(1, LB));
            for i in 0..8u32 {
                t.push(Record::checkpoint(1, BB));
                t.push(Record::access(0x400000, 0x1000 + 4 * i + 32 * j, AccessKind::Write));
                t.push(Record::checkpoint(1, BE));
            }
            t.push(Record::checkpoint(0, BE));
        }
        let model = ForayModel::extract(&analyze(&t), &FilterConfig { n_exec: 16, n_loc: 10 });
        assert_eq!(model.ref_count(), 1);
        assert_eq!(model.loop_count(), 2);
        let r = &model.refs[0];
        assert_eq!(r.loop_path, vec![minic::LoopId(1), minic::LoopId(0)]);
        // Inner loop's parent is the outer loop node.
        let inner = model.loops.get(&r.node_path[0]).unwrap();
        let outer = model.loops.get(&r.node_path[1]).unwrap();
        assert_eq!(inner.parent, Some(outer.node));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.trip, 8);
        assert_eq!(outer.trip, 4);
    }

    #[test]
    fn diff_detects_stability_and_change() {
        let a = ForayModel::extract(
            &analyze(&strided_loop_trace(0x400000, 0x1000_0000, 4, 64)),
            &FilterConfig::default(),
        );
        // Same shape, different base: constant-only difference.
        let b = ForayModel::extract(
            &analyze(&strided_loop_trace(0x400000, 0x2000_0000, 4, 64)),
            &FilterConfig::default(),
        );
        let d = a.diff(&b);
        assert_eq!(d.constant_only, 1);
        assert_eq!(d.stability(), 1.0);
        // Different stride: changed.
        let c = ForayModel::extract(
            &analyze(&strided_loop_trace(0x400000, 0x1000_0000, 8, 64)),
            &FilterConfig::default(),
        );
        let d2 = a.diff(&c);
        assert_eq!(d2.changed, 1);
        assert_eq!(d2.stability(), 0.0);
        // Disjoint instr: only_left/only_right.
        let e = ForayModel::extract(
            &analyze(&strided_loop_trace(0x400004, 0x1000_0000, 4, 64)),
            &FilterConfig::default(),
        );
        let d3 = a.diff(&e);
        assert_eq!((d3.only_left, d3.only_right), (1, 1));
    }

    #[test]
    fn zero_coefficient_terms_are_dropped() {
        // Outer loop contributes stride 0 (same row rescanned).
        let mut t = Vec::new();
        t.push(Record::checkpoint(0, LB));
        for _j in 0..4u32 {
            t.push(Record::checkpoint(0, BB));
            t.push(Record::checkpoint(1, LB));
            for i in 0..16u32 {
                t.push(Record::checkpoint(1, BB));
                t.push(Record::access(0x400000, 0x1000 + 4 * i, AccessKind::Read));
                t.push(Record::checkpoint(1, BE));
            }
            t.push(Record::checkpoint(0, BE));
        }
        let model = ForayModel::extract(&analyze(&t), &FilterConfig::default());
        assert_eq!(model.ref_count(), 1);
        let r = &model.refs[0];
        // Only the inner term survives; the outer coefficient is 0.
        assert_eq!(r.terms.len(), 1);
        assert_eq!(r.terms[0].level, 1);
    }
}
