//! Experiment counters: the raw data behind the paper's Tables I–III.
//!
//! * Table I — program size and the executed-loop kind mix;
//! * Table II — loops/references captured in the FORAY model, and how many
//!   of them a purely static analyzer also finds (the complement is the
//!   paper's "% not in FORAY form in the original program");
//! * Table III — the three-way split of references / accesses / footprint
//!   between the FORAY model, system-library code, and everything else.

use crate::analyzer::{Analysis, RefClass};
use crate::fasthash::FastMap;
use crate::footprint::Footprint;
use crate::model::ForayModel;
use minic::{LoopId, Program, Stmt};
use std::collections::{HashMap, HashSet};

/// Loop kind, for Table I's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// `for` loop.
    For,
    /// `while` loop.
    While,
    /// `do … while` loop.
    Do,
}

/// Maps every static loop id to its kind.
pub fn loop_kinds(prog: &Program) -> HashMap<LoopId, LoopKind> {
    let mut kinds = HashMap::new();
    prog.visit_stmts(&mut |s| match s {
        Stmt::For { id, .. } => {
            kinds.insert(*id, LoopKind::For);
        }
        Stmt::While { id, .. } => {
            kinds.insert(*id, LoopKind::While);
        }
        Stmt::DoWhile { id, .. } => {
            kinds.insert(*id, LoopKind::Do);
        }
        _ => {}
    });
    kinds
}

/// Table I row: benchmark complexity and executed-loop distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopBreakdown {
    /// Physical source lines.
    pub lines: usize,
    /// Distinct static loops executed during profiling.
    pub total_loops: usize,
    /// ... of which `for` loops.
    pub for_loops: usize,
    /// ... of which `while` loops.
    pub while_loops: usize,
    /// ... of which `do` loops.
    pub do_loops: usize,
}

impl LoopBreakdown {
    /// Builds the row from the source text, program, and analysis.
    pub fn compute(src: &str, prog: &Program, analysis: &Analysis) -> LoopBreakdown {
        let kinds = loop_kinds(prog);
        let executed = analysis.tree().distinct_loop_ids();
        let mut row = LoopBreakdown {
            lines: minic::count_lines(src).total,
            total_loops: executed.len(),
            ..LoopBreakdown::default()
        };
        for id in executed {
            match kinds.get(&id) {
                Some(LoopKind::For) => row.for_loops += 1,
                Some(LoopKind::While) => row.while_loops += 1,
                Some(LoopKind::Do) => row.do_loops += 1,
                None => {}
            }
        }
        row
    }
}

/// Table III row: memory behaviour split between FORAY model, system
/// library, and other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBehavior {
    /// Distinct references overall (user + library + frame, per inlined
    /// context, as the paper counts).
    pub total_refs: u64,
    /// Accesses overall.
    pub total_accesses: u64,
    /// Distinct addresses overall.
    pub total_footprint: u64,
    /// References captured by the FORAY model.
    pub model_refs: u64,
    /// Accesses covered by the model.
    pub model_accesses: u64,
    /// Distinct addresses covered by the model.
    pub model_footprint: u64,
    /// System-library references.
    pub lib_refs: u64,
    /// System-library accesses.
    pub lib_accesses: u64,
    /// System-library footprint.
    pub lib_footprint: u64,
    /// Footprint of everything else (non-model user + frame traffic).
    pub other_footprint: u64,
}

impl MemoryBehavior {
    /// Computes the row. Footprints require the analyzer to have tracked
    /// per-reference address sets (the default).
    pub fn compute(analysis: &Analysis, model: &ForayModel) -> MemoryBehavior {
        let model_keys: HashSet<(minic_trace::InstrAddr, crate::looptree::NodeId)> =
            model.refs.iter().map(|r| (r.instr, r.node)).collect();
        let mut row = MemoryBehavior {
            total_refs: analysis.refs().len() as u64,
            total_accesses: analysis.accesses(),
            model_refs: model.refs.len() as u64,
            model_accesses: model.covered_accesses(),
            ..MemoryBehavior::default()
        };
        // Footprints union as bitmap-page maps (see [`Footprint`]); the
        // counts pop out as per-page popcounts.
        let mut total_fp: FastMap<u32, u64> = FastMap::default();
        let mut model_fp: FastMap<u32, u64> = FastMap::default();
        let mut lib_fp: FastMap<u32, u64> = FastMap::default();
        let mut other_fp: FastMap<u32, u64> = FastMap::default();
        for r in analysis.refs() {
            let execs = r.state.executions();
            if r.class == RefClass::Library {
                row.lib_refs += 1;
                row.lib_accesses += execs;
            }
            let addrs = r.state.footprint_addrs();
            addrs.union_into(&mut total_fp);
            if model_keys.contains(&(r.instr, r.node)) {
                addrs.union_into(&mut model_fp);
            } else if r.class == RefClass::Library {
                addrs.union_into(&mut lib_fp);
            } else {
                addrs.union_into(&mut other_fp);
            }
        }
        row.total_footprint = Footprint::union_len(&total_fp);
        row.model_footprint = Footprint::union_len(&model_fp);
        row.lib_footprint = Footprint::union_len(&lib_fp);
        row.other_footprint = Footprint::union_len(&other_fp);
        row
    }
}

/// Table II row: dynamic (FORAY-GEN) capture vs static reach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureComparison {
    /// Loop nodes in the FORAY model (the paper's inlined counting).
    pub model_loops: u64,
    /// References in the FORAY model.
    pub model_refs: u64,
    /// Of the model loops, how many a static analyzer also proves to be in
    /// FORAY form (by static loop id).
    pub static_loops: u64,
    /// Of the model references, how many are statically analyzable.
    pub static_refs: u64,
}

impl CaptureComparison {
    /// Builds the comparison given the statically-analyzable loop ids and
    /// site-derived instruction addresses (see `foray-baseline`).
    pub fn compute(
        model: &ForayModel,
        static_loop_ids: &HashSet<LoopId>,
        static_instrs: &HashSet<minic_trace::InstrAddr>,
    ) -> CaptureComparison {
        let mut c = CaptureComparison {
            model_loops: model.loop_count() as u64,
            model_refs: model.ref_count() as u64,
            ..CaptureComparison::default()
        };
        for l in model.loops.values() {
            if static_loop_ids.contains(&l.loop_id) {
                c.static_loops += 1;
            }
        }
        for r in &model.refs {
            // A model reference is statically reached only if its whole
            // enclosing nest is statically analyzable too.
            if static_instrs.contains(&r.instr)
                && r.loop_path.iter().all(|l| static_loop_ids.contains(l))
            {
                c.static_refs += 1;
            }
        }
        c
    }

    /// "% of loops not in FORAY form in the original program".
    pub fn pct_loops_not_static(&self) -> f64 {
        pct(self.model_loops - self.static_loops, self.model_loops)
    }

    /// "% of references not in FORAY form in the original program".
    pub fn pct_refs_not_static(&self) -> f64 {
        pct(self.model_refs - self.static_refs, self.model_refs)
    }

    /// The headline multiplier: dynamically analyzable references vs
    /// statically analyzable ones (∞-free: returns `None` when no reference
    /// is statically analyzable).
    pub fn gain(&self) -> Option<f64> {
        if self.static_refs == 0 {
            None
        } else {
            Some(self.model_refs as f64 / self.static_refs as f64)
        }
    }
}

/// `part` as a percentage of `whole` (0–100; 0 when `whole` is 0). The
/// paper's tables print it as `{:.0}%`.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders an aligned text table: header row, dashed separator, then data
/// rows — first column left-aligned, the rest right-aligned.
///
/// The one table style of the whole suite: `foray-bench`'s paper tables
/// and `foray_spm`'s design-space-exploration reports both render through
/// it.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i].saturating_sub(cell.len());
            if i == 0 {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::model::FilterConfig;
    use minic::CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};
    use minic_trace::{layout, AccessKind, InstrAddr, Record};

    #[test]
    fn loop_kinds_from_source() {
        let mut prog = minic::parse(
            "void main() { int i; while (0) { } do { } while (0);
               for (i = 0; i < 3; i++) { } }",
        )
        .unwrap();
        minic::check(&mut prog).unwrap();
        let kinds = loop_kinds(&prog);
        assert_eq!(kinds[&LoopId(0)], LoopKind::While);
        assert_eq!(kinds[&LoopId(1)], LoopKind::Do);
        assert_eq!(kinds[&LoopId(2)], LoopKind::For);
    }

    #[test]
    fn loop_breakdown_counts_executed_only() {
        let src = "void main() { int i; if (0) { while (1) { } }
                    for (i = 0; i < 2; i++) { } }";
        let mut prog = minic::parse(src).unwrap();
        minic::check(&mut prog).unwrap();
        // Executed trace touches only the for loop (id 1).
        let t =
            vec![Record::checkpoint(1, LB), Record::checkpoint(1, BB), Record::checkpoint(1, BE)];
        let analysis = analyze(&t);
        let row = LoopBreakdown::compute(src, &prog, &analysis);
        assert_eq!(row.total_loops, 1);
        assert_eq!(row.for_loops, 1);
        assert_eq!(row.while_loops, 0);
        assert_eq!(row.lines, 2);
    }

    fn mixed_trace() -> Vec<Record> {
        let mut t = vec![Record::checkpoint(0, LB)];
        for i in 0..32u32 {
            t.push(Record::checkpoint(0, BB));
            // Model-worthy strided user access.
            t.push(Record::access(layout::CODE_BASE, 0x1000_0000 + 4 * i, AccessKind::Read));
            // Library access, cycling over 4 addresses.
            t.push(Record::access(
                layout::LIB_CODE_BASE,
                layout::LIB_DATA_BASE + 4 * (i % 4),
                AccessKind::Write,
            ));
            // Narrow user access (always the same address): filtered out.
            t.push(Record::access(layout::CODE_BASE + 4, 0x1100_0000, AccessKind::Write));
            t.push(Record::checkpoint(0, BE));
        }
        t
    }

    #[test]
    fn memory_behavior_three_way_split() {
        let analysis = analyze(&mixed_trace());
        let model = ForayModel::extract(&analysis, &FilterConfig::default());
        let row = MemoryBehavior::compute(&analysis, &model);
        assert_eq!(row.total_refs, 3);
        assert_eq!(row.total_accesses, 96);
        assert_eq!(row.model_refs, 1);
        assert_eq!(row.model_accesses, 32);
        assert_eq!(row.lib_refs, 1);
        assert_eq!(row.lib_accesses, 32);
        assert_eq!(row.total_footprint, 32 + 4 + 1);
        assert_eq!(row.model_footprint, 32);
        assert_eq!(row.lib_footprint, 4);
        assert_eq!(row.other_footprint, 1);
        assert!((pct(row.model_accesses, row.total_accesses) - 33.33).abs() < 0.1);
    }

    #[test]
    fn capture_comparison_and_gain() {
        let analysis = analyze(&mixed_trace());
        let model = ForayModel::extract(&analysis, &FilterConfig::default());
        // Static analysis found nothing → gain undefined, 100% not static.
        let c = CaptureComparison::compute(&model, &HashSet::new(), &HashSet::new());
        assert_eq!(c.model_refs, 1);
        assert_eq!(c.static_refs, 0);
        assert_eq!(c.pct_refs_not_static(), 100.0);
        assert_eq!(c.gain(), None);
        // Static analysis finds the loop and the site → gain 1.0.
        let loops: HashSet<LoopId> = [LoopId(0)].into_iter().collect();
        let instrs: HashSet<InstrAddr> = [InstrAddr(layout::CODE_BASE)].into_iter().collect();
        let c2 = CaptureComparison::compute(&model, &loops, &instrs);
        assert_eq!(c2.static_refs, 1);
        assert_eq!(c2.gain(), Some(1.0));
        assert_eq!(c2.pct_loops_not_static(), 0.0);
    }

    #[test]
    fn pct_helpers() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
        assert_eq!(pct(2, 8), 25.0);
        assert_eq!(pct(2, 0), 0.0);
    }
}
