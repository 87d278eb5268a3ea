//! Checkpoint instrumentation — Step 1 of FORAY-GEN's Algorithm 1.
//!
//! Every loop is bracketed with the paper's three checkpoint kinds
//! (Fig. 4(b)): a *loop-begin* before the loop statement, a *body-begin* at
//! the top of each iteration, and a *body-end* at the bottom. To keep the
//! emitted checkpoint stream well-nested under early exits, the pass also
//! rewrites `break`, `continue`, and `return` inside loop bodies to emit the
//! body-end checkpoints they would otherwise skip — the mechanical
//! equivalent of what a careful manual annotator would write.

use crate::ast::*;

/// Instruments all loops of a program in place.
///
/// Idempotence is *not* guaranteed; instrument a program once. (A second
/// pass would re-wrap loops with duplicate checkpoints.)
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let mut prog = minic::parse("void main() { while (0) { } }")?;
/// minic::instrument(&mut prog);
/// assert!(minic::pretty(&prog).contains("CHECKPOINT(0);"));
/// # Ok(())
/// # }
/// ```
pub fn instrument(prog: &mut Program) {
    for func in &mut prog.functions {
        let mut enclosing = Vec::new();
        instrument_block(&mut func.body, &mut enclosing);
    }
}

fn checkpoint(loop_id: LoopId, kind: CheckpointKind) -> Stmt {
    Stmt::Checkpoint { loop_id, kind }
}

/// `enclosing` tracks the loop ids around the current statement, innermost
/// last, within the current function.
fn instrument_block(block: &mut Block, enclosing: &mut Vec<LoopId>) {
    let old = std::mem::take(&mut block.stmts);
    let mut out = Vec::with_capacity(old.len());
    for stmt in old {
        instrument_stmt(stmt, enclosing, &mut out);
    }
    block.stmts = out;
}

fn instrument_body(body: &mut Block, id: LoopId, enclosing: &mut Vec<LoopId>) {
    enclosing.push(id);
    instrument_block(body, enclosing);
    enclosing.pop();
    body.stmts.insert(0, checkpoint(id, CheckpointKind::BodyBegin));
    body.stmts.push(checkpoint(id, CheckpointKind::BodyEnd));
}

fn instrument_stmt(mut stmt: Stmt, enclosing: &mut Vec<LoopId>, out: &mut Vec<Stmt>) {
    match &mut stmt {
        Stmt::While { id, body, .. }
        | Stmt::DoWhile { id, body, .. }
        | Stmt::For { id, body, .. } => {
            let id = *id;
            instrument_body(body, id, enclosing);
            out.push(checkpoint(id, CheckpointKind::LoopBegin));
            out.push(stmt);
        }
        Stmt::If { then_blk, else_blk, .. } => {
            instrument_block(then_blk, enclosing);
            if let Some(e) = else_blk {
                instrument_block(e, enclosing);
            }
            out.push(stmt);
        }
        Stmt::Block(b) => {
            instrument_block(b, enclosing);
            out.push(stmt);
        }
        Stmt::Continue => {
            // Close the innermost loop's iteration before jumping back.
            if let Some(&inner) = enclosing.last() {
                out.push(checkpoint(inner, CheckpointKind::BodyEnd));
            }
            out.push(stmt);
        }
        Stmt::Break => {
            if let Some(&inner) = enclosing.last() {
                out.push(checkpoint(inner, CheckpointKind::BodyEnd));
            }
            out.push(stmt);
        }
        Stmt::Return(_) => {
            // Close every enclosing loop body in this function,
            // innermost first.
            for &id in enclosing.iter().rev() {
                out.push(checkpoint(id, CheckpointKind::BodyEnd));
            }
            out.push(stmt);
        }
        _ => out.push(stmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn checkpoints_of(src: &str) -> Vec<(u32, CheckpointKind)> {
        let mut prog = parse(src).unwrap();
        crate::sema::check(&mut prog).unwrap();
        instrument(&mut prog);
        let mut out = Vec::new();
        prog.visit_stmts(&mut |s| {
            if let Stmt::Checkpoint { loop_id, kind } = s {
                out.push((loop_id.0, *kind));
            }
        });
        out
    }

    use CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};

    #[test]
    fn brackets_simple_while() {
        let cps = checkpoints_of("void main() { while (0) { } }");
        assert_eq!(cps, vec![(0, LB), (0, BB), (0, BE)]);
    }

    #[test]
    fn nested_loops_bracketed_inside_out() {
        let cps = checkpoints_of("void main() { while (0) { for (;;) { } } }");
        // Static order: LB(outer) appears before the while; inside the body:
        // BB(outer), LB(inner), [BB(inner), BE(inner)] inside for, BE(outer).
        assert_eq!(cps, vec![(0, LB), (0, BB), (1, LB), (1, BB), (1, BE), (0, BE)]);
    }

    #[test]
    fn continue_gets_body_end() {
        let cps = checkpoints_of("void main() { while (0) { continue; } }");
        // LB, BB, BE (for the continue), BE (structural end).
        assert_eq!(cps, vec![(0, LB), (0, BB), (0, BE), (0, BE)]);
    }

    #[test]
    fn return_closes_all_enclosing_loops() {
        let cps = checkpoints_of(
            "int f() { while (0) { for (;;) { return 1; } } return 0; } void main() { f(); }",
        );
        // Inside the for body: return is preceded by BE(for)=loop1, BE(while)=loop0.
        let idx = cps.iter().position(|&(id, k)| id == 1 && k == BB).unwrap();
        assert_eq!(&cps[idx + 1..idx + 3], &[(1, BE), (0, BE)]);
    }

    #[test]
    fn break_gets_body_end() {
        let cps = checkpoints_of("void main() { do { break; } while (1); }");
        assert_eq!(cps, vec![(0, LB), (0, BB), (0, BE), (0, BE)]);
    }

    #[test]
    fn loops_in_if_branches() {
        let cps =
            checkpoints_of("void main() { int c; if (c) { while (0) { } } else { for (;;) { } } }");
        assert_eq!(cps, vec![(0, LB), (0, BB), (0, BE), (1, LB), (1, BB), (1, BE)]);
    }
}
