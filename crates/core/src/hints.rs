//! Function-inlining hints (paper, Section 4, "Inter-function
//! optimizations").
//!
//! The FORAY model has no function hierarchy — callees appear inlined at
//! each calling context. When the same static loop materializes at more than
//! one loop-tree position, its enclosing function is exercised under
//! different access patterns, and the paper suggests duplicating
//! (specializing) that function so each pattern can be optimized separately
//! (its Fig. 9 example).

use crate::looptree::{LoopTree, NodeId};
use minic::{LoopId, Program};
use std::collections::HashMap;

/// One inlining hint: a loop observed in several calling contexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineHint {
    /// The function containing the loop (from the source program).
    pub function: String,
    /// The static loop.
    pub loop_id: LoopId,
    /// Tree positions where the loop materialized (one per context).
    pub contexts: Vec<NodeId>,
    /// Human-readable context paths like `main/L0 > foo/L2`.
    pub context_paths: Vec<String>,
}

/// Maps each loop id to the name of the function whose body contains it.
pub fn loop_owners(prog: &Program) -> HashMap<LoopId, String> {
    let mut owners = HashMap::new();
    for f in &prog.functions {
        f.visit_stmts(&mut |s| {
            if let Some(id) = s.loop_id() {
                owners.insert(id, f.name.clone());
            }
        });
    }
    owners
}

/// Derives inlining hints: loops of non-`main` functions that appear at
/// more than one loop-tree position.
///
/// `figures fig9` (the `foray-bench` bin) prints the hint for the paper's
/// Fig. 9 program.
pub fn inline_hints(prog: &Program, tree: &LoopTree) -> Vec<InlineHint> {
    let owners = loop_owners(prog);
    let mut by_loop: HashMap<LoopId, Vec<NodeId>> = HashMap::new();
    for (nid, node) in tree.iter() {
        if let Some(l) = node.loop_id {
            by_loop.entry(l).or_default().push(nid);
        }
    }
    let mut hints: Vec<InlineHint> = by_loop
        .into_iter()
        .filter(|(_, nodes)| nodes.len() > 1)
        .filter_map(|(loop_id, mut nodes)| {
            nodes.sort_unstable();
            let function = owners.get(&loop_id)?.clone();
            // A multi-context loop in main itself would mean recursion into
            // main — not an inlining opportunity.
            if function == "main" {
                return None;
            }
            let context_paths = nodes.iter().map(|n| path_string(tree, *n)).collect();
            Some(InlineHint { function, loop_id, contexts: nodes, context_paths })
        })
        .collect();
    hints.sort_by_key(|h| h.loop_id);
    hints
}

fn path_string(tree: &LoopTree, node: NodeId) -> String {
    let mut ids = tree.loop_path(node);
    ids.reverse(); // outermost first
    if ids.is_empty() {
        "top".to_owned()
    } else {
        ids.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(" > ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};

    fn figure9_program() -> Program {
        // Fig 9: foo's loop called from two loops in main.
        let mut prog = minic::parse(
            "int A[1000];
             int foo(int offset) {
               int ret; int i;
               for (i = 0; i < 10; i++) { ret += A[i + offset]; }
               return ret;
             }
             void main() {
               int x; int y; int tmp;
               for (x = 0; x < 10; x++) { tmp += foo(10 * x); }
               for (y = 0; y < 20; y++) { tmp += foo(2 * y); }
             }",
        )
        .unwrap();
        minic::check(&mut prog).unwrap();
        prog
    }

    #[test]
    fn loop_owner_mapping() {
        let prog = figure9_program();
        let owners = loop_owners(&prog);
        assert_eq!(owners[&LoopId(0)], "foo");
        assert_eq!(owners[&LoopId(1)], "main");
        assert_eq!(owners[&LoopId(2)], "main");
    }

    #[test]
    fn figure9_yields_hint() {
        let prog = figure9_program();
        // Simulate the tree shape: foo's loop (0) under main's loops 1 and 2.
        let mut tree = LoopTree::new();
        for outer in [1u32, 2] {
            tree.on_checkpoint(LoopId(outer), LB);
            tree.on_checkpoint(LoopId(outer), BB);
            tree.on_checkpoint(LoopId(0), LB);
            tree.on_checkpoint(LoopId(0), BB);
            tree.on_checkpoint(LoopId(0), BE);
            tree.on_checkpoint(LoopId(outer), BE);
        }
        let hints = inline_hints(&prog, &tree);
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].function, "foo");
        assert_eq!(hints[0].loop_id, LoopId(0));
        assert_eq!(hints[0].contexts.len(), 2);
        assert_eq!(hints[0].context_paths, vec!["L1 > L0", "L2 > L0"]);
    }

    #[test]
    fn single_context_loops_yield_no_hint() {
        let prog = figure9_program();
        let mut tree = LoopTree::new();
        tree.on_checkpoint(LoopId(1), LB);
        tree.on_checkpoint(LoopId(1), BB);
        tree.on_checkpoint(LoopId(0), LB);
        assert!(inline_hints(&prog, &tree).is_empty());
    }

    #[test]
    fn main_loops_never_hint() {
        let mut prog = minic::parse("void main() { int i; for (i = 0; i < 3; i++) { } }").unwrap();
        minic::check(&mut prog).unwrap();
        let mut tree = LoopTree::new();
        // Artificially duplicate main's loop in two contexts.
        tree.on_checkpoint(LoopId(0), LB);
        tree.on_checkpoint(LoopId(0), BB);
        tree.on_checkpoint(LoopId(0), LB); // self-nested (degenerate)
        assert!(inline_hints(&prog, &tree).is_empty());
    }
}
