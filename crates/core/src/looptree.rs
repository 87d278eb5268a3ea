//! Loop-tree reconstruction from the checkpoint stream — Algorithm 2 of the
//! paper.
//!
//! The trace is consumed strictly in order; each checkpoint moves a *current
//! node* pointer through a tree of loop nodes:
//!
//! * **loop-begin** descends into (creating if necessary) the child of the
//!   current node for that loop id, and starts a new *entry* whose iteration
//!   counter is reset;
//! * **body-begin** pops the pointer up to the named ancestor and increments
//!   its iteration counter;
//! * **body-end** pops the pointer up to the named ancestor.
//!
//! Because descent happens wherever the pointer currently is, a function
//! called from two different places grows two separate subtrees for the same
//! static loop — the paper's "functions appear to be inlined" property
//! (Section 4), which also powers the inlining hints.
//!
//! The tree also stamps every iterator change with a tick, so the analyzer
//! can tell in O(1) whether any loop enclosing the current node moved since
//! a reference last ran (see `LoopTree::inner_iter_since`), and it remembers
//! the node the last body-end left, so a loop's back edge (body-end, then
//! body-begin of the same loop) lands without walking the path.

use minic::{CheckpointKind, LoopId};

/// Index of a node in the [`LoopTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The root node (not a loop; holds top-level references).
pub const ROOT: NodeId = NodeId(0);

/// One loop node (or the root) of the reconstructed structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// The static loop this node instantiates; `None` for the root.
    pub loop_id: Option<LoopId>,
    /// Loop nesting depth (root = 0).
    pub depth: u32,
    /// Current iteration counter (−1 between loop-begin and the first
    /// body-begin of an entry).
    pub iter: i64,
    /// Number of times the loop was entered.
    pub entries: u64,
    /// Total body iterations across all entries.
    pub total_iters: u64,
    /// Largest per-entry iteration count observed.
    pub max_trip: u64,
    // Distinct child loop ids per node are few (sibling loops in one
    // body), and `child()` runs on every checkpoint — a linear scan over
    // an inline vector beats hashing. Insertion order is deterministic
    // (first instantiation order), so derived equality stays meaningful.
    children: Vec<(LoopId, NodeId)>,
}

impl Node {
    fn new(parent: Option<NodeId>, loop_id: Option<LoopId>, depth: u32) -> Self {
        Node {
            parent,
            loop_id,
            depth,
            iter: -1,
            entries: 0,
            total_iters: 0,
            max_trip: 0,
            children: Vec::new(),
        }
    }

    /// Child node for a loop id, if present.
    pub fn child(&self, id: LoopId) -> Option<NodeId> {
        self.children.iter().find(|(k, _)| *k == id).map(|(_, v)| *v)
    }

    /// Iterates over `(loop id, node)` children in first-instantiation
    /// order.
    pub fn children(&self) -> impl Iterator<Item = (LoopId, NodeId)> + '_ {
        self.children.iter().copied()
    }
}

/// Iterator-change stamps of one node, parallel to the node arena.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    /// Tick of this node's own last iterator change.
    changed: u64,
    /// Largest `changed` among the node's strict ancestors. Set when the
    /// walker lands on the node, and valid while the node is on the
    /// walker's path: an ancestor's iterator only changes when the walker
    /// lands on that ancestor, which takes this node off the path.
    outer: u64,
}

/// The reconstructed loop tree and the walking pointer.
#[derive(Debug, Clone)]
pub struct LoopTree {
    nodes: Vec<Node>,
    current: NodeId,
    /// Iterator changes so far; bumped once per LoopBegin or BodyBegin.
    tick: u64,
    stamps: Vec<Stamp>,
    /// The node the last body-end popped out of (the root before any).
    /// Nodes are never removed and never change parent or loop id, so a
    /// stale value is only a missed shortcut, never a wrong landing.
    exited: NodeId,
}

/// Two trees are equal when their structure, statistics and walker
/// position are; the change stamps and `exited` are walk bookkeeping and
/// stay out.
impl PartialEq for LoopTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.current == other.current
    }
}

impl Eq for LoopTree {}

impl Default for LoopTree {
    fn default() -> Self {
        LoopTree::new()
    }
}

impl LoopTree {
    /// Creates a tree containing only the root.
    pub fn new() -> Self {
        LoopTree {
            nodes: vec![Node::new(None, None, 0)],
            current: ROOT,
            tick: 0,
            stamps: vec![Stamp::default()],
            exited: ROOT,
        }
    }

    /// The node the walker is currently at (where the next memory access
    /// will be attributed).
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// All nodes in creation order (root first).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Current values of the loop iterators enclosing `id`, **innermost
    /// first** (the paper's `IT1..ITN` for a reference attached at `id`).
    pub fn iterators(&self, id: NodeId) -> Vec<i64> {
        let mut out = Vec::new();
        self.iterators_into(id, &mut out);
        out
    }

    /// Appends [`LoopTree::iterators`]`(id)` to `out` without allocating.
    pub(crate) fn iterators_into(&self, id: NodeId, out: &mut Vec<i64>) {
        let mut cur = Some(id);
        while let Some(nid) = cur {
            let node = self.node(nid);
            if node.loop_id.is_some() {
                out.push(node.iter);
            }
            cur = node.parent;
        }
    }

    /// Iterator changes so far: the tick that stamps the next access.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// The current node's own iterator, if the walker is inside a loop and
    /// no enclosing loop's iterator changed after tick `since`. A reference
    /// at the current node that last ran at `since` then sees every outer
    /// iterator equal to its previous value, so Algorithm 3 needs only this
    /// one.
    #[inline]
    pub(crate) fn inner_iter_since(&self, since: u64) -> Option<i64> {
        let cur = self.current.0 as usize;
        (cur != ROOT.0 as usize && self.stamps[cur].outer <= since).then(|| self.nodes[cur].iter)
    }

    /// Lands the walker on `id` after its iterator changed: stamps the
    /// change and takes `outer` from the parent, which is on the path.
    fn land(&mut self, id: NodeId) {
        self.tick += 1;
        let parent = self.node(id).parent.unwrap_or(ROOT);
        let p = self.stamps[parent.0 as usize];
        self.stamps[id.0 as usize] = Stamp { changed: self.tick, outer: p.changed.max(p.outer) };
        self.current = id;
    }

    /// The chain of loop ids from `id` up to the root, innermost first.
    pub fn loop_path(&self, id: NodeId) -> Vec<LoopId> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(nid) = cur {
            let node = self.node(nid);
            if let Some(l) = node.loop_id {
                out.push(l);
            }
            cur = node.parent;
        }
        out
    }

    /// Nodes on the path from `id` to the root that are loops, innermost
    /// first.
    pub fn node_path(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(nid) = cur {
            let node = self.node(nid);
            if node.loop_id.is_some() {
                out.push(nid);
            }
            cur = node.parent;
        }
        out
    }

    /// Processes one checkpoint (Algorithm 2, step 3).
    ///
    /// Pointer protocol — derived from replaying the paper's Fig. 4(c)
    /// stream against its Fig. 4(d) result:
    ///
    /// * *loop-begin* moves **down** into the loop's node (creating it under
    ///   the current node on first sight) and starts a fresh entry;
    /// * *body-begin* moves down into the loop node if the walker sits at
    ///   its parent (the normal between-iterations position) and bumps the
    ///   iteration counter;
    /// * *body-end* moves **up** to the loop node's parent — so once a loop
    ///   exits, a following sibling loop attaches at the correct level.
    ///
    /// Accesses between body-end and the next body-begin (loop conditions,
    /// `for` steps) therefore attribute to the parent, which matches where
    /// the paper's annotator places its checkpoints.
    ///
    /// On unbalanced input the walker lands as follows (no checkpoint is
    /// ever rejected):
    ///
    /// * *loop-begin* always lands on the child of the current node, so a
    ///   loop entered again without exiting nests under itself;
    /// * *body-begin* walks up from the current node to the first node that
    ///   is the named loop or has it as a child, and lands on that node or
    ///   that child. With no such node it creates the loop under the
    ///   current node, counted as one entry. A body-begin for an ancestor
    ///   thus pops the walker up to it from any depth, unless a node below
    ///   the ancestor has a child for that loop;
    /// * *body-end* lands on the parent of the nearest node on the path that
    ///   is the named loop, popping past every node below it; one for a loop
    ///   not on the path leaves the walker where it is.
    pub fn on_checkpoint(&mut self, loop_id: LoopId, kind: CheckpointKind) {
        match kind {
            CheckpointKind::LoopBegin => {
                let child = self.child_or_create(self.current, loop_id);
                let node = &mut self.nodes[child.0 as usize];
                node.iter = -1;
                node.entries += 1;
                self.land(child);
            }
            CheckpointKind::BodyBegin => {
                // The back edge: `find_for_body` checks the current node's
                // own id first, then its child for `loop_id`. When the
                // current node is not that loop and `exited` is that loop
                // under it, the child is `exited` (a node's children have
                // distinct loop ids).
                let e = self.node(self.exited);
                let target = if e.loop_id == Some(loop_id)
                    && e.parent == Some(self.current)
                    && self.node(self.current).loop_id != Some(loop_id)
                {
                    self.exited
                } else {
                    self.find_for_body(loop_id)
                };
                let node = &mut self.nodes[target.0 as usize];
                node.iter += 1;
                node.total_iters += 1;
                let trip = (node.iter + 1) as u64;
                if trip > node.max_trip {
                    node.max_trip = trip;
                }
                self.land(target);
            }
            CheckpointKind::BodyEnd => {
                // Walk up to the loop node (inclusive), then step to its
                // parent. A body-end for a loop not on the path is ignored.
                // No iterator changes and the walker lands on a node of its
                // own path, whose stamps are still valid.
                let mut cur = Some(self.current);
                while let Some(nid) = cur {
                    if self.node(nid).loop_id == Some(loop_id) {
                        self.current = self.node(nid).parent.unwrap_or(ROOT);
                        self.exited = nid;
                        return;
                    }
                    cur = self.node(nid).parent;
                }
            }
        }
    }

    fn child_or_create(&mut self, parent: NodeId, loop_id: LoopId) -> NodeId {
        match self.node(parent).child(loop_id) {
            Some(c) => c,
            None => {
                let id = NodeId(self.nodes.len() as u32);
                let depth = self.node(parent).depth + 1;
                self.nodes.push(Node::new(Some(parent), Some(loop_id), depth));
                self.stamps.push(Stamp::default());
                self.nodes[parent.0 as usize].children.push((loop_id, id));
                id
            }
        }
    }

    /// Locates the node a body-begin refers to: the current node itself, a
    /// child of the current node, or (for robustness against malformed
    /// streams) the nearest ancestor satisfying either — otherwise a fresh
    /// child of the current node.
    // Out of line: the checkpoint path is inlined into the VM's sink call,
    // and the back edge above takes most body-begins.
    #[inline(never)]
    fn find_for_body(&mut self, loop_id: LoopId) -> NodeId {
        let mut cur = Some(self.current);
        while let Some(nid) = cur {
            let node = self.node(nid);
            if node.loop_id == Some(loop_id) {
                return nid;
            }
            if let Some(c) = node.child(loop_id) {
                return c;
            }
            cur = node.parent;
        }
        let id = self.child_or_create(self.current, loop_id);
        self.nodes[id.0 as usize].entries += 1;
        id
    }

    /// Distinct static loop ids instantiated anywhere in the tree.
    pub fn distinct_loop_ids(&self) -> Vec<LoopId> {
        let mut ids: Vec<LoopId> = self.nodes.iter().filter_map(|n| n.loop_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Renders the tree as indented text, one line per loop node with its
    /// entry/iteration statistics — a debugging view of Algorithm 2's
    /// output.
    ///
    /// ```text
    /// root
    ///   L0 entries=1 trips<=2 total=2
    ///     L1 entries=2 trips<=3 total=6
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(ROOT, 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let node = self.node(id);
        match node.loop_id {
            None => out.push_str("root"),
            Some(l) => {
                let _ = write!(
                    out,
                    "{l} entries={} trips<={} total={}",
                    node.entries, node.max_trip, node.total_iters
                );
            }
        }
        out.push('\n');
        let mut kids: Vec<(LoopId, NodeId)> = node.children().collect();
        kids.sort_unstable();
        for (_, child) in kids {
            self.render_node(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CheckpointKind::{BodyBegin as BB, BodyEnd as BE, LoopBegin as LB};

    fn feed(tree: &mut LoopTree, events: &[(u32, CheckpointKind)]) {
        for (id, kind) in events {
            tree.on_checkpoint(LoopId(*id), *kind);
        }
    }

    #[test]
    fn figure4_structure() {
        // The checkpoint stream of the paper's Fig 4(c): while loop (id 4 in
        // their numbering; we use 0) with 2 iterations, each entering the
        // for loop (id 1) for 3 iterations.
        let mut tree = LoopTree::new();
        for _ in 0..1 {
            feed(&mut tree, &[(0, LB)]);
            for _ in 0..2 {
                feed(&mut tree, &[(0, BB), (1, LB)]);
                for _ in 0..3 {
                    feed(&mut tree, &[(1, BB), (1, BE)]);
                }
                feed(&mut tree, &[(0, BE)]);
            }
        }
        assert_eq!(tree.len(), 3); // root + while + for
        let while_node = tree.node(ROOT).child(LoopId(0)).unwrap();
        let for_node = tree.node(while_node).child(LoopId(1)).unwrap();
        assert_eq!(tree.node(while_node).entries, 1);
        assert_eq!(tree.node(while_node).max_trip, 2);
        assert_eq!(tree.node(for_node).entries, 2);
        assert_eq!(tree.node(for_node).max_trip, 3);
        assert_eq!(tree.node(for_node).total_iters, 6);
        assert_eq!(tree.node(for_node).depth, 2);
    }

    #[test]
    fn iterators_innermost_first() {
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB), (0, BB), (1, LB), (1, BB), (1, BB)]);
        let cur = tree.current();
        // inner iter = 1 (second body), outer iter = 0.
        assert_eq!(tree.iterators(cur), vec![1, 0]);
        assert_eq!(tree.loop_path(cur), vec![LoopId(1), LoopId(0)]);
    }

    #[test]
    fn iterator_resets_on_reentry() {
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB), (0, BB), (1, LB), (1, BB), (1, BB), (1, BE)]);
        feed(&mut tree, &[(0, BB), (1, LB), (1, BB)]);
        let cur = tree.current();
        assert_eq!(tree.iterators(cur), vec![0, 1]);
    }

    #[test]
    fn same_loop_in_two_contexts_gets_two_nodes() {
        // foo's loop (id 2) runs under loop 0 and loop 1 — two subtrees.
        let mut tree = LoopTree::new();
        feed(
            &mut tree,
            &[
                (0, LB),
                (0, BB),
                (2, LB),
                (2, BB),
                (2, BE),
                (0, BE),
                (1, LB),
                (1, BB),
                (2, LB),
                (2, BB),
                (2, BE),
                (1, BE),
            ],
        );
        assert_eq!(tree.len(), 5); // root, 0, 1, and two instances of 2
        let loop2 = tree.iter().filter(|(_, n)| n.loop_id == Some(LoopId(2))).count();
        assert_eq!(loop2, 2, "loop 2 has a node in each context");
        assert_eq!(tree.distinct_loop_ids(), vec![LoopId(0), LoopId(1), LoopId(2)]);
    }

    #[test]
    fn body_end_pops_from_nested_exit() {
        // Inner loop exits without its own trailing record; outer body-end
        // must pop from the inner node past the outer loop to its parent.
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB), (0, BB), (1, LB), (1, BB), (0, BE)]);
        assert_eq!(tree.node(tree.current()).loop_id, None, "back at the root");
        // Next iteration descends again; a sibling loop then attaches under
        // loop 0, not under loop 1.
        feed(&mut tree, &[(0, BB), (3, LB)]);
        let n3 = tree.current();
        let parent = tree.node(n3).parent.unwrap();
        assert_eq!(tree.node(parent).loop_id, Some(LoopId(0)));
    }

    #[test]
    fn sibling_loops_attach_at_the_same_level() {
        // After a loop fully exits, the next top-level loop must become a
        // sibling, not a child (regression for the body-end → parent rule).
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB), (0, BB), (0, BE), (1, LB), (1, BB), (1, BE)]);
        assert!(tree.node(ROOT).child(LoopId(0)).is_some());
        assert!(tree.node(ROOT).child(LoopId(1)).is_some());
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn reentry_does_not_self_nest() {
        // A loop entered twice in a row re-uses its node (regression: with
        // body-end leaving the walker inside the node, the second entry
        // would nest the loop under itself).
        let mut tree = LoopTree::new();
        for _ in 0..3 {
            feed(&mut tree, &[(0, LB), (0, BB), (0, BE)]);
        }
        assert_eq!(tree.len(), 2);
        let n = tree.node(ROOT).child(LoopId(0)).unwrap();
        assert_eq!(tree.node(n).entries, 3);
    }

    #[test]
    fn back_edge_of_a_self_nested_loop_lands_on_the_outer_node() {
        // After BE0 the walker is on the outer L0 node and `exited` is the
        // inner one, which has loop id 0 and the current node as parent;
        // the current node is itself L0, so the body-begin lands there.
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB), (0, LB), (0, BB), (0, BE)]);
        let outer = tree.node(ROOT).child(LoopId(0)).unwrap();
        let inner = tree.node(outer).child(LoopId(0)).unwrap();
        assert_eq!(tree.current(), outer);
        feed(&mut tree, &[(0, BB)]);
        assert_eq!(tree.current(), outer);
        assert_eq!(tree.node(outer).iter, 0);
        assert_eq!(tree.node(inner).iter, 0, "the inner node ran one body");
        assert_eq!(tree.node(inner).total_iters, 1);
    }

    #[test]
    fn malformed_stream_recovers() {
        let mut tree = LoopTree::new();
        // BodyBegin with no prior LoopBegin anywhere on the path.
        feed(&mut tree, &[(7, BB)]);
        assert_eq!(tree.node(tree.current()).loop_id, Some(LoopId(7)));
        assert_eq!(tree.node(tree.current()).iter, 0);
    }

    #[test]
    fn render_shows_structure_and_stats() {
        let mut tree = LoopTree::new();
        feed(&mut tree, &[(0, LB)]);
        for _ in 0..2 {
            feed(&mut tree, &[(0, BB), (1, LB)]);
            for _ in 0..3 {
                feed(&mut tree, &[(1, BB), (1, BE)]);
            }
            feed(&mut tree, &[(0, BE)]);
        }
        let text = tree.render();
        assert_eq!(
            text,
            "root\n  L0 entries=1 trips<=2 total=2\n    L1 entries=2 trips<=3 total=6\n"
        );
    }

    #[test]
    fn deep_nest_paths() {
        let mut tree = LoopTree::new();
        for l in 0..8u32 {
            feed(&mut tree, &[(l, LB), (l, BB)]);
        }
        let cur = tree.current();
        assert_eq!(tree.node(cur).depth, 8);
        assert_eq!(tree.loop_path(cur).len(), 8);
        assert_eq!(tree.iterators(cur), vec![0; 8]);
        // Unwind completely.
        for l in (0..8u32).rev() {
            feed(&mut tree, &[(l, BE)]);
        }
        assert_eq!(tree.current(), ROOT);
    }

    #[test]
    fn accessors() {
        let mut tree = LoopTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.iterators(ROOT), Vec::<i64>::new());
        feed(&mut tree, &[(0, LB)]);
        assert!(!tree.is_empty());
        assert_eq!(tree.iter().count(), 2);
        // Between loop-begin and the first body-begin the iterator reads -1.
        assert_eq!(tree.iterators(tree.current()), vec![-1]);
        assert_eq!(tree.node(tree.current()).total_iters, 0);
    }
}
