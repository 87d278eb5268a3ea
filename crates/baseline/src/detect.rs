//! The static FORAY-form detector.
//!
//! This is the reproduction's stand-in for "existing static approaches"
//! (\[5\]\[6\]\[7\] in the paper): compile-time analyses that require memory
//! accesses to appear as **array references with affine index expressions
//! inside canonical `for` loops**. Everything else — `while`/`do` loops,
//! pointer walks, accesses whose index hides behind a pointer or a
//! data-dependent variable — is out of reach, which is exactly the gap
//! FORAY-GEN closes. Table II's "% not in FORAY form in the original
//! program" compares this detector against the dynamic extraction.

use crate::affine_ast::{eval_affine, IterEnv};
use minic::{BinOp, Expr, LoopId, Program, SiteId, Stmt};
use std::collections::HashSet;

/// What the static detector could prove.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticAnalysis {
    /// Loops in canonical counted-`for` form with constant bounds.
    pub canonical_loops: HashSet<LoopId>,
    /// Array-access sites with index expressions affine in the enclosing
    /// canonical iterators (and nested only inside canonical loops).
    pub affine_sites: HashSet<SiteId>,
    /// All loops in the program.
    pub total_loops: u32,
    /// All array/pointer access sites in the program (`a[i]`, `*p`).
    pub total_access_sites: u32,
}

impl StaticAnalysis {
    /// Affine sites as simulator instruction addresses, for joining with
    /// trace-derived data.
    pub fn affine_instrs(&self) -> HashSet<minic_trace::InstrAddr> {
        self.affine_sites.iter().map(|s| minic_trace::layout::user_instr(s.0)).collect()
    }
}

/// Runs the detector over a checked program.
///
/// Canonical loop shape (the scope the paper grants static techniques):
///
/// ```text
/// for (iv = c0; iv < c1; iv += c2) body     // also <=, >, >=, ++, --, -=
/// ```
///
/// with integer-constant `c0`, `c1`, non-zero constant `c2`, and `iv` not
/// reassigned inside `body`. An access site qualifies if it is a direct
/// subscript of a *named array* with an affine index over in-scope
/// canonical iterators, and no non-canonical loop intervenes in its nest.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let mut prog = minic::parse(
///     "int a[64]; char *p;
///      void main() {
///          int i;
///          for (i = 0; i < 64; i++) { a[i] = i; }   // static: yes
///          while (i > 0) { i--; *p++ = 0; }          // static: no
///      }")?;
/// minic::check(&mut prog)?;
/// let r = foray_baseline::analyze_program(&prog);
/// assert_eq!(r.canonical_loops.len(), 1);
/// assert_eq!(r.affine_sites.len(), 1);
/// assert_eq!(r.total_loops, 2);
/// # Ok(())
/// # }
/// ```
pub fn analyze_program(prog: &Program) -> StaticAnalysis {
    let mut out = StaticAnalysis::default();
    prog.visit_stmts(&mut |s| {
        if s.loop_id().is_some() {
            out.total_loops += 1;
        }
    });
    prog.visit_exprs(&mut |e| {
        if matches!(e, Expr::Index { .. } | Expr::Deref { .. }) {
            out.total_access_sites += 1;
        }
    });
    let arrays: HashSet<&str> =
        prog.globals.iter().filter(|g| g.array_len.is_some()).map(|g| g.name.as_str()).collect();
    for f in &prog.functions {
        let mut env = IterEnv::new();
        // `all_canonical` tracks whether every enclosing loop is canonical;
        // a site inside a `while` is unreachable for static techniques even
        // if its inner `for` is pristine.
        walk_block(&f.body.stmts, &mut env, true, &arrays, &mut out);
    }
    out
}

fn walk_block(
    stmts: &[Stmt],
    env: &mut IterEnv,
    all_canonical: bool,
    arrays: &HashSet<&str>,
    out: &mut StaticAnalysis,
) {
    for s in stmts {
        walk_stmt(s, env, all_canonical, arrays, out);
    }
}

fn walk_stmt(
    stmt: &Stmt,
    env: &mut IterEnv,
    all_canonical: bool,
    arrays: &HashSet<&str>,
    out: &mut StaticAnalysis,
) {
    match stmt {
        Stmt::For { id, init, cond, step, body } => {
            let canonical = canonical_iterator(init.as_deref(), cond.as_ref(), step.as_deref())
                .filter(|iv| !body_reassigns(body.stmts.as_slice(), iv));
            match canonical {
                Some(iv) => {
                    // Buried under a non-canonical loop, the loop itself
                    // still counts as FORAY-form; its references do not.
                    out.canonical_loops.insert(*id);
                    env.push(&iv);
                    walk_block(&body.stmts, env, all_canonical, arrays, out);
                    env.pop();
                }
                None => {
                    walk_block(&body.stmts, env, false, arrays, out);
                }
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
            walk_block(&body.stmts, env, false, arrays, out);
        }
        Stmt::If { then_blk, else_blk, .. } => {
            // Conditionally-executed accesses are not statically
            // predictable iteration-for-iteration; classical techniques
            // treat the loop body as straight-line code, so we keep
            // scanning but references under `if` stay analyzable only in
            // the techniques' optimistic reading. We choose the
            // conservative reading: they do not qualify.
            walk_block(&then_blk.stmts, env, false, arrays, out);
            if let Some(e) = else_blk {
                walk_block(&e.stmts, env, false, arrays, out);
            }
        }
        Stmt::Block(b) => walk_block(&b.stmts, env, all_canonical, arrays, out),
        Stmt::Assign { target, value, .. } if all_canonical => {
            scan_expr(target, env, arrays, out);
            scan_expr(value, env, arrays, out);
        }
        Stmt::Expr(e) | Stmt::Return(Some(e)) if all_canonical => {
            scan_expr(e, env, arrays, out);
        }
        Stmt::LocalDecl { init: Some(e), .. } if all_canonical => {
            scan_expr(e, env, arrays, out);
        }
        _ => {}
    }
}

/// Records every qualifying array subscript in `e`.
fn scan_expr(e: &Expr, env: &IterEnv, arrays: &HashSet<&str>, out: &mut StaticAnalysis) {
    minic::ast::visit_expr(e, &mut |node| {
        if let Expr::Index { base, index, site, .. } = node {
            let is_named_array = matches!(
                base.as_ref(),
                Expr::Var { name, .. } if arrays.contains(name.as_str())
            );
            if is_named_array && env.depth() > 0 {
                if let Some(form) = eval_affine(index, env) {
                    if form.has_iterator() {
                        out.affine_sites.insert(*site);
                    }
                }
            }
        }
    });
}

/// Extracts the iterator variable if the loop header is canonical.
fn canonical_iterator(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Stmt>,
) -> Option<String> {
    let iv = match init? {
        Stmt::LocalDecl { name, init: Some(Expr::IntLit(_)), array_len: None, .. } => name.clone(),
        Stmt::Assign {
            target: Expr::Var { name, .. },
            op: minic::AssignOp::Set,
            value: Expr::IntLit(_),
        } => name.clone(),
        _ => return None,
    };
    // Condition: iv <op> constant.
    match cond? {
        Expr::Binary { op: BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, lhs, rhs } => {
            let lhs_is_iv = matches!(lhs.as_ref(), Expr::Var { name, .. } if *name == iv);
            let rhs_is_const = matches!(rhs.as_ref(), Expr::IntLit(_));
            if !(lhs_is_iv && rhs_is_const) {
                return None;
            }
        }
        _ => return None,
    }
    // Step: iv++ / iv-- / iv += c / iv -= c / iv = iv + c.
    let step_ok = match step? {
        Stmt::Expr(Expr::IncDec { target, .. }) => {
            matches!(target.as_ref(), Expr::Var { name, .. } if *name == iv)
        }
        Stmt::Assign { target: Expr::Var { name, .. }, op, value } => {
            *name == iv
                && match op {
                    minic::AssignOp::Add | minic::AssignOp::Sub => {
                        matches!(value, Expr::IntLit(c) if *c != 0)
                    }
                    minic::AssignOp::Set => matches!(
                        value,
                        Expr::Binary { op: BinOp::Add | BinOp::Sub, lhs, rhs }
                            if matches!(lhs.as_ref(), Expr::Var { name: n, .. } if *n == iv)
                                && matches!(rhs.as_ref(), Expr::IntLit(c) if *c != 0)
                    ),
                    _ => false,
                }
        }
        _ => false,
    };
    step_ok.then_some(iv)
}

/// Whether the body writes to the iterator (which breaks canonicity).
fn body_reassigns(stmts: &[Stmt], iv: &str) -> bool {
    let mut bad = false;
    for s in stmts {
        walk_for_reassign(s, iv, &mut bad);
    }
    bad
}

fn walk_for_reassign(stmt: &Stmt, iv: &str, bad: &mut bool) {
    let check_expr = |e: &Expr, bad: &mut bool| {
        minic::ast::visit_expr(e, &mut |n| {
            if let Expr::IncDec { target, .. } = n {
                if matches!(target.as_ref(), Expr::Var { name, .. } if name == iv) {
                    *bad = true;
                }
            }
        });
    };
    match stmt {
        Stmt::Assign { target, value, .. } => {
            if matches!(target, Expr::Var { name, .. } if name == iv) {
                *bad = true;
            }
            check_expr(target, bad);
            check_expr(value, bad);
        }
        Stmt::Expr(e) | Stmt::Return(Some(e)) => check_expr(e, bad),
        Stmt::LocalDecl { name, init, .. } => {
            if name == iv {
                // Shadowing declaration: inner uses refer to the new
                // variable; conservatively treat as reassignment.
                *bad = true;
            }
            if let Some(e) = init {
                check_expr(e, bad);
            }
        }
        Stmt::If { cond, then_blk, else_blk } => {
            check_expr(cond, bad);
            for s in &then_blk.stmts {
                walk_for_reassign(s, iv, bad);
            }
            if let Some(e) = else_blk {
                for s in &e.stmts {
                    walk_for_reassign(s, iv, bad);
                }
            }
        }
        Stmt::While { cond, body, .. } | Stmt::DoWhile { cond, body, .. } => {
            check_expr(cond, bad);
            for s in &body.stmts {
                walk_for_reassign(s, iv, bad);
            }
        }
        Stmt::For { init, cond, step, body, .. } => {
            if let Some(s) = init {
                walk_for_reassign(s, iv, bad);
            }
            if let Some(c) = cond {
                check_expr(c, bad);
            }
            if let Some(s) = step {
                walk_for_reassign(s, iv, bad);
            }
            for s in &body.stmts {
                walk_for_reassign(s, iv, bad);
            }
        }
        Stmt::Block(b) => {
            for s in &b.stmts {
                walk_for_reassign(s, iv, bad);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_src(src: &str) -> StaticAnalysis {
        let mut prog = minic::parse(src).unwrap();
        minic::check(&mut prog).unwrap();
        analyze_program(&prog)
    }

    #[test]
    fn canonical_nest_fully_recognized() {
        let r = analyze_src(
            "int a[1024];
             void main() {
               int i; int j;
               for (i = 0; i < 16; i++) {
                 for (j = 0; j < 64; j++) { a[64*i + j] = 0; }
               }
             }",
        );
        assert_eq!(r.canonical_loops.len(), 2);
        assert_eq!(r.affine_sites.len(), 1);
        assert_eq!(r.total_loops, 2);
    }

    #[test]
    fn while_and_pointer_walk_are_invisible() {
        // The paper's Fig 1 flavour.
        let r = analyze_src(
            "char q[1000]; char *p;
             void main() {
               int n; n = 0; p = q;
               while (n < 100) { *p++ = n; n++; }
             }",
        );
        assert!(r.canonical_loops.is_empty());
        assert!(r.affine_sites.is_empty());
        assert_eq!(r.total_loops, 1);
    }

    #[test]
    fn for_inside_while_is_canonical_but_refs_are_not() {
        let r = analyze_src(
            "int a[100];
             void main() {
               int n; int i; n = 0;
               while (n < 2) {
                 for (i = 0; i < 50; i++) { a[i + n] = 0; }
                 n++;
               }
             }",
        );
        assert_eq!(r.canonical_loops.len(), 1);
        // a[i + n]: n is not a canonical iterator anyway, and the nest is
        // tainted by the while.
        assert!(r.affine_sites.is_empty());
    }

    #[test]
    fn declared_iterator_form() {
        let r =
            analyze_src("int a[64]; void main() { for (int i = 0; i < 64; i += 2) { a[i] = 0; } }");
        assert_eq!(r.canonical_loops.len(), 1);
        assert_eq!(r.affine_sites.len(), 1);
    }

    #[test]
    fn iterator_reassignment_breaks_canonicity() {
        let r = analyze_src(
            "int a[64];
             void main() { int i; for (i = 0; i < 64; i++) { a[i] = 0; i = i + 1; } }",
        );
        assert!(r.canonical_loops.is_empty());
        assert!(r.affine_sites.is_empty());
    }

    #[test]
    fn data_dependent_bound_is_not_canonical() {
        let r = analyze_src(
            "int a[64];
             void main() { int i; int n; n = input(0); for (i = 0; i < n; i++) { a[i] = 0; } }",
        );
        assert!(r.canonical_loops.is_empty());
    }

    #[test]
    fn pointer_subscript_is_not_a_named_array() {
        let r = analyze_src(
            "int a[64]; int *p;
             void main() { int i; p = a; for (i = 0; i < 64; i++) { p[i] = 0; } }",
        );
        assert_eq!(r.canonical_loops.len(), 1);
        // p[i] is a pointer subscript: static techniques without points-to
        // analysis cannot bound it.
        assert!(r.affine_sites.is_empty());
    }

    #[test]
    fn conditional_references_are_conservative() {
        let r = analyze_src(
            "int a[64];
             void main() { int i; for (i = 0; i < 64; i++) { if (i % 2) { a[i] = 0; } } }",
        );
        assert_eq!(r.canonical_loops.len(), 1);
        assert!(r.affine_sites.is_empty());
    }

    #[test]
    fn nonunit_and_downward_steps() {
        let r = analyze_src(
            "int a[64]; int b[64];
             void main() {
               int i;
               for (i = 63; i >= 0; i--) { a[i] = 0; }
               for (i = 0; i < 64; i = i + 4) { b[i] = 0; }
             }",
        );
        assert_eq!(r.canonical_loops.len(), 2);
        assert_eq!(r.affine_sites.len(), 2);
    }

    #[test]
    fn constant_index_does_not_count() {
        let r =
            analyze_src("int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[5] = i; } }");
        assert_eq!(r.canonical_loops.len(), 1);
        assert!(r.affine_sites.is_empty(), "constant index has no reuse over iterators");
    }

    #[test]
    fn instr_addr_join() {
        let r =
            analyze_src("int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = 0; } }");
        let instrs = r.affine_instrs();
        assert_eq!(instrs.len(), 1);
        let site = *r.affine_sites.iter().next().unwrap();
        assert!(instrs.contains(&minic_trace::layout::user_instr(site.0)));
    }
}
