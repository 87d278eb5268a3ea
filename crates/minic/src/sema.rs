//! Semantic checking and canonical renumbering.
//!
//! [`check`] validates name resolution, call arity, loop-control placement,
//! and declaration shapes, then renumbers every [`LoopId`] and [`SiteId`]
//! into dense pre-order sequences. Downstream crates (the simulator's
//! instruction-address layout, the instrumentation pass, the FORAY analyzer)
//! rely on that canonical numbering.

use crate::ast::*;
use crate::builtins;
use crate::error::{Diagnostic, Error, Result};
use crate::token::Loc;
use std::collections::{HashMap, HashSet};

/// Summary of a checked program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramInfo {
    /// Number of loops; ids are `0..loops`.
    pub loops: u32,
    /// Number of memory-access sites; ids are `0..sites`.
    pub sites: u32,
    /// Names of user functions, entry (`main`) included.
    pub functions: Vec<String>,
}

/// Checks a program and canonicalizes its loop/site ids.
///
/// # Errors
///
/// Returns [`Error::Sema`] listing every diagnostic found: undeclared or
/// duplicate names, unknown callees or wrong arity, `break`/`continue`
/// outside loops, missing or malformed `main`, oversized global
/// initializers, and value-position calls of `void` functions.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let mut prog = minic::parse("int a[4]; void main() { a[1] = 2; }")?;
/// let info = minic::check(&mut prog)?;
/// assert_eq!(info.loops, 0);
/// # Ok(())
/// # }
/// ```
pub fn check(prog: &mut Program) -> Result<ProgramInfo> {
    renumber(prog);
    let mut checker = Checker::new(prog);
    checker.run(prog);
    if checker.diags.is_empty() {
        Ok(ProgramInfo {
            loops: prog.loop_count(),
            sites: prog.site_count(),
            functions: prog.functions.iter().map(|f| f.name.clone()).collect(),
        })
    } else {
        Err(Error::Sema(checker.diags))
    }
}

/// Renumbers loops and sites in deterministic pre-order; [`check`] runs it
/// first.
pub(crate) fn renumber(prog: &mut Program) {
    let mut next_loop = 0u32;
    let mut next_site = 0u32;
    for func in &mut prog.functions {
        renumber_block(&mut func.body, &mut next_loop, &mut next_site);
    }
}

fn renumber_block(block: &mut Block, nl: &mut u32, ns: &mut u32) {
    for stmt in &mut block.stmts {
        renumber_stmt(stmt, nl, ns);
    }
}

fn renumber_stmt(stmt: &mut Stmt, nl: &mut u32, ns: &mut u32) {
    match stmt {
        Stmt::LocalDecl { init, .. } => {
            if let Some(e) = init {
                renumber_expr(e, ns);
            }
        }
        Stmt::Assign { target, value, .. } => {
            renumber_expr(target, ns);
            renumber_expr(value, ns);
        }
        Stmt::Expr(e) => renumber_expr(e, ns),
        Stmt::If { cond, then_blk, else_blk } => {
            renumber_expr(cond, ns);
            renumber_block(then_blk, nl, ns);
            if let Some(b) = else_blk {
                renumber_block(b, nl, ns);
            }
        }
        Stmt::While { id, cond, body } => {
            *id = LoopId(*nl);
            *nl += 1;
            renumber_expr(cond, ns);
            renumber_block(body, nl, ns);
        }
        Stmt::DoWhile { id, body, cond } => {
            *id = LoopId(*nl);
            *nl += 1;
            renumber_block(body, nl, ns);
            renumber_expr(cond, ns);
        }
        Stmt::For { id, init, cond, step, body } => {
            *id = LoopId(*nl);
            *nl += 1;
            if let Some(s) = init {
                renumber_stmt(s, nl, ns);
            }
            if let Some(c) = cond {
                renumber_expr(c, ns);
            }
            if let Some(s) = step {
                renumber_stmt(s, nl, ns);
            }
            renumber_block(body, nl, ns);
        }
        Stmt::Return(Some(e)) => renumber_expr(e, ns),
        Stmt::Block(b) => renumber_block(b, nl, ns),
        Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Checkpoint { .. } => {}
    }
}

fn renumber_expr(expr: &mut Expr, ns: &mut u32) {
    let mut fresh = |site: &mut SiteId| {
        *site = SiteId(*ns);
        *ns += 1;
    };
    match expr {
        Expr::Var { site, .. } => fresh(site),
        Expr::Index { base, index, site, .. } => {
            fresh(site);
            renumber_expr(base, ns);
            renumber_expr(index, ns);
        }
        Expr::Deref { ptr, site, .. } => {
            fresh(site);
            renumber_expr(ptr, ns);
        }
        Expr::AddrOf { lvalue, .. } => renumber_expr(lvalue, ns),
        Expr::Unary { expr, .. } => renumber_expr(expr, ns),
        Expr::Binary { lhs, rhs, .. } => {
            renumber_expr(lhs, ns);
            renumber_expr(rhs, ns);
        }
        Expr::IncDec { target, .. } => renumber_expr(target, ns),
        Expr::Cond { cond, then, els } => {
            renumber_expr(cond, ns);
            renumber_expr(then, ns);
            renumber_expr(els, ns);
        }
        Expr::Call { args, .. } => {
            for a in args {
                renumber_expr(a, ns);
            }
        }
        Expr::IntLit(_) => {}
    }
}

/// Shape of a declared name within a scope.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Binding {
    Scalar(Type),
    Array(Type, u32),
}

struct FuncSig {
    arity: usize,
    returns_value: bool,
}

struct Checker {
    diags: Vec<Diagnostic>,
    funcs: HashMap<String, FuncSig>,
    globals: HashMap<String, Binding>,
    scopes: Vec<HashMap<String, Binding>>,
    loop_depth: usize,
}

impl Checker {
    fn new(prog: &Program) -> Self {
        let mut funcs = HashMap::new();
        for f in &prog.functions {
            funcs.insert(
                f.name.clone(),
                FuncSig { arity: f.params.len(), returns_value: f.ret.is_some() },
            );
        }
        Checker {
            diags: Vec::new(),
            funcs,
            globals: HashMap::new(),
            scopes: Vec::new(),
            loop_depth: 0,
        }
    }

    fn diag(&mut self, loc: Loc, msg: impl Into<String>) {
        self.diags.push(Diagnostic { loc, msg: msg.into() });
    }

    fn run(&mut self, prog: &Program) {
        self.check_globals(prog);
        self.check_main(prog);
        let mut seen = HashSet::new();
        for f in &prog.functions {
            if !seen.insert(f.name.as_str()) {
                self.diag(f.loc, format!("duplicate function `{}`", f.name));
            }
            if builtins::is_builtin(&f.name) {
                self.diag(f.loc, format!("`{}` shadows a builtin", f.name));
            }
            self.check_function(f);
        }
    }

    fn check_globals(&mut self, prog: &Program) {
        for g in &prog.globals {
            if self.globals.contains_key(&g.name) {
                self.diag(g.loc, format!("duplicate global `{}`", g.name));
                continue;
            }
            if self.funcs.contains_key(&g.name) {
                self.diag(g.loc, format!("global `{}` collides with a function", g.name));
            }
            match g.array_len {
                Some(0) => self.diag(g.loc, format!("array `{}` has zero length", g.name)),
                Some(n) => {
                    if g.init.len() > n as usize {
                        self.diag(
                            g.loc,
                            format!(
                                "array `{}` initializer has {} values for {} elements",
                                g.name,
                                g.init.len(),
                                n
                            ),
                        );
                    }
                    self.globals.insert(g.name.clone(), Binding::Array(g.ty.clone(), n));
                }
                None => {
                    if g.init.len() > 1 {
                        self.diag(g.loc, format!("scalar `{}` has multiple initializers", g.name));
                    }
                    self.globals.insert(g.name.clone(), Binding::Scalar(g.ty.clone()));
                }
            }
        }
    }

    fn check_main(&mut self, prog: &Program) {
        match prog.function("main") {
            None => self.diag(Loc::default(), "program has no `main` function"),
            Some(m) if !m.params.is_empty() => {
                self.diag(m.loc, "`main` must take no parameters");
            }
            Some(_) => {}
        }
    }

    fn check_function(&mut self, func: &Function) {
        self.scopes.clear();
        self.loop_depth = 0;
        let mut top = HashMap::new();
        for p in &func.params {
            if top.insert(p.name.clone(), Binding::Scalar(p.ty.clone())).is_some() {
                self.diag(func.loc, format!("duplicate parameter `{}`", p.name));
            }
        }
        self.scopes.push(top);
        self.check_block(&func.body);
        self.scopes.pop();
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b);
            }
        }
        self.globals.get(name)
    }

    fn declare(&mut self, loc: Loc, name: &str, binding: Binding) {
        let scope = self.scopes.last_mut().expect("scope stack non-empty");
        if scope.insert(name.to_owned(), binding).is_some() {
            self.diag(loc, format!("duplicate declaration of `{name}` in this scope"));
        }
    }

    fn check_block(&mut self, block: &Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.check_stmt(stmt);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::LocalDecl { name, ty, array_len, init, loc } => {
                if let Some(e) = init {
                    self.check_expr(e, true);
                }
                match array_len {
                    Some(0) => self.diag(*loc, format!("array `{name}` has zero length")),
                    Some(n) => self.declare(*loc, name, Binding::Array(ty.clone(), *n)),
                    None => self.declare(*loc, name, Binding::Scalar(ty.clone())),
                }
            }
            Stmt::Assign { target, value, .. } => {
                self.check_assign_target(target);
                self.check_expr(target, true);
                self.check_expr(value, true);
            }
            Stmt::Expr(e) => self.check_expr(e, false),
            Stmt::If { cond, then_blk, else_blk } => {
                self.check_expr(cond, true);
                self.check_block(then_blk);
                if let Some(b) = else_blk {
                    self.check_block(b);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.check_expr(cond, true);
                self.loop_depth += 1;
                self.check_block(body);
                self.loop_depth -= 1;
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.loop_depth += 1;
                self.check_block(body);
                self.loop_depth -= 1;
                self.check_expr(cond, true);
            }
            Stmt::For { init, cond, step, body, .. } => {
                // The init declaration scopes over cond/step/body.
                self.scopes.push(HashMap::new());
                if let Some(s) = init {
                    self.check_stmt(s);
                }
                if let Some(c) = cond {
                    self.check_expr(c, true);
                }
                if let Some(s) = step {
                    self.check_stmt(s);
                }
                self.loop_depth += 1;
                self.check_block(body);
                self.loop_depth -= 1;
                self.scopes.pop();
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.check_expr(e, true);
                }
            }
            Stmt::Break | Stmt::Continue => {
                if self.loop_depth == 0 {
                    self.diag(Loc::default(), "`break`/`continue` outside of a loop");
                }
            }
            Stmt::Block(b) => self.check_block(b),
            Stmt::Checkpoint { .. } => {}
        }
    }

    fn check_assign_target(&mut self, target: &Expr) {
        if let Expr::Var { name, loc, .. } = target {
            if let Some(Binding::Array(..)) = self.lookup(name) {
                self.diag(*loc, format!("cannot assign to array name `{name}`"));
            }
        }
    }

    fn check_expr(&mut self, expr: &Expr, value_position: bool) {
        match expr {
            Expr::IntLit(_) => {}
            Expr::Var { name, loc, .. } => {
                if self.lookup(name).is_none() {
                    self.diag(*loc, format!("undeclared variable `{name}`"));
                }
            }
            Expr::Index { base, index, .. } => {
                self.check_expr(base, true);
                self.check_expr(index, true);
            }
            Expr::Deref { ptr, .. } => self.check_expr(ptr, true),
            Expr::AddrOf { lvalue, .. } => self.check_expr(lvalue, true),
            Expr::Unary { expr, .. } => self.check_expr(expr, true),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, true);
                self.check_expr(rhs, true);
            }
            Expr::IncDec { target, .. } => {
                self.check_assign_target(target);
                self.check_expr(target, true);
            }
            Expr::Cond { cond, then, els } => {
                self.check_expr(cond, true);
                self.check_expr(then, true);
                self.check_expr(els, true);
            }
            Expr::Call { name, args, loc } => {
                for a in args {
                    self.check_expr(a, true);
                }
                let (arity, returns_value) = if let Some(b) = builtins::builtin(name) {
                    (b.arity, b.returns_value)
                } else if let Some(sig) = self.funcs.get(name) {
                    (sig.arity, sig.returns_value)
                } else {
                    self.diag(*loc, format!("call to undefined function `{name}`"));
                    return;
                };
                if args.len() != arity {
                    self.diag(
                        *loc,
                        format!("`{name}` expects {arity} argument(s), got {}", args.len()),
                    );
                }
                if value_position && !returns_value {
                    self.diag(*loc, format!("void function `{name}` used in an expression"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn check_src(src: &str) -> Result<ProgramInfo> {
        let mut prog = parse(src).unwrap();
        check(&mut prog)
    }

    fn errors(src: &str) -> Vec<String> {
        match check_src(src) {
            Ok(_) => vec![],
            Err(Error::Sema(diags)) => diags.into_iter().map(|d| d.msg).collect(),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }

    #[test]
    fn accepts_figure4() {
        let info = check_src(
            "char q[10000]; char *ptr;
             void main() { int i; int t1 = 98; ptr = q;
               while (t1 < 100) { t1++; ptr += 100;
                 for (i = 40; i > 37; i--) { *ptr++ = i*i % 256; } } }",
        )
        .unwrap();
        assert_eq!(info.loops, 2);
        assert_eq!(info.functions, vec!["main"]);
    }

    #[test]
    fn rejects_undeclared() {
        let errs = errors("void main() { x = 1; }");
        assert!(errs.iter().any(|e| e.contains("undeclared variable `x`")));
    }

    #[test]
    fn rejects_missing_main() {
        let errs = errors("int f() { return 0; }");
        assert!(errs.iter().any(|e| e.contains("no `main`")));
    }

    #[test]
    fn rejects_bad_arity() {
        let errs = errors("int f(int a) { return a; } void main() { f(1, 2); }");
        assert!(errs.iter().any(|e| e.contains("expects 1 argument")));
    }

    #[test]
    fn rejects_undefined_call() {
        let errs = errors("void main() { g(); }");
        assert!(errs.iter().any(|e| e.contains("undefined function `g`")));
    }

    #[test]
    fn builtins_resolve() {
        assert!(check_src("void main() { int x; x = abs(-3) + max(1, 2); srand(7); }").is_ok());
    }

    #[test]
    fn rejects_void_in_expression() {
        let errs = errors("char b[8]; void main() { int x; x = memset(b, 0, 8); }");
        assert!(errs.iter().any(|e| e.contains("void function `memset`")));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let errs = errors("void main() { break; }");
        assert!(errs.iter().any(|e| e.contains("outside of a loop")));
    }

    #[test]
    fn rejects_array_assignment() {
        let errs = errors("int a[4]; void main() { a = 0; }");
        assert!(errs.iter().any(|e| e.contains("cannot assign to array name")));
    }

    #[test]
    fn rejects_duplicate_global_and_local() {
        let errs = errors("int g; int g; void main() { int x; int x; }");
        assert!(errs.iter().any(|e| e.contains("duplicate global `g`")));
        assert!(errs.iter().any(|e| e.contains("duplicate declaration of `x`")));
    }

    #[test]
    fn block_scoping_allows_shadowing() {
        assert!(check_src("void main() { int x; { int x; x = 1; } x = 2; }").is_ok());
    }

    #[test]
    fn for_init_scopes_over_body() {
        assert!(check_src("void main() { for (int i = 0; i < 3; i++) { int y; y = i; } }").is_ok());
        let errs = errors("void main() { for (int i = 0; i < 3; i++) {} i = 1; }");
        assert!(errs.iter().any(|e| e.contains("undeclared variable `i`")));
    }

    #[test]
    fn renumbering_is_dense_preorder() {
        let mut prog = parse(
            "void f() { while (1) { } }
             void main() { for (;;) {} do {} while (0); f(); }",
        )
        .unwrap();
        check(&mut prog).unwrap();
        let mut ids = Vec::new();
        prog.visit_stmts(&mut |s| {
            if let Some(id) = s.loop_id() {
                ids.push(id.0);
            }
        });
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_zero_length_arrays() {
        let errs = errors("int a[0]; void main() { int b[0]; }");
        assert_eq!(errs.iter().filter(|e| e.contains("zero length")).count(), 2);
    }

    #[test]
    fn rejects_oversized_initializer() {
        let errs = errors("int a[2] = {1,2,3}; void main() {}");
        assert!(errs.iter().any(|e| e.contains("initializer has 3 values")));
    }

    #[test]
    fn rejects_main_with_params() {
        let errs = errors("void main(int argc) {}");
        assert!(errs.iter().any(|e| e.contains("`main` must take no parameters")));
    }

    #[test]
    fn rejects_builtin_shadowing() {
        let errs = errors("int rand() { return 4; } void main() {}");
        assert!(errs.iter().any(|e| e.contains("shadows a builtin")));
    }
}
