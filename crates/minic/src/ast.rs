//! Abstract syntax tree for mini-C.
//!
//! Two pieces of identity metadata are attached during parsing (and
//! re-canonicalized by [`crate::sema::check`]):
//!
//! * every loop carries a [`LoopId`], which the instrumentation pass
//!   (Step 1 of FORAY-GEN's Algorithm 1) turns into checkpoint ids, and
//! * every expression that can touch memory (array subscript, pointer
//!   dereference, or variable read) carries a [`SiteId`]. The simulator maps
//!   each site to a synthetic *instruction address*, which is what the trace
//!   records and what Algorithm 3 uses to identify a static memory
//!   reference.

use crate::token::Loc;
use std::fmt;

/// Identity of a loop in the program, dense from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identity of a potential memory-access site, dense from zero.
///
/// The simulator derives the synthetic instruction address of the site as
/// `CODE_BASE + 4 * site` (see `minic-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Scalar or pointer type. Arrays are not first-class types; they are
/// declaration shapes (see [`GlobalDecl::array_len`] / [`Stmt::LocalDecl`]),
/// and array names decay to pointers when used, as in C.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer, 4 bytes in memory.
    Int,
    /// 8-bit unsigned character, 1 byte in memory.
    Char,
    /// Pointer to `T`, 4 bytes in memory (32-bit target, as in the paper's
    /// SimpleScalar setup).
    Ptr(Box<Type>),
}

impl Type {
    /// Size in bytes of a value of this type when stored in memory.
    pub fn size(&self) -> u32 {
        match self {
            Type::Int => 4,
            Type::Char => 1,
            Type::Ptr(_) => 4,
        }
    }

    /// Convenience: `int*`.
    pub fn ptr_to(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
        }
    }
}

/// Binary operators, named after their C spelling (see [`BinOp::as_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Short-circuiting logical and.
    And,
    /// Short-circuiting logical or.
    Or,
}

impl BinOp {
    /// C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Whether the operator produces a boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`), yields 0/1.
    Not,
    /// Bitwise complement (`~`).
    BitNot,
}

impl UnOp {
    /// C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Increment/decrement flavor for `++`/`--` expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncDec {
    /// `x++` — evaluates to the old value.
    PostInc,
    /// `x--`.
    PostDec,
    /// `++x` — evaluates to the new value.
    PreInc,
    /// `--x`.
    PreDec,
}

impl IncDec {
    /// +1 or -1.
    pub fn delta(self) -> i64 {
        match self {
            IncDec::PostInc | IncDec::PreInc => 1,
            IncDec::PostDec | IncDec::PreDec => -1,
        }
    }

    /// Whether the expression yields the value before the update.
    pub fn is_post(self) -> bool {
        matches!(self, IncDec::PostInc | IncDec::PostDec)
    }
}

/// Assignment operators (simple and compound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
}

impl AssignOp {
    /// C spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
        }
    }

    /// The arithmetic operator a compound assignment applies, if any.
    pub fn bin_op(self) -> Option<BinOp> {
        match self {
            AssignOp::Set => None,
            AssignOp::Add => Some(BinOp::Add),
            AssignOp::Sub => Some(BinOp::Sub),
            AssignOp::Mul => Some(BinOp::Mul),
            AssignOp::Div => Some(BinOp::Div),
            AssignOp::Rem => Some(BinOp::Rem),
        }
    }
}

/// Expression node. Fields named `site` are memory-access identities
/// ([`SiteId`]); `loc` fields are source locations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Variable reference. The [`SiteId`] is meaningful only when the
    /// variable is a memory-resident scalar (a global); register-allocated
    /// locals produce no memory traffic.
    Var { name: String, site: SiteId, loc: Loc },
    /// `base[index]` — loads/stores through the decayed pointer.
    Index { base: Box<Expr>, index: Box<Expr>, site: SiteId, loc: Loc },
    /// `*ptr`.
    Deref { ptr: Box<Expr>, site: SiteId, loc: Loc },
    /// `&lvalue`.
    AddrOf { lvalue: Box<Expr>, loc: Loc },
    /// Unary operator application.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `++`/`--` applied to an lvalue.
    IncDec { op: IncDec, target: Box<Expr> },
    /// Ternary conditional `c ? t : e`.
    Cond { cond: Box<Expr>, then: Box<Expr>, els: Box<Expr> },
    /// Function (or builtin) call.
    Call { name: String, args: Vec<Expr>, loc: Loc },
}

impl Expr {
    /// Whether the expression is syntactically an lvalue.
    pub fn is_lvalue(&self) -> bool {
        matches!(self, Expr::Var { .. } | Expr::Index { .. } | Expr::Deref { .. })
    }

    /// Source location most representative of the expression, if tracked.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Expr::Var { loc, .. }
            | Expr::Index { loc, .. }
            | Expr::Deref { loc, .. }
            | Expr::AddrOf { loc, .. }
            | Expr::Call { loc, .. } => Some(*loc),
            Expr::Unary { expr, .. } => expr.loc(),
            Expr::Binary { lhs, .. } => lhs.loc(),
            Expr::IncDec { target, .. } => target.loc(),
            Expr::Cond { cond, .. } => cond.loc(),
            Expr::IntLit(_) => None,
        }
    }
}

/// Checkpoint kinds inserted around loops by the instrumentation pass,
/// mirroring the paper's three checkpoint types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckpointKind {
    /// Emitted once each time control enters the loop statement
    /// (before the first condition test). Paper: "beginning-of-the-loop".
    LoopBegin,
    /// Emitted at the start of every body iteration.
    /// Paper: "beginning-of-the-loop-body".
    BodyBegin,
    /// Emitted at the end of every body iteration.
    /// Paper: "end-of-the-loop-body".
    BodyEnd,
}

impl CheckpointKind {
    /// Short code used in trace text dumps.
    pub fn code(self) -> &'static str {
        match self {
            CheckpointKind::LoopBegin => "LB",
            CheckpointKind::BodyBegin => "BB",
            CheckpointKind::BodyEnd => "BE",
        }
    }
}

/// Statement node. Loop variants carry their [`LoopId`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Stmt {
    /// Local variable or local array declaration.
    LocalDecl {
        name: String,
        ty: Type,
        /// `Some(n)` declares `ty name[n]` (stack-resident storage).
        array_len: Option<u32>,
        /// Optional scalar initializer (arrays cannot be initialized inline).
        init: Option<Expr>,
        loc: Loc,
    },
    /// Assignment through an lvalue.
    Assign { target: Expr, op: AssignOp, value: Expr },
    /// Expression evaluated for effect (calls, `x++`, ...).
    Expr(Expr),
    /// Conditional.
    If { cond: Expr, then_blk: Block, else_blk: Option<Block> },
    /// `while (cond) body`.
    While { id: LoopId, cond: Expr, body: Block },
    /// `do body while (cond);`.
    DoWhile { id: LoopId, body: Block, cond: Expr },
    /// `for (init; cond; step) body`. `init`/`step` are restricted to
    /// assignments, declarations, or expression statements.
    For {
        id: LoopId,
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Block,
    },
    /// `return e;` / `return;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Nested block scope.
    Block(Block),
    /// Instrumentation checkpoint (inserted by [`crate::instrument()`];
    /// never produced by the parser from user source).
    Checkpoint { loop_id: LoopId, kind: CheckpointKind },
}

impl Stmt {
    /// Loop id if this statement is a loop.
    pub fn loop_id(&self) -> Option<LoopId> {
        match self {
            Stmt::While { id, .. } | Stmt::DoWhile { id, .. } | Stmt::For { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Block::default()
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<I: IntoIterator<Item = Stmt>>(iter: I) -> Self {
        Block { stmts: iter.into_iter().collect() }
    }
}

/// Function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// Function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name; `main` is the entry point.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type; `None` is `void`.
    pub ret: Option<Type>,
    /// Body.
    pub body: Block,
    /// Definition site.
    pub loc: Loc,
}

/// Global variable or array declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Global name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// `Some(n)` declares an array of `n` elements.
    pub array_len: Option<u32>,
    /// Optional initializer values (scalars take one; arrays up to `n`,
    /// remainder zero-filled).
    pub init: Vec<i64>,
    /// Declaration site.
    pub loc: Loc,
}

impl GlobalDecl {
    /// Total byte size of the global's storage.
    pub fn byte_size(&self) -> u32 {
        self.ty.size() * self.array_len.unwrap_or(1)
    }
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Globals in declaration order (memory is laid out in this order).
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Number of loops in the program (after canonical renumbering, loop
    /// ids are `0..count`).
    pub fn loop_count(&self) -> u32 {
        let mut n = 0;
        self.visit_stmts(&mut |s| {
            if s.loop_id().is_some() {
                n += 1;
            }
        });
        n
    }

    /// Number of memory-access sites (after canonical renumbering, site ids
    /// are `0..count`).
    pub fn site_count(&self) -> u32 {
        let mut n = 0;
        self.visit_exprs(&mut |e| {
            if matches!(e, Expr::Var { .. } | Expr::Index { .. } | Expr::Deref { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Calls `f` on every statement, function by function, in
    /// [`Function::visit_stmts`] order.
    pub fn visit_stmts(&self, f: &mut impl FnMut(&Stmt)) {
        for func in &self.functions {
            func.visit_stmts(f);
        }
    }

    /// Calls `f` on every expression, function by function, in
    /// [`Function::visit_exprs`] order.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for func in &self.functions {
            func.visit_exprs(f);
        }
    }
}

impl Function {
    /// Calls `f` on every statement of the body, in a deterministic
    /// pre-order walk.
    pub fn visit_stmts(&self, f: &mut impl FnMut(&Stmt)) {
        visit_block_stmts(&self.body, f);
    }

    /// Calls `f` on every expression of the body, in a deterministic
    /// pre-order walk.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.visit_stmts(&mut |s| visit_stmt_exprs(s, f));
    }
}

fn visit_block_stmts(block: &Block, f: &mut impl FnMut(&Stmt)) {
    for stmt in &block.stmts {
        visit_stmt(stmt, f);
    }
}

fn visit_stmt(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(stmt);
    match stmt {
        Stmt::If { then_blk, else_blk, .. } => {
            visit_block_stmts(then_blk, f);
            if let Some(e) = else_blk {
                visit_block_stmts(e, f);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => visit_block_stmts(body, f),
        Stmt::For { init, step, body, .. } => {
            if let Some(i) = init {
                visit_stmt(i, f);
            }
            if let Some(s) = step {
                visit_stmt(s, f);
            }
            visit_block_stmts(body, f);
        }
        Stmt::Block(b) => visit_block_stmts(b, f),
        _ => {}
    }
}

fn visit_stmt_exprs(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Stmt::LocalDecl { init: Some(e), .. } => visit_expr(e, f),
        Stmt::Assign { target, value, .. } => {
            visit_expr(target, f);
            visit_expr(value, f);
        }
        Stmt::Expr(e) => visit_expr(e, f),
        Stmt::If { cond, .. } => visit_expr(cond, f),
        Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => visit_expr(cond, f),
        Stmt::For { cond: Some(c), .. } => visit_expr(c, f),
        Stmt::Return(Some(e)) => visit_expr(e, f),
        _ => {}
    }
}

/// Calls `f` on `expr` and every sub-expression, pre-order.
pub fn visit_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Index { base, index, .. } => {
            visit_expr(base, f);
            visit_expr(index, f);
        }
        Expr::Deref { ptr, .. } => visit_expr(ptr, f),
        Expr::AddrOf { lvalue, .. } => visit_expr(lvalue, f),
        Expr::Unary { expr, .. } => visit_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        Expr::IncDec { target, .. } => visit_expr(target, f),
        Expr::Cond { cond, then, els } => {
            visit_expr(cond, f);
            visit_expr(then, f);
            visit_expr(els, f);
        }
        Expr::Call { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        Expr::IntLit(_) | Expr::Var { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes_match_32bit_target() {
        assert_eq!(Type::Int.size(), 4);
        assert_eq!(Type::Char.size(), 1);
        assert_eq!(Type::ptr_to(Type::Char).size(), 4);
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::ptr_to(Type::ptr_to(Type::Char)).to_string(), "char**");
    }

    #[test]
    fn incdec_semantics() {
        assert_eq!(IncDec::PostInc.delta(), 1);
        assert_eq!(IncDec::PreDec.delta(), -1);
        assert!(IncDec::PostDec.is_post());
        assert!(!IncDec::PreInc.is_post());
    }

    #[test]
    fn assign_op_decomposition() {
        assert_eq!(AssignOp::Add.bin_op(), Some(BinOp::Add));
        assert_eq!(AssignOp::Set.bin_op(), None);
    }

    #[test]
    fn lvalue_classification() {
        let loc = Loc::default();
        let var = Expr::Var { name: "x".into(), site: SiteId(0), loc };
        assert!(var.is_lvalue());
        assert!(!Expr::IntLit(1).is_lvalue());
        assert!(Expr::Deref { ptr: Box::new(Expr::IntLit(0)), site: SiteId(1), loc }.is_lvalue());
    }

    #[test]
    fn global_byte_size() {
        let g = GlobalDecl {
            name: "q".into(),
            ty: Type::Char,
            array_len: Some(10000),
            init: vec![],
            loc: Loc::default(),
        };
        assert_eq!(g.byte_size(), 10000);
    }
}
