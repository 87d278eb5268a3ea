//! AST → bytecode lowering (one pass over the checked program).
//!
//! Resolution happens **here, once**, instead of per-access at runtime:
//!
//! * every local/parameter name becomes a dense frame-slot index (scalars
//!   hold their value in the slot; local arrays hold the decayed pointer
//!   produced by their `AllocArray`);
//! * every global resolves to an absolute address in the
//!   [`minic_trace::layout::GLOBAL_BASE`] segment, laid out in declaration
//!   order exactly like the tree-walker's loader;
//! * every type is interned into the program's [`TypeTable`];
//! * every call resolves to a function index (builtins first, mirroring
//!   the oracle's lookup order).
//!
//! Evaluation *order* is preserved instruction by instruction — simple
//! assignment evaluates the value before the place, compound assignment
//! reads the place before the right-hand side, call arguments go left to
//! right — because trace byte-identity with the oracle depends on side
//! effects (access records) happening in the same sequence.

use crate::bytecode::{CompiledFunction, CompiledProgram, Op, Push, TyKind, TypeId, TypeTable};
use crate::interp::RuntimeError;
use minic::ast::*;
use minic_trace::layout;
use std::collections::HashMap;

/// Compiles a (checked, optionally instrumented) program to bytecode.
///
/// Lowering itself cannot fail: constructs the tree-walking oracle only
/// rejects at runtime (unknown names, `&scalar_local`, non-lvalue places)
/// become [`Op::Trap`] instructions that raise the identical
/// [`RuntimeError`] if and when they execute.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let prog = minic::frontend("int a[4]; void main() { a[0] = 1; }")?;
/// let compiled = minic_sim::compile(&prog);
/// assert!(compiled.op_count() > 0);
/// # Ok(())
/// # }
/// ```
pub fn compile(prog: &Program) -> CompiledProgram {
    let mut lw = Lowerer::new(prog);
    lw.layout_globals();
    for (i, func) in prog.functions.iter().enumerate() {
        lw.lower_function(i, func);
    }
    let main = lw.func_idx.get("main").map(|&i| i as u32);
    let char_ty = lw.types.intern(&Type::Char);
    CompiledProgram {
        ops: lw.ops,
        functions: lw.functions,
        main,
        types: lw.types,
        traps: lw.traps,
        global_image: lw.global_image,
        char_ty,
    }
}

/// Where a name points, from the current lowering position.
enum VarRef {
    /// Local/parameter frame slot.
    Slot(u32, SlotInfo),
    /// Memory-resident global scalar.
    GlobalScalar { addr: u32, ty: TypeId },
    /// Global array (decays to a pointer; not itself an lvalue).
    GlobalArray { addr: u32, elem: TypeId },
    /// Not bound — the oracle raises `UnknownVariable` when executed.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    ty: TypeId,
    is_array: bool,
}

enum GlobalRef {
    Scalar { addr: u32, ty: TypeId },
    Array { addr: u32, elem: TypeId },
}

/// Break/continue patch lists for the innermost lowered loop.
#[derive(Default)]
struct LoopCtx {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
}

struct Lowerer<'p> {
    types: TypeTable,
    globals: HashMap<&'p str, GlobalRef>,
    global_image: Vec<(u32, TypeId, i64)>,
    func_idx: HashMap<&'p str, usize>,
    builtin_idx: HashMap<&'static str, usize>,
    ops: Vec<Op>,
    traps: Vec<RuntimeError>,
    functions: Vec<CompiledFunction>,
    prog: &'p Program,
    // Per-function state.
    scopes: Vec<HashMap<&'p str, u32>>,
    slots: Vec<SlotInfo>,
    loops: Vec<LoopCtx>,
    /// Peephole fence: the highest op index any jump label points at.
    /// Fusion never rewrites ops after a label, so every recorded jump
    /// target keeps its meaning.
    barrier: usize,
}

impl<'p> Lowerer<'p> {
    fn new(prog: &'p Program) -> Self {
        let func_idx =
            prog.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
        let builtin_idx =
            minic::builtins::BUILTINS.iter().enumerate().map(|(i, b)| (b.name, i)).collect();
        Lowerer {
            types: TypeTable::new(),
            globals: HashMap::new(),
            global_image: Vec::new(),
            func_idx,
            builtin_idx,
            ops: Vec::new(),
            traps: Vec::new(),
            functions: Vec::new(),
            prog,
            scopes: Vec::new(),
            slots: Vec::new(),
            loops: Vec::new(),
            barrier: 0,
        }
    }

    /// Lays out globals at [`layout::GLOBAL_BASE`] in declaration order —
    /// bit-for-bit the tree-walker's loader, including 4-byte alignment —
    /// and records the initializer image.
    fn layout_globals(&mut self) {
        let mut next = layout::GLOBAL_BASE;
        for g in &self.prog.globals {
            let addr = next;
            next += (g.byte_size() + 3) & !3;
            let ty = self.types.intern(&g.ty);
            match g.array_len {
                Some(_) => {
                    for (i, v) in g.init.iter().enumerate() {
                        self.global_image.push((addr + i as u32 * g.ty.size(), ty, *v));
                    }
                    self.globals.insert(&g.name, GlobalRef::Array { addr, elem: ty });
                }
                None => {
                    if let Some(v) = g.init.first() {
                        self.global_image.push((addr, ty, *v));
                    }
                    self.globals.insert(&g.name, GlobalRef::Scalar { addr, ty });
                }
            }
        }
    }

    // ---- emission helpers -----------------------------------------------

    /// Emits `op`, fused with the ops before it where [`Self::fusion`]
    /// finds a shape.
    fn emit(&mut self, op: Op) {
        match self.fusion(op) {
            Some((k, fused)) => {
                self.ops.truncate(self.ops.len() - k);
                self.ops.push(fused);
            }
            None => self.ops.push(op),
        }
    }

    /// Emits a placeholder jump, returning the index [`Self::patch`] takes:
    /// that of the op now holding the jump, fused or not.
    fn emit_jump(&mut self, op: Op) -> usize {
        self.emit(op);
        self.ops.len() - 1
    }

    fn emit_trap(&mut self, err: RuntimeError) {
        let idx = self.traps.len() as u32;
        self.traps.push(err);
        self.emit(Op::Trap(idx));
    }

    /// Returns the current position as a jump label, fencing it off from
    /// fusion (see [`Self::tail`]).
    fn here(&mut self) -> u32 {
        self.barrier = self.ops.len();
        self.ops.len() as u32
    }

    /// The fence rule: the last `k` emitted ops, when no jump label points
    /// inside them. A label may name the first of them, since the fused op
    /// takes its place and does what the sequence did from there; a label
    /// at any later one, or where the next op goes, keeps them apart.
    fn tail(&self, k: usize) -> Option<&[Op]> {
        let n = self.ops.len();
        (k <= n && self.barrier <= n - k).then(|| &self.ops[n - k..])
    }

    /// The peephole: when emitting `op` completes a hot sequence whose
    /// earlier ops pass [`Self::tail`], returns how many of those ops to
    /// replace and the single op that replaces them and `op` (see the
    /// fused ops in [`Op`]). Literal arithmetic folds here too.
    fn fusion(&self, op: Op) -> Option<(usize, Op)> {
        Some(match op {
            Op::Binary(op) => {
                match self.tail(2) {
                    Some(&[Op::PushInt(a), Op::PushInt(b)]) => {
                        if let Some(v) = const_fold(op, a, b) {
                            return Some((2, Op::PushInt(v)));
                        }
                    }
                    Some(&[Op::LoadSlot(slot), Op::PushInt(imm)]) => {
                        return Some((2, Op::SlotBinaryImm { op, slot, imm }));
                    }
                    Some(&[Op::LoadSlot(lhs), Op::LoadSlot(rhs)]) => {
                        return Some((2, Op::SlotBinarySlot { op, lhs, rhs }));
                    }
                    Some(&[Op::PushInt(imm), Op::LoadSlot(slot)]) => {
                        return Some((2, Op::ImmBinarySlot { op, imm, slot }));
                    }
                    _ => {}
                }
                match *self.tail(1)? {
                    [Op::PushInt(imm)] => (1, Op::BinaryImm { op, imm }),
                    [Op::LoadSlot(slot)] => (1, Op::BinarySlot { op, slot }),
                    _ => return None,
                }
            }
            Op::JumpIfFalse(target) => match *self.tail(1)? {
                [Op::SlotBinaryImm { op, slot, imm }] if op.is_comparison() => {
                    (1, Op::BranchSlotImm { op, slot, imm: i32::try_from(imm).ok()?, target })
                }
                [Op::BinaryImm { op, imm }] if op.is_comparison() => {
                    (1, Op::BranchImm { op, imm: i32::try_from(imm).ok()?, target })
                }
                [Op::BinarySlot { op, slot }] if op.is_comparison() => {
                    (1, Op::BranchSlot { op, slot, target })
                }
                _ => return None,
            },
            Op::LoadThru { site } => match (self.tail(2), self.tail(1)?) {
                (Some(&[Op::LoadSlot(slot), Op::IndexGlobal { addr, pointee }]), _) => {
                    let slot = u16::try_from(slot).ok()?;
                    (2, Op::LoadGlobalIndexedSlot { addr, pointee, site, slot })
                }
                (_, &[Op::IndexPtr]) => (1, Op::LoadIndexed { site }),
                (_, &[Op::IndexGlobal { addr, pointee }]) => {
                    (1, Op::LoadGlobalIndexed { addr, pointee, site })
                }
                _ => return None,
            },
            Op::StoreThru { site } => match (self.tail(3), self.tail(2)?) {
                (Some(&[Op::LoadSlot(slot), Op::IndexGlobal { addr, pointee }, Op::Swap]), _) => {
                    let slot = u16::try_from(slot).ok()?;
                    (3, Op::StoreGlobalIndexedSlot { addr, pointee, site, slot })
                }
                (_, &[Op::IndexGlobal { addr, pointee }, Op::Swap]) => {
                    (2, Op::StoreGlobalIndexed { addr, pointee, site })
                }
                _ => return None,
            },
            Op::StoreSlot { slot, ty } => match self.tail(1)? {
                &[Op::Compound(op)] => (1, Op::CompoundSlot { op, slot, ty }),
                _ => return None,
            },
            Op::Pop => {
                let &[mut last] = self.tail(1)? else { return None };
                match &mut last {
                    Op::IncDecSlot { push, .. }
                    | Op::IncDecGlobal { push, .. }
                    | Op::IncDecThru { push, .. }
                        if *push != Push::Nothing =>
                    {
                        *push = Push::Nothing;
                    }
                    _ => return None,
                }
                (1, last)
            }
            _ => return None,
        })
    }

    /// The `for` back edge to `cond`, fused into an [`Op::ForLatch`] with
    /// the body's closing checkpoint and the step before it when the loop
    /// has that shape. Only `Stmt::For` asks: a `break` or `continue` jump
    /// is emitted before its target is known.
    fn latch(&self, cond: u32) -> Option<Op> {
        let &[Op::Checkpoint { loop_id, kind: CheckpointKind::BodyEnd }, step] = self.tail(2)?
        else {
            return None;
        };
        let Op::IncDecSlot { slot, ty, delta, push: Push::Nothing } = step else { return None };
        let at = cond as usize;
        let &[Op::BranchSlotImm { op, slot: tested, imm, .. }, begin] = self.ops.get(at..at + 2)?
        else {
            return None;
        };
        let body_begin = Op::Checkpoint { loop_id, kind: CheckpointKind::BodyBegin };
        if begin != body_begin || tested != slot || self.types.kind(ty) != TyKind::Int {
            return None;
        }
        Some(Op::ForLatch {
            loop_id: u16::try_from(loop_id).ok()?,
            slot: u16::try_from(slot).ok()?,
            delta,
            op,
            imm,
            target: cond + 2,
        })
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfTrue(t)
            | Op::BranchImm { target: t, .. }
            | Op::BranchSlot { target: t, .. }
            | Op::BranchSlotImm { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    // ---- name resolution ------------------------------------------------

    fn resolve(&self, name: &str) -> VarRef {
        for scope in self.scopes.iter().rev() {
            if let Some(&slot) = scope.get(name) {
                return VarRef::Slot(slot, self.slots[slot as usize]);
            }
        }
        match self.globals.get(name) {
            Some(GlobalRef::Scalar { addr, ty }) => VarRef::GlobalScalar { addr: *addr, ty: *ty },
            Some(GlobalRef::Array { addr, elem }) => {
                VarRef::GlobalArray { addr: *addr, elem: *elem }
            }
            None => VarRef::Unknown,
        }
    }

    fn new_slot(&mut self, info: SlotInfo) -> u32 {
        self.slots.push(info);
        (self.slots.len() - 1) as u32
    }

    fn bind(&mut self, name: &'p str, slot: u32) {
        self.scopes.last_mut().expect("scope stack non-empty").insert(name, slot);
    }

    // ---- functions ------------------------------------------------------

    fn lower_function(&mut self, _idx: usize, func: &'p Function) {
        let entry = self.here();
        self.scopes.clear();
        self.slots.clear();
        self.loops.clear();
        let mut top = HashMap::new();
        let mut params = Vec::with_capacity(func.params.len());
        for p in &func.params {
            let ty = self.types.intern(&p.ty);
            let slot = self.new_slot(SlotInfo { ty, is_array: false });
            top.insert(p.name.as_str(), slot);
            params.push(ty);
        }
        self.scopes.push(top);
        self.lower_block(&func.body);
        // Falling off the end returns zero (coerced by `Ret`).
        self.emit(Op::PushInt(0));
        self.emit(Op::Ret);
        self.scopes.pop();
        let ret = func.ret.as_ref().map(|t| self.types.intern(t));
        self.functions.push(CompiledFunction {
            name: func.name.clone(),
            entry,
            nslots: self.slots.len() as u32,
            params,
            ret,
        });
    }

    fn lower_block(&mut self, block: &'p Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.lower_stmt(stmt);
        }
        self.scopes.pop();
    }

    // ---- statements -----------------------------------------------------

    fn lower_stmt(&mut self, stmt: &'p Stmt) {
        match stmt {
            Stmt::LocalDecl { name, ty, array_len, init, .. } => match array_len {
                Some(len) => {
                    let size = (ty.size() * len + 3) & !3;
                    let elem = self.types.intern(ty);
                    let slot = self.new_slot(SlotInfo { ty: elem, is_array: true });
                    self.emit(Op::AllocArray { slot, elem, size });
                    self.bind(name, slot);
                }
                None => {
                    match init {
                        Some(e) => self.lower_expr(e),
                        None => self.emit(Op::PushInt(0)),
                    }
                    let tyid = self.types.intern(ty);
                    let slot = self.new_slot(SlotInfo { ty: tyid, is_array: false });
                    self.emit(Op::StoreSlot { slot, ty: tyid });
                    // Bound only after the initializer: `int x = x;` reads
                    // the outer binding, exactly like the tree-walker.
                    self.bind(name, slot);
                }
            },
            Stmt::Assign { target, op, value } => self.lower_assign(target, *op, value),
            Stmt::Expr(e) => {
                self.lower_expr(e);
                self.emit(Op::Pop);
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.lower_expr(cond);
                let jf = self.emit_jump(Op::JumpIfFalse(0));
                self.lower_block(then_blk);
                match else_blk {
                    Some(els) => {
                        let jend = self.emit_jump(Op::Jump(0));
                        let here = self.here();
                        self.patch(jf, here);
                        self.lower_block(els);
                        let here = self.here();
                        self.patch(jend, here);
                    }
                    None => {
                        let here = self.here();
                        self.patch(jf, here);
                    }
                }
            }
            Stmt::While { cond, body, .. } => {
                let cond_label = self.here();
                self.lower_expr(cond);
                let jf = self.emit_jump(Op::JumpIfFalse(0));
                self.loops.push(LoopCtx::default());
                self.lower_block(body);
                self.emit(Op::Jump(cond_label));
                let end = self.here();
                self.patch(jf, end);
                let ctx = self.loops.pop().expect("loop ctx");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch(j, cond_label);
                }
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_label = self.here();
                self.loops.push(LoopCtx::default());
                self.lower_block(body);
                let ctx = self.loops.pop().expect("loop ctx");
                let cond_label = self.here();
                self.lower_expr(cond);
                self.emit(Op::JumpIfTrue(body_label));
                let end = self.here();
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch(j, cond_label);
                }
            }
            Stmt::For { init, cond, step, body, .. } => {
                // The init declaration scopes over cond/step/body.
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let cond_label = self.here();
                let jf = cond.as_ref().map(|c| {
                    self.lower_expr(c);
                    self.emit_jump(Op::JumpIfFalse(0))
                });
                self.loops.push(LoopCtx::default());
                self.lower_block(body);
                let ctx = self.loops.pop().expect("loop ctx");
                // C semantics: continue runs the step. Only then is the
                // step a label, which keeps `BodyEnd` out of the latch.
                if !ctx.continue_jumps.is_empty() {
                    let step_label = self.here();
                    for &j in &ctx.continue_jumps {
                        self.patch(j, step_label);
                    }
                }
                if let Some(s) = step {
                    self.lower_stmt(s);
                }
                match self.latch(cond_label) {
                    Some(latch) => {
                        self.ops.truncate(self.ops.len() - 2);
                        self.ops.push(latch);
                    }
                    None => self.emit(Op::Jump(cond_label)),
                }
                let end = self.here();
                if let Some(j) = jf {
                    self.patch(j, end);
                }
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                self.scopes.pop();
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.lower_expr(e),
                    None => self.emit(Op::PushInt(0)),
                }
                self.emit(Op::Ret);
            }
            Stmt::Break => match self.loops.last_mut() {
                Some(_) => {
                    let j = self.emit_jump(Op::Jump(0));
                    self.loops.last_mut().expect("loop ctx").break_jumps.push(j);
                }
                None => {
                    // The oracle unwinds a stray break/continue to the end
                    // of the function, which returns zero.
                    self.emit(Op::PushInt(0));
                    self.emit(Op::Ret);
                }
            },
            Stmt::Continue => match self.loops.last_mut() {
                Some(_) => {
                    let j = self.emit_jump(Op::Jump(0));
                    self.loops.last_mut().expect("loop ctx").continue_jumps.push(j);
                }
                None => {
                    self.emit(Op::PushInt(0));
                    self.emit(Op::Ret);
                }
            },
            Stmt::Block(b) => self.lower_block(b),
            Stmt::Checkpoint { loop_id, kind } => {
                self.emit(Op::Checkpoint { loop_id: loop_id.0, kind: *kind });
            }
        }
    }

    fn lower_assign(&mut self, target: &'p Expr, op: AssignOp, value: &'p Expr) {
        match op.bin_op() {
            // Simple assignment: the oracle evaluates the value first,
            // then resolves the place.
            None => match target {
                Expr::Var { name, site, .. } => {
                    self.lower_expr(value);
                    match self.resolve(name) {
                        VarRef::Slot(slot, info) if !info.is_array => {
                            self.emit(Op::StoreSlot { slot, ty: info.ty });
                        }
                        VarRef::GlobalScalar { addr, ty } => {
                            self.emit(Op::StoreGlobal { addr, ty, site: site.0 });
                        }
                        // Array names and unknowns: `minic::check` rejects
                        // these; the oracle raises UnknownVariable after
                        // evaluating the value.
                        VarRef::Slot(..) | VarRef::GlobalArray { .. } | VarRef::Unknown => {
                            self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                        }
                    }
                }
                Expr::Index { .. } | Expr::Deref { .. } => {
                    self.lower_expr(value);
                    if let Some(site) = self.lower_place_ptr(target) {
                        self.emit(Op::Swap);
                        self.emit(Op::StoreThru { site });
                    }
                }
                other => {
                    self.lower_expr(value);
                    self.emit_trap(non_lvalue(other));
                }
            },
            // Compound assignment: place first, then load, then the
            // right-hand side.
            Some(bop) => match target {
                Expr::Var { name, site, .. } => match self.resolve(name) {
                    VarRef::Slot(slot, info) if !info.is_array => {
                        self.emit(Op::LoadSlot(slot));
                        self.lower_expr(value);
                        self.emit(Op::Compound(bop));
                        self.emit(Op::StoreSlot { slot, ty: info.ty });
                    }
                    VarRef::Slot(slot, _) => {
                        // `arr += n`: the oracle loads the decayed pointer,
                        // evaluates the rhs, and only then fails the store.
                        self.emit(Op::LoadSlot(slot));
                        self.lower_expr(value);
                        self.emit(Op::Compound(bop));
                        self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                    }
                    VarRef::GlobalScalar { addr, ty } => {
                        self.emit(Op::LoadGlobal { addr, ty, site: site.0 });
                        self.lower_expr(value);
                        self.emit(Op::Compound(bop));
                        self.emit(Op::StoreGlobal { addr, ty, site: site.0 });
                    }
                    VarRef::GlobalArray { .. } | VarRef::Unknown => {
                        self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                    }
                },
                Expr::Index { .. } | Expr::Deref { .. } => {
                    if let Some(site) = self.lower_place_ptr(target) {
                        self.emit(Op::Dup);
                        self.emit(Op::LoadThru { site });
                        self.lower_expr(value);
                        self.emit(Op::Compound(bop));
                        self.emit(Op::StoreThru { site });
                    }
                }
                other => self.emit_trap(non_lvalue(other)),
            },
        }
    }

    /// Lowers the address computation of a memory place (`a[i]`, `*p`),
    /// leaving a typed pointer on the stack. Returns the access site, or
    /// `None` if the expression was not a memory lvalue (a trap was
    /// emitted).
    fn lower_place_ptr(&mut self, e: &'p Expr) -> Option<u32> {
        match e {
            Expr::Index { base, index, site, .. } => {
                self.lower_index(base, index);
                Some(site.0)
            }
            Expr::Deref { ptr, site, .. } => {
                self.lower_expr(ptr);
                Some(site.0)
            }
            other => {
                self.emit_trap(non_lvalue(other));
                None
            }
        }
    }

    /// Lowers `base[index]`'s element pointer. A global array's base rides
    /// in the op after the index ([`Op::IndexGlobal`]) instead of a
    /// `PushPtr` before it.
    fn lower_index(&mut self, base: &'p Expr, index: &'p Expr) {
        let global = match base {
            Expr::Var { name, .. } => match self.resolve(name) {
                VarRef::GlobalArray { addr, elem } => Some((addr, elem)),
                _ => None,
            },
            _ => None,
        };
        match global {
            Some((addr, pointee)) => {
                self.lower_expr(index);
                self.emit(Op::IndexGlobal { addr, pointee });
            }
            None => {
                self.lower_expr(base);
                self.lower_expr(index);
                self.emit(Op::IndexPtr);
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    fn lower_expr(&mut self, e: &'p Expr) {
        match e {
            Expr::IntLit(v) => self.emit(Op::PushInt(*v)),
            Expr::Var { name, site, .. } => match self.resolve(name) {
                // Scalars hold their value, arrays their decayed pointer —
                // both are a plain slot read.
                VarRef::Slot(slot, _) => self.emit(Op::LoadSlot(slot)),
                VarRef::GlobalScalar { addr, ty } => {
                    self.emit(Op::LoadGlobal { addr, ty, site: site.0 });
                }
                VarRef::GlobalArray { addr, elem } => {
                    self.emit(Op::PushPtr { addr, pointee: elem });
                }
                VarRef::Unknown => {
                    self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                }
            },
            Expr::Index { .. } | Expr::Deref { .. } => {
                if let Some(site) = self.lower_place_ptr(e) {
                    self.emit(Op::LoadThru { site });
                }
            }
            Expr::AddrOf { lvalue, .. } => self.lower_addr_of(lvalue),
            Expr::Unary { op, expr } => {
                self.lower_expr(expr);
                self.emit(Op::Unary(*op));
            }
            Expr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            Expr::IncDec { op, target } => self.lower_incdec(*op, target),
            Expr::Cond { cond, then, els } => {
                self.lower_expr(cond);
                let jf = self.emit_jump(Op::JumpIfFalse(0));
                self.lower_expr(then);
                let jend = self.emit_jump(Op::Jump(0));
                let here = self.here();
                self.patch(jf, here);
                self.lower_expr(els);
                let here = self.here();
                self.patch(jend, here);
            }
            Expr::Call { name, args, .. } => {
                if let Some(&bi) = self.builtin_idx.get(name.as_str()) {
                    for a in args {
                        self.lower_expr(a);
                    }
                    self.emit(Op::CallBuiltin { builtin: bi as u32, nargs: args.len() as u32 });
                } else if let Some(&fi) = self.func_idx.get(name.as_str()) {
                    for a in args {
                        self.lower_expr(a);
                    }
                    self.emit(Op::Call { func: fi as u32, nargs: args.len() as u32 });
                } else {
                    // The oracle fails the lookup before evaluating any
                    // argument.
                    self.emit_trap(RuntimeError::UnknownFunction { name: name.clone() });
                }
            }
        }
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &'p Expr, rhs: &'p Expr) {
        match op {
            BinOp::And => {
                self.lower_expr(lhs);
                let jf = self.emit_jump(Op::JumpIfFalse(0));
                self.lower_expr(rhs);
                self.emit(Op::Truthy);
                let jend = self.emit_jump(Op::Jump(0));
                let here = self.here();
                self.patch(jf, here);
                self.emit(Op::PushInt(0));
                let here = self.here();
                self.patch(jend, here);
            }
            BinOp::Or => {
                self.lower_expr(lhs);
                let jt = self.emit_jump(Op::JumpIfTrue(0));
                self.lower_expr(rhs);
                self.emit(Op::Truthy);
                let jend = self.emit_jump(Op::Jump(0));
                let here = self.here();
                self.patch(jt, here);
                self.emit(Op::PushInt(1));
                let here = self.here();
                self.patch(jend, here);
            }
            _ => {
                self.lower_expr(lhs);
                self.lower_expr(rhs);
                self.emit(Op::Binary(op));
            }
        }
    }

    fn lower_incdec(&mut self, op: IncDec, target: &'p Expr) {
        let delta = op.delta() as i8;
        let push = if op.is_post() { Push::Old } else { Push::New };
        match target {
            Expr::Var { name, site, .. } => match self.resolve(name) {
                VarRef::Slot(slot, info) if !info.is_array => {
                    self.emit(Op::IncDecSlot { slot, ty: info.ty, delta, push });
                }
                VarRef::Slot(..) => {
                    // `arr++`: load and offset succeed, the store fails.
                    self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                }
                VarRef::GlobalScalar { addr, ty } => {
                    self.emit(Op::IncDecGlobal { addr, ty, site: site.0, delta, push });
                }
                VarRef::GlobalArray { .. } | VarRef::Unknown => {
                    self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                }
            },
            Expr::Index { .. } | Expr::Deref { .. } => {
                if let Some(site) = self.lower_place_ptr(target) {
                    self.emit(Op::IncDecThru { site, delta, push });
                }
            }
            other => self.emit_trap(non_lvalue(other)),
        }
    }

    fn lower_addr_of(&mut self, lvalue: &'p Expr) {
        match lvalue {
            Expr::Var { name, .. } => match self.resolve(name) {
                VarRef::Slot(slot, info) if info.is_array => self.emit(Op::LoadSlot(slot)),
                VarRef::Slot(..) => {
                    self.emit_trap(RuntimeError::AddressOfRegister { name: name.clone() });
                }
                VarRef::GlobalScalar { addr, ty } => {
                    self.emit(Op::PushPtr { addr, pointee: ty });
                }
                VarRef::GlobalArray { addr, elem } => {
                    self.emit(Op::PushPtr { addr, pointee: elem });
                }
                VarRef::Unknown => {
                    self.emit_trap(RuntimeError::UnknownVariable { name: name.clone() });
                }
            },
            // `&a[i]` / `&*p`: compute the place without accessing it.
            Expr::Index { base, index, .. } => self.lower_index(base, index),
            Expr::Deref { ptr, .. } => {
                self.lower_expr(ptr);
                self.emit(Op::CheckPtr);
            }
            other => self.emit_trap(non_lvalue(other)),
        }
    }
}

/// The oracle's `eval_place` error for non-lvalue expressions, byte for
/// byte (it embeds the AST node's `Debug` form).
fn non_lvalue(e: &Expr) -> RuntimeError {
    RuntimeError::DerefNonPointer { found: format!("non-lvalue expression {e:?}") }
}

/// Folds `a op b` over integer literals via the engines' shared
/// [`int_binop`] table. Division by a zero literal is *not* folded — it
/// must keep raising its runtime error at the original point — and the
/// short-circuit forms never reach the folder (they lower to jumps).
fn const_fold(op: BinOp, a: i64, b: i64) -> Option<i64> {
    if matches!(op, BinOp::And | BinOp::Or) {
        return None;
    }
    crate::interp::int_binop(op, a, b).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> CompiledProgram {
        let prog = minic::frontend(src).expect("valid program");
        compile(&prog)
    }

    #[test]
    fn figure4_compiles_to_a_reasonable_program() {
        let c = compile_src(
            "char q[10000]; char *ptr;
             void main() { int i; int t1 = 98; ptr = q;
               while (t1 < 100) { t1++; ptr += 100;
                 for (i = 40; i > 37; i--) { *ptr++ = i*i % 256; } } }",
        );
        assert_eq!(c.functions.len(), 1);
        assert_eq!(c.main, Some(0));
        assert!(c.traps.is_empty());
        // i, t1 as slots; q/ptr are globals.
        assert_eq!(c.functions[0].nslots, 2);
        assert!(c.ops.iter().any(|op| matches!(op, Op::Checkpoint { .. })));
        assert!(c.ops.iter().any(|op| matches!(op, Op::IncDecGlobal { .. })));
        // The disassembly renders without panicking.
        assert!(c.to_string().contains("main:"));
    }

    #[test]
    fn unknown_names_lower_to_traps_not_failures() {
        let mut prog = minic::parse("void main() { }").unwrap();
        // Synthesize an unchecked call to an unknown function.
        prog.functions[0].body.stmts.push(Stmt::Expr(Expr::Call {
            name: "nope".into(),
            args: vec![],
            loc: Default::default(),
        }));
        let c = compile(&prog);
        assert_eq!(c.traps, vec![RuntimeError::UnknownFunction { name: "nope".into() }]);
    }

    /// The ops of `main`, whose body is `body`, after `decls`.
    fn main_ops(decls: &str, body: &str) -> Vec<Op> {
        let c = compile_src(&format!("{decls} void main() {{ {body} }}"));
        c.ops[c.functions[c.main.expect("main") as usize].entry as usize..].to_vec()
    }

    #[test]
    fn copy_loop_lowers_to_the_fused_forms() {
        let ops = main_ops("int a[16]; int b[16];", "int i; for (i = 0; i < 16; i++) a[i] = b[i];");
        let shape: Vec<Op> =
            ops.iter().copied().filter(|op| !matches!(op, Op::Checkpoint { .. })).collect();
        let names: Vec<String> = shape
            .iter()
            .map(|op| format!("{op:?}").split([' ', '(']).next().unwrap_or_default().to_owned())
            .collect();
        #[rustfmt::skip]
        assert_eq!(names, [
            "PushInt", "StoreSlot",          // int i;
            "PushInt", "StoreSlot",          // i = 0
            "BranchSlotImm",                 // i < 16
            "LoadGlobalIndexedSlot",         // b[i]
            "StoreGlobalIndexedSlot",        // a[i] =
            "ForLatch",                      // i++ and the back edge
            "PushInt", "Ret",                // fall off the end
        ]);
        let Op::BranchSlotImm { op: BinOp::Lt, slot: 0, imm: 16, target: exit } = shape[4] else {
            panic!("{ops:#?}")
        };
        let (a, b) = (layout::GLOBAL_BASE, layout::GLOBAL_BASE + 64);
        assert!(matches!(shape[5], Op::LoadGlobalIndexedSlot { addr, slot: 0, .. } if addr == b));
        assert!(matches!(shape[6], Op::StoreGlobalIndexedSlot { addr, slot: 0, .. } if addr == a));
        let Op::ForLatch { loop_id: 0, slot: 0, delta: 1, op: BinOp::Lt, imm: 16, target } =
            shape[7]
        else {
            panic!("{ops:#?}")
        };
        // `main` starts at op 0 of `ops`: the latch lands on the body's
        // first op, past the condition and `BodyBegin`; the latch took the
        // body's `BodyEnd`; and the exit is the implicit `return 0`.
        let body = target as usize;
        assert_eq!(ops[body - 2], shape[4]);
        assert_eq!(ops[body - 1], Op::Checkpoint { loop_id: 0, kind: CheckpointKind::BodyBegin });
        assert_eq!(ops[body], shape[5]);
        let end = |op: &Op| matches!(op, Op::Checkpoint { kind: CheckpointKind::BodyEnd, .. });
        assert!(!ops.iter().any(end), "{ops:#?}");
        assert_eq!(ops[exit as usize..], [Op::PushInt(0), Op::Ret]);
    }

    #[test]
    fn a_label_inside_a_window_blocks_fusion() {
        let vars = "int c; int i; int j; int s;";
        let count = |ops: &[Op], f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
        // The `?:`'s end label lands on the indexed load: `LoadSlot(j)` stays apart.
        let ops = main_ops("int a[4];", &format!("{vars} s = a[c ? i : j];"));
        let load = |op: &Op| matches!(op, Op::LoadGlobalIndexed { .. });
        assert_eq!(count(&ops, load), 1, "{ops:#?}");
        let slot_load = |op: &Op| matches!(op, Op::LoadGlobalIndexedSlot { .. });
        assert_eq!(count(&ops, slot_load), 0, "{ops:#?}");
        // Its end label lands on the compare: only `BinaryImm; JumpIfFalse` fuse.
        let ops = main_ops("", &format!("{vars} if ((c ? i : j) < 5) {{ s = 1; }}"));
        assert_eq!(count(&ops, |op| matches!(op, Op::BranchImm { .. })), 1, "{ops:#?}");
        assert_eq!(count(&ops, |op| matches!(op, Op::BranchSlotImm { .. })), 0, "{ops:#?}");
        // ... and on the `LoadSlot`: the literal stays out of `ImmBinarySlot`.
        let ops = main_ops("", &format!("{vars} s = (c ? 5 : 7) * i;"));
        assert_eq!(count(&ops, |op| matches!(op, Op::BinarySlot { .. })), 1, "{ops:#?}");
        assert_eq!(count(&ops, |op| matches!(op, Op::ImmBinarySlot { .. })), 0, "{ops:#?}");
        // A jump lands on the statement's `Pop`, which must stay.
        let ops = main_ops("", &format!("{vars} c ? i++ : j++;"));
        assert_eq!(count(&ops, |op| matches!(op, Op::Pop)), 1, "{ops:#?}");
        let post = |op: &Op| matches!(op, Op::IncDecSlot { push: Push::Old, .. });
        assert_eq!(count(&ops, post), 2, "{ops:#?}");
        // A `continue` jumps to the step: `BodyEnd` stays out of the latch,
        // and the step and back edge stay as they are.
        let ops = main_ops(
            "",
            &format!("{vars} for (i = 0; i < 4; i++) {{ if (c) {{ continue; }} s++; }}"),
        );
        assert_eq!(count(&ops, |op| matches!(op, Op::ForLatch { .. })), 0, "{ops:#?}");
        let back_edge = |w: &[Op]| {
            matches!(
                w,
                [
                    Op::Checkpoint { kind: CheckpointKind::BodyEnd, .. },
                    Op::IncDecSlot { push: Push::Nothing, .. },
                    Op::Jump(_)
                ]
            )
        };
        assert!(ops.windows(3).any(back_edge), "{ops:#?}");
    }

    #[test]
    fn an_op_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn global_image_matches_declaration_order() {
        let c = compile_src("int g = 7; int t[4] = { 10, 20 }; void main() { }");
        let values: Vec<i64> = c.global_image.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(values, vec![7, 10, 20]);
        // t starts 4-byte aligned after g.
        assert_eq!(c.global_image[1].0, layout::GLOBAL_BASE + 4);
    }
}
