//! Tree-walking interpreter with trace emission — the functional-simulator
//! substitute for Step 2 of FORAY-GEN's Algorithm 1.
//!
//! Execution model, chosen to mirror what a compiler-plus-SimpleScalar setup
//! produces in the paper:
//!
//! * scalar locals and parameters live in "registers" (no memory traffic);
//! * local arrays live on the descending stack — so a local array in a
//!   function called repeatedly re-materializes at call-dependent addresses
//!   (the first non-affine scenario of the paper's Fig. 7);
//! * every array/pointer access and every global-scalar access emits a trace
//!   record tagged with the site's synthetic instruction address;
//! * builtin ("system library") routines emit traffic from the library
//!   instruction range (Table III's middle column);
//! * calls emit synthetic argument-passing stack traffic (references the
//!   paper notes exist in real traces and are purged by Step 4's
//!   heuristic).

use crate::mem::{Heap, Memory};
use crate::value::Value;
use minic::ast::*;
use minic::builtins::BUILTINS;
use minic_trace::layout;
use minic_trace::{AccessKind, Record, TraceSink};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Stack pointer floor; descending below this is a stack overflow.
pub(crate) const STACK_LIMIT: u32 = 0x7f00_0000;

/// Maximum user call depth; a deeper call is a stack overflow. It is
/// conservative so the tree-walker's own recursion fits in a 2 MiB thread
/// stack (the VM uses an explicit call stack but honors the same limit
/// for trace equality).
pub const MAX_CALL_DEPTH: usize = 128;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Abort after this many executed steps (statements/expressions on the
    /// tree-walker, dispatched ops on the VM, where a fused op counts once
    /// — either way, a guard against non-terminating programs).
    pub max_steps: u64,
    /// Which execution engine to run (default: the compiled VM).
    pub engine: crate::Engine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_steps: 500_000_000, engine: crate::Engine::default() }
    }
}

/// Result of a successful run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// Values passed to `print_int`, in order.
    pub printed: Vec<i64>,
    /// Executed steps — statement/expression evaluations on the
    /// tree-walker, dispatched ops on the VM (a fused op, which stands for
    /// a sequence of unfused ones, counts once). The unit is
    /// engine-specific; every other counter is engine-identical.
    pub steps: u64,
    /// Memory access records emitted.
    pub accesses: u64,
    /// Checkpoint records emitted.
    pub checkpoints: u64,
    /// `malloc` calls performed.
    pub heap_allocations: u64,
}

/// Runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Dereference/index of a non-pointer value.
    DerefNonPointer {
        /// What was found instead.
        found: String,
    },
    /// `&local_scalar` — scalar locals are register-allocated here.
    AddressOfRegister {
        /// Variable name.
        name: String,
    },
    /// Name not bound at runtime (should be prevented by `minic::check`).
    UnknownVariable {
        /// Variable name.
        name: String,
    },
    /// Call of an unknown function (should be prevented by `minic::check`).
    UnknownFunction {
        /// Function name.
        name: String,
    },
    /// Heap exhausted.
    HeapExhausted,
    /// Stack overflow (local arrays or call depth).
    StackOverflow,
    /// Step budget exceeded (probable non-termination).
    StepLimitExceeded,
    /// `main` missing (should be prevented by `minic::check`).
    MissingMain,
    /// Negative or oversized size passed to an allocator/copy builtin.
    BadBuiltinArgument {
        /// Builtin name.
        builtin: &'static str,
        /// Offending value.
        value: i64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::DerefNonPointer { found } => {
                write!(f, "dereference of non-pointer value {found}")
            }
            RuntimeError::AddressOfRegister { name } => {
                write!(f, "cannot take address of register-allocated local `{name}`")
            }
            RuntimeError::UnknownVariable { name } => write!(f, "unknown variable `{name}`"),
            RuntimeError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            RuntimeError::HeapExhausted => write!(f, "heap exhausted"),
            RuntimeError::StackOverflow => write!(f, "stack overflow"),
            RuntimeError::StepLimitExceeded => write!(f, "step limit exceeded"),
            RuntimeError::MissingMain => write!(f, "program has no `main`"),
            RuntimeError::BadBuiltinArgument { builtin, value } => {
                write!(f, "bad argument {value} to builtin `{builtin}`")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

type RunResult<T> = Result<T, RuntimeError>;

/// Control-flow outcome of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A storage slot for a local name. Pointee/element types are interned
/// behind `Rc` so handing out decayed pointers never deep-clones a `Type`.
#[derive(Debug, Clone)]
enum Slot {
    Reg { ty: Type, value: Value },
    Array { elem: Rc<Type>, addr: u32 },
}

/// Global storage resolved at startup.
#[derive(Debug, Clone)]
enum GlobalSlot {
    Scalar { ty: Rc<Type>, addr: u32 },
    Array { elem: Rc<Type>, addr: u32 },
}

struct Frame {
    scopes: Vec<HashMap<String, Slot>>,
    sp_on_entry: u32,
}

/// Where an lvalue lives.
enum Place {
    Reg { name: String },
    Mem { addr: u32, ty: Rc<Type>, site: SiteId },
}

/// The interpreter. Most uses go through [`crate::run`] /
/// [`crate::run_with_sink`]; construct directly for fine-grained control.
pub struct Interp<'p, S: TraceSink> {
    prog: &'p Program,
    config: SimConfig,
    mem: Memory,
    heap: Heap,
    globals: HashMap<String, GlobalSlot>,
    func_idx: HashMap<String, usize>,
    builtin_idx: HashMap<&'static str, usize>,
    frames: Vec<Frame>,
    sp: u32,
    sink: S,
    inputs: Vec<i64>,
    rng_state: u64,
    outcome: SimOutcome,
}

impl<'p, S: TraceSink> Interp<'p, S> {
    /// Prepares an interpreter: lays out globals and applies initializers
    /// (silently, as a loader would — no trace records).
    pub fn new(prog: &'p Program, config: SimConfig, inputs: Vec<i64>, sink: S) -> Self {
        let mut mem = Memory::new();
        let mut globals = HashMap::new();
        let mut next = layout::GLOBAL_BASE;
        for g in &prog.globals {
            let addr = next;
            // Each global is 4-byte aligned.
            next += (g.byte_size() + 3) & !3;
            let ty = Rc::new(g.ty.clone());
            match g.array_len {
                Some(_) => {
                    for (i, v) in g.init.iter().enumerate() {
                        write_typed(&mut mem, addr + i as u32 * g.ty.size(), &g.ty, *v);
                    }
                    globals.insert(g.name.clone(), GlobalSlot::Array { elem: ty, addr });
                }
                None => {
                    if let Some(v) = g.init.first() {
                        write_typed(&mut mem, addr, &g.ty, *v);
                    }
                    globals.insert(g.name.clone(), GlobalSlot::Scalar { ty, addr });
                }
            }
        }
        let func_idx =
            prog.functions.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
        let builtin_idx = BUILTINS.iter().enumerate().map(|(i, b)| (b.name, i)).collect();
        Interp {
            prog,
            config,
            mem,
            heap: Heap::new(),
            globals,
            func_idx,
            builtin_idx,
            frames: Vec::new(),
            sp: layout::STACK_TOP,
            sink,
            inputs,
            rng_state: 0x2545_f491_4f6c_dd1d,
            outcome: SimOutcome::default(),
        }
    }

    /// Runs `main` to completion.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised during execution.
    pub fn run(mut self) -> RunResult<(SimOutcome, S)> {
        let main_idx = *self.func_idx.get("main").ok_or(RuntimeError::MissingMain)?;
        self.call_user(main_idx, Vec::new())?;
        self.sink.finish();
        Ok((self.outcome, self.sink))
    }

    // ---- bookkeeping ---------------------------------------------------

    fn step(&mut self) -> RunResult<()> {
        self.outcome.steps += 1;
        if self.outcome.steps > self.config.max_steps {
            Err(RuntimeError::StepLimitExceeded)
        } else {
            Ok(())
        }
    }

    fn emit_access(&mut self, instr: minic_trace::InstrAddr, addr: u32, kind: AccessKind) {
        self.outcome.accesses += 1;
        self.sink.record(&Record::Access(minic_trace::Access {
            instr,
            addr: minic_trace::MemAddr(addr),
            kind,
        }));
    }

    fn emit_checkpoint(&mut self, loop_id: LoopId, kind: CheckpointKind) {
        self.outcome.checkpoints += 1;
        self.sink.record(&Record::Checkpoint { loop_id, kind });
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    fn lookup_slot(&self, name: &str) -> Option<&Slot> {
        let frame = self.frames.last()?;
        frame.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn lookup_slot_mut(&mut self, name: &str) -> Option<&mut Slot> {
        let frame = self.frames.last_mut()?;
        frame.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    // ---- memory load/store with tracing ---------------------------------

    fn load_mem(&mut self, addr: u32, ty: &Type, site: SiteId) -> Value {
        self.emit_access(layout::user_instr(site.0), addr, AccessKind::Read);
        read_typed(&self.mem, addr, ty)
    }

    fn store_mem(&mut self, addr: u32, ty: &Type, site: SiteId, value: &Value) {
        self.emit_access(layout::user_instr(site.0), addr, AccessKind::Write);
        write_typed(&mut self.mem, addr, ty, value.as_int());
    }

    fn load_place(&mut self, place: &Place) -> RunResult<Value> {
        match place {
            Place::Reg { name } => match self.lookup_slot(name) {
                Some(Slot::Reg { value, .. }) => Ok(value.clone()),
                Some(Slot::Array { elem, addr }) => Ok(Value::ptr(*addr, elem.clone())),
                None => Err(RuntimeError::UnknownVariable { name: name.clone() }),
            },
            Place::Mem { addr, ty, site } => Ok(self.load_mem(*addr, ty, *site)),
        }
    }

    fn store_place(&mut self, place: &Place, value: Value) -> RunResult<()> {
        match place {
            Place::Reg { name } => {
                match self.lookup_slot_mut(name) {
                    Some(Slot::Reg { ty, value: v }) => {
                        *v = value.coerce_to(ty);
                        Ok(())
                    }
                    Some(Slot::Array { .. }) => {
                        // `minic::check` rejects assignments to array names.
                        Err(RuntimeError::UnknownVariable { name: name.clone() })
                    }
                    None => Err(RuntimeError::UnknownVariable { name: name.clone() }),
                }
            }
            Place::Mem { addr, ty, site } => {
                self.store_mem(*addr, ty, *site, &value);
                Ok(())
            }
        }
    }

    // ---- expression evaluation ------------------------------------------

    fn eval_place(&mut self, expr: &Expr) -> RunResult<Place> {
        match expr {
            Expr::Var { name, site, .. } => {
                if self.lookup_slot(name).is_some() {
                    Ok(Place::Reg { name: name.clone() })
                } else {
                    match self.globals.get(name) {
                        Some(GlobalSlot::Scalar { ty, addr }) => {
                            Ok(Place::Mem { addr: *addr, ty: ty.clone(), site: *site })
                        }
                        // Array names are not themselves places; reads decay
                        // (handled in eval), writes are rejected by sema.
                        Some(GlobalSlot::Array { .. }) | None => {
                            Err(RuntimeError::UnknownVariable { name: name.clone() })
                        }
                    }
                }
            }
            Expr::Index { base, index, site, .. } => {
                let base_v = self.eval(base)?;
                let idx = self.eval(index)?.as_int();
                let Value::Ptr { addr, pointee } = base_v else {
                    return Err(RuntimeError::DerefNonPointer { found: base_v.to_string() });
                };
                let addr = addr.wrapping_add((idx.wrapping_mul(pointee.size() as i64)) as u32);
                Ok(Place::Mem { addr, ty: pointee, site: *site })
            }
            Expr::Deref { ptr, site, .. } => {
                let v = self.eval(ptr)?;
                let Value::Ptr { addr, pointee } = v else {
                    return Err(RuntimeError::DerefNonPointer { found: v.to_string() });
                };
                Ok(Place::Mem { addr, ty: pointee, site: *site })
            }
            other => Err(RuntimeError::DerefNonPointer {
                found: format!("non-lvalue expression {other:?}"),
            }),
        }
    }

    fn eval(&mut self, expr: &Expr) -> RunResult<Value> {
        self.step()?;
        match expr {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::Var { name, site, .. } => {
                if let Some(slot) = self.lookup_slot(name) {
                    return Ok(match slot {
                        Slot::Reg { value, .. } => value.clone(),
                        Slot::Array { elem, addr } => Value::ptr(*addr, elem.clone()),
                    });
                }
                match self.globals.get(name) {
                    Some(GlobalSlot::Scalar { ty, addr }) => {
                        let (ty, addr) = (ty.clone(), *addr);
                        Ok(self.load_mem(addr, &ty, *site))
                    }
                    Some(GlobalSlot::Array { elem, addr }) => Ok(Value::ptr(*addr, elem.clone())),
                    None => Err(RuntimeError::UnknownVariable { name: name.clone() }),
                }
            }
            Expr::Index { .. } | Expr::Deref { .. } => {
                let place = self.eval_place(expr)?;
                self.load_place(&place)
            }
            Expr::AddrOf { lvalue, .. } => match lvalue.as_ref() {
                Expr::Var { name, .. } => {
                    if let Some(slot) = self.lookup_slot(name) {
                        match slot {
                            Slot::Array { elem, addr } => Ok(Value::ptr(*addr, elem.clone())),
                            Slot::Reg { .. } => {
                                Err(RuntimeError::AddressOfRegister { name: name.clone() })
                            }
                        }
                    } else {
                        match self.globals.get(name) {
                            Some(GlobalSlot::Scalar { ty, addr }) => {
                                Ok(Value::ptr(*addr, ty.clone()))
                            }
                            Some(GlobalSlot::Array { elem, addr }) => {
                                Ok(Value::ptr(*addr, elem.clone()))
                            }
                            None => Err(RuntimeError::UnknownVariable { name: name.clone() }),
                        }
                    }
                }
                other => {
                    // `&a[i]` / `&*p`: compute the place without accessing it.
                    let place = self.eval_place(other)?;
                    match place {
                        Place::Mem { addr, ty, .. } => Ok(Value::ptr(addr, ty)),
                        Place::Reg { name } => Err(RuntimeError::AddressOfRegister { name }),
                    }
                }
            },
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?.as_int();
                Ok(Value::Int(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                    UnOp::BitNot => !v,
                }))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::IncDec { op, target } => {
                let place = self.eval_place(target)?;
                let old = self.load_place(&place)?;
                let new = offset_value(&old, op.delta());
                self.store_place(&place, new.clone())?;
                Ok(if op.is_post() { old } else { new })
            }
            Expr::Cond { cond, then, els } => {
                if self.eval(cond)?.is_truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Call { name, args, .. } => self.eval_call(name, args),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> RunResult<Value> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                if !l.is_truthy() {
                    return Ok(Value::Int(0));
                }
                let r = self.eval(rhs)?;
                return Ok(Value::Int(r.is_truthy() as i64));
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                if l.is_truthy() {
                    return Ok(Value::Int(1));
                }
                let r = self.eval(rhs)?;
                return Ok(Value::Int(r.is_truthy() as i64));
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        // Pointer arithmetic.
        match (op, &l, &r) {
            (BinOp::Add, Value::Ptr { .. }, Value::Int(n)) => return Ok(offset_value(&l, *n)),
            (BinOp::Add, Value::Int(n), Value::Ptr { .. }) => return Ok(offset_value(&r, *n)),
            (BinOp::Sub, Value::Ptr { .. }, Value::Int(n)) => return Ok(offset_value(&l, -*n)),
            (BinOp::Sub, Value::Ptr { addr: a, pointee }, Value::Ptr { addr: b, .. }) => {
                let diff = (*a as i64 - *b as i64) / pointee.size() as i64;
                return Ok(Value::Int(diff));
            }
            _ => {}
        }
        Ok(Value::Int(int_binop(op, l.as_int(), r.as_int())?))
    }

    fn eval_call(&mut self, name: &str, args: &[Expr]) -> RunResult<Value> {
        if let Some(&bi) = self.builtin_idx.get(name) {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a)?);
            }
            return self.call_builtin(bi, vals);
        }
        let Some(&fi) = self.func_idx.get(name) else {
            return Err(RuntimeError::UnknownFunction { name: name.to_owned() });
        };
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        self.call_user(fi, vals)
    }

    fn call_user(&mut self, func_idx: usize, args: Vec<Value>) -> RunResult<Value> {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(RuntimeError::StackOverflow);
        }
        let func = &self.prog.functions[func_idx];
        let sp_on_entry = self.sp;

        // Model the compiler's argument-passing stack traffic: the caller
        // stores each argument word, the callee loads it back.
        if !args.is_empty() {
            let bytes = 4 * args.len() as u32;
            if self.sp.saturating_sub(bytes) < STACK_LIMIT {
                return Err(RuntimeError::StackOverflow);
            }
            self.sp -= bytes;
            for (i, v) in args.iter().enumerate() {
                let addr = self.sp + 4 * i as u32;
                self.mem.write_u32(addr, v.as_int() as u32);
                self.emit_access(
                    layout::frame_instr(func_idx as u32, i as u32),
                    addr,
                    AccessKind::Write,
                );
            }
            for (i, _) in args.iter().enumerate() {
                let addr = self.sp + 4 * i as u32;
                self.emit_access(
                    layout::frame_instr(func_idx as u32, (args.len() + i) as u32),
                    addr,
                    AccessKind::Read,
                );
            }
        }

        let mut top = HashMap::new();
        for (param, value) in func.params.iter().zip(args) {
            top.insert(
                param.name.clone(),
                Slot::Reg { ty: param.ty.clone(), value: value.coerce_to(&param.ty) },
            );
        }
        self.frames.push(Frame { scopes: vec![top], sp_on_entry });
        let flow = self.exec_block(&func.body)?;
        let frame = self.frames.pop().expect("frame pushed above");
        self.sp = frame.sp_on_entry;
        let ret = match flow {
            Flow::Return(v) => v,
            _ => Value::zero(),
        };
        Ok(match &func.ret {
            Some(ty) => ret.coerce_to(ty),
            None => Value::zero(),
        })
    }

    // ---- statements ------------------------------------------------------

    fn exec_block(&mut self, block: &Block) -> RunResult<Flow> {
        self.frame().scopes.push(HashMap::new());
        let result = self.exec_stmts(&block.stmts);
        self.frame().scopes.pop();
        result
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> RunResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> RunResult<Flow> {
        self.step()?;
        match stmt {
            Stmt::LocalDecl { name, ty, array_len, init, .. } => {
                let slot = match array_len {
                    Some(len) => {
                        let size = (ty.size() * len + 3) & !3;
                        if self.sp.saturating_sub(size) < STACK_LIMIT {
                            return Err(RuntimeError::StackOverflow);
                        }
                        self.sp -= size;
                        Slot::Array { elem: Rc::new(ty.clone()), addr: self.sp }
                    }
                    None => {
                        let value = match init {
                            Some(e) => self.eval(e)?.coerce_to(ty),
                            None => Value::zero().coerce_to(ty),
                        };
                        Slot::Reg { ty: ty.clone(), value }
                    }
                };
                self.frame()
                    .scopes
                    .last_mut()
                    .expect("scope stack non-empty")
                    .insert(name.clone(), slot);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                match op.bin_op() {
                    None => {
                        let v = self.eval(value)?;
                        let place = self.eval_place(target)?;
                        self.store_place(&place, v)?;
                    }
                    Some(bop) => {
                        let place = self.eval_place(target)?;
                        let old = self.load_place(&place)?;
                        let rhs = self.eval(value)?;
                        let new = apply_compound(bop, &old, &rhs)?;
                        self.store_place(&place, new)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_blk, else_blk } => {
                if self.eval(cond)?.is_truthy() {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body, .. } => {
                // The init declaration needs its own scope.
                self.frame().scopes.push(HashMap::new());
                let result = (|| -> RunResult<Flow> {
                    if let Some(i) = init {
                        self.exec_stmt(i)?;
                    }
                    loop {
                        if let Some(c) = cond {
                            if !self.eval(c)?.is_truthy() {
                                break;
                            }
                        }
                        match self.exec_block(body)? {
                            Flow::Normal | Flow::Continue => {}
                            Flow::Break => break,
                            ret @ Flow::Return(_) => return Ok(ret),
                        }
                        if let Some(s) = step {
                            self.exec_stmt(s)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.frame().scopes.pop();
                result
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::zero(),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Checkpoint { loop_id, kind } => {
                self.emit_checkpoint(*loop_id, *kind);
                Ok(Flow::Normal)
            }
        }
    }

    // ---- builtins ---------------------------------------------------------

    /// Runs a builtin through the shared system-library implementation
    /// (`crate::syslib`) — one body for both engines, so library traffic
    /// cannot drift between them.
    fn call_builtin(&mut self, bi: usize, args: Vec<Value>) -> RunResult<Value> {
        let mut a = [0i64; 3];
        for (i, v) in args.iter().take(3).enumerate() {
            a[i] = v.as_int();
        }
        let mut ctx = crate::syslib::LibCtx {
            mem: &mut self.mem,
            heap: &mut self.heap,
            sink: &mut self.sink,
            outcome: &mut self.outcome,
            inputs: &self.inputs,
            rng_state: &mut self.rng_state,
        };
        Ok(match crate::syslib::call_builtin(&mut ctx, bi, a)? {
            crate::syslib::LibValue::Int(v) => Value::Int(v),
            crate::syslib::LibValue::MallocPtr(addr) => Value::ptr(addr, Type::Char),
            crate::syslib::LibValue::Zero => Value::zero(),
        })
    }
}

/// Adds `delta` elements to a pointer, or `delta` to an integer.
fn offset_value(v: &Value, delta: i64) -> Value {
    match v {
        Value::Int(n) => Value::Int(n.wrapping_add(delta)),
        Value::Ptr { addr, pointee } => Value::Ptr {
            addr: addr.wrapping_add(delta.wrapping_mul(pointee.size() as i64) as u32),
            pointee: pointee.clone(),
        },
    }
}

fn apply_compound(op: BinOp, old: &Value, rhs: &Value) -> RunResult<Value> {
    // `ptr += n` / `ptr -= n` preserve pointer-ness with scaling.
    if let Value::Ptr { .. } = old {
        match op {
            BinOp::Add => return Ok(offset_value(old, rhs.as_int())),
            BinOp::Sub => return Ok(offset_value(old, -rhs.as_int())),
            _ => {}
        }
    }
    // `AssignOp::bin_op` only yields the five arithmetic operators.
    Ok(Value::Int(int_binop(op, old.as_int(), rhs.as_int())?))
}

/// The one integer-arithmetic table both engines (and the bytecode
/// lowerer's constant folder) share: wrapping two's-complement arithmetic,
/// C-truncating division with a checked divisor, 63-masked shifts, and 0/1
/// comparisons. Centralized so the engines' byte-identity contract cannot
/// drift through a one-sided edit.
#[inline(always)]
pub(crate) fn int_binop(op: BinOp, a: i64, b: i64) -> RunResult<i64> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::And | BinOp::Or => unreachable!("short-circuit forms never reach int_binop"),
    })
}

fn read_typed(mem: &Memory, addr: u32, ty: &Type) -> Value {
    match ty {
        Type::Int => Value::Int(mem.read_i32(addr)),
        Type::Char => Value::Int(mem.read_u8(addr) as i64),
        Type::Ptr(pointee) => {
            Value::Ptr { addr: mem.read_u32(addr), pointee: Rc::new((**pointee).clone()) }
        }
    }
}

fn write_typed(mem: &mut Memory, addr: u32, ty: &Type, value: i64) {
    match ty {
        Type::Int | Type::Ptr(_) => mem.write_u32(addr, value as u32),
        Type::Char => mem.write_u8(addr, value as u8),
    }
}
