//! The compiled execution engine: a slot-resolved bytecode VM.
//!
//! Executes a [`CompiledProgram`] with
//!
//! * frame slots in one contiguous `Vec<VmValue>` (no per-scope `HashMap`,
//!   no string hashing, no per-block allocation),
//! * `Copy` values whose pointee types are dense [`TypeId`]s (no `Type`
//!   clones anywhere on the hot path),
//! * an explicit call stack (deep mini-C recursion no longer consumes the
//!   host's stack),
//!
//! while emitting trace records and checkpoints **byte-identical** to the
//! tree-walking oracle [`crate::Interp`] — same access order, same
//! addresses, same synthetic instruction addresses, same runtime errors.
//! The equivalence is locked by `tests/vm_equiv.rs` (every workload at
//! scale 1 and 2, plus property tests over random inputs).

use crate::bytecode::{CompiledProgram, Op, Push, TyKind, TypeId, VmValue};
use crate::interp::{int_binop, RuntimeError, SimConfig, SimOutcome, MAX_CALL_DEPTH, STACK_LIMIT};
use crate::mem::{Heap, Memory};
use minic::ast::{BinOp, CheckpointKind, LoopId, UnOp};
use minic_trace::layout;
use minic_trace::{AccessKind, Record, TraceSink};

type RunResult<T> = Result<T, RuntimeError>;

/// One entry of the VM's explicit call stack.
#[derive(Debug, Clone, Copy)]
struct FrameRec {
    func: u32,
    ret_pc: u32,
    slot_base: u32,
    sp_on_entry: u32,
}

/// The bytecode VM. Most uses go through [`crate::run`] /
/// [`crate::run_with_sink`] with [`crate::Engine::Vm`]; construct directly
/// (over a [`crate::compile`]d program) to amortize compilation across
/// runs.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = minic::frontend("int g; void main() { g = 1; }")?;
/// let compiled = minic_sim::compile(&prog);
/// let vm = minic_sim::Vm::new(
///     &compiled, minic_sim::SimConfig::default(), Vec::new(), minic_trace::VecSink::new());
/// let (outcome, sink) = vm.run()?;
/// assert_eq!(outcome.accesses, 1);
/// assert_eq!(sink.records.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Vm<'c, S: TraceSink> {
    code: &'c CompiledProgram,
    config: SimConfig,
    mem: Memory,
    heap: Heap,
    stack: Vec<VmValue>,
    slots: Vec<VmValue>,
    frames: Vec<FrameRec>,
    /// Slot base of the active frame (cached from `frames.last()`).
    cur_base: usize,
    sp: u32,
    sink: S,
    inputs: Vec<i64>,
    rng_state: u64,
    outcome: SimOutcome,
}

impl<'c, S: TraceSink> Vm<'c, S> {
    /// Prepares a VM: lays out global initializers (silently, as a loader
    /// would — no trace records).
    pub fn new(code: &'c CompiledProgram, config: SimConfig, inputs: Vec<i64>, sink: S) -> Self {
        let mut mem = Memory::new();
        for &(addr, ty, value) in &code.global_image {
            write_typed(&mut mem, addr, code.types.kind(ty), value);
        }
        Vm {
            code,
            config,
            mem,
            heap: Heap::new(),
            stack: Vec::with_capacity(64),
            slots: Vec::with_capacity(256),
            frames: Vec::with_capacity(16),
            cur_base: 0,
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
    /// Any [`RuntimeError`] raised during execution. Errors (including
    /// their messages) match the tree-walking oracle's for the same
    /// program and inputs.
    pub fn run(mut self) -> RunResult<(SimOutcome, S)> {
        // The step counter lives in a run-local so the hot loop's
        // bookkeeping stays in registers; it is flushed into the outcome
        // on every exit path.
        let mut steps: u64 = 0;
        let result = self.exec(&mut steps);
        self.outcome.steps = steps;
        result?;
        self.sink.finish();
        Ok((self.outcome, self.sink))
    }

    fn exec(&mut self, steps: &mut u64) -> RunResult<()> {
        let main = self.code.main.ok_or(RuntimeError::MissingMain)? as usize;
        let mut pc = self.call(main, 0, u32::MAX)?;
        let max_steps = self.config.max_steps;
        loop {
            // The VM's step unit is one dispatched op, fused or not (the
            // oracle counts statement/expression evaluations); the budget
            // guards non-termination either way.
            *steps += 1;
            if *steps > max_steps {
                return Err(RuntimeError::StepLimitExceeded);
            }
            let op = self.code.ops[pc];
            pc += 1;
            match op {
                Op::PushInt(v) => self.stack.push(VmValue::Int(v)),
                Op::Pop => {
                    self.pop();
                }
                Op::Dup => {
                    let top = *self.stack.last().expect("stack underflow");
                    self.stack.push(top);
                }
                Op::Swap => {
                    let n = self.stack.len();
                    self.stack.swap(n - 1, n - 2);
                }
                Op::LoadSlot(slot) => {
                    let v = self.slot(slot);
                    self.stack.push(v);
                }
                Op::StoreSlot { slot, ty } => {
                    let v = self.pop();
                    self.set_slot(slot, ty, v);
                }
                Op::IncDecSlot { slot, ty, delta, push } => {
                    let old = self.slot(slot);
                    let new = self.offset(old, delta as i64);
                    self.set_slot(slot, ty, new);
                    self.leave(push, old, new);
                }
                Op::LoadGlobal { addr, ty, site } => {
                    self.emit_access(layout::user_instr(site), addr, AccessKind::Read);
                    let v = self.read_typed(addr, ty);
                    self.stack.push(v);
                }
                Op::StoreGlobal { addr, ty, site } => {
                    let v = self.pop();
                    self.emit_access(layout::user_instr(site), addr, AccessKind::Write);
                    write_typed(&mut self.mem, addr, self.code.types.kind(ty), v.as_int());
                }
                Op::IncDecGlobal { addr, ty, site, delta, push } => {
                    self.emit_access(layout::user_instr(site), addr, AccessKind::Read);
                    let old = self.read_typed(addr, ty);
                    let new = self.offset(old, delta as i64);
                    self.emit_access(layout::user_instr(site), addr, AccessKind::Write);
                    write_typed(&mut self.mem, addr, self.code.types.kind(ty), new.as_int());
                    self.leave(push, old, new);
                }
                Op::PushPtr { addr, pointee } => self.stack.push(VmValue::Ptr { addr, pointee }),
                Op::AllocArray { slot, elem, size } => {
                    if self.sp.saturating_sub(size) < STACK_LIMIT {
                        return Err(RuntimeError::StackOverflow);
                    }
                    self.sp -= size;
                    self.slots[self.cur_base + slot as usize] =
                        VmValue::Ptr { addr: self.sp, pointee: elem };
                }
                Op::IndexPtr => {
                    let idx = self.pop().as_int();
                    let base = self.pop();
                    let p = self.index(base, idx)?;
                    self.stack.push(p);
                }
                Op::IndexGlobal { addr, pointee } => {
                    let idx = self.pop().as_int();
                    self.stack
                        .push(VmValue::Ptr { addr: self.element(addr, pointee, idx), pointee });
                }
                Op::LoadThru { site } => {
                    let p = self.pop();
                    let v = self.load(site, p)?;
                    self.stack.push(v);
                }
                Op::LoadIndexed { site } => {
                    let idx = self.pop().as_int();
                    let base = self.pop();
                    let v = self.load(site, self.index(base, idx)?)?;
                    self.stack.push(v);
                }
                Op::StoreThru { site } => {
                    let v = self.pop();
                    let p = self.pop();
                    self.store(site, p, v)?;
                }
                Op::LoadGlobalIndexed { addr, pointee, site } => {
                    let idx = self.pop().as_int();
                    let v = self.load_at(site, self.element(addr, pointee, idx), pointee);
                    self.stack.push(v);
                }
                Op::LoadGlobalIndexedSlot { addr, pointee, site, slot } => {
                    let idx = self.slot(slot.into()).as_int();
                    let v = self.load_at(site, self.element(addr, pointee, idx), pointee);
                    self.stack.push(v);
                }
                Op::StoreGlobalIndexed { addr, pointee, site } => {
                    let idx = self.pop().as_int();
                    let v = self.pop();
                    self.store_at(site, self.element(addr, pointee, idx), pointee, v);
                }
                Op::StoreGlobalIndexedSlot { addr, pointee, site, slot } => {
                    let idx = self.slot(slot.into()).as_int();
                    let v = self.pop();
                    self.store_at(site, self.element(addr, pointee, idx), pointee, v);
                }
                Op::IncDecThru { site, delta, push } => {
                    let p = self.pop();
                    let old = self.load(site, p)?;
                    let new = self.offset(old, delta as i64);
                    self.store(site, p, new)?;
                    self.leave(push, old, new);
                }
                Op::CheckPtr => {
                    let p = *self.stack.last().expect("stack underflow");
                    if !matches!(p, VmValue::Ptr { .. }) {
                        return Err(self.deref_non_pointer(p));
                    }
                }
                Op::Unary(op) => {
                    let v = self.pop().as_int();
                    self.stack.push(VmValue::Int(match op {
                        UnOp::Neg => v.wrapping_neg(),
                        UnOp::Not => (v == 0) as i64,
                        UnOp::BitNot => !v,
                    }));
                }
                Op::Binary(op) => {
                    let r = self.pop();
                    let l = self.pop();
                    let v = self.binary(op, l, r)?;
                    self.stack.push(v);
                }
                Op::BinaryImm { op, imm } => {
                    let l = self.pop();
                    let v = self.binary(op, l, VmValue::Int(imm))?;
                    self.stack.push(v);
                }
                Op::BinarySlot { op, slot } => {
                    let r = self.slot(slot);
                    let l = self.pop();
                    let v = self.binary(op, l, r)?;
                    self.stack.push(v);
                }
                Op::SlotBinaryImm { op, slot, imm } => {
                    let v = self.binary(op, self.slot(slot), VmValue::Int(imm))?;
                    self.stack.push(v);
                }
                Op::SlotBinarySlot { op, lhs, rhs } => {
                    let v = self.binary(op, self.slot(lhs), self.slot(rhs))?;
                    self.stack.push(v);
                }
                Op::ImmBinarySlot { op, imm, slot } => {
                    let v = self.binary(op, VmValue::Int(imm), self.slot(slot))?;
                    self.stack.push(v);
                }
                Op::BranchImm { op, imm, target } => {
                    let l = self.pop();
                    if !self.binary(op, l, VmValue::Int(imm.into()))?.is_truthy() {
                        pc = target as usize;
                    }
                }
                Op::BranchSlot { op, slot, target } => {
                    let r = self.slot(slot);
                    let l = self.pop();
                    if !self.binary(op, l, r)?.is_truthy() {
                        pc = target as usize;
                    }
                }
                Op::BranchSlotImm { op, slot, imm, target } => {
                    let l = self.slot(slot);
                    if !self.binary(op, l, VmValue::Int(imm.into()))?.is_truthy() {
                        pc = target as usize;
                    }
                }
                Op::Compound(op) => {
                    let rhs = self.pop();
                    let old = self.pop();
                    let v = self.compound(op, old, rhs)?;
                    self.stack.push(v);
                }
                Op::CompoundSlot { op, slot, ty } => {
                    let rhs = self.pop();
                    let old = self.pop();
                    let v = self.compound(op, old, rhs)?;
                    self.set_slot(slot, ty, v);
                }
                Op::Truthy => {
                    let v = self.pop();
                    self.stack.push(VmValue::Int(v.is_truthy() as i64));
                }
                Op::ForLatch { loop_id, slot, delta, op, imm, target } => {
                    let loop_id = LoopId(loop_id.into());
                    self.emit_checkpoint(loop_id, CheckpointKind::BodyEnd);
                    let v = (self.slot(slot.into()).as_int() as i32).wrapping_add(delta.into());
                    self.slots[self.cur_base + usize::from(slot)] = VmValue::Int(v.into());
                    if int_binop(op, v.into(), imm.into()).is_ok_and(|holds| holds != 0) {
                        self.emit_checkpoint(loop_id, CheckpointKind::BodyBegin);
                        pc = target as usize;
                    }
                }
                Op::Jump(t) => pc = t as usize,
                Op::JumpIfFalse(t) => {
                    if !self.pop().is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    if self.pop().is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::Call { func, nargs } => {
                    pc = self.call(func as usize, nargs as usize, pc as u32)?;
                }
                Op::CallBuiltin { builtin, nargs } => {
                    self.call_builtin(builtin as usize, nargs as usize)?;
                }
                Op::Ret => match self.ret() {
                    Some(next) => pc = next,
                    None => return Ok(()),
                },
                Op::Checkpoint { loop_id, kind } => self.emit_checkpoint(LoopId(loop_id), kind),
                Op::Trap(i) => return Err(self.code.traps[i as usize].clone()),
            }
        }
    }

    // ---- bookkeeping ----------------------------------------------------

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

    fn deref_non_pointer(&self, v: VmValue) -> RuntimeError {
        RuntimeError::DerefNonPointer { found: v.display(&self.code.types) }
    }

    #[inline(always)]
    fn pop(&mut self) -> VmValue {
        self.stack.pop().expect("stack underflow")
    }

    #[inline(always)]
    fn slot(&self, slot: u32) -> VmValue {
        self.slots[self.cur_base + slot as usize]
    }

    /// Coerces `v` to the slot's declared type and stores it.
    #[inline(always)]
    fn set_slot(&mut self, slot: u32, ty: TypeId, v: VmValue) {
        self.slots[self.cur_base + slot as usize] = self.coerce(v, ty);
    }

    /// Leaves a `++`/`--` op's result on the stack.
    #[inline(always)]
    fn leave(&mut self, push: Push, old: VmValue, new: VmValue) {
        match push {
            Push::Old => self.stack.push(old),
            Push::New => self.stack.push(new),
            Push::Nothing => {}
        }
    }

    // ---- calls ----------------------------------------------------------

    /// Enters `func` with the top `nargs` stack values as arguments;
    /// returns the entry pc.
    fn call(&mut self, func: usize, nargs: usize, ret_pc: u32) -> RunResult<usize> {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(RuntimeError::StackOverflow);
        }
        let code = self.code;
        let f = &code.functions[func];
        let argstart = self.stack.len() - nargs;
        let sp_on_entry = self.sp;

        // The compiler's argument-passing stack traffic: caller stores,
        // callee loads (identical addresses and instruction slots to the
        // oracle).
        if nargs > 0 {
            let bytes = 4 * nargs as u32;
            if self.sp.saturating_sub(bytes) < STACK_LIMIT {
                return Err(RuntimeError::StackOverflow);
            }
            self.sp -= bytes;
            for i in 0..nargs {
                let addr = self.sp + 4 * i as u32;
                let word = self.stack[argstart + i].as_int() as u32;
                self.mem.write_u32(addr, word);
                self.emit_access(
                    layout::frame_instr(func as u32, i as u32),
                    addr,
                    AccessKind::Write,
                );
            }
            for i in 0..nargs {
                let addr = self.sp + 4 * i as u32;
                self.emit_access(
                    layout::frame_instr(func as u32, (nargs + i) as u32),
                    addr,
                    AccessKind::Read,
                );
            }
        }

        let slot_base = self.slots.len();
        self.slots.resize(slot_base + f.nslots as usize, VmValue::Int(0));
        for (i, &pt) in f.params.iter().enumerate().take(nargs) {
            self.slots[slot_base + i] = self.coerce(self.stack[argstart + i], pt);
        }
        self.stack.truncate(argstart);
        self.frames.push(FrameRec {
            func: func as u32,
            ret_pc,
            slot_base: slot_base as u32,
            sp_on_entry,
        });
        self.cur_base = slot_base;
        Ok(f.entry as usize)
    }

    /// Pops the active frame, pushing the (return-type-coerced) result for
    /// the caller. Returns the caller's pc, or `None` when `main` returns.
    fn ret(&mut self) -> Option<usize> {
        let v = self.stack.pop().expect("return value on stack");
        let fr = self.frames.pop().expect("active frame");
        let f = &self.code.functions[fr.func as usize];
        let result = match f.ret {
            Some(ty) => self.coerce(v, ty),
            None => VmValue::Int(0),
        };
        self.slots.truncate(fr.slot_base as usize);
        self.sp = fr.sp_on_entry;
        self.cur_base = self.frames.last().map_or(0, |f| f.slot_base as usize);
        if self.frames.is_empty() {
            None
        } else {
            self.stack.push(result);
            Some(fr.ret_pc as usize)
        }
    }

    // ---- value operations -----------------------------------------------

    /// [`crate::Value::coerce_to`] over interned types.
    #[inline(always)]
    fn coerce(&self, v: VmValue, ty: TypeId) -> VmValue {
        match self.code.types.kind(ty) {
            TyKind::Ptr(p) => VmValue::Ptr { addr: v.as_int() as u32, pointee: p },
            TyKind::Int => VmValue::Int(v.as_int() as i32 as i64),
            TyKind::Char => VmValue::Int(v.as_int() as u8 as i64),
        }
    }

    /// Adds `delta` elements to a pointer, or `delta` to an integer.
    #[inline(always)]
    fn offset(&self, v: VmValue, delta: i64) -> VmValue {
        match v {
            VmValue::Int(n) => VmValue::Int(n.wrapping_add(delta)),
            VmValue::Ptr { addr, pointee } => VmValue::Ptr {
                addr: addr
                    .wrapping_add(delta.wrapping_mul(self.code.types.size(pointee) as i64) as u32),
                pointee,
            },
        }
    }

    /// The address of element `idx` of the `pointee` array at `addr`.
    #[inline(always)]
    fn element(&self, addr: u32, pointee: TypeId, idx: i64) -> u32 {
        let size = self.code.types.size(pointee) as i64;
        addr.wrapping_add(idx.wrapping_mul(size) as u32)
    }

    /// `base[idx]`'s element pointer; the oracle's error if `base` is not a
    /// pointer.
    #[inline(always)]
    fn index(&self, base: VmValue, idx: i64) -> RunResult<VmValue> {
        let VmValue::Ptr { addr, pointee } = base else {
            return Err(self.deref_non_pointer(base));
        };
        Ok(VmValue::Ptr { addr: self.element(addr, pointee, idx), pointee })
    }

    /// Loads through `p`, emitting a read record at `site`.
    #[inline(always)]
    fn load(&mut self, site: u32, p: VmValue) -> RunResult<VmValue> {
        let VmValue::Ptr { addr, pointee } = p else {
            return Err(self.deref_non_pointer(p));
        };
        Ok(self.load_at(site, addr, pointee))
    }

    /// Loads a `pointee` at `addr`, emitting a read record at `site`.
    #[inline(always)]
    fn load_at(&mut self, site: u32, addr: u32, pointee: TypeId) -> VmValue {
        self.emit_access(layout::user_instr(site), addr, AccessKind::Read);
        self.read_typed(addr, pointee)
    }

    /// Stores `v` through `p`, emitting a write record at `site`.
    #[inline(always)]
    fn store(&mut self, site: u32, p: VmValue, v: VmValue) -> RunResult<()> {
        let VmValue::Ptr { addr, pointee } = p else {
            return Err(self.deref_non_pointer(p));
        };
        self.store_at(site, addr, pointee, v);
        Ok(())
    }

    /// Stores `v` as a `pointee` at `addr`, emitting a write record at
    /// `site`.
    #[inline(always)]
    fn store_at(&mut self, site: u32, addr: u32, pointee: TypeId, v: VmValue) {
        self.emit_access(layout::user_instr(site), addr, AccessKind::Write);
        write_typed(&mut self.mem, addr, self.code.types.kind(pointee), v.as_int());
    }

    #[inline(always)]
    fn read_typed(&self, addr: u32, ty: TypeId) -> VmValue {
        match self.code.types.kind(ty) {
            TyKind::Int => VmValue::Int(self.mem.read_i32(addr)),
            TyKind::Char => VmValue::Int(self.mem.read_u8(addr) as i64),
            TyKind::Ptr(p) => VmValue::Ptr { addr: self.mem.read_u32(addr), pointee: p },
        }
    }

    /// Non-short-circuit binary operators, with the oracle's pointer
    /// arithmetic.
    #[inline(always)]
    fn binary(&self, op: BinOp, l: VmValue, r: VmValue) -> RunResult<VmValue> {
        match (op, l, r) {
            (BinOp::Add, VmValue::Ptr { .. }, VmValue::Int(n)) => return Ok(self.offset(l, n)),
            (BinOp::Add, VmValue::Int(n), VmValue::Ptr { .. }) => return Ok(self.offset(r, n)),
            (BinOp::Sub, VmValue::Ptr { .. }, VmValue::Int(n)) => return Ok(self.offset(l, -n)),
            (BinOp::Sub, VmValue::Ptr { addr: a, pointee }, VmValue::Ptr { addr: b, .. }) => {
                let diff = (a as i64 - b as i64) / self.code.types.size(pointee) as i64;
                return Ok(VmValue::Int(diff));
            }
            _ => {}
        }
        Ok(VmValue::Int(int_binop(op, l.as_int(), r.as_int())?))
    }

    /// Compound-assignment arithmetic (`+=` family): `ptr += n` / `ptr -= n`
    /// preserve pointer-ness with scaling, everything else is integer.
    fn compound(&self, op: BinOp, old: VmValue, rhs: VmValue) -> RunResult<VmValue> {
        if let VmValue::Ptr { .. } = old {
            match op {
                BinOp::Add => return Ok(self.offset(old, rhs.as_int())),
                BinOp::Sub => return Ok(self.offset(old, -rhs.as_int())),
                _ => {}
            }
        }
        // `AssignOp::bin_op` only yields the five arithmetic operators.
        Ok(VmValue::Int(int_binop(op, old.as_int(), rhs.as_int())?))
    }

    // ---- builtins --------------------------------------------------------

    /// Executes a builtin over the top `nargs` stack values, replacing
    /// them with the result. The body lives in `crate::syslib`, shared
    /// with the tree-walking oracle — identical library traffic,
    /// addresses, and error values by construction.
    fn call_builtin(&mut self, bi: usize, nargs: usize) -> RunResult<()> {
        let argstart = self.stack.len() - nargs;
        let mut a = [0i64; 3];
        for (i, v) in self.stack[argstart..].iter().take(3).enumerate() {
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
        let result = crate::syslib::call_builtin(&mut ctx, bi, a)?;
        self.stack.truncate(argstart);
        self.stack.push(match result {
            crate::syslib::LibValue::Int(v) => VmValue::Int(v),
            crate::syslib::LibValue::MallocPtr(addr) => {
                VmValue::Ptr { addr, pointee: self.code.char_ty }
            }
            crate::syslib::LibValue::Zero => VmValue::zero(),
        });
        Ok(())
    }
}

fn write_typed(mem: &mut Memory, addr: u32, kind: TyKind, value: i64) {
    match kind {
        TyKind::Int | TyKind::Ptr(_) => mem.write_u32(addr, value as u32),
        TyKind::Char => mem.write_u8(addr, value as u8),
    }
}
