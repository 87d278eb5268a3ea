//! Flat bytecode for the compiled execution engine.
//!
//! The lowering pass (`crate::lower`) walks a checked program **once**,
//! resolves every name to a numeric frame slot or a global address, interns
//! every type into a dense [`TypeTable`], and emits one flat [`Op`] stream
//! per program. The VM (`crate::vm`) then executes slots out of a
//! contiguous `Vec<VmValue>` with zero string hashing and zero `Type`
//! clones on the hot path, producing a trace byte-identical to the
//! tree-walking oracle (`crate::Interp`).
//!
//! Design notes:
//!
//! * **Stack machine.** Expression lowering mirrors the oracle's
//!   evaluation order exactly (left-to-right operands, value-before-place
//!   for simple assignment, place-before-value for compound assignment),
//!   which is what makes the emitted trace records arrive in the same
//!   order.
//! * **Sites stay static.** Every memory-touching op carries the
//!   [`minic::SiteId`] index it was lowered from, so the synthetic
//!   instruction addresses in the trace are decided at compile time.
//! * **Errors are values.** Constructs the oracle only rejects *when
//!   executed* (unknown names, `&scalar_local`, assignment to an array
//!   name) lower to a [`Op::Trap`] carrying the identical
//!   [`RuntimeError`], so even most programs that skipped `minic::check`
//!   behave the same. The byte-identity *guarantee*, however, covers
//!   checked programs: on arity-mismatched calls (which `minic::check`
//!   rejects) the VM zero-initializes the missing parameter slots, where
//!   the oracle leaves those names unbound.

use crate::interp::RuntimeError;
use minic::ast::{BinOp, CheckpointKind, UnOp};
use minic::Type;
use std::collections::HashMap;
use std::fmt;

/// Handle to an interned [`Type`] in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(pub u32);

/// Storage class of an interned type — everything the VM needs at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyKind {
    /// 32-bit signed integer (4 bytes in memory).
    Int,
    /// 8-bit unsigned char (1 byte in memory).
    Char,
    /// Pointer; the payload is the interned pointee.
    Ptr(TypeId),
}

/// One interned type.
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// Storage class (with interned pointee for pointers).
    pub kind: TyKind,
    /// Size in bytes when stored in memory.
    pub size: u32,
    /// C spelling, used only for diagnostics (`int`, `char*`, ...).
    pub name: String,
}

/// Dense type interner shared by the compiler and the VM.
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    infos: Vec<TypeInfo>,
    index: HashMap<Type, TypeId>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Interns a type (and, recursively, its pointee chain).
    pub fn intern(&mut self, ty: &Type) -> TypeId {
        if let Some(id) = self.index.get(ty) {
            return *id;
        }
        let kind = match ty {
            Type::Int => TyKind::Int,
            Type::Char => TyKind::Char,
            Type::Ptr(inner) => TyKind::Ptr(self.intern(inner)),
        };
        let id = TypeId(self.infos.len() as u32);
        self.infos.push(TypeInfo { kind, size: ty.size(), name: ty.to_string() });
        self.index.insert(ty.clone(), id);
        id
    }

    /// Storage class of `id`.
    #[inline]
    pub fn kind(&self, id: TypeId) -> TyKind {
        self.infos[id.0 as usize].kind
    }

    /// In-memory size of `id`, in bytes.
    #[inline]
    pub fn size(&self, id: TypeId) -> u32 {
        self.infos[id.0 as usize].size
    }

    /// C spelling of `id` (diagnostics only).
    pub fn name(&self, id: TypeId) -> &str {
        &self.infos[id.0 as usize].name
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }
}

/// A VM runtime value: the `Copy` analogue of [`crate::Value`], with the
/// pointee type replaced by a [`TypeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmValue {
    /// Integer (also chars and booleans).
    Int(i64),
    /// Typed pointer into the simulated address space.
    Ptr {
        /// Byte address.
        addr: u32,
        /// Interned pointee type.
        pointee: TypeId,
    },
}

impl VmValue {
    /// The canonical zero value.
    #[inline]
    pub fn zero() -> VmValue {
        VmValue::Int(0)
    }

    /// Numeric view: pointers expose their address.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            VmValue::Int(v) => v,
            VmValue::Ptr { addr, .. } => addr as i64,
        }
    }

    /// C truthiness.
    #[inline]
    pub fn is_truthy(self) -> bool {
        self.as_int() != 0
    }

    /// Renders the value exactly like [`crate::Value`]'s `Display`
    /// (needed so VM runtime errors match the oracle's byte for byte).
    pub fn display(self, types: &TypeTable) -> String {
        match self {
            VmValue::Int(v) => v.to_string(),
            VmValue::Ptr { addr, pointee } => format!("({}*)0x{addr:x}", types.name(pointee)),
        }
    }
}

/// What a `++`/`--` op leaves on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The pre-update value (postfix `i++`).
    Old,
    /// The updated value (prefix `++i`).
    New,
    /// Nothing: a `++`/`--` statement, which lowers to the op with
    /// `Old` or `New` followed by its statement's [`Op::Pop`], fused.
    Nothing,
}

/// One bytecode instruction.
///
/// Stack-effect notation: `[a b] -> [c]` pops `b` then `a`, pushes `c`.
///
/// The lowering peephole (`crate::lower`) fuses hot sequences into single
/// ops. Each fused op documents the exact unfused sequence it replaces and
/// behaves as that sequence does: same records in the same order, same
/// errors at the same point. It counts as one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `[] -> [n]` — push a literal.
    PushInt(i64),
    /// `[v] -> []` — discard the top of stack.
    Pop,
    /// `[v] -> [v v]` — duplicate the top of stack.
    Dup,
    /// `[a b] -> [b a]` — swap the two topmost values.
    Swap,
    /// `[] -> [v]` — push the current frame's slot (register value or the
    /// decayed pointer of a local array).
    LoadSlot(u32),
    /// `[v] -> []` — coerce to the slot's declared type and store.
    StoreSlot {
        /// Frame slot index.
        slot: u32,
        /// Declared type (coercion target).
        ty: TypeId,
    },
    /// `[] -> [old|new|]` — `++`/`--` on a register slot.
    IncDecSlot {
        /// Frame slot index.
        slot: u32,
        /// Declared type (coercion target for the stored value).
        ty: TypeId,
        /// +1 or -1.
        delta: i8,
        /// What to leave on the stack.
        push: Push,
    },
    /// `[] -> [v]` — load a memory-resident global scalar, emitting a read
    /// access record at `site`.
    LoadGlobal {
        /// Absolute address of the scalar.
        addr: u32,
        /// Scalar type (decides load width/signedness).
        ty: TypeId,
        /// Access-site index (`layout::user_instr`).
        site: u32,
    },
    /// `[v] -> []` — store a global scalar, emitting a write access record.
    StoreGlobal {
        /// Absolute address of the scalar.
        addr: u32,
        /// Scalar type (decides store width).
        ty: TypeId,
        /// Access-site index.
        site: u32,
    },
    /// `[] -> [old|new|]` — `++`/`--` on a global scalar (read + write
    /// records, like the oracle's load/store pair).
    IncDecGlobal {
        /// Absolute address of the scalar.
        addr: u32,
        /// Scalar type.
        ty: TypeId,
        /// Access-site index.
        site: u32,
        /// +1 or -1 (elements for pointers, units for integers).
        delta: i8,
        /// What to leave on the stack.
        push: Push,
    },
    /// `[] -> [ptr]` — push a constant typed pointer (global array decay,
    /// `&global`).
    PushPtr {
        /// Absolute address.
        addr: u32,
        /// Interned pointee type.
        pointee: TypeId,
    },
    /// `[] -> []` — carve a local array from the descending stack and bind
    /// its decayed pointer to `slot`. Re-executes (and re-allocates) each
    /// time the declaration runs, like the oracle.
    AllocArray {
        /// Frame slot receiving the decayed pointer.
        slot: u32,
        /// Element type.
        elem: TypeId,
        /// Word-aligned byte size to reserve.
        size: u32,
    },
    /// `[ptr idx] -> [ptr']` — pointer element arithmetic for `base[idx]`;
    /// errors like the oracle if `base` is not a pointer.
    IndexPtr,
    /// `[idx] -> [ptr]` — `a[e]`'s element pointer on a global array `a`:
    /// `PushPtr { addr, pointee }` before the index and `IndexPtr` after it,
    /// fused. The base is a constant that emits no record and cannot fault,
    /// so taking it after the index changes nothing observable.
    IndexGlobal {
        /// Absolute address of the array.
        addr: u32,
        /// Element type.
        pointee: TypeId,
    },
    /// `[ptr] -> [v]` — load through a pointer, emitting a read record.
    LoadThru {
        /// Access-site index.
        site: u32,
    },
    /// `[ptr idx] -> [v]` — `IndexPtr; LoadThru { site }` fused (`base[idx]`
    /// read).
    LoadIndexed {
        /// Access-site index.
        site: u32,
    },
    /// `[ptr v] -> []` — store through a pointer, emitting a write record.
    StoreThru {
        /// Access-site index.
        site: u32,
    },
    /// `[idx] -> [v]` — `IndexGlobal { addr, pointee }; LoadThru { site }`
    /// fused (`a[e]` read on a global array).
    LoadGlobalIndexed {
        /// Absolute address of the array.
        addr: u32,
        /// Element type.
        pointee: TypeId,
        /// Access-site index.
        site: u32,
    },
    /// `[] -> [v]` — `LoadSlot(slot); IndexGlobal { addr, pointee };
    /// LoadThru { site }` fused (`a[i]` read on a global array).
    LoadGlobalIndexedSlot {
        /// Absolute address of the array.
        addr: u32,
        /// Element type.
        pointee: TypeId,
        /// Access-site index.
        site: u32,
        /// Frame slot holding the index (fused only when it fits `u16`).
        slot: u16,
    },
    /// `[v idx] -> []` — `IndexGlobal { addr, pointee }; Swap; StoreThru {
    /// site }` fused (`a[e] = v` on a global array).
    StoreGlobalIndexed {
        /// Absolute address of the array.
        addr: u32,
        /// Element type.
        pointee: TypeId,
        /// Access-site index.
        site: u32,
    },
    /// `[v] -> []` — `LoadSlot(slot); IndexGlobal { addr, pointee }; Swap;
    /// StoreThru { site }` fused (`a[i] = v` on a global array).
    StoreGlobalIndexedSlot {
        /// Absolute address of the array.
        addr: u32,
        /// Element type.
        pointee: TypeId,
        /// Access-site index.
        site: u32,
        /// Frame slot holding the index (fused only when it fits `u16`).
        slot: u16,
    },
    /// `[ptr] -> [old|new|]` — `++`/`--` through a pointer (read + write
    /// records).
    IncDecThru {
        /// Access-site index.
        site: u32,
        /// +1 or -1.
        delta: i8,
        /// What to leave on the stack.
        push: Push,
    },
    /// `[v] -> [v]` — require a pointer on top of stack (`&*p`).
    CheckPtr,
    /// `[v] -> [op v]` — unary operator.
    Unary(UnOp),
    /// `[a b] -> [a op b]` — binary operator with the oracle's pointer
    /// arithmetic. `&&`/`||` never reach the VM (lowered to jumps).
    Binary(BinOp),
    /// `[a] -> [a op imm]` — `PushInt(imm); Binary(op)` fused.
    BinaryImm {
        /// The operator.
        op: BinOp,
        /// The literal right-hand side.
        imm: i64,
    },
    /// `[a] -> [a op frame[slot]]` — `LoadSlot(slot); Binary(op)` fused.
    BinarySlot {
        /// The operator.
        op: BinOp,
        /// Frame slot supplying the right-hand side.
        slot: u32,
    },
    /// `[] -> [frame[slot] op imm]` — `LoadSlot(slot); PushInt(imm);
    /// Binary(op)` fused (`i + 1`).
    SlotBinaryImm {
        /// The operator.
        op: BinOp,
        /// Frame slot supplying the left-hand side.
        slot: u32,
        /// The literal right-hand side.
        imm: i64,
    },
    /// `[] -> [frame[lhs] op frame[rhs]]` — `LoadSlot(lhs); LoadSlot(rhs);
    /// Binary(op)` fused (`i * n`).
    SlotBinarySlot {
        /// The operator.
        op: BinOp,
        /// Frame slot supplying the left-hand side.
        lhs: u32,
        /// Frame slot supplying the right-hand side.
        rhs: u32,
    },
    /// `[] -> [imm op frame[slot]]` — `PushInt(imm); LoadSlot(slot);
    /// Binary(op)` fused (`768 * s`).
    ImmBinarySlot {
        /// The operator.
        op: BinOp,
        /// The literal left-hand side.
        imm: i64,
        /// Frame slot supplying the right-hand side.
        slot: u32,
    },
    /// `[a] -> []` — `BinaryImm { op, imm }; JumpIfFalse(target)` fused:
    /// jump unless `a op imm`. `op` is a comparison.
    BranchImm {
        /// The comparison.
        op: BinOp,
        /// The literal right-hand side (fused only when it fits `i32`).
        imm: i32,
        /// Jump target.
        target: u32,
    },
    /// `[a] -> []` — `BinarySlot { op, slot }; JumpIfFalse(target)` fused:
    /// jump unless `a op frame[slot]`. `op` is a comparison.
    BranchSlot {
        /// The comparison.
        op: BinOp,
        /// Frame slot supplying the right-hand side.
        slot: u32,
        /// Jump target.
        target: u32,
    },
    /// `[] -> []` — `SlotBinaryImm { op, slot, imm }; JumpIfFalse(target)`
    /// fused: jump unless `frame[slot] op imm`. `op` is a comparison.
    BranchSlotImm {
        /// The comparison.
        op: BinOp,
        /// Frame slot supplying the left-hand side.
        slot: u32,
        /// The literal right-hand side (fused only when it fits `i32`).
        imm: i32,
        /// Jump target.
        target: u32,
    },
    /// `[old rhs] -> [new]` — compound-assignment arithmetic (`+=` family;
    /// pointers scale on `+`/`-`, everything else is integer).
    Compound(BinOp),
    /// `[old rhs] -> []` — `Compound(op); StoreSlot { slot, ty }` fused. The
    /// old value was loaded before the right-hand side ran, as unfused.
    CompoundSlot {
        /// The operator.
        op: BinOp,
        /// Frame slot index.
        slot: u32,
        /// Declared type (coercion target).
        ty: TypeId,
    },
    /// `[v] -> [0|1]` — C truthiness (second operand of `&&`/`||`).
    Truthy,
    /// `[] -> []` — a `for` loop's back edge: `Checkpoint { loop_id, kind:
    /// BodyEnd }; IncDecSlot { slot, delta, push: Nothing, .. }; Jump(cond)`
    /// fused, where the slot is an `int` and `ops[cond]` is the loop's
    /// `BranchSlotImm { op, slot, imm, .. }` followed by `Checkpoint {
    /// loop_id, kind: BodyBegin }`. Emits BodyEnd and steps the slot with
    /// `i32` wrapping; then, while `frame[slot] op imm` holds, emits
    /// BodyBegin and jumps to `target` (`cond + 2`), and otherwise falls
    /// through to the loop's exit. It compares only, so it cannot fault.
    ForLatch {
        /// Loop identity (fused only when it fits `u16`).
        loop_id: u16,
        /// The counter's frame slot (fused only when it fits `u16`).
        slot: u16,
        /// +1 or -1.
        delta: i8,
        /// The loop condition's comparison.
        op: BinOp,
        /// The loop condition's literal right-hand side.
        imm: i32,
        /// The first op of the loop body.
        target: u32,
    },
    /// `[] -> []` — unconditional jump.
    Jump(u32),
    /// `[v] -> []` — jump when falsy.
    JumpIfFalse(u32),
    /// `[v] -> []` — jump when truthy.
    JumpIfTrue(u32),
    /// `[a1..an] -> [ret]` — call a user function with `nargs` stacked
    /// arguments (synthetic frame traffic included when configured).
    Call {
        /// Callee index in [`CompiledProgram::functions`].
        func: u32,
        /// Argument count.
        nargs: u32,
    },
    /// `[a1..an] -> [ret]` — call a builtin (`minic::builtins::BUILTINS`
    /// index).
    CallBuiltin {
        /// Builtin index.
        builtin: u32,
        /// Argument count.
        nargs: u32,
    },
    /// `[ret] -> []` in the callee / `[] -> [ret]` in the caller — pop the
    /// frame, coercing the value to the function's return type (`void`
    /// returns zero).
    Ret,
    /// `[] -> []` — emit a checkpoint record.
    Checkpoint {
        /// Loop identity.
        loop_id: u32,
        /// Which of the paper's three checkpoint kinds.
        kind: CheckpointKind,
    },
    /// `[] -> !` — raise the pre-built [`RuntimeError`] at
    /// [`CompiledProgram::traps`]`[i]`.
    Trap(u32),
}

/// One lowered function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Source-level name (diagnostics).
    pub name: String,
    /// Entry offset into [`CompiledProgram::ops`].
    pub entry: u32,
    /// Total frame slots (parameters first).
    pub nslots: u32,
    /// Parameter coercion targets, in order.
    pub params: Vec<TypeId>,
    /// Return coercion target; `None` is `void` (returns zero).
    pub ret: Option<TypeId>,
}

/// A fully lowered program, ready for [`crate::vm::Vm`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// All functions' code, concatenated.
    pub ops: Vec<Op>,
    /// Per-function metadata, in `Program::functions` order.
    pub functions: Vec<CompiledFunction>,
    /// Index of `main`, if present.
    pub main: Option<u32>,
    /// Interned types.
    pub types: TypeTable,
    /// Pre-built runtime errors referenced by [`Op::Trap`].
    pub traps: Vec<RuntimeError>,
    /// Global-initializer image: `(address, type, value)` writes the
    /// loader applies silently before execution.
    pub global_image: Vec<(u32, TypeId, i64)>,
    /// Interned `char` (the type `malloc` results carry).
    pub char_ty: TypeId,
}

impl CompiledProgram {
    /// Number of bytecode instructions.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

impl fmt::Display for CompiledProgram {
    /// Disassembly listing (one op per line, function headers inline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(func) = self.functions.iter().find(|fun| fun.entry as usize == i) {
                writeln!(f, "{}: ; {} slots", func.name, func.nslots)?;
            }
            writeln!(f, "  {i:5}  {op:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_recursive() {
        let mut t = TypeTable::new();
        let a = t.intern(&Type::ptr_to(Type::ptr_to(Type::Char)));
        let b = t.intern(&Type::ptr_to(Type::ptr_to(Type::Char)));
        assert_eq!(a, b);
        // char, char*, char** all interned.
        assert_eq!(t.len(), 3);
        let TyKind::Ptr(inner) = t.kind(a) else { panic!("not a pointer") };
        assert_eq!(t.kind(inner), TyKind::Ptr(t.intern(&Type::Char)));
        assert_eq!(t.size(a), 4);
        assert_eq!(t.name(a), "char**");
        assert!(!t.is_empty());
    }

    #[test]
    fn vm_value_matches_oracle_display() {
        let mut t = TypeTable::new();
        let int_id = t.intern(&Type::Int);
        let v = VmValue::Ptr { addr: 0xff, pointee: int_id };
        assert_eq!(v.display(&t), crate::Value::ptr(0xff, Type::Int).to_string());
        assert_eq!(VmValue::Int(-5).display(&t), "-5");
        assert_eq!(v.as_int(), 0xff);
        assert!(v.is_truthy());
        assert!(!VmValue::zero().is_truthy());
    }
}
