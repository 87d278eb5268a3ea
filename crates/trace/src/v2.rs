//! The compressed record codec inside `foray-trace/v2` blocks.
//!
//! Memory traces are highly compressible: each static reference advances
//! by a small affine stride (the very property the analyzer recovers),
//! consecutive accesses usually come from the same or a nearby
//! instruction, checkpoints repeat the same loop id in begin/end pairs,
//! and the tag + kind of a record fit a single byte. The v2 codec
//! exploits all four with *length-tagged deltas*: every field's byte
//! count is stored in the packed byte, and the fields themselves are raw
//! truncated little-endian integers —
//!
//! ```text
//! checkpoint  1 byte   packed: 0b0LLs_kk01, kk = kind ∈ {0,1,2},
//!                      s = "same loop id as the previous checkpoint",
//!                      LL = loop-id bytes − 1 (zero when s = 1)
//!             ≤4 bytes loop id, unsigned little-endian — only when s = 0
//! access      1 byte   packed: 0bIIAA_sw10, w = write bit,
//!                      s = "same instr as the previous access",
//!                      II = instr-delta bytes − 1 (zero when s = 1),
//!                      AA = addr-delta bytes − 1
//!             ≤4 bytes instr − prev_instr, sign-extended LE — when s = 0
//!             ≤4 bytes addr − table[slot(instr)], sign-extended LE
//! ```
//!
//! Tagging lengths up front (the stream-vbyte idea) rather than chaining
//! continuation bits (LEB128) matters twice. A sign-extended byte covers
//! [-128, 127] where a zigzag varint byte covers [-64, 63], so records
//! are never larger and often smaller. And the decoder learns a record's
//! length from its first byte alone — no data-dependent scan over
//! continuation bits — so the bulk decoder can select each length
//! through a predicted branch and keep the record-to-record position
//! chain off the load path (see `fast_step`). Decode runs at 0.7–0.8x of
//! fixed-width v1's record throughput (`trace_codec`; per-commit readings
//! are in `BENCH_history.jsonl`) on ~4x fewer bytes: far cheaper per file
//! byte, which is what bounds replay from storage.
//!
//! The address delta is **per instruction**, not global: a 256-entry
//! direct-mapped table keyed by the instruction address holds each
//! reference's last address, so interleaved references (`a[i]`, `b[i]`,
//! `c[i]` in one body) each see their own small stride instead of the
//! large jumps between arrays. Slot collisions merely produce larger
//! deltas — encoder and decoder run the same table deterministically, so
//! every `u32` still round-trips (deltas wrap modulo 2³²).
//!
//! The whole [`V2State`] **resets at every block boundary**, which is
//! what makes v2 blocks independently decodable — the checkpoint index
//! can drop a reader into the middle of a file without replaying the
//! prefix. Typical corpus records shrink from the fixed 10 bytes
//! (access) / 6 bytes (checkpoint) of the v1 codec to 2 / 1 bytes.
//!
//! The codec is private to the container ([`crate::file`]). Failures are
//! reported with the same typed [`DecodeError`] as v1, offset at the
//! record's packed byte.
//!
//! # Examples
//!
//! A strided walk through the public container: after the first access,
//! which pays for the absolute values, each access is 2 bytes (a
//! same-instr packed byte and a one-byte stride delta) against v1's 10.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use minic_trace::file::{self, FormatVersion, TraceFile};
//! use minic_trace::{AccessKind, Record};
//!
//! let recs: Vec<Record> =
//!     (0..1000).map(|i| Record::access(0x400000, 0x1000_0000 + 4 * i, AccessKind::Read)).collect();
//! let (mut v1, mut v2) = (Vec::new(), Vec::new());
//! file::write_to_with(&mut v1, &recs, FormatVersion::V1)?;
//! file::write_to_with(&mut v2, &recs, FormatVersion::V2)?;
//! assert!(v2.len() * 4 < v1.len());
//! let decoded: Result<Vec<Record>, _> = TraceFile::from_bytes(v2)?.records().collect();
//! assert_eq!(decoded?, recs);
//! # Ok(())
//! # }
//! ```

use crate::binary::{DecodeError, DecodeReason};
use crate::record::{Access, AccessKind, InstrAddr, MemAddr, Record};
use minic::{CheckpointKind, LoopId};

/// Record type in the packed byte's low two bits (matching the v1 tags).
const TYPE_CHECKPOINT: u8 = 0x01;
const TYPE_ACCESS: u8 = 0x02;

/// Access bit 3: the instr equals the previous access's instr, so no
/// instr delta follows (and the II length bits must be zero).
const FLAG_SAME_INSTR: u8 = 0x08;
/// Checkpoint bit 4: the loop id equals the previous checkpoint's, so no
/// loop id follows (and the LL length bits must be zero).
const FLAG_SAME_LOOP: u8 = 0x10;

/// Upper bound on the encoded size of any single v2 record: the packed
/// byte plus two worst-case 4-byte fields.
pub(crate) const MAX_RECORD_BYTES: usize = 9;

/// Delta state shared by the encoder and decoder.
///
/// Holds the previous access's instr, the previous checkpoint's loop id,
/// and a 256-entry direct-mapped table of each instruction's last address
/// (see the module docs). Both sides must reset it
/// (`V2State::default()`) at every block boundary so blocks stay
/// independently decodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct V2State {
    prev_instr: u32,
    prev_loop: u32,
    addr_table: [u32; 256],
}

impl Default for V2State {
    fn default() -> Self {
        Self { prev_instr: 0, prev_loop: 0, addr_table: [0; 256] }
    }
}

/// Direct-mapped `addr_table` slot for an instruction address. Word
/// addressing (instrs are 4 apart) means dropping the two low bits, so
/// any 1KiB window of code maps collision-free — and a hot loop body is
/// far smaller than that. A shift-and-mask rather than a multiplicative
/// hash keeps the slot off the decode critical path (`instr` → slot →
/// table load → `addr`); collisions beyond the window only cost
/// compression, never correctness, since both sides stay in lockstep.
#[inline]
fn slot(instr: u32) -> usize {
    ((instr >> 2) & 0xff) as usize
}

/// Minimal sign-extended little-endian length (1..=4 bytes) for `d`.
#[inline]
fn signed_len(d: i32) -> usize {
    if (-0x80..0x80).contains(&d) {
        1
    } else if (-0x8000..0x8000).contains(&d) {
        2
    } else if (-0x80_0000..0x80_0000).contains(&d) {
        3
    } else {
        4
    }
}

/// Minimal unsigned little-endian length (1..=4 bytes) for `v`.
#[inline]
fn unsigned_len(v: u32) -> usize {
    1 + usize::from(v > 0xff) + usize::from(v > 0xffff) + usize::from(v > 0xff_ffff)
}

/// Appends the low `n` bytes of `v`, little-endian.
#[inline]
fn push_le(v: u32, n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes()[..n]);
}

/// Little-endian unsigned load of a 1..=4 byte field.
#[inline]
fn load_le(bytes: &[u8]) -> u32 {
    let mut v = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        v |= (b as u32) << (8 * i);
    }
    v
}

/// Sign-extends the low `n` bytes (1..=4) of `raw`.
#[inline]
fn sext(raw: u32, n: usize) -> i32 {
    let sh = 32 - 8 * n as u32;
    ((raw << sh) as i32) >> sh
}

/// Zero-extends the low `n` bytes (1..=4) of `raw`.
#[inline]
fn zext(raw: u32, n: usize) -> u32 {
    let sh = 32 - 8 * n as u32;
    (raw << sh) >> sh
}

fn checkpoint_kind_bits(kind: CheckpointKind) -> u8 {
    match kind {
        CheckpointKind::LoopBegin => 0,
        CheckpointKind::BodyBegin => 1,
        CheckpointKind::BodyEnd => 2,
    }
}

fn checkpoint_kind_from_bits(bits: u8) -> Option<CheckpointKind> {
    Some(match bits {
        0 => CheckpointKind::LoopBegin,
        1 => CheckpointKind::BodyBegin,
        2 => CheckpointKind::BodyEnd,
        _ => return None,
    })
}

/// Appends one record in v2 encoding, updating the delta state.
pub(crate) fn encode_record(state: &mut V2State, rec: &Record, out: &mut Vec<u8>) {
    match rec {
        Record::Checkpoint { loop_id, kind } => {
            let packed = TYPE_CHECKPOINT | (checkpoint_kind_bits(*kind) << 2);
            if loop_id.0 == state.prev_loop {
                out.push(packed | FLAG_SAME_LOOP);
            } else {
                let n = unsigned_len(loop_id.0);
                out.push(packed | (((n - 1) as u8) << 5));
                push_le(loop_id.0, n, out);
                state.prev_loop = loop_id.0;
            }
        }
        Record::Access(a) => {
            let write_bit = match a.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            };
            let mut packed = TYPE_ACCESS | (write_bit << 2);
            let s = slot(a.instr.0);
            let addr_delta = a.addr.0.wrapping_sub(state.addr_table[s]) as i32;
            let alen = signed_len(addr_delta);
            packed |= ((alen - 1) as u8) << 4;
            if a.instr.0 == state.prev_instr {
                out.push(packed | FLAG_SAME_INSTR);
            } else {
                let instr_delta = a.instr.0.wrapping_sub(state.prev_instr) as i32;
                let ilen = signed_len(instr_delta);
                out.push(packed | (((ilen - 1) as u8) << 6));
                push_le(instr_delta as u32, ilen, out);
                state.prev_instr = a.instr.0;
            }
            push_le(addr_delta as u32, alen, out);
            state.addr_table[s] = a.addr.0;
        }
    }
}

/// Decodes the record starting at `bytes[0]`, reporting errors at absolute
/// offset `base` and updating the delta state. Returns the record and its
/// encoded length.
///
/// # Errors
///
/// [`DecodeError`] with [`DecodeReason::BadTag`] on an unknown or
/// contradictory packed byte (bad type, reserved bit set, or a "same"
/// flag combined with non-zero length bits),
/// [`DecodeReason::BadCheckpointKind`] on an out-of-range kind, and
/// [`DecodeReason::Truncated`] when the stream ends mid-record.
#[inline]
pub(crate) fn decode_one(
    bytes: &[u8],
    base: u64,
    state: &mut V2State,
) -> Result<(Record, usize), DecodeError> {
    let err = |reason| DecodeError { offset: base, reason };
    let Some(&packed) = bytes.first() else {
        return Err(err(DecodeReason::Truncated { needed: 1, available: 0 }));
    };
    match packed & 0x03 {
        TYPE_CHECKPOINT => {
            if packed & 0x80 != 0 {
                return Err(err(DecodeReason::BadTag(packed)));
            }
            let kind_bits = (packed >> 2) & 0x03;
            let kind = checkpoint_kind_from_bits(kind_bits)
                .ok_or_else(|| err(DecodeReason::BadCheckpointKind(kind_bits)))?;
            if packed & FLAG_SAME_LOOP != 0 {
                if packed & 0x60 != 0 {
                    return Err(err(DecodeReason::BadTag(packed)));
                }
                return Ok((Record::Checkpoint { loop_id: LoopId(state.prev_loop), kind }, 1));
            }
            let n = ((packed >> 5) & 0x03) as usize + 1;
            let Some(field) = bytes.get(1..1 + n) else {
                return Err(err(DecodeReason::Truncated { needed: 1 + n, available: bytes.len() }));
            };
            let loop_id = load_le(field);
            state.prev_loop = loop_id;
            Ok((Record::Checkpoint { loop_id: LoopId(loop_id), kind }, 1 + n))
        }
        TYPE_ACCESS => {
            let same = packed & FLAG_SAME_INSTR != 0;
            if same && packed & 0xc0 != 0 {
                return Err(err(DecodeReason::BadTag(packed)));
            }
            let ilen = if same { 0 } else { ((packed >> 6) & 0x03) as usize + 1 };
            let alen = ((packed >> 4) & 0x03) as usize + 1;
            let needed = 1 + ilen + alen;
            if bytes.len() < needed {
                return Err(err(DecodeReason::Truncated { needed, available: bytes.len() }));
            }
            let instr = if same {
                state.prev_instr
            } else {
                let d = sext(load_le(&bytes[1..1 + ilen]), ilen);
                let i = state.prev_instr.wrapping_add(d as u32);
                state.prev_instr = i;
                i
            };
            let s = slot(instr);
            let d = sext(load_le(&bytes[1 + ilen..needed]), alen);
            let addr = state.addr_table[s].wrapping_add(d as u32);
            state.addr_table[s] = addr;
            let kind = if packed & 0x04 != 0 { AccessKind::Write } else { AccessKind::Read };
            let access = Access { instr: InstrAddr(instr), addr: MemAddr(addr), kind };
            Ok((Record::Access(access), needed))
        }
        _ => Err(err(DecodeReason::BadTag(packed))),
    }
}

/// Per-packed-byte fast-path dispatch table.
///
/// `0` marks bytes that need the careful path (unknown type, reserved
/// bit, out-of-range checkpoint kind, or a "same" flag contradicting
/// non-zero length bits). One L1-hot load per record thus subsumes every
/// per-flag validity branch into a single zero test, and a nonzero entry
/// guarantees the invariants the [`fast_step`] dispatch arms rely on
/// (e.g. a "same" flag's length bits really are zero). Nonzero values
/// also pack the record's total encoded length into bits 0..4 and, for
/// an access, the instr-field length into bits 4..7 (zero when
/// `FLAG_SAME_INSTR`) — the fast path recomputes those per dispatch arm
/// as constants and `debug_assert!`s them against this table.
const INFO: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        let by = b as u8;
        match by & 0x03 {
            TYPE_CHECKPOINT if (by >> 2) & 0x03 != 3 && by & 0x80 == 0 => {
                if by & FLAG_SAME_LOOP != 0 {
                    if by & 0x60 == 0 {
                        t[b] = 1;
                    }
                } else {
                    t[b] = 2 + ((by >> 5) & 0x03);
                }
            }
            TYPE_ACCESS => {
                let alen = ((by >> 4) & 0x03) + 1;
                if by & FLAG_SAME_INSTR != 0 {
                    if by & 0xc0 == 0 {
                        t[b] = 1 + alen;
                    }
                } else {
                    let ioff = ((by >> 6) & 0x03) + 1;
                    t[b] = (1 + ioff + alen) | (ioff << 4);
                }
            }
            _ => {}
        }
        b += 1;
    }
    t
};

/// Checkpoint kinds by their two kind bits. Index 3 is unreachable past
/// [`INFO`] but must hold something; the table load replaces the
/// conditional-move chain the optimizer emits for the 2-bit match.
const CHECKPOINT_KINDS: [CheckpointKind; 4] = [
    CheckpointKind::LoopBegin,
    CheckpointKind::BodyBegin,
    CheckpointKind::BodyEnd,
    CheckpointKind::BodyEnd,
];

/// One fast-path decode attempt at `bytes[start]`, for callers that have
/// already checked a worst-case record fits ([`MAX_RECORD_BYTES`]) and
/// hold the record's packed byte `b` (`== bytes[start]`) in a register.
///
/// With that guarantee every byte the record could touch is known in
/// bounds: one [`INFO`] zero test validates the packed byte, and one
/// wide load covers all fields of either record type — never a
/// data-dependent scan.
///
/// The loop-carried scalars (`prev_instr`, `prev_loop`) travel by value —
/// in, and back out in the return tuple alongside the record and the next
/// position — so a caller's decode loop keeps them in registers instead
/// of round-tripping a `&mut` state through memory every record (see
/// [`decode_fold`]). Only the address table, inherently memory, is passed
/// by reference. Returns `None` on any packed byte that needs the careful
/// path (unknown type, reserved bit, out-of-range kind, contradictory
/// flags); the table is untouched in that case.
///
/// The step is an interpreter-style dispatch: a short branch tree on the
/// packed byte's field-width bits selects a monomorphized arm
/// ([`acc_new`], [`acc_same`], [`cp_new`]) in which every field offset —
/// and crucially the record *length* — is a compile-time constant. The
/// length sequences the caller's decode loop, so leaving it to
/// data-dependent arithmetic chains the packed-byte load into every later
/// record's position (load → ALU → next load, ~10 cycles per record). As
/// a branch target the length is *speculated* instead: the predictor
/// keeps the position chain at the cost of a constant add, and the loads
/// only verify the prediction — the same reason the v1 decoder's
/// fixed-per-type records decode fast.
#[inline(always)]
fn fast_step(
    bytes: &[u8],
    start: usize,
    b: u8,
    prev_instr: u32,
    prev_loop: u32,
    table: &mut [u32; 256],
) -> Option<(Record, usize, u32, u32)> {
    if INFO[b as usize] == 0 {
        return None;
    }
    // One wide load covers the fields of either record type (≤8 bytes
    // after the packed byte); everything below is register arithmetic.
    let w = u64::from_le_bytes(bytes[start + 1..start + 9].try_into().expect("fast-path window"));
    let (rec, len, prev_instr, prev_loop) = if b & 0x03 == TYPE_ACCESS {
        if b & FLAG_SAME_INSTR != 0 {
            // Validity (via `INFO`) pinned the instr-width bits to zero,
            // so the high nibble is exactly the addr-width bits.
            let (rec, len) = match b >> 4 {
                0 => acc_same::<1>(b, w, prev_instr, table),
                1 => acc_same::<2>(b, w, prev_instr, table),
                2 => acc_same::<3>(b, w, prev_instr, table),
                _ => acc_same::<4>(b, w, prev_instr, table),
            };
            (rec, len, prev_instr, prev_loop)
        } else {
            // High nibble = instr-width bits (6–7) over addr-width
            // bits (4–5); each combination is its own arm.
            let (rec, len, instr) = match b >> 4 {
                0 => acc_new::<1, 1>(b, w, prev_instr, table),
                1 => acc_new::<1, 2>(b, w, prev_instr, table),
                2 => acc_new::<1, 3>(b, w, prev_instr, table),
                3 => acc_new::<1, 4>(b, w, prev_instr, table),
                4 => acc_new::<2, 1>(b, w, prev_instr, table),
                5 => acc_new::<2, 2>(b, w, prev_instr, table),
                6 => acc_new::<2, 3>(b, w, prev_instr, table),
                7 => acc_new::<2, 4>(b, w, prev_instr, table),
                8 => acc_new::<3, 1>(b, w, prev_instr, table),
                9 => acc_new::<3, 2>(b, w, prev_instr, table),
                10 => acc_new::<3, 3>(b, w, prev_instr, table),
                11 => acc_new::<3, 4>(b, w, prev_instr, table),
                12 => acc_new::<4, 1>(b, w, prev_instr, table),
                13 => acc_new::<4, 2>(b, w, prev_instr, table),
                14 => acc_new::<4, 3>(b, w, prev_instr, table),
                _ => acc_new::<4, 4>(b, w, prev_instr, table),
            };
            (rec, len, instr, prev_loop)
        }
    } else if b & FLAG_SAME_LOOP != 0 {
        // The single most common record in loop traces: one byte.
        let kind = CHECKPOINT_KINDS[((b >> 2) & 0x03) as usize];
        (Record::Checkpoint { loop_id: LoopId(prev_loop), kind }, 1, prev_instr, prev_loop)
    } else {
        let (rec, len, loop_id) = match (b >> 5) & 0x03 {
            0 => cp_new::<1>(b, w),
            1 => cp_new::<2>(b, w),
            2 => cp_new::<3>(b, w),
            _ => cp_new::<4>(b, w),
        };
        (rec, len, prev_instr, loop_id)
    };
    debug_assert_eq!(len, (INFO[b as usize] & 0x0f) as usize);
    Some((rec, start + len, prev_instr, prev_loop))
}

/// [`fast_step`] arm: access with an explicit `IBYTES`-byte instruction
/// delta and an `ABYTES`-byte address delta. Returns the record, the total
/// record length (constant), and the new previous-instruction value.
#[inline(always)]
fn acc_new<const IBYTES: usize, const ABYTES: usize>(
    b: u8,
    w: u64,
    prev_instr: u32,
    table: &mut [u32; 256],
) -> (Record, usize, u32) {
    let instr = prev_instr.wrapping_add(sext(w as u32, IBYTES) as u32);
    let s = slot(instr);
    let d = sext((w >> (8 * IBYTES)) as u32, ABYTES);
    let addr = table[s].wrapping_add(d as u32);
    table[s] = addr;
    let kind = if b & 0x04 != 0 { AccessKind::Write } else { AccessKind::Read };
    (
        Record::Access(Access { instr: InstrAddr(instr), addr: MemAddr(addr), kind }),
        1 + IBYTES + ABYTES,
        instr,
    )
}

/// [`fast_step`] arm: access repeating the previous instruction, with an
/// `ABYTES`-byte address delta.
#[inline(always)]
fn acc_same<const ABYTES: usize>(
    b: u8,
    w: u64,
    prev_instr: u32,
    table: &mut [u32; 256],
) -> (Record, usize) {
    let s = slot(prev_instr);
    let d = sext(w as u32, ABYTES);
    let addr = table[s].wrapping_add(d as u32);
    table[s] = addr;
    let kind = if b & 0x04 != 0 { AccessKind::Write } else { AccessKind::Read };
    (Record::Access(Access { instr: InstrAddr(prev_instr), addr: MemAddr(addr), kind }), 1 + ABYTES)
}

/// [`fast_step`] arm: checkpoint with an explicit `LBYTES`-byte loop id.
#[inline(always)]
fn cp_new<const LBYTES: usize>(b: u8, w: u64) -> (Record, usize, u32) {
    let kind = CHECKPOINT_KINDS[((b >> 2) & 0x03) as usize];
    let loop_id = zext(w as u32, LBYTES);
    (Record::Checkpoint { loop_id: LoopId(loop_id), kind }, 1 + LBYTES, loop_id)
}

/// Decodes the record at `bytes[*pos]`, advancing `*pos` and reporting
/// errors at `base + *pos`.
///
/// The per-record decode step behind the framed readers' `next()`: the
/// [`fast_step`] window when a worst-case record fits in the remaining
/// input, the careful [`decode_one`] — which checks per byte and produces
/// the exact typed error — near the end of the input or on a malformed
/// packed byte. Bulk consumers should prefer [`decode_fold`], which keeps
/// the loop-carried scalars in registers across records.
///
/// # Errors
///
/// The same typed [`DecodeError`]s as [`decode_one`], offset at the
/// record's packed byte.
#[inline(always)]
pub(crate) fn decode_step(
    bytes: &[u8],
    pos: &mut usize,
    base: u64,
    state: &mut V2State,
) -> Result<Record, DecodeError> {
    let start = *pos;
    if bytes.len() - start >= MAX_RECORD_BYTES {
        if let Some((rec, next, prev_instr, prev_loop)) = fast_step(
            bytes,
            start,
            bytes[start],
            state.prev_instr,
            state.prev_loop,
            &mut state.addr_table,
        ) {
            *pos = next;
            state.prev_instr = prev_instr;
            state.prev_loop = prev_loop;
            return Ok(rec);
        }
    }
    let (rec, n) = careful(bytes, start, base, state)?;
    *pos = start + n;
    Ok(rec)
}

/// Careful-path fallback shared by [`decode_step`] and [`decode_fold`]:
/// truncation window, malformed packed byte, or end of input —
/// [`decode_one`] distinguishes them. Out of line so the fast paths stay
/// compact.
#[cold]
fn careful(
    bytes: &[u8],
    start: usize,
    base: u64,
    state: &mut V2State,
) -> Result<(Record, usize), DecodeError> {
    decode_one(&bytes[start..], base + start as u64, state)
}

/// Folds every record from `bytes[*pos]` to the end of the payload into
/// `acc` — the bulk path behind the framed readers' `fold`.
///
/// Functionally [`decode_step`] in a loop, but the loop-carried scalars
/// (position, previous instr, previous loop id) live in locals: threaded
/// through a `&mut V2State` they are stored and reloaded once per record
/// — the careful fallback's escaping pointer keeps the compiler from
/// register-promoting them — which puts a store-to-load forward on the
/// chain that sequences record boundaries. Here the fallback syncs the
/// state only on its own cold edge. `*pos` and `state` are written back
/// on every exit, so a decode error leaves them at the failed record
/// exactly as a `decode_step` loop would, and the returned error carries
/// the same offset.
pub(crate) fn decode_fold<B>(
    bytes: &[u8],
    pos: &mut usize,
    base: u64,
    state: &mut V2State,
    acc: B,
    mut f: impl FnMut(B, Record) -> B,
) -> (B, Option<DecodeError>) {
    let n = bytes.len();
    let mut p = *pos;
    let mut prev_instr = state.prev_instr;
    let mut prev_loop = state.prev_loop;
    let mut acc = acc;
    let err = 'outer: loop {
        if p >= n {
            break None;
        }
        // Tail window or a packed byte the fast path rejected: decode one
        // record carefully, then rejoin.
        if n - p < MAX_RECORD_BYTES || INFO[bytes[p] as usize] == 0 {
            state.prev_instr = prev_instr;
            state.prev_loop = prev_loop;
            match careful(bytes, p, base, state) {
                Ok((rec, len)) => {
                    p += len;
                    prev_instr = state.prev_instr;
                    prev_loop = state.prev_loop;
                    acc = f(acc, rec);
                    continue;
                }
                Err(e) => break Some(e),
            }
        }
        // Fast runs: each `fast_step` advances `p` by a branch-selected
        // constant, so the packed-byte load below only verifies the
        // predictor's choice instead of sequencing the next iteration
        // (see `fast_step`). A worst-case record fits at `p` on entry.
        loop {
            let Some((rec, next, pi, pl)) =
                fast_step(bytes, p, bytes[p], prev_instr, prev_loop, &mut state.addr_table)
            else {
                // `p` untouched: the outer loop re-dispatches to careful.
                continue 'outer;
            };
            p = next;
            prev_instr = pi;
            prev_loop = pl;
            acc = f(acc, rec);
            if n - p < MAX_RECORD_BYTES {
                continue 'outer;
            }
        }
    };
    *pos = p;
    state.prev_instr = prev_instr;
    state.prev_loop = prev_loop;
    (acc, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a record slice as one v2 stream (fresh delta state, as at a
    /// block boundary).
    fn encode(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut state = V2State::default();
        records.iter().for_each(|r| encode_record(&mut state, r, &mut out));
        out
    }

    /// Decodes a whole v2 stream through the bulk path a block payload
    /// takes (fresh delta state), stopping at the first error.
    fn decode(bytes: &[u8]) -> Result<Vec<Record>, DecodeError> {
        let (mut state, mut pos) = (V2State::default(), 0);
        let (out, err) = decode_fold(bytes, &mut pos, 0, &mut state, Vec::new(), |mut out, rec| {
            out.push(rec);
            out
        });
        err.map_or(Ok(out), Err)
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::checkpoint(0, CheckpointKind::LoopBegin),
            Record::checkpoint(0, CheckpointKind::BodyBegin),
            Record::access(0x4002a0, 0x7fff5934, AccessKind::Write),
            Record::access(0x4002a4, 0x7fff5938, AccessKind::Read),
            Record::access(0x4002a0, 0x7fff5934, AccessKind::Write),
            Record::checkpoint(200_000, CheckpointKind::BodyEnd),
        ]
    }

    #[test]
    fn round_trip() {
        let recs = sample();
        assert_eq!(decode(&encode(&recs)).unwrap(), recs);
    }

    #[test]
    fn strided_accesses_compress_to_two_bytes() {
        let recs: Vec<Record> = (0..100)
            .map(|i| Record::access(0x400000, 0x1000_0000 + 4 * i, AccessKind::Read))
            .collect();
        let bytes = encode(&recs);
        // First record pays for the absolute values (tag + 3-byte instr
        // delta + 4-byte addr delta); every subsequent one is a
        // same-instr tag + 1-byte stride delta.
        assert_eq!(bytes.len(), 8 + 99 * 2);
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn interleaved_references_each_keep_their_own_stride() {
        // Three references walking three far-apart arrays in lockstep: the
        // per-instr address table must keep each delta at one byte even
        // though consecutive accesses jump between arrays.
        let bases = [0x1000_0000u32, 0x5000_0000, 0x9000_0000];
        let recs: Vec<Record> = (0..90)
            .map(|i| {
                let r = (i % 3) as usize;
                Record::access(0x400000 + 4 * (i % 3), bases[r] + 4 * (i / 3), AccessKind::Read)
            })
            .collect();
        let bytes = encode(&recs);
        // After the first round trip through the three references, every
        // record is tag + small instr delta + 1-byte per-instr stride:
        // 3 bytes, not the 5-6 a single global predecessor would need.
        assert!(bytes.len() <= 30 + 87 * 3, "interleaved encoding too large: {}", bytes.len());
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn repeated_loop_checkpoints_are_one_byte() {
        let recs = vec![
            Record::checkpoint(7, CheckpointKind::LoopBegin),
            Record::checkpoint(7, CheckpointKind::BodyBegin),
            Record::checkpoint(7, CheckpointKind::BodyEnd),
        ];
        let bytes = encode(&recs);
        // First checkpoint: tag + 1-byte loop id. The next two reuse the
        // loop id via the same-loop flag: one byte each.
        assert_eq!(bytes.len(), 2 + 1 + 1);
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn extreme_values_round_trip() {
        let recs = vec![
            Record::access(u32::MAX, 0, AccessKind::Read),
            Record::access(0, u32::MAX, AccessKind::Write),
            Record::access(u32::MAX, u32::MAX, AccessKind::Read),
            Record::checkpoint(u32::MAX, CheckpointKind::LoopBegin),
        ];
        assert_eq!(decode(&encode(&recs)).unwrap(), recs);
    }

    #[test]
    fn field_lengths_are_minimal_and_round_trip() {
        for (d, n) in [
            (0i32, 1),
            (127, 1),
            (-128, 1),
            (128, 2),
            (-129, 2),
            (0x7fff, 2),
            (-0x8000, 2),
            (0x8000, 3),
            (-0x8001, 3),
            (0x7f_ffff, 3),
            (-0x80_0000, 3),
            (0x80_0000, 4),
            (i32::MAX, 4),
            (i32::MIN, 4),
        ] {
            assert_eq!(signed_len(d), n, "signed_len({d})");
            let mut out = Vec::new();
            push_le(d as u32, n, &mut out);
            assert_eq!(sext(load_le(&out), n), d, "round trip of {d} in {n} bytes");
        }
        for (v, n) in [
            (0u32, 1),
            (255, 1),
            (256, 2),
            (65535, 2),
            (65536, 3),
            (0xff_ffff, 3),
            (0x100_0000, 4),
            (u32::MAX, 4),
        ] {
            assert_eq!(unsigned_len(v), n, "unsigned_len({v})");
            let mut out = Vec::new();
            push_le(v, n, &mut out);
            assert_eq!(zext(load_le(&out), n), v, "round trip of {v} in {n} bytes");
        }
    }

    #[test]
    fn rejects_bad_tags_truncation_and_contradictory_lengths() {
        let err = decode(&[0x00]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadTag(0x00));
        let err = decode(&[0x03]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadTag(0x03));
        // Checkpoint with the reserved top bit set.
        let err = decode(&[0x81, 0]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadTag(0x81));
        // A same-loop checkpoint carrying loop-id length bits.
        let err = decode(&[0x31]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadTag(0x31));
        // Checkpoint kind 3 is out of range.
        let err = decode(&[TYPE_CHECKPOINT | (3 << 2), 0]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadCheckpointKind(3));
        // A same-instr access carrying instr-delta length bits.
        let err = decode(&[0x4a, 0]).unwrap_err();
        assert_eq!(err.reason, DecodeReason::BadTag(0x4a));
        // Access cut off inside its address delta.
        let err = decode(&[TYPE_ACCESS, 0]).unwrap_err();
        assert!(matches!(err.reason, DecodeReason::Truncated { .. }), "{:?}", err.reason);
        // Checkpoint cut off inside a 4-byte loop id.
        let err = decode(&[TYPE_CHECKPOINT | (3 << 5), 1, 2, 3]).unwrap_err();
        assert!(matches!(err.reason, DecodeReason::Truncated { .. }), "{:?}", err.reason);
    }

    #[test]
    fn error_offsets_point_at_the_failing_record() {
        let mut bytes = encode(&sample()[..2]);
        let good = bytes.len();
        bytes.push(0x00);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.offset, good as u64);
    }

    #[test]
    fn block_boundary_state_reset_is_the_callers_contract() {
        // Encoding two halves with fresh states and decoding them with
        // fresh states must agree with the one-shot encoding record-wise.
        let recs = sample();
        let (a, b) = recs.split_at(3);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let mut s = V2State::default();
        for r in a {
            encode_record(&mut s, r, &mut left);
        }
        let mut s = V2State::default();
        for r in b {
            encode_record(&mut s, r, &mut right);
        }
        let mut decoded = decode(&left).unwrap();
        decoded.extend(decode(&right).unwrap());
        assert_eq!(decoded, recs);
    }
}
