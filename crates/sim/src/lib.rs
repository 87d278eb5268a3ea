//! # minic-sim — a profiling simulator for mini-C
//!
//! The instruction-set-simulator substitute in the FORAY-GEN reproduction
//! (the paper used a modified SimpleScalar). It executes a
//! [`minic::Program`] deterministically in a flat 32-bit address space and
//! streams a profiling trace — memory accesses with synthetic instruction
//! addresses, interleaved with loop checkpoints — into any
//! [`minic_trace::TraceSink`]. Running the analyzer *as* the sink gives the
//! paper's constant-space online mode; collecting into a
//! [`minic_trace::VecSink`] or a trace file gives the offline mode.
//!
//! Two execution engines produce **byte-identical** traces:
//!
//! * [`Engine::Vm`] (the default) [`compile`]s the program once into a
//!   slot-resolved bytecode and executes it on [`Vm`] — no string hashing,
//!   no type clones, no per-scope allocation on the hot path;
//! * [`Engine::Tree`] walks the AST directly ([`Interp`]). It is the
//!   differential oracle: slower, but structurally close to the semantics
//!   it implements.
//!
//! Select the engine through [`SimConfig::engine`]; `tests/vm_equiv.rs`
//! locks the two engines together on the whole workload corpus.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = minic::frontend(
//!     "int a[16];
//!      void main() { int i; for (i = 0; i < 16; i++) { a[i] = i; } }",
//! )?;
//! let (outcome, trace) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[])?;
//! assert_eq!(outcome.accesses, 16);
//! assert!(trace.iter().any(|r| matches!(r, minic_trace::Record::Access(_))));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod interp;
pub mod lower;
pub mod mem;
pub(crate) mod syslib;
pub mod value;
pub mod vm;

pub use bytecode::{CompiledProgram, Op, TyKind, TypeId, TypeTable, VmValue};
pub use interp::{Interp, RuntimeError, SimConfig, SimOutcome, MAX_CALL_DEPTH};
pub use lower::compile;
pub use mem::{Heap, HeapBlock, Memory};
pub use value::Value;
pub use vm::Vm;

use minic::Program;
use minic_trace::{Record, TraceSink, VecSink};

/// Which execution engine profiles the program. Both emit byte-identical
/// traces; see the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tree-walking interpreter ([`Interp`]) — the differential oracle.
    Tree,
    /// Compiled bytecode VM ([`Vm`]) — the fast default.
    #[default]
    Vm,
}

impl Engine {
    /// Parses an engine name (`"tree"` / `"vm"`), as accepted by the CLI's
    /// `--engine` flag.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "tree" => Some(Engine::Tree),
            "vm" => Some(Engine::Vm),
            _ => None,
        }
    }

    /// The CLI spelling of the engine.
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
        }
    }
}

/// Runs a program, collecting the full trace in memory.
///
/// # Errors
///
/// Any [`RuntimeError`] raised during execution.
pub fn run(
    prog: &Program,
    config: &SimConfig,
    inputs: &[i64],
) -> Result<(SimOutcome, Vec<Record>), RuntimeError> {
    let mut sink = VecSink::new();
    let outcome = run_with_sink(prog, config, inputs, &mut sink)?;
    Ok((outcome, sink.into_records()))
}

/// Runs a program, streaming records into the caller's sink — the paper's
/// online analysis mode (constant space in the trace length).
///
/// # Errors
///
/// Any [`RuntimeError`] raised during execution.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = minic::frontend("int g; void main() { g = 1; }")?;
/// let mut count = minic_trace::CountingSink::new();
/// let outcome = minic_sim::run_with_sink(
///     &prog, &minic_sim::SimConfig::default(), &[], &mut count)?;
/// assert_eq!(count.accesses, outcome.accesses);
/// # Ok(())
/// # }
/// ```
pub fn run_with_sink<S: TraceSink>(
    prog: &Program,
    config: &SimConfig,
    inputs: &[i64],
    sink: &mut S,
) -> Result<SimOutcome, RuntimeError> {
    match config.engine {
        Engine::Tree => {
            let interp = Interp::new(prog, config.clone(), inputs.to_vec(), sink);
            let (outcome, _) = interp.run()?;
            Ok(outcome)
        }
        Engine::Vm => {
            let compiled = compile(prog);
            let vm = Vm::new(&compiled, config.clone(), inputs.to_vec(), sink);
            let (outcome, _) = vm.run()?;
            Ok(outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_trace::{layout, AccessKind};

    fn run_src(src: &str) -> (SimOutcome, Vec<Record>) {
        let prog = minic::frontend(src).expect("valid program");
        run(&prog, &SimConfig::default(), &[]).expect("clean run")
    }

    fn run_src_uninstrumented(src: &str) -> (SimOutcome, Vec<Record>) {
        let mut prog = minic::parse(src).expect("parses");
        minic::check(&mut prog).expect("checks");
        run(&prog, &SimConfig::default(), &[]).expect("clean run")
    }

    #[test]
    fn array_writes_traced_at_global_base() {
        let (outcome, trace) =
            run_src_uninstrumented("int a[4]; void main() { int i; for (i=0;i<4;i++) a[i] = i; }");
        assert_eq!(outcome.accesses, 4);
        let addrs: Vec<u32> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Access(a) => Some(a.addr.0),
                _ => None,
            })
            .collect();
        assert_eq!(
            addrs,
            vec![
                layout::GLOBAL_BASE,
                layout::GLOBAL_BASE + 4,
                layout::GLOBAL_BASE + 8,
                layout::GLOBAL_BASE + 12
            ]
        );
    }

    #[test]
    fn char_array_steps_by_one_byte() {
        let (_, trace) =
            run_src_uninstrumented("char c[4]; void main() { int i; for (i=0;i<4;i++) c[i] = i; }");
        let addrs: Vec<u32> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Access(a) => Some(a.addr.0),
                _ => None,
            })
            .collect();
        assert_eq!(addrs[1] - addrs[0], 1);
    }

    #[test]
    fn pointer_arithmetic_scales() {
        // `p += 1` on int* moves 4 bytes.
        let (_, trace) = run_src_uninstrumented(
            "int a[8]; int *p; void main() { p = a; *p = 1; p += 1; *p = 2; }",
        );
        let addrs: Vec<u32> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Access(a) if a.kind == AccessKind::Write => Some(a.addr.0),
                _ => None,
            })
            .collect();
        // p is a global pointer: writes to p itself + writes through p.
        // Filter to the array segment (p lives at a different global slot).
        let through: Vec<u32> =
            addrs.iter().copied().filter(|a| *a < layout::GLOBAL_BASE + 32).collect();
        assert_eq!(through[1] - through[0], 4);
    }

    #[test]
    fn computation_is_correct_fib() {
        let (outcome, _) = run_src_uninstrumented(
            "int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
             void main() { print_int(fib(10)); }",
        );
        assert_eq!(outcome.printed, vec![55]);
    }

    #[test]
    fn computation_through_memory() {
        let (outcome, _) = run_src_uninstrumented(
            "int a[10];
             void main() {
               int i; int s;
               for (i = 0; i < 10; i++) { a[i] = i * i; }
               s = 0;
               for (i = 0; i < 10; i++) { s += a[i]; }
               print_int(s);
             }",
        );
        assert_eq!(outcome.printed, vec![285]);
    }

    #[test]
    fn figure4_trace_shape() {
        // The paper's Fig 4(a) program: 2 outer iterations × 3 inner writes.
        let (outcome, trace) = run_src(
            "char q[10000]; char *ptr;
             void main() { int i; int t1 = 98; ptr = q;
               while (t1 < 100) { t1++; ptr += 100;
                 for (i = 40; i > 37; i--) { *ptr++ = i*i % 256; } } }",
        );
        assert!(outcome.accesses > 6);
        let through_q: Vec<u32> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Access(a)
                    if a.kind == AccessKind::Write
                        && (layout::GLOBAL_BASE..layout::GLOBAL_BASE + 10000)
                            .contains(&a.addr.0) =>
                {
                    Some(a.addr.0)
                }
                _ => None,
            })
            .collect();
        let q = layout::GLOBAL_BASE;
        assert_eq!(through_q, vec![q + 100, q + 101, q + 102, q + 203, q + 204, q + 205]);
        // Checkpoints: while loop entered once (LB) with 2 iterations
        // (2 BB + 2 BE), for loop entered twice (2 LB) with 3 iterations each
        // (6 BB + 6 BE).
        assert_eq!(outcome.checkpoints, 1 + 2 + 2 + 2 + 6 + 6);
    }

    #[test]
    fn local_arrays_reallocate_per_depth() {
        // Fig 7, first case: the local array lands at different addresses
        // when frames differ; force different depths via a wrapper.
        let (_, trace) = run_src_uninstrumented(
            "int deep(int d) { int buf[4]; buf[0] = d; return buf[0]; }
             int wrap(int d) { return deep(d); }
             void main() { deep(1); wrap(2); }",
        );
        // Frame-traffic writes also land on the stack and trivially move
        // with sp, so restrict to user-code stores (the `buf[0] = d` site)
        // and require the same instruction to hit two distinct addresses
        // across the two call depths.
        let mut addrs_by_instr: std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>> =
            std::collections::BTreeMap::new();
        for r in &trace {
            if let Record::Access(a) = r {
                if a.kind == AccessKind::Write
                    && a.addr.0 > layout::HEAP_BASE
                    && (layout::CODE_BASE..layout::FRAME_CODE_BASE).contains(&a.instr.0)
                {
                    addrs_by_instr.entry(a.instr.0).or_default().insert(a.addr.0);
                }
            }
        }
        assert!(
            addrs_by_instr.values().any(|addrs| addrs.len() >= 2),
            "no user store was re-executed at a different stack address: {addrs_by_instr:?}"
        );
    }

    #[test]
    fn library_traffic_is_tagged() {
        let (_, trace) = run_src_uninstrumented(
            "char *p; void main() { p = malloc(64); memset(p, 0, 64); free(p); }",
        );
        let lib = trace
            .iter()
            .filter(|r| match r {
                Record::Access(a) => layout::is_library_instr(a.instr),
                _ => false,
            })
            .count();
        // malloc header write + 16 word memsets + free header read.
        assert_eq!(lib, 1 + 16 + 1);
    }

    #[test]
    fn malloc_returns_usable_memory() {
        let (outcome, _) = run_src_uninstrumented(
            "int *p; void main() { p = malloc(40);
               int i; for (i = 0; i < 10; i++) { p[i] = i; }
               print_int(p[7]); }",
        );
        assert_eq!(outcome.printed, vec![7]);
    }

    #[test]
    fn memcpy_copies() {
        let (outcome, _) = run_src_uninstrumented(
            "int a[4]; int b[4];
             void main() { a[0]=1; a[1]=2; a[2]=3; a[3]=4;
               memcpy(b, a, 16); print_int(b[2]); }",
        );
        assert_eq!(outcome.printed, vec![3]);
    }

    #[test]
    fn input_is_deterministic() {
        let prog = minic::frontend(
            "void main() { print_int(input(0)); print_int(input(1)); print_int(input(0)); }",
        )
        .unwrap();
        let (o1, _) = run(&prog, &SimConfig::default(), &[10, 20]).unwrap();
        let (o2, _) = run(&prog, &SimConfig::default(), &[10, 20]).unwrap();
        assert_eq!(o1.printed, vec![10, 20, 10]);
        assert_eq!(o1.printed, o2.printed);
    }

    #[test]
    fn rand_is_deterministic_and_seedable() {
        let prog =
            minic::frontend("void main() { srand(42); print_int(rand()); print_int(rand()); }")
                .unwrap();
        let (o1, _) = run(&prog, &SimConfig::default(), &[]).unwrap();
        let (o2, _) = run(&prog, &SimConfig::default(), &[]).unwrap();
        assert_eq!(o1.printed, o2.printed);
        assert!(o1.printed[0] >= 0);
        assert_ne!(o1.printed[0], o1.printed[1]);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let prog = minic::frontend("void main() { int x; x = 1 / (x - x); }").unwrap();
        assert_eq!(run(&prog, &SimConfig::default(), &[]), Err(RuntimeError::DivisionByZero));
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let prog = minic::frontend("void main() { while (1) { } }").unwrap();
        let config = SimConfig { max_steps: 10_000, ..SimConfig::default() };
        assert_eq!(run(&prog, &config, &[]), Err(RuntimeError::StepLimitExceeded));
    }

    #[test]
    fn deep_recursion_overflows() {
        let prog =
            minic::frontend("int f(int n) { return f(n + 1); } void main() { f(0); }").unwrap();
        assert_eq!(run(&prog, &SimConfig::default(), &[]), Err(RuntimeError::StackOverflow));
    }

    #[test]
    fn deref_of_int_is_an_error() {
        let mut prog2 = minic::parse("void main() { int x; *x = 1; }").unwrap();
        minic::check(&mut prog2).unwrap();
        assert!(matches!(
            run(&prog2, &SimConfig::default(), &[]),
            Err(RuntimeError::DerefNonPointer { .. })
        ));
    }

    #[test]
    fn calls_emit_argument_traffic() {
        // The caller stores each argument word and the callee loads it
        // back, at the callee's frame instruction slots.
        let (outcome, trace) =
            run_src("int f(int a, int b) { return a + b; } void main() { print_int(f(1, 2)); }");
        assert_eq!(outcome.printed, vec![3]);
        let frame: Vec<_> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Access(a) if a.instr.0 >= layout::FRAME_CODE_BASE => {
                    Some((a.instr, a.kind))
                }
                _ => None,
            })
            .collect();
        let slot = |i| layout::frame_instr(0, i);
        let (w, r) = (AccessKind::Write, AccessKind::Read);
        assert_eq!(frame, [(slot(0), w), (slot(1), w), (slot(2), r), (slot(3), r)]);
    }

    #[test]
    fn checkpoints_interleave_with_accesses() {
        let (_, trace) =
            run_src("int a[4]; void main() { int i; for (i = 0; i < 2; i++) { a[i] = i; } }");
        use minic::LoopId;
        let kinds: Vec<String> = trace
            .iter()
            .map(|r| match r {
                Record::Checkpoint { loop_id: LoopId(l), kind } => {
                    format!("{}{}", kind.code(), l)
                }
                Record::Access(_) => "A".to_owned(),
            })
            .collect();
        assert_eq!(kinds, vec!["LB0", "BB0", "A", "BE0", "BB0", "A", "BE0"], "full: {kinds:?}");
    }

    #[test]
    fn do_while_executes_body_first() {
        let (outcome, _) = run_src_uninstrumented(
            "void main() { int n; n = 0; do { n++; } while (0); print_int(n); }",
        );
        assert_eq!(outcome.printed, vec![1]);
    }

    #[test]
    fn break_and_continue() {
        let (outcome, _) = run_src(
            "void main() { int i; int s; s = 0;
               for (i = 0; i < 10; i++) {
                 if (i == 3) { continue; }
                 if (i == 6) { break; }
                 s += i;
               }
               print_int(s); }",
        );
        // 0+1+2+4+5 = 12.
        assert_eq!(outcome.printed, vec![12]);
    }

    #[test]
    fn global_scalars_are_memory_resident() {
        let (outcome, _) = run_src_uninstrumented("int g; void main() { g = 7; g = g + 1; }");
        // write, read, write.
        assert_eq!(outcome.accesses, 3);
    }

    #[test]
    fn locals_are_register_allocated() {
        let (outcome, _) =
            run_src_uninstrumented("void main() { int x; x = 7; x = x + 1; print_int(x); }");
        // Only the print_int staging write (library).
        assert_eq!(outcome.accesses, 1);
        assert_eq!(outcome.printed, vec![8]);
    }

    #[test]
    fn pointer_into_int_array_via_int_star_star() {
        // Pointer stored into memory, loaded back through int**: Fig 1's
        // `result[currow++] = workspace` pattern.
        let (outcome, _) = run_src_uninstrumented(
            "int *rows[4]; int data[8];
             void main() {
               int i;
               for (i = 0; i < 4; i++) { rows[i] = &data[i * 2]; }
               rows[1][1] = 42;
               print_int(data[3]);
             }",
        );
        assert_eq!(outcome.printed, vec![42]);
    }

    #[test]
    fn outcome_counters_match_trace() {
        let (outcome, trace) =
            run_src("int a[8]; void main() { int i; for (i=0;i<8;i++) { a[i] = rand(); } }");
        let accesses = trace.iter().filter(|r| matches!(r, Record::Access(_))).count() as u64;
        let cps = trace.iter().filter(|r| matches!(r, Record::Checkpoint { .. })).count() as u64;
        assert_eq!(outcome.accesses, accesses);
        assert_eq!(outcome.checkpoints, cps);
    }

    #[test]
    fn ternary_and_logical_ops() {
        let (outcome, _) = run_src_uninstrumented(
            "void main() {
               int a; a = 5;
               print_int(a > 3 && a < 10 ? 1 : 0);
               print_int(a < 3 || a == 5);
               print_int(!a);
               print_int(a % 3);
               print_int(a << 2);
               print_int(-a);
             }",
        );
        assert_eq!(outcome.printed, vec![1, 1, 0, 2, 20, -5]);
    }

    #[test]
    fn compound_assignment_through_memory() {
        let (outcome, _) = run_src_uninstrumented(
            "int a[2]; void main() { a[0] = 10; a[0] += 5; a[0] *= 2; print_int(a[0]); }",
        );
        assert_eq!(outcome.printed, vec![30]);
        // 1 write + (read+write) + (read+write) = 5 array accesses,
        // + 1 read of a[0] as the print argument + 1 print staging write.
        assert_eq!(outcome.accesses, 7);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use minic_trace::layout;

    fn run_ok(src: &str) -> SimOutcome {
        let mut prog = minic::parse(src).expect("parses");
        minic::check(&mut prog).expect("checks");
        run(&prog, &SimConfig::default(), &[]).expect("runs").0
    }

    #[test]
    fn char_storage_wraps_to_byte() {
        let o = run_ok(
            "char c[2]; void main() { c[0] = 300; c[1] = 0 - 1; print_int(c[0]); print_int(c[1]); }",
        );
        assert_eq!(o.printed, vec![44, 255]);
    }

    #[test]
    fn int_storage_wraps_to_32_bits() {
        let o = run_ok("int g; void main() { g = 2147483647; g = g + 1; print_int(g); }");
        assert_eq!(o.printed, vec![-2147483648]);
    }

    #[test]
    fn shifts_and_bitops() {
        let o = run_ok(
            "void main() { int x; x = 5;
               print_int(x << 3); print_int(x >> 1);
               print_int(x & 3); print_int(x | 8); print_int(x ^ 1); print_int(~x); }",
        );
        assert_eq!(o.printed, vec![40, 2, 1, 13, 4, -6]);
    }

    #[test]
    fn pointer_comparison_and_difference() {
        let o = run_ok(
            "int a[10]; int *p; int *q;
             void main() { p = a; q = &a[7];
               print_int(q - p); print_int(p < q); print_int(q == q); }",
        );
        assert_eq!(o.printed, vec![7, 1, 1]);
    }

    #[test]
    fn empty_input_vector_reads_zero() {
        let o = run_ok("void main() { print_int(input(5)); }");
        assert_eq!(o.printed, vec![0]);
    }

    #[test]
    fn memset_handles_non_word_tail() {
        let mut prog = minic::parse(
            "char b[7]; void main() { memset(b, 42, 7); print_int(b[0]); print_int(b[6]); }",
        )
        .unwrap();
        minic::check(&mut prog).unwrap();
        let (o, trace) = run(&prog, &SimConfig::default(), &[]).unwrap();
        assert_eq!(o.printed, vec![42, 42]);
        // One word write + 3 byte writes, all library-tagged, plus the two
        // print_int staging writes.
        let lib_writes = trace
            .iter()
            .filter(|r| match r {
                minic_trace::Record::Access(a) => layout::is_library_instr(a.instr),
                _ => false,
            })
            .count();
        assert_eq!(lib_writes, 1 + 3 + 2);
    }

    #[test]
    fn scope_shadowing_restores_outer_binding() {
        let o =
            run_ok("void main() { int x; x = 1; { int x; x = 2; print_int(x); } print_int(x); }");
        assert_eq!(o.printed, vec![2, 1]);
    }

    #[test]
    fn global_initializers_are_loaded() {
        let o = run_ok(
            "int g = 7; int t[4] = { 10, 20, 30 };
             void main() { print_int(g); print_int(t[1]); print_int(t[3]); }",
        );
        assert_eq!(o.printed, vec![7, 20, 0]); // tail zero-filled
    }

    #[test]
    fn negative_division_truncates_toward_zero() {
        let o = run_ok(
            "void main() { print_int((0 - 7) / 2); print_int((0 - 7) % 2); print_int(7 / (0 - 2)); }",
        );
        assert_eq!(o.printed, vec![-3, -1, -3]);
    }

    #[test]
    fn min_max_abs_builtins() {
        let o = run_ok(
            "void main() { print_int(min(3, 0 - 5)); print_int(max(3, 0 - 5)); print_int(abs(0 - 9)); }",
        );
        assert_eq!(o.printed, vec![-5, 3, 9]);
    }

    #[test]
    fn malloc_zero_and_free_unknown_are_tolerated() {
        let o = run_ok("char *p; void main() { p = malloc(0); free(p); free(p); print_int(1); }");
        assert_eq!(o.printed, vec![1]);
    }

    #[test]
    fn bad_builtin_arguments_error() {
        let mut prog = minic::parse("char b[4]; void main() { memset(b, 0, 0 - 5); }").unwrap();
        minic::check(&mut prog).unwrap();
        assert!(matches!(
            run(&prog, &SimConfig::default(), &[]),
            Err(RuntimeError::BadBuiltinArgument { builtin: "memset", .. })
        ));
        let mut prog2 = minic::parse("char *p; void main() { p = malloc(0 - 1); }").unwrap();
        minic::check(&mut prog2).unwrap();
        assert!(matches!(
            run(&prog2, &SimConfig::default(), &[]),
            Err(RuntimeError::BadBuiltinArgument { builtin: "malloc", .. })
        ));
    }

    #[test]
    fn for_loop_step_runs_on_continue() {
        // C semantics: continue jumps to the step, not past it.
        let o = run_ok(
            "void main() { int i; int n; n = 0;
               for (i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } n++; }
               print_int(n); print_int(i); }",
        );
        assert_eq!(o.printed, vec![5, 10]);
    }

    #[test]
    fn error_display_strings() {
        assert_eq!(RuntimeError::DivisionByZero.to_string(), "division by zero");
        assert_eq!(RuntimeError::StackOverflow.to_string(), "stack overflow");
        assert!(RuntimeError::UnknownVariable { name: "x".into() }.to_string().contains("`x`"));
    }
}
