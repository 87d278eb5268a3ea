//! Differential suite: the compiled VM engine against the tree-walking
//! oracle.
//!
//! The VM's contract is **byte-identity** — not "equivalent analysis" but
//! the same trace, record for record, byte for byte, for every program the
//! suite can throw at it:
//!
//! * every corpus workload at scale 1 and 2 (trace bytes, access and
//!   checkpoint counts, printed output, heap allocations);
//! * the full pipeline end to end (analysis, emitted FORAY model code,
//!   trace statistics);
//! * runtime *errors* (same variant, same message) on the failure paths;
//! * property tests over randomized inputs and scales.

use foray::ForayGen;
use foray_workloads::{all, Params};
use minic_sim::{Engine, RuntimeError, SimConfig, SimOutcome};
use minic_trace::Record;
use proptest::prelude::*;

fn config(engine: Engine) -> SimConfig {
    SimConfig { engine, ..SimConfig::default() }
}

fn run_engine(
    src: &str,
    inputs: &[i64],
    engine: Engine,
) -> Result<(SimOutcome, Vec<Record>), RuntimeError> {
    let prog = minic::frontend(src).expect("workload compiles");
    minic_sim::run(&prog, &config(engine), inputs)
}

/// Asserts full observable equality of one program run under both engines.
/// Returns the record count so callers can sanity-check coverage.
fn assert_engines_agree(name: &str, src: &str, inputs: &[i64]) -> usize {
    let tree = run_engine(src, inputs, Engine::Tree);
    let vm = run_engine(src, inputs, Engine::Vm);
    match (tree, vm) {
        (Ok((to, tr)), Ok((vo, vr))) => {
            // Byte-identity covers access records *and* checkpoints.
            let tb = minic_trace::binary::to_bytes(&tr);
            let vb = minic_trace::binary::to_bytes(&vr);
            if tb != vb {
                let at = tr.iter().zip(&vr).position(|(a, b)| a != b).map_or_else(
                    || format!("lengths {} vs {}", tr.len(), vr.len()),
                    |i| format!("record {i}: {:?} vs {:?}", tr[i], vr[i]),
                );
                panic!("{name}: trace divergence at {at}");
            }
            assert_eq!(to.printed, vo.printed, "{name}: printed output");
            assert_eq!(to.accesses, vo.accesses, "{name}: access count");
            assert_eq!(to.checkpoints, vo.checkpoints, "{name}: checkpoint count");
            assert_eq!(to.heap_allocations, vo.heap_allocations, "{name}: heap allocations");
            tr.len()
        }
        (Err(te), Err(ve)) => {
            assert_eq!(te, ve, "{name}: error divergence");
            assert_eq!(te.to_string(), ve.to_string(), "{name}: error message divergence");
            0
        }
        (t, v) => panic!(
            "{name}: one engine failed: tree={:?} vm={:?}",
            t.map(|(o, _)| o.accesses),
            v.map(|(o, _)| o.accesses)
        ),
    }
}

#[test]
fn all_workloads_byte_identical_at_scale_1_and_2() {
    for scale in [1u32, 2] {
        for w in all(Params { scale }) {
            let n =
                assert_engines_agree(&format!("{} scale {scale}", w.name), &w.source, &w.inputs);
            assert!(n > 1_000, "{} scale {scale}: trace suspiciously small ({n} records)", w.name);
        }
    }
}

#[test]
fn pipeline_end_to_end_identical() {
    // The whole Algorithm 1 flow — profile, analyze online, extract,
    // emit — must produce the same model code under either engine.
    for w in all(Params::default()) {
        let tree = w.run_with(ForayGen::new().sim(config(Engine::Tree))).unwrap();
        let vm = w.run_with(ForayGen::new().sim(config(Engine::Vm))).unwrap();
        assert_eq!(tree.analysis, vm.analysis, "{}: analysis", w.name);
        assert_eq!(tree.code, vm.code, "{}: emitted model code", w.name);
        assert_eq!(tree.hints.len(), vm.hints.len(), "{}: inline hints", w.name);
    }
}

#[test]
fn call_overhead_off_is_also_identical() {
    let w = foray_workloads::by_name("gsmc", Params::default()).unwrap();
    let cfg = |engine| SimConfig { model_call_overhead: false, engine, ..SimConfig::default() };
    let prog = w.frontend().unwrap();
    let (to, tr) = minic_sim::run(&prog, &cfg(Engine::Tree), &w.inputs).unwrap();
    let (vo, vr) = minic_sim::run(&prog, &cfg(Engine::Vm), &w.inputs).unwrap();
    assert_eq!(minic_trace::binary::to_bytes(&tr), minic_trace::binary::to_bytes(&vr));
    assert_eq!(to.printed, vo.printed);
}

#[test]
fn error_paths_match_the_oracle() {
    // Programs that fault: both engines must raise the same error, with
    // the same message, after the same trace prefix.
    let cases: &[(&str, &str)] = &[
        ("div-by-zero", "void main() { int x; x = 1 / (x - x); }"),
        ("rem-by-zero", "void main() { int x; x = 1 % (x - x); }"),
        ("deref-int", "void main() { int x; *x = 1; }"),
        ("index-int", "void main() { int x; int y; y = x[3]; }"),
        ("deep-recursion", "int f(int n) { return f(n + 1); } void main() { f(0); }"),
        ("addr-of-register", "int *p; void main() { int x; p = &x; }"),
        ("bad-memset", "char b[4]; void main() { memset(b, 0, 0 - 5); }"),
        ("bad-malloc", "char *p; void main() { p = malloc(0 - 1); }"),
        ("huge-local-array", "void main() { int big[67000000]; big[0] = 1; }"),
        ("compound-div-zero", "int g; void main() { g = 4; g /= g - g; }"),
    ];
    for (name, src) in cases {
        let mut prog = minic::parse(src).expect("parses");
        minic::check(&mut prog).expect("checks");
        let tree = minic_sim::run(&prog, &config(Engine::Tree), &[]);
        let vm = minic_sim::run(&prog, &config(Engine::Vm), &[]);
        let te = tree.expect_err(name);
        let ve = vm.expect_err(name);
        assert_eq!(te, ve, "{name}: error variant");
        assert_eq!(te.to_string(), ve.to_string(), "{name}: error message");
    }
}

#[test]
fn step_limit_guards_both_engines() {
    let prog = minic::frontend("void main() { while (1) { } }").unwrap();
    for engine in [Engine::Tree, Engine::Vm] {
        let cfg = SimConfig { max_steps: 10_000, engine, ..SimConfig::default() };
        assert_eq!(
            minic_sim::run(&prog, &cfg, &[]),
            Err(RuntimeError::StepLimitExceeded),
            "{engine:?}"
        );
    }
}

#[test]
fn scope_and_shadowing_semantics_match() {
    // Targeted programs for resolution edge cases the corpus does not
    // exercise: shadowing, use-before-redeclaration, loop-scoped arrays
    // reallocating per iteration, two-context locals.
    let cases: &[&str] = &[
        // Shadowing restores the outer binding.
        "void main() { int x; x = 1; { int x; x = 2; print_int(x); } print_int(x); }",
        // An initializer reads the *outer* binding of the same name.
        "void main() { int x; x = 7; { int x = x + 1; print_int(x); } }",
        // A local array declared inside a loop body reallocates per
        // iteration (the stack pointer keeps descending until return).
        "int f() { int i; int s; s = 0;
           for (i = 0; i < 4; i++) { int buf[8]; buf[0] = i; s += buf[0]; }
           return s; }
         void main() { print_int(f()); print_int(f()); }",
        // Local arrays at different call depths (paper Fig. 7).
        "int deep(int d) { int buf[4]; buf[0] = d; return buf[0]; }
         int wrap(int d) { return deep(d); }
         void main() { deep(1); wrap(2); }",
        // For-init declarations scope over the loop only.
        "int a[8]; void main() { for (int i = 0; i < 8; i++) { a[i] = i; } print_int(a[5]); }",
        // Pointer walks, ternaries, logical operators, compound ops.
        "char q[100]; char *p;
         void main() { int i; p = q;
           for (i = 0; i < 10; i++) { *p++ = i > 4 && i < 8 ? i : 0 - i; }
           print_int(q[6]); }",
        // Pointer difference, comparison, int** round trips.
        "int *rows[4]; int data[8];
         void main() { int i;
           for (i = 0; i < 4; i++) { rows[i] = &data[i * 2]; }
           rows[1][1] = 42;
           print_int(data[3]); print_int(&data[7] - &data[2]); }",
        // Heap traffic and library routines.
        "int *p; void main() { p = malloc(40); memset(p, 0, 10); int i;
           for (i = 0; i < 10; i++) { p[i] = rand(); }
           memcpy(p, p + 5, 13); free(p); print_int(p[1]); }",
        // break / continue / return inside nested instrumented loops.
        "int g[32];
         int f(int n) { int i; int s; s = 0;
           for (i = 0; i < n; i++) {
             if (i == 3) { continue; }
             while (1) { g[i] = i; break; }
             if (i == 7) { return s; }
             s += g[i];
           }
           return s; }
         void main() { print_int(f(10)); }",
        // do-while with global iterator and srand/rand interplay.
        "int n; void main() { srand(9); n = 0;
           do { n++; } while (rand() % 7 != 0);
           print_int(n); }",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert_engines_agree(&format!("case {i}"), src, &[3, 1, 4, 1, 5]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random inputs and scales: the engines stay byte-identical on every
    /// corpus workload regardless of the data the program consumes.
    #[test]
    fn engines_agree_on_random_inputs(
        which in 0usize..foray_workloads::all(Params { scale: 1 }).len(),
        scale in 1u32..=2,
        inputs in proptest::collection::vec(-5000i64..5000, 1..24),
    ) {
        let w = &all(Params { scale })[which];
        assert_engines_agree(&format!("{} scale {scale}", w.name), &w.source, &inputs);
    }
}
