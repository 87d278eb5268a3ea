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
//! * runtime *errors* on the failure paths, a fault inside each fused op
//!   among them (the same records before the error, then the same variant
//!   and message);
//! * property tests over randomized inputs and scales, and over generated
//!   programs that put each fused op next to a jump label.

use foray::ForayGen;
use foray_workloads::{all, Params};
use minic::Program;
use minic_sim::{Engine, RuntimeError, SimConfig, SimOutcome};
use minic_trace::{Record, VecSink};
use proptest::prelude::*;

fn config(engine: Engine) -> SimConfig {
    SimConfig { engine, ..SimConfig::default() }
}

/// Runs `prog` on one engine: its outcome or error, and every record it
/// emitted (on an error, the prefix before it).
fn observe(
    prog: &Program,
    config: &SimConfig,
    inputs: &[i64],
) -> (Result<SimOutcome, RuntimeError>, Vec<Record>) {
    let mut sink = VecSink::new();
    let result = minic_sim::run_with_sink(prog, config, inputs, &mut sink);
    (result, sink.into_records())
}

/// Asserts full observable equality of one program run under both engines:
/// the same records, or on an error the same prefix before it, and then
/// the same outcome or the same error variant and message. Returns the
/// agreed records and result.
fn assert_programs_agree(
    name: &str,
    prog: &Program,
    inputs: &[i64],
) -> (Vec<Record>, Result<SimOutcome, RuntimeError>) {
    let (tree, tr) = observe(prog, &config(Engine::Tree), inputs);
    let (vm, vr) = observe(prog, &config(Engine::Vm), inputs);
    // Identity covers access records *and* checkpoints.
    if tr != vr {
        let at = tr.iter().zip(&vr).position(|(a, b)| a != b).map_or_else(
            || format!("lengths {} vs {}", tr.len(), vr.len()),
            |i| format!("record {i}: {:?} vs {:?}", tr[i], vr[i]),
        );
        panic!("{name}: trace divergence at {at}");
    }
    match (&tree, &vm) {
        (Ok(to), Ok(vo)) => {
            assert_eq!(to.printed, vo.printed, "{name}: printed output");
            assert_eq!(to.accesses, vo.accesses, "{name}: access count");
            assert_eq!(to.checkpoints, vo.checkpoints, "{name}: checkpoint count");
            assert_eq!(to.heap_allocations, vo.heap_allocations, "{name}: heap allocations");
        }
        (Err(te), Err(ve)) => {
            assert_eq!(te, ve, "{name}: error divergence");
            assert_eq!(te.to_string(), ve.to_string(), "{name}: error message divergence");
        }
        (t, v) => panic!(
            "{name}: one engine failed: tree={:?} vm={:?}",
            t.as_ref().map(|o| o.accesses),
            v.as_ref().map(|o| o.accesses)
        ),
    }
    (tr, tree)
}

/// [`assert_programs_agree`] on a source through the full frontend, with
/// the default configuration. Returns the record count of a clean run, or
/// 0 when both engines fail alike.
fn assert_engines_agree(name: &str, src: &str, inputs: &[i64]) -> usize {
    let prog = minic::frontend(src).expect("program compiles");
    match assert_programs_agree(name, &prog, inputs) {
        (records, Ok(_)) => records.len(),
        (_, Err(_)) => 0,
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
fn error_paths_match_the_oracle() {
    // Programs that fault: both engines must raise the same error, with
    // the same message, after the same trace prefix. Step-limit cases stay
    // out: where a budget stops a run is engine-specific by design.
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
    // Faults inside each fused shape, each after records that must match.
    let fused: &[(&str, &str)] = &[
        ("slot-indexed-load", "int g; void main() { int x; int i; g = 1; i = g; g = x[i]; }"),
        ("indexed-load", "int g; void main() { int x; int i; g = 1; g = x[i + g]; }"),
        ("slot-indexed-store", "int g; void main() { int x; int i; g = 1; x[i] = g; }"),
        ("indexed-store", "int g; void main() { int x; g = 1; x[g + 1] = g; }"),
        ("index-incdec-stmt", "int g; void main() { int x; int i; g = 1; i = g; x[i]++; }"),
        ("deref-incdec-stmt", "int g; void main() { int x; g = 1; x = g; --*x; }"),
        ("compound-slot-div-zero", "int g; void main() { int s; s = g++; s /= g - 1; }"),
        ("compound-slot-rem-zero", "int g; void main() { int s; g = 2; s = g; s %= s - g; }"),
        ("imm-left-div-zero", "int g; void main() { int s; int j; g = 1; s = 5 / j; }"),
        ("slot-slot-div-zero", "int g; void main() { int s; int j; g = 1; s = s / j; }"),
        ("slot-imm-rem-zero", "int g; void main() { int s; g = 1; s = s % 0; }"),
        (
            "global-index-fault",
            "int g; int a[4]; void main() { int i; g = 1; g = a[1 / (i - i)]; }",
        ),
    ];
    let fault = |name: &str, src: &str| {
        let mut prog = minic::parse(src).expect("parses");
        minic::check(&mut prog).expect("checks");
        let (records, result) = assert_programs_agree(name, &prog, &[]);
        result.expect_err(name);
        records
    };
    for (name, src) in cases {
        fault(name, src);
    }
    for (name, src) in fused {
        assert!(!fault(name, src).is_empty(), "{name}: no prefix to compare");
    }
}

#[test]
fn step_limit_guards_both_engines() {
    let prog = minic::frontend("void main() { while (1) { } }").unwrap();
    for engine in [Engine::Tree, Engine::Vm] {
        let cfg = SimConfig { max_steps: 10_000, engine };
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

/// Statements that put each fused shape (compare-and-branch, indexed load
/// and store, statement `++`/`--`, compound store, the `for` latch,
/// global-array bases, and arithmetic on a slot and a literal or a second
/// slot) next to a jump label.
/// `{k}` is a small literal and `{K}` an immediate at or past the edge of
/// `i32`.
const FUSION_EDGES: &[&str] = &[
    // A `for` step reached by `continue`.
    "for (i = 0; i < {k}; i++) { if (a[i & 15] > {k}) { continue; } s += a[i & 15]; }",
    "s += f({k});",
    // `?:`, `&&` and `||` inside an index.
    "s += a[i < {k} ? i & 15 : j & 15];",
    "a[(j > {k} && s < 50) + 2] = s;",
    "b[(i == {k} || j != 3) + 1] += j;",
    "c[j > {k} ? j & 15 : i & 15]++;",
    // ... and in a loop condition.
    "while (j < {k} && a[j & 15] != {k}) { j++; }",
    "for (i = 0; i < 3 || i < {k}; i++) { s -= b[i & 15]; }",
    "for (i = {k}; i > 0 ? a[i & 15] : 0; i--) { s++; }",
    // Loop conditions on pointers.
    "for (q = b; q < e; q++) { s += *q; }",
    "for (q = b + ({k} & 15); q != 0 && q > b; q--) { *q = s; }",
    "q = e; while (q > b + {k}) { q--; s += q[0]; }",
    // Immediates at and past the edge of `i32`.
    "if (s < {K}) { s += 1; }",
    "while (j != {K} && j < {k}) { j++; }",
    "s += (a[j & 15] >= {K}) + (b[i & 15] < 0 - {K});",
    // `i++` and `a[i]++` as statements and inside expressions.
    "j++; --i; a[j & 15]++; --b[i & 15]; g++; c[j & 15]--;",
    "s += j++ + a[i & 15]++ - --b[j & 15] + g--;",
    "a[j++ & 15] = i--;",
    // `s += <expression that writes s>`, and compound faults.
    "s += s++;",
    "s -= a[s++ & 15];",
    "s += --s + j;",
    "s /= j - {k};",
    "s %= {k};",
    // `for` latches: counting down, a condition on another slot, a `char`
    // counter, a counter that wraps past 2147483647, a body that writes
    // its own counter, an empty body, and nested latches.
    "for (i = {k} + 3; i >= {k}; i--) { s += a[i & 15]; }",
    "for (i = 0; j < {k}; i++) { j++; s += i; }",
    "{ char ch; for (ch = 250; ch != {k}; ch++) { s += ch; } }",
    "for (i = 2147483647 - {k}; i > {k}; i++) { s++; }",
    "for (i = 0; i < {k}; i++) { i += 2; s -= i; }",
    "for (i = 0; i < {k}; i++) { }",
    "for (i = 0; i < 3; i++) { for (j = {k}; j > 0; j--) { s += b[(i + j) & 15]; } }",
    // Global arrays indexed by expressions with side effects, and a local
    // array shadowing a global one.
    "s += a[g++ & 15]; a[g++ & 15] = s;",
    "a[f({k}) & 15] = a[j & 15];",
    "{ int a[4]; a[i & 3] = {k}; s += a[j & 3] + a[0]; }",
    // Immediate-left and slot-operand arithmetic.
    "s += {k} * i + {k} / j;",
    "s -= {K} - i;",
    "s += i * j - (j + {K}) + (i < {k}) + s % j;",
];

/// Literals at and past the edge of `i32` (`0 - n` folds to a negative
/// literal).
const EDGE_IMMEDIATES: &[&str] = &[
    "2147483647",
    "2147483648",
    "(0 - 2147483648)",
    "(0 - 2147483649)",
    "3000000000",
    "4294967296",
];

/// A program running `picks` of [`FUSION_EDGES`] in order, then printing
/// every variable it touched.
fn fusion_edge_program(s0: i64, j0: i64, picks: &[(usize, i64, usize)]) -> String {
    let mut body = String::new();
    for &(shape, k, big) in picks {
        let stmt =
            FUSION_EDGES[shape].replace("{k}", &k.to_string()).replace("{K}", EDGE_IMMEDIATES[big]);
        body.push_str(&stmt);
        body.push('\n');
    }
    format!(
        "int a[16]; int b[16]; char c[16]; int g;
         int f(int n) {{ int t; int r; r = 0;
           for (t = 0; t < n; t++) {{ if (t == 2) {{ continue; }} r += t; }}
           return r; }}
         void main() {{ int i; int j; int s; int *q; int *e;
           s = {s0}; j = {j0}; e = b + 16;
           for (i = 0; i < 16; i++) {{ a[i] = i * 3 - 7; b[i] = 16 - i; c[i] = i * 37; }}
           {body}
           print_int(s); print_int(i); print_int(j); print_int(g);
           for (i = 0; i < 16; i++) {{ print_int(a[i] + b[i] + c[i]); }} }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every fused shape next to a jump label: the engines agree on trace
    /// bytes, printed output and errors.
    #[test]
    fn engines_agree_at_fusion_boundaries(
        s0 in 0i64..10,
        j0 in 0i64..10,
        picks in proptest::collection::vec(
            (0..FUSION_EDGES.len(), 0i64..20, 0..EDGE_IMMEDIATES.len()),
            1..8,
        ),
    ) {
        let src = fusion_edge_program(s0, j0, &picks);
        assert_engines_agree(&src, &src, &[]);
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
