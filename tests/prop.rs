//! Property-based tests (proptest) for the core invariants:
//!
//! * Algorithm 3 recovers randomly generated affine access patterns
//!   *exactly*;
//! * both trace codecs round-trip arbitrary record streams;
//! * the identity sampling specs (`every:1`, `warmup:0`) change nothing;
//! * the interpreter agrees with a Rust-side reference evaluator on random
//!   arithmetic expressions;
//! * pretty-printed programs re-parse to the same text (fixpoint);
//! * the exact knapsack dominates greedy and matches brute force on small
//!   instances.

use foray::{analyze, analyze_with, AnalyzerConfig, FilterConfig, ForayModel, SampleSpec};
use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
use minic_trace::{AccessKind, Record};
use proptest::prelude::*;

// ---------- Algorithm 3 recovers synthetic affine nests ----------

#[derive(Debug, Clone)]
struct AffineSpec {
    base: u32,
    coeffs: Vec<i64>, // innermost first
    trips: Vec<u64>,  // innermost first
}

fn affine_spec() -> impl Strategy<Value = AffineSpec> {
    (1usize..=3)
        .prop_flat_map(|depth| {
            (
                0x1000_0000u32..0x2000_0000,
                proptest::collection::vec((-64i64..=64).prop_filter("nonzero", |c| *c != 0), depth),
                proptest::collection::vec(2u64..=6, depth),
            )
        })
        .prop_map(|(base, coeffs, trips)| AffineSpec { base, coeffs, trips })
}

/// Builds the exact checkpoint/access stream of a perfect loop nest
/// executing `A[base + Σ c_i * it_i]` once per innermost iteration.
fn synth_trace(spec: &AffineSpec) -> Vec<Record> {
    let depth = spec.trips.len();
    let mut recs = Vec::new();
    // Iterative odometer over outermost..innermost.
    fn rec(
        level: usize, // 0 = outermost in this walk
        depth: usize,
        spec: &AffineSpec,
        iters: &mut Vec<i64>, // innermost-first
        recs: &mut Vec<Record>,
    ) {
        let loop_id = level as u32; // outermost loop gets id 0
        let inner_index = depth - 1 - level; // position in innermost-first vectors
        recs.push(Record::checkpoint(loop_id, LoopBegin));
        for it in 0..spec.trips[inner_index] {
            recs.push(Record::checkpoint(loop_id, BodyBegin));
            iters[inner_index] = it as i64;
            if level + 1 == depth {
                let mut addr = spec.base as i64;
                for (c, v) in spec.coeffs.iter().zip(iters.iter()) {
                    addr += c * v;
                }
                recs.push(Record::access(0x40_0000, addr as u32, AccessKind::Read));
            } else {
                rec(level + 1, depth, spec, iters, recs);
            }
            recs.push(Record::checkpoint(loop_id, BodyEnd));
        }
    }
    let mut iters = vec![0i64; depth];
    rec(0, depth, spec, &mut iters, &mut recs);
    recs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn algorithm3_recovers_random_affine_nests(spec in affine_spec()) {
        let trace = synth_trace(&spec);
        let analysis = analyze(&trace);
        prop_assert_eq!(analysis.refs().len(), 1);
        let st = &analysis.refs()[0].state;
        prop_assert!(!st.is_non_analyzable());
        prop_assert!(st.is_full(), "window {} of {}", st.window(), st.nest_level());
        prop_assert_eq!(st.constant(), spec.base as i64);
        prop_assert_eq!(st.mispredictions(), 0);
        for (i, c) in spec.coeffs.iter().enumerate() {
            prop_assert_eq!(st.coefficients()[i], Some(*c));
        }
        // Prediction reproduces every address (spot-check the last corner).
        let corner: Vec<i64> = spec.trips.iter().map(|t| *t as i64 - 1).collect();
        let mut expect = spec.base as i64;
        for (c, v) in spec.coeffs.iter().zip(corner.iter()) {
            expect += c * v;
        }
        prop_assert_eq!(st.predict(&corner), expect);
    }

    #[test]
    fn perturbed_nests_are_never_misreported_as_full(
        spec in affine_spec(),
        jitter in 1u32..1000,
    ) {
        // Corrupt one address mid-stream; the reference must not surface as
        // a clean full-affine fit with zero mispredictions.
        let mut trace = synth_trace(&spec);
        let accesses: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Record::Access(_)))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(accesses.len() >= 3);
        let victim = accesses[accesses.len() / 2];
        if let Record::Access(a) = &mut trace[victim] {
            a.addr = minic_trace::MemAddr(a.addr.0 ^ jitter);
        }
        let analysis = analyze(&trace);
        let st = &analysis.refs()[0].state;
        prop_assert!(
            st.is_non_analyzable() || st.mispredictions() > 0 || !st.is_full(),
            "corruption must leave a trace"
        );
    }
}

// ---------- trace codecs ----------

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u32..64, 0usize..3).prop_map(|(l, k)| {
            let kind = [LoopBegin, BodyBegin, BodyEnd][k];
            Record::checkpoint(l, kind)
        }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(i, a, w)| {
            Record::access(i, a, if w { AccessKind::Write } else { AccessKind::Read })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_codec_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let text = minic_trace::text::to_text(&records);
        let parsed = minic_trace::text::from_text(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn binary_codec_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let bytes = minic_trace::binary::to_bytes(&records);
        let parsed = minic_trace::binary::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed, records);
    }
}

// ---------- identity sampling ----------

/// Arbitrary records with instruction addresses drawn from a small pool,
/// so references accumulate real multi-access state.
fn arb_site_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u32..8, 0usize..3).prop_map(|(l, k)| {
            let kind = [LoopBegin, BodyBegin, BodyEnd][k];
            Record::checkpoint(l, kind)
        }),
        (0u32..12, any::<u32>(), any::<bool>()).prop_map(|(site, a, w)| {
            Record::access(
                0x40_0000 + 4 * site,
                a,
                if w { AccessKind::Write } else { AccessKind::Read },
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identity_sampling_specs_change_nothing(
        records in proptest::collection::vec(arb_site_record(), 0..300),
    ) {
        let full = analyze(&records);
        for sample in [SampleSpec::EveryNth { n: 1 }, SampleSpec::Warmup { skip: 0 }] {
            let sampled = analyze_with(
                &records,
                AnalyzerConfig { sample, ..AnalyzerConfig::default() },
            );
            prop_assert_eq!(&sampled, &full, "{:?}", sample);
        }
    }
}

// ---------- interpreter vs reference evaluator ----------

#[derive(Debug, Clone)]
enum RefExpr {
    Lit(i32),
    Add(Box<RefExpr>, Box<RefExpr>),
    Sub(Box<RefExpr>, Box<RefExpr>),
    Mul(Box<RefExpr>, Box<RefExpr>),
    Div(Box<RefExpr>, Box<RefExpr>),
    Rem(Box<RefExpr>, Box<RefExpr>),
}

impl RefExpr {
    fn eval(&self) -> i64 {
        match self {
            RefExpr::Lit(v) => *v as i64,
            RefExpr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            RefExpr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            RefExpr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            RefExpr::Div(a, b) => {
                let d = b.eval();
                if d == 0 {
                    0
                } else {
                    a.eval().wrapping_div(d)
                }
            }
            RefExpr::Rem(a, b) => {
                let d = b.eval();
                if d == 0 {
                    0
                } else {
                    a.eval().wrapping_rem(d)
                }
            }
        }
    }

    /// Renders as mini-C, guarding divisions like the generator does.
    fn to_c(&self) -> String {
        match self {
            RefExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            RefExpr::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            RefExpr::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            RefExpr::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            // Mini-C division by zero is a runtime error; mirror the
            // reference's guard inline with a ternary.
            RefExpr::Div(a, b) => {
                format!("({1} == 0 ? 0 : {0} / {1})", a.to_c(), b.to_c())
            }
            RefExpr::Rem(a, b) => {
                format!("({1} == 0 ? 0 : {0} % {1})", a.to_c(), b.to_c())
            }
        }
    }
}

fn arb_ref_expr() -> impl Strategy<Value = RefExpr> {
    let leaf = (-1000i32..1000).prop_map(RefExpr::Lit);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Rem(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interpreter_matches_reference_arithmetic(e in arb_ref_expr()) {
        // The ternary guards make the expression total; values can exceed
        // i32 mid-expression (both sides compute in i64).
        let expected = e.eval();
        let src = format!("void main() {{ print_int({}); }}", e.to_c());
        let prog = minic::frontend(&src).unwrap();
        let (outcome, _) =
            minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
        prop_assert_eq!(outcome.printed[0], expected);
    }

    #[test]
    fn pretty_print_is_a_fixpoint(e in arb_ref_expr()) {
        // parse . pretty = identity on the pretty form.
        let src = format!("void main() {{ print_int({}); }}", e.to_c());
        let prog = minic::parse(&src).unwrap();
        let once = minic::pretty(&prog);
        let twice = minic::pretty(&minic::parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }
}

// ---------- knapsack optimality ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_knapsack_dominates_greedy_and_matches_bruteforce(
        sizes in proptest::collection::vec((16u32..200, 100u64..100_000), 1..7),
        capacity in 50u32..600,
    ) {
        let energy = foray_spm::EnergyModel::default();
        let candidates: Vec<foray_spm::BufferCandidate> = sizes
            .iter()
            .enumerate()
            .map(|(i, (size, accesses))| foray_spm::BufferCandidate {
                ref_idx: i,
                array: format!("A{i}"),
                level: 1,
                size_bytes: *size,
                spm_accesses: *accesses,
                fill_elems: accesses / 50,
                writeback_elems: 0,
                activations: 1,
                elem_bytes: 4,
            })
            .collect();
        let exact = foray_spm::select_exact(&candidates, &energy, capacity);
        let greedy = foray_spm::select_greedy(&candidates, &energy, capacity);
        prop_assert!(exact.savings_nj >= greedy.savings_nj - 1e-6);
        prop_assert!(exact.used_bytes <= capacity);

        // Brute force over all subsets (≤ 2^6).
        let mut best = 0.0f64;
        for mask in 0u32..(1 << candidates.len()) {
            let mut size = 0u32;
            let mut value = 0.0;
            for (i, c) in candidates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    size += c.size_bytes;
                    value += c.savings_nj(&energy);
                }
            }
            if size <= capacity && value > best {
                best = value;
            }
        }
        prop_assert!((exact.savings_nj - best).abs() < 1e-6,
            "exact {} vs brute force {}", exact.savings_nj, best);
    }
}

// ---------- model extraction sanity over random nests ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extraction_respects_filter_thresholds(
        spec in affine_spec(),
        n_exec in 1u64..200,
        n_loc in 1u64..100,
    ) {
        let trace = synth_trace(&spec);
        let analysis = analyze(&trace);
        let model = ForayModel::extract(&analysis, &FilterConfig { n_exec, n_loc });
        let execs: u64 = spec.trips.iter().product();
        let kept = model.ref_count() == 1;
        if kept {
            let r = &model.refs[0];
            prop_assert!(r.execs >= n_exec);
            prop_assert!(r.footprint >= n_loc);
            prop_assert_eq!(r.execs, execs);
        } else {
            // Dropped: at least one threshold (or the iterator condition)
            // must have failed.
            let footprint = analysis.refs()[0].state.footprint().unwrap();
            prop_assert!(
                execs < n_exec
                    || footprint < n_loc
                    || !analysis.refs()[0].state.has_iterator()
            );
        }
    }
}
