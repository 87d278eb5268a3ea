//! `analyzer_hot` — analyzer hot-path report.
//!
//! Measures what online analysis adds to a profiling run, on the path
//! users run: the whole [`foray::ForayGen`] pipeline (profile with the
//! online analyzer as the VM's only sink, then extract, emit and hints),
//! with dense instruction-indexed dispatch vs the paper's hash lookup. One
//! workload is measured three ways:
//!
//! * **bare** — simulation into a [`minic_trace::NullSink`]: the floor;
//! * **seq-hash** — `ForayGen` with [`LookupStrategy::Hash`], one hash
//!   probe per access;
//! * **sequential** — `ForayGen` with the default
//!   [`LookupStrategy::Dense`] successor predictor and tables.
//!
//! Both analysis rows are asserted byte-identical before anything is
//! reported.
//!
//! ```text
//! cargo run --release -p foray-bench --bin analyzer_hot -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check-overhead X]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], which carries the host's CPU count, one row
//! per mode (`records`, `time_ns`); the committed history is
//! `BENCH_history.jsonl`. `--check-overhead X` exits 3 if the default
//! `ForayGen` run costs more than `X` times bare execution; CI gates on
//! it.

use foray::{AnalyzerConfig, ForayGen, LookupStrategy};
use foray_bench::harness::{cpus, int, ns, Args, Pass, Spec};
use foray_serve::json::{obj, Json};
use minic_trace::NullSink;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "analyzer_hot",
    workload_flag: "--workload",
    workload: "fftc",
    scale: 2,
    iters: 20,
    // Enough best-of rounds to shake off scheduler noise in the gated
    // ratio while staying CI-cheap.
    quick_iters: 10,
    checks: &["--check-overhead"],
};

/// Time one run, folding it into a best-so-far. Modes are measured
/// round-robin so a slow scheduling window inflates every mode's sample
/// equally instead of skewing one ratio.
fn timed<T>(best: &mut Duration, run: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = run();
    *best = (*best).min(start.elapsed());
    value
}

fn main() {
    let args = Args::parse(&SPEC);
    let w = args.resolve(&args.workload);
    let prog = w.frontend().expect("workload compiles");
    let sim = minic_sim::SimConfig::default();

    println!(
        "analyzer_hot: {} at scale {} on {} cpus (best of {} iters)",
        w.name,
        args.scale,
        cpus(),
        args.iters
    );

    let hash_config = AnalyzerConfig { lookup: LookupStrategy::Hash, ..AnalyzerConfig::default() };
    let pipeline = |config| ForayGen::new().analyzer(config).inputs(w.inputs.clone());
    let (hash_gen, dense_gen) = (pipeline(hash_config), pipeline(AnalyzerConfig::default()));
    // The program is cloned outside the timer: bare execution borrows it.
    let run = |gen: &ForayGen, best: &mut Duration| {
        let p = prog.clone();
        timed(best, || gen.run_program(p)).expect("workload runs through ForayGen")
    };

    let (mut bare, mut hash_t, mut dense_t) = (Duration::MAX, Duration::MAX, Duration::MAX);
    let (mut records, mut last) = (0u64, None);
    for _ in 0..args.iters {
        records = timed(&mut bare, || {
            let mut sink = NullSink;
            let outcome = minic_sim::run_with_sink(&prog, &sim, &w.inputs, &mut sink)
                .expect("workload runs bare");
            outcome.accesses + outcome.checkpoints
        });
        let hashed = run(&hash_gen, &mut hash_t);
        let dense = run(&dense_gen, &mut dense_t);
        last = Some((hashed, dense));
    }
    let (hashed, dense) = last.expect("iters >= 1");
    assert_eq!(dense.analysis, hashed.analysis, "dense lookup must be byte-identical to hash");

    let overhead = |d: Duration| d.as_secs_f64() / bare.as_secs_f64();
    let modes = [("bare", bare), ("seq-hash", hash_t), ("sequential", dense_t)];
    let table = foray_bench::render_table(
        &["mode", "records", "time", "vs bare"],
        &modes
            .iter()
            .map(|&(mode, t)| {
                vec![
                    mode.to_owned(),
                    foray_bench::human(records),
                    format!("{:.1} ms", t.as_secs_f64() * 1e3),
                    format!("{:.2}x", overhead(t)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    args.report(
        modes
            .iter()
            .map(|&(mode, t)| {
                obj([
                    ("mode", Json::Str(mode.to_owned())),
                    ("records", int(records)),
                    ("time_ns", ns(t)),
                ])
            })
            .collect(),
    );
    args.gate("--check-overhead", "sequential overhead", overhead(dense_t), Pass::AtMost);
}
