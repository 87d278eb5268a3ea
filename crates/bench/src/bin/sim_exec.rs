//! `sim_exec` — execution-engine throughput report (tree-walker vs VM).
//!
//! Measures profiling throughput of both engines on a corpus workload.
//! Three times per engine:
//!
//! * **frontend** — [`foray_workloads::Workload::frontend`]: parse, check
//!   and instrument, the same work for both engines, best of
//!   [`FRONTEND_RUNS`] runs per iteration;
//! * **profile** — simulation with a [`minic_trace::CountingSink`]: the
//!   engine's own cost of generating the trace (the headline comparison;
//!   VM compile time is included in its wall-clock);
//! * **pipeline** — the full `ForayGen` flow with the online analyzer as
//!   the sink: what end-to-end users observe.
//!
//! Each row also counts the engine's **steps**: ops dispatched for the VM,
//! statement and expression evaluations for the tree-walker.
//!
//! ```text
//! cargo run --release -p foray-bench --bin sim_exec -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], one row per engine (`records`, `steps`,
//! `frontend_ns`, `profile_ns`, `pipeline_ns`); the committed history is
//! `BENCH_history.jsonl`.
//! `--check` exits 3 unless the VM's profile throughput is at least
//! [`MIN_SPEEDUP`] times the tree-walker's — the CI gate for the engine's
//! reason to exist — and the frontend takes at most
//! [`MAX_FRONTEND_SHARE`] of the VM's pipeline time.

use foray::{Engine, ForayGen};
use foray_bench::harness::{int, ns, Args, Bound, Spec};
use foray_serve::json::{obj, Json};
use minic_trace::CountingSink;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "sim_exec",
    workload_flag: "--workload",
    workload: "fftc",
    scale: 2,
    iters: 5,
    quick_iters: 5,
};

/// `--check`: the VM profiles at least this many times as fast as the
/// tree-walker (well under the measured ~10x, to absorb shared-runner
/// noise).
const MIN_SPEEDUP: f64 = 2.0;

/// `--check`: the frontend takes at most this share of the VM's pipeline
/// time on fftc at scale 2, whose initializer lists hold 7,424 literals.
/// On a 2-core x86-64 host in quick mode, the streaming frontend read
/// 0.040–0.063 over 22 runs; lexing every token before parsing read
/// 0.100–0.172 over 32, the low end while other load slowed the pipeline
/// more than the frontend.
const MAX_FRONTEND_SHARE: f64 = 0.10;

/// Frontend runs per iteration. One run takes about a tenth of a
/// millisecond, so a single scheduler hiccup can double a best of two.
const FRONTEND_RUNS: u32 = 10;

struct EngineRow {
    engine: Engine,
    records: u64,
    /// Steps of one run (see the module docs).
    steps: u64,
    /// Best-of-N wall time for the frontend.
    frontend: Duration,
    /// Best-of-N wall time for trace generation into a counting sink.
    profile: Duration,
    /// Best-of-N wall time for the full pipeline (online analyzer sink).
    pipeline: Duration,
}

impl EngineRow {
    fn profile_rate(&self) -> f64 {
        self.records as f64 / self.profile.as_secs_f64()
    }
}

fn measure(w: &foray_workloads::Workload, engine: Engine, iters: u32) -> EngineRow {
    let mut frontend = Duration::MAX;
    for _ in 0..iters * FRONTEND_RUNS {
        let start = Instant::now();
        drop(w.frontend().expect("workload compiles"));
        frontend = frontend.min(start.elapsed());
    }
    let prog = w.frontend().expect("workload compiles");
    let config = minic_sim::SimConfig { engine, ..minic_sim::SimConfig::default() };
    let (mut records, mut steps) = (0u64, 0u64);
    let mut profile = Duration::MAX;
    for _ in 0..iters {
        let mut sink = CountingSink::new();
        let start = Instant::now();
        let outcome =
            minic_sim::run_with_sink(&prog, &config, &w.inputs, &mut sink).expect("workload runs");
        profile = profile.min(start.elapsed());
        records = outcome.accesses + outcome.checkpoints;
        steps = outcome.steps;
        assert_eq!(sink.total(), records, "sink saw every record");
    }
    let mut pipeline = Duration::MAX;
    for _ in 0..iters {
        let gen = ForayGen::new().engine(engine);
        let start = Instant::now();
        let out = w.run_with(gen).expect("pipeline runs");
        pipeline = pipeline.min(start.elapsed());
        assert_eq!(out.sim.accesses + out.sim.checkpoints, records, "engines saw equal traffic");
    }
    EngineRow { engine, records, steps, frontend, profile, pipeline }
}

fn main() {
    let args = Args::parse(&SPEC);
    let w = args.resolve(&args.workload);

    println!("sim_exec: {} at scale {} (best of {} iters)", w.name, args.scale, args.iters);
    let rows = [Engine::Tree, Engine::Vm].map(|e| measure(&w, e, args.iters));
    let table = foray::report::render_table(
        &["engine", "records", "steps", "frontend", "profile", "Mrec/s", "pipeline"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.as_str().to_owned(),
                    foray_bench::human(r.records),
                    foray_bench::human(r.steps),
                    format!("{:.2} ms", r.frontend.as_secs_f64() * 1e3),
                    format!("{:.1} ms", r.profile.as_secs_f64() * 1e3),
                    format!("{:.2}", r.profile_rate() / 1e6),
                    format!("{:.1} ms", r.pipeline.as_secs_f64() * 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    let speedup = rows[0].profile.as_secs_f64() / rows[1].profile.as_secs_f64();
    let pipeline_speedup = rows[0].pipeline.as_secs_f64() / rows[1].pipeline.as_secs_f64();
    println!("vm speedup: {speedup:.2}x profiling, {pipeline_speedup:.2}x full pipeline");
    let frontend_share = rows[1].frontend.as_secs_f64() / rows[1].pipeline.as_secs_f64();
    println!("frontend: {frontend_share:.3} of the vm pipeline");

    args.report(
        rows.iter()
            .map(|r| {
                obj([
                    ("engine", Json::Str(r.engine.as_str().to_owned())),
                    ("records", int(r.records)),
                    ("steps", int(r.steps)),
                    ("frontend_ns", ns(r.frontend)),
                    ("profile_ns", ns(r.profile)),
                    ("pipeline_ns", ns(r.pipeline)),
                ])
            })
            .collect(),
    );
    args.check(&[
        ("VM profiling speedup", speedup, Bound::AtLeast(MIN_SPEEDUP)),
        ("frontend / VM pipeline", frontend_share, Bound::AtMost(MAX_FRONTEND_SHARE)),
    ]);
}
