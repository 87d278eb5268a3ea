//! `sim_exec` — execution-engine throughput report (tree-walker vs VM).
//!
//! Measures profiling throughput of both engines on a corpus workload.
//! Two numbers per engine:
//!
//! * **profile** — simulation with a [`minic_trace::CountingSink`]: the
//!   engine's own cost of generating the trace (the headline comparison;
//!   VM compile time is included in its wall-clock);
//! * **pipeline** — the full `ForayGen` flow with the online analyzer as
//!   the sink: what end-to-end users observe.
//!
//! ```text
//! cargo run --release -p foray-bench --bin sim_exec -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check-speedup X]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], one row per engine (`records`, `profile_ns`,
//! `pipeline_ns`); the committed history is `BENCH_history.jsonl`.
//! `--check-speedup X` exits 3 unless the VM's profile throughput is at
//! least `X` times the tree-walker's — the CI gate for the engine's reason
//! to exist.

use foray::{Engine, ForayGen};
use foray_bench::harness::{int, ns, Args, Pass, Spec};
use foray_serve::json::{obj, Json};
use minic_trace::CountingSink;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "sim_exec",
    workload_flag: "--workload",
    workload: "fftc",
    scale: 2,
    iters: 5,
    quick_iters: 2,
    checks: &["--check-speedup"],
};

struct EngineRow {
    engine: Engine,
    records: u64,
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
    let prog = w.frontend().expect("workload compiles");
    let config = minic_sim::SimConfig { engine, ..minic_sim::SimConfig::default() };
    let mut records = 0u64;
    let mut profile = Duration::MAX;
    for _ in 0..iters {
        let mut sink = CountingSink::new();
        let start = Instant::now();
        let outcome =
            minic_sim::run_with_sink(&prog, &config, &w.inputs, &mut sink).expect("workload runs");
        profile = profile.min(start.elapsed());
        records = outcome.accesses + outcome.checkpoints;
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
    EngineRow { engine, records, profile, pipeline }
}

fn main() {
    let args = Args::parse(&SPEC);
    let w = args.resolve(&args.workload);

    println!("sim_exec: {} at scale {} (best of {} iters)", w.name, args.scale, args.iters);
    let rows = [Engine::Tree, Engine::Vm].map(|e| measure(&w, e, args.iters));
    let table = foray_bench::render_table(
        &["engine", "records", "profile", "Mrec/s", "pipeline"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.as_str().to_owned(),
                    foray_bench::human(r.records),
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

    args.report(
        rows.iter()
            .map(|r| {
                obj([
                    ("engine", Json::Str(r.engine.as_str().to_owned())),
                    ("records", int(r.records)),
                    ("profile_ns", ns(r.profile)),
                    ("pipeline_ns", ns(r.pipeline)),
                ])
            })
            .collect(),
    );
    args.gate("--check-speedup", "VM profiling speedup", speedup, Pass::AtLeast);
}
