//! `analyzer_hot` — what online analysis costs, and the paper's Section 4
//! cost claims as checked ratios.
//!
//! The workload runs once into a [`minic_trace::VecSink`], and every
//! analysis row times [`foray::analyze`] over records in RAM, so the VM's
//! speed stays out of the analysis rows. The rows:
//!
//! * **bare** — executing the workload into a [`minic_trace::NullSink`]:
//!   the cost of producing the records the analyzer then reads;
//! * **dense** — the default analyzer ([`LookupStrategy::Dense`]) over
//!   the recorded workload;
//! * **hash** — the same analysis with the paper's
//!   [`LookupStrategy::Hash`], one hash probe per access (printed, not
//!   gated; asserted byte-identical to **dense**);
//! * **nest-64** and **nest-1024** — a two-level affine nest with 64
//!   inner trips and 64 or 1024 outer trips (16× the records). Section 4
//!   says the cost "is linear with respect to the number of profiled
//!   instructions", so the time per record must not grow with the trace;
//! * **depth-1** and **depth-6** — perfect nests of depth 1 and 6, each
//!   with 4096 innermost accesses. The per-record cost is "constant on
//!   average" because "the maximum loop nest level is limited", so the
//!   time per access grows only gently with depth.
//!
//! The rows are timed round-robin, best of `--iters`, so a slow
//! scheduling window inflates every row's sample instead of skewing one
//! ratio.
//!
//! ```text
//! cargo run --release -p foray-bench --bin analyzer_hot -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], one row per mode (`records`, `accesses`,
//! `time_ns`); the committed history is `BENCH_history.jsonl`. `--check`
//! exits 3 unless **dense** costs at most [`MAX_OVERHEAD`] times **bare**,
//! time per record at 16× the records is at most [`MAX_GROWTH`] times
//! that at 1×, and time per access at depth 6 is at most
//! [`MAX_DEPTH_COST`] times that at depth 1. The bounds hold for the
//! default workload and scale; CI gates on them.

use foray::{AnalyzerConfig, LookupStrategy};
use foray_bench::harness::{cpus, int, ns, Args, Bound, Spec};
use foray_serve::json::{obj, Json};
use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
use minic_trace::{AccessKind, NullSink, Record};
use std::hint::black_box;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "analyzer_hot",
    workload_flag: "--workload",
    workload: "fftc",
    scale: 2,
    iters: 20,
    // Enough best-of rounds to shake off scheduler noise in the gated
    // ratios while staying CI-cheap.
    quick_iters: 10,
};

/// `--check`: the default analysis costs at most this many times bare
/// execution of the workload.
const MAX_OVERHEAD: f64 = 0.8;
/// `--check`: time per record at 16× the records, over that at 1×.
const MAX_GROWTH: f64 = 2.0;
/// `--check`: time per access at nest depth 6, over that at depth 1.
const MAX_DEPTH_COST: f64 = 2.5;

/// A two-level affine nest: `outer` trips of a 64-trip inner loop, one
/// read per inner iteration.
fn nest(outer: u32) -> Vec<Record> {
    let mut t = vec![Record::checkpoint(0, LoopBegin)];
    for j in 0..outer {
        t.push(Record::checkpoint(0, BodyBegin));
        t.push(Record::checkpoint(1, LoopBegin));
        for i in 0..64 {
            t.push(Record::checkpoint(1, BodyBegin));
            t.push(Record::access(0x40_0000, 0x1000_0000 + 4 * i + 256 * j, AccessKind::Read));
            t.push(Record::checkpoint(1, BodyEnd));
        }
        t.push(Record::checkpoint(0, BodyEnd));
    }
    t
}

/// A perfect nest of `depth` loops with 4096 innermost accesses (`depth`
/// divides 12), each address affine in every iterator.
fn deep(depth: u32) -> Vec<Record> {
    fn level(l: u32, depth: u32, addr: u32, out: &mut Vec<Record>) {
        out.push(Record::checkpoint(l, LoopBegin));
        for i in 0..1 << (12 / depth) {
            out.push(Record::checkpoint(l, BodyBegin));
            let addr = addr + (4 << (depth - 1 - l)) * i;
            if l + 1 == depth {
                out.push(Record::access(0x40_0000, addr, AccessKind::Read));
            } else {
                level(l + 1, depth, addr, out);
            }
            out.push(Record::checkpoint(l, BodyEnd));
        }
    }
    let mut out = Vec::new();
    level(0, depth, 0x1000_0000, &mut out);
    out
}

/// One timed mode: its record stream's size and its best time.
struct Row {
    mode: &'static str,
    records: u64,
    accesses: u64,
    best: Duration,
}

impl Row {
    fn new(mode: &'static str, records: &[Record]) -> Row {
        let accesses = records.iter().filter(|r| matches!(r, Record::Access(_))).count();
        Row { mode, records: records.len() as u64, accesses: accesses as u64, best: Duration::MAX }
    }

    /// Times one run, folding it into the best so far.
    fn time<T>(&mut self, run: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = black_box(run());
        self.best = self.best.min(start.elapsed());
        value
    }

    fn ns_per(&self, n: u64) -> f64 {
        self.best.as_secs_f64() * 1e9 / n as f64
    }
}

fn main() {
    let args = Args::parse(&SPEC);
    let w = args.resolve(&args.workload);
    let prog = w.frontend().expect("workload compiles");
    let sim = minic_sim::SimConfig::default();
    let (_, records) = minic_sim::run(&prog, &sim, &w.inputs).expect("workload runs");

    println!(
        "analyzer_hot: {} at scale {} on {} cpus (best of {} iters)",
        w.name,
        args.scale,
        cpus(),
        args.iters
    );

    let hash_config = AnalyzerConfig { lookup: LookupStrategy::Hash };
    let (nest_1x, nest_16x, depth_1, depth_6) = (nest(64), nest(1024), deep(1), deep(6));
    let mut rows = [
        Row::new("bare", &records),
        Row::new("dense", &records),
        Row::new("hash", &records),
        Row::new("nest-64", &nest_1x),
        Row::new("nest-1024", &nest_16x),
        Row::new("depth-1", &depth_1),
        Row::new("depth-6", &depth_6),
    ];

    let mut last = None;
    for _ in 0..args.iters {
        let [bare, dense, hash, n1, n16, d1, d6] = &mut rows;
        bare.time(|| {
            minic_sim::run_with_sink(&prog, &sim, &w.inputs, &mut NullSink)
                .expect("workload runs bare")
        });
        let by_dense = dense.time(|| foray::analyze(&records));
        let by_hash = hash.time(|| foray::analyze_with(&records, hash_config.clone()));
        last = Some((by_dense, by_hash));
        for (row, t) in [(n1, &nest_1x), (n16, &nest_16x), (d1, &depth_1), (d6, &depth_6)] {
            row.time(|| foray::analyze(t));
        }
    }
    let (by_dense, by_hash) = last.expect("iters >= 1");
    assert_eq!(by_dense, by_hash, "dense lookup must be byte-identical to hash");

    let table = foray::report::render_table(
        &["mode", "records", "accesses", "time", "ns/record", "ns/access"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_owned(),
                    foray_bench::human(r.records),
                    foray_bench::human(r.accesses),
                    format!("{:.3} ms", r.best.as_secs_f64() * 1e3),
                    format!("{:.2}", r.ns_per(r.records)),
                    format!("{:.2}", r.ns_per(r.accesses)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    let [bare, dense, hash, n1, n16, d1, d6] = &rows;
    let over_bare = |r: &Row| r.best.as_secs_f64() / bare.best.as_secs_f64();
    let (overhead, hash_overhead) = (over_bare(dense), over_bare(hash));
    let growth = n16.ns_per(n16.records) / n1.ns_per(n1.records);
    let depth_cost = d6.ns_per(d6.accesses) / d1.ns_per(d1.accesses);
    println!("analysis over bare execution: dense {overhead:.2}x, hash {hash_overhead:.2}x");
    println!("time per record at 16x the records: {growth:.2}x that at 1x");
    println!("time per access at depth 6: {depth_cost:.2}x that at depth 1");

    args.report(
        rows.iter()
            .map(|r| {
                obj([
                    ("mode", Json::Str(r.mode.to_owned())),
                    ("records", int(r.records)),
                    ("accesses", int(r.accesses)),
                    ("time_ns", ns(r.best)),
                ])
            })
            .collect(),
    );
    args.check(&[
        ("dense analysis over bare execution", overhead, Bound::AtMost(MAX_OVERHEAD)),
        ("time per record at 16x the records", growth, Bound::AtMost(MAX_GROWTH)),
        ("time per access at depth 6 over depth 1", depth_cost, Bound::AtMost(MAX_DEPTH_COST)),
    ]);
}
