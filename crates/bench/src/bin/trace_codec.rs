//! `trace_codec` — foray-trace v1 vs v2 size and decode-throughput report.
//!
//! The v2 container exists to make archived traces cheap: length-tagged
//! delta compression per block, CRC32 integrity, and a checkpoint index for
//! seeking. This bin holds it to the claims. For every corpus workload it
//! profiles once, encodes the identical record stream in both container
//! versions, and measures:
//!
//! * **size** — encoded bytes per format and the v1/v2 ratio;
//! * **decode** — streaming [`minic_trace::TraceReader`] drain over the
//!   in-memory file, best-of-N round-robin (v1, v2, repeat), in records/s
//!   — the v2 time *includes* its per-block CRC verification.
//!
//! Both decodes are asserted record-identical to the profiled stream
//! before anything is reported.
//!
//! ```text
//! cargo run --release -p foray-bench --bin trace_codec -- \
//!     [--workloads all|a,b] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check-ratio X] [--check-decode Y]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], one row per workload (`records`, `v1_bytes`,
//! `v2_bytes`, `v1_decode_ns`, `v2_decode_ns`; the totals row is their
//! sum and is not stored); the committed history is `BENCH_history.jsonl`.
//! `--check-ratio X` exits 3 unless the corpus-total v1/v2 size ratio is
//! at least `X`; `--check-decode Y` exits 3 unless v2 corpus-total decode
//! throughput is at least `Y` times v1's. Both are CI gates on the
//! format; CI pins `--check-ratio 3.0 --check-decode 0.6`.
//! The measured point is ~3.8x smaller files at ~0.75x of v1's records/s
//! (v2 pays CRC verification and delta reconstruction per record) — ~5x
//! cheaper per *file byte*, so replay from any storage slower than
//! ~2 GB/s is bounded by v1's I/O, not v2's decode, and ends ~3x sooner.

use foray_bench::harness::{int, ns, Args, Pass, Spec};
use foray_serve::json::{obj, Json};
use foray_workloads::Params;
use minic_trace::file::{self, FormatVersion};
use minic_trace::{Record, TraceReader};
use std::hint::black_box;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "trace_codec",
    workload_flag: "--workloads",
    workload: "all",
    scale: 2,
    iters: 12,
    quick_iters: 5,
    checks: &["--check-ratio", "--check-decode"],
};

struct Row {
    name: String,
    records: u64,
    v1_bytes: u64,
    v2_bytes: u64,
    v1_decode: Duration,
    v2_decode: Duration,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.v1_bytes as f64 / self.v2_bytes as f64
    }

    fn mrecs(&self, d: Duration) -> f64 {
        self.records as f64 / d.as_secs_f64() / 1e6
    }

    fn decode_speedup(&self) -> f64 {
        self.v1_decode.as_secs_f64() / self.v2_decode.as_secs_f64()
    }
}

/// Drains a framed in-memory file through the streaming reader, returning
/// the record count (the decode work the wall clock measures).
fn drain(bytes: &[u8]) -> u64 {
    // `fold` is the readers' bulk decode path (one tight loop per block);
    // it is what `stream_into`-based replay uses, so it is what we time.
    TraceReader::new(bytes).expect("framed bytes open").fold(0u64, |n, rec| {
        black_box(rec.expect("framed bytes decode"));
        n + 1
    })
}

fn main() {
    let args = Args::parse(&SPEC);
    let names: Vec<&str> =
        args.workload.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        eprintln!("error: --workloads needs at least one name");
        std::process::exit(1);
    }
    let workloads: Vec<foray_workloads::Workload> = if names.contains(&"all") {
        foray_workloads::all(Params { scale: args.scale })
    } else {
        names.iter().map(|name| args.resolve(name)).collect()
    };

    println!(
        "trace_codec: {} workloads at scale {} (best of {} iters)",
        workloads.len(),
        args.scale,
        args.iters
    );

    let mut rows = Vec::new();
    for w in &workloads {
        let prog = w.frontend().expect("workload compiles");
        let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &w.inputs)
            .expect("workload runs");

        let mut v1 = Vec::new();
        file::write_to_with(&mut v1, &records, FormatVersion::V1).expect("v1 encodes");
        let mut v2 = Vec::new();
        file::write_to_with(&mut v2, &records, FormatVersion::V2).expect("v2 encodes");

        // Both files must replay the identical stream before being timed.
        for bytes in [&v1, &v2] {
            let decoded: Vec<Record> =
                TraceReader::new(bytes.as_slice()).unwrap().map(Result::unwrap).collect();
            assert_eq!(decoded, records, "{}: replay must be identical", w.name);
        }

        // Round-robin best-of timing, so a slow scheduling window inflates
        // both formats' samples instead of skewing the ratio.
        let (mut v1_best, mut v2_best) = (Duration::MAX, Duration::MAX);
        for _ in 0..args.iters {
            let start = Instant::now();
            black_box(drain(&v1));
            v1_best = v1_best.min(start.elapsed());
            let start = Instant::now();
            black_box(drain(&v2));
            v2_best = v2_best.min(start.elapsed());
        }

        rows.push(Row {
            name: w.name.to_owned(),
            records: records.len() as u64,
            v1_bytes: v1.len() as u64,
            v2_bytes: v2.len() as u64,
            v1_decode: v1_best,
            v2_decode: v2_best,
        });
    }

    let totals = Row {
        name: "total".to_owned(),
        records: rows.iter().map(|r| r.records).sum(),
        v1_bytes: rows.iter().map(|r| r.v1_bytes).sum(),
        v2_bytes: rows.iter().map(|r| r.v2_bytes).sum(),
        v1_decode: rows.iter().map(|r| r.v1_decode).sum(),
        v2_decode: rows.iter().map(|r| r.v2_decode).sum(),
    };

    let table = foray_bench::render_table(
        &[
            "workload",
            "records",
            "v1 bytes",
            "v2 bytes",
            "ratio",
            "v1 Mrec/s",
            "v2 Mrec/s",
            "speedup",
        ],
        &rows
            .iter()
            .chain(std::iter::once(&totals))
            .map(|r| {
                vec![
                    r.name.clone(),
                    foray_bench::human(r.records),
                    foray_bench::human(r.v1_bytes),
                    foray_bench::human(r.v2_bytes),
                    format!("{:.2}x", r.ratio()),
                    format!("{:.1}", r.mrecs(r.v1_decode)),
                    format!("{:.1}", r.mrecs(r.v2_decode)),
                    format!("{:.2}x", r.decode_speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    args.report(
        rows.iter()
            .map(|r| {
                obj([
                    ("workload", Json::Str(r.name.clone())),
                    ("records", int(r.records)),
                    ("v1_bytes", int(r.v1_bytes)),
                    ("v2_bytes", int(r.v2_bytes)),
                    ("v1_decode_ns", ns(r.v1_decode)),
                    ("v2_decode_ns", ns(r.v2_decode)),
                ])
            })
            .collect(),
    );
    args.gate("--check-ratio", "corpus v1/v2 size ratio", totals.ratio(), Pass::AtLeast);
    args.gate("--check-decode", "v2 decode speedup", totals.decode_speedup(), Pass::AtLeast);
}
