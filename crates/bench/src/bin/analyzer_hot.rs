//! `analyzer_hot` — analyzer hot-path report.
//!
//! Measures what online analysis adds to a profiling run: the per-record
//! analysis cost with dense instruction-indexed dispatch vs the legacy
//! hash lookup. One workload is measured three ways:
//!
//! * **bare** — simulation into a [`minic_trace::NullSink`]: the floor;
//! * **seq-hash** — the online [`foray::Analyzer`] with
//!   [`LookupStrategy::Hash`], the pre-overhaul hot path;
//! * **sequential** — the same analyzer with the default
//!   [`LookupStrategy::Dense`] tables and last-instruction memo.
//!
//! Both analysis rows are asserted byte-identical before anything is
//! reported. Writes a machine-readable `foray-analyzer-bench/v2` JSON
//! report (CI uploads it as `BENCH_analyzer.json`) that records the
//! host's CPU count next to the timings.
//!
//! ```text
//! cargo run --release -p foray-bench --bin analyzer_hot -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check-overhead X]
//! ```
//!
//! `--check-overhead X` exits non-zero if sequential profile+analyze costs
//! more than `X` times bare execution; CI gates on it.

use foray::{Analyzer, AnalyzerConfig, LookupStrategy};
use foray_workloads::Params;
use minic_trace::NullSink;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    scale: u32,
    iters: u32,
    json: Option<String>,
    check_overhead: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: "fftc".to_owned(), scale: 2, iters: 20, json: None, check_overhead: None };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = need(&mut it, "--workload")?,
            "--scale" => {
                args.scale =
                    need(&mut it, "--scale")?.parse().map_err(|_| "bad --scale".to_owned())?;
            }
            "--iters" => {
                args.iters =
                    need(&mut it, "--iters")?.parse().map_err(|_| "bad --iters".to_owned())?;
            }
            // Enough best-of rounds to shake off scheduler noise in the
            // gated ratio while staying CI-cheap.
            "--quick" => args.iters = 10,
            "--json" => args.json = Some(need(&mut it, "--json")?),
            "--check-overhead" => {
                args.check_overhead = Some(
                    need(&mut it, "--check-overhead")?
                        .parse()
                        .map_err(|_| "bad --check-overhead".to_owned())?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.iters == 0 {
        return Err("--iters must be at least 1".to_owned());
    }
    Ok(args)
}

struct Row {
    mode: &'static str,
    seconds: Duration,
    overhead: f64,
}

/// Time one run, folding it into a best-so-far. Modes are measured
/// round-robin so a slow scheduling window inflates every mode's sample
/// equally instead of skewing one ratio.
fn timed<T>(best: &mut Duration, run: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = run();
    *best = (*best).min(start.elapsed());
    value
}

fn json_report(args: &Args, cpus: usize, records: u64, bare: Duration, rows: &[Row]) -> String {
    // Hand-rolled JSON, like every report in this workspace: the build is
    // offline and dependency-free by construction.
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"foray-analyzer-bench/v2\",\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", args.workload);
    let _ = writeln!(s, "  \"scale\": {},", args.scale);
    let _ = writeln!(s, "  \"iters\": {},", args.iters);
    let _ = writeln!(s, "  \"cpus\": {cpus},");
    let _ = writeln!(s, "  \"records\": {records},");
    let _ = writeln!(s, "  \"bare_seconds\": {:.6},", bare.as_secs_f64());
    s.push_str("  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(s, "\"mode\": \"{}\", ", r.mode);
        let _ = write!(s, "\"seconds\": {:.6}, ", r.seconds.as_secs_f64());
        let _ = write!(s, "\"overhead_vs_bare\": {:.3}", r.overhead);
        s.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: analyzer_hot [--workload NAME] [--scale N] [--iters N] [--quick] \
                 [--json PATH] [--check-overhead X]"
            );
            std::process::exit(1);
        }
    };
    let params = Params { scale: args.scale };
    let Some(w) = foray_workloads::by_name(&args.workload, params) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        std::process::exit(1);
    };
    let prog = w.frontend().expect("workload compiles");
    let sim = minic_sim::SimConfig::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "analyzer_hot: {} at scale {} on {} cpus (best of {} iters)",
        w.name, args.scale, cpus, args.iters
    );

    let hash_config = AnalyzerConfig { lookup: LookupStrategy::Hash, ..AnalyzerConfig::default() };
    let dense_config = AnalyzerConfig::default();

    let (mut bare, mut hash_t, mut dense_t) = (Duration::MAX, Duration::MAX, Duration::MAX);
    let (mut records, mut last) = (0u64, None);
    for _ in 0..args.iters {
        records = timed(&mut bare, || {
            let mut sink = NullSink;
            let outcome = minic_sim::run_with_sink(&prog, &sim, &w.inputs, &mut sink)
                .expect("workload runs bare");
            outcome.accesses + outcome.checkpoints
        });
        let hashed = timed(&mut hash_t, || {
            let mut analyzer = Analyzer::with_config(hash_config.clone());
            minic_sim::run_with_sink(&prog, &sim, &w.inputs, &mut analyzer)
                .expect("workload runs with hash lookup");
            analyzer.into_analysis()
        });
        let dense = timed(&mut dense_t, || {
            let mut analyzer = Analyzer::with_config(dense_config.clone());
            minic_sim::run_with_sink(&prog, &sim, &w.inputs, &mut analyzer)
                .expect("workload runs with dense lookup");
            analyzer.into_analysis()
        });
        last = Some((hashed, dense));
    }
    let (hashed, dense) = last.expect("iters >= 1");
    assert_eq!(dense, hashed, "dense lookup must be byte-identical to hash");

    let overhead = |d: Duration| d.as_secs_f64() / bare.as_secs_f64();
    let rows = [
        Row { mode: "seq-hash", seconds: hash_t, overhead: overhead(hash_t) },
        Row { mode: "sequential", seconds: dense_t, overhead: overhead(dense_t) },
    ];
    let table = foray_bench::render_table(
        &["mode", "records", "time", "vs bare"],
        &std::iter::once(vec![
            "bare".to_owned(),
            foray_bench::human(records),
            format!("{:.1} ms", bare.as_secs_f64() * 1e3),
            "1.00x".to_owned(),
        ])
        .chain(rows.iter().map(|r| {
            vec![
                r.mode.to_owned(),
                foray_bench::human(records),
                format!("{:.1} ms", r.seconds.as_secs_f64() * 1e3),
                format!("{:.2}x", r.overhead),
            ]
        }))
        .collect::<Vec<_>>(),
    );
    println!("{table}");

    if let Some(path) = &args.json {
        let report = json_report(&args, cpus, records, bare, &rows);
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} (foray-analyzer-bench/v2)");
    }
    if let Some(max) = args.check_overhead {
        let got = rows[1].overhead;
        if got > max {
            eprintln!("FAIL: sequential overhead {got:.2}x is above the {max:.2}x gate");
            std::process::exit(3);
        }
        println!("check passed: sequential {got:.2}x <= {max:.2}x");
    }
}
