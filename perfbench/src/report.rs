//! Metric catalogue and output: a human-readable summary, a report line
//! with host metadata and sample counts, and the result object as the last
//! line of standard output.

use crate::stats::{beyond, median, percentile};
use crate::{gauge, Ctx, OpSample, Run, SCALE};
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, from untraced runs: `(name, unit)`. Times are in
/// reference-host units (see `gauge`); rates are per second of such
/// operation time over the whole run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p99_ms", "ms"),
    ("records_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, from traced runs. A time is the median per
/// operation of a span's wall-clock self time, over the operations that
/// make the call; a count is per run. A layer the workload's path never
/// calls reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("minic.parse_ms", "ms"),
    ("minic.check_ms", "ms"),
    ("minic.instrument_ms", "ms"),
    ("minic-sim.lower_ms", "ms"),
    ("minic-sim.vm_ms", "ms"),
    ("minic-sim.records", "count"),
    ("minic-sim.steps", "count"),
    ("minic-trace.stats_ms", "ms"),
    ("minic-trace.encode_ms", "ms"),
    ("minic-trace.open_ms", "ms"),
    ("minic-trace.decode_ms", "ms"),
    ("minic-trace.bytes_per_record", "bytes/record"),
    ("foray.profile_ms", "ms"),
    ("foray.analyzer_ms", "ms"),
    ("foray.extract_ms", "ms"),
    ("foray.codegen_ms", "ms"),
    ("foray.hints_ms", "ms"),
    ("foray.refs", "count"),
    ("foray.model_refs", "count"),
    ("foray.kept_ratio", "ratio"),
    ("foray.unattributed_share", "ratio"),
    ("foray-spm.dse_ms", "ms"),
    ("foray-serve.connect_ms", "ms"),
    ("foray-serve.submit_ms", "ms"),
    ("foray-serve.wait_ms", "ms"),
    ("foray-serve.resolve_ms", "ms"),
    ("foray-serve.hit_rtt_ms", "ms"),
    ("foray-serve.miss_rtt_ms", "ms"),
    ("foray-serve.hit_ratio", "ratio"),
    ("foray-serve.evictions", "count"),
    ("foray-serve.computed", "count"),
    ("foray-serve.deduped", "count"),
    ("foray-serve.failed", "count"),
    ("foray-serve.rejected", "count"),
    ("foray-serve.payload_bytes", "bytes"),
    ("perfbench.trace_overhead_ms", "ms"),
];

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind the value, when it is an order statistic.
    samples: Option<usize>,
}

/// Prints the run's result; returns whether it was correct. `steal_share`
/// is the share of CPU time the host took from this machine during the
/// run, which explains a run that is slow as a whole.
pub fn print(ctx: &Ctx, run: &Run, peak_rss_mb: f64, steal_share: f64) -> bool {
    let untraced = sorted(run.ops.iter().filter(|o| !o.traced).map(|o| rescaled(run, o)));
    let metrics = if ctx.traced {
        per_layer(run, &untraced)
    } else {
        end_to_end(run, &untraced, peak_rss_mb)
    };
    let wall = sorted(run.ops.iter().filter(|o| !o.traced).map(|o| o.ms));
    let attempted = run.ops.len();
    let correct = run.failed == 0 && run.problems.is_empty();
    let fail_rate = run.failed as f64 / attempted.max(1) as f64;

    println!(
        "perfbench {} seed {} ({} rounds, {} operations, {}): fail_rate {fail_rate}",
        ctx.workload.name(),
        ctx.seed,
        ctx.rounds,
        attempted,
        if ctx.traced { "traced" } else { "untraced" }
    );
    for m in &metrics {
        let samples = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("  {:<30} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
    for p in &run.problems {
        println!("  problem: {p}");
    }

    let mut report = String::from("{\"schema\":\"perfbench-report/v1\"");
    let _ = write!(
        report,
        ",\"workload\":\"{}\",\"traced\":{},\"seed\":{},\"seconds\":{},\"rounds\":{},\
         \"scale\":{SCALE},\"host\":{{\"nproc\":{},\"commit\":\"{}\",\"source_digest\":\"{}\",\
         \"profile\":\"{}\",\"steal_share\":{}}},\"attempted\":{attempted},\"failed\":{},\
         \"fail_rate\":{},\"mix\":\"{}\",\"setup_repeats_s\":[{}],\"wall\":{{\"p50_ms\":{},\
         \"p90_ms\":{},\"p99_ms\":{},\"setup_s\":{}}},\"gauge\":{{\"ref_ms\":{},\"median_ms\":{},\
         \"samples\":{}}},\"samples\":{{",
        ctx.workload.name(),
        ctx.traced,
        ctx.seed,
        ctx.seconds,
        ctx.rounds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        source_digest(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        num(steal_share),
        run.failed,
        num(fail_rate),
        escape(&run.mix),
        run.setup_s.iter().map(|&(s, _)| num(s)).collect::<Vec<_>>().join(","),
        num(percentile(&wall, 0.50)),
        num(percentile(&wall, 0.90)),
        num(percentile(&wall, 0.99)),
        num(median(&run.setup_s.iter().map(|&(s, _)| s).collect::<Vec<_>>())),
        num(gauge::REF_MS),
        num(median(run.gauge.samples_ms())),
        run.gauge.samples_ms().len(),
    );
    let counted: Vec<String> = metrics
        .iter()
        .filter_map(|m| m.samples.map(|n| format!("\"{}\":{n}", m.name)))
        .chain(tail_support(&untraced, ctx.traced))
        .collect();
    let _ = write!(report, "{}}},\"metrics\":{}", counted.join(","), metrics_json(&metrics));
    let problems: Vec<String> = run.problems.iter().map(|p| format!("\"{}\"", escape(p))).collect();
    let _ = write!(report, ",\"problems\":[{}]}}", problems.join(","));
    println!("{report}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        run.failed,
        metrics_json(&metrics)
    );
    correct
}

/// An operation's wall time in reference-host ms (see `gauge`).
fn rescaled(run: &Run, op: &OpSample) -> f64 {
    run.gauge.rescale(op.ms, op.gauge)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// How many samples lie beyond each tail percentile.
fn tail_support(untraced: &[f64], traced: bool) -> Vec<String> {
    if traced {
        return Vec::new();
    }
    vec![
        format!("\"beyond_p90\":{}", beyond(untraced, 0.90)),
        format!("\"beyond_p99\":{}", beyond(untraced, 0.99)),
    ]
}

/// Rates over the whole run: per second of (rescaled) operation time.
fn end_to_end(run: &Run, untraced: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let n = untraced.len();
    let op_s = untraced.iter().sum::<f64>() / 1e3;
    let records: u64 = run.ops.iter().filter(|o| !o.traced).map(|o| o.records).sum();
    let setup: Vec<f64> = run.setup_s.iter().map(|&(s, at)| run.gauge.rescale(s, at)).collect();
    let value = |name: &str| match name {
        "p50_ms" => percentile(untraced, 0.50),
        "p90_ms" => percentile(untraced, 0.90),
        "p99_ms" => percentile(untraced, 0.99),
        "records_per_s" => records as f64 / op_s,
        "requests_per_s" => n as f64 / op_s,
        "peak_rss_mb" => peak_rss_mb,
        "setup_s" => median(&setup),
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
            samples: match name {
                "p50_ms" | "p90_ms" | "p99_ms" | "records_per_s" | "requests_per_s" => Some(n),
                "setup_s" => Some(run.setup_s.len()),
                _ => None,
            },
        })
        .collect()
}

fn per_layer(run: &Run, untraced: &[f64]) -> Vec<Metric> {
    let traced = sorted(run.ops.iter().filter(|o| o.traced).map(|o| rescaled(run, o)));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) =
                if let Some(&(_, v)) = run.layers.iter().find(|(n, _)| *n == name) {
                    (v, None)
                } else if name == "foray.unattributed_share" {
                    (run.tracer.unattributed_share(), None)
                } else if name == "perfbench.trace_overhead_ms" {
                    (percentile(&traced, 0.5) - percentile(untraced, 0.5), Some(traced.len()))
                } else if let Some(span) = name.strip_suffix("_ms") {
                    let per_op = run.tracer.self_ms_per_op(span);
                    (median(&per_op), Some(per_op.len()))
                } else {
                    (0.0, None)
                };
            Metric { name, unit, value, samples }
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(m.value), m.unit))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON number with every digit of the measurement (non-finite values,
/// which no metric should produce, render as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The checkout's git commit, when it is a git repository. `GIT_DIR`
/// keeps git from taking the commit of a repository around a checkout
/// that has none.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// A digest of the measured program's sources (every file under
/// `crates/`), which names the code even where there is no git history.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    if files.is_empty() {
        return "unknown".to_owned();
    }
    files.sort();
    let mut h = foray::StableHasher::new();
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        h.field_str("path", &rel.to_string_lossy());
        h.field_bytes("content", &std::fs::read(f).unwrap_or_default());
    }
    h.finish_hex()
}
