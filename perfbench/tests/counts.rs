//! Exact counts: every workload, run twice traced on one seed, must report
//! identical per-layer counts, and a second seed must keep the same
//! per-round mix. Run with `cargo test --release` (the oracle is slow
//! unoptimized).

use std::process::Command;

/// The last two stdout lines of one short traced run: the report line and
/// the result object.
fn traced_run(workload: &str, seed: u64, seconds: u64) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} seed {seed} failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{stdout}");
    (lines[lines.len() - 2].to_owned(), lines[lines.len() - 1].to_owned())
}

/// `"name":{"value":V,...` → V, as printed.
fn value<'a>(result: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":{{\"value\":");
    let start =
        result.find(&key).unwrap_or_else(|| panic!("{name} missing from {result}")) + key.len();
    let len = result[start..].find(',').expect("a unit follows the value");
    &result[start..start + len]
}

fn field<'a>(report: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":\"");
    let start = report.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let len = report[start..].find('"').expect("closing quote");
    &report[start..start + len]
}

/// Every per-layer metric that counts work rather than timing it.
const COUNTS: [&str; 13] = [
    "minic-sim.records",
    "minic-sim.steps",
    "minic-trace.bytes_per_record",
    "foray.refs",
    "foray.model_refs",
    "foray.kept_ratio",
    "foray-serve.hit_ratio",
    "foray-serve.evictions",
    "foray-serve.computed",
    "foray-serve.deduped",
    "foray-serve.failed",
    "foray-serve.rejected",
    "foray-serve.payload_bytes",
];

/// `seconds` sets the round count; serve_mix needs enough rounds to evict.
fn check(workload: &str, seconds: u64, nonzero: &[&str]) {
    let (report_a, result_a) = traced_run(workload, 11, seconds);
    let (_, result_b) = traced_run(workload, 11, seconds);
    let (report_c, _) = traced_run(workload, 12, seconds);
    assert!(result_a.starts_with("{\"correct\":true"), "{result_a}");
    for name in COUNTS {
        assert_eq!(value(&result_a, name), value(&result_b, name), "{workload}: {name} moved");
    }
    for name in nonzero {
        assert_ne!(value(&result_a, name).parse::<f64>().expect("a number"), 0.0, "{name}");
    }
    // Times only have to be there.
    value(&result_a, "foray.unattributed_share");
    value(&result_a, "perfbench.trace_overhead_ms");
    assert_eq!(field(&report_a, "mix"), field(&report_c, "mix"), "{workload}: mix moved");
}

#[test]
fn corpus_counts_repeat() {
    check("corpus", 1, &["minic-sim.records", "minic-sim.steps", "foray.refs", "foray.model_refs"]);
}

#[test]
fn trace_replay_counts_repeat() {
    check("trace_replay", 1, &["minic-trace.bytes_per_record"]);
}

#[test]
fn serve_mix_counts_repeat() {
    check(
        "serve_mix",
        6,
        &[
            "foray-serve.hit_ratio",
            "foray-serve.evictions",
            "foray-serve.computed",
            "foray-serve.payload_bytes",
        ],
    );
}
