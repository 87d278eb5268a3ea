//! End-to-end smoke test: the paper's Fig. 4 worked example through the
//! real `foray-gen` binary, guarding the whole frontend → simulator →
//! analyzer → codegen path and the recovered affine coefficients.

use std::process::Command;

/// Fig. 4(a): pointer-walking nest whose single reference is the affine
/// function `q + 100 + 1*i_inner + 103*i_outer`.
const FIGURE_4A: &str = "char q[10000];
char *ptr;
void main() {
    int i;
    int t1 = 98;
    ptr = q;
    while (t1 < 100) {
        t1++;
        ptr += 100;
        for (i = 40; i > 37; i--) {
            *ptr++ = i * i % 256;
        }
    }
}";

fn write_fixture(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("foray_cli_smoke_{name}.mc"));
    std::fs::write(&path, FIGURE_4A).unwrap();
    path
}

fn foray_gen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_foray-gen"))
        .args(args)
        .output()
        .expect("foray-gen binary runs")
}

#[test]
fn model_command_recovers_figure4_coefficients() {
    let path = write_fixture("model");
    let out = foray_gen(&["model", path.to_str().unwrap(), "--nexec", "6", "--nloc", "6"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One reference, affine in both loops with coefficients 1 (inner) and
    // 103 (outer) — Fig. 4(d)'s `1*i15 + 103*i12` in our loop numbering.
    assert!(
        stdout.contains("+ 1*i3 + 103*i0]"),
        "model output lost the Fig. 4 affine function:\n{stdout}"
    );
    assert!(stdout.contains("// wr x6"), "expected 6 writes:\n{stdout}");
}

#[test]
fn executable_model_reprofiles_to_the_same_coefficients() {
    // --executable emits the model as a runnable mini-C program; piping it
    // back through `model` must be a fixpoint on the affine function.
    let path = write_fixture("exec");
    let first = foray_gen(&[
        "model",
        path.to_str().unwrap(),
        "--nexec",
        "6",
        "--nloc",
        "6",
        "--executable",
    ]);
    assert!(first.status.success());
    let emitted = std::env::temp_dir().join("foray_cli_smoke_emitted.mc");
    std::fs::write(&emitted, &first.stdout).unwrap();
    let second = foray_gen(&["model", emitted.to_str().unwrap(), "--nexec", "6", "--nloc", "6"]);
    assert!(second.status.success(), "stderr: {}", String::from_utf8_lossy(&second.stderr));
    let stdout = String::from_utf8(second.stdout).unwrap();
    assert!(
        stdout.contains("1*") && stdout.contains("103*"),
        "re-profiled model lost the coefficients:\n{stdout}"
    );
}

#[test]
fn dse_report_is_deterministic_in_the_job_count() {
    // The acceptance bar for the DSE engine: the Pareto report and the JSON
    // artifact must be byte-identical for --jobs 1 and --jobs 4, and the
    // --check invariants (non-empty monotone fronts) must hold.
    let json1 = std::env::temp_dir().join("foray_cli_smoke_dse_jobs1.json");
    let json4 = std::env::temp_dir().join("foray_cli_smoke_dse_jobs4.json");
    let run = |jobs: &str, json: &std::path::Path| {
        foray_gen(&[
            "dse",
            "--workloads",
            "fftc,adpcmc",
            "--capacities",
            "256,1024,4096",
            "--models",
            "small-spm,large-spm",
            "--jobs",
            jobs,
            "--json",
            json.to_str().unwrap(),
            "--check",
        ])
    };
    let seq = run("1", &json1);
    let par = run("4", &json4);
    assert!(seq.status.success(), "stderr: {}", String::from_utf8_lossy(&seq.stderr));
    assert!(par.status.success(), "stderr: {}", String::from_utf8_lossy(&par.stderr));
    assert_eq!(seq.stdout, par.stdout, "job count leaked into the text report");
    let j1 = std::fs::read_to_string(&json1).unwrap();
    let j4 = std::fs::read_to_string(&json4).unwrap();
    assert_eq!(j1, j4, "job count leaked into the JSON artifact");
    assert!(j1.contains("\"schema\": \"foray-dse/v1\""));
    assert!(j1.contains("\"pareto\": true"));
    let stdout = String::from_utf8(seq.stdout).unwrap();
    assert!(stdout.contains("Pareto front"), "missing ranked front:\n{stdout}");
}

#[test]
fn trace_file_pipeline_matches_the_in_ram_model() {
    // The acceptance bar for the file-backed trace pipeline: record a
    // workload trace to disk, re-analyze it from the file, and require
    // byte-identical model output to the in-RAM run.
    let ftrace = std::env::temp_dir().join("foray_cli_smoke_fftc.ftrace");
    let in_ram = foray_gen(&["model", "--workload", "fftc"]);
    assert!(in_ram.status.success(), "stderr: {}", String::from_utf8_lossy(&in_ram.stderr));

    let mut sizes = std::collections::HashMap::new();
    for format in ["v1", "v2"] {
        let record = foray_gen(&[
            "trace",
            "record",
            "--workload",
            "fftc",
            "-o",
            ftrace.to_str().unwrap(),
            "--trace-format",
            format,
        ]);
        assert!(record.status.success(), "stderr: {}", String::from_utf8_lossy(&record.stderr));
        let summary = String::from_utf8(record.stdout).unwrap();
        assert!(
            summary.contains(&std::format!("foray-trace/{format}")),
            "missing record summary:\n{summary}"
        );
        sizes.insert(format, std::fs::metadata(&ftrace).unwrap().len());

        let from_file = foray_gen(&["trace", "analyze", ftrace.to_str().unwrap()]);
        assert!(
            from_file.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&from_file.stderr)
        );
        assert_eq!(
            in_ram.stdout, from_file.stdout,
            "{format} file-backed model must be byte-identical"
        );
    }
    assert!(
        sizes["v2"] < sizes["v1"],
        "compressed v2 ({}) must be smaller than v1 ({})",
        sizes["v2"],
        sizes["v1"]
    );
    // The v2 file is still on disk: the checkpoint-index seek path runs
    // end to end through the binary too.
    let seeked = foray_gen(&["trace", "analyze", ftrace.to_str().unwrap(), "--from-loop", "0"]);
    assert!(seeked.status.success(), "stderr: {}", String::from_utf8_lossy(&seeked.stderr));
    std::fs::remove_file(&ftrace).ok();
}

#[test]
fn usage_and_compile_errors_map_to_distinct_exit_codes() {
    let usage = foray_gen(&["model"]);
    assert_eq!(usage.status.code(), Some(1), "missing file is a usage error");
    let fixture = write_fixture("usage");
    let unknown = foray_gen(&["model", fixture.to_str().unwrap(), "--jobs", "3"]);
    assert_eq!(unknown.status.code(), Some(1), "an unknown flag is a usage error");

    let broken = std::env::temp_dir().join("foray_cli_smoke_broken.mc");
    std::fs::write(&broken, "void main() {").unwrap();
    let compile = foray_gen(&["model", broken.to_str().unwrap()]);
    assert_eq!(compile.status.code(), Some(2), "parse failure is a compile error");
}
