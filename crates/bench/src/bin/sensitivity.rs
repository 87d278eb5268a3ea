//! The paper's stated future work: sensitivity of the FORAY model to the
//! input data set used for profiling. Profiles each workload under several
//! input seeds and reports model stability (fraction of references whose
//! affine terms survive an input change).
//!
//! ```text
//! cargo run -p foray-bench --bin sensitivity [seeds]
//! ```

use foray::report::render_table;
use foray_bench::print_report;
use foray_workloads::{all, input, Params};
use std::process::ExitCode;

fn main() -> ExitCode {
    print_report(report)
}

fn report(out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let mut rows = Vec::new();
    for workload in all(Params::default()) {
        let base = workload.run()?;
        let mut min_stability = 1.0f64;
        let mut worst = foray::ModelDiff::default();
        for seed in 1..=seeds {
            let mut alt = workload.clone();
            let n = alt.inputs.len();
            alt.inputs = match workload.name {
                "jpegc" | "susanc" => input::image(seed.wrapping_mul(0x9e37), n, 1),
                _ => input::audio(seed.wrapping_mul(0x9e37), n),
            };
            let out = alt.run()?;
            let diff = base.model.diff(&out.model);
            if diff.stability() < min_stability {
                min_stability = diff.stability();
                worst = diff;
            }
        }
        rows.push(vec![
            workload.name.to_string(),
            base.model.ref_count().to_string(),
            format!("{:.1}%", 100.0 * min_stability),
            worst.changed.to_string(),
            (worst.only_left + worst.only_right).to_string(),
        ]);
    }
    writeln!(out, "Model stability across {seeds} alternative input sets\n")?;
    writeln!(
        out,
        "{}",
        render_table(
            &["benchmark", "model refs", "min stability", "changed", "appear/vanish"],
            &rows
        )
    )?;
    writeln!(out, "stability = references whose affine terms survive the input change;")?;
    writeln!(out, "the paper left this study as future work (Section 6).")?;
    Ok(())
}
