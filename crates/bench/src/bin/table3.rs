//! Regenerates **Table III** of the paper: memory behaviour of the FORAY
//! models — for each benchmark, total references/accesses/footprint and
//! the split between the FORAY model, system-library code, and the rest.
//!
//! ```text
//! cargo run -p foray-bench --bin table3 [scale]
//! ```

use foray::report::{pct, render_table};
use foray_bench::{human, print_report, run_suite};
use foray_workloads::Params;
use std::process::ExitCode;

fn main() -> ExitCode {
    print_report(report)
}

fn report(out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let runs = run_suite(Params { scale });

    let mut rows = Vec::new();
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0usize);
    for run in &runs {
        let t = run.table3();
        rows.push(vec![
            run.workload.name.to_string(),
            t.total_refs.to_string(),
            human(t.total_accesses),
            t.total_footprint.to_string(),
            format!("{:.0}%", pct(t.model_refs, t.total_refs)),
            format!("{:.0}%", pct(t.model_accesses, t.total_accesses)),
            format!("{:.0}%", pct(t.model_footprint, t.total_footprint)),
            format!("{:.0}%", pct(t.lib_refs, t.total_refs)),
            format!("{:.0}%", pct(t.lib_accesses, t.total_accesses)),
            format!("{:.0}%", pct(t.lib_footprint, t.total_footprint)),
            format!("{:.0}%", pct(t.other_footprint, t.total_footprint)),
        ]);
        sums.0 += pct(t.model_refs, t.total_refs);
        sums.1 += pct(t.model_accesses, t.total_accesses);
        sums.2 += pct(t.model_footprint, t.total_footprint);
        sums.3 += 1;
    }
    writeln!(out, "Table III. Memory behaviour of the FORAY models (scale {scale})\n")?;
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "benchmark",
                "refs",
                "accesses",
                "footprint",
                "model refs",
                "model acc",
                "model fp",
                "lib refs",
                "lib acc",
                "lib fp",
                "other fp"
            ],
            &rows
        )
    )?;
    let n = sums.3 as f64;
    writeln!(
        out,
        "averages: {:.1}% of references / {:.1}% of accesses / {:.1}% of footprint in the model",
        sums.0 / n,
        sums.1 / n,
        sums.2 / n
    )?;
    writeln!(
        out,
        "          (paper averages: 2.2% of references, 29% of accesses, 44% of footprint)"
    )?;
    Ok(())
}
