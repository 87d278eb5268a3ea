//! Regenerates **Table II** of the paper: loops and references converted
//! into FORAY form by Algorithm 1, and the percentage of those not in
//! FORAY form in the original program (i.e., invisible to static
//! techniques). Also prints the paper's headline metric — the average
//! multiplier in analyzable references.
//!
//! ```text
//! cargo run -p foray-bench --bin table2 [scale]
//! ```

use foray::report::render_table;
use foray_bench::{print_report, run_suite};
use foray_workloads::Params;
use std::process::ExitCode;

fn main() -> ExitCode {
    print_report(report)
}

fn report(out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let runs = run_suite(Params { scale });

    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for run in &runs {
        let t = run.table2();
        rows.push(vec![
            run.workload.name.to_string(),
            t.model_loops.to_string(),
            t.model_refs.to_string(),
            format!("{:.0}%", t.pct_loops_not_static()),
            format!("{:.0}%", t.pct_refs_not_static()),
        ]);
        // For benches with zero statically-visible references the ratio is
        // unbounded; following the paper's presentation (100% not in FORAY
        // form) we cap at the model size for the average.
        gains.push(t.gain().unwrap_or(t.model_refs as f64));
    }
    writeln!(out, "Table II. Loops and references converted into FORAY form (scale {scale})\n")?;
    writeln!(
        out,
        "{}",
        render_table(
            &["benchmark", "FORAY loops", "FORAY refs", "loops not static", "refs not static"],
            &rows
        )
    )?;
    let mean = gains.iter().sum::<f64>() / gains.len() as f64;
    let geo = gains.iter().map(|g| g.ln()).sum::<f64>() / gains.len() as f64;
    writeln!(
        out,
        "headline: analyzable references grow {mean:.1}x on average ({:.1}x geometric);",
        geo.exp()
    )?;
    writeln!(out, "          the paper reports \"two times increase ... on average\".")?;
    Ok(())
}
