//! Regenerates **Table I** of the paper: benchmark complexity and loop
//! distribution (lines of code, executed loops, for/while/do split).
//!
//! ```text
//! cargo run -p foray-bench --bin table1 [scale]
//! ```

use foray::report::{pct, render_table};
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
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for run in &runs {
        let t = run.table1();
        rows.push(vec![
            run.workload.name.to_string(),
            t.lines.to_string(),
            t.total_loops.to_string(),
            format!("{:.0}%", pct(t.for_loops as u64, t.total_loops as u64)),
            format!("{:.0}%", pct(t.while_loops as u64, t.total_loops as u64)),
            format!("{:.0}%", pct(t.do_loops as u64, t.total_loops as u64)),
        ]);
        totals.0 += t.total_loops;
        totals.1 += t.for_loops;
        totals.2 += t.while_loops;
        totals.3 += t.do_loops;
    }
    writeln!(out, "Table I. Benchmark complexity and loop distribution (scale {scale})\n")?;
    let headers = ["benchmark", "lines", "loops", "for", "while", "do"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    let non_for = totals.2 + totals.3;
    writeln!(
        out,
        "non-for loops overall: {:.0}% (paper reports 23% on average)",
        pct(non_for as u64, totals.0 as u64)
    )?;
    Ok(())
}
