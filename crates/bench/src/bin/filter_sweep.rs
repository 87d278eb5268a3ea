//! Ablation of Step 4's purge heuristic: how the model size responds to
//! the `Nexec`/`Nloc` thresholds (the paper fixes them at 20/10 "to
//! eliminate small arrays that can fit in the scratch pad completely ...
//! and references which do not exhibit a lot of reuse").
//!
//! ```text
//! cargo run -p foray-bench --bin filter_sweep
//! ```

use foray::report::render_table;
use foray::{FilterConfig, ForayGen, ForayModel};
use foray_bench::print_report;
use foray_workloads::{all, Params};
use std::process::ExitCode;

fn main() -> ExitCode {
    print_report(report)
}

fn report(out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    let sweeps: [(u64, u64); 6] = [(1, 1), (5, 5), (20, 10), (50, 10), (20, 50), (100, 100)];
    let mut rows = Vec::new();
    for workload in all(Params::default()) {
        // One profiling run; re-filter the same analysis repeatedly.
        let out =
            workload.run_with(ForayGen::new().filter(FilterConfig { n_exec: 1, n_loc: 1 }))?;
        let mut cells = vec![workload.name.to_string()];
        for (n_exec, n_loc) in sweeps {
            let model = ForayModel::extract(&out.analysis, &FilterConfig { n_exec, n_loc });
            cells.push(model.ref_count().to_string());
        }
        rows.push(cells);
    }
    let headers: Vec<String> = std::iter::once("benchmark".to_owned())
        .chain(sweeps.iter().map(|(e, l)| format!("{e}/{l}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    writeln!(out, "FORAY model size (references) under Nexec/Nloc sweeps\n")?;
    writeln!(out, "{}", render_table(&headers_ref, &rows))?;
    writeln!(out, "paper default: 20/10 (third column).")?;
    Ok(())
}
