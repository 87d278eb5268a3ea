//! The full design flow of the paper's Fig. 3: Phase I (FORAY-GEN) feeding
//! Phase II (scratch-pad-memory analysis, design-space exploration, and
//! code transformation) on the jpeg-style workload.
//!
//! ```text
//! cargo run --example spm_flow
//! ```

use foray_spm::{EnergyModel, SpmDesignSpace, SpmFlow};
use foray_workloads::{jpegc, Params};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    foray_bench::print_report(tour)
}

fn tour(w: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    // Phase I: extract the FORAY model from the legacy-style program.
    let workload = jpegc::workload(Params::default());
    writeln!(w, "Phase I: FORAY-GEN on `{}` ({})", workload.name, workload.description)?;
    let out = workload.run()?;
    writeln!(
        w,
        "  model: {} references over {} loops, covering {} of {} accesses\n",
        out.model.ref_count(),
        out.model.loop_count(),
        out.model.covered_accesses(),
        out.sim.accesses
    )?;

    // Phase II: reuse analysis + DSE over SPM capacities, one energy model,
    // on the model Phase I extracted.
    writeln!(w, "Phase II: design-space exploration")?;
    writeln!(w, "{:>10} {:>12} {:>14} {:>10}", "SPM bytes", "buffers", "savings (nJ)", "used")?;
    let result = SpmDesignSpace::new()
        .capacities(&[256, 512, 1024, 2048, 4096, 8192, 16384])
        .model("default", EnergyModel::default())
        .workload(workload.name, out.model.clone())
        .explore(0)?;
    let curve = result.curve(workload.name, "default");
    for p in &curve {
        writeln!(
            w,
            "{:>10} {:>12} {:>14.1} {:>10}",
            p.capacity,
            p.selection.chosen.len(),
            p.selection.savings_nj,
            p.selection.used_bytes
        )?;
    }

    // Pick the knee (first capacity achieving ≥ 90% of the max savings).
    let max = curve.last().map_or(0.0, |p| p.selection.savings_nj);
    let knee =
        curve.iter().find(|p| p.selection.savings_nj >= 0.9 * max).map_or(4096, |p| p.capacity);
    writeln!(w, "\nselected capacity: {knee} bytes (knee of the curve)")?;

    let report = SpmFlow::new(EnergyModel::default()).run(&out.model, knee);
    writeln!(
        w,
        "baseline energy {:.1} nJ, saved {:.1} nJ ({:.1}%)\n",
        report.baseline_nj,
        report.selection.savings_nj,
        100.0 * report.selection.savings_nj / report.baseline_nj.max(1e-9)
    )?;
    writeln!(w, "== transformed FORAY model (Phase II output, head) ==")?;
    for line in report.code.lines().take(30) {
        writeln!(w, "{line}")?;
    }
    writeln!(
        w,
        "...\n\nPhase III (manual back-annotation) maps these buffers into the legacy source."
    )?;
    Ok(())
}
