//! Quickstart: the paper's Fig. 4 worked example, end to end.
//!
//! Runs FORAY-GEN on the two-loop pointer-walking program of Fig. 4(a) and
//! prints the annotated source (Fig. 4(b)), the head of the trace in the
//! paper's format (Fig. 4(c)), and the extracted FORAY model (Fig. 4(d)).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use foray::{FilterConfig, ForayGen};
use minic_trace::text;
use std::io::Write;
use std::process::ExitCode;

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

fn main() -> ExitCode {
    foray_bench::print_report(tour)
}

fn tour(w: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    writeln!(w, "== Fig 4(a): original program ==\n{FIGURE_4A}\n")?;

    // Step 1: annotate (Fig 4(b)).
    let prog = minic::frontend(FIGURE_4A)?;
    writeln!(w, "== Fig 4(b): annotated program ==\n{}", minic::pretty(&prog))?;

    // Step 2: profile; keep the trace to show Fig 4(c).
    let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[])?;
    writeln!(w, "== Fig 4(c): trace file (first 24 records) ==")?;
    for r in records.iter().take(24) {
        writeln!(w, "{}", text::format_record(r))?;
    }
    writeln!(w, "... ({} records total)\n", records.len())?;

    // Steps 3-4 + emission. Fig 4 shows the unfiltered view, so relax the
    // thresholds below the example's 6 executions / 6 locations.
    let out = ForayGen::new().filter(FilterConfig { n_exec: 6, n_loc: 6 }).run_source(FIGURE_4A)?;
    writeln!(w, "== Fig 4(d): FORAY model ==\n{}", out.code)?;

    let r = &out.model.refs[0];
    writeln!(
        w,
        "recovered expression: {}[{} + {}*inner + {}*outer], trips 3 and 2",
        r.array_name(),
        r.constant,
        r.terms[0].coeff,
        r.terms[1].coeff
    )?;
    assert_eq!(r.terms[0].coeff, 1, "inner loop walks bytes");
    assert_eq!(r.terms[1].coeff, 103, "outer loop advances 100 + 3 bytes");
    writeln!(w, "\ncoefficients match the paper: 1*i_inner + 103*i_outer")?;
    Ok(())
}
