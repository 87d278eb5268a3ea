//! Regenerates the paper's worked figures as runnable demonstrations:
//!
//! * `fig2` — the Fig. 1 excerpts and their FORAY models (Fig. 2);
//! * `fig4` — the complete Fig. 4 walk-through (annotation, trace, model);
//! * `fig7` — both partial-affine scenarios;
//! * `fig9` — the inlining-hint example.
//!
//! ```text
//! cargo run -p foray-bench --bin figures -- [fig2|fig4|fig7|fig9|all]
//! ```

use foray::{FilterConfig, ForayGen};
use foray_bench::print_report;
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    print_report(|w| {
        if matches!(which.as_str(), "fig2" | "all") {
            fig2(w)?;
        }
        if matches!(which.as_str(), "fig4" | "all") {
            fig4(w)?;
        }
        if matches!(which.as_str(), "fig7" | "all") {
            fig7(w)?;
        }
        if matches!(which.as_str(), "fig9" | "all") {
            fig9(w)?;
        }
        Ok(())
    })
}

fn banner(w: &mut dyn Write, s: &str) -> std::io::Result<()> {
    writeln!(w, "\n==================== {s} ====================")
}

fn fig2(w: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    banner(w, "Figure 1 -> Figure 2")?;
    let excerpts: [(&str, &str, FilterConfig); 2] = [
        (
            "*last_bitpos_ptr++ = -1 over components x coefficients",
            "int last_bitpos[192]; int *last_bitpos_ptr;
             void main() {
                 int ci; int coefi;
                 last_bitpos_ptr = last_bitpos;
                 for (ci = 0; ci < 3; ci++) {
                     for (coefi = 0; coefi < 64; coefi++) { *last_bitpos_ptr++ = -1; }
                 }
             }",
            FilterConfig::default(),
        ),
        (
            "result[currow++] = workspace inside while/for",
            "int workspace[1024]; int *result[16]; int currow;
             void main() {
                 int i;
                 currow = 0;
                 while (currow < 16) {
                     for (i = 4; i > 0; i--) { result[currow] = workspace; currow++; }
                 }
             }",
            FilterConfig { n_exec: 16, n_loc: 10 },
        ),
    ];
    for (title, src, filter) in excerpts {
        writeln!(w, "\n-- {title} --")?;
        let out = ForayGen::new().filter(filter).run_source(src)?;
        write!(w, "{}", out.code)?;
    }
    Ok(())
}

fn fig4(w: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    banner(w, "Figure 4")?;
    let src = "char q[10000]; char *ptr;
        void main() {
            int i; int t1 = 98;
            ptr = q;
            while (t1 < 100) {
                t1++;
                ptr += 100;
                for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
            }
        }";
    let out = ForayGen::new().filter(FilterConfig { n_exec: 6, n_loc: 6 }).run_source(src)?;
    writeln!(w, "annotated program:\n{}", minic::pretty(&out.program))?;
    writeln!(w, "FORAY model:\n{}", out.code)?;
    let r = &out.model.refs[0];
    writeln!(
        w,
        "paper expects coefficients (1, 103) and trips (3, 2): got ({}, {}) and ({}, {})",
        r.terms[0].coeff,
        r.terms[1].coeff,
        out.model.loops[&r.node_path[0]].trip,
        out.model.loops[&r.node_path[1]].trip
    )?;
    Ok(())
}

fn fig7(w: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    banner(w, "Figure 7: partial affine index expressions")?;
    writeln!(w, "\n-- case 1: stack-reallocated local array --")?;
    let out = ForayGen::new().run_source(
        "int src[4000]; int sink;
         int foo(int x) {
             int a[100]; int i; int j; int ret;
             ret = 0;
             for (i = 0; i < 10; i++) {
                 for (j = 0; j < 10; j++) { a[j + 10*i] = x; ret += a[j + 10*i]; }
             }
             return ret;
         }
         int wrap(int x) { return foo(x); }
         void main() {
             int x; int tmp; tmp = 0;
             for (x = 0; x < 10; x++) {
                 if (x % 2) { tmp += foo(x); } else { tmp += wrap(x); }
             }
             sink = tmp;
         }",
    )?;
    write!(w, "{}", out.code)?;
    writeln!(w, "\n-- case 2: data-dependent offset parameter --")?;
    let out =
        ForayGen::new().inputs(vec![0, 700, 160, 2400, 1000, 40, 3333, 90, 2048, 512]).run_source(
            "int A[4000]; int sink;
             int foo(int offset) {
                 int ret; int i; int j; ret = 0;
                 for (i = 0; i < 10; i++) {
                     for (j = 0; j < 10; j++) { ret += A[j + 10*i + offset]; }
                 }
                 return ret;
             }
             void main() {
                 int x; int tmp; tmp = 0;
                 for (x = 0; x < 10; x++) { tmp += foo(input(x)); }
                 sink = tmp;
             }",
        )?;
    write!(w, "{}", out.code)?;
    Ok(())
}

fn fig9(w: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    banner(w, "Figure 9: inlining hints")?;
    let out = ForayGen::new().run_source(
        "int A[1000];
         int foo(int offset) {
             int ret; int i; ret = 0;
             for (i = 0; i < 10; i++) { ret += A[i + offset]; }
             return ret;
         }
         void main() {
             int x; int y; int tmp; tmp = 0;
             for (x = 0; x < 10; x++) { tmp += foo(10 * x); }
             for (y = 0; y < 20; y++) { tmp += foo(2 * y); }
             print_int(tmp);
         }",
    )?;
    write!(w, "{}", out.code)?;
    for h in foray::hints::inline_hints(&out.program, out.analysis.tree()) {
        writeln!(
            w,
            "hint: duplicate `{}` — its loop {} runs in {} contexts ({})",
            h.function,
            h.loop_id,
            h.contexts.len(),
            h.context_paths.join(" | ")
        )?;
    }
    Ok(())
}
