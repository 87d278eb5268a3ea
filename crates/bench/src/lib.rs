//! # foray-bench — experiment harness for the FORAY-GEN reproduction
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 5) from the workload suite:
//!
//! * `cargo run -p foray-bench --bin table1` — Table I (benchmark
//!   complexity and loop distribution);
//! * `... --bin table2` — Table II (loops/references converted into FORAY
//!   form, and the share not statically analyzable) plus the paper's 2x
//!   headline;
//! * `... --bin table3` — Table III (memory behaviour of the FORAY
//!   models);
//! * `... --bin figures` — Figs. 2, 4, 7, 9 as runnable demonstrations;
//! * `... --bin sensitivity` — the paper's future-work experiment (model
//!   stability across input sets);
//! * `... --bin filter_sweep` — ablation of the Step 4 thresholds.
//!
//! The Phase II design-space exploration over the whole corpus is
//! `foray-gen dse` (the CLI), whose default space is [`dse_space`].
//!
//! Four gated bins measure the system itself — `sim_exec`,
//! `analyzer_hot`, `serve_rtt` and `trace_codec` — and share their command
//! line, record shape and `--check` gate through [`harness`]; each run can
//! append one line to the committed `BENCH_history.jsonl`. `analyzer_hot`
//! also checks the paper's Section 4 cost claims: time per record flat as
//! the trace grows, and time per access growing only gently with nest
//! depth.

#![warn(missing_docs)]

pub mod harness;

use foray::{CaptureComparison, ForayGenOutput, LoopBreakdown, MemoryBehavior};
use foray_workloads::{all, Params, Workload};
use std::collections::HashSet;
use std::error::Error;
use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

/// One workload's complete experiment bundle.
pub struct BenchRun {
    /// The workload itself.
    pub workload: Workload,
    /// Full FORAY-GEN output.
    pub output: ForayGenOutput,
    /// Static detector results over the profiled program.
    pub static_analysis: foray_baseline::StaticAnalysis,
}

impl BenchRun {
    /// Runs one workload end to end.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to compile or run — that is a bug in
    /// the workload crate, not an experiment outcome.
    pub fn execute(workload: Workload) -> BenchRun {
        let output = workload.run().expect("workload runs");
        let static_analysis = foray_baseline::analyze_program(&output.program);
        BenchRun { workload, output, static_analysis }
    }

    /// Table I row.
    pub fn table1(&self) -> LoopBreakdown {
        LoopBreakdown::compute(&self.workload.source, &self.output.program, &self.output.analysis)
    }

    /// Table II row.
    pub fn table2(&self) -> CaptureComparison {
        let loops: HashSet<minic::LoopId> =
            self.static_analysis.canonical_loops.iter().copied().collect();
        CaptureComparison::compute(
            &self.output.model,
            &loops,
            &self.static_analysis.affine_instrs(),
        )
    }

    /// Table III row.
    pub fn table3(&self) -> MemoryBehavior {
        MemoryBehavior::compute(&self.output.analysis, &self.output.model)
    }
}

/// Runs the whole suite at a scale, fanning the workloads across the
/// shared batch thread pool (auto-sized worker count). Results are in
/// workload order and identical to sequential [`BenchRun::execute`] runs
/// regardless of scheduling.
pub fn run_suite(params: Params) -> Vec<BenchRun> {
    foray::map_ordered(&all(params), 0, |_, w| BenchRun::execute(w.clone()))
}

/// The corpus design space: every workload at `params`, profiled across
/// the shared pool, in [`foray_spm::SpmDesignSpace::standard`] — the space
/// `foray-gen dse` explores by default. (CI's `dse-smoke` job runs the CLI
/// on a five-capacity grid, without 8192.)
///
/// # Panics
///
/// Panics if a workload fails to compile or run, as [`BenchRun::execute`]
/// does.
pub fn dse_space(params: Params) -> foray_spm::SpmDesignSpace {
    let workloads = all(params);
    let models = foray::map_ordered(&workloads, 0, |_, w| w.run().expect("workload runs").model);
    let names = workloads.iter().map(|w| w.name.to_owned());
    foray_spm::SpmDesignSpace::standard().workloads(names.zip(models))
}

/// Human-friendly access counts (`8.3M` style, as in Table III).
pub fn human(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Runs a paper bin's or an example's `report`, which prints through one
/// locked, buffered stdout. A reader that closes the pipe early (`| head
/// -1`) ends the report quietly with exit 0, as `foray-gen` does. Any
/// other error is printed to stderr and exits 1.
pub fn print_report(report: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>) -> ExitCode {
    match run_report(BufWriter::new(io::stdout().lock()), report) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A closed stderr must not turn the exit code into a panic.
            let _ = writeln!(io::stderr(), "error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// [`print_report`] into `out`: a broken pipe counts as success only when
/// `out` is what broke, not a file or socket the report opened.
fn run_report(
    out: impl Write,
    report: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>,
) -> Result<(), Box<dyn Error>> {
    let mut out = ReaderAware { out, closed: false };
    let ran = report(&mut out).and_then(|()| Ok(out.flush()?));
    match ran {
        Err(e) if out.closed && is_broken_pipe(&*e) => Ok(()),
        other => other,
    }
}

fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>().is_some_and(|e| e.kind() == ErrorKind::BrokenPipe)
}

/// A writer that notes a write which found its reader gone.
struct ReaderAware<W> {
    out: W,
    closed: bool,
}

impl<W: Write> ReaderAware<W> {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        self.closed |= result.as_ref().is_err_and(|e| e.kind() == ErrorKind::BrokenPipe);
        result
    }
}

impl<W: Write> Write for ReaderAware<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.out.write(buf);
        self.note(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = self.out.flush();
        self.note(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stdout whose reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_a_report_quietly_and_other_errors_stay_errors() {
        let printing = |out: &mut dyn Write| -> Result<(), Box<dyn Error>> {
            for line in 0..10_000 {
                writeln!(out, "line {line}")?;
            }
            Ok(())
        };
        assert!(run_report(ClosedPipe, printing).is_ok());
        let failing = |_: &mut dyn Write| -> Result<(), Box<dyn Error>> { Err("no model".into()) };
        assert_eq!(run_report(ClosedPipe, failing).unwrap_err().to_string(), "no model");
        // A broken pipe that stdout did not see is the report's own error.
        let socket = |_: &mut dyn Write| -> Result<(), Box<dyn Error>> {
            Err(io::Error::from(ErrorKind::BrokenPipe).into())
        };
        assert!(run_report(Vec::new(), socket).is_err());
    }

    #[test]
    fn render_alignment() {
        let t = foray::report::render_table(
            &["name", "n"],
            &[vec!["a".into(), "1".into()], vec!["long".into(), "100".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("100"));
    }

    #[test]
    fn pct_and_human() {
        // The paper tables' percent cells.
        assert_eq!(format!("{:.0}%", foray::report::pct(1, 4)), "25%");
        assert_eq!(format!("{:.0}%", foray::report::pct(0, 0)), "0%");
        assert_eq!(human(8_300_000), "8.3M");
        assert_eq!(human(123_456), "123k");
        assert_eq!(human(42), "42");
        assert_eq!(human(43_000_000), "43M");
    }

    #[test]
    fn batched_suite_matches_direct_execution() {
        // The batch pool must not change any experiment number.
        let batched = run_suite(Params::default());
        assert_eq!(batched.len(), 7);
        let direct =
            BenchRun::execute(foray_workloads::by_name("gsmc", Params::default()).unwrap());
        let from_batch = batched.iter().find(|r| r.workload.name == "gsmc").unwrap();
        assert_eq!(from_batch.output.analysis, direct.output.analysis);
        assert_eq!(from_batch.output.code, direct.output.code);
        let t3a = from_batch.table3();
        let t3b = direct.table3();
        assert_eq!(t3a.total_accesses, t3b.total_accesses);
        assert_eq!(t3a.model_footprint, t3b.model_footprint);
    }

    #[test]
    fn bench_run_executes_one_workload() {
        let w = foray_workloads::by_name("adpcmc", Params::default()).unwrap();
        let run = BenchRun::execute(w);
        let t1 = run.table1();
        assert_eq!(t1.total_loops, 2);
        let t2 = run.table2();
        assert_eq!(t2.model_refs, 1);
        assert_eq!(t2.static_refs, 0);
        let t3 = run.table3();
        assert!(t3.total_accesses > 0);
    }
}
