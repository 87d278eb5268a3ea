//! Batch execution: fan many full FORAY-GEN jobs across a shared thread
//! pool.
//!
//! Each trace is analyzed by one sequential online [`crate::Analyzer`];
//! this module is where parallelism lives, *across* jobs — the shape of
//! the bench suite (workload corpus × tables), of trace-file batches, and
//! of design-space exploration sweeps. Jobs are pulled from a shared
//! atomic cursor by `N` scoped worker threads, and results are returned
//! **in job order** regardless of which worker finished first, so batch
//! output is deterministic.

use crate::analyzer::{analyze_source_with, Analysis, AnalyzerConfig};
use crate::pipeline::{ForayGen, ForayGenOutput, PipelineError};
use minic_trace::{ReadError, TraceFile};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One unit of batch work: a source program plus the pipeline to run it
/// through (filter thresholds, inputs, analyzer configuration).
#[derive(Debug, Clone, Default)]
pub struct BatchJob {
    /// Label for reports (workload name, file name, ...).
    pub name: String,
    /// mini-C source text.
    pub source: String,
    /// The configured pipeline to run the source through.
    pub pipeline: ForayGen,
}

impl BatchJob {
    /// Creates a job with a default pipeline.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchJob {
        BatchJob { name: name.into(), source: source.into(), pipeline: ForayGen::new() }
    }

    /// Replaces the pipeline configuration.
    pub fn pipeline(mut self, pipeline: ForayGen) -> BatchJob {
        self.pipeline = pipeline;
        self
    }
}

/// Parses a `FORAY_TEST_THREADS`-style worker-count override.
///
/// # Errors
///
/// A human-readable message when the value cannot name a worker count
/// (non-numeric, or zero — zero means "auto" only as the *absence* of the
/// variable, never as its value).
///
/// # Examples
///
/// ```
/// assert_eq!(foray::parse_thread_override("4"), Ok(4));
/// assert!(foray::parse_thread_override("0").is_err());
/// assert!(foray::parse_thread_override("many").is_err());
/// ```
pub fn parse_thread_override(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => {
            Err(format!("`{value}` requests zero workers (use >= 1, or unset to auto-detect)"))
        }
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{value}` is not a worker count")),
    }
}

/// Resolves a requested worker count: `0` means auto-detect — the
/// `FORAY_TEST_THREADS` environment override if set (the CI knob for
/// exercising the pool under constrained parallelism), otherwise
/// [`std::thread::available_parallelism`].
///
/// An unusable `FORAY_TEST_THREADS` value (garbage, or `0`) is *not*
/// silently ignored: it falls back to available parallelism with a
/// once-per-process warning on stderr, so CI matrix typos surface instead
/// of quietly running at the wrong width.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1);
    if let Ok(v) = std::env::var("FORAY_TEST_THREADS") {
        match parse_thread_override(&v) {
            Ok(n) => return n,
            Err(msg) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring FORAY_TEST_THREADS={v:?}: {msg}; \
                         falling back to {auto} workers (available parallelism)"
                    );
                });
            }
        }
    }
    auto
}

/// Applies `f` to every item across `workers` threads (`0` = auto-detect,
/// see [`resolve_workers`]), returning one result per item **in item
/// order** regardless of which worker finished first.
///
/// This is the shared pool under [`analyze_batch`] and
/// `foray_spm`'s design-space exploration: items are pulled from an atomic
/// cursor by scoped workers, so any `Fn(index, &item)` fan-out inherits the
/// same determinism guarantee. `f` receives the item's index alongside the
/// item so callers can label work without capturing extra state.
///
/// # Examples
///
/// ```
/// let squares = foray::map_ordered(&[1u32, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = resolve_workers(workers).min(items.len());
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("every item produces exactly one result")).collect()
}

/// Runs every job across `workers` threads (`0` = auto-detect, see
/// [`resolve_workers`]), returning one result per job **in job order**.
///
/// # Examples
///
/// ```
/// use foray::BatchJob;
///
/// let jobs = vec![
///     BatchJob::new("a", "int x[64]; void main() { int i; for (i = 0; i < 64; i++) { x[i] = i; } }"),
///     BatchJob::new("b", "void main() {"), // does not compile
/// ];
/// let results = foray::analyze_batch(&jobs, 2);
/// assert!(results[0].is_ok());
/// assert!(matches!(results[1], Err(foray::PipelineError::Frontend(_))));
/// ```
pub fn analyze_batch(
    jobs: &[BatchJob],
    workers: usize,
) -> Vec<Result<ForayGenOutput, PipelineError>> {
    map_ordered(jobs, workers, |_, job| job.pipeline.run_source(&job.source))
}

/// Analyzes many pre-recorded `foray-trace` files (v1 or v2) across
/// `workers` threads (`0` = auto-detect), one result per path **in path
/// order**.
///
/// This is the batch companion of [`crate::analyze_source`]: each file is
/// opened with [`minic_trace::TraceFile::open`] and analyzed by one
/// sequential analyzer under `config`; parallelism comes from the fan-out
/// across files. Per-file failures stay in their slot.
///
/// # Examples
///
/// ```no_run
/// let paths = ["a.ftrace", "b.ftrace"];
/// let results = foray::analyze_trace_files(&paths, 0, &foray::AnalyzerConfig::default());
/// assert_eq!(results.len(), 2);
/// ```
pub fn analyze_trace_files<P: AsRef<Path> + Sync>(
    paths: &[P],
    workers: usize,
    config: &AnalyzerConfig,
) -> Vec<Result<Analysis, ReadError>> {
    map_ordered(paths, workers, |_, path| {
        let file = TraceFile::open(path)?;
        analyze_source_with(&file, config.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "int a[128]; void main() { int i; for (i = 0; i < 128; i++) { a[i] = i; } }";

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n).map(|i| BatchJob::new(format!("job{i}"), GOOD)).collect()
    }

    #[test]
    fn results_arrive_in_job_order() {
        let js = jobs(9);
        let results = analyze_batch(&js, 4);
        assert_eq!(results.len(), 9);
        for r in &results {
            let out = r.as_ref().expect("job runs");
            assert_eq!(out.model.ref_count(), 1);
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let mut js = jobs(4);
        js[2].source = "void main() {".to_owned();
        let results = analyze_batch(&js, 2);
        assert!(results[0].is_ok() && results[1].is_ok() && results[3].is_ok());
        assert!(matches!(results[2], Err(PipelineError::Frontend(_))));
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(analyze_batch(&[], 4).is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let js = jobs(2);
        let results = analyze_batch(&js, 16);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn map_ordered_is_deterministic_and_ordered() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 5, 0] {
            assert_eq!(map_ordered(&items, workers, |_, &x| x * 3 + 1), expected);
        }
        assert!(map_ordered(&[] as &[u64], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn map_ordered_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = map_ordered(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn resolve_workers_prefers_explicit_request() {
        // Explicit requests pass through verbatim, however large.
        for k in [1usize, 2, 3, 7, 64] {
            assert_eq!(resolve_workers(k), k);
        }
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn auto_workers_track_the_environment() {
        let auto = resolve_workers(0);
        let override_k =
            std::env::var("FORAY_TEST_THREADS").ok().and_then(|v| parse_thread_override(&v).ok());
        match override_k {
            Some(n) => assert_eq!(auto, n, "env override is honored verbatim"),
            None => {
                let avail =
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1);
                assert_eq!(auto, avail, "auto is the machine's full parallelism");
            }
        }
    }

    #[test]
    fn thread_override_parses_strictly() {
        assert_eq!(parse_thread_override("4"), Ok(4));
        assert_eq!(parse_thread_override(" 2 "), Ok(2), "whitespace is tolerated");
        for bad in ["0", "", "banana", "-1", "1.5"] {
            let err = parse_thread_override(bad).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "error names the value: {err}");
        }
    }

    #[test]
    fn batch_agrees_with_direct_runs() {
        let js = jobs(3);
        let batch = analyze_batch(&js, 3);
        for (job, res) in js.iter().zip(&batch) {
            let direct = job.pipeline.run_source(&job.source).unwrap();
            let out = res.as_ref().unwrap();
            assert_eq!(out.analysis, direct.analysis);
            assert_eq!(out.code, direct.code);
        }
    }
}
