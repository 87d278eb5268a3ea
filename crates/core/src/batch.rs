//! Batch execution: fan many independent jobs across a shared thread
//! pool.
//!
//! Each trace is analyzed by one sequential online [`crate::Analyzer`];
//! this module is where parallelism lives, *across* jobs. [`map_ordered`]
//! is the one pool: the bench suite and design-space exploration fan
//! their profiling runs ([`crate::ForayGen::run_source`], one per
//! program) across it, and [`analyze_trace_files`] fans trace files.
//! Items are pulled from a shared atomic cursor by `N` scoped worker
//! threads, and results are returned **in item order** regardless of
//! which worker finished first, so batch output is deterministic.

use crate::analyzer::{analyze_source_with, Analysis, AnalyzerConfig};
use minic_trace::{ReadError, TraceFile};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested worker count: `0` means auto-detect,
/// [`std::thread::available_parallelism`].
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1)
}

/// Applies `f` to every item across `workers` threads (`0` = auto-detect,
/// see [`resolve_workers`]), returning one result per item **in item
/// order** regardless of which worker finished first.
///
/// This is the shared pool under [`analyze_trace_files`], the bench suite
/// and `foray_spm`'s design-space exploration: items are pulled from an
/// atomic cursor by scoped workers, so any `Fn(index, &item)` fan-out
/// inherits the same determinism guarantee. `f` receives the item's index
/// alongside the item so callers can label work without capturing extra
/// state.
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
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1);
        assert_eq!(resolve_workers(0), avail, "auto is the machine's available parallelism");
    }
}
