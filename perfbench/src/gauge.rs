//! Host speed gauge: end-to-end times in reference-host milliseconds.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed swings
//! in phases of seconds to minutes. On the 2-core host used to build the
//! benchmark, the same `fftc` operation took 4.6 ms in one phase and
//! 8.9 ms in the next, and the median of one program over a 40 s window
//! moved by a quarter (quartile spread over median) from window to window.
//! No run length averages such phases away.
//!
//! A fixed reference kernel, part of the benchmark and independent of the
//! measured crates, is timed just before every operation. Its time next to
//! an operation says how fast the host ran then, and every end-to-end
//! time is rescaled to the kernel's speed on the reference host:
//! `ms * REF_MS / kernel_ms`. The kernel mixes SipHash set inserts with
//! scattered reads and writes of a 1 MiB table, the kind of work the
//! measured path does (`TraceStats`, the analyzer's tables); an
//! L1-resident interpreter-style loop took out only about half as much of
//! the swings.
//! Each sample runs the kernel three times and times the third pass: the
//! first brings the table back into cache, so the sample does not depend
//! on how much of it the operation before evicted, and by the third the
//! activity an operation leaves behind (a forayd connection thread
//! exiting, freed memory) has died down. The third pass ran 5% slower than
//! a later one after a corpus operation and 8% after a forayd request, so
//! a change to that activity moves a sample by a few percent at most.
//! Over 115 s in one process on the reference host, the spread of each
//! program's median across 40 s windows was 0.17-0.25 in wall time and
//! 0.01-0.02 rescaled. Between processes less of it goes (see the
//! README). The wall-clock figures stay in the report line.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// The timed pass's median time on the reference host (2-core x86-64),
/// in ms: a rescaled time reads as the wall time that host gives in its
/// usual phase.
pub const REF_MS: f64 = 0.25;

/// The kernel's table: 1 MiB of `u32`.
const TABLE_WORDS: usize = 1 << 18;
/// Set inserts and table visits per kernel pass.
const STEPS: u64 = 8_000;
/// Untimed passes before the timed one.
const WARM_PASSES: usize = 2;

pub struct Gauge {
    table: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge { table: vec![0; TABLE_WORDS], samples_ms: Vec::new() }
    }
}

impl Gauge {
    /// Times a warm pass of the reference kernel; returns the sample's
    /// index, which the operation that follows keeps.
    pub fn sample(&mut self) -> usize {
        for _ in 0..WARM_PASSES {
            std::hint::black_box(kernel(&mut self.table));
        }
        let start = Instant::now();
        std::hint::black_box(kernel(&mut self.table));
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.samples_ms.len() - 1
    }

    /// `wall`, measured right after sample `at`, in reference-host time:
    /// scaled by the mean of the samples before and after it (the last
    /// operation of a run has only the one before).
    pub fn rescale(&self, wall: f64, at: usize) -> f64 {
        let before = self.samples_ms[at];
        let after = self.samples_ms.get(at + 1).copied().unwrap_or(before);
        wall * REF_MS / ((before + after) / 2.0)
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// The reference kernel: a fixed amount of hashing and scattered memory
/// traffic, deterministic (fixed SipHash keys); a warm pass takes about
/// [`REF_MS`].
fn kernel(table: &mut [u32]) -> u64 {
    let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> =
        HashSet::with_capacity_and_hasher(1 << 12, BuildHasherDefault::default());
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0u64;
    let n = table.len();
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(x & 0x3fff);
        let j = x as usize % n;
        table[j] = table[j].wrapping_add(i as u32);
        acc = acc.wrapping_add(u64::from(table[(j * 7 + 3) % n]));
    }
    acc + set.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_uses_the_samples_around_the_operation() {
        let mut g =
            Gauge { samples_ms: vec![REF_MS, 3.0 * REF_MS, 2.0 * REF_MS], ..Gauge::default() };
        assert_eq!(g.rescale(10.0, 0), 5.0);
        assert_eq!(g.rescale(10.0, 1), 4.0);
        assert_eq!(g.rescale(10.0, 2), 5.0);
        assert_eq!(g.sample(), 3);
        assert!(g.samples_ms()[3] > 0.0);
    }
}
