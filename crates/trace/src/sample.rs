//! Deterministic trace sampling.
//!
//! Billion-record traces do not need every access to fit a good affine
//! model — but they *do* need reproducibility: the same program and the
//! same configuration must always yield the same model, independent of
//! wall-clock, thread scheduling, or a global RNG. Every mode here is
//! therefore a pure function of a seeded counter/hash over the access
//! stream:
//!
//! | Spec | Meaning |
//! |---|---|
//! | `full` | identity — every record forwarded |
//! | `every:N` | per reference, keep accesses `0, N, 2N, ...` |
//! | `warmup:N` | per reference, *skip* the first `N` accesses |
//! | `reservoir:N[:SEED]` | per reference, keep the first `N` accesses, then accept access `k` iff `hash(seed, instr, k) mod (k+1) < N` — Algorithm R's acceptance schedule made deterministic, forwarding `O(N log K)` of `K` accesses |
//!
//! "Per reference" means per instruction address: each decision depends
//! only on that reference's own access sub-sequence, never on how other
//! references interleave with it. Thinning a trace while recording it
//! ([`SampleSink`]) and sampling inside the analyzer ([`SampleState`])
//! therefore make **identical** decisions. Checkpoints always pass
//! (Algorithm 2's loop-tree reconstruction must see every one), so
//! sampling changes *model fidelity*, never *model validity*.
//!
//! [`SampleState`] is the bare accept/reject decision procedure (embedded
//! by the analyzer); [`SampleSink`] lifts it into a composable
//! [`TraceSink`] adapter for filtering arbitrary consumers (e.g. a
//! [`crate::TraceWriter`] recording a thinned trace).

use crate::record::{Access, Record};
use crate::sink::TraceSink;
use std::collections::HashMap;
use std::fmt;

/// Seed used by `reservoir:N` when the spec does not carry one.
pub const DEFAULT_SAMPLE_SEED: u64 = 0x5EED_F04A_9E37_79B9;

/// A deterministic sampling policy (see the module docs for the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleSpec {
    /// Identity: every access forwarded.
    #[default]
    Full,
    /// Per reference, keep every `n`-th access (the 0th, `n`-th, ...).
    EveryNth {
        /// Keep one access in `n`; `1` (or `0`) is the identity.
        n: u64,
    },
    /// Per reference, skip the first `skip` accesses (drop cold-start
    /// noise before the steady-state pattern); `0` is the identity.
    Warmup {
        /// Accesses to drop per reference before forwarding.
        skip: u64,
    },
    /// Per reference, keep the first `size` accesses, then follow
    /// Algorithm R's acceptance schedule with a seeded hash in place of
    /// the RNG.
    Reservoir {
        /// Guaranteed-kept prefix length / acceptance numerator.
        size: u64,
        /// Hash seed ([`DEFAULT_SAMPLE_SEED`] unless the spec names one).
        seed: u64,
    },
}

impl SampleSpec {
    /// Whether this spec forwards every record unchanged.
    pub fn is_identity(&self) -> bool {
        matches!(
            self,
            SampleSpec::Full | SampleSpec::EveryNth { n: 0 | 1 } | SampleSpec::Warmup { skip: 0 }
        )
    }

    /// Parses the CLI spelling: `full`, `every:N`, `warmup:N`, or
    /// `reservoir:N[:SEED]`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the spec is malformed (unknown mode,
    /// missing or non-numeric parameter, `every:0`/`reservoir:0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use minic_trace::SampleSpec;
    ///
    /// assert_eq!(SampleSpec::parse("every:8"), Ok(SampleSpec::EveryNth { n: 8 }));
    /// assert!(SampleSpec::parse("every:0").is_err());
    /// assert!(SampleSpec::parse("coinflip").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<SampleSpec, String> {
        let mut parts = spec.split(':');
        let mode = parts.next().unwrap_or_default();
        let num = |p: Option<&str>| -> Result<u64, String> {
            let v = p.ok_or_else(|| format!("`{spec}` is missing its numeric parameter"))?;
            v.parse().map_err(|_| format!("`{v}` in `{spec}` is not a number"))
        };
        let done = |mut parts: std::str::Split<'_, char>, r: SampleSpec| match parts.next() {
            Some(extra) => Err(format!("unexpected `{extra}` in `{spec}`")),
            None => Ok(r),
        };
        match mode {
            "full" | "none" => done(parts, SampleSpec::Full),
            "every" => match num(parts.next())? {
                0 => Err(format!("`{spec}`: every:N needs N >= 1")),
                n => done(parts, SampleSpec::EveryNth { n }),
            },
            "warmup" => {
                let skip = num(parts.next())?;
                done(parts, SampleSpec::Warmup { skip })
            }
            "reservoir" => match num(parts.next())? {
                0 => Err(format!("`{spec}`: reservoir:N needs N >= 1")),
                size => {
                    let seed = match parts.next() {
                        Some(s) => s
                            .parse()
                            .map_err(|_| format!("seed `{s}` in `{spec}` is not a number"))?,
                        None => DEFAULT_SAMPLE_SEED,
                    };
                    done(parts, SampleSpec::Reservoir { size, seed })
                }
            },
            other => Err(format!(
                "unknown sampling mode `{other}` (use full, every:N, warmup:N, reservoir:N[:SEED])"
            )),
        }
    }
}

impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleSpec::Full => write!(f, "full"),
            SampleSpec::EveryNth { n } => write!(f, "every:{n}"),
            SampleSpec::Warmup { skip } => write!(f, "warmup:{skip}"),
            SampleSpec::Reservoir { size, seed } if *seed == DEFAULT_SAMPLE_SEED => {
                write!(f, "reservoir:{size}")
            }
            SampleSpec::Reservoir { size, seed } => write!(f, "reservoir:{size}:{seed}"),
        }
    }
}

/// SplitMix64 finalizer: the deterministic stand-in for Algorithm R's RNG.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The streaming accept/reject decision procedure for a [`SampleSpec`].
///
/// State is one counter per instruction address, so decisions depend only
/// on each reference's own access sub-sequence — the property that lets a
/// thinned recording stand in for sampling inside the analyzer.
#[derive(Debug, Clone, Default)]
pub struct SampleState {
    spec: SampleSpec,
    counts: HashMap<u32, u64>,
}

impl SampleState {
    /// Creates the decision state for `spec`.
    pub fn new(spec: SampleSpec) -> SampleState {
        SampleState { spec, counts: HashMap::new() }
    }

    /// The policy in force.
    pub fn spec(&self) -> SampleSpec {
        self.spec
    }

    /// Returns this reference's 0-based access ordinal and advances it.
    fn next(&mut self, instr: u32) -> u64 {
        let c = self.counts.entry(instr).or_insert(0);
        let k = *c;
        *c += 1;
        k
    }

    /// Decides whether `a` is forwarded, advancing the per-reference
    /// counter. Deterministic: the decision is a pure function of the
    /// spec, the instruction address, and how many accesses of that
    /// instruction came before.
    // Inline, with the thinning modes out of line, so that under `Full`
    // an analyzed access pays one compare instead of a call.
    #[inline]
    pub fn accept(&mut self, a: &Access) -> bool {
        matches!(self.spec, SampleSpec::Full) || self.thin(a)
    }

    /// [`SampleState::accept`] for the thinning modes.
    fn thin(&mut self, a: &Access) -> bool {
        match self.spec {
            SampleSpec::Full => true,
            SampleSpec::EveryNth { n } => {
                if n <= 1 {
                    return true;
                }
                self.next(a.instr.0) % n == 0
            }
            SampleSpec::Warmup { skip } => {
                if skip == 0 {
                    return true;
                }
                self.next(a.instr.0) >= skip
            }
            SampleSpec::Reservoir { size, seed } => {
                let k = self.next(a.instr.0);
                if k < size {
                    return true;
                }
                mix64(seed ^ mix64((u64::from(a.instr.0) << 32) ^ k)) % (k + 1) < size
            }
        }
    }
}

/// Composable [`TraceSink`] adapter applying a [`SampleSpec`] to the
/// access stream: checkpoints always pass, accesses pass when the policy
/// accepts them.
///
/// # Examples
///
/// ```
/// use minic_trace::{AccessKind, Record, SampleSink, SampleSpec, TraceSink, VecSink};
///
/// let spec = SampleSpec::parse("every:2").unwrap();
/// let mut sink = SampleSink::new(spec, VecSink::new());
/// for i in 0..4 {
///     sink.record(&Record::access(0x400000, 0x1000 + i, AccessKind::Read));
/// }
/// sink.finish();
/// assert_eq!((sink.seen(), sink.kept()), (4, 2));
/// assert_eq!(sink.into_inner().records.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleSink<S> {
    state: SampleState,
    inner: S,
    seen: u64,
    kept: u64,
}

impl<S: TraceSink> SampleSink<S> {
    /// Wraps `inner` with the sampling policy `spec`.
    pub fn new(spec: SampleSpec, inner: S) -> SampleSink<S> {
        SampleSink { state: SampleState::new(spec), inner, seen: 0, kept: 0 }
    }

    /// Accesses observed (before sampling).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Accesses forwarded (after sampling).
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Unwraps the downstream sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SampleSink<S> {
    fn record(&mut self, rec: &Record) {
        match rec {
            Record::Checkpoint { .. } => self.inner.record(rec),
            Record::Access(a) => {
                self.seen += 1;
                if self.state.accept(a) {
                    self.kept += 1;
                    self.inner.record(rec);
                }
            }
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;
    use crate::sink::VecSink;
    use minic::CheckpointKind;

    fn stream(per_ref: u64) -> Vec<Record> {
        let mut t = vec![Record::checkpoint(0, CheckpointKind::LoopBegin)];
        for i in 0..per_ref {
            t.push(Record::checkpoint(0, CheckpointKind::BodyBegin));
            for instr in [0x40_0000u32, 0x40_0008] {
                t.push(Record::access(instr, 0x1000 + 4 * i as u32, AccessKind::Read));
            }
            t.push(Record::checkpoint(0, CheckpointKind::BodyEnd));
        }
        t
    }

    fn run(spec: SampleSpec, records: &[Record]) -> (Vec<Record>, u64, u64) {
        let mut sink = SampleSink::new(spec, VecSink::new());
        for r in records {
            sink.record(r);
        }
        sink.finish();
        let (seen, kept) = (sink.seen(), sink.kept());
        (sink.into_inner().into_records(), seen, kept)
    }

    #[test]
    fn parse_round_trips() {
        for spec in ["full", "every:4", "warmup:100", "reservoir:32", "reservoir:8:99"] {
            let parsed = SampleSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
        }
        assert_eq!(SampleSpec::parse("none"), Ok(SampleSpec::Full));
        for bad in
            ["", "every", "every:", "every:0", "every:x", "reservoir:0", "warmup:-1", "every:2:3"]
        {
            assert!(SampleSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn identity_specs_forward_everything() {
        let records = stream(10);
        for spec in ["full", "every:1", "warmup:0"] {
            let spec = SampleSpec::parse(spec).unwrap();
            assert!(spec.is_identity());
            let (out, seen, kept) = run(spec, &records);
            assert_eq!(out, records);
            assert_eq!(seen, kept);
        }
        assert!(!SampleSpec::parse("every:2").unwrap().is_identity());
        assert!(!SampleSpec::parse("reservoir:1000000").unwrap().is_identity());
    }

    #[test]
    fn every_nth_is_per_reference() {
        let (out, seen, kept) = run(SampleSpec::EveryNth { n: 3 }, &stream(9));
        assert_eq!(seen, 18);
        assert_eq!(kept, 6, "each of the two references keeps accesses 0, 3, 6");
        // Checkpoints are untouched: 1 + 9 * 2.
        let checkpoints = out.iter().filter(|r| matches!(r, Record::Checkpoint { .. })).count();
        assert_eq!(checkpoints, 19);
    }

    #[test]
    fn warmup_skips_the_cold_start_per_reference() {
        let (out, seen, kept) = run(SampleSpec::Warmup { skip: 7 }, &stream(10));
        assert_eq!((seen, kept), (20, 6));
        // The survivors are the *late* accesses of each reference.
        for r in &out {
            if let Record::Access(a) = r {
                assert!(a.addr.0 >= 0x1000 + 4 * 7, "kept a warmup access: {a:?}");
            }
        }
    }

    #[test]
    fn reservoir_keeps_the_prefix_and_is_deterministic() {
        let records = stream(500);
        let spec = SampleSpec::Reservoir { size: 16, seed: DEFAULT_SAMPLE_SEED };
        let (a, seen, kept) = run(spec, &records);
        let (b, _, _) = run(spec, &records);
        assert_eq!(a, b, "same spec, same stream, same sample");
        assert_eq!(seen, 1000);
        // Guaranteed prefix, logarithmic tail: far fewer than all, at
        // least `size` per reference.
        assert!((32..500).contains(&kept), "kept {kept}");
        // A different seed gives a different (but still deterministic)
        // tail selection.
        let (c, _, _) = run(SampleSpec::Reservoir { size: 16, seed: 1 }, &records);
        assert_ne!(a, c, "seed must steer the tail selection");
    }

    #[test]
    fn state_decisions_match_the_sink() {
        let records = stream(50);
        let spec = SampleSpec::Reservoir { size: 4, seed: 7 };
        let (out, _, _) = run(spec, &records);
        let mut state = SampleState::new(spec);
        let direct: Vec<Record> = records
            .iter()
            .filter(|r| match r {
                Record::Checkpoint { .. } => true,
                Record::Access(a) => state.accept(a),
            })
            .copied()
            .collect();
        assert_eq!(out, direct);
        assert_eq!(state.spec(), spec);
    }
}
