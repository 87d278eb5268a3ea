//! Stable, cache-key-grade digests over analysis configuration.
//!
//! The `forayd` service caches analysis results content-addressed: the same
//! (program, configuration) pair must map to the same key across processes,
//! platforms, and releases, and any configuration change that can alter the
//! *output bytes* must map to a different key. Rust's `std::hash::Hash` is
//! explicitly unstable across releases, so the cache key needs its own
//! hasher with a frozen algorithm — this module provides it.
//!
//! [`StableHasher`] is 64-bit [FNV-1a](http://www.isthe.com/chongo/tech/comp/fnv/)
//! over a *self-delimiting* field encoding: every field is written as a
//! length-prefixed labelled unit, so `("ab", "c")` and `("a", "bc")` can
//! never collide by concatenation and schema drift (a reordered or renamed
//! field) changes the digest loudly instead of silently.
//!
//! Which configuration fields participate is a semantic decision, not a
//! mechanical one: fields that **cannot** change the output bytes are
//! deliberately excluded. The reference lookup strategy never enters a
//! digest, because the analyzer's tests prove every strategy yields a
//! byte-identical analysis — that determinism guarantee is exactly what
//! makes a content-addressed cache sound (see `docs/ARCHITECTURE.md`,
//! "Service layer").
//!
//! # Examples
//!
//! ```
//! use foray::digest::StableHasher;
//!
//! let mut h = StableHasher::new();
//! h.field_str("workload", "fftc");
//! h.field_u64("scale", 2);
//! let a = h.finish_hex();
//!
//! // Same fields, same order, same digest — in any process, forever.
//! let mut h = StableHasher::new();
//! h.field_str("workload", "fftc");
//! h.field_u64("scale", 2);
//! assert_eq!(h.finish_hex(), a);
//!
//! // A changed value (or field name) is a different digest.
//! let mut h = StableHasher::new();
//! h.field_str("workload", "fftc");
//! h.field_u64("scale", 3);
//! assert_ne!(h.finish_hex(), a);
//! ```

use crate::analyzer::AnalyzerConfig;
use crate::model::FilterConfig;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit field hasher (FNV-1a over length-prefixed labelled
/// fields). See the module docs for the encoding contract.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes (no framing — prefer the `field_*` methods).
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= u64::from(*b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes one length-prefixed unit: `len(bytes) as u64 LE ++ bytes`.
    fn unit(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// Writes a labelled string field.
    pub fn field_str(&mut self, label: &str, value: &str) {
        self.unit(label.as_bytes());
        self.unit(value.as_bytes());
    }

    /// Writes a labelled byte-string field (e.g. file contents).
    pub fn field_bytes(&mut self, label: &str, value: &[u8]) {
        self.unit(label.as_bytes());
        self.unit(value);
    }

    /// Writes a labelled unsigned-integer field.
    pub fn field_u64(&mut self, label: &str, value: u64) {
        self.unit(label.as_bytes());
        self.unit(&value.to_le_bytes());
    }

    /// Writes a labelled signed-integer field.
    pub fn field_i64(&mut self, label: &str, value: i64) {
        self.unit(label.as_bytes());
        self.unit(&value.to_le_bytes());
    }

    /// Writes a labelled boolean field.
    pub fn field_bool(&mut self, label: &str, value: bool) {
        self.field_u64(label, u64::from(value));
    }

    /// Writes a labelled list of signed integers (length included, so an
    /// empty list is distinct from an absent field).
    pub fn field_i64_list(&mut self, label: &str, values: &[i64]) {
        self.unit(label.as_bytes());
        self.update(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.update(&v.to_le_bytes());
        }
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The digest as 16 lowercase hex characters — the cache-key spelling.
    pub fn finish_hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

impl AnalyzerConfig {
    /// Feeds every analyzer-configuration field **that can change the
    /// analysis output bytes** into `h`:
    ///
    /// * `track_footprint` — footprint counters feed the Step 4 filter;
    /// * `sample` — the deterministic sampling policy (hashed as its
    ///   canonical `--sample` spelling, which round-trips through
    ///   [`minic_trace::SampleSpec::parse`]).
    ///
    /// `lookup` is excluded on purpose: every lookup strategy is proven
    /// to produce the same analysis (the analyzer's lookup-equivalence
    /// tests), so keying on it would only fragment a result cache.
    pub fn stable_digest(&self, h: &mut StableHasher) {
        h.field_bool("analyzer.track_footprint", self.track_footprint);
        h.field_str("analyzer.sample", &self.sample.to_string());
    }
}

impl FilterConfig {
    /// Feeds the Step 4 purge thresholds into `h`. Both change which
    /// references survive into the model, so both are key material.
    pub fn stable_digest(&self, h: &mut StableHasher) {
        h.field_u64("filter.n_exec", self.n_exec);
        h.field_u64("filter.n_loc", self.n_loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_trace::SampleSpec;

    #[test]
    fn digests_are_stable_across_hashers() {
        let run = || {
            let mut h = StableHasher::new();
            h.field_str("a", "x");
            h.field_u64("b", 7);
            h.field_i64_list("c", &[1, -2, 3]);
            h.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.field_str("k", "ab");
        a.field_str("k", "c");
        let mut b = StableHasher::new();
        b.field_str("k", "a");
        b.field_str("k", "bc");
        assert_ne!(a.finish(), b.finish());
        // Field names are part of the material too.
        let mut c = StableHasher::new();
        c.field_str("k1", "v");
        let mut d = StableHasher::new();
        d.field_str("k2", "v");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn empty_list_differs_from_absent_field() {
        let mut a = StableHasher::new();
        a.field_i64_list("inputs", &[]);
        let b = StableHasher::new();
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn analyzer_digest_tracks_output_relevant_fields_only() {
        let base = AnalyzerConfig::default();
        let hex = |c: &AnalyzerConfig| {
            let mut h = StableHasher::new();
            c.stable_digest(&mut h);
            h.finish_hex()
        };
        // The lookup strategy is determinism-covered: no cache
        // fragmentation.
        assert_eq!(
            hex(&base),
            hex(&AnalyzerConfig { lookup: crate::LookupStrategy::Hash, ..base.clone() })
        );
        // Sampling changes which accesses the analyzer sees: must miss.
        assert_ne!(
            hex(&base),
            hex(&AnalyzerConfig { sample: SampleSpec::EveryNth { n: 2 }, ..base.clone() })
        );
        assert_ne!(hex(&base), hex(&AnalyzerConfig { track_footprint: false, ..base }));
    }

    #[test]
    fn filter_digest_covers_both_thresholds() {
        let hex = |f: FilterConfig| {
            let mut h = StableHasher::new();
            f.stable_digest(&mut h);
            h.finish_hex()
        };
        let base = FilterConfig::default();
        assert_ne!(hex(base), hex(FilterConfig { n_exec: 21, ..base }));
        assert_ne!(hex(base), hex(FilterConfig { n_loc: 11, ..base }));
        assert_eq!(hex(base), hex(FilterConfig::default()));
    }

    #[test]
    fn known_vector_locks_the_algorithm() {
        // FNV-1a of the empty input is the offset basis; this pins both
        // the constant and the hex spelling the cache uses on disk.
        assert_eq!(StableHasher::new().finish_hex(), "cbf29ce484222325");
        let mut h = StableHasher::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
