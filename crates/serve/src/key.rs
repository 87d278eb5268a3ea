//! Content-addressed cache keys for analysis jobs.
//!
//! The key is a stable 64-bit FNV-1a digest (rendered as 16 hex chars) over
//! everything that can change the *bytes* of a job's result, and nothing
//! else:
//!
//! * a schema tag (`foray-serve-key/v1`) so the key space can be versioned;
//! * the job kind (model / report / dse);
//! * the **resolved** program source — a workload name plus scale resolves
//!   to the workload's generated source text, so `workload:fftc, scale:2`
//!   and an inline submission of the identical source share one cache
//!   entry; line endings are canonicalized (`\r\n` → `\n`) first;
//! * for trace inputs, the trace file's **content** digest (never its
//!   path — renaming a file must still hit; editing it must miss);
//! * the profiling engine (tree and VM are byte-identical by construction,
//!   but the guarantee is locked by tests, not proven here, so the engine
//!   stays key material — a deliberate, documented over-approximation);
//! * the Step 4 filter thresholds and the output-relevant analyzer fields
//!   (see `AnalyzerConfig::stable_digest`);
//! * the `input()` data fed to the program.
//!
//! **Deliberately excluded:** worker counts, lookup strategy, and
//! scheduling priority. None of them can change output bytes (each job
//! runs one sequential analyzer, and the analyzer's tests prove every
//! lookup strategy equivalent); keying on them would only fragment the
//! cache.

use crate::protocol::{JobInput, JobSpec};
use crate::{ErrorCode, ProtoError};
use foray::StableHasher;
use foray_workloads::{by_name, Params};
use std::fs;

/// Version tag mixed into every key; bump when key semantics change.
pub const KEY_SCHEMA: &str = "foray-serve-key/v1";

/// A job's resolved identity: the cache key plus the materials the
/// scheduler needs to actually run it (resolved source and inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedJob {
    /// 16-hex-char content-addressed cache key.
    pub key: String,
    /// The job as submitted.
    pub spec: JobSpec,
    /// For workload/source jobs: the canonicalized program text.
    pub source: Option<String>,
    /// The `input()` data to install (resolved from the workload's
    /// canonical inputs unless the submission overrode them).
    pub inputs: Vec<i64>,
}

/// Resolves a [`JobSpec`] to its cache key and run materials.
///
/// This is where submit-time validation happens: unknown workload names
/// and unreadable trace files are rejected here with typed
/// [`ErrorCode::BadRequest`] errors, before anything is queued.
///
/// # Errors
///
/// [`ProtoError`] (`bad_request`) for unknown workloads or unreadable
/// trace files.
pub fn resolve(spec: &JobSpec) -> Result<ResolvedJob, ProtoError> {
    if spec.kind == crate::protocol::JobKind::Dse && matches!(spec.input, JobInput::Trace(_)) {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "dse needs program source: a trace file carries no program to re-run",
        ));
    }
    let mut h = StableHasher::new();
    h.field_str("schema", KEY_SCHEMA);
    h.field_str("kind", spec.kind.as_str());

    let (source, canonical_inputs) = match &spec.input {
        JobInput::Workload(name) => {
            let w = by_name(name, Params { scale: spec.scale }).ok_or_else(|| {
                ProtoError::new(ErrorCode::BadRequest, format!("unknown workload `{name}`"))
            })?;
            (Some(canonicalize(&w.source)), w.inputs)
        }
        JobInput::Source(text) => (Some(canonicalize(text)), Vec::new()),
        JobInput::Trace(path) => {
            let bytes = fs::read(path).map_err(|e| {
                ProtoError::new(ErrorCode::BadRequest, format!("cannot read trace `{path}`: {e}"))
            })?;
            let mut th = StableHasher::new();
            th.update(&bytes);
            h.field_str("input.trace", &th.finish_hex());
            (None, Vec::new())
        }
    };
    if let Some(src) = &source {
        h.field_str("input.source", src);
    }
    let inputs = spec.inputs.clone().unwrap_or(canonical_inputs);
    h.field_i64_list("inputs", &inputs);
    h.field_str("engine", spec.engine.as_str());
    foray::FilterConfig { n_exec: spec.n_exec, n_loc: spec.n_loc }.stable_digest(&mut h);
    analyzer_config_for(spec).stable_digest(&mut h);

    Ok(ResolvedJob { key: h.finish_hex(), spec: spec.clone(), source, inputs })
}

/// The analyzer configuration a job runs with (sampling is the only
/// output-relevant knob the protocol exposes; everything else stays at
/// the crate defaults).
pub(crate) fn analyzer_config_for(spec: &JobSpec) -> foray::AnalyzerConfig {
    foray::AnalyzerConfig { sample: spec.sample, ..foray::AnalyzerConfig::default() }
}

/// Normalizes line endings so the same program submitted from different
/// platforms shares one cache entry.
fn canonicalize(source: &str) -> String {
    source.replace("\r\n", "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobKind;
    use foray::{Engine, SampleSpec};

    fn spec(input: JobInput) -> JobSpec {
        JobSpec { input, ..JobSpec::default() }
    }

    #[test]
    fn workload_resolves_to_its_source_and_canonical_inputs() {
        let r = resolve(&spec(JobInput::Workload("fftc".into()))).unwrap();
        let w = by_name("fftc", Params { scale: 1 }).unwrap();
        assert_eq!(r.source.as_deref(), Some(w.source.as_str()));
        assert_eq!(r.inputs, w.inputs);
        // Submitting the workload's source inline (with the same inputs)
        // lands on the same cache entry.
        let mut inline = spec(JobInput::Source(w.source.clone()));
        inline.inputs = Some(w.inputs.clone());
        assert_eq!(resolve(&inline).unwrap().key, r.key);
    }

    #[test]
    fn key_ignores_priority_but_tracks_output_relevant_fields() {
        let base = spec(JobInput::Workload("fftc".into()));
        let key = |s: &JobSpec| resolve(s).unwrap().key;
        let k0 = key(&base);

        let mut p = base.clone();
        p.priority = 9;
        assert_eq!(key(&p), k0, "priority is scheduling, not content");

        let mut scale = base.clone();
        scale.scale = 2;
        assert_ne!(key(&scale), k0, "scale changes the resolved source");

        let mut eng = base.clone();
        eng.engine = Engine::Tree;
        assert_ne!(key(&eng), k0, "engine is (deliberately) key material");

        let mut samp = base.clone();
        samp.sample = SampleSpec::EveryNth { n: 2 };
        assert_ne!(key(&samp), k0);

        let mut filt = base.clone();
        filt.n_exec = 21;
        assert_ne!(key(&filt), k0);

        let mut kind = base.clone();
        kind.kind = JobKind::Report;
        assert_ne!(key(&kind), k0);

        let mut ins = base.clone();
        ins.inputs = Some(vec![1, 2, 3]);
        assert_ne!(key(&ins), k0);
    }

    #[test]
    fn crlf_sources_share_a_cache_entry() {
        let a = resolve(&spec(JobInput::Source("void main() {\n}\n".into()))).unwrap();
        let b = resolve(&spec(JobInput::Source("void main() {\r\n}\r\n".into()))).unwrap();
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn trace_keys_follow_content_not_path() {
        let dir = std::env::temp_dir().join(format!("foray-serve-key-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("a.ftrace");
        let p2 = dir.join("b.ftrace");
        fs::write(&p1, b"identical bytes").unwrap();
        fs::write(&p2, b"identical bytes").unwrap();
        let k1 = resolve(&spec(JobInput::Trace(p1.to_string_lossy().into_owned()))).unwrap().key;
        let k2 = resolve(&spec(JobInput::Trace(p2.to_string_lossy().into_owned()))).unwrap().key;
        assert_eq!(k1, k2, "same bytes, different path: must hit");
        fs::write(&p2, b"different bytes!").unwrap();
        let k3 = resolve(&spec(JobInput::Trace(p2.to_string_lossy().into_owned()))).unwrap().key;
        assert_ne!(k1, k3, "edited file: must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workload_and_missing_trace_are_typed_errors() {
        let e = resolve(&spec(JobInput::Workload("mp3floatc".into()))).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = resolve(&spec(JobInput::Trace("/nonexistent/x.ftrace".into()))).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let mut dse_trace = spec(JobInput::Trace("/tmp/x.ftrace".into()));
        dse_trace.kind = JobKind::Dse;
        let e = resolve(&dse_trace).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest, "dse over a trace is rejected before IO");
    }

    /// Golden vector: locks the digest schema. If this changes, bump
    /// [`KEY_SCHEMA`] and update the vector deliberately.
    #[test]
    fn golden_key_vector() {
        let r = resolve(&spec(JobInput::Source("void main() { }".into()))).unwrap();
        assert_eq!(r.key.len(), 16);
        assert!(r.key.chars().all(|c| c.is_ascii_hexdigit()));
        // The literal digest is pinned by tests/serve.rs (golden vector
        // lives with the rest of the service battery); here we lock the
        // structural invariants and determinism.
        assert_eq!(resolve(&spec(JobInput::Source("void main() { }".into()))).unwrap().key, r.key);
    }
}
