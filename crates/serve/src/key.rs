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
//! * the Step 4 filter thresholds and the analyzer's constant fields,
//!   kept only so keys stay stable (see `AnalyzerConfig::stable_digest`);
//! * the `input()` data fed to the program.
//!
//! **Deliberately excluded:** worker counts, lookup strategy, and
//! scheduling priority. None of them can change output bytes (each job
//! runs one sequential analyzer, and the analyzer's tests prove every
//! lookup strategy equivalent); keying on them would only fragment the
//! cache.

use crate::protocol::{JobInput, JobKind, JobSpec};
use crate::{ErrorCode, ProtoError};
use foray::StableHasher;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read};
use std::sync::{Mutex, PoisonError};

/// Version tag mixed into every key; bump when key semantics change.
pub const KEY_SCHEMA: &str = "foray-serve-key/v1";

/// A job's resolved identity: its cache key and the job as submitted.
/// Resolving builds no program; the worker that runs the job does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedJob {
    /// 16-hex-char content-addressed cache key.
    pub key: String,
    /// The job as submitted.
    pub spec: JobSpec,
}

/// Resolves a [`JobSpec`] to its cache key.
///
/// This is where submit-time validation happens: unknown workload names,
/// workload scales above [`foray_workloads::MAX_SCALE`] and unreadable
/// trace files are rejected here with typed [`ErrorCode::BadRequest`]
/// errors, before anything is queued.
///
/// # Errors
///
/// [`ProtoError`] (`bad_request`) for unknown workloads, oversized
/// workload scales or unreadable trace files.
pub fn resolve(spec: &JobSpec) -> Result<ResolvedJob, ProtoError> {
    Ok(ResolvedJob { key: job_key(spec)?, spec: spec.clone() })
}

/// The cache key of `spec`. A workload job's program fields come from
/// [`WORKLOAD_KEYS`]; source and trace jobs hash their text or file.
pub(crate) fn job_key(spec: &JobSpec) -> Result<String, ProtoError> {
    job_key_in(spec, &WORKLOAD_KEYS)
}

fn job_key_in(spec: &JobSpec, memo: &WorkloadKeys) -> Result<String, ProtoError> {
    let mut h = match &spec.input {
        JobInput::Workload(name) => {
            let program = memo.get(spec.kind, name, spec.scale)?;
            match &spec.inputs {
                None => return Ok(finish_key(program.canonical, spec)),
                Some(_) => program.program,
            }
        }
        JobInput::Source(text) => program_fields(spec.kind, None, Some(&canonicalize(text))),
        JobInput::Trace(path) => {
            if spec.kind == JobKind::Dse {
                return Err(ProtoError::new(
                    ErrorCode::BadRequest,
                    "dse needs program source: a trace file carries no program to re-run",
                ));
            }
            let digest = trace_digest(path).map_err(|e| {
                ProtoError::new(ErrorCode::BadRequest, format!("cannot read trace `{path}`: {e}"))
            })?;
            return Ok(trace_key(spec, &digest));
        }
    };
    h.field_i64_list("inputs", spec.inputs.as_deref().unwrap_or_default());
    Ok(finish_key(h, spec))
}

/// The cache key of a trace job whose file has the content digest
/// `digest`.
pub(crate) fn trace_key(spec: &JobSpec, digest: &str) -> String {
    let mut h = program_fields(spec.kind, Some(digest), None);
    h.field_i64_list("inputs", spec.inputs.as_deref().unwrap_or_default());
    finish_key(h, spec)
}

/// The key's leading fields, which name the program: the schema, the job
/// kind, and the trace's content digest or the program's source.
fn program_fields(kind: JobKind, trace: Option<&str>, source: Option<&str>) -> StableHasher {
    let mut h = StableHasher::new();
    h.field_str("schema", KEY_SCHEMA);
    h.field_str("kind", kind.as_str());
    if let Some(digest) = trace {
        h.field_str("input.trace", digest);
    }
    if let Some(src) = source {
        h.field_str("input.source", src);
    }
    h
}

/// Finishes a key from the state after its `inputs` field with the fields
/// every request sets for itself: engine, filter and analyzer settings.
fn finish_key(mut h: StableHasher, spec: &JobSpec) -> String {
    h.field_str("engine", spec.engine.as_str());
    foray::FilterConfig { n_exec: spec.n_exec, n_loc: spec.n_loc }.stable_digest(&mut h);
    foray::AnalyzerConfig::default().stable_digest(&mut h);
    h.finish_hex()
}

/// A workload job's key state after its program fields, for one
/// (kind, workload, scale).
#[derive(Debug, Clone)]
struct WorkloadKey {
    /// After `input.source`: a submit that overrides the inputs goes on
    /// from here.
    program: StableHasher,
    /// After the workload's canonical `inputs` as well.
    canonical: StableHasher,
}

/// The memo of workload key states, keyed by (kind, workload, scale). A
/// workload's source and canonical inputs are a function of its name and
/// scale, so the key state after them is too; a hit finishes the key
/// without building the workload.
/// The memo holds hasher states, not programs, and an entry is added only
/// after the name and scale checks pass, so it never holds more than
/// 3 kinds × the registered workloads × (`MAX_SCALE` + 1) scales.
struct WorkloadKeys(Mutex<BTreeMap<(&'static str, &'static str, u32), WorkloadKey>>);

/// The process's workload key memo.
static WORKLOAD_KEYS: WorkloadKeys = WorkloadKeys::new();

impl WorkloadKeys {
    const fn new() -> WorkloadKeys {
        WorkloadKeys(Mutex::new(BTreeMap::new()))
    }

    /// The key state of `kind` on workload `name` at `scale`, built and
    /// memoized on first use. The lock is not held while the workload is
    /// built: two threads may both build it, and both insert equal states.
    fn get(&self, kind: JobKind, name: &str, scale: u32) -> Result<WorkloadKey, ProtoError> {
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(known) = lock().get(&(kind.as_str(), name, scale)) {
            return Ok(known.clone());
        }
        let (name, source, inputs) = workload_program(name, scale)?;
        let program = program_fields(kind, None, Some(&source));
        let mut canonical = program.clone();
        canonical.field_i64_list("inputs", &inputs);
        let built = WorkloadKey { program, canonical };
        lock().insert((kind.as_str(), name, scale), built.clone());
        Ok(built)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Builds workload `name` at `scale`: its registered name, canonicalized
/// source and canonical `input()` data. Both the key memo and the worker
/// that runs a job build through here, after the same checks.
fn workload_program(
    name: &str,
    scale: u32,
) -> Result<(&'static str, String, Vec<i64>), ProtoError> {
    let w = foray_workloads::build(Some(name), scale)
        .map_err(|e| ProtoError::new(ErrorCode::BadRequest, e))?
        .remove(0);
    Ok((w.name, canonicalize(w.source).into_owned(), w.inputs))
}

/// The program a source or workload job runs: its canonicalized source
/// and the `input()` data it installs.
///
/// # Errors
///
/// The `bad_request` that [`resolve`] gives the same spec.
pub(crate) fn program(spec: &JobSpec) -> Result<(String, Vec<i64>), ProtoError> {
    let (source, canonical_inputs) = match &spec.input {
        JobInput::Workload(name) => {
            let (_, source, inputs) = workload_program(name, spec.scale)?;
            (source, inputs)
        }
        JobInput::Source(text) => (canonicalize(text).into_owned(), Vec::new()),
        JobInput::Trace(path) => {
            return Err(ProtoError::new(
                ErrorCode::BadRequest,
                format!("trace `{path}` carries no program source"),
            ))
        }
    };
    Ok((source, spec.inputs.clone().unwrap_or(canonical_inputs)))
}

/// The content digest of a trace held in memory: equal to the streamed
/// [`trace_digest`] of a file with these bytes.
pub(crate) fn content_digest(bytes: &[u8]) -> String {
    let mut th = StableHasher::new();
    th.update(bytes);
    th.finish_hex()
}

/// Digests a trace file's content through one 64 KiB buffer, so a
/// submit's memory stays bounded whatever the file's size.
fn trace_digest(path: &str) -> io::Result<String> {
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; 64 * 1024];
    let mut th = StableHasher::new();
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(th.finish_hex()),
            Ok(n) => th.update(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Normalizes line endings so the same program submitted from different
/// platforms shares one cache entry.
fn canonicalize<'a>(source: impl Into<Cow<'a, str>>) -> Cow<'a, str> {
    let source = source.into();
    if source.contains("\r\n") {
        Cow::Owned(source.replace("\r\n", "\n"))
    } else {
        source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobKind;
    use foray::Engine;
    use foray_workloads::{by_name, Params, MAX_SCALE};
    use std::fs;

    fn spec(input: JobInput) -> JobSpec {
        JobSpec { input, ..JobSpec::default() }
    }

    #[test]
    fn workload_resolves_to_its_source_and_canonical_inputs() {
        let s = spec(JobInput::Workload("fftc".into()));
        let w = by_name("fftc", Params { scale: 1 }).unwrap();
        assert_eq!(program(&s).unwrap(), (w.source.clone(), w.inputs.clone()));
        // Submitting the workload's source inline (with the same inputs)
        // lands on the same cache entry.
        let mut inline = spec(JobInput::Source(w.source.clone()));
        inline.inputs = Some(w.inputs.clone());
        assert_eq!(program(&inline).unwrap(), program(&s).unwrap());
        assert_eq!(resolve(&inline).unwrap().key, resolve(&s).unwrap().key);
        // An override replaces the canonical inputs, and only them.
        let mut over = s.clone();
        over.inputs = Some(vec![4, 5]);
        assert_eq!(program(&over).unwrap(), (w.source, vec![4, 5]));
    }

    /// Keys taken before workload keys were memoized. A memo-cold key
    /// (which builds the workload) and a memo-warm one (which does not)
    /// must both equal them.
    #[test]
    fn workload_keys_match_pinned_values_cold_and_warm() {
        let golden = [
            ("fftc", JobKind::Model, "5ea73f7ddede47a6"),
            ("fftc", JobKind::Report, "521f668b90c0c4c6"),
            ("fftc", JobKind::Dse, "a8e1e7600b0cc615"),
            ("histoc", JobKind::Model, "0841261023fa443f"),
            ("histoc", JobKind::Report, "8d392a2e8dd3a61f"),
            ("histoc", JobKind::Dse, "81023553a76923ca"),
        ];
        let memo = WorkloadKeys::new();
        for (filled, (name, kind, key)) in golden.into_iter().enumerate() {
            let s = JobSpec { kind, scale: 2, ..spec(JobInput::Workload(name.into())) };
            assert_eq!(memo.len(), filled);
            assert_eq!(job_key_in(&s, &memo).unwrap(), key, "{name} {kind:?}, memo cold");
            assert_eq!(memo.len(), filled + 1, "a cold key fills one entry");
            assert_eq!(job_key_in(&s, &memo).unwrap(), key, "{name} {kind:?}, memo warm");
            assert_eq!(memo.len(), filled + 1, "a warm key fills nothing");
            assert_eq!(resolve(&s).unwrap().key, key, "{name} {kind:?}, process memo");
        }
        // The fields each request sets for itself finish a memoized state:
        // an inputs override goes on from the state after the source.
        let mut over = spec(JobInput::Workload("fftc".into()));
        over.scale = 2;
        over.inputs = Some(vec![1, 2, 3]);
        assert_eq!(job_key_in(&over, &memo).unwrap(), "c39e47b3d9a7d9ab");
        let mut tree = spec(JobInput::Workload("histoc".into()));
        tree.scale = 2;
        tree.engine = Engine::Tree;
        tree.n_exec = 7;
        assert_eq!(job_key_in(&tree, &memo).unwrap(), "cd89f8e3b69b75c1");
        assert_eq!(memo.len(), golden.len(), "both share their workload's entry");
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

        // Files larger than the 64 KiB hashing buffer: the streamed digest
        // equals a one-shot digest of the whole content, equal bytes share
        // a key, and a one-byte edit past the first chunk moves it.
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        fs::write(&p1, &big).unwrap();
        fs::write(&p2, &big).unwrap();
        let mut whole = StableHasher::new();
        whole.update(&big);
        assert_eq!(trace_digest(&p1.to_string_lossy()).unwrap(), whole.finish_hex());
        let k1 = resolve(&spec(JobInput::Trace(p1.to_string_lossy().into_owned()))).unwrap().key;
        let k2 = resolve(&spec(JobInput::Trace(p2.to_string_lossy().into_owned()))).unwrap().key;
        assert_eq!(k1, k2, "same 200 KB of bytes, different path: must hit");
        let mut edited = big;
        edited[150_000] ^= 1;
        fs::write(&p2, &edited).unwrap();
        let k3 = resolve(&spec(JobInput::Trace(p2.to_string_lossy().into_owned()))).unwrap().key;
        assert_ne!(k1, k3, "a byte edited past the first chunk: must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workload_and_missing_trace_are_typed_errors() {
        // Rejected workloads never reach the memo, cold or warm.
        let memo = WorkloadKeys::new();
        job_key_in(&spec(JobInput::Workload("fftc".into())), &memo).unwrap();
        for (name, scale) in [("mp3floatc", 1), ("fftc", MAX_SCALE + 1), ("FFTC", 1)] {
            let mut s = spec(JobInput::Workload(name.into()));
            s.scale = scale;
            assert_eq!(job_key_in(&s, &memo).unwrap_err().code, ErrorCode::BadRequest);
        }
        assert_eq!(memo.len(), 1);
        let e = resolve(&spec(JobInput::Workload("mp3floatc".into()))).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = resolve(&spec(JobInput::Trace("/nonexistent/x.ftrace".into()))).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        for (name, scale) in [("lamec", 40), ("fftc", MAX_SCALE + 1), ("fftc", u32::MAX)] {
            let mut huge = spec(JobInput::Workload(name.into()));
            huge.scale = scale;
            let e = resolve(&huge).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{name} at scale {scale}");
            assert_eq!(e.message, format!("scale {scale} is above the largest workload scale, 8"));
        }
        let e = resolve(&spec(JobInput::Workload("nope".into()))).unwrap_err();
        assert_eq!(e.message, "unknown workload `nope`");
        let mut inline = spec(JobInput::Source("void main() { }".into()));
        inline.scale = 40;
        assert!(resolve(&inline).is_ok(), "source inputs ignore scale");
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
