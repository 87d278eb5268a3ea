//! The `forayd` wire protocol: line-delimited JSON requests and responses.
//!
//! One JSON object per line in each direction; the request's `"cmd"` field
//! discriminates. The full grammar lives in `docs/ARCHITECTURE.md`
//! ("Service layer"); in short:
//!
//! ```text
//! {"cmd":"submit","workload":"fftc","scale":2,"kind":"model"}   -> submitted
//! {"cmd":"submit","source":"int a[8]; void main() { ... }"}     -> submitted
//! {"cmd":"submit","trace":"/path/to/file.ftrace"}               -> submitted
//! {"cmd":"wait","job":"j3","timeout_ms":5000}                   -> result
//! {"cmd":"poll","job":"j3"}                                     -> status
//! {"cmd":"stats"}                                               -> stats
//! {"cmd":"ping"}                                                -> pong
//! {"cmd":"shutdown"}                                            -> shutdown
//! ```
//!
//! Every failure is a *typed* error object
//! (`{"ok":false,"error":CODE,"message":...}`) — a malformed line earns an
//! error response, never a dropped connection. Only a line longer than
//! [`crate::MAX_LINE_BYTES`] also closes its connection. A field its
//! command does not read is a `bad_request` that names the field, never
//! silently ignored.

use crate::json::{obj, Json};
use foray::Engine;
use std::fmt;

/// What the service computes for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    /// The FORAY model as emitted C text (byte-identical to
    /// `foray-gen model`).
    #[default]
    Model,
    /// A machine-readable `foray-serve-report/v1` JSON summary (model code
    /// plus capture and memory-behaviour counters).
    Report,
    /// A single-workload SPM design-space exploration
    /// (`foray-dse/v1` JSON over the default capacity/energy grids).
    Dse,
}

impl JobKind {
    /// Parses the protocol spelling.
    pub fn parse(name: &str) -> Option<JobKind> {
        match name {
            "model" => Some(JobKind::Model),
            "report" => Some(JobKind::Report),
            "dse" => Some(JobKind::Dse),
            _ => None,
        }
    }

    /// The protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Model => "model",
            JobKind::Report => "report",
            JobKind::Dse => "dse",
        }
    }
}

/// What a job analyzes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobInput {
    /// A corpus workload by name (sized by [`JobSpec::scale`], canonical
    /// inputs installed unless overridden).
    Workload(String),
    /// Inline mini-C source text.
    Source(String),
    /// A recorded `.ftrace` file on the daemon's filesystem.
    Trace(String),
}

/// One analysis request: input, configuration, and scheduling hints.
///
/// The content-addressed cache key is derived from every field of this
/// struct **except** [`JobSpec::priority`] and the worker-count knobs —
/// see [`crate::key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// What to analyze.
    pub input: JobInput,
    /// Workload size multiplier (workload inputs only).
    pub scale: u32,
    /// Profiling engine.
    pub engine: Engine,
    /// Step 4 filter: minimum executions.
    pub n_exec: u64,
    /// Step 4 filter: minimum distinct locations.
    pub n_loc: u64,
    /// `input()` data override (`None`: the workload's canonical inputs,
    /// or empty for inline source).
    pub inputs: Option<Vec<i64>>,
    /// Scheduling priority 0–9 (higher runs first); not key material.
    pub priority: u8,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kind: JobKind::Model,
            input: JobInput::Workload("fftc".to_owned()),
            scale: 1,
            engine: Engine::default(),
            n_exec: 20,
            n_loc: 10,
            inputs: None,
            priority: 0,
        }
    }
}

impl JobSpec {
    /// Renders the spec as one `submit` request line (no trailing
    /// newline); the inverse of [`parse_request`]. Fields at their
    /// defaults are still written — explicit beats short on a debugging
    /// wire.
    pub fn render_submit(&self) -> String {
        let mut fields = vec![("cmd", Json::Str("submit".into()))];
        match &self.input {
            JobInput::Workload(w) => fields.push(("workload", Json::Str(w.clone()))),
            JobInput::Source(s) => fields.push(("source", Json::Str(s.clone()))),
            JobInput::Trace(t) => fields.push(("trace", Json::Str(t.clone()))),
        }
        fields.push(("kind", Json::Str(self.kind.as_str().into())));
        fields.push(("scale", Json::Int(i64::from(self.scale))));
        fields.push(("engine", Json::Str(self.engine.as_str().into())));
        fields.push(("nexec", Json::Int(self.n_exec as i64)));
        fields.push(("nloc", Json::Int(self.n_loc as i64)));
        if let Some(inputs) = &self.inputs {
            fields.push(("inputs", Json::Arr(inputs.iter().map(|&v| Json::Int(v)).collect())));
        }
        fields.push(("priority", Json::Int(i64::from(self.priority))));
        obj(fields).render()
    }
}

/// Highest accepted [`JobSpec::priority`].
pub const MAX_PRIORITY: u8 = 9;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job; reply is [`Response::Submitted`].
    Submit(Box<JobSpec>),
    /// Block until the job finishes (bounded by `timeout_ms` if given).
    Wait {
        /// Job id from a submit reply.
        job: String,
        /// Give up (with a `timeout` error) after this many milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Non-blocking job status query.
    Poll {
        /// Job id from a submit reply.
        job: String,
    },
    /// Cache/queue counter snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain accepted jobs, then exit.
    Shutdown,
}

/// Machine-readable error codes (`"error"` field of a failure response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid protocol JSON.
    BadJson,
    /// The line was JSON but not a valid request.
    BadRequest,
    /// Unknown `"cmd"`.
    UnknownCommand,
    /// No such job id.
    UnknownJob,
    /// The submission queue is full; retry after `retry_after_ms`.
    QueueFull,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The job ran and failed (compile/runtime/read error).
    JobFailed,
    /// A bounded `wait` expired before the job finished.
    Timeout,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCommand => "unknown_command",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::JobFailed => "job_failed",
            ErrorCode::Timeout => "timeout",
        }
    }

    /// Parses the wire spelling (client side).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnknownCommand,
            ErrorCode::UnknownJob,
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::JobFailed,
            ErrorCode::Timeout,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
    }
}

/// A typed protocol failure, rendered as `{"ok":false,...}` on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::QueueFull`]: suggested client backoff.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// A typed error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError { code, message: message.into(), retry_after_ms: None }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Cache and queue counters (the `stats` reply body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs accepted (including cache hits and dedup aliases).
    pub submitted: u64,
    /// Jobs answered straight from the cache at submit time.
    pub cache_hits: u64,
    /// Submissions that had to compute (queued for a worker).
    pub cache_misses: u64,
    /// Submissions coalesced onto an already in-flight identical job.
    pub deduped: u64,
    /// Jobs actually computed by a worker (≤ `cache_misses`).
    pub computed: u64,
    /// Jobs whose computation failed.
    pub failed: u64,
    /// Submissions rejected with `queue_full`.
    pub rejected: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently being computed.
    pub running: u64,
    /// Entries resident in the in-memory cache.
    pub cache_entries: u64,
    /// Entries evicted from memory (spilled to disk when spill is on).
    pub cache_evictions: u64,
    /// Cache hits served by re-loading a spilled entry from disk.
    pub disk_hits: u64,
    /// Connections closed with `queue_full` because every connection
    /// handler was busy. They sent no request, so they stay out of
    /// `submitted`.
    pub connections_refused: u64,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was accepted (or answered from the cache / coalesced).
    Submitted {
        /// Job id for `wait`/`poll`.
        job: String,
        /// `true` when the answer came straight from the cache.
        hit: bool,
        /// The job's content-addressed cache key (16 hex chars).
        key: String,
    },
    /// Non-blocking status: `queued`, `running`, `done`, or `failed`.
    Status {
        /// The queried job id.
        job: String,
        /// State name.
        state: &'static str,
    },
    /// A finished job's payload.
    Result {
        /// The finished job id.
        job: String,
        /// Whether the payload came from the cache rather than a compute.
        hit: bool,
        /// The result payload (model C text, report JSON, or DSE JSON).
        result: String,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the daemon drains and exits.
    ShutdownStarted,
    /// A typed failure.
    Error(ProtoError),
}

impl Response {
    /// Renders the reply as one protocol line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Submitted { job, hit, key } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("submitted".into())),
                ("job", Json::Str(job.clone())),
                ("hit", Json::Bool(*hit)),
                ("key", Json::Str(key.clone())),
            ]),
            Response::Status { job, state } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("status".into())),
                ("job", Json::Str(job.clone())),
                ("state", Json::Str((*state).into())),
            ]),
            Response::Result { job, hit, result } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("result".into())),
                ("job", Json::Str(job.clone())),
                ("hit", Json::Bool(*hit)),
                ("result", Json::Str(result.clone())),
            ]),
            Response::Stats(s) => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("stats".into())),
                ("submitted", Json::Int(s.submitted as i64)),
                ("cache_hits", Json::Int(s.cache_hits as i64)),
                ("cache_misses", Json::Int(s.cache_misses as i64)),
                ("deduped", Json::Int(s.deduped as i64)),
                ("computed", Json::Int(s.computed as i64)),
                ("failed", Json::Int(s.failed as i64)),
                ("rejected", Json::Int(s.rejected as i64)),
                ("queue_depth", Json::Int(s.queue_depth as i64)),
                ("running", Json::Int(s.running as i64)),
                ("cache_entries", Json::Int(s.cache_entries as i64)),
                ("cache_evictions", Json::Int(s.cache_evictions as i64)),
                ("disk_hits", Json::Int(s.disk_hits as i64)),
                ("connections_refused", Json::Int(s.connections_refused as i64)),
            ]),
            Response::Pong => obj([("ok", Json::Bool(true)), ("type", Json::Str("pong".into()))]),
            Response::ShutdownStarted => {
                obj([("ok", Json::Bool(true)), ("type", Json::Str("shutdown".into()))])
            }
            Response::Error(e) => {
                let mut fields = vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(e.code.as_str().into())),
                    ("message", Json::Str(e.message.clone())),
                ];
                if let Some(ms) = e.retry_after_ms {
                    fields.push(("retry_after_ms", Json::Int(ms as i64)));
                }
                obj(fields)
            }
        }
        .render()
    }

    /// Parses one reply line (the client side of [`Response::render`]).
    ///
    /// # Errors
    ///
    /// A human-readable message for unparseable or unknown reply shapes.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let ok = v.get("ok").and_then(Json::as_bool).ok_or("reply has no `ok` field")?;
        if !ok {
            let code = v.get("error").and_then(Json::as_str).ok_or("failure without `error`")?;
            let code = ErrorCode::parse(code).ok_or_else(|| format!("unknown error `{code}`"))?;
            return Ok(Response::Error(ProtoError {
                code,
                message: v.get("message").and_then(Json::as_str).unwrap_or_default().to_owned(),
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
            }));
        }
        let ty = v.get("type").and_then(Json::as_str).ok_or("reply has no `type` field")?;
        let str_field = |k: &str| {
            v.get(k).and_then(Json::as_str).map(str::to_owned).ok_or(format!("missing `{k}`"))
        };
        match ty {
            "submitted" => Ok(Response::Submitted {
                job: str_field("job")?,
                hit: v.get("hit").and_then(Json::as_bool).unwrap_or(false),
                key: str_field("key")?,
            }),
            "status" => {
                let state = match v.get("state").and_then(Json::as_str) {
                    Some("queued") => "queued",
                    Some("running") => "running",
                    Some("done") => "done",
                    Some("failed") => "failed",
                    other => return Err(format!("unknown state {other:?}")),
                };
                Ok(Response::Status { job: str_field("job")?, state })
            }
            "result" => Ok(Response::Result {
                job: str_field("job")?,
                hit: v.get("hit").and_then(Json::as_bool).unwrap_or(false),
                result: str_field("result")?,
            }),
            "stats" => {
                let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                Ok(Response::Stats(StatsSnapshot {
                    submitted: n("submitted"),
                    cache_hits: n("cache_hits"),
                    cache_misses: n("cache_misses"),
                    deduped: n("deduped"),
                    computed: n("computed"),
                    failed: n("failed"),
                    rejected: n("rejected"),
                    queue_depth: n("queue_depth"),
                    running: n("running"),
                    cache_entries: n("cache_entries"),
                    cache_evictions: n("cache_evictions"),
                    disk_hits: n("disk_hits"),
                    connections_refused: n("connections_refused"),
                }))
            }
            "pong" => Ok(Response::Pong),
            "shutdown" => Ok(Response::ShutdownStarted),
            other => Err(format!("unknown reply type `{other}`")),
        }
    }
}

/// Every command, with the request fields it reads besides `cmd`.
const COMMANDS: [(&str, &[&str]); 6] = [
    (
        "submit",
        &[
            "workload", "source", "trace", "kind", "scale", "engine", "nexec", "nloc", "inputs",
            "priority",
        ],
    ),
    ("wait", &["job", "timeout_ms"]),
    ("poll", &["job"]),
    ("stats", &[]),
    ("ping", &[]),
    ("shutdown", &[]),
];

/// Parses one request line into a [`Request`], with typed errors for every
/// way a line can be wrong (bad JSON, bad shape, unknown command, a field
/// the command does not read, bad field values).
///
/// # Errors
///
/// [`ProtoError`] with [`ErrorCode::BadJson`], [`ErrorCode::BadRequest`],
/// or [`ErrorCode::UnknownCommand`].
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = Json::parse(line).map_err(|e| ProtoError::new(ErrorCode::BadJson, e.to_string()))?;
    let Json::Obj(fields) = &v else {
        return Err(ProtoError::new(ErrorCode::BadRequest, "a request must be a JSON object"));
    };
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing string field `cmd`"))?;
    let Some((_, reads)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        return Err(ProtoError::new(
            ErrorCode::UnknownCommand,
            format!("unknown command `{cmd}` (use {})", names.join("/")),
        ));
    };
    if let Some((field, _)) =
        fields.iter().find(|(k, _)| k != "cmd" && !reads.contains(&k.as_str()))
    {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            format!("`{cmd}` does not take field `{field}`"),
        ));
    }
    let job_field = |v: &Json| {
        v.get("job")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing string field `job`"))
    };
    match cmd {
        "submit" => Ok(Request::Submit(Box::new(parse_job_spec(&v)?))),
        "wait" => Ok(Request::Wait {
            job: job_field(&v)?,
            timeout_ms: match v.get("timeout_ms") {
                None | Some(Json::Null) => None,
                Some(t) => Some(t.as_u64().ok_or_else(|| {
                    ProtoError::new(
                        ErrorCode::BadRequest,
                        "`timeout_ms` must be a non-negative integer",
                    )
                })?),
            },
        }),
        "poll" => Ok(Request::Poll { job: job_field(&v)? }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        _ => Ok(Request::Shutdown),
    }
}

/// Parses the submit-request body into a [`JobSpec`].
fn parse_job_spec(v: &Json) -> Result<JobSpec, ProtoError> {
    let bad = |msg: String| ProtoError::new(ErrorCode::BadRequest, msg);
    let mut spec = JobSpec::default();
    let workload = v.get("workload").and_then(Json::as_str);
    let source = v.get("source").and_then(Json::as_str);
    let trace = v.get("trace").and_then(Json::as_str);
    spec.input = match (workload, source, trace) {
        (Some(w), None, None) => JobInput::Workload(w.to_owned()),
        (None, Some(s), None) => JobInput::Source(s.to_owned()),
        (None, None, Some(t)) => JobInput::Trace(t.to_owned()),
        (None, None, None) => {
            return Err(bad("submit needs exactly one of `workload`, `source`, `trace`".into()))
        }
        _ => return Err(bad("`workload`, `source`, and `trace` are mutually exclusive".into())),
    };
    if let Some(k) = v.get("kind") {
        let name = k.as_str().ok_or_else(|| bad("`kind` must be a string".into()))?;
        spec.kind = JobKind::parse(name)
            .ok_or_else(|| bad(format!("unknown kind `{name}` (use model/report/dse)")))?;
    }
    if let Some(s) = v.get("scale") {
        let n = s.as_u64().ok_or_else(|| bad("`scale` must be a positive integer".into()))?;
        spec.scale = u32::try_from(n.max(1)).map_err(|_| bad(format!("scale {n} is too large")))?;
    }
    if let Some(e) = v.get("engine") {
        let name = e.as_str().ok_or_else(|| bad("`engine` must be a string".into()))?;
        spec.engine = Engine::parse(name)
            .ok_or_else(|| bad(format!("unknown engine `{name}` (use tree/vm)")))?;
    }
    if let Some(n) = v.get("nexec") {
        spec.n_exec =
            n.as_u64().ok_or_else(|| bad("`nexec` must be a non-negative integer".into()))?;
    }
    if let Some(n) = v.get("nloc") {
        spec.n_loc =
            n.as_u64().ok_or_else(|| bad("`nloc` must be a non-negative integer".into()))?;
    }
    if let Some(i) = v.get("inputs") {
        let Json::Arr(items) = i else { return Err(bad("`inputs` must be an array".into())) };
        let values = items
            .iter()
            .map(|x| x.as_i64().ok_or_else(|| bad("`inputs` entries must be integers".into())))
            .collect::<Result<Vec<i64>, _>>()?;
        spec.inputs = Some(values);
    }
    if let Some(p) = v.get("priority") {
        let n = p.as_u64().ok_or_else(|| bad("`priority` must be 0-9".into()))?;
        if n > u64::from(MAX_PRIORITY) {
            return Err(bad(format!("priority {n} is out of range 0-{MAX_PRIORITY}")));
        }
        spec.priority = n as u8;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_with_defaults_and_overrides() {
        let r = parse_request("{\"cmd\":\"submit\",\"workload\":\"fftc\"}").unwrap();
        let Request::Submit(spec) = r else { panic!("not a submit: {r:?}") };
        assert_eq!(*spec, JobSpec::default());
        let r = parse_request(
            "{\"cmd\":\"submit\",\"source\":\"void main() { }\",\"kind\":\"report\",\
             \"engine\":\"tree\",\"nexec\":5,\"nloc\":3,\
             \"inputs\":[1,-2],\"priority\":9,\"scale\":4}",
        )
        .unwrap();
        let Request::Submit(spec) = r else { panic!() };
        assert_eq!(spec.input, JobInput::Source("void main() { }".to_owned()));
        assert_eq!(spec.kind, JobKind::Report);
        assert_eq!(spec.engine, Engine::Tree);
        assert_eq!((spec.n_exec, spec.n_loc), (5, 3));
        assert_eq!(spec.inputs, Some(vec![1, -2]));
        assert_eq!(spec.priority, 9);
        assert_eq!(spec.scale, 4);
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = parse_request("{\"cmd\":\"submit\",\"workload\":\"fftc\",\"scale\":2}").unwrap();
        let b = parse_request("{\"scale\":2,\"workload\":\"fftc\",\"cmd\":\"submit\"}").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_requests_get_the_right_code() {
        let code = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(code("not json at all"), ErrorCode::BadJson);
        assert_eq!(code("[1,2]"), ErrorCode::BadRequest);
        assert_eq!(code("{\"cmd\":\"fly\"}"), ErrorCode::UnknownCommand);
        assert_eq!(code("{\"cmd\":\"submit\"}"), ErrorCode::BadRequest);
        assert_eq!(
            code("{\"cmd\":\"submit\",\"workload\":\"a\",\"source\":\"b\"}"),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code("{\"cmd\":\"submit\",\"workload\":\"a\",\"kind\":\"paint\"}"),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code("{\"cmd\":\"submit\",\"workload\":\"a\",\"priority\":10}"),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code("{\"cmd\":\"submit\",\"workload\":\"a\",\"sample\":\"coin\"}"),
            ErrorCode::BadRequest
        );
        // A field the command does not read is refused by name, whatever
        // its value.
        let message = |line: &str| parse_request(line).unwrap_err().message;
        assert_eq!(
            message("{\"cmd\":\"submit\",\"workload\":\"a\",\"sample\":\"coin\"}"),
            "`submit` does not take field `sample`"
        );
        assert_eq!(
            message("{\"cmd\":\"ping\",\"job\":\"j1\"}"),
            "`ping` does not take field `job`"
        );
        assert_eq!(
            code("{\"cmd\":\"poll\",\"job\":\"j1\",\"timeout_ms\":5}"),
            ErrorCode::BadRequest
        );
        assert_eq!(code("{\"cmd\":\"wait\"}"), ErrorCode::BadRequest);
        assert_eq!(
            code("{\"cmd\":\"wait\",\"job\":\"j1\",\"timeout_ms\":-4}"),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn responses_round_trip_through_render_and_parse() {
        let replies = [
            Response::Submitted { job: "j1".into(), hit: true, key: "ab12".into() },
            Response::Status { job: "j1".into(), state: "queued" },
            Response::Result { job: "j1".into(), hit: false, result: "for (...)\n".into() },
            Response::Stats(StatsSnapshot {
                submitted: 3,
                cache_hits: 1,
                connections_refused: 2,
                ..Default::default()
            }),
            Response::Pong,
            Response::ShutdownStarted,
            Response::Error(ProtoError {
                code: ErrorCode::QueueFull,
                message: "queue is full".into(),
                retry_after_ms: Some(50),
            }),
        ];
        for r in replies {
            let line = r.render();
            assert!(!line.contains('\n'), "one line per reply: {line}");
            assert_eq!(Response::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnknownCommand,
            ErrorCode::UnknownJob,
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::JobFailed,
            ErrorCode::Timeout,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn render_submit_round_trips() {
        let specs = [
            JobSpec::default(),
            JobSpec {
                kind: JobKind::Dse,
                input: JobInput::Source("void main() { }".into()),
                scale: 3,
                engine: Engine::Tree,
                n_exec: 1,
                n_loc: 2,
                inputs: Some(vec![-1, 0, 9]),
                priority: 4,
            },
            JobSpec {
                kind: JobKind::Report,
                input: JobInput::Trace("/tmp/t.ftrace".into()),
                ..JobSpec::default()
            },
        ];
        for spec in specs {
            let line = spec.render_submit();
            let Request::Submit(back) = parse_request(&line).unwrap() else {
                panic!("not a submit: {line}")
            };
            assert_eq!(*back, spec, "{line}");
        }
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_request("{\"cmd\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"cmd\":\"shutdown\"}").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("{\"cmd\":\"poll\",\"job\":\"j9\"}").unwrap(),
            Request::Poll { job: "j9".into() }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"wait\",\"job\":\"j9\",\"timeout_ms\":100}").unwrap(),
            Request::Wait { job: "j9".into(), timeout_ms: Some(100) }
        );
    }
}
