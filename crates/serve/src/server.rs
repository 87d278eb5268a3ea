//! The `forayd` scheduler: bounded priority queue, worker pool,
//! content-addressed cache, in-flight deduplication, graceful drain.
//!
//! Submission path, in order:
//!
//! 1. **Validate + resolve** — unknown workloads / unreadable traces are
//!    rejected with typed errors before anything is queued; the
//!    content-addressed key is computed ([`crate::key`]).
//! 2. **Cache** — a hit answers instantly with a job that is born `done`.
//! 3. **Dedupe** — a submission whose key is already queued or running is
//!    coalesced onto the in-flight job: same job id back, one compute,
//!    N identical replies.
//! 4. **Backpressure** — a full queue rejects with `queue_full` and a
//!    `retry_after_ms` hint; accepted work is never dropped.
//! 5. **Queue** — jobs run highest [`JobSpec::priority`] first, FIFO
//!    within a priority.
//!
//! Shutdown is a drain: the flag flips (new submits get `shutting_down`),
//! workers finish everything already accepted, then exit. With
//! `workers: 0` nothing runs in the background — tests drive the queue
//! deterministically with [`Server::step_one`].

use crate::cache::ResultCache;
use crate::json::{obj, Json};
use crate::key::{analyzer_config_for, resolve, ResolvedJob};
use crate::protocol::{
    parse_request, ErrorCode, JobInput, JobKind, JobSpec, ProtoError, Request, Response,
    StatsSnapshot,
};
use foray::{ForayGen, ForayModel, MemoryBehavior};
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Background compute threads; `0` = none, drive with
    /// [`Server::step_one`] (deterministic test mode).
    pub workers: usize,
    /// Maximum jobs waiting in the queue before submits are rejected
    /// with `queue_full`.
    pub queue_capacity: usize,
    /// In-memory result-cache entries.
    pub cache_entries: usize,
    /// Spill directory for evicted cache entries (`None`: evictions are
    /// dropped).
    pub spill_dir: Option<PathBuf>,
    /// Backoff hint attached to `queue_full` rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            cache_entries: 128,
            spill_dir: None,
            retry_after_ms: 100,
        }
    }
}

/// A successful submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    /// Job id for `wait` / `poll`.
    pub job: String,
    /// `true` when the result came straight from the cache.
    pub hit: bool,
    /// The job's content-addressed key (16 hex chars).
    pub key: String,
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done { hit: bool, result: Arc<str> },
    Failed(String),
}

#[derive(Debug)]
struct JobRecord {
    resolved: ResolvedJob,
    state: JobState,
}

/// Max-heap entry: highest priority first, then FIFO by sequence.
#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: u8,
    seq: u64,
    id: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    cache_hits: u64,
    cache_misses: u64,
    deduped: u64,
    computed: u64,
    failed: u64,
    rejected: u64,
}

struct State {
    queue: BinaryHeap<QueueEntry>,
    jobs: HashMap<u64, JobRecord>,
    in_flight: HashMap<String, u64>,
    cache: ResultCache,
    counters: Counters,
    next_id: u64,
    next_seq: u64,
    running: u64,
    shutting_down: bool,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The analysis service: scheduler + cache + worker pool. Listener-free —
/// wire transports live in [`crate::net`]; everything here is callable
/// in-process for tests and benches.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the service and its worker pool.
    pub fn new(cfg: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: BinaryHeap::new(),
                jobs: HashMap::new(),
                in_flight: HashMap::new(),
                cache: ResultCache::new(cfg.cache_entries, cfg.spill_dir.clone()),
                counters: Counters::default(),
                next_id: 0,
                next_seq: 0,
                running: 0,
                shutting_down: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Server { shared, workers }
    }

    /// Submits a job: validate, consult the cache, coalesce onto an
    /// in-flight twin, or enqueue.
    ///
    /// # Errors
    ///
    /// Typed [`ProtoError`]: `bad_request` (unknown workload, unreadable
    /// trace, dse-over-trace), `shutting_down`, or `queue_full` (with a
    /// retry hint).
    pub fn submit(&self, spec: &JobSpec) -> Result<Submitted, ProtoError> {
        // Resolution does IO (trace hashing) — keep it outside the lock.
        let resolved = resolve(spec)?;
        let key = resolved.key.clone();
        let mut st = self.shared.lock();
        if st.shutting_down {
            return Err(ProtoError::new(
                ErrorCode::ShuttingDown,
                "the daemon is draining and accepts no new jobs",
            ));
        }
        st.counters.submitted += 1;
        if let Some(result) = st.cache.get(&key) {
            st.counters.cache_hits += 1;
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.insert(id, JobRecord { resolved, state: JobState::Done { hit: true, result } });
            return Ok(Submitted { job: format!("j{id}"), hit: true, key });
        }
        if let Some(&id) = st.in_flight.get(&key) {
            st.counters.deduped += 1;
            return Ok(Submitted { job: format!("j{id}"), hit: false, key });
        }
        if st.queue.len() >= self.shared.cfg.queue_capacity {
            st.counters.rejected += 1;
            return Err(ProtoError {
                code: ErrorCode::QueueFull,
                message: format!("queue is full ({} jobs waiting)", self.shared.cfg.queue_capacity),
                retry_after_ms: Some(self.shared.cfg.retry_after_ms),
            });
        }
        st.counters.cache_misses += 1;
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.jobs.insert(id, JobRecord { resolved, state: JobState::Queued });
        st.in_flight.insert(key.clone(), id);
        st.queue.push(QueueEntry { priority: spec.priority, seq, id });
        drop(st);
        self.shared.work.notify_one();
        Ok(Submitted { job: format!("j{id}"), hit: false, key })
    }

    /// Blocks until `job` finishes; `timeout` bounds the wait.
    ///
    /// # Errors
    ///
    /// `unknown_job`, `job_failed` (with the compute error), or `timeout`.
    pub fn wait(
        &self,
        job: &str,
        timeout: Option<Duration>,
    ) -> Result<(bool, Arc<str>), ProtoError> {
        let id = parse_job_id(job)?;
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.shared.lock();
        loop {
            let rec = st
                .jobs
                .get(&id)
                .ok_or_else(|| ProtoError::new(ErrorCode::UnknownJob, format!("no job `{job}`")))?;
            match &rec.state {
                JobState::Done { hit, result } => return Ok((*hit, Arc::clone(result))),
                JobState::Failed(msg) => {
                    return Err(ProtoError::new(ErrorCode::JobFailed, msg.clone()))
                }
                JobState::Queued | JobState::Running => {}
            }
            st = match deadline {
                None => {
                    self.shared.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner)
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(ProtoError::new(
                            ErrorCode::Timeout,
                            format!("job `{job}` did not finish in time"),
                        ));
                    }
                    self.shared
                        .done
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Non-blocking state query: `queued`, `running`, `done`, or `failed`.
    ///
    /// # Errors
    ///
    /// `unknown_job`.
    pub fn poll(&self, job: &str) -> Result<&'static str, ProtoError> {
        let id = parse_job_id(job)?;
        let st = self.shared.lock();
        let rec = st
            .jobs
            .get(&id)
            .ok_or_else(|| ProtoError::new(ErrorCode::UnknownJob, format!("no job `{job}`")))?;
        Ok(match rec.state {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let st = self.shared.lock();
        let cc = st.cache.counters();
        StatsSnapshot {
            submitted: st.counters.submitted,
            cache_hits: st.counters.cache_hits,
            cache_misses: st.counters.cache_misses,
            deduped: st.counters.deduped,
            computed: st.counters.computed,
            failed: st.counters.failed,
            rejected: st.counters.rejected,
            queue_depth: st.queue.len() as u64,
            running: st.running,
            cache_entries: st.cache.len() as u64,
            cache_evictions: cc.evictions,
            disk_hits: cc.disk_hits,
        }
    }

    /// Runs at most one queued job on the calling thread. Returns whether
    /// a job ran. This is the `workers: 0` test/drain hook: combined with
    /// a bounded queue it makes backpressure and ordering deterministic.
    pub fn step_one(&self) -> bool {
        let claimed = {
            let mut st = self.shared.lock();
            claim_next(&mut st)
        };
        match claimed {
            Some((id, resolved)) => {
                run_claimed(&self.shared, id, &resolved);
                true
            }
            None => false,
        }
    }

    /// Blocks until every accepted job has finished (queue empty, nothing
    /// running). With `workers: 0` the drain runs inline on this thread.
    /// Call [`Server::begin_shutdown`] first if new submissions should be
    /// fenced out while draining.
    pub fn drain_wait(&self) {
        if self.shared.cfg.workers == 0 {
            while self.step_one() {}
            return;
        }
        let mut st = self.shared.lock();
        while !st.queue.is_empty() || st.running > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Flips the drain flag: new submits are rejected, accepted jobs keep
    /// running. Idempotent.
    pub fn begin_shutdown(&self) {
        let mut st = self.shared.lock();
        st.shutting_down = true;
        drop(st);
        self.shared.work.notify_all();
    }

    /// Graceful drain: reject new work, finish everything accepted
    /// (inline when `workers: 0`), join the pool. Idempotent.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        if self.shared.cfg.workers == 0 {
            while self.step_one() {}
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Serves one protocol line: parse, dispatch, and map every failure to
    /// a typed error response. This is the whole per-line server side —
    /// transports ([`crate::net`]) only frame lines and move bytes.
    ///
    /// Returns the response plus whether the daemon should begin draining
    /// (a `shutdown` command was acknowledged).
    pub fn handle_line(&self, line: &str) -> (Response, bool) {
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(e) => return (Response::Error(e), false),
        };
        match req {
            Request::Submit(spec) => match self.submit(&spec) {
                Ok(s) => (Response::Submitted { job: s.job, hit: s.hit, key: s.key }, false),
                Err(e) => (Response::Error(e), false),
            },
            Request::Wait { job, timeout_ms } => {
                match self.wait(&job, timeout_ms.map(Duration::from_millis)) {
                    Ok((hit, result)) => {
                        (Response::Result { job, hit, result: result.to_string() }, false)
                    }
                    Err(e) => (Response::Error(e), false),
                }
            }
            Request::Poll { job } => match self.poll(&job) {
                Ok(state) => (Response::Status { job, state }, false),
                Err(e) => (Response::Error(e), false),
            },
            Request::Stats => (Response::Stats(self.stats()), false),
            Request::Ping => (Response::Pong, false),
            Request::Shutdown => {
                self.begin_shutdown();
                (Response::ShutdownStarted, true)
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn parse_job_id(job: &str) -> Result<u64, ProtoError> {
    job.strip_prefix('j')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownJob, format!("malformed job id `{job}`")))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut st = shared.lock();
            loop {
                if let Some(c) = claim_next(&mut st) {
                    break c;
                }
                if st.shutting_down {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_claimed(shared, claimed.0, &claimed.1);
    }
}

/// Pops the highest-priority job and marks it running — one atomic step
/// under the lock, so a drain check never sees a popped-but-unmarked job.
fn claim_next(st: &mut State) -> Option<(u64, ResolvedJob)> {
    let id = st.queue.pop()?.id;
    let rec = st.jobs.get_mut(&id).expect("queued job has a record");
    rec.state = JobState::Running;
    st.running += 1;
    Some((id, rec.resolved.clone()))
}

/// Computes a claimed job unlocked, then publishes the result (into the
/// cache on success) and wakes waiters.
fn run_claimed(shared: &Arc<Shared>, id: u64, resolved: &ResolvedJob) {
    let outcome = compute(resolved);
    let mut st = shared.lock();
    st.running -= 1;
    st.in_flight.remove(&resolved.key);
    match outcome {
        Ok(text) => {
            let result: Arc<str> = Arc::from(text);
            st.cache.insert(&resolved.key, Arc::clone(&result));
            st.counters.computed += 1;
            if let Some(rec) = st.jobs.get_mut(&id) {
                rec.state = JobState::Done { hit: false, result };
            }
        }
        Err(msg) => {
            st.counters.failed += 1;
            if let Some(rec) = st.jobs.get_mut(&id) {
                rec.state = JobState::Failed(msg);
            }
        }
    }
    drop(st);
    shared.done.notify_all();
}

/// The actual analysis: one sequential analyzer per job, run with the
/// lock released. Its payload is a pure function of the resolved job (the
/// determinism the cache relies on).
fn compute(resolved: &ResolvedJob) -> Result<String, String> {
    let spec = &resolved.spec;
    let filter = foray::FilterConfig { n_exec: spec.n_exec, n_loc: spec.n_loc };
    let acfg = analyzer_config_for(spec);
    match spec.kind {
        JobKind::Model | JobKind::Report => {
            let (analysis, model, code) = match &spec.input {
                JobInput::Trace(path) => {
                    let results = foray::analyze_trace_files(&[path.as_str()], 1, &acfg);
                    let analysis = results
                        .into_iter()
                        .next()
                        .expect("one path in, one result out")
                        .map_err(|e| format!("trace `{path}`: {e}"))?;
                    let model = ForayModel::extract(&analysis, &filter);
                    let code = foray::codegen::emit(&model);
                    (analysis, model, code)
                }
                JobInput::Workload(_) | JobInput::Source(_) => {
                    let source = resolved.source.as_deref().expect("resolved program source");
                    let out = ForayGen::new()
                        .filter(filter)
                        .analyzer(acfg)
                        .engine(spec.engine)
                        .inputs(resolved.inputs.clone())
                        .run_source(source)
                        .map_err(|e| e.to_string())?;
                    (out.analysis, out.model, out.code)
                }
            };
            match spec.kind {
                JobKind::Model => Ok(code),
                JobKind::Report => Ok(render_report(resolved, &analysis, &model, &code)),
                JobKind::Dse => unreachable!("outer match"),
            }
        }
        JobKind::Dse => {
            let source = resolved.source.as_deref().expect("dse-over-trace rejected at resolve");
            let name = match &spec.input {
                JobInput::Workload(w) => w.as_str(),
                _ => "inline",
            };
            let pipeline = ForayGen::new()
                .filter(filter)
                .analyzer(acfg)
                .engine(spec.engine)
                .inputs(resolved.inputs.clone());
            let job = foray::BatchJob::new(name, source).pipeline(pipeline);
            let result = foray_spm::SpmDesignSpace::new()
                .capacities(&[256, 512, 1024, 2048, 4096, 8192])
                .preset_models()
                .workloads([job])
                .explore(1)
                .map_err(|e| e.to_string())?;
            Ok(result.to_json())
        }
    }
}

/// Renders the `report` payload: `foray-serve-report/v1`, one compact
/// JSON object with the Table III memory-behaviour counters plus the
/// emitted model code.
fn render_report(
    resolved: &ResolvedJob,
    analysis: &foray::Analysis,
    model: &ForayModel,
    code: &str,
) -> String {
    let mb = MemoryBehavior::compute(analysis, model);
    let name = match &resolved.spec.input {
        JobInput::Workload(w) => w.clone(),
        JobInput::Source(_) => "inline".to_owned(),
        JobInput::Trace(p) => p.clone(),
    };
    let n = |v: u64| Json::Int(v as i64);
    obj([
        ("schema", Json::Str("foray-serve-report/v1".into())),
        ("name", Json::Str(name)),
        ("key", Json::Str(resolved.key.clone())),
        ("total_refs", n(mb.total_refs)),
        ("total_accesses", n(mb.total_accesses)),
        ("total_footprint", n(mb.total_footprint)),
        ("model_refs", n(mb.model_refs)),
        ("model_accesses", n(mb.model_accesses)),
        ("model_footprint", n(mb.model_footprint)),
        ("lib_refs", n(mb.lib_refs)),
        ("lib_accesses", n(mb.lib_accesses)),
        ("lib_footprint", n(mb.lib_footprint)),
        ("other_footprint", n(mb.other_footprint)),
        ("model_loops", n(model.loops.len() as u64)),
        ("code", Json::Str(code.to_owned())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: &str = "int a[256]; void main() { int i; for (i = 0; i < 256; i++) { a[i] = i; } }";

    fn spec(source: &str) -> JobSpec {
        JobSpec { input: JobInput::Source(source.to_owned()), ..JobSpec::default() }
    }

    fn manual_server() -> Server {
        Server::new(ServeConfig { workers: 0, ..ServeConfig::default() })
    }

    #[test]
    fn submit_step_wait_roundtrip_and_cache_hit() {
        let srv = manual_server();
        let s1 = srv.submit(&spec(LOOP)).unwrap();
        assert!(!s1.hit);
        assert_eq!(srv.poll(&s1.job).unwrap(), "queued");
        assert!(srv.step_one());
        assert_eq!(srv.poll(&s1.job).unwrap(), "done");
        let (hit, cold) = srv.wait(&s1.job, None).unwrap();
        assert!(!hit);
        assert!(cold.contains("for ("), "model code expected, got: {cold}");

        let s2 = srv.submit(&spec(LOOP)).unwrap();
        assert!(s2.hit, "resubmission is a cache hit");
        assert_eq!(s2.key, s1.key);
        let (hit, warm) = srv.wait(&s2.job, None).unwrap();
        assert!(hit);
        assert_eq!(*warm, *cold, "cached bytes identical to cold bytes");

        let st = srv.stats();
        assert_eq!((st.submitted, st.cache_hits, st.computed), (2, 1, 1));
    }

    #[test]
    fn dedupe_coalesces_identical_pending_jobs() {
        let srv = manual_server();
        let a = srv.submit(&spec(LOOP)).unwrap();
        let b = srv.submit(&spec(LOOP)).unwrap();
        assert_eq!(a.job, b.job, "same key while queued: same job id");
        assert_eq!(srv.stats().deduped, 1);
        assert!(srv.step_one());
        assert!(!srv.step_one(), "one queue entry for both submissions");
        assert_eq!(srv.stats().computed, 1);
    }

    #[test]
    fn priority_orders_the_queue_fifo_within_level() {
        let srv = manual_server();
        let mk = |src: &str, priority: u8| {
            let mut s = spec(src);
            s.priority = priority;
            srv.submit(&s).unwrap().job
        };
        let low1 = mk("int x[64]; void main() { x[0] = 1; }", 0);
        let hi = mk("int y[64]; void main() { y[0] = 2; }", 5);
        let low2 = mk("int z[64]; void main() { z[0] = 3; }", 0);
        assert!(srv.step_one());
        assert_eq!(srv.poll(&hi).unwrap(), "done", "high priority first");
        assert!(srv.step_one());
        assert_eq!(srv.poll(&low1).unwrap(), "done", "FIFO within a level");
        assert_eq!(srv.poll(&low2).unwrap(), "queued");
        assert!(srv.step_one());
    }

    #[test]
    fn queue_full_is_a_typed_retryable_rejection() {
        let mut srv = Server::new(ServeConfig {
            workers: 0,
            queue_capacity: 1,
            retry_after_ms: 77,
            ..ServeConfig::default()
        });
        srv.submit(&spec(LOOP)).unwrap();
        let e = srv.submit(&spec("int b[9]; void main() { b[1] = 2; }")).unwrap_err();
        assert_eq!(e.code, ErrorCode::QueueFull);
        assert_eq!(e.retry_after_ms, Some(77));
        assert_eq!(srv.stats().rejected, 1);
        // Draining the queue makes room again.
        assert!(srv.step_one());
        srv.submit(&spec("int b[9]; void main() { b[1] = 2; }")).unwrap();
        srv.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_accepted_jobs() {
        let mut srv = manual_server();
        let s = srv.submit(&spec(LOOP)).unwrap();
        srv.begin_shutdown();
        let e = srv.submit(&spec("void main() { }")).unwrap_err();
        assert_eq!(e.code, ErrorCode::ShuttingDown);
        srv.shutdown();
        assert_eq!(srv.poll(&s.job).unwrap(), "done", "accepted job survived the drain");
    }

    #[test]
    fn failed_jobs_report_job_failed_and_are_not_cached() {
        let srv = manual_server();
        let s = srv.submit(&spec("void main() { undeclared = 3; }")).unwrap();
        assert!(srv.step_one());
        let e = srv.wait(&s.job, None).unwrap_err();
        assert_eq!(e.code, ErrorCode::JobFailed);
        assert_eq!(srv.poll(&s.job).unwrap(), "failed");
        let again = srv.submit(&spec("void main() { undeclared = 3; }")).unwrap();
        assert!(!again.hit, "failures are never cached");
        assert_eq!(srv.stats().failed, 1);
        assert!(srv.step_one());
    }

    #[test]
    fn wait_times_out_and_unknown_jobs_are_typed() {
        let srv = manual_server();
        let s = srv.submit(&spec(LOOP)).unwrap();
        let e = srv.wait(&s.job, Some(Duration::from_millis(10))).unwrap_err();
        assert_eq!(e.code, ErrorCode::Timeout);
        assert_eq!(srv.wait("j999", None).unwrap_err().code, ErrorCode::UnknownJob);
        assert_eq!(srv.poll("bogus").unwrap_err().code, ErrorCode::UnknownJob);
        assert!(srv.step_one());
    }

    #[test]
    fn background_workers_compute_without_stepping() {
        let mut srv = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
        let s = srv.submit(&spec(LOOP)).unwrap();
        let (hit, result) = srv.wait(&s.job, Some(Duration::from_secs(30))).unwrap();
        assert!(!hit);
        assert!(result.contains("for ("));
        srv.shutdown();
    }

    #[test]
    fn handle_line_maps_every_failure_to_a_typed_response() {
        let srv = manual_server();
        let (r, _) = srv.handle_line("garbage");
        assert!(matches!(r, Response::Error(e) if e.code == ErrorCode::BadJson));
        let (r, _) = srv.handle_line("{\"cmd\":\"submit\",\"workload\":\"nope\"}");
        assert!(matches!(r, Response::Error(e) if e.code == ErrorCode::BadRequest));
        let (r, _) = srv.handle_line("{\"cmd\":\"ping\"}");
        assert_eq!(r, Response::Pong);
        let (r, sd) = srv.handle_line("{\"cmd\":\"shutdown\"}");
        assert_eq!(r, Response::ShutdownStarted);
        assert!(sd);
    }
}
