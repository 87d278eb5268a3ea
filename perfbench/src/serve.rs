//! `serve_mix`: forayd request → reply. The daemon runs `foray_serve::serve`
//! with `ServeConfig::default()` on a Unix socket; one closed-loop client
//! opens a connection per request, as `foray-gen client` does, and replays
//! a seeded stream of fixed length.
//!
//! The stream is built round by round from a fixed class mix: 80 requests
//! per round are designed to hit the 128-entry LRU and 20 to miss it.
//! Hits come from a hot set that every round touches (primed in set-up);
//! each miss class cycles through a ring of cold keys long enough that a
//! key is always evicted before it comes back. The latency classes are
//! placed so that `p50_ms` falls inside the hits, `p90_ms` inside the
//! five `adpcmc` model misses and `p99_ms` inside the two `gsmc` model
//! misses of every round — never on a boundary between two classes.
//!
//! Set-up records the stream's `.ftrace` inputs with `TraceWriter` as the
//! VM's sink; a forayd miss on a trace runs the `foray-gen trace analyze`
//! path that `trace_replay` measures in-process.

use crate::replay::{record, trace_path};
use crate::rng::Rng;
use crate::spans::{SpanId, Tracer};
use crate::{stats, Ctx, Expected, OpSample, Run, SCALE};
use foray::{FilterConfig, ForayGen, ForayModel};
use foray_serve::{
    Client, JobInput, JobKind, JobSpec, Response, ServeAddr, ServeConfig, Server, StatsSnapshot,
};
use foray_spm::{enumerate, CapacityPlan, EnergyModel};
use foray_workloads::Params;
use minic_sim::Engine;
use std::collections::HashMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per round.
pub const ROUND: usize = 100;
/// Rounds between two requests of one cold key: with ~48 distinct keys a
/// round, six rounds put well over 128 other keys in between.
const COLD_ROUNDS: usize = 6;
/// The hot n_exec variants of each workload's model, and their skew.
const HOT_NEXEC: [u64; 3] = [20, 24, 28];
const HOT_WEIGHTS: [u32; 3] = [4, 2, 1];
/// First n_exec of the cold variants.
const COLD_NEXEC: u64 = 30;
/// Programs whose `.ftrace` recordings the stream submits.
const TRACED: [&str; 3] = ["fftc", "histoc", "adpcmc"];
/// forayd's `dse` capacity grid (`compute` in `crates/serve/src/server.rs`).
const DSE_CAPACITIES: [u32; 6] = [256, 512, 1024, 2048, 4096, 8192];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A request that takes longer than this counts as failed.
const WAIT_TIMEOUT_MS: u64 = 60_000;
/// How long set-up waits for a fresh daemon to answer.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// A request class: how many requests of it each round carries, whether
/// they are designed to hit the cache, and its keys (indices into the
/// stream's distinct requests) with their weights.
pub struct Class {
    pub name: &'static str,
    pub per_round: usize,
    pub hit: bool,
    keys: Vec<usize>,
    weights: Vec<u32>,
}

/// The seeded request stream.
pub struct Stream {
    /// Every distinct request, in oracle order.
    pub specs: Vec<JobSpec>,
    pub classes: Vec<Class>,
    /// Per round, `(class, request)` in submission order.
    pub rounds: Vec<Vec<(usize, usize)>>,
}

fn spec(kind: JobKind, input: JobInput, n_exec: u64) -> JobSpec {
    JobSpec { kind, input, scale: SCALE, n_exec, ..JobSpec::default() }
}

fn workload(kind: JobKind, name: &str, n_exec: u64) -> JobSpec {
    spec(kind, JobInput::Workload(name.to_owned()), n_exec)
}

/// A small seeded two-level loop nest, submitted as inline source. The
/// leading comment keeps every generated program a distinct cache key.
fn loop_nest(rng: &mut Rng, id: usize) -> String {
    let rows = 16 + rng.below(33);
    let cols = 32 + rng.below(65);
    let stride = 1 + rng.below(3);
    let offset = rng.below(8);
    format!(
        "// generated loop nest {id}\n\
         int a[{}];\nint b[{}];\n\
         void main() {{\n    int i;\n    int j;\n    int s;\n    s = 0;\n\
         \x20   for (i = 0; i < {rows}; i++) {{\n\
         \x20       for (j = 0; j < {cols}; j++) {{\n\
         \x20           a[i * {cols} + j] = b[j * {stride} + {offset}] + i;\n\
         \x20           s = s + a[i * {cols} + j];\n\
         \x20       }}\n    }}\n    print_int(s);\n}}\n",
        rows * cols,
        cols * stride + offset + 1
    )
}

impl Stream {
    /// Builds the stream for `seed`; trace requests name files in
    /// `trace_dir`.
    pub fn new(seed: u64, rounds: usize, trace_dir: &Path) -> Stream {
        let mut rng = Rng::new(seed);
        let mut specs = Vec::new();
        let mut classes = Vec::new();
        let mut class = |name, per_round, hit, members: Vec<(JobSpec, u32)>| {
            let keys = (specs.len()..specs.len() + members.len()).collect();
            let weights = members.iter().map(|m| m.1).collect();
            specs.extend(members.into_iter().map(|m| m.0));
            classes.push(Class { name, per_round, hit, keys, weights });
        };
        let corpus: Vec<&str> = crate::corpus::programs().iter().map(|w| w.name).collect();
        let cold = |per_round: usize| (0..(COLD_ROUNDS * per_round) as u64).map(|i| COLD_NEXEC + i);
        let model = JobKind::Model;

        // Hits: 80 a round over a hot set every round touches.
        let hot_models = corpus
            .iter()
            .flat_map(|w| {
                HOT_NEXEC.iter().zip(HOT_WEIGHTS).map(|(&n, wt)| (workload(model, w, n), wt))
            })
            .collect();
        class("model hit", 66, true, hot_models);
        let reports = ["fftc", "histoc"].iter().map(|w| (workload(JobKind::Report, w, 20), 1));
        class("report hit", 4, true, reports.collect());
        let nests = (0..2).map(|i| (spec(model, JobInput::Source(loop_nest(&mut rng, i)), 20), 1));
        class("source hit", 4, true, nests.collect());
        let traces = ["fftc", "histoc"]
            .iter()
            .map(|w| (spec(model, JobInput::Trace(trace_path(trace_dir, w)), 20), 1));
        class("trace hit", 4, true, traces.collect());
        class("dse hit", 2, true, vec![(workload(JobKind::Dse, "fftc", 20), 1)]);

        // Misses: 20 a round, each class cycling through its cold ring.
        let nests = (2..2 + COLD_ROUNDS * 3)
            .map(|i| (spec(model, JobInput::Source(loop_nest(&mut rng, i)), 20), 1));
        class("source miss", 3, false, nests.collect());
        let traces = TRACED.iter().flat_map(|w| {
            (COLD_NEXEC..COLD_NEXEC + 4)
                .map(|n| (spec(model, JobInput::Trace(trace_path(trace_dir, w)), n), 1))
        });
        class("trace miss", 2, false, traces.collect());
        for (label, kind, name, per_round) in [
            ("fftc model miss", model, "fftc", 1),
            ("histoc report miss", JobKind::Report, "histoc", 1),
            ("adpcmc model miss", model, "adpcmc", 5),
            ("susanc model miss", model, "susanc", 1),
            ("lamec model miss", model, "lamec", 1),
            ("jpegc model miss", model, "jpegc", 1),
            ("jpegc report miss", JobKind::Report, "jpegc", 1),
            ("lamec dse miss", JobKind::Dse, "lamec", 1),
            ("susanc dse miss", JobKind::Dse, "susanc", 1),
            ("gsmc model miss", model, "gsmc", 2),
        ] {
            let members = cold(per_round).map(|n| (workload(kind, name, n), 1)).collect();
            class(label, per_round, false, members);
        }

        let mut rings: Vec<Vec<usize>> = classes
            .iter()
            .map(|c| {
                let mut ring = c.keys.clone();
                rng.shuffle(&mut ring);
                ring
            })
            .collect();
        let mut cursor = vec![0usize; classes.len()];
        let rounds = (0..rounds)
            .map(|_| {
                let mut slots: Vec<usize> =
                    classes.iter().enumerate().flat_map(|(i, c)| vec![i; c.per_round]).collect();
                rng.shuffle(&mut slots);
                // Each hot class covers all of its keys every round (a
                // fresh seeded order), then draws the rest by weight.
                for (i, c) in classes.iter().enumerate() {
                    if c.hit {
                        rng.shuffle(&mut rings[i]);
                        cursor[i] = 0;
                    }
                }
                slots
                    .into_iter()
                    .map(|ci| {
                        let c = &classes[ci];
                        let key = if c.hit && cursor[ci] >= c.keys.len() {
                            c.keys[rng.weighted(&c.weights)]
                        } else {
                            let k = rings[ci][cursor[ci] % rings[ci].len()];
                            cursor[ci] += 1;
                            k
                        };
                        (ci, key)
                    })
                    .collect()
            })
            .collect();
        Stream { specs, classes, rounds }
    }

    /// Requests the set-up primes: the hot set.
    pub fn hot(&self) -> impl Iterator<Item = usize> + '_ {
        self.classes.iter().filter(|c| c.hit).flat_map(|c| c.keys.iter().copied())
    }

    pub fn mix(&self) -> String {
        let parts: Vec<String> =
            self.classes.iter().map(|c| format!("{} {}", c.per_round, c.name)).collect();
        parts.join(", ")
    }
}

/// The expected payload of every distinct request: the same spec with
/// `engine: tree` through an in-process `Server` with `workers: 0`. Trace
/// requests read recordings the oracle makes itself with the tree engine.
pub fn oracle(ctx: &Ctx) -> Result<Vec<Expected>, String> {
    let programs = crate::corpus::programs();
    for w in programs.iter().filter(|w| TRACED.contains(&w.name)) {
        record(w, Path::new(&trace_path(&ctx.tmp, w.name)), Engine::Tree)?;
    }
    let stream = Stream::new(ctx.seed, 0, &ctx.tmp);
    let results = foray::map_ordered(&stream.specs, 2, |_, spec| -> Result<Expected, String> {
        let oracle_spec = JobSpec { engine: Engine::Tree, ..spec.clone() };
        let server = Server::new(ServeConfig { workers: 0, ..ServeConfig::default() });
        let job = server.submit(&oracle_spec).map_err(|e| e.to_string())?;
        server.step_one();
        let (_, payload) = server.wait(&job.job, None).map_err(|e| e.to_string())?;
        // A report names its own cache key, and the engine is key
        // material: put the request's key where the oracle's stands.
        let own_key = foray_serve::resolve(spec).map_err(|e| e.to_string())?.key;
        let payload = payload.replacen(&job.key, &own_key, 1);
        let filter = FilterConfig::default();
        let default_filter = spec.n_exec == filter.n_exec && spec.n_loc == filter.n_loc;
        let model_of = match &spec.input {
            JobInput::Workload(w) if spec.kind == JobKind::Model && default_filter => {
                Some(w.clone())
            }
            _ => None,
        };
        Ok(Expected { records: records_of(spec)?, model_of, payload, trusted: true })
    });
    results.into_iter().collect()
}

/// Trace records (accesses plus checkpoints) a request's analysis consumes.
fn records_of(spec: &JobSpec) -> Result<u64, String> {
    let (source, inputs) = match &spec.input {
        JobInput::Trace(path) => {
            return minic_trace::TraceFile::open(path)
                .map(|f| f.record_count())
                .map_err(|e| e.to_string())
        }
        JobInput::Workload(name) => {
            let w = foray_workloads::by_name(name, Params { scale: spec.scale })
                .ok_or_else(|| format!("unknown workload {name}"))?;
            (w.source, w.inputs)
        }
        JobInput::Source(text) => (text.clone(), Vec::new()),
    };
    let prog = minic::frontend(&source).map_err(|e| e.to_string())?;
    let mut count = minic_trace::CountingSink::new();
    minic_sim::run_with_sink(&prog, &Default::default(), &inputs, &mut count)
        .map_err(|e| e.to_string())?;
    Ok(count.total())
}

/// The daemon thread; dropping it drains and joins the daemon.
struct Daemon {
    addr: ServeAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts forayd and returns once it has answered a `ping`.
    fn start(addr: &ServeAddr) -> Result<Daemon, String> {
        let server = Server::new(ServeConfig::default());
        let bind = addr.clone();
        let thread = std::thread::spawn(move || foray_serve::serve(server, &bind));
        let daemon = Daemon { addr: addr.clone(), thread: Some(thread) };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match Client::connect(addr) {
                Ok(mut c) => {
                    return match c.ping() {
                        Ok(Response::Pong) => Ok(daemon),
                        other => Err(format!("forayd answered ping with {other:?}")),
                    }
                }
                Err(_) if Instant::now() < deadline => std::thread::yield_now(),
                Err(e) => return Err(format!("forayd never came up: {e}")),
            }
        }
    }

    fn stats(&self) -> Result<StatsSnapshot, String> {
        match Client::connect(&self.addr).and_then(|mut c| c.stats()) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(format!("stats request failed: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The tracing context of one traced request.
struct Traced<'a> {
    tr: &'a mut Tracer,
    op: u64,
    parent: SpanId,
}

fn step<R>(traced: &mut Option<Traced<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match traced {
        Some(t) => t.tr.time(name, t.op, Some(t.parent), f),
        None => f(),
    }
}

/// One request: connect, submit, wait; the connection closes when the
/// client drops. Returns the submit reply's `hit` flag and the payload.
fn request(
    addr: &ServeAddr,
    spec: &JobSpec,
    mut traced: Option<Traced<'_>>,
) -> Result<(bool, String), String> {
    let mut client = step(&mut traced, "foray-serve.connect", || Client::connect(addr))
        .map_err(|e| e.to_string())?;
    let (job, hit) = match step(&mut traced, "foray-serve.submit", || client.submit(spec)) {
        Ok(Response::Submitted { job, hit, .. }) => (job, hit),
        Ok(Response::Error(e)) => return Err(format!("submit refused: {e}")),
        other => return Err(format!("unexpected submit reply: {other:?}")),
    };
    match step(&mut traced, "foray-serve.wait", || client.wait(&job, Some(WAIT_TIMEOUT_MS))) {
        Ok(Response::Result { result, .. }) => Ok((hit, result)),
        Ok(Response::Error(e)) => Err(format!("job failed: {e}")),
        other => Err(format!("unexpected wait reply: {other:?}")),
    }
}

/// `candidate::enumerate` plus the capacity plan `dse` builds per energy
/// model, over a `dse` request's model.
fn dse_probe(model: &ForayModel) -> usize {
    let candidates = enumerate(model);
    let budget = DSE_CAPACITIES[DSE_CAPACITIES.len() - 1];
    let mut chosen = 0;
    for (_, energy) in EnergyModel::presets() {
        let plan = CapacityPlan::build(&candidates, &energy, budget);
        chosen += DSE_CAPACITIES.iter().map(|&c| plan.select(c).chosen.len()).sum::<usize>();
    }
    chosen
}

pub fn run(ctx: &Ctx, expected: &[Expected]) -> Result<Run, String> {
    let stream = Stream::new(ctx.seed, ctx.rounds, &ctx.tmp);
    let addr = ServeAddr::Unix(ctx.tmp.join("forayd.sock"));
    let programs: Vec<_> =
        crate::corpus::programs().into_iter().filter(|w| TRACED.contains(&w.name)).collect();
    let mut run = Run::default();
    let hot: Vec<usize> = stream.hot().collect();

    // Set-up, repeated: daemon start to first answered ping, recording the
    // stream's `.ftrace` inputs, and priming the hot set.
    let mut daemon = None;
    let mut client_hits = 0u64;
    for _ in 0..SETUP_REPEATS {
        // Sampled before the old daemon shuts down, whose exiting threads
        // would slow the gauge.
        let gauge = run.gauge.sample();
        drop(daemon.take());
        let start = Instant::now();
        let d = Daemon::start(&addr)?;
        for w in &programs {
            record(w, Path::new(&trace_path(&ctx.tmp, w.name)), Engine::Vm)?;
        }
        let primed: Vec<_> = hot.iter().map(|&k| request(&addr, &stream.specs[k], None)).collect();
        run.setup_s.push((start.elapsed().as_secs_f64(), gauge));
        client_hits = 0;
        for (&k, reply) in hot.iter().zip(primed) {
            match reply {
                Ok((hit, payload)) => {
                    client_hits += u64::from(hit);
                    if !expected[k].matches(&payload) {
                        run.problems.push(format!("priming request {k}: bytes differ"));
                    }
                }
                Err(e) => run.problems.push(format!("priming request {k}: {e}")),
            }
        }
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let before = daemon.stats()?;

    let dse_models: HashMap<usize, ForayModel> =
        if ctx.traced { dse_models(&stream)? } else { HashMap::new() };
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let mut payload_bytes = 0u64;
    let mut round_hits = Vec::with_capacity(stream.rounds.len());
    for (round, requests) in stream.rounds.iter().enumerate() {
        let traced = ctx.round_traced(round);
        let mut hits = 0;
        for &(class, key) in requests {
            let spec = &stream.specs[key];
            let op = run.ops.len() as u64;
            let gauge = run.gauge.sample();
            let (ms, reply) = if traced {
                let label = stream.classes[class].name;
                let top = run.tracer.begin_labelled("serve_mix.op", label, op, None);
                let t = Traced { tr: &mut run.tracer, op, parent: top };
                let reply = request(&addr, spec, Some(t));
                let ms = run.tracer.end(top);
                let resolved =
                    run.tracer.time("foray-serve.resolve", op, None, || foray_serve::resolve(spec));
                if let Err(e) = resolved {
                    run.problems.push(format!("in-process resolve of request {key}: {e}"));
                }
                if let Some(model) = dse_models.get(&key) {
                    let chosen = run.tracer.time("foray-spm.dse", op, None, || dse_probe(model));
                    std::hint::black_box(chosen);
                }
                (ms, reply)
            } else {
                let start = Instant::now();
                let reply = request(&addr, spec, None);
                (start.elapsed().as_secs_f64() * 1e3, reply)
            };
            let records = match reply {
                Ok((hit, payload)) => {
                    hits += usize::from(hit);
                    payload_bytes += payload.len() as u64;
                    if !expected[key].matches(&payload) {
                        run.fail(format!("request {key}: payload bytes differ from the oracle's"))
                    } else {
                        if traced {
                            (if hit { &mut hit_ms } else { &mut miss_ms }).push(ms);
                        }
                        if hit {
                            0
                        } else {
                            expected[key].records
                        }
                    }
                }
                Err(e) => run.fail(format!("request {key}: {e}")),
            };
            run.ops.push(OpSample { ms, gauge, traced, records });
        }
        client_hits += hits as u64;
        round_hits.push(hits);
    }

    let after = daemon.stats()?;
    run.problems.extend(conservation(&after, client_hits));
    drop(daemon);
    run.mix = format!(
        "{ROUND} requests per round ({}); client-seen hits per round {:?}",
        stream.mix(),
        round_hits
    );
    if ctx.traced {
        let submitted = after.submitted - before.submitted;
        run.layers = vec![
            ("foray-serve.hit_rtt_ms", stats::median(&hit_ms)),
            ("foray-serve.miss_rtt_ms", stats::median(&miss_ms)),
            (
                "foray-serve.hit_ratio",
                (after.cache_hits - before.cache_hits) as f64 / submitted as f64,
            ),
            ("foray-serve.evictions", (after.cache_evictions - before.cache_evictions) as f64),
            ("foray-serve.computed", (after.computed - before.computed) as f64),
            ("foray-serve.deduped", (after.deduped - before.deduped) as f64),
            ("foray-serve.failed", (after.failed - before.failed) as f64),
            ("foray-serve.rejected", (after.rejected - before.rejected) as f64),
            ("foray-serve.payload_bytes", payload_bytes as f64),
        ];
    }
    Ok(run)
}

/// forayd's counters must conserve once the daemon is idle, and agree
/// with the `hit` flags the client saw.
fn conservation(s: &StatsSnapshot, client_hits: u64) -> Vec<String> {
    let mut broken = Vec::new();
    if s.submitted != s.cache_hits + s.cache_misses + s.deduped + s.rejected {
        broken.push(format!("submitted != hits + misses + deduped + rejected: {s:?}"));
    }
    if s.queue_depth != 0 || s.running != 0 {
        broken.push(format!("forayd is not idle after the stream: {s:?}"));
    } else if s.cache_misses != s.computed + s.failed {
        broken.push(format!("cache_misses != computed + failed: {s:?}"));
    }
    if client_hits != s.cache_hits {
        broken.push(format!("client saw {client_hits} hits, forayd counted {}", s.cache_hits));
    }
    broken
}

/// The model behind every `dse` request, for the DSE probe.
fn dse_models(stream: &Stream) -> Result<HashMap<usize, ForayModel>, String> {
    let mut models = HashMap::new();
    for (key, spec) in stream.specs.iter().enumerate() {
        let JobInput::Workload(name) = &spec.input else { continue };
        if spec.kind != JobKind::Dse {
            continue;
        }
        let w = foray_workloads::by_name(name, Params { scale: spec.scale })
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let filter = FilterConfig { n_exec: spec.n_exec, n_loc: spec.n_loc };
        let out = w.run_with(ForayGen::new().filter(filter)).map_err(|e| e.to_string())?;
        models.insert(key, out.model);
    }
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Replays the stream (after priming) through a 128-entry LRU and
    /// checks that every request hits or misses as its class says.
    #[test]
    fn every_request_hits_or_misses_as_designed() {
        for seed in [1, 2] {
            let stream = Stream::new(seed, 12, Path::new("t"));
            let distinct: std::collections::HashSet<String> =
                stream.specs.iter().map(JobSpec::render_submit).collect();
            assert_eq!(distinct.len(), stream.specs.len());
            let capacity = ServeConfig::default().cache_entries;
            let mut lru: VecDeque<usize> = stream.hot().collect();
            let mut evictions = 0;
            for round in &stream.rounds {
                assert_eq!(round.len(), ROUND);
                let mut hits = 0;
                for &(class, key) in round {
                    let hit = match lru.iter().position(|&k| k == key) {
                        Some(i) => {
                            lru.remove(i);
                            true
                        }
                        None => {
                            if lru.len() == capacity {
                                lru.pop_front();
                                evictions += 1;
                            }
                            false
                        }
                    };
                    lru.push_back(key);
                    assert_eq!(hit, stream.classes[class].hit, "{}", stream.classes[class].name);
                    hits += usize::from(hit);
                }
                assert_eq!(hits, 80);
            }
            assert!(evictions > 0);
            assert!(stream.specs.len() > capacity);
        }
    }
}
