//! Service-grade battery for `forayd` (foray-serve): byte-identity of
//! daemon responses against direct `ForayGen` runs over the full corpus,
//! cache semantics verified by counters, concurrency robustness
//! (thundering herd, backpressure, malformed protocol lines, drain
//! shutdown), and property tests pinning the cache-key digest.
//!
//! The load-bearing claim: a cached resubmission returns bytes identical
//! to a direct in-process run **and** to its own cold-path response — the
//! sequential analyzer's determinism, lifted to the service layer.

use foray_serve::{
    resolve, Client, ErrorCode, JobInput, JobKind, JobSpec, Response, ServeAddr, ServeConfig,
    Server, MAX_CONNECTIONS,
};
use foray_workloads::Params;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A manual-drive server: no background workers, jobs run via `step_one`
/// so every test is deterministic.
fn manual() -> Server {
    Server::new(ServeConfig { workers: 0, ..ServeConfig::default() })
}

fn workload_spec(name: &str) -> JobSpec {
    JobSpec { input: JobInput::Workload(name.to_owned()), ..JobSpec::default() }
}

fn source_spec(source: &str) -> JobSpec {
    JobSpec { input: JobInput::Source(source.to_owned()), ..JobSpec::default() }
}

/// Submit + drive + wait on a manual server, returning (hit, payload).
fn run_job(srv: &Server, spec: &JobSpec) -> (bool, String) {
    let s = srv.submit(spec).expect("submit");
    while srv.step_one() {}
    let (hit, payload) = srv.wait(&s.job, Some(Duration::from_secs(120))).expect("wait");
    (hit, payload.to_string())
}

// ---------- tentpole acceptance: corpus byte-identity ----------

/// Every corpus workload: the daemon's cold response equals a direct
/// `ForayGen` run byte for byte, and the cached resubmission equals the
/// cold response — with the hit verified by counters, not vibes.
#[test]
fn corpus_served_bytes_equal_direct_runs() {
    for workload in foray_workloads::all(Params { scale: 1 }) {
        // The direct (no-daemon) reference run: plain sequential pipeline.
        let direct = foray::ForayGen::new()
            .inputs(workload.inputs.clone())
            .run_source(&workload.source)
            .expect("direct run")
            .code;
        let srv = manual();
        let spec = workload_spec(workload.name);
        let (cold_hit, cold) = run_job(&srv, &spec);
        assert!(!cold_hit);
        assert_eq!(cold, direct, "{}: daemon bytes differ from direct run", workload.name);
        let (warm_hit, warm) = run_job(&srv, &spec);
        assert!(warm_hit, "{}: resubmission missed the cache", workload.name);
        assert_eq!(warm, cold, "{}: cached bytes differ from cold", workload.name);
        let st = srv.stats();
        assert_eq!(st.cache_hits, 1, "{}", workload.name);
        assert_eq!(st.computed, 1, "{}: hit must not recompute", workload.name);
    }
}

/// Report and DSE payloads cache identically too, and carry their schema
/// tags.
#[test]
fn report_and_dse_payloads_cache_byte_identically() {
    let srv = manual();
    for (kind, schema) in
        [(JobKind::Report, "foray-serve-report/v1"), (JobKind::Dse, "foray-dse/v1")]
    {
        let spec = JobSpec { kind, ..workload_spec("histoc") };
        let (hit, cold) = run_job(&srv, &spec);
        assert!(!hit);
        assert!(cold.contains(schema), "{kind:?} payload missing `{schema}`: {cold}");
        let (hit, warm) = run_job(&srv, &spec);
        assert!(hit);
        assert_eq!(warm, cold);
    }
    // Different kinds of the same workload are distinct cache entries.
    assert_eq!(srv.stats().computed, 2);
}

/// The engine ablation rides the cache key: tree and VM engines are
/// distinct entries, but their payloads agree byte for byte (the
/// engine-equivalence guarantee observed through the service).
#[test]
fn engines_are_distinct_keys_with_identical_payloads() {
    let srv = manual();
    let vm = workload_spec("adpcmc");
    let tree = JobSpec { engine: foray::Engine::Tree, ..vm.clone() };
    let (_, vm_bytes) = run_job(&srv, &vm);
    let (tree_hit, tree_bytes) = run_job(&srv, &tree);
    assert!(!tree_hit, "engine change must miss the cache");
    assert_eq!(vm_bytes, tree_bytes, "engines must agree on bytes");
    assert_eq!(srv.stats().computed, 2);
}

/// A trace job analyzes the bytes its key was taken from. Submit path P
/// holding trace A, rewrite P with trace B before the job runs: the job
/// must fail and cache nothing, so a byte-identical copy of A submitted
/// from another path computes A's own model instead of hitting B's.
#[test]
fn trace_rewritten_after_submit_fails_and_caches_nothing() {
    use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
    use minic_trace::{AccessKind, Record};
    let strided = |stride: u32| {
        let mut t = vec![Record::checkpoint(0, LoopBegin)];
        for i in 0..32 {
            t.push(Record::checkpoint(0, BodyBegin));
            t.push(Record::access(0x40_000c, 0x1000_0000 + stride * i, AccessKind::Read));
            t.push(Record::checkpoint(0, BodyEnd));
        }
        t
    };
    let encode = |t: &[Record]| {
        let mut bytes = Vec::new();
        minic_trace::file::write_to(&mut bytes, t).unwrap();
        bytes
    };
    let (a, b) = (strided(4), strided(16));
    let dir = std::env::temp_dir().join(format!("foray-serve-rewrite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, copy) = (dir.join("p.ftrace"), dir.join("copy.ftrace"));
    std::fs::write(&path, encode(&a)).unwrap();
    std::fs::write(&copy, encode(&a)).unwrap();
    let trace_spec = |p: &std::path::Path| JobSpec {
        input: JobInput::Trace(p.to_string_lossy().into_owned()),
        ..JobSpec::default()
    };

    let srv = manual();
    let first = srv.submit(&trace_spec(&path)).unwrap();
    assert!(!first.hit);
    std::fs::write(&path, encode(&b)).unwrap();
    while srv.step_one() {}
    let e = srv.wait(&first.job, Some(Duration::from_secs(30))).unwrap_err();
    assert_eq!(e.code, ErrorCode::JobFailed);
    assert!(e.message.contains("changed since submit"), "{}", e.message);
    assert_eq!(srv.stats().computed, 0);

    let filter = foray::FilterConfig { n_exec: 20, n_loc: 10 };
    let direct = foray::codegen::emit(&foray::ForayModel::extract(&foray::analyze(&a), &filter));
    assert!(direct.contains("4*i0"), "{direct}");
    let (hit, payload) = run_job(&srv, &trace_spec(&copy));
    assert!(!hit, "nothing may be cached under A's key");
    assert_eq!(payload, direct);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------- concurrency & robustness ----------

/// N threads hammering the same key: exactly one compute, N identical
/// replies.
#[test]
fn thundering_herd_computes_once() {
    let srv = Arc::new(Server::new(ServeConfig { workers: 2, ..ServeConfig::default() }));
    let spec = workload_spec("histoc");
    let n = 8;
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let srv = Arc::clone(&srv);
            let spec = spec.clone();
            std::thread::spawn(move || {
                let s = srv.submit(&spec).expect("submit");
                let (_, payload) = srv.wait(&s.job, Some(Duration::from_secs(120))).expect("wait");
                payload.to_string()
            })
        })
        .collect();
    let payloads: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "all replies identical");
    let st = srv.stats();
    assert_eq!(st.computed, 1, "one compute for {n} submissions");
    assert_eq!(st.submitted, n);
    assert_eq!(
        st.cache_hits + st.deduped + st.cache_misses,
        n,
        "every submission was a hit, an alias, or the one miss"
    );
}

/// A full queue rejects with a typed, retryable error — and accepted work
/// is never dropped.
#[test]
fn queue_full_rejection_is_typed_and_recoverable() {
    let srv = Server::new(ServeConfig {
        workers: 0,
        queue_capacity: 2,
        retry_after_ms: 33,
        ..ServeConfig::default()
    });
    srv.submit(&source_spec("int a[8]; void main() { a[0] = 1; }")).unwrap();
    srv.submit(&source_spec("int b[8]; void main() { b[0] = 2; }")).unwrap();
    let e = srv.submit(&source_spec("int c[8]; void main() { c[0] = 3; }")).unwrap_err();
    assert_eq!(e.code, ErrorCode::QueueFull);
    assert_eq!(e.retry_after_ms, Some(33), "rejection carries the retry hint");
    // Identical resubmission of *queued* work still dedupes instead of
    // rejecting: backpressure never loses accepted jobs.
    let again = srv.submit(&source_spec("int a[8]; void main() { a[0] = 1; }")).unwrap();
    assert!(!again.hit);
    assert!(srv.step_one(), "queue drains");
    srv.submit(&source_spec("int c[8]; void main() { c[0] = 3; }")).expect("room after draining");
    while srv.step_one() {}
    let st = srv.stats();
    assert_eq!(st.rejected, 1);
    assert_eq!(st.queue_depth, 0);
}

/// Malformed protocol lines get typed errors and the connection stays
/// open — exercised over a real Unix socket.
#[test]
fn malformed_lines_answer_typed_errors_without_killing_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let sock = std::env::temp_dir().join(format!("foray-serve-mal-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || foray_serve::serve(server, &addr))
    };
    wait_for_socket(&sock);

    let stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut write_line = {
        let mut w = stream.try_clone().unwrap();
        move |line: &str| {
            w.write_all(line.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            w.flush().unwrap();
        }
    };
    let mut read_reply = move || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    for (bad, code) in [
        ("this is not json", "bad_json"),
        ("[1,2,3]", "bad_request"),
        ("{\"cmd\":\"teleport\"}", "unknown_command"),
        ("{\"cmd\":\"submit\"}", "bad_request"),
        ("{\"cmd\":\"submit\",\"workload\":\"nope\"}", "bad_request"),
        ("{\"cmd\":\"wait\",\"job\":\"j999\"}", "unknown_job"),
    ] {
        write_line(bad);
        let reply = read_reply();
        assert!(
            reply.contains(&format!("\"error\":\"{code}\"")),
            "{bad:?} should earn `{code}`, got: {reply}"
        );
    }
    // A field that `submit` does not read is refused by name, never
    // ignored: a retired one and a misspelt one.
    for (bad, field) in [
        ("{\"cmd\":\"submit\",\"workload\":\"fftc\",\"sample\":\"every:8\"}", "sample"),
        ("{\"cmd\":\"submit\",\"workload\":\"fftc\",\"nexc\":5}", "nexc"),
    ] {
        write_line(bad);
        let reply = read_reply();
        let named = format!(
            "\"error\":\"bad_request\",\"message\":\"`submit` does not take field `{field}`\""
        );
        assert!(reply.contains(&named), "{bad:?} should earn {named}, got: {reply}");
    }
    // Same connection still works after eight bad lines.
    write_line("{\"cmd\":\"ping\"}");
    assert!(read_reply().contains("\"type\":\"pong\""));

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.shutdown().unwrap(), Response::ShutdownStarted);
    daemon.join().unwrap().unwrap();
}

/// A request line over `MAX_LINE_BYTES` earns `bad_request` and closes
/// its connection, while a line at the cap is read as usual; the daemon
/// still answers a new connection. The read timeout makes a daemon that
/// keeps buffering fail the test instead of hanging it.
#[test]
fn an_overlong_line_is_a_bad_request_that_closes_its_connection() {
    use foray_serve::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    let sock = std::env::temp_dir().join(format!("foray-serve-long-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || foray_serve::serve(server, &addr))
    };
    wait_for_socket(&sock);

    let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    let mut line = vec![b'x'; MAX_LINE_BYTES];
    line.push(b'\n');
    stream.write_all(&line).unwrap();
    reader.read_line(&mut reply).expect("a reply to the line at the cap");
    assert!(reply.contains("\"error\":\"bad_json\""), "{reply}");

    // No newline: the daemon must answer after one byte past the cap.
    stream.write_all(&line[..MAX_LINE_BYTES]).unwrap();
    stream.write_all(b"x").unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("a reply before the read timeout");
    assert!(reply.contains("\"error\":\"bad_request\""), "{reply}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("the daemon closes"), 0, "{reply}");

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.ping().unwrap(), Response::Pong);
    assert_eq!(client.shutdown().unwrap(), Response::ShutdownStarted);
    daemon.join().unwrap().unwrap();
}

/// A `submit` line carrying a source of over 1 MiB parses in linear
/// time and round-trips byte for byte. A parser that re-scans the rest of
/// the line per character takes tens of seconds on such a line.
#[test]
fn a_megabyte_source_line_parses_in_linear_time() {
    let mut source = String::new();
    for i in 0.. {
        if source.len() >= 1 << 20 {
            break;
        }
        source.push_str(&format!(
            "// \"block\" {i}: é → 世\r\nint a{i}[64];\tvoid f{i}() {{ a{i}[{i} % 64] = {i}; }}\n"
        ));
    }
    let spec = JobSpec { inputs: Some(vec![3, -1]), ..source_spec(&source) };
    let line = spec.render_submit();
    let start = std::time::Instant::now();
    let parsed = foray_serve::parse_request(&line).expect("a valid submit line");
    let took = start.elapsed();
    let foray_serve::Request::Submit(back) = parsed else { panic!("not a submit") };
    assert_eq!(*back, spec, "the source survives byte for byte");
    assert_eq!(back.render_submit(), line);
    assert!(took < Duration::from_secs(5), "{} bytes took {took:?}", line.len());
}

/// Shutdown mid-queue: accepted jobs all finish, none are lost, new
/// submissions are fenced out with a typed error.
#[test]
fn shutdown_mid_queue_drains_every_accepted_job() {
    let mut srv = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
    let jobs: Vec<String> = (0..6)
        .map(|i| {
            let src = format!(
                "int a{i}[64]; void main() {{ int i; for (i = 0; i < 64; i++) {{ a{i}[i] = i; }} }}"
            );
            srv.submit(&source_spec(&src)).expect("submit").job
        })
        .collect();
    srv.begin_shutdown();
    let e = srv.submit(&workload_spec("fftc")).unwrap_err();
    assert_eq!(e.code, ErrorCode::ShuttingDown);
    srv.shutdown();
    for job in &jobs {
        assert_eq!(srv.poll(job).unwrap(), "done", "{job} lost in the drain");
    }
    let st = srv.stats();
    assert_eq!(st.computed, 6);
    assert_eq!((st.queue_depth, st.running), (0, 0));
}

/// Full client/daemon round trip over a socket with cache-hit counters
/// checked end to end (the CI serve-smoke job in miniature).
#[test]
fn socket_round_trip_with_counter_verified_cache_hit() {
    let sock = std::env::temp_dir().join(format!("foray-serve-rt-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || foray_serve::serve(server, &addr))
    };
    wait_for_socket(&sock);

    let mut client = Client::connect(&addr).unwrap();
    let spec = workload_spec("fftc");
    let (cold_hit, cold) = client.run(&spec).unwrap().unwrap();
    assert!(!cold_hit);
    let (warm_hit, warm) = client.run(&spec).unwrap().unwrap();
    assert!(warm_hit);
    assert_eq!(warm, cold, "cached bytes over the wire equal cold bytes");
    let Response::Stats(st) = client.stats().unwrap() else { panic!("stats reply") };
    assert_eq!(st.cache_hits, 1);
    assert_eq!(st.computed, 1);
    assert_eq!(client.shutdown().unwrap(), Response::ShutdownStarted);
    daemon.join().unwrap().unwrap();
    assert!(!sock.exists(), "socket file removed on exit");
}

/// The connection cap over a real socket. With every handler held by a
/// connection that has answered a `ping`, the next connection reads one
/// `queue_full` line, unasked, and is closed. The refusal is counted
/// outside the submit algebra. Once one held connection closes, its
/// handler serves a new one; the retry loop waits for the handler to
/// notice the close.
#[test]
fn connections_past_the_cap_read_queue_full_until_one_closes() {
    use std::io::{BufRead, BufReader};
    let sock = std::env::temp_dir().join(format!("foray-serve-cap-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let server =
        Server::new(ServeConfig { workers: 0, retry_after_ms: 41, ..ServeConfig::default() });
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || foray_serve::serve(server, &addr))
    };
    wait_for_socket(&sock);

    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|i| {
            let mut client = Client::connect(&addr).unwrap();
            assert_eq!(client.ping().unwrap(), Response::Pong, "connection {i}");
            client
        })
        .collect();
    let refused = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut refused = BufReader::new(refused);
    let mut reply = String::new();
    refused.read_line(&mut reply).expect("a refusal before the read timeout");
    let Ok(Response::Error(e)) = Response::parse(reply.trim_end()) else { panic!("{reply}") };
    assert_eq!(e.code, ErrorCode::QueueFull, "{reply}");
    assert_eq!(e.retry_after_ms, Some(41), "{reply}");
    assert!(e.message.contains("too many connections"), "{reply}");
    reply.clear();
    assert_eq!(refused.read_line(&mut reply).expect("the daemon closes"), 0, "{reply}");

    let Response::Stats(st) = held[0].stats().unwrap() else { panic!("stats reply") };
    assert_eq!(st.connections_refused, 1);
    assert_eq!(st.submitted, 0, "a refused connection is not a submission");

    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Client::connect(&addr).and_then(|mut c| c.ping()) {
            Ok(Response::Pong) => break,
            Ok(Response::Error(e)) if e.code == ErrorCode::QueueFull => {}
            other => panic!("a ping past the cap earned {other:?}"),
        }
        assert!(Instant::now() < deadline, "no handler came free after a connection closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(held[1].ping().unwrap(), Response::Pong, "held connections stay served");
    assert_eq!(held[0].shutdown().unwrap(), Response::ShutdownStarted);
    daemon.join().unwrap().unwrap();
}

/// A seeded request soak over the in-process scheduler in step mode
/// (`workers: 0`), with `step_one` interleaved. The mix covers cache hits,
/// misses (twelve sources through a four-entry cache), dedupes,
/// `queue_full` from a three-job queue and a source that fails at runtime. The counters conserve after every step, every
/// accepted job ends done or failed, and once the queue drains nothing
/// runs and every miss was computed or failed.
#[test]
fn a_seeded_request_soak_conserves_the_counters() {
    let srv = Server::new(ServeConfig {
        workers: 0,
        queue_capacity: 3,
        cache_entries: 4,
        ..ServeConfig::default()
    });
    let mut specs: Vec<JobSpec> = (1..=12)
        .map(|k| {
            source_spec(&format!(
                "int a[32]; void main() {{ int i; for (i = 0; i < 32; i++) {{ a[i] = {k} * i; }} }}"
            ))
        })
        .collect();
    specs.push(source_spec("int z; void main() { int d; d = 0; z = 7 / d; }"));
    let mut seed = 0x5eed_2901_u64;
    let mut next = move || {
        // xorshift64: a fixed, dependency-free sequence.
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut accepted = std::collections::BTreeSet::new();
    for step in 0..600 {
        let r = next();
        if r % 4 == 0 {
            srv.step_one();
        } else {
            match srv.submit(&specs[(r >> 8) as usize % specs.len()]) {
                Ok(s) => {
                    accepted.insert(s.job);
                }
                Err(e) => assert_eq!(e.code, ErrorCode::QueueFull, "step {step}: {e}"),
            }
        }
        let st = srv.stats();
        assert_eq!(
            st.cache_hits + st.deduped + st.cache_misses + st.rejected,
            st.submitted,
            "step {step}: {st:?}"
        );
        assert_eq!(
            st.computed + st.failed + st.queue_depth + st.running,
            st.cache_misses,
            "step {step}: {st:?}"
        );
    }
    while srv.step_one() {}
    for job in &accepted {
        let state = srv.poll(job).unwrap();
        assert!(state == "done" || state == "failed", "{job} ended {state}");
    }
    let st = srv.stats();
    assert_eq!((st.queue_depth, st.running), (0, 0), "{st:?}");
    assert_eq!(st.computed + st.failed, st.cache_misses, "{st:?}");
    for (name, count) in [
        ("hits", st.cache_hits),
        ("dedupes", st.deduped),
        ("queue_full rejections", st.rejected),
        ("runtime failures", st.failed),
    ] {
        assert!(count > 0, "the soak produced no {name}: {st:?}");
    }
}

fn wait_for_socket(path: &std::path::Path) {
    for _ in 0..300 {
        if path.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", path.display());
}

// ---------- cache-key digest properties ----------

mod digest_props {
    use super::*;
    use proptest::prelude::*;

    const BODIES: &[&str] = &[
        "int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }",
        "int b[32]; void main() { int i; for (i = 0; i < 32; i++) { b[i] = 2 * i; } }",
        "int c[16]; void main() { int i; for (i = 0; i < 16; i++) { c[i] = i + 1; } }",
    ];

    /// The corpus workloads a drawn spec may name.
    const WORKLOADS: &[&str] = &["jpegc", "lamec", "susanc", "fftc", "gsmc", "adpcmc", "histoc"];

    /// An inline source or a workload, with or without an inputs override.
    fn arb_input() -> impl Strategy<Value = (JobInput, Option<Vec<i64>>)> {
        (
            prop_oneof![
                (0usize..BODIES.len()).prop_map(|b| JobInput::Source(BODIES[b].to_owned())),
                (0usize..WORKLOADS.len()).prop_map(|w| JobInput::Workload(WORKLOADS[w].to_owned())),
            ],
            prop_oneof![Just(None), proptest::collection::vec(-9i64..10, 0..4).prop_map(Some)],
        )
    }

    fn arb_spec() -> impl Strategy<Value = JobSpec> {
        (
            (
                arb_input(),
                prop_oneof![Just(JobKind::Model), Just(JobKind::Report), Just(JobKind::Dse)],
                1u32..4,
                any::<bool>(),
            ),
            (1u64..40, 1u64..20, 0u8..10),
        )
            .prop_map(
                |(((input, inputs), kind, scale, tree), (n_exec, n_loc, priority))| JobSpec {
                    kind,
                    input,
                    scale,
                    engine: if tree { foray::Engine::Tree } else { foray::Engine::Vm },
                    n_exec,
                    n_loc,
                    inputs,
                    priority,
                },
            )
    }

    fn key_of(spec: &JobSpec) -> String {
        resolve(spec).expect("resolvable").key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Must-hit: resubmission, priority changes, and wire field
        /// reordering never move the key.
        #[test]
        fn digest_is_stable_over_must_hit_perturbations(
            spec in arb_spec(),
            new_priority in 0u8..=9,
            seed in any::<u64>(),
        ) {
            let k = key_of(&spec);
            // Resubmission is stable.
            prop_assert_eq!(key_of(&spec), k.clone());
            // Priority is scheduling, not content.
            let mut p = spec.clone();
            p.priority = new_priority;
            prop_assert_eq!(key_of(&p), k.clone());
            // JSON field order on the wire is irrelevant: shuffle the
            // rendered submit line's top-level fields and re-parse.
            let line = spec.render_submit();
            let shuffled = shuffle_fields(&line, seed);
            let foray_serve::Request::Submit(back) = foray_serve::parse_request(&shuffled).unwrap()
            else { panic!("not a submit: {shuffled}") };
            prop_assert_eq!(key_of(&back), k);
        }

        /// Must-miss: every output-relevant field change moves the key.
        #[test]
        fn digest_moves_on_must_miss_perturbations(spec in arb_spec()) {
            let k = key_of(&spec);
            let mut engine = spec.clone();
            engine.engine = match spec.engine {
                foray::Engine::Vm => foray::Engine::Tree,
                foray::Engine::Tree => foray::Engine::Vm,
            };
            prop_assert_ne!(key_of(&engine), k.clone());

            let mut filt = spec.clone();
            filt.n_exec += 1;
            prop_assert_ne!(key_of(&filt), k.clone());

            // Drawn overrides lie in -9..10, so this one differs from
            // the spec's own inputs, drawn or canonical.
            let mut ins = spec.clone();
            ins.inputs = Some(vec![i64::MIN]);
            prop_assert_ne!(key_of(&ins), k.clone());

            match &spec.input {
                // A one-character source edit moves the key.
                JobInput::Source(src) => {
                    let mut edit = spec.clone();
                    edit.input = JobInput::Source(src.replacen('i', "j", 1));
                    prop_assert_ne!(key_of(&edit), k);
                }
                // Another scale or another workload is another program;
                // a scale above `MAX_SCALE` or an unregistered name is
                // still a bad request once the memo holds this workload.
                JobInput::Workload(name) => {
                    let mut scaled = spec.clone();
                    scaled.scale += 1;
                    prop_assert_ne!(key_of(&scaled), k.clone());
                    let i = WORKLOADS.iter().position(|w| w == name).unwrap();
                    let mut other = spec.clone();
                    other.input = JobInput::Workload(WORKLOADS[(i + 1) % WORKLOADS.len()].into());
                    prop_assert_ne!(key_of(&other), k);
                    scaled.scale = foray_workloads::MAX_SCALE + 1;
                    prop_assert_eq!(resolve(&scaled).unwrap_err().code, ErrorCode::BadRequest);
                    other.input = JobInput::Workload(format!("{name}2"));
                    prop_assert_eq!(resolve(&other).unwrap_err().code, ErrorCode::BadRequest);
                }
                JobInput::Trace(_) => unreachable!("arb_spec draws no traces"),
            }
        }

        /// Scale is absorbed into the resolved source: for workloads it
        /// must miss (different generated program), and two workloads
        /// never collide with each other.
        #[test]
        fn workload_scale_and_identity_separate_keys(scale in 2u32..5) {
            let base = workload_spec("fftc");
            let mut scaled = base.clone();
            scaled.scale = scale;
            prop_assert_ne!(key_of(&scaled), key_of(&base));
            let other = workload_spec("gsmc");
            prop_assert_ne!(key_of(&other), key_of(&base));
        }
    }

    /// Deterministically shuffles the top-level fields of a one-line JSON
    /// object (splitmix64-seeded Fisher-Yates over re-rendered fields).
    fn shuffle_fields(line: &str, seed: u64) -> String {
        let json = foray_serve::json::Json::parse(line).expect("valid line");
        let foray_serve::json::Json::Obj(mut fields) = json else { panic!("not an object") };
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..fields.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            fields.swap(i, j);
        }
        foray_serve::json::Json::Obj(fields).render()
    }

    /// Golden vector: pins the digest of a fixed spec. A change here is a
    /// cache-format break — bump `KEY_SCHEMA` and update deliberately.
    #[test]
    fn golden_digest_vector() {
        let spec = source_spec("void main() { }");
        let r = resolve(&spec).unwrap();
        assert_eq!(r.key, "9877c3d77aff7713");
        assert_eq!(foray_serve::KEY_SCHEMA, "foray-serve-key/v1");
    }
}
