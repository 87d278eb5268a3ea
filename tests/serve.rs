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
    Server,
};
use foray_workloads::Params;
use std::sync::Arc;
use std::time::Duration;

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
    // Same connection still works after six bad lines.
    write_line("{\"cmd\":\"ping\"}");
    assert!(read_reply().contains("\"type\":\"pong\""));

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.shutdown().unwrap(), Response::ShutdownStarted);
    daemon.join().unwrap().unwrap();
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

    fn arb_spec() -> impl Strategy<Value = JobSpec> {
        (
            (
                0usize..BODIES.len(),
                prop_oneof![Just(JobKind::Model), Just(JobKind::Report), Just(JobKind::Dse)],
                1u32..4,
                any::<bool>(),
            ),
            (
                prop_oneof![
                    Just(foray::SampleSpec::Full),
                    (2u64..10).prop_map(|n| foray::SampleSpec::EveryNth { n }),
                    (1u64..50).prop_map(|skip| foray::SampleSpec::Warmup { skip }),
                ],
                1u64..40,
                1u64..20,
                0u8..10,
            ),
        )
            .prop_map(|((body, kind, scale, tree), (sample, n_exec, n_loc, priority))| {
                JobSpec {
                    kind,
                    input: JobInput::Source(BODIES[body].to_owned()),
                    scale,
                    engine: if tree { foray::Engine::Tree } else { foray::Engine::Vm },
                    n_exec,
                    n_loc,
                    sample,
                    inputs: None,
                    priority,
                }
            })
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

            let mut sample = spec.clone();
            sample.sample = match spec.sample {
                foray::SampleSpec::EveryNth { n } => foray::SampleSpec::EveryNth { n: n + 1 },
                _ => foray::SampleSpec::EveryNth { n: 2 },
            };
            prop_assert_ne!(key_of(&sample), k.clone());

            let mut filt = spec.clone();
            filt.n_exec += 1;
            prop_assert_ne!(key_of(&filt), k.clone());

            let mut ins = spec.clone();
            ins.inputs = Some(vec![1]);
            prop_assert_ne!(key_of(&ins), k.clone());

            // A one-character source edit moves the key.
            let JobInput::Source(src) = &spec.input else { panic!() };
            let mut edit = spec.clone();
            edit.input = JobInput::Source(src.replacen('i', "j", 1));
            prop_assert_ne!(key_of(&edit), k);
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
