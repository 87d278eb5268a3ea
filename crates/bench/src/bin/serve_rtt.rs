//! `serve_rtt` — daemon round-trip-time report: cold compute vs cached.
//!
//! Boots a real `forayd` ([`foray_serve::serve`]) on a Unix socket in a
//! temp directory, then measures full client round trips
//! (connect → submit → wait → payload) two ways:
//!
//! * **cold** — a fresh cache key each round (the filter threshold is
//!   perturbed per iteration, which never changes profile/analyze cost),
//!   so every trip pays compile + profile + analyze;
//! * **cached** — the same key every round after priming, so every trip
//!   is answered from the content-addressed cache.
//!
//! The cached payload is asserted byte-identical to the cold payload
//! before anything is reported — the speedup must never come at the cost
//! of the service's byte-identity contract.
//!
//! ```text
//! cargo run --release -p foray-bench --bin serve_rtt -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] [--json PATH] \
//!     [--check]
//! ```
//!
//! `--json PATH` appends one record in the shape of
//! [`foray_bench::harness`], one row per path (`rtt_ns`); the committed
//! history is `BENCH_history.jsonl`. `--check` exits 3 unless the cached
//! round trip is at least [`MIN_SPEEDUP`] times faster than the cold one —
//! the CI gate on the cache actually caching.

use foray_bench::harness::{ns, Args, Bound, Spec};
use foray_serve::json::{obj, Json};
use foray_serve::{Client, JobInput, JobSpec, Response, ServeAddr, ServeConfig, Server};
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    bench: "serve_rtt",
    workload_flag: "--workload",
    workload: "fftc",
    scale: 1,
    iters: 12,
    quick_iters: 6,
};

/// `--check`: a cached round trip is at least this many times faster than
/// a cold one (well under the measured ~10x, to absorb shared-runner
/// noise).
const MIN_SPEEDUP: f64 = 2.0;

/// One full client round trip: connect, submit, wait, read the payload.
fn round_trip(addr: &ServeAddr, spec: &JobSpec) -> (Duration, bool, String) {
    let start = Instant::now();
    let mut client = Client::connect(addr).expect("daemon reachable");
    let (hit, payload) = client.run(spec).expect("transport").expect("job succeeds");
    (start.elapsed(), hit, payload)
}

fn main() {
    let args = Args::parse(&SPEC);
    // An unknown name fails here, before the daemon boots.
    args.resolve(&args.workload);

    let sock = std::env::temp_dir().join(format!("foray-serve-rtt-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || foray_serve::serve(server, &addr))
    };
    for _ in 0..300 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let base = JobSpec {
        input: JobInput::Workload(args.workload.clone()),
        scale: args.scale,
        ..JobSpec::default()
    };
    println!(
        "serve_rtt: {} at scale {} over {} (best of {} iters)",
        args.workload, args.scale, addr, args.iters
    );

    // Prime the cache with the base spec; this is also the reference
    // payload for the byte-identity assertion.
    let (_, primed_hit, cold_payload) = round_trip(&addr, &base);
    assert!(!primed_hit, "priming trip must be a miss");

    let (mut cold, mut cached) = (Duration::MAX, Duration::MAX);
    for i in 0..args.iters {
        // Fresh key per cold round: perturb the Step 4 filter threshold,
        // which changes the digest but not profile/analyze cost.
        let fresh = JobSpec { n_exec: base.n_exec + 1000 + u64::from(i), ..base.clone() };
        let (t, hit, _) = round_trip(&addr, &fresh);
        assert!(!hit, "cold round {i} unexpectedly hit the cache");
        cold = cold.min(t);

        let (t, hit, payload) = round_trip(&addr, &base);
        assert!(hit, "cached round {i} unexpectedly missed");
        assert_eq!(payload, cold_payload, "cached bytes must equal cold bytes");
        cached = cached.min(t);
    }

    let mut client = Client::connect(&addr).expect("daemon reachable");
    let Response::Stats(stats) = client.stats().expect("stats") else {
        panic!("unexpected stats reply");
    };
    assert_eq!(stats.cache_hits, u64::from(args.iters), "every cached round counted as a hit");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");

    let speedup = cold.as_secs_f64() / cached.as_secs_f64();
    let paths = [("cold", cold), ("cached", cached)];
    let table = foray::report::render_table(
        &["path", "rtt", "speedup"],
        &paths
            .iter()
            .map(|&(path, t)| {
                vec![
                    path.to_owned(),
                    format!("{:.2} ms", t.as_secs_f64() * 1e3),
                    format!("{:.2}x", cold.as_secs_f64() / t.as_secs_f64()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    args.report(
        paths
            .iter()
            .map(|&(path, t)| obj([("path", Json::Str(path.to_owned())), ("rtt_ns", ns(t))]))
            .collect(),
    );
    args.check(&[("cached speedup", speedup, Bound::AtLeast(MIN_SPEEDUP))]);
}
