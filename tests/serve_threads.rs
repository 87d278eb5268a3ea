//! `forayd` reuses its connection handlers and joins them at shutdown.
//! Five daemon start/stop cycles of 20 sequential requests each, with the
//! process's thread count read from `/proc/self/status`: while a daemon
//! runs the count stays flat, and once `serve` returns it falls back to
//! where it started. A handler spawned per connection, or one that never
//! receives its stop message, fails one check or the other.
//!
//! This file holds one test, so its process runs no other test's threads.

use foray_serve::{Client, JobInput, JobSpec, Response, ServeAddr, ServeConfig, Server};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
fn handlers_are_reused_while_serving_and_joined_when_serve_returns() {
    let sock =
        std::env::temp_dir().join(format!("foray-serve-threads-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(sock.clone());
    let spec = JobSpec {
        input: JobInput::Source(
            "int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }".into(),
        ),
        ..JobSpec::default()
    };
    let start = threads();
    for cycle in 0..5 {
        let server = Server::new(ServeConfig::default());
        let daemon = {
            let addr = addr.clone();
            std::thread::spawn(move || foray_serve::serve(server, &addr))
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "cycle {cycle}: the daemon never bound");
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut first = None;
        for i in 0..20 {
            // One connection per request, closed before the count is read.
            let (hit, payload) = Client::connect(&addr).unwrap().run(&spec).unwrap().unwrap();
            assert_eq!(hit, i > 0, "cycle {cycle}, request {i}");
            assert!(payload.contains("for ("), "{payload}");
            let now = threads();
            let first = *first.get_or_insert(now);
            assert!(
                now.abs_diff(first) <= 3,
                "cycle {cycle}, request {i}: {now} threads, {first} after the first request"
            );
        }

        let reply = Client::connect(&addr).unwrap().shutdown().unwrap();
        assert_eq!(reply, Response::ShutdownStarted);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !daemon.is_finished() {
            assert!(Instant::now() < deadline, "cycle {cycle}: serve did not return");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.join().unwrap().unwrap();
        loop {
            let now = threads();
            if now == start {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: {now} threads after serve returned, {start} before the first daemon"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
