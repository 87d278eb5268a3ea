//! # foray-serve — `forayd`, the long-running FORAY-GEN analysis service
//!
//! Re-running `foray-gen` per invocation pays compile + profile + analyze
//! every time, even for a workload analyzed seconds ago. `forayd` keeps
//! the pipeline warm behind a socket: clients submit jobs over a
//! line-delimited JSON protocol and identical work is answered from a
//! **content-addressed cache** — sound because each job runs one
//! byte-deterministic sequential analysis, whichever worker picks it up,
//! so a result is fully determined by program content + output-relevant
//! configuration.
//!
//! The pieces:
//!
//! * [`json`] — a minimal, dependency-free JSON parser/writer
//!   (integer-only, insertion-ordered, deterministic rendering);
//! * [`protocol`] — request/response types with **typed** error codes
//!   (`bad_json`, `queue_full`, `shutting_down`, ...): a malformed line
//!   earns an error reply, never a dropped connection (a line over
//!   [`MAX_LINE_BYTES`] also closes it);
//! * [`key`] — the cache-key digest: what a result *depends on*, and
//!   nothing else (worker counts and priorities are deliberately
//!   excluded);
//! * [`cache`] — bounded in-memory LRU with optional on-disk spill;
//! * [`server`] — the scheduler: bounded priority queue with
//!   reject-with-retry-after backpressure, in-flight deduplication
//!   (N identical submissions, one compute), graceful drain shutdown;
//! * [`net`] — Unix/TCP listeners served by a pool of at most
//!   [`MAX_CONNECTIONS`] reused connection handlers, and a blocking
//!   [`Client`].
//!
//! # Examples
//!
//! In-process, no sockets:
//!
//! ```
//! use foray_serve::{JobInput, JobSpec, ServeConfig, Server};
//!
//! let srv = Server::new(ServeConfig { workers: 0, ..ServeConfig::default() });
//! let spec = JobSpec {
//!     input: JobInput::Source(
//!         "int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }".into(),
//!     ),
//!     ..JobSpec::default()
//! };
//! let cold = srv.submit(&spec).unwrap();
//! assert!(!cold.hit);
//! srv.step_one(); // workers: 0 — drive the queue by hand
//! let (_, bytes) = srv.wait(&cold.job, None).unwrap();
//! let warm = srv.submit(&spec).unwrap();
//! assert!(warm.hit, "same content, same key: served from cache");
//! let (_, cached) = srv.wait(&warm.job, None).unwrap();
//! assert_eq!(bytes, cached);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod key;
pub mod net;
pub mod protocol;
pub mod server;

pub use cache::{CacheCounters, ResultCache};
pub use key::{resolve, ResolvedJob, KEY_SCHEMA};
pub use net::{serve, Client, ServeAddr, MAX_CONNECTIONS, MAX_LINE_BYTES};
pub use protocol::{
    parse_request, ErrorCode, JobInput, JobKind, JobSpec, ProtoError, Request, Response,
    StatsSnapshot, MAX_PRIORITY,
};
pub use server::{ServeConfig, Server, Submitted};
