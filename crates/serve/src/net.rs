//! Wire transports for the daemon: Unix-domain and TCP listeners, plus a
//! line-oriented client.
//!
//! Transports only frame lines and move bytes — every protocol decision
//! (parsing, typed errors, shutdown) lives in
//! [`Server::handle_line`](crate::Server::handle_line). Connections are
//! served by a pool of handler threads, at most [`MAX_CONNECTIONS`] of
//! them, each spawned on demand and kept: a handler serves one connection
//! at a time, so a blocking `wait` never stalls other clients, and then
//! goes idle. The accept loop hands a new connection to the handler that
//! went idle last. With every handler busy and the cap reached, the new
//! connection reads one `queue_full` line and is closed. A malformed line
//! earns an error response and the connection stays open; only EOF, a
//! transport error or a line longer than [`MAX_LINE_BYTES`] closes it.

use crate::protocol::{ErrorCode, ProtoError, Response};
use crate::Server;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SendError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The longest request line the daemon reads, in bytes, line ending
/// excluded: 8 MiB. A workload's source pasted into a `source` submit
/// still fits at `foray_workloads::MAX_SCALE` (fftc at scale 8 renders a
/// 4.9 MB line). A longer line earns `bad_request` and closes the
/// connection, after the daemon has read one byte past the cap.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// The most connections the daemon serves at once, and so the most
/// connection handlers (threads) it keeps. Past it, a new connection reads
/// one `queue_full` line, "too many connections", and is closed.
pub const MAX_CONNECTIONS: usize = 64;

/// The pause after a failed `accept` (say, out of descriptors). It doubles
/// with each further failure, up to [`ACCEPT_BACKOFF_MAX`], and starts
/// again here after the next accepted connection.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);

/// The longest pause between two failed `accept`s.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Where the daemon listens (and the client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port`.
    Tcp(String),
}

impl fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        Ok(match self {
            AnyListener::Unix(l) => Box::new(l.accept()?.0),
            AnyListener::Tcp(l) => Box::new(l.accept()?.0),
        })
    }
}

/// Runs the accept loop until a client sends `shutdown`, then drains the
/// queue gracefully and returns. Blocks the calling thread for the
/// daemon's whole life.
///
/// A failed `accept` does not end the loop: it pauses and tries again,
/// 5 ms at first and doubling up to 1 s, so a daemon out of descriptors
/// serves again once connections close.
///
/// # Errors
///
/// Bind failures. Per-connection IO errors only end that connection.
pub fn serve(server: Server, addr: &ServeAddr) -> io::Result<()> {
    let listener = match addr {
        ServeAddr::Unix(path) => {
            // A previous daemon's socket file would make bind fail.
            let _ = std::fs::remove_file(path);
            AnyListener::Unix(UnixListener::bind(path)?)
        }
        ServeAddr::Tcp(hostport) => AnyListener::Tcp(TcpListener::bind(hostport.as_str())?),
    };
    // For the self-connect poke (and client reconnects), resolve the
    // bound address — TCP may have been asked for port 0.
    let bound = match (&listener, addr) {
        (AnyListener::Tcp(l), _) => ServeAddr::Tcp(l.local_addr()?.to_string()),
        (_, a) => a.clone(),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let server = Arc::new(server);
    let mut pool = Pool::new({
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        move |conn| {
            if drive_connection(&server, conn) {
                stop.store(true, Ordering::SeqCst);
                poke(&bound);
            }
        }
    });
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !stop.load(Ordering::SeqCst) {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        backoff = ACCEPT_BACKOFF_MIN;
        if stop.load(Ordering::SeqCst) {
            break; // the poke connection itself
        }
        if let Err(conn) = pool.dispatch(conn) {
            refuse(&server, conn);
        }
    }
    pool.shutdown();
    // `handle_line` already flipped the drain flag when it acknowledged
    // the shutdown command; wait for every accepted job to finish.
    server.begin_shutdown();
    server.drain_wait();
    if let ServeAddr::Unix(path) = addr {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// What a handler does with each connection it is handed.
type ServeConn = dyn Fn(Box<dyn Conn>) + Send + Sync;

/// The connection handlers. A handler is spawned when a connection finds
/// none idle and fewer than [`MAX_CONNECTIONS`] exist, and then kept: it
/// serves one connection after another, each handed to it on its own
/// one-slot mailbox. Only the pool holds a mailbox's sender, so dropping
/// it is the handler's stop message.
struct Pool {
    serve: Arc<ServeConn>,
    /// The slots of idle handlers, the one that went idle last on top.
    idle: Arc<Mutex<Vec<usize>>>,
    /// Each spawned handler's mailbox and thread, by slot.
    handlers: Vec<Handler>,
}

struct Handler {
    mailbox: SyncSender<Box<dyn Conn>>,
    thread: JoinHandle<()>,
}

impl Pool {
    fn new(serve: impl Fn(Box<dyn Conn>) + Send + Sync + 'static) -> Pool {
        Pool { serve: Arc::new(serve), idle: Arc::default(), handlers: Vec::new() }
    }

    /// Hands `conn` to the handler that went idle last, or to a new one
    /// while the cap allows. Gives `conn` back when every handler is busy
    /// at the cap, or when no thread can be spawned.
    fn dispatch(&mut self, conn: Box<dyn Conn>) -> Result<(), Box<dyn Conn>> {
        let idle = lock(&self.idle).pop();
        let (slot, conn) = match idle {
            Some(slot) => match self.handlers[slot].mailbox.send(conn) {
                Ok(()) => return Ok(()),
                // The handler unwound, and its guard gave the slot back.
                Err(SendError(conn)) => (slot, conn),
            },
            None if self.handlers.len() < MAX_CONNECTIONS => (self.handlers.len(), conn),
            None => return Err(conn),
        };
        let (mailbox, inbox) = mpsc::sync_channel(1);
        let (serve, idle) = (Arc::clone(&self.serve), Arc::clone(&self.idle));
        let spawned = thread::Builder::new().spawn(move || handle(slot, inbox, &*serve, &idle));
        let Ok(thread) = spawned else {
            if slot < self.handlers.len() {
                lock(&self.idle).push(slot); // still free: the next connection tries again
            }
            return Err(conn);
        };
        // The mailbox is empty and its handler alive, so this cannot fail.
        let _ = mailbox.send(conn);
        let handler = Handler { mailbox, thread };
        if slot < self.handlers.len() {
            self.handlers[slot] = handler;
        } else {
            self.handlers.push(handler);
        }
        Ok(())
    }

    /// Stops and joins every idle handler. A busy handler finishes its
    /// connection first; its mailbox closes here, so it then exits, and an
    /// idle client cannot hold the daemon open.
    fn shutdown(self) {
        let idle = std::mem::take(&mut *lock(&self.idle));
        let mut handlers: Vec<Option<Handler>> = self.handlers.into_iter().map(Some).collect();
        let stopping: Vec<JoinHandle<()>> =
            idle.into_iter().filter_map(|slot| handlers[slot].take()).map(|h| h.thread).collect();
        for thread in stopping {
            let _ = thread.join();
        }
    }
}

/// A handler's life: serve each connection its mailbox brings and go idle
/// in between, until the pool drops the mailbox's sender.
fn handle(
    slot: usize,
    inbox: Receiver<Box<dyn Conn>>,
    serve: &ServeConn,
    idle: &Mutex<Vec<usize>>,
) {
    let _guard = SlotGuard { slot, idle };
    // Declared after the guard, so dropped before it: a slot the guard
    // gives back already has a closed mailbox.
    let inbox = inbox;
    while let Ok(conn) = inbox.recv() {
        serve(conn);
        lock(idle).push(slot);
    }
}

/// Gives a handler's slot back if the handler unwinds, so a panic cannot
/// shrink the pool: the accept loop finds the slot idle and its mailbox
/// closed, and spawns a new handler in it.
struct SlotGuard<'a> {
    slot: usize,
    idle: &'a Mutex<Vec<usize>>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            lock(self.idle).push(self.slot);
        }
    }
}

/// Locks the idle stack. Each update of it is one push, pop or take, so
/// a thread that panicked elsewhere left it whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tells a connection that found every handler busy to come back later,
/// and closes it.
fn refuse(server: &Server, mut conn: Box<dyn Conn>) {
    let mut line = Response::Error(server.refuse_connection()).render();
    line.push('\n');
    let _ = conn.write_all(line.as_bytes());
}

/// A connected stream, split into a reader and a writer on two
/// descriptors: the writer is the stream itself.
trait Conn: Write + Send {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read>, Box<dyn Write>)>;
}

impl Conn for UnixStream {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read>, Box<dyn Write>)> {
        Ok((Box::new(self.try_clone()?), self))
    }
}

impl Conn for TcpStream {
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Read>, Box<dyn Write>)> {
        Ok((Box::new(self.try_clone()?), self))
    }
}

/// One request line, framed.
enum Line<'a> {
    /// The line's text, line ending stripped.
    Text(&'a str),
    /// Longer than [`MAX_LINE_BYTES`].
    TooLong,
    /// EOF, a transport error or bytes that are not UTF-8.
    End,
}

/// Reads the next request line through `buf`, never more than one byte
/// past [`MAX_LINE_BYTES`] of it.
fn next_line<'a>(reader: &mut impl BufRead, buf: &'a mut Vec<u8>) -> Line<'a> {
    buf.clear();
    match reader.take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return Line::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return Line::TooLong;
    }
    std::str::from_utf8(buf).map_or(Line::End, Line::Text)
}

/// Serves one connection; returns `true` when the client asked for
/// shutdown.
fn drive_connection(server: &Server, conn: Box<dyn Conn>) -> bool {
    let Ok((read, mut write)) = conn.split() else { return false };
    let mut reader = BufReader::new(read);
    let mut buf = Vec::new();
    loop {
        let (response, shutdown, close) = match next_line(&mut reader, &mut buf) {
            Line::Text(line) if line.trim().is_empty() => continue,
            Line::Text(line) => {
                let (response, shutdown) = server.handle_line(line);
                (response, shutdown, false)
            }
            Line::TooLong => {
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                (Response::Error(ProtoError::new(ErrorCode::BadRequest, message)), false, true)
            }
            Line::End => return false,
        };
        let mut payload = response.render();
        payload.push('\n');
        if write.write_all(payload.as_bytes()).and_then(|()| write.flush()).is_err() || close {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

/// Wakes a blocked `accept` so the loop can observe the stop flag.
fn poke(addr: &ServeAddr) {
    match addr {
        ServeAddr::Unix(p) => drop(UnixStream::connect(p)),
        ServeAddr::Tcp(a) => drop(TcpStream::connect(a.as_str())),
    }
}

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &ServeAddr) -> io::Result<Client> {
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match addr {
            ServeAddr::Unix(p) => {
                let s = UnixStream::connect(p)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            ServeAddr::Tcp(a) => {
                let s = TcpStream::connect(a.as_str())?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
        };
        Ok(Client { reader: BufReader::new(reader), writer })
    }

    /// Sends one raw request line and reads one reply.
    ///
    /// # Errors
    ///
    /// Transport failures; an unparseable reply maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        let sent = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        // A daemon that refuses a connection writes why before it closes
        // it, so a request that finds the connection closed reads on.
        if let Err(e) = sent {
            if !matches!(e.kind(), io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset) {
                return Err(e);
            }
        }
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the stream"));
        }
        Response::parse(reply.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Transport failures (protocol failures come back as
    /// [`Response::Error`]).
    pub fn submit(&mut self, spec: &crate::JobSpec) -> io::Result<Response> {
        self.request(&spec.render_submit())
    }

    /// Waits for a job, optionally bounded.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn wait(&mut self, job: &str, timeout_ms: Option<u64>) -> io::Result<Response> {
        let mut fields = vec![
            ("cmd", crate::json::Json::Str("wait".into())),
            ("job", crate::json::Json::Str(job.to_owned())),
        ];
        if let Some(t) = timeout_ms {
            fields.push(("timeout_ms", crate::json::Json::Int(t as i64)));
        }
        self.request(&crate::json::obj(fields).render())
    }

    /// Polls a job's state.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn poll(&mut self, job: &str) -> io::Result<Response> {
        self.request(
            &crate::json::obj([
                ("cmd", crate::json::Json::Str("poll".into())),
                ("job", crate::json::Json::Str(job.to_owned())),
            ])
            .render(),
        )
    }

    /// Fetches the counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request("{\"cmd\":\"stats\"}")
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.request("{\"cmd\":\"ping\"}")
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request("{\"cmd\":\"shutdown\"}")
    }

    /// Submit-and-wait convenience: returns the payload string of a
    /// finished job, surfacing protocol failures as [`ProtoError`].
    ///
    /// # Errors
    ///
    /// Transport failures (outer) or typed protocol failures (inner).
    pub fn run(&mut self, spec: &crate::JobSpec) -> io::Result<Result<(bool, String), ProtoError>> {
        let job = match self.submit(spec)? {
            Response::Submitted { job, .. } => job,
            Response::Error(e) => return Ok(Err(e)),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected submit reply: {other:?}"),
                ))
            }
        };
        match self.wait(&job, None)? {
            Response::Result { hit, result, .. } => Ok(Ok((hit, result))),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected wait reply: {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A pool whose handlers panic on a connection that sends `!`, and
    /// otherwise hold their connection until its client hangs up.
    fn holding_pool() -> Pool {
        Pool::new(|conn: Box<dyn Conn>| {
            let Ok((mut read, _write)) = conn.split() else { return };
            let mut byte = [0];
            if read.read(&mut byte).unwrap_or(0) == 1 && byte[0] == b'!' {
                panic!("injected handler fault");
            }
            let _ = read.read_to_end(&mut Vec::new());
        })
    }

    /// A connected pair: the client's end and the daemon's.
    fn connection() -> (UnixStream, Box<dyn Conn>) {
        let (client, daemon) = UnixStream::pair().unwrap();
        (client, Box::new(daemon))
    }

    fn wait_until_idle(pool: &Pool, slots: &[usize]) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while *lock(&pool.idle) != slots {
            assert!(Instant::now() < deadline, "idle {:?}, want {slots:?}", lock(&pool.idle));
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// An idle handler takes the next connection, the one that went idle
    /// last first, and no thread is spawned while one is idle.
    #[test]
    fn the_handler_that_went_idle_last_serves_the_next_connection() {
        let mut pool = holding_pool();
        let (a, conn) = connection();
        assert!(pool.dispatch(conn).is_ok());
        let (b, conn) = connection();
        assert!(pool.dispatch(conn).is_ok());
        drop(a);
        wait_until_idle(&pool, &[0]);
        drop(b);
        wait_until_idle(&pool, &[0, 1]);
        let (c, conn) = connection();
        assert!(pool.dispatch(conn).is_ok());
        assert_eq!(*lock(&pool.idle), [0], "slot 1 went idle last");
        assert_eq!(pool.handlers.len(), 2, "no handler spawned while one was idle");
        drop(c);
        wait_until_idle(&pool, &[0, 1]);
        pool.shutdown();
    }

    /// A handler that unwinds gives its slot back: the pool still serves
    /// `MAX_CONNECTIONS` connections at once, and refuses one more.
    #[test]
    fn a_handler_that_panics_gives_its_slot_back() {
        let mut pool = holding_pool();
        let (mut doomed, conn) = connection();
        assert!(pool.dispatch(conn).is_ok());
        doomed.write_all(b"!").unwrap();
        wait_until_idle(&pool, &[0]);
        let held: Vec<UnixStream> = (0..MAX_CONNECTIONS)
            .map(|i| {
                let (client, conn) = connection();
                assert!(pool.dispatch(conn).is_ok(), "connection {i} refused under the cap");
                client
            })
            .collect();
        let (_extra, conn) = connection();
        assert!(pool.dispatch(conn).is_err(), "a connection past the cap is given back");
        assert_eq!(pool.handlers.len(), MAX_CONNECTIONS);
        drop(held);
        pool.shutdown();
    }
}
