//! Wire transports for the daemon: Unix-domain and TCP listeners, plus a
//! line-oriented client.
//!
//! Transports only frame lines and move bytes — every protocol decision
//! (parsing, typed errors, shutdown) lives in
//! [`Server::handle_line`](crate::Server::handle_line). One thread per
//! connection; a blocking `wait` therefore never stalls other clients.
//! A malformed line earns an error response and the connection stays
//! open; only EOF, a transport error or a line longer than
//! [`MAX_LINE_BYTES`] closes it.

use crate::protocol::{ErrorCode, ProtoError, Response};
use crate::Server;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// The longest request line the daemon reads, in bytes, line ending
/// excluded: 8 MiB. A workload's source pasted into a `source` submit
/// still fits at `foray_workloads::MAX_SCALE` (fftc at scale 8 renders a
/// 4.9 MB line). A longer line earns `bad_request` and closes the
/// connection, after the daemon has read one byte past the cap.
pub const MAX_LINE_BYTES: usize = 8 << 20;

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

/// Runs the accept loop until a client sends `shutdown`, then drains the
/// queue gracefully and returns. Blocks the calling thread for the
/// daemon's whole life.
///
/// # Errors
///
/// Bind/accept failures. Per-connection IO errors only end that
/// connection.
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
    while !stop.load(Ordering::SeqCst) {
        let stream: Box<dyn Conn> = match &listener {
            AnyListener::Unix(l) => Box::new(l.accept()?.0),
            AnyListener::Tcp(l) => Box::new(l.accept()?.0),
        };
        if stop.load(Ordering::SeqCst) {
            break; // the poke connection itself
        }
        let srv = Arc::clone(&server);
        let stop_flag = Arc::clone(&stop);
        let poke_addr = bound.clone();
        // Connection threads are detached: an idle client must not be
        // able to hold the daemon's exit hostage. They die with the
        // process (or at EOF when their client hangs up).
        thread::spawn(move || {
            if drive_connection(&srv, stream.as_ref()) {
                stop_flag.store(true, Ordering::SeqCst);
                poke(&poke_addr);
            }
        });
    }
    // `handle_line` already flipped the drain flag when it acknowledged
    // the shutdown command; wait for every accepted job to finish.
    server.begin_shutdown();
    server.drain_wait();
    if let ServeAddr::Unix(path) = addr {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// A bidirectional byte stream we can split into reader + writer.
trait Conn: Send {
    fn split(&self) -> io::Result<(Box<dyn Read>, Box<dyn Write>)>;
}

impl Conn for UnixStream {
    fn split(&self) -> io::Result<(Box<dyn Read>, Box<dyn Write>)> {
        Ok((Box::new(self.try_clone()?), Box::new(self.try_clone()?)))
    }
}

impl Conn for TcpStream {
    fn split(&self) -> io::Result<(Box<dyn Read>, Box<dyn Write>)> {
        Ok((Box::new(self.try_clone()?), Box::new(self.try_clone()?)))
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
fn drive_connection(server: &Server, stream: &dyn Conn) -> bool {
    let Ok((read, mut write)) = stream.split() else { return false };
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
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
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
