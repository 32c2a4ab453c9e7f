//! The daemon: a per-connection protocol session, a socket accept loop
//! and the wall-clock driver.
//!
//! The protocol brain is [`ServerSession::handle_frame`] — one request
//! payload in, one response payload out, no I/O. The socket server
//! wraps it in one thread per connection; the mock transport calls it
//! directly; both therefore exercise the *same* code path, which is
//! what makes the mock tests trustworthy.
//!
//! # One thread per connection
//!
//! A connection's thread reads a request, handles it and writes the
//! response itself, on the stream the request came from, before it
//! reads again. Three things follow by construction rather than by
//! bookkeeping. Responses leave in request order. A peer that stops
//! reading stops being read: once its socket is full the response
//! write blocks, the loop handles nothing more for it, and the
//! peer's own writes fill up in turn — the socket's buffers are the
//! only queue, and they are bounded. And a `Shutdown`'s report is on
//! the wire before the loop can notice the flag it raised. The thread
//! keeps two buffers for its whole life, the [`FrameReader`]'s and one
//! response scratch, so a routine exchange makes no heap request for
//! framing or encoding (see the crate docs, "What a round trip
//! costs").
//!
//! All connections share one [`Service`] behind a mutex, so the
//! daemon's observable behaviour is a serialization of the clients'
//! requests — exactly the semantics of calling the `Service` in
//! process, which the bit-identity integration test pins.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use qucp_runtime::Service;

use crate::proto::{negotiate, Fault, Request, Response, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION};
use crate::transport::{write_frame_with, FrameProgress, FrameReader};
use crate::wire::{release_large_scratch, WireError};

/// Tuning knobs for a spawned daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Cadence of the wall-clock driver: every period, monotonic
    /// elapsed nanoseconds since spawn are folded into
    /// `advance_drift(now)` + `advance_dispatch(now)`. The driver only
    /// advances dispatch — completion notifications stay queued for
    /// client `Tick` requests, which keep their report-exactly-once
    /// contract. With the driver on, the service clock *is* wall-clock
    /// nanoseconds since spawn, and client `Tick` horizons are
    /// interpreted on that clock (pass `f64::INFINITY` to collect
    /// everything completed so far). `None` disables the driver
    /// entirely — time then advances only through client `tick`/`drain`
    /// requests, which keeps the service's event log a pure function of
    /// the request sequence (the bit-identity tests rely on this).
    pub driver_cadence: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            driver_cadence: Some(Duration::from_millis(10)),
        }
    }
}

/// Locks a shared service, recovering the data from a poisoned mutex
/// (a panic in another connection thread must not wedge the daemon).
fn lock_service(service: &Mutex<Service>) -> MutexGuard<'_, Service> {
    service
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One connection's protocol state machine: handshake tracking plus
/// request dispatch against the shared [`Service`]. Performs no I/O —
/// both the socket server and the in-memory mock feed it frames.
pub struct ServerSession {
    service: Arc<Mutex<Service>>,
    shutdown: Arc<AtomicBool>,
    negotiated: Option<u16>,
}

impl ServerSession {
    /// A fresh, not-yet-handshaken session over a shared service.
    pub fn new(service: Arc<Mutex<Service>>, shutdown: Arc<AtomicBool>) -> Self {
        ServerSession {
            service,
            shutdown,
            negotiated: None,
        }
    }

    /// The version agreed during the handshake, once there was one.
    pub fn negotiated_version(&self) -> Option<u16> {
        self.negotiated
    }

    /// Handles one request frame payload and returns the encoded
    /// response payload. Total over arbitrary bytes: malformed input
    /// yields an encoded [`Fault`] frame, never a panic.
    pub fn handle_frame(&mut self, payload: &[u8]) -> Vec<u8> {
        self.handle(payload).encode()
    }

    /// [`handle_frame`](Self::handle_frame) into a buffer the caller
    /// keeps: `response`'s contents are replaced, its capacity reused.
    pub fn handle_frame_into(&mut self, payload: &[u8], response: &mut Vec<u8>) {
        self.handle(payload).encode_into(response);
    }

    fn handle(&mut self, payload: &[u8]) -> Response {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(WireError::UnknownTag {
                context: "Request",
                tag,
            }) => return Response::Error(Fault::UnknownRequest { tag }),
            Err(e) => {
                return Response::Error(Fault::MalformedRequest {
                    detail: e.to_string(),
                })
            }
        };
        match request {
            Request::Hello { version } => match negotiate(version) {
                Some(agreed) => {
                    self.negotiated = Some(agreed);
                    Response::HelloAck { version: agreed }
                }
                None => Response::Error(Fault::UnsupportedVersion {
                    client: version,
                    min: MIN_SUPPORTED_VERSION,
                    max: PROTOCOL_VERSION,
                }),
            },
            _ if self.negotiated.is_none() => Response::Error(Fault::HandshakeRequired),
            Request::Submit(job) => {
                let mut service = lock_service(&self.service);
                // Checked *under* the service lock: the Shutdown
                // handler raises the flag while still holding this
                // lock, so a submit can never slip between its final
                // drain and the flag — every accepted ticket is
                // guaranteed a place in the shutdown report.
                if self.shutdown.load(Ordering::SeqCst) {
                    return Response::Error(Fault::ShuttingDown);
                }
                match service.submit(*job) {
                    Ok(ticket) => Response::Ticket(ticket),
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::Tick { now } => match lock_service(&self.service).tick(now) {
                Ok(tickets) => Response::Completed(tickets),
                Err(e) => Response::Error(e.into()),
            },
            Request::Report { ticket } => Response::JobReport(
                lock_service(&self.service)
                    .result(ticket)
                    .cloned()
                    .map(Box::new),
            ),
            Request::TakeResult { ticket } => Response::Taken(
                lock_service(&self.service)
                    .take_result(&ticket)
                    .map(Box::new),
            ),
            Request::Drain => match lock_service(&self.service).run_until_drained() {
                Ok(report) => Response::Report(Box::new(report)),
                Err(e) => Response::Error(e.into()),
            },
            Request::Events => Response::Events(lock_service(&self.service).events().to_vec()),
            Request::CacheStats => {
                Response::CacheStats(lock_service(&self.service).route_cache_stats())
            }
            Request::Shutdown => {
                // Drain, then raise the flag *while still holding the
                // service lock*: Submit re-checks the flag under the
                // same lock, so no connection can admit a job after
                // this drain and before the flag — the no-job-lost
                // guarantee holds under concurrency, not just in
                // sequence.
                let drained = {
                    let mut service = lock_service(&self.service);
                    let drained = service.run_until_drained();
                    self.shutdown.store(true, Ordering::SeqCst);
                    drained
                };
                match drained {
                    Ok(report) => Response::Report(Box::new(report)),
                    Err(e) => Response::Error(e.into()),
                }
            }
        }
    }
}

/// Server-side socket abstraction so unix and TCP share one accept
/// loop and one connection loop.
trait Listener: Send + 'static {
    /// The connection stream type.
    type Conn: Connection;
    /// Accepts one pending connection; `Ok(None)` when none is queued
    /// (the listener is nonblocking).
    fn poll_accept(&self) -> io::Result<Option<Self::Conn>>;
}

trait Connection: Read + Write + Send + 'static {
    /// Makes both directions wake up every [`POLL_INTERVAL`] — a
    /// timeout is how a blocked read or write gets to look at the
    /// shutdown flag, never an error — and, where the transport would
    /// otherwise hold a small frame back, turns that off.
    fn prepare(&self) -> io::Result<()>;
}

impl Listener for UnixListener {
    type Conn = UnixStream;
    fn poll_accept(&self) -> io::Result<Option<UnixStream>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Connection for UnixStream {
    fn prepare(&self) -> io::Result<()> {
        self.set_read_timeout(Some(POLL_INTERVAL))?;
        self.set_write_timeout(Some(POLL_INTERVAL))
    }
}

impl Listener for TcpListener {
    type Conn = TcpStream;
    fn poll_accept(&self) -> io::Result<Option<TcpStream>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Connection for TcpStream {
    fn prepare(&self) -> io::Result<()> {
        self.set_read_timeout(Some(POLL_INTERVAL))?;
        self.set_write_timeout(Some(POLL_INTERVAL))?;
        // A response is one write and the peer is waiting for it:
        // Nagle's algorithm has nothing to coalesce, it can only hold
        // the segment back for the peer's delayed ACK.
        self.set_nodelay(true)
    }
}

/// How often a blocked connection read or write wakes up to check the
/// shutdown flag, and how often the accept loop polls.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Once shutdown is requested, how many write timeouts in a row a
/// response may sit without the peer taking a single byte before the
/// connection is given up (half a second). Not one: the peer that sent
/// `Shutdown` is owed its report, and on a loaded host it can be off
/// the CPU for longer than one [`POLL_INTERVAL`].
const STALLED_WRITE_POLLS: u32 = 25;

/// A running daemon: accept loop, connection threads, optional
/// wall-clock driver. Obtained from [`Daemon::spawn_unix`] /
/// [`Daemon::spawn_tcp`].
pub struct DaemonHandle {
    service: Arc<Mutex<Service>>,
    shutdown: Arc<AtomicBool>,
    driver_errors: Arc<AtomicUsize>,
    accept_thread: Option<thread::JoinHandle<()>>,
    driver_thread: Option<thread::JoinHandle<()>>,
    socket_path: Option<PathBuf>,
}

impl DaemonHandle {
    /// Raises the shutdown flag; the accept loop and driver exit at
    /// their next poll. (A client's `Shutdown` request does the same,
    /// after draining.)
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested (locally or by a client).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The shared service, for in-process inspection in tests.
    pub fn service(&self) -> Arc<Mutex<Service>> {
        Arc::clone(&self.service)
    }

    /// How many driver iterations failed (a NaN horizon cannot arise
    /// from `Instant` arithmetic, so this staying 0 is the norm).
    pub fn driver_errors(&self) -> usize {
        self.driver_errors.load(Ordering::SeqCst)
    }

    /// Blocks until every daemon thread exits, then removes the unix
    /// socket file if one was bound. Call after
    /// [`request_shutdown`](Self::request_shutdown) (or after a client
    /// sent `Shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.driver_thread.take() {
            let _ = t.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Spawner for the daemon's socket servers.
pub struct Daemon;

impl Daemon {
    /// Binds a unix-domain socket at `path` and spawns the accept loop
    /// plus, per [`DaemonConfig::driver_cadence`], the wall-clock
    /// driver.
    ///
    /// A *stale* socket file (left by a crashed daemon — nothing
    /// accepts connections on it) is replaced. A live socket earns
    /// `AddrInUse` and a non-socket file `AlreadyExists`; neither is
    /// ever deleted, so starting a second daemon by mistake cannot
    /// take down the first (or clobber an unrelated file).
    pub fn spawn_unix(
        path: impl AsRef<Path>,
        service: Service,
        config: DaemonConfig,
    ) -> io::Result<DaemonHandle> {
        let path = path.as_ref().to_path_buf();
        match std::fs::symlink_metadata(&path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("{} exists and is not a socket", path.display()),
                    ));
                }
                match UnixStream::connect(&path) {
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a daemon is already listening on {}", path.display()),
                        ))
                    }
                    // Nothing accepts on it: a leftover from a dead
                    // process, safe to replace.
                    Err(_) => std::fs::remove_file(&path)?,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(spawn(listener, service, config, Some(path)))
    }

    /// Binds a TCP listener at `addr` and spawns the same loops.
    /// Returns the handle and the actual bound address (useful with
    /// port 0).
    pub fn spawn_tcp(
        addr: impl ToSocketAddrs,
        service: Service,
        config: DaemonConfig,
    ) -> io::Result<(DaemonHandle, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok((spawn(listener, service, config, None), local))
    }
}

fn spawn<L: Listener>(
    listener: L,
    service: Service,
    config: DaemonConfig,
    socket_path: Option<PathBuf>,
) -> DaemonHandle {
    let service = Arc::new(Mutex::new(service));
    let shutdown = Arc::new(AtomicBool::new(false));
    let driver_errors = Arc::new(AtomicUsize::new(0));

    let accept_thread = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || accept_loop(listener, service, shutdown))
    };

    let driver_thread = config.driver_cadence.map(|cadence| {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let errors = Arc::clone(&driver_errors);
        thread::spawn(move || driver_loop(cadence, service, shutdown, errors))
    });

    DaemonHandle {
        service,
        shutdown,
        driver_errors,
        accept_thread: Some(accept_thread),
        driver_thread,
        socket_path,
    }
}

fn accept_loop<L: Listener>(listener: L, service: Arc<Mutex<Service>>, shutdown: Arc<AtomicBool>) {
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.poll_accept() {
            Ok(Some(mut conn)) => {
                let session = ServerSession::new(Arc::clone(&service), Arc::clone(&shutdown));
                let shutdown = Arc::clone(&shutdown);
                connections.push(thread::spawn(move || {
                    connection_loop(&mut conn, session, &shutdown)
                }));
            }
            Ok(None) => thread::sleep(POLL_INTERVAL),
            // A transient accept failure (e.g. the peer vanished
            // between queueing and accepting) must not kill the daemon.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// One connection, start to finish, on the calling thread: read a
/// request, handle it, write its response, repeat (see the module
/// docs). Any transport error ends the connection; the daemon lives
/// on.
fn connection_loop<C: Connection>(conn: &mut C, mut session: ServerSession, shutdown: &AtomicBool) {
    if conn.prepare().is_err() {
        return;
    }
    // The reader's fill state survives read timeouts, so a frame that
    // stalls mid-transfer (slow peer, loaded host) resumes where it
    // stopped instead of desyncing the stream.
    let mut frames = FrameReader::new();
    let mut response = Vec::new();
    loop {
        match frames.poll(conn) {
            Ok(FrameProgress::Frame(request)) => {
                session.handle_frame_into(&request, &mut response);
                if write_response(conn, &response, shutdown).is_err() {
                    break;
                }
                release_large_scratch(&mut response);
            }
            Ok(FrameProgress::Eof) => break, // peer hung up cleanly
            Ok(FrameProgress::Pending) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break, // malformed framing or hard I/O error
        }
    }
}

/// Writes one response frame, resuming across write timeouts from the
/// byte it reached. While the daemon runs a full socket is waited out
/// for as long as it takes — the peer is not reading, so nothing else
/// is done for it either. After shutdown is requested the write goes
/// on while the peer takes bytes and is given up after
/// [`STALLED_WRITE_POLLS`] timeouts without one.
fn write_response(
    conn: &mut impl Write,
    response: &[u8],
    shutdown: &AtomicBool,
) -> Result<(), WireError> {
    let (mut reached, mut idle_polls) = (0, 0);
    write_frame_with(conn, response, |_, sent| {
        if sent > reached || !shutdown.load(Ordering::SeqCst) {
            (reached, idle_polls) = (sent, 0);
        } else {
            idle_polls += 1;
        }
        idle_polls < STALLED_WRITE_POLLS
    })
}

/// The wall-clock driver: every `cadence`, fold monotonic elapsed
/// nanoseconds into `advance_drift(now)` then `advance_dispatch(now)` —
/// real time drives calibration drift and batch dispatch exactly like
/// the explicit simulated clock does, retiring the explicit/auto
/// split. Deliberately dispatch-only: `tick` reports each completed
/// ticket exactly once, so if the driver called it the notifications
/// would be consumed here and a client's `Tick` request would race the
/// cadence. Completions therefore stay queued until a *client* ticks.
fn driver_loop(
    cadence: Duration,
    service: Arc<Mutex<Service>>,
    shutdown: Arc<AtomicBool>,
    errors: Arc<AtomicUsize>,
) {
    let origin = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(cadence);
        let now = origin.elapsed().as_nanos() as f64;
        let mut service = lock_service(&service);
        if service.advance_drift(now).is_err() {
            errors.fetch_add(1, Ordering::SeqCst);
        }
        if service.advance_dispatch(now).is_err() {
            errors.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::oracle::{framed, read_frame};
    use qucp_circuit::{Circuit, Gate};
    use qucp_runtime::{JobRequest, JobTicket};
    use std::collections::VecDeque;

    fn session(shutdown: &Arc<AtomicBool>) -> ServerSession {
        let service = Service::builder()
            .device(qucp_device::ibm::melbourne())
            .default_shots(8)
            .seed(7)
            .build()
            .expect("build service");
        ServerSession::new(Arc::new(Mutex::new(service)), Arc::clone(shutdown))
    }

    /// A connection double that counts: each `read` hands over the
    /// next request frame whole (then EOF), each write call is kept on
    /// its own.
    struct CountingConn {
        requests: VecDeque<Vec<u8>>,
        reads: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Read for CountingConn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(frame) = self.requests.pop_front() else {
                return Ok(0);
            };
            buf[..frame.len()].copy_from_slice(&frame);
            Ok(frame.len())
        }
    }

    impl Write for CountingConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let bytes: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let written = bytes.len();
            self.writes.push(bytes);
            Ok(written)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Connection for CountingConn {
        fn prepare(&self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One of the three checks for any change to the frame path (with
    /// the chunking proptest in `transport.rs` and `daemon_loop`'s
    /// socket == replay gate): what the protocol needs is one `read`
    /// and one write per exchange on this side.
    #[test]
    fn a_request_that_arrives_whole_costs_one_read_and_its_response_one_write() {
        let mut bell = Circuit::with_name(2, "bell");
        bell.try_push(Gate::H(0)).unwrap();
        bell.try_push(Gate::Cx(0, 1)).unwrap();
        let ticket = JobTicket { seq: 0, id: 5 };
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Submit(Box::new(JobRequest::new(bell, 0.0).with_id(ticket.id))),
            Request::Tick { now: f64::INFINITY },
            Request::TakeResult { ticket },
            Request::CacheStats,
        ];
        let mut conn = CountingConn {
            requests: requests.iter().map(|r| framed(&r.encode())).collect(),
            reads: 0,
            writes: Vec::new(),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        connection_loop(&mut conn, session(&shutdown), &shutdown);

        assert_eq!(conn.reads, requests.len() + 1, "one per request, one EOF");
        assert_eq!(conn.writes.len(), requests.len(), "one per response");
        let responses: Vec<Response> = conn
            .writes
            .iter()
            .map(|written| {
                let mut bytes = &written[..];
                let payload = read_frame(&mut bytes).expect("a frame").expect("not EOF");
                assert!(bytes.is_empty(), "exactly one frame per write");
                Response::decode(&payload).expect("decodes")
            })
            .collect();
        assert!(
            matches!(
                &responses[..],
                [
                    Response::HelloAck { .. },
                    Response::Ticket(t),
                    Response::Completed(done),
                    Response::Taken(Some(_)),
                    Response::CacheStats(_),
                ] if *t == ticket && done[..] == [ticket]
            ),
            "in request order: {responses:?}"
        );
    }

    /// A peer that takes `step` bytes between write timeouts (none at
    /// all for `step == 0`), and can raise the shutdown flag itself at
    /// a chosen timeout.
    struct SlowPeer<'a> {
        step: usize,
        timed_out_last: bool,
        timeouts: u32,
        taken: Vec<u8>,
        raise: Option<(u32, &'a AtomicBool)>,
    }

    impl<'a> SlowPeer<'a> {
        fn new(step: usize, raise: Option<(u32, &'a AtomicBool)>) -> Self {
            SlowPeer {
                step,
                timed_out_last: false,
                timeouts: 0,
                taken: Vec::new(),
                raise,
            }
        }
    }

    impl Write for SlowPeer<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.step == 0 || !self.timed_out_last {
                self.timed_out_last = true;
                self.timeouts += 1;
                if let Some((at, flag)) = self.raise {
                    if self.timeouts == at {
                        flag.store(true, Ordering::SeqCst);
                    }
                }
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.timed_out_last = false;
            let n = self.step.min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_blocked_response_waits_out_a_running_daemon_and_is_given_up_after_shutdown() {
        // Nothing is ever taken. Forty timeouts pass with the daemon
        // running; the flag goes up during the fortieth, which is the
        // first of the STALLED_WRITE_POLLS the write is then allowed.
        let shutdown = AtomicBool::new(false);
        let mut peer = SlowPeer::new(0, Some((40, &shutdown)));
        assert!(matches!(
            write_response(&mut peer, b"report", &shutdown).unwrap_err(),
            WireError::Io { .. }
        ));
        assert_eq!(peer.timeouts, 39 + STALLED_WRITE_POLLS);
        assert!(peer.taken.is_empty());

        // A peer that takes one byte between timeouts is slow, not
        // gone: shutdown or not, it gets its whole frame.
        let shutdown = AtomicBool::new(true);
        let report = vec![7u8; 10 * STALLED_WRITE_POLLS as usize];
        let mut peer = SlowPeer::new(1, None);
        write_response(&mut peer, &report, &shutdown).expect("progress is not a stall");
        assert_eq!(peer.taken, framed(&report));
    }
}
