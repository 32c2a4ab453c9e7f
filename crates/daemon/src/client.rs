//! The blocking client handle.
//!
//! A [`Client`] wraps any [`Transport`] — a live unix or TCP socket,
//! or the in-memory [`MockTransport`](crate::MockTransport) — and
//! speaks the versioned protocol: `connect` performs the handshake,
//! after which each method is one request/response exchange. The
//! client is strictly synchronous; one outstanding request at a time.
//! Requests are encoded into one scratch buffer the client keeps, so a
//! call makes no heap request of its own on the way out.

use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use qucp_runtime::{JobRequest, JobResult, JobTicket, ServiceReport};

use crate::proto::{Fault, Request, Response, PROTOCOL_VERSION};
use crate::transport::{StreamTransport, Transport};
use crate::wire::{release_large_scratch, WireError};

/// A client-side failure: transport/decoding trouble, a typed server
/// fault, or a response of the wrong shape.
#[derive(Debug)]
pub enum ClientError {
    /// Framing, I/O or decoding failed.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Fault(Fault),
    /// The server answered with a well-formed but unexpected message.
    UnexpectedResponse {
        /// What the client was waiting for.
        expected: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Fault(fault) => write!(f, "server fault: {fault}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking protocol client over some [`Transport`].
pub struct Client<T: Transport> {
    transport: T,
    version: u16,
    /// The encoded request of the call in flight, reused by the next.
    scratch: Vec<u8>,
}

impl Client<StreamTransport<UnixStream>> {
    /// Connects to a daemon's unix socket and performs the handshake.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path).map_err(WireError::from)?;
        Client::connect(StreamTransport::new(stream))
    }
}

impl Client<StreamTransport<TcpStream>> {
    /// Connects to a daemon's TCP address and performs the handshake.
    /// Sets `TCP_NODELAY`: the exchange is strictly request → response,
    /// so Nagle's algorithm has nothing to coalesce and only ever
    /// delays a frame.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        stream.set_nodelay(true).map_err(WireError::from)?;
        Client::connect(StreamTransport::new(stream))
    }
}

impl<T: Transport> Client<T> {
    /// Performs the version handshake over an established transport,
    /// advertising this build's [`PROTOCOL_VERSION`].
    pub fn connect(transport: T) -> Result<Self, ClientError> {
        Client::connect_with_version(transport, PROTOCOL_VERSION)
    }

    /// Handshakes advertising an explicit version — the test hook for
    /// exercising negotiation (and rejection) paths.
    pub fn connect_with_version(transport: T, version: u16) -> Result<Self, ClientError> {
        let mut client = Client {
            transport,
            version,
            scratch: Vec::new(),
        };
        match client.call(&Request::Hello { version })? {
            Response::HelloAck { version } => {
                client.version = version;
                Ok(client)
            }
            _ => Err(ClientError::UnexpectedResponse {
                expected: "HelloAck",
            }),
        }
    }

    /// The version agreed during the handshake.
    pub fn version(&self) -> u16 {
        self.version
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        request.encode_into(&mut self.scratch);
        let reply = self.transport.call(&self.scratch);
        release_large_scratch(&mut self.scratch);
        match Response::decode(&reply?)? {
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            response => Ok(response),
        }
    }

    /// Submits a job; returns its ticket.
    pub fn submit(&mut self, request: JobRequest) -> Result<JobTicket, ClientError> {
        match self.call(&Request::Submit(Box::new(request)))? {
            Response::Ticket(ticket) => Ok(ticket),
            _ => Err(ClientError::UnexpectedResponse { expected: "Ticket" }),
        }
    }

    /// Advances the service clock to `now` (simulated ns); returns the
    /// tickets that completed by then.
    pub fn tick(&mut self, now: f64) -> Result<Vec<JobTicket>, ClientError> {
        match self.call(&Request::Tick { now })? {
            Response::Completed(tickets) => Ok(tickets),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "Completed",
            }),
        }
    }

    /// Fetches one ticket's result, `None` while its batch has not run.
    pub fn report(&mut self, ticket: JobTicket) -> Result<Option<JobResult>, ClientError> {
        match self.call(&Request::Report { ticket })? {
            Response::JobReport(result) => Ok(result.map(|boxed| *boxed)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "JobReport",
            }),
        }
    }

    /// Claims one ticket's result exactly once (protocol version ≥ 2):
    /// `Some` on the first call after the batch has run, `None` before
    /// completion and on every call after the claim. Claims never
    /// change the drained report — the server retains the canonical
    /// copy (see `Service::take_result`).
    pub fn take_result(&mut self, ticket: JobTicket) -> Result<Option<JobResult>, ClientError> {
        match self.call(&Request::TakeResult { ticket })? {
            Response::Taken(result) => Ok(result.map(|boxed| *boxed)),
            _ => Err(ClientError::UnexpectedResponse { expected: "Taken" }),
        }
    }

    /// Drains everything pending and returns the service report.
    pub fn drain(&mut self) -> Result<ServiceReport, ClientError> {
        match self.call(&Request::Drain)? {
            Response::Report(report) => Ok(*report),
            _ => Err(ClientError::UnexpectedResponse { expected: "Report" }),
        }
    }

    /// Fetches the service's cumulative route-cache counters (probe
    /// *and* plan caches; protocol version ≥ 3).
    pub fn cache_stats(&mut self) -> Result<qucp_runtime::RouteCacheStats, ClientError> {
        match self.call(&Request::CacheStats)? {
            Response::CacheStats(stats) => Ok(stats),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "CacheStats",
            }),
        }
    }

    /// Fetches the telemetry log accumulated so far.
    pub fn events(&mut self) -> Result<Vec<qucp_runtime::Event>, ClientError> {
        match self.call(&Request::Events)? {
            Response::Events(events) => Ok(events),
            _ => Err(ClientError::UnexpectedResponse { expected: "Events" }),
        }
    }

    /// Asks the daemon to drain, report, and stop accepting work. The
    /// returned report contains every job admitted before this call —
    /// graceful shutdown loses nothing.
    pub fn shutdown(&mut self) -> Result<ServiceReport, ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Report(report) => Ok(*report),
            _ => Err(ClientError::UnexpectedResponse { expected: "Report" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSession;
    use crate::transport::oracle::{framed, read_frame};
    use qucp_circuit::{Circuit, Gate};
    use qucp_runtime::Service;
    use std::io::{self, IoSlice, Read, Write};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    /// A stream double with a real session behind it, counting calls.
    /// A write must carry one whole request frame — that is the
    /// property under test — and its response is handed over whole by
    /// the next `read`.
    struct Loopback {
        session: ServerSession,
        response: Vec<u8>,
        reads: usize,
        writes: usize,
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let written: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let mut bytes = &written[..];
            let request = read_frame(&mut bytes)
                .expect("header and payload leave in one write")
                .expect("not EOF");
            assert!(bytes.is_empty(), "exactly one frame per write");
            self.response = framed(&self.session.handle_frame(&request));
            Ok(written.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let response = std::mem::take(&mut self.response);
            buf[..response.len()].copy_from_slice(&response);
            Ok(response.len())
        }
    }

    /// The client half of the counting check (the server half is in
    /// `server.rs`): one write and one `read` per call.
    #[test]
    fn a_call_costs_one_write_and_one_read_when_the_response_arrives_whole() {
        let service = Service::builder()
            .device(qucp_device::ibm::melbourne())
            .default_shots(8)
            .seed(7)
            .build()
            .expect("build service");
        let stream = Loopback {
            session: ServerSession::new(
                Arc::new(Mutex::new(service)),
                Arc::new(AtomicBool::new(false)),
            ),
            response: Vec::new(),
            reads: 0,
            writes: 0,
        };
        let calls = |client: &Client<StreamTransport<Loopback>>| {
            let stream = client.transport.get_ref();
            (stream.writes, stream.reads)
        };
        let mut bell = Circuit::with_name(2, "bell");
        bell.try_push(Gate::H(0)).unwrap();
        bell.try_push(Gate::Cx(0, 1)).unwrap();

        let mut client = Client::connect(StreamTransport::new(stream)).expect("handshake");
        assert_eq!(calls(&client), (1, 1), "Hello");
        let ticket = client.submit(JobRequest::new(bell, 0.0)).expect("submit");
        assert_eq!(calls(&client), (2, 2), "Submit");
        assert_eq!(client.tick(f64::INFINITY).expect("tick"), vec![ticket]);
        assert_eq!(calls(&client), (3, 3), "Tick");
        assert!(client.take_result(ticket).expect("take").is_some());
        assert_eq!(calls(&client), (4, 4), "TakeResult");
        client.cache_stats().expect("cache stats");
        assert_eq!(calls(&client), (5, 5), "CacheStats");
    }
}
