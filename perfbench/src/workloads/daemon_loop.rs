//! `daemon_loop` — one blocking client over a live unix socket.
//!
//! Why it exists: it is the only workload where `qucp-daemon` runs —
//! codec, framing, `ServerSession`, the service mutex, the reader and
//! writer threads and their socket wake-ups — and the only source of a
//! submit→result latency as a `qucpd` user sees it. The daemon is
//! spawned with `driver_cadence: None`, so the request sequence alone
//! decides the schedule and the simulated metrics stay exact. One
//! client, because two client threads plus the per-connection reader
//! and writer threads exceed a two-core host; lock contention waits
//! for a larger one.

use std::cell::Cell;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use qucp_circuit::Circuit;
use qucp_core::strategy::{self, Strategy};
use qucp_daemon::{
    Client, ClientError, Daemon, DaemonConfig, DaemonHandle, MockTransport, Request, Response,
    StreamTransport, Transport, WireError,
};
use qucp_device::ibm;
use qucp_runtime::{DeviceRegistry, JobRequest, JobResult, JobTicket, Service, ServiceReport};

use super::sched_flood::{poisson_requests, Order};
use crate::host;
use crate::probes;
use crate::trace::{self, NO_ID};
use crate::workload::{
    check_claims, exact_of, layer, sample_batches, Counters, Layers, Ledger, Metric, PassOutcome,
    Scale, Workload,
};

/// Rounds of one pass at full scale.
const ROUNDS: usize = 800;

/// Jobs the client submits per round: one full batch.
const PER_ROUND: usize = 4;

/// Few enough that the wire stays a quarter of the pass: on the one
/// CPU the benchmark runs on a socket round trip costs 12 µs, and at
/// 64 shots execution left the transport 12 % of the wall time.
const SHOTS: usize = 8;

/// `cache_stats` echoes of the socket round-trip probe.
const ECHOES: usize = 2_000;

/// What went over a transport.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    calls: u64,
    request_bytes: u64,
    response_bytes: u64,
    last_response_bytes: u64,
}

/// A transport that counts frames and bytes and records a span around
/// every exchange, so a client call's self time is its codec work.
struct Counting<T> {
    inner: T,
    tally: Rc<Cell<Tally>>,
}

impl<T: Transport> Transport for Counting<T> {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        let inner = &mut self.inner;
        let reply = trace::span("daemon.transport", NO_ID, || inner.call(request))?;
        let mut tally = self.tally.get();
        tally.calls += 1;
        tally.request_bytes += request.len() as u64;
        tally.response_bytes += reply.len() as u64;
        tally.last_response_bytes = reply.len() as u64;
        self.tally.set(tally);
        Ok(reply)
    }
}

/// What one drive of the request tape leaves behind.
struct Driven {
    tickets: Vec<JobTicket>,
    claimed: Vec<JobResult>,
    report: Option<ServiceReport>,
    ledger: Ledger,
}

/// The request tape: every round submits a batch stamped with the
/// simulated clock, ticks to that clock, claims the batch, and moves
/// the clock to the latest completion; the pass ends with a drain.
fn drive<T: Transport>(client: &mut Client<T>, requests: Vec<JobRequest>) -> Driven {
    let mut ledger = Ledger::with_capacity(requests.len());
    let mut tickets = Vec::with_capacity(requests.len());
    let mut claimed = Vec::with_capacity(requests.len());
    let mut now = 0.0f64;
    let mut requests = requests.into_iter().peekable();
    let mut round = 0u64;
    while requests.peek().is_some() {
        let first = tickets.len();
        for mut request in requests.by_ref().take(PER_ROUND) {
            request.arrival = now;
            let id = ledger.submitting() as u64;
            let submitted = trace::span("client.submit", id, || client.submit(request));
            tickets.extend(ledger.call(submitted));
        }
        let ticked = trace::span("client.tick", round, || client.tick(now));
        ledger.call(ticked);
        for (index, ticket) in tickets.iter().enumerate().skip(first) {
            let taken: Result<_, ClientError> =
                trace::span("client.take_result", index as u64, || {
                    client.take_result(*ticket)
                });
            if let Some(result) = ledger.claimed(index, taken.ok().flatten()) {
                now = now.max(result.completion);
                claimed.push(result);
            }
        }
        round += 1;
    }
    let drained = trace::span("client.drain", NO_ID, || client.drain());
    let report = ledger.call(drained);
    Driven {
        tickets,
        claimed,
        report,
        ledger,
    }
}

/// A socket path inside the checkout, short enough for `sun_path`
/// because it is relative, and unique per daemon of this process.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    host::out_dir().join(format!("qucpd-{}-{n}.sock", std::process::id()))
}

type SocketClient = Client<Counting<StreamTransport<UnixStream>>>;

/// A live daemon over `service` and one connected client.
fn spawn(service: Service) -> (DaemonHandle, SocketClient, Rc<Cell<Tally>>) {
    let path = socket_path();
    let config = DaemonConfig {
        driver_cadence: None,
    };
    let handle = Daemon::spawn_unix(&path, service, config).expect("the socket path is free");
    let tally = Rc::new(Cell::new(Tally::default()));
    let stream = UnixStream::connect(&path).expect("the daemon is listening");
    let transport = Counting {
        inner: StreamTransport::new(stream),
        tally: Rc::clone(&tally),
    };
    let client = Client::connect(transport).expect("the handshake succeeds");
    (handle, client, tally)
}

/// Stops a daemon and waits for its threads.
fn stop(handle: DaemonHandle, client: SocketClient) {
    handle.request_shutdown();
    drop(client);
    handle.join();
}

pub struct DaemonLoop {
    scale: Scale,
    fleet: DeviceRegistry,
    requests: Vec<JobRequest>,
    /// The drained report of the tape replayed in process, through
    /// the same session code and no socket.
    reference: Option<ServiceReport>,
    /// Wall ns of that replay.
    session_ns: u64,
    strategy: Strategy,
    sample: Vec<(qucp_device::Device, Vec<Circuit>)>,
}

pub struct Pass {
    handle: DaemonHandle,
    client: SocketClient,
    tally: Rc<Cell<Tally>>,
    requests: Vec<JobRequest>,
}

pub struct Done {
    handle: DaemonHandle,
    client: SocketClient,
    tally: Tally,
    driven: Driven,
}

impl DaemonLoop {
    fn service(&self) -> Service {
        Service::builder()
            .registry(self.fleet.clone())
            .max_parallel(PER_ROUND)
            .build()
            .expect("a registered fleet builds")
    }

    /// The tape through `MockTransport`: the client's codec and the
    /// server's session, with a function call where the socket was.
    fn replay(&self) -> (Driven, u64) {
        let mut client =
            Client::connect(MockTransport::new(self.service())).expect("the handshake succeeds");
        let started = Instant::now();
        let driven = drive(&mut client, self.requests.clone());
        (driven, started.elapsed().as_nanos() as u64)
    }
}

impl Workload for DaemonLoop {
    const NAME: &'static str = "daemon_loop";
    type Pass = Pass;
    type Done = Done;

    fn new(seed: u64, scale: Scale) -> Self {
        let mut fleet = DeviceRegistry::new();
        fleet.register(ibm::toronto());
        fleet.register(ibm::melbourne());
        let mut workload = DaemonLoop {
            scale,
            fleet,
            requests: poisson_requests(
                scale.of(ROUNDS) * PER_ROUND,
                100.0,
                SHOTS,
                seed,
                Order::Cycle,
            ),
            reference: None,
            session_ns: 0,
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            sample: Vec::new(),
        };
        let (driven, session_ns) = workload.replay();
        workload.reference = driven.report;
        workload.session_ns = session_ns;
        workload
    }

    fn span_capacity(&self) -> usize {
        // Every client call and the exchange inside it.
        2 * (2 * self.requests.len() + self.requests.len().div_ceil(PER_ROUND) + 1)
    }

    fn prepare(&mut self) -> Pass {
        let (handle, client, tally) = spawn(self.service());
        // The handshake is set-up, not load.
        tally.set(Tally::default());
        Pass {
            handle,
            client,
            tally,
            requests: self.requests.clone(),
        }
    }

    fn run(&mut self, pass: Pass) -> Done {
        let Pass {
            handle,
            mut client,
            tally,
            requests,
        } = pass;
        let driven = drive(&mut client, requests);
        Done {
            handle,
            client,
            tally: tally.get(),
            driven,
        }
    }

    fn digest(&mut self, done: Done) -> PassOutcome {
        let Done {
            handle,
            client,
            tally,
            driven,
        } = done;
        let shared = handle.service();
        stop(handle, client);
        let mut service = shared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut problems = Vec::new();
        let mut counters = Counters::default();
        let mut exact = Default::default();
        match &driven.report {
            Some(report) => {
                check_claims(
                    &mut service,
                    &driven.tickets,
                    &driven.claimed,
                    report,
                    &mut problems,
                );
                if self.reference.as_ref() != Some(report) {
                    problems.push(
                        "the report over the socket differs from the in-process replay".into(),
                    );
                }
                counters.absorb(&service, report);
                exact = exact_of(&[report]);
                let requests = &self.requests;
                self.sample = sample_batches(
                    report,
                    &self.fleet,
                    |id| requests[id as usize].circuit.clone(),
                    self.scale.of(64),
                );
            }
            None => problems.push("the drain returned no report".into()),
        }
        let jobs = driven.claimed.len().max(1) as f64;
        PassOutcome {
            jobs: driven.claimed.len() as u64,
            attempted: driven.ledger.attempted,
            failed: driven.ledger.failed,
            latencies_ns: driven.ledger.latencies_ns,
            exact,
            counters,
            phases: None,
            extras: vec![
                (
                    "daemon.request_bytes_per_job",
                    tally.request_bytes as f64 / jobs,
                ),
                (
                    "daemon.response_bytes_per_job",
                    tally.response_bytes as f64 / jobs,
                ),
                ("daemon.rtts_per_job", tally.calls as f64 / jobs),
                ("daemon.report_bytes", tally.last_response_bytes as f64),
            ],
            problems,
        }
    }

    fn layer_metrics(&self, outcome: &PassOutcome, layers: &Layers, wall_ns: u64) -> Vec<Metric> {
        let jobs = outcome.jobs.max(1) as f64;
        let mut metrics = outcome.extras.clone();
        metrics.extend([
            ("daemon.session_ns_per_job", self.session_ns as f64 / jobs),
            (
                "daemon.transport_share",
                1.0 - self.session_ns as f64 / wall_ns as f64,
            ),
            (
                "daemon.drain_ns",
                layer(layers, "client.drain").total_ns as f64,
            ),
        ]);
        metrics
    }

    fn probes(&self) -> Vec<Metric> {
        // The codec, on the tape's own messages: every submit request,
        // and the claim responses of the reference replay (the large
        // ones).
        let requests: Vec<Request> = self
            .requests
            .iter()
            .map(|r| Request::Submit(Box::new(r.clone())))
            .collect();
        let request_frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let responses: Vec<Response> = self
            .reference
            .iter()
            .flat_map(|report| &report.job_results)
            .map(|r| Response::Taken(Some(Box::new(r.clone()))))
            .collect();
        let response_frames: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
        let per = |total_ns: f64, n: usize| total_ns / n.max(1) as f64;
        let mut metrics = vec![
            (
                "daemon.encode_request_ns",
                per(
                    probes::quiet_ns(|| requests.iter().for_each(|r| drop(r.encode()))),
                    requests.len(),
                ),
            ),
            (
                "daemon.decode_request_ns",
                per(
                    probes::quiet_ns(|| {
                        request_frames.iter().for_each(|f| drop(Request::decode(f)))
                    }),
                    requests.len(),
                ),
            ),
            (
                "daemon.encode_response_ns",
                per(
                    probes::quiet_ns(|| responses.iter().for_each(|r| drop(r.encode()))),
                    responses.len(),
                ),
            ),
            (
                "daemon.decode_response_ns",
                per(
                    probes::quiet_ns(|| {
                        response_frames
                            .iter()
                            .for_each(|f| drop(Response::decode(f)))
                    }),
                    responses.len(),
                ),
            ),
        ];

        // The socket alone: an echo that does no scheduling work.
        let (handle, mut client, _) = spawn(self.service());
        let echoes = self.scale.of(ECHOES);
        let echo_ns = probes::quiet_ns(|| {
            for _ in 0..echoes {
                let _ = client.cache_stats();
            }
        });
        stop(handle, client);
        metrics.push(("daemon.socket_rtt_us", echo_ns / echoes as f64 / 1e3));

        metrics.extend(probes::core(&self.sample, &self.strategy, true));
        if let Some((device, plan)) = probes::first_plan(&self.sample, &self.strategy, true) {
            metrics.extend(probes::sim(&device, &plan, &self.strategy));
        }
        metrics
    }
}
