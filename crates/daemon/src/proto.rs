//! The versioned message catalog: typed requests, responses and error
//! frames, with bit-exact ser/de for every runtime type that crosses
//! the wire.
//!
//! See the crate docs for the frame layout and version-negotiation
//! rules. Each type that crosses the wire states its layout once, in
//! the second half of this file: a field list (`wire_struct!`), a
//! frozen tag list (`wire_enum!`), or — for the few whose decoder
//! *validates* what it read — a hand-written [`Wire`] impl. Every
//! `decode` in this module is total over arbitrary bytes:
//! malformed input maps onto a typed [`WireError`], never a panic —
//! the decoding paths are written for attacker-controlled sockets.
//! Floating-point fields travel as IEEE-754 bit patterns, so a decoded
//! [`ServiceReport`] compares **bit-for-bit equal** to the in-process
//! value it was encoded from (the daemon's headline acceptance
//! property).

use std::sync::Arc;

use qucp_circuit::{Circuit, Gate};
use qucp_core::ProgramResult;
use qucp_runtime::{
    BatchReport, CalibrationFault, DeviceReport, Event, JobRequest, JobResult, JobTicket,
    QueueStats, RouteCacheStats, RoutingChoice, RuntimeError, ServiceReport, ShotParallelism,
    ShrinkReason, TrajectoryKernel,
};
use qucp_sim::Counts;

use crate::wire::{self, wire_enum, wire_struct, Decoder, Encoder, Wire, WireError};

/// Connect-time magic: the ASCII bytes `QCPD`, little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"QCPD");

/// Newest protocol version this build speaks.
///
/// Version history:
/// - **1** — the initial catalog (HELLO through SHUTDOWN).
/// - **2** — appends the per-ticket claim pair
///   ([`Request::TakeResult`] / [`Response::Taken`], tags
///   `0x08`/`0x88`) and the optional per-job routing override on the
///   [`JobRequest`] wire form. Existing tags and fields are untouched
///   (frozen-tag rule: new variants append, existing numbers never
///   change).
/// - **3** — appends the route-cache introspection pair
///   ([`Request::CacheStats`] / [`Response::CacheStats`], tags
///   `0x09`/`0x89`). The stats payload carries the four v2-era probe
///   counters followed by four *optional trailing* plan-cache counters
///   (`plan_hits`, `plan_misses`, `plan_entries`, `plan_invalidated`):
///   a decoder that sees the payload end after the probe counters
///   reads the plan counters as zero, so a v3 client can talk to a
///   peer that never learned the plan cache. Existing tags and fields
///   are untouched.
pub const PROTOCOL_VERSION: u16 = 3;

/// Oldest protocol version this build still accepts.
pub const MIN_SUPPORTED_VERSION: u16 = 1;

/// Negotiates the spoken version from a peer's advertised one: the
/// newest version both sides support, or `None` when the peer is too
/// old. (A peer *newer* than us is fine — it is expected to downgrade
/// to our [`PROTOCOL_VERSION`], exactly as we downgrade to its.)
pub fn negotiate(peer_version: u16) -> Option<u16> {
    (peer_version >= MIN_SUPPORTED_VERSION).then(|| peer_version.min(PROTOCOL_VERSION))
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The mandatory first message: magic plus the client's newest
    /// version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Submit a job; answered with [`Response::Ticket`].
    Submit(Box<JobRequest>),
    /// Advance the service clock to `now` (simulated ns); answered with
    /// [`Response::Completed`] listing the tickets that finished.
    Tick {
        /// The tick horizon (`+∞` drains, NaN is rejected server-side).
        now: f64,
    },
    /// Fetch one ticket's result, if its batch has run; answered with
    /// [`Response::JobReport`]. A non-consuming peek — the claim state
    /// is untouched (see [`Request::TakeResult`]).
    Report {
        /// The ticket [`Response::Ticket`] handed out.
        ticket: JobTicket,
    },
    /// Serve everything pending and return the drained
    /// [`Response::Report`].
    Drain,
    /// Claim one ticket's result **exactly once** (protocol version
    /// ≥ 2); answered with [`Response::Taken`]: `None` while the batch
    /// has not run and on every call after the first successful claim.
    /// The server's drained report is unchanged by claims — see
    /// `Service::take_result`.
    TakeResult {
        /// The ticket [`Response::Ticket`] handed out.
        ticket: JobTicket,
    },
    /// Fetch the telemetry log accumulated so far; answered with
    /// [`Response::Events`].
    Events,
    /// Drain in-flight work, answer with the final [`Response::Report`],
    /// then stop the daemon's accept loop.
    Shutdown,
    /// Fetch the service's cumulative route-cache counters (protocol
    /// version ≥ 3); answered with [`Response::CacheStats`]. A pure
    /// read — no scheduling state changes.
    CacheStats,
}

/// A server-to-client message. Exactly one is sent per [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted; both sides now speak `version`.
    HelloAck {
        /// The negotiated version (see [`negotiate`]).
        version: u16,
    },
    /// Receipt of an accepted submission.
    Ticket(JobTicket),
    /// Tickets whose batches completed by the tick horizon.
    Completed(Vec<JobTicket>),
    /// A ticket's result, or `None` while its batch has not run.
    JobReport(Option<Box<JobResult>>),
    /// A claimed result (protocol version ≥ 2): `Some` exactly once
    /// per ticket, `None` before completion and after the claim.
    Taken(Option<Box<JobResult>>),
    /// A drained service report.
    Report(Box<ServiceReport>),
    /// The telemetry log.
    Events(Vec<Event>),
    /// A typed error frame (the request failed; the connection stays
    /// usable unless the fault says otherwise).
    Error(Fault),
    /// The route-cache counters (protocol version ≥ 3). The plan-cache
    /// fields travel as optional trailing values — see the version-3
    /// history note on [`PROTOCOL_VERSION`].
    CacheStats(RouteCacheStats),
}

/// A typed server-side error frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The client's version predates [`MIN_SUPPORTED_VERSION`].
    UnsupportedVersion {
        /// What the client advertised.
        client: u16,
        /// Oldest version the server accepts.
        min: u16,
        /// Newest version the server speaks.
        max: u16,
    },
    /// A request arrived before the [`Request::Hello`] handshake.
    HandshakeRequired,
    /// The request frame's tag byte matched no known request.
    UnknownRequest {
        /// The offending tag.
        tag: u8,
    },
    /// The request frame failed to decode.
    MalformedRequest {
        /// The decoder's diagnosis, rendered.
        detail: String,
    },
    /// The service rejected the operation.
    Runtime(WireRuntimeError),
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::UnsupportedVersion { client, min, max } => write!(
                f,
                "client protocol version {client} unsupported (server speaks {min}..={max})"
            ),
            Fault::HandshakeRequired => write!(f, "first message must be Hello"),
            Fault::UnknownRequest { tag } => write!(f, "unknown request tag {tag:#04x}"),
            Fault::MalformedRequest { detail } => write!(f, "malformed request: {detail}"),
            Fault::Runtime(e) => write!(f, "runtime error: {e}"),
            Fault::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<RuntimeError> for Fault {
    fn from(e: RuntimeError) -> Self {
        Fault::Runtime(e.map_source(|source| source.to_string()))
    }
}

/// [`RuntimeError`] as the wire carries it: every variant survives
/// typed, and the planning error inside `JobUnplaceable` / `Core` is
/// flattened to its rendered message, which keeps the protocol stable
/// while the planning pipeline grows variants.
pub type WireRuntimeError = RuntimeError<String>;

impl Request {
    /// Encodes the request as one frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode) into a buffer the caller keeps: `out`'s
    /// contents are replaced, its capacity is reused.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_into(self, out);
    }

    /// Decodes one frame payload, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        wire::decode(bytes)
    }
}

impl Response {
    /// Encodes the response as one frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode) into a buffer the caller keeps: `out`'s
    /// contents are replaced, its capacity is reused.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_into(self, out);
    }

    /// Decodes one frame payload, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        wire::decode(bytes)
    }
}

// ---------------------------------------------------------------------------
// The layouts. One declaration per type; messages compose them. Tag
// values are frozen: new variants append, existing numbers never
// change (that is what the protocol version is for).
// ---------------------------------------------------------------------------

// Request tags occupy 0x01..=0x7f, response tags 0x81..=0xff.
wire_enum! {
    Request: "Request",
    0x01 => [Magic] Hello { version: u16 },
    0x02 => Submit(job: Box<JobRequest>),
    0x03 => Tick { now: f64 },
    0x04 => Report { ticket: JobTicket },
    0x05 => Drain,
    0x06 => Events,
    0x07 => Shutdown,
    0x08 => TakeResult { ticket: JobTicket },
    0x09 => CacheStats,
}

wire_enum! {
    Response: "Response",
    0x81 => [Magic] HelloAck { version: u16 },
    0x82 => Ticket(ticket: JobTicket),
    0x83 => Completed(tickets: Vec<JobTicket>),
    0x84 => JobReport(result: Option<Box<JobResult>>),
    0x85 => Report(report: Box<ServiceReport>),
    0x86 => Events(events: Vec<Event>),
    0x87 => Error(fault: Fault),
    0x88 => Taken(result: Option<Box<JobResult>>),
    0x89 => CacheStats(stats: RouteCacheStats),
}

/// The four bytes `QCPD` ahead of a handshake's version: anything else
/// is not a peer of this protocol.
#[derive(Default)]
struct Magic;

impl Wire for Magic {
    const MIN_BYTES: usize = 4;
    fn put(&self, e: &mut Encoder) {
        e.u32(MAGIC);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u32()? {
            MAGIC => Ok(Magic),
            got => Err(WireError::BadMagic { got }),
        }
    }
}

wire_enum! {
    Fault: "Fault",
    0 => UnsupportedVersion { client: u16, min: u16, max: u16 },
    1 => HandshakeRequired,
    2 => UnknownRequest { tag: u8 },
    3 => MalformedRequest { detail: String },
    4 => Runtime(error: WireRuntimeError),
    5 => ShuttingDown,
}

wire_enum! {
    WireRuntimeError: "RuntimeError",
    0 => ZeroParallel,
    1 => NoDevices,
    2 => ZeroShots,
    3 => EmptyCircuit,
    4 => NonFiniteTime { value: f64 },
    5 => InvalidThreshold { value: f64 },
    6 => InvalidCalibration { device: String, fault: CalibrationFault },
    7 => DriftHorizonTooFar { steps: u64, max: u64 },
    8 => JobUnplaceable { job_id: u64, source: String },
    9 => Core(source: String),
    10 => QueueCorrupted { seq: usize },
    11 => InvalidStrategy { value: f64 },
}

wire_enum! {
    CalibrationFault: "CalibrationFault",
    0 => NonFinite,
    1 => QubitCountMismatch { expected: usize, got: usize },
    2 => MissingLinks,
    3 => OutOfRange,
}

/// The fields in order, with a one-byte slot after the shot budget,
/// the retired per-job strategy's, kept so that every frame keeps its
/// bytes: always sent empty (`0`). A request that fills it (`1`) names
/// a strategy other than the service's, which no service runs: it is
/// refused as an invalid value, before anything after it is read.
impl Wire for JobRequest {
    const MIN_BYTES: usize = Circuit::MIN_BYTES
        + f64::MIN_BYTES
        + Option::<u64>::MIN_BYTES
        + Option::<usize>::MIN_BYTES
        + 1
        + Option::<f64>::MIN_BYTES
        + Option::<ShotParallelism>::MIN_BYTES
        + Option::<TrajectoryKernel>::MIN_BYTES
        + Option::<RoutingChoice>::MIN_BYTES;

    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.circuit.put(e);
        self.arrival.put(e);
        self.id.put(e);
        self.shots.put(e);
        e.u8(0);
        self.fidelity_threshold.put(e);
        self.shot_parallelism.put(e);
        self.trajectory_kernel.put(e);
        self.routing.put(e);
    }

    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let (circuit, arrival) = (Wire::get(d)?, Wire::get(d)?);
        let (id, shots) = (Wire::get(d)?, Wire::get(d)?);
        match d.u8()? {
            0 => {}
            1 => {
                return Err(WireError::InvalidValue {
                    context: "JobRequest::strategy",
                })
            }
            tag => {
                return Err(WireError::UnknownTag {
                    context: "option",
                    tag,
                })
            }
        }
        Ok(JobRequest {
            circuit,
            arrival,
            id,
            shots,
            fidelity_threshold: Wire::get(d)?,
            shot_parallelism: Wire::get(d)?,
            trajectory_kernel: Wire::get(d)?,
            routing: Wire::get(d)?,
        })
    }
}

impl Wire for Circuit {
    const MIN_BYTES: usize = usize::MIN_BYTES + String::MIN_BYTES + Vec::<Gate>::MIN_BYTES;

    fn put(&self, e: &mut Encoder) {
        e.usize(self.width());
        e.str(self.name());
        e.usize(self.gates().len());
        for gate in self.gates() {
            gate.put(e);
        }
    }

    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let width = d.usize()?;
        let name = d.str()?;
        // `seq_len` has bounded the count by the bytes left, so the
        // circuit is sized once for it.
        let gates = d.seq_len::<Gate>()?;
        let mut circuit = Circuit::with_name(width, name);
        circuit.reserve(gates);
        for _ in 0..gates {
            // `try_push` re-validates operands against the register, so
            // a forged frame cannot smuggle an out-of-range or
            // self-looped gate past the library invariants.
            circuit
                .try_push(Gate::get(d)?)
                .map_err(|_| WireError::InvalidValue { context: "Circuit" })?;
        }
        Ok(circuit)
    }
}

wire_enum! {
    Gate: "Gate",
    0 => I(q: usize),
    1 => X(q: usize),
    2 => Y(q: usize),
    3 => Z(q: usize),
    4 => H(q: usize),
    5 => S(q: usize),
    6 => Sdg(q: usize),
    7 => T(q: usize),
    8 => Tdg(q: usize),
    9 => Sx(q: usize),
    10 => Sxdg(q: usize),
    11 => Rx(q: usize, angle: f64),
    12 => Ry(q: usize, angle: f64),
    13 => Rz(q: usize, angle: f64),
    14 => P(q: usize, angle: f64),
    15 => U(q: usize, theta: f64, phi: f64, lambda: f64),
    16 => Cx(control: usize, target: usize),
    17 => Cz(a: usize, b: usize),
    18 => Cp(a: usize, b: usize, angle: f64),
    19 => Swap(a: usize, b: usize),
}

wire_enum! {
    ShotParallelism: "ShotParallelism",
    0 => Serial,
    1 => Sharded { shards: usize, threads: usize },
    2 => Auto,
}

wire_enum! {
    TrajectoryKernel: "TrajectoryKernel",
    0 => Replay,
    1 => SurvivalSkip,
}

wire_enum! {
    RoutingChoice: "RoutingChoice",
    0 => EarliestFree,
    1 => CalibrationAware { pressure_per_ns: f64 },
}

wire_struct!(JobTicket {
    seq: usize,
    id: u64
});

wire_struct!(ServiceReport {
    stats: QueueStats,
    per_device: Vec<DeviceReport>,
    batches: Vec<BatchReport>,
    job_results: Vec<JobResult>,
    events: Vec<Event>,
    dropped_events: usize,
});

wire_struct!(QueueStats {
    mean_waiting: f64,
    mean_turnaround: f64,
    makespan: f64,
    mean_throughput: f64,
    batches: usize,
});

wire_struct!(DeviceReport {
    device: String,
    jobs: usize,
    stats: QueueStats,
});

wire_struct!(BatchReport {
    batch_index: usize,
    device: String,
    job_ids: Arc<[u64]>,
    start: f64,
    completion: f64,
    makespan: f64,
    used_qubits: usize,
    conflict_count: usize,
});

wire_struct!(JobResult {
    job_id: u64,
    batch_index: usize,
    start: f64,
    completion: f64,
    waiting: f64,
    turnaround: f64,
    result: Arc<ProgramResult>,
});

wire_struct!(ProgramResult {
    name: String,
    partition: Vec<usize>,
    efs: f64,
    swap_count: usize,
    counts: Counts,
    pst: Option<f64>,
    jsd: f64,
});

/// The register width, then the `(outcome, count)` pairs of
/// [`Counts::iter`] as a sequence.
impl Wire for Counts {
    const MIN_BYTES: usize = usize::MIN_BYTES + Vec::<(usize, usize)>::MIN_BYTES;

    fn put(&self, e: &mut Encoder) {
        e.usize(self.width());
        e.usize(self.len());
        for entry in self.iter() {
            entry.put(e);
        }
    }

    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let width = d.usize()?;
        // `seq_len` has checked that the bytes hold `len` entries, so
        // they are read into one vector of exactly that length, which
        // `from_entries` keeps: it rejects an outcome outside the
        // register, a repeated outcome, a zero count and a shot total
        // that overflows. An entry that does not fit a `usize` (never
        // on a 64-bit host) is the error.
        let len = d.seq_len::<(usize, usize)>()?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push(<(usize, usize)>::get(d)?);
        }
        Counts::from_entries(width, entries).ok_or(WireError::InvalidValue { context: "Counts" })
    }
}

wire_enum! {
    Event: "Event",
    0 => JobSubmitted { job_id: u64, seq: usize, arrival: f64, width: usize, shots: usize },
    1 => BatchRouted {
        batch_index: usize,
        device: Arc<str>,
        policy: Arc<str>,
        score: f64,
        start: f64,
        candidates: usize
    },
    2 => BatchPlanned {
        batch_index: usize,
        device: Arc<str>,
        job_ids: Arc<[u64]>,
        start: f64,
        makespan: f64
    },
    3 => BatchShrunk {
        batch_index: usize,
        device: Arc<str>,
        dropped_job_id: u64,
        remaining: usize,
        reason: ShrinkReason
    },
    4 => DeviceRecalibrated { device: Arc<str>, epoch: u64 },
    5 => JobCompleted {
        job_id: u64,
        seq: usize,
        batch_index: usize,
        completion: f64,
        turnaround: f64
    },
}

wire_enum! {
    ShrinkReason: "ShrinkReason",
    0 => PartitionFailure,
    1 => FidelityGate,
}

impl Wire for RouteCacheStats {
    /// The four probe counters of the frozen v3 base.
    const MIN_BYTES: usize = 4 * usize::MIN_BYTES;

    fn put(&self, e: &mut Encoder) {
        // The plan-cache counters append after the base as optional
        // trailing fields. Any future appendix must extend *after*
        // these, whole or absent.
        for counter in [
            self.hits,
            self.misses,
            self.entries,
            self.invalidated,
            self.plan_hits,
            self.plan_misses,
            self.plan_entries,
            self.plan_invalidated,
        ] {
            e.usize(counter);
        }
    }

    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut stats = RouteCacheStats {
            hits: d.usize()?,
            misses: d.usize()?,
            entries: d.usize()?,
            invalidated: d.usize()?,
            ..RouteCacheStats::default()
        };
        // A peer that predates the plan cache stops after the probe
        // counters; its plan cache is trivially empty. One that goes
        // on sends all four.
        if d.remaining() > 0 {
            stats.plan_hits = d.usize()?;
            stats.plan_misses = d.usize()?;
            stats.plan_entries = d.usize()?;
            stats.plan_invalidated = d.usize()?;
        }
        Ok(stats)
    }
}
