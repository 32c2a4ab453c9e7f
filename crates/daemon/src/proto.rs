//! The versioned message catalog: typed requests, responses and error
//! frames, with bit-exact ser/de for every runtime type that crosses
//! the wire.
//!
//! See the crate docs for the frame layout and version-negotiation
//! rules. Every `decode` in this module is total over arbitrary bytes:
//! malformed input maps onto a typed [`WireError`], never a panic —
//! the decoding paths are written for attacker-controlled sockets.
//! Floating-point fields travel as IEEE-754 bit patterns, so a decoded
//! [`ServiceReport`] compares **bit-for-bit equal** to the in-process
//! value it was encoded from (the daemon's headline acceptance
//! property).

use qucp_circuit::{Circuit, Gate};
use qucp_core::queue::QueueStats;
use qucp_core::{CrosstalkTreatment, PartitionPolicy, ProgramResult, Strategy};
use qucp_device::{Link, LinkPair};
use qucp_runtime::{
    BatchReport, CalibrationFault, DeviceReport, Event, JobRequest, JobResult, JobTicket,
    RouteCacheStats, RoutingChoice, RuntimeError, ServiceReport, ShotParallelism, ShrinkReason,
    TrajectoryKernel,
};
use qucp_sim::Counts;

use crate::wire::{Decoder, Encoder, WireError};

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
        Fault::Runtime((&e).into())
    }
}

/// The wire projection of [`RuntimeError`]: every service-level variant
/// survives typed; planning/backend errors (`CoreError`) are flattened
/// to their rendered message, which keeps the protocol stable while
/// the planning pipeline grows variants.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRuntimeError {
    /// See [`RuntimeError::ZeroParallel`].
    ZeroParallel,
    /// See [`RuntimeError::NoDevices`].
    NoDevices,
    /// See [`RuntimeError::ZeroShots`].
    ZeroShots,
    /// See [`RuntimeError::EmptyCircuit`].
    EmptyCircuit,
    /// See [`RuntimeError::NonFiniteTime`].
    NonFiniteTime {
        /// The offending value (NaN round-trips bit-for-bit).
        value: f64,
    },
    /// See [`RuntimeError::InvalidThreshold`].
    InvalidThreshold {
        /// The offending value.
        value: f64,
    },
    /// See [`RuntimeError::InvalidCalibration`].
    InvalidCalibration {
        /// Device the snapshot was meant for.
        device: String,
        /// What disqualified it.
        fault: WireCalibrationFault,
    },
    /// See [`RuntimeError::DriftHorizonTooFar`].
    DriftHorizonTooFar {
        /// Steps the advance would apply per device.
        steps: u64,
        /// The per-advance bound.
        max: u64,
    },
    /// See [`RuntimeError::JobUnplaceable`].
    JobUnplaceable {
        /// The job's identifier.
        job_id: u64,
        /// The planning error, rendered.
        detail: String,
    },
    /// See [`RuntimeError::Core`].
    Core {
        /// The pipeline error, rendered.
        detail: String,
    },
    /// See [`RuntimeError::QueueCorrupted`].
    QueueCorrupted {
        /// The vanished job's submission sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for WireRuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireRuntimeError::ZeroParallel => write!(f, "max_parallel must be positive"),
            WireRuntimeError::NoDevices => {
                write!(f, "at least one device must be registered")
            }
            WireRuntimeError::ZeroShots => write!(f, "shot budget must be positive"),
            WireRuntimeError::EmptyCircuit => {
                write!(f, "cannot schedule a zero-width circuit")
            }
            WireRuntimeError::NonFiniteTime { value } => {
                write!(f, "invalid time {value}")
            }
            WireRuntimeError::InvalidThreshold { value } => {
                write!(f, "fidelity threshold must be finite and >= 0, got {value}")
            }
            WireRuntimeError::InvalidCalibration { device, fault } => {
                write!(f, "recalibration of {device} rejected: {fault:?}")
            }
            WireRuntimeError::DriftHorizonTooFar { steps, max } => {
                write!(f, "advance_drift would apply {steps} steps (bound: {max})")
            }
            WireRuntimeError::JobUnplaceable { job_id, detail } => {
                write!(f, "job {job_id} cannot be placed: {detail}")
            }
            WireRuntimeError::Core { detail } => write!(f, "pipeline failed: {detail}"),
            WireRuntimeError::QueueCorrupted { seq } => {
                write!(
                    f,
                    "pending queue corrupted: job seq {seq} vanished from the store"
                )
            }
        }
    }
}

/// The wire projection of [`CalibrationFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCalibrationFault {
    /// See [`CalibrationFault::NonFinite`].
    NonFinite,
    /// See [`CalibrationFault::QubitCountMismatch`].
    QubitCountMismatch {
        /// Qubits the device has.
        expected: u64,
        /// Qubits the snapshot calibrates.
        got: u64,
    },
    /// See [`CalibrationFault::MissingLinks`].
    MissingLinks,
}

impl From<&RuntimeError> for WireRuntimeError {
    fn from(e: &RuntimeError) -> Self {
        match e {
            RuntimeError::ZeroParallel => WireRuntimeError::ZeroParallel,
            RuntimeError::NoDevices => WireRuntimeError::NoDevices,
            RuntimeError::ZeroShots => WireRuntimeError::ZeroShots,
            RuntimeError::EmptyCircuit => WireRuntimeError::EmptyCircuit,
            RuntimeError::NonFiniteTime { value } => {
                WireRuntimeError::NonFiniteTime { value: *value }
            }
            RuntimeError::InvalidThreshold { value } => {
                WireRuntimeError::InvalidThreshold { value: *value }
            }
            RuntimeError::InvalidCalibration { device, fault } => {
                WireRuntimeError::InvalidCalibration {
                    device: device.clone(),
                    fault: match fault {
                        CalibrationFault::NonFinite => WireCalibrationFault::NonFinite,
                        CalibrationFault::QubitCountMismatch { expected, got } => {
                            WireCalibrationFault::QubitCountMismatch {
                                expected: *expected as u64,
                                got: *got as u64,
                            }
                        }
                        CalibrationFault::MissingLinks => WireCalibrationFault::MissingLinks,
                    },
                }
            }
            RuntimeError::DriftHorizonTooFar { steps, max } => {
                WireRuntimeError::DriftHorizonTooFar {
                    steps: *steps,
                    max: *max,
                }
            }
            RuntimeError::JobUnplaceable { job_id, source } => WireRuntimeError::JobUnplaceable {
                job_id: *job_id,
                detail: source.to_string(),
            },
            RuntimeError::Core(source) => WireRuntimeError::Core {
                detail: source.to_string(),
            },
            RuntimeError::QueueCorrupted { seq } => {
                WireRuntimeError::QueueCorrupted { seq: *seq as u64 }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Domain-type ser/de.
//
// Each `put_x`/`get_x` pair is the single source of truth for type `x`'s
// wire layout; messages compose them. Enum tag values are frozen: new
// variants append, existing numbers never change (that is what the
// protocol version is for).
// ---------------------------------------------------------------------------

fn put_gate(e: &mut Encoder, gate: &Gate) {
    fn one(e: &mut Encoder, tag: u8, q: usize) {
        e.u8(tag);
        e.usize(q);
    }
    match *gate {
        Gate::I(q) => one(e, 0, q),
        Gate::X(q) => one(e, 1, q),
        Gate::Y(q) => one(e, 2, q),
        Gate::Z(q) => one(e, 3, q),
        Gate::H(q) => one(e, 4, q),
        Gate::S(q) => one(e, 5, q),
        Gate::Sdg(q) => one(e, 6, q),
        Gate::T(q) => one(e, 7, q),
        Gate::Tdg(q) => one(e, 8, q),
        Gate::Sx(q) => one(e, 9, q),
        Gate::Sxdg(q) => one(e, 10, q),
        Gate::Rx(q, a) => {
            one(e, 11, q);
            e.f64(a);
        }
        Gate::Ry(q, a) => {
            one(e, 12, q);
            e.f64(a);
        }
        Gate::Rz(q, a) => {
            one(e, 13, q);
            e.f64(a);
        }
        Gate::P(q, a) => {
            one(e, 14, q);
            e.f64(a);
        }
        Gate::U(q, t, p, l) => {
            one(e, 15, q);
            e.f64(t);
            e.f64(p);
            e.f64(l);
        }
        Gate::Cx(a, b) => {
            one(e, 16, a);
            e.usize(b);
        }
        Gate::Cz(a, b) => {
            one(e, 17, a);
            e.usize(b);
        }
        Gate::Cp(a, b, t) => {
            one(e, 18, a);
            e.usize(b);
            e.f64(t);
        }
        Gate::Swap(a, b) => {
            one(e, 19, a);
            e.usize(b);
        }
    }
}

fn get_gate(d: &mut Decoder<'_>) -> Result<Gate, WireError> {
    let tag = d.u8()?;
    Ok(match tag {
        0 => Gate::I(d.usize()?),
        1 => Gate::X(d.usize()?),
        2 => Gate::Y(d.usize()?),
        3 => Gate::Z(d.usize()?),
        4 => Gate::H(d.usize()?),
        5 => Gate::S(d.usize()?),
        6 => Gate::Sdg(d.usize()?),
        7 => Gate::T(d.usize()?),
        8 => Gate::Tdg(d.usize()?),
        9 => Gate::Sx(d.usize()?),
        10 => Gate::Sxdg(d.usize()?),
        11 => Gate::Rx(d.usize()?, d.f64()?),
        12 => Gate::Ry(d.usize()?, d.f64()?),
        13 => Gate::Rz(d.usize()?, d.f64()?),
        14 => Gate::P(d.usize()?, d.f64()?),
        15 => Gate::U(d.usize()?, d.f64()?, d.f64()?, d.f64()?),
        16 => Gate::Cx(d.usize()?, d.usize()?),
        17 => Gate::Cz(d.usize()?, d.usize()?),
        18 => Gate::Cp(d.usize()?, d.usize()?, d.f64()?),
        19 => Gate::Swap(d.usize()?, d.usize()?),
        tag => {
            return Err(WireError::UnknownTag {
                context: "Gate",
                tag,
            })
        }
    })
}

fn put_circuit(e: &mut Encoder, c: &Circuit) {
    e.usize(c.width());
    e.str(c.name());
    e.seq(c.gates(), put_gate);
}

fn get_circuit(d: &mut Decoder<'_>) -> Result<Circuit, WireError> {
    let width = d.usize()?;
    let name = d.str()?;
    let mut circuit = Circuit::with_name(width, name);
    let n = d.seq_len(2)?;
    for _ in 0..n {
        let gate = get_gate(d)?;
        // `try_push` re-validates operands against the register, so a
        // forged frame cannot smuggle an out-of-range or self-looped
        // gate past the library invariants.
        circuit
            .try_push(gate)
            .map_err(|_| WireError::InvalidValue { context: "Circuit" })?;
    }
    Ok(circuit)
}

fn put_link_pair(e: &mut Encoder, pair: &LinkPair) {
    e.usize(pair.first().low());
    e.usize(pair.first().high());
    e.usize(pair.second().low());
    e.usize(pair.second().high());
}

fn get_link_pair(d: &mut Decoder<'_>) -> Result<LinkPair, WireError> {
    let (a_low, a_high) = (d.usize()?, d.usize()?);
    let (b_low, b_high) = (d.usize()?, d.usize()?);
    if a_low == a_high || b_low == b_high {
        return Err(WireError::InvalidValue {
            context: "LinkPair",
        });
    }
    Ok(LinkPair::new(
        Link::new(a_low, a_high),
        Link::new(b_low, b_high),
    ))
}

fn put_crosstalk_treatment(e: &mut Encoder, t: &CrosstalkTreatment) {
    match t {
        CrosstalkTreatment::None => e.u8(0),
        CrosstalkTreatment::Sigma(sigma) => {
            e.u8(1);
            e.f64(*sigma);
        }
        CrosstalkTreatment::Measured(map) => {
            e.u8(2);
            e.usize(map.len());
            for (pair, ratio) in map {
                put_link_pair(e, pair);
                e.f64(*ratio);
            }
        }
    }
}

fn get_crosstalk_treatment(d: &mut Decoder<'_>) -> Result<CrosstalkTreatment, WireError> {
    Ok(match d.u8()? {
        0 => CrosstalkTreatment::None,
        1 => CrosstalkTreatment::Sigma(d.f64()?),
        2 => {
            let n = d.seq_len(40)?;
            let mut map = std::collections::BTreeMap::new();
            for _ in 0..n {
                let pair = get_link_pair(d)?;
                let ratio = d.f64()?;
                if map.insert(pair, ratio).is_some() {
                    return Err(WireError::InvalidValue {
                        context: "CrosstalkTreatment::Measured",
                    });
                }
            }
            CrosstalkTreatment::Measured(map)
        }
        tag => {
            return Err(WireError::UnknownTag {
                context: "CrosstalkTreatment",
                tag,
            })
        }
    })
}

fn put_strategy(e: &mut Encoder, s: &Strategy) {
    e.str(&s.name);
    match &s.partition {
        PartitionPolicy::NoiseAware(t) => {
            e.u8(0);
            put_crosstalk_treatment(e, t);
        }
        PartitionPolicy::TopologyGreedy => e.u8(1),
        PartitionPolicy::FidelityDegree => e.u8(2),
    }
    e.bool(s.crosstalk_aware_routing);
    e.bool(s.serialize_conflicts);
}

fn get_strategy(d: &mut Decoder<'_>) -> Result<Strategy, WireError> {
    let name = d.str()?;
    let partition = match d.u8()? {
        0 => PartitionPolicy::NoiseAware(get_crosstalk_treatment(d)?),
        1 => PartitionPolicy::TopologyGreedy,
        2 => PartitionPolicy::FidelityDegree,
        tag => {
            return Err(WireError::UnknownTag {
                context: "PartitionPolicy",
                tag,
            })
        }
    };
    Ok(Strategy {
        name,
        partition,
        crosstalk_aware_routing: d.bool()?,
        serialize_conflicts: d.bool()?,
    })
}

fn put_shot_parallelism(e: &mut Encoder, p: &ShotParallelism) {
    match *p {
        ShotParallelism::Serial => e.u8(0),
        ShotParallelism::Sharded { shards, threads } => {
            e.u8(1);
            e.usize(shards);
            e.usize(threads);
        }
        ShotParallelism::Auto => e.u8(2),
    }
}

fn get_shot_parallelism(d: &mut Decoder<'_>) -> Result<ShotParallelism, WireError> {
    Ok(match d.u8()? {
        0 => ShotParallelism::Serial,
        1 => ShotParallelism::Sharded {
            shards: d.usize()?,
            threads: d.usize()?,
        },
        2 => ShotParallelism::Auto,
        tag => {
            return Err(WireError::UnknownTag {
                context: "ShotParallelism",
                tag,
            })
        }
    })
}

fn put_trajectory_kernel(e: &mut Encoder, k: &TrajectoryKernel) {
    match k {
        TrajectoryKernel::Replay => e.u8(0),
        TrajectoryKernel::SurvivalSkip => e.u8(1),
    }
}

fn get_trajectory_kernel(d: &mut Decoder<'_>) -> Result<TrajectoryKernel, WireError> {
    Ok(match d.u8()? {
        0 => TrajectoryKernel::Replay,
        1 => TrajectoryKernel::SurvivalSkip,
        tag => {
            return Err(WireError::UnknownTag {
                context: "TrajectoryKernel",
                tag,
            })
        }
    })
}

fn put_routing_choice(e: &mut Encoder, c: &RoutingChoice) {
    match c {
        RoutingChoice::EarliestFree => e.u8(0),
        RoutingChoice::CalibrationAware { pressure_per_ns } => {
            e.u8(1);
            e.f64(*pressure_per_ns);
        }
    }
}

fn get_routing_choice(d: &mut Decoder<'_>) -> Result<RoutingChoice, WireError> {
    Ok(match d.u8()? {
        0 => RoutingChoice::EarliestFree,
        1 => RoutingChoice::CalibrationAware {
            pressure_per_ns: d.f64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "RoutingChoice",
                tag,
            })
        }
    })
}

fn put_job_request(e: &mut Encoder, r: &JobRequest) {
    put_circuit(e, &r.circuit);
    e.f64(r.arrival);
    e.option(&r.id, |e, v| e.u64(*v));
    e.option(&r.shots, |e, v| e.usize(*v));
    e.option(&r.strategy, put_strategy);
    e.option(&r.fidelity_threshold, |e, v| e.f64(*v));
    e.option(&r.shot_parallelism, put_shot_parallelism);
    e.option(&r.trajectory_kernel, put_trajectory_kernel);
    e.option(&r.routing, put_routing_choice);
}

fn get_job_request(d: &mut Decoder<'_>) -> Result<JobRequest, WireError> {
    Ok(JobRequest {
        circuit: get_circuit(d)?,
        arrival: d.f64()?,
        id: d.option(|d| d.u64())?,
        shots: d.option(|d| d.usize())?,
        strategy: d.option(get_strategy)?,
        fidelity_threshold: d.option(|d| d.f64())?,
        shot_parallelism: d.option(get_shot_parallelism)?,
        trajectory_kernel: d.option(get_trajectory_kernel)?,
        routing: d.option(get_routing_choice)?,
    })
}

fn put_ticket(e: &mut Encoder, t: &JobTicket) {
    e.usize(t.seq);
    e.u64(t.id);
}

fn get_ticket(d: &mut Decoder<'_>) -> Result<JobTicket, WireError> {
    Ok(JobTicket {
        seq: d.usize()?,
        id: d.u64()?,
    })
}

fn put_queue_stats(e: &mut Encoder, s: &QueueStats) {
    e.f64(s.mean_waiting);
    e.f64(s.mean_turnaround);
    e.f64(s.makespan);
    e.f64(s.mean_throughput);
    e.usize(s.batches);
}

fn get_queue_stats(d: &mut Decoder<'_>) -> Result<QueueStats, WireError> {
    Ok(QueueStats {
        mean_waiting: d.f64()?,
        mean_turnaround: d.f64()?,
        makespan: d.f64()?,
        mean_throughput: d.f64()?,
        batches: d.usize()?,
    })
}

fn put_device_report(e: &mut Encoder, r: &DeviceReport) {
    e.str(&r.device);
    e.usize(r.jobs);
    put_queue_stats(e, &r.stats);
}

fn get_device_report(d: &mut Decoder<'_>) -> Result<DeviceReport, WireError> {
    Ok(DeviceReport {
        device: d.str()?,
        jobs: d.usize()?,
        stats: get_queue_stats(d)?,
    })
}

fn put_batch_report(e: &mut Encoder, r: &BatchReport) {
    e.usize(r.batch_index);
    e.str(&r.device);
    e.seq(&r.job_ids, |e, id| e.u64(*id));
    e.f64(r.start);
    e.f64(r.completion);
    e.f64(r.makespan);
    e.usize(r.used_qubits);
    e.usize(r.conflict_count);
}

fn get_batch_report(d: &mut Decoder<'_>) -> Result<BatchReport, WireError> {
    Ok(BatchReport {
        batch_index: d.usize()?,
        device: d.str()?,
        job_ids: d.seq(8, |d| d.u64())?,
        start: d.f64()?,
        completion: d.f64()?,
        makespan: d.f64()?,
        used_qubits: d.usize()?,
        conflict_count: d.usize()?,
    })
}

fn put_counts(e: &mut Encoder, c: &Counts) {
    e.usize(c.width());
    let entries: Vec<(usize, usize)> = c.iter().collect();
    e.seq(&entries, |e, &(idx, n)| {
        e.usize(idx);
        e.usize(n);
    });
}

fn get_counts(d: &mut Decoder<'_>) -> Result<Counts, WireError> {
    let width = d.usize()?;
    let entries = d.seq(16, |d| Ok((d.usize()?, d.usize()?)))?;
    Counts::from_entries(width, entries).ok_or(WireError::InvalidValue { context: "Counts" })
}

fn put_program_result(e: &mut Encoder, r: &ProgramResult) {
    e.str(&r.name);
    e.seq(&r.partition, |e, q| e.usize(*q));
    e.f64(r.efs);
    e.usize(r.swap_count);
    put_counts(e, &r.counts);
    e.option(&r.pst, |e, v| e.f64(*v));
    e.f64(r.jsd);
}

fn get_program_result(d: &mut Decoder<'_>) -> Result<ProgramResult, WireError> {
    Ok(ProgramResult {
        name: d.str()?,
        partition: d.seq(8, |d| d.usize())?,
        efs: d.f64()?,
        swap_count: d.usize()?,
        counts: get_counts(d)?,
        pst: d.option(|d| d.f64())?,
        jsd: d.f64()?,
    })
}

fn put_job_result(e: &mut Encoder, r: &JobResult) {
    e.u64(r.job_id);
    e.usize(r.batch_index);
    e.f64(r.start);
    e.f64(r.completion);
    e.f64(r.waiting);
    e.f64(r.turnaround);
    put_program_result(e, &r.result);
}

fn get_job_result(d: &mut Decoder<'_>) -> Result<JobResult, WireError> {
    Ok(JobResult {
        job_id: d.u64()?,
        batch_index: d.usize()?,
        start: d.f64()?,
        completion: d.f64()?,
        waiting: d.f64()?,
        turnaround: d.f64()?,
        result: get_program_result(d)?,
    })
}

fn put_shrink_reason(e: &mut Encoder, r: &ShrinkReason) {
    match r {
        ShrinkReason::PartitionFailure => e.u8(0),
        ShrinkReason::FidelityGate => e.u8(1),
    }
}

fn get_shrink_reason(d: &mut Decoder<'_>) -> Result<ShrinkReason, WireError> {
    Ok(match d.u8()? {
        0 => ShrinkReason::PartitionFailure,
        1 => ShrinkReason::FidelityGate,
        tag => {
            return Err(WireError::UnknownTag {
                context: "ShrinkReason",
                tag,
            })
        }
    })
}

fn put_event(e: &mut Encoder, event: &Event) {
    match event {
        Event::JobSubmitted {
            job_id,
            seq,
            arrival,
            width,
            shots,
        } => {
            e.u8(0);
            e.u64(*job_id);
            e.usize(*seq);
            e.f64(*arrival);
            e.usize(*width);
            e.usize(*shots);
        }
        Event::BatchRouted {
            batch_index,
            device,
            policy,
            score,
            start,
            candidates,
        } => {
            e.u8(1);
            e.usize(*batch_index);
            e.str(device);
            e.str(policy);
            e.f64(*score);
            e.f64(*start);
            e.usize(*candidates);
        }
        Event::BatchPlanned {
            batch_index,
            device,
            job_ids,
            start,
            makespan,
        } => {
            e.u8(2);
            e.usize(*batch_index);
            e.str(device);
            e.seq(job_ids, |e, id| e.u64(*id));
            e.f64(*start);
            e.f64(*makespan);
        }
        Event::BatchShrunk {
            batch_index,
            device,
            dropped_job_id,
            remaining,
            reason,
        } => {
            e.u8(3);
            e.usize(*batch_index);
            e.str(device);
            e.u64(*dropped_job_id);
            e.usize(*remaining);
            put_shrink_reason(e, reason);
        }
        Event::DeviceRecalibrated { device, epoch } => {
            e.u8(4);
            e.str(device);
            e.u64(*epoch);
        }
        Event::JobCompleted {
            job_id,
            seq,
            batch_index,
            completion,
            turnaround,
        } => {
            e.u8(5);
            e.u64(*job_id);
            e.usize(*seq);
            e.usize(*batch_index);
            e.f64(*completion);
            e.f64(*turnaround);
        }
    }
}

fn get_event(d: &mut Decoder<'_>) -> Result<Event, WireError> {
    Ok(match d.u8()? {
        0 => Event::JobSubmitted {
            job_id: d.u64()?,
            seq: d.usize()?,
            arrival: d.f64()?,
            width: d.usize()?,
            shots: d.usize()?,
        },
        1 => Event::BatchRouted {
            batch_index: d.usize()?,
            device: d.str()?,
            policy: d.str()?,
            score: d.f64()?,
            start: d.f64()?,
            candidates: d.usize()?,
        },
        2 => Event::BatchPlanned {
            batch_index: d.usize()?,
            device: d.str()?,
            job_ids: d.seq(8, |d| d.u64())?,
            start: d.f64()?,
            makespan: d.f64()?,
        },
        3 => Event::BatchShrunk {
            batch_index: d.usize()?,
            device: d.str()?,
            dropped_job_id: d.u64()?,
            remaining: d.usize()?,
            reason: get_shrink_reason(d)?,
        },
        4 => Event::DeviceRecalibrated {
            device: d.str()?,
            epoch: d.u64()?,
        },
        5 => Event::JobCompleted {
            job_id: d.u64()?,
            seq: d.usize()?,
            batch_index: d.usize()?,
            completion: d.f64()?,
            turnaround: d.f64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "Event",
                tag,
            })
        }
    })
}

fn put_service_report(e: &mut Encoder, r: &ServiceReport) {
    put_queue_stats(e, &r.stats);
    e.seq(&r.per_device, put_device_report);
    e.seq(&r.batches, put_batch_report);
    e.seq(&r.job_results, put_job_result);
    e.seq(&r.events, put_event);
    e.usize(r.dropped_events);
}

fn get_service_report(d: &mut Decoder<'_>) -> Result<ServiceReport, WireError> {
    Ok(ServiceReport {
        stats: get_queue_stats(d)?,
        per_device: d.seq(1, get_device_report)?,
        batches: d.seq(1, get_batch_report)?,
        job_results: d.seq(1, get_job_result)?,
        events: d.seq(1, get_event)?,
        dropped_events: d.usize()?,
    })
}

fn put_route_cache_stats(e: &mut Encoder, s: &RouteCacheStats) {
    // The four probe counters are the frozen v3 base; the plan-cache
    // counters append after them as optional trailing fields, so a
    // payload truncated after the base still decodes (plan fields read
    // as zero). Any future appendix must extend *after* these, whole
    // or absent.
    e.usize(s.hits);
    e.usize(s.misses);
    e.usize(s.entries);
    e.usize(s.invalidated);
    e.usize(s.plan_hits);
    e.usize(s.plan_misses);
    e.usize(s.plan_entries);
    e.usize(s.plan_invalidated);
}

fn get_route_cache_stats(d: &mut Decoder<'_>) -> Result<RouteCacheStats, WireError> {
    let hits = d.usize()?;
    let misses = d.usize()?;
    let entries = d.usize()?;
    let invalidated = d.usize()?;
    let (plan_hits, plan_misses, plan_entries, plan_invalidated) = if d.remaining() == 0 {
        // A peer that predates the plan cache stops after the probe
        // counters; its plan cache is trivially empty.
        (0, 0, 0, 0)
    } else {
        (d.usize()?, d.usize()?, d.usize()?, d.usize()?)
    };
    Ok(RouteCacheStats {
        hits,
        misses,
        entries,
        invalidated,
        plan_hits,
        plan_misses,
        plan_entries,
        plan_invalidated,
    })
}

fn put_calibration_fault(e: &mut Encoder, fault: &WireCalibrationFault) {
    match *fault {
        WireCalibrationFault::NonFinite => e.u8(0),
        WireCalibrationFault::QubitCountMismatch { expected, got } => {
            e.u8(1);
            e.u64(expected);
            e.u64(got);
        }
        WireCalibrationFault::MissingLinks => e.u8(2),
    }
}

fn get_calibration_fault(d: &mut Decoder<'_>) -> Result<WireCalibrationFault, WireError> {
    Ok(match d.u8()? {
        0 => WireCalibrationFault::NonFinite,
        1 => WireCalibrationFault::QubitCountMismatch {
            expected: d.u64()?,
            got: d.u64()?,
        },
        2 => WireCalibrationFault::MissingLinks,
        tag => {
            return Err(WireError::UnknownTag {
                context: "WireCalibrationFault",
                tag,
            })
        }
    })
}

fn put_runtime_error(e: &mut Encoder, err: &WireRuntimeError) {
    match err {
        WireRuntimeError::ZeroParallel => e.u8(0),
        WireRuntimeError::NoDevices => e.u8(1),
        WireRuntimeError::ZeroShots => e.u8(2),
        WireRuntimeError::EmptyCircuit => e.u8(3),
        WireRuntimeError::NonFiniteTime { value } => {
            e.u8(4);
            e.f64(*value);
        }
        WireRuntimeError::InvalidThreshold { value } => {
            e.u8(5);
            e.f64(*value);
        }
        WireRuntimeError::InvalidCalibration { device, fault } => {
            e.u8(6);
            e.str(device);
            put_calibration_fault(e, fault);
        }
        WireRuntimeError::DriftHorizonTooFar { steps, max } => {
            e.u8(7);
            e.u64(*steps);
            e.u64(*max);
        }
        WireRuntimeError::JobUnplaceable { job_id, detail } => {
            e.u8(8);
            e.u64(*job_id);
            e.str(detail);
        }
        WireRuntimeError::Core { detail } => {
            e.u8(9);
            e.str(detail);
        }
        WireRuntimeError::QueueCorrupted { seq } => {
            e.u8(10);
            e.u64(*seq);
        }
    }
}

fn get_runtime_error(d: &mut Decoder<'_>) -> Result<WireRuntimeError, WireError> {
    Ok(match d.u8()? {
        0 => WireRuntimeError::ZeroParallel,
        1 => WireRuntimeError::NoDevices,
        2 => WireRuntimeError::ZeroShots,
        3 => WireRuntimeError::EmptyCircuit,
        4 => WireRuntimeError::NonFiniteTime { value: d.f64()? },
        5 => WireRuntimeError::InvalidThreshold { value: d.f64()? },
        6 => WireRuntimeError::InvalidCalibration {
            device: d.str()?,
            fault: get_calibration_fault(d)?,
        },
        7 => WireRuntimeError::DriftHorizonTooFar {
            steps: d.u64()?,
            max: d.u64()?,
        },
        8 => WireRuntimeError::JobUnplaceable {
            job_id: d.u64()?,
            detail: d.str()?,
        },
        9 => WireRuntimeError::Core { detail: d.str()? },
        10 => WireRuntimeError::QueueCorrupted { seq: d.u64()? },
        tag => {
            return Err(WireError::UnknownTag {
                context: "WireRuntimeError",
                tag,
            })
        }
    })
}

fn put_fault(e: &mut Encoder, fault: &Fault) {
    match fault {
        Fault::UnsupportedVersion { client, min, max } => {
            e.u8(0);
            e.u16(*client);
            e.u16(*min);
            e.u16(*max);
        }
        Fault::HandshakeRequired => e.u8(1),
        Fault::UnknownRequest { tag } => {
            e.u8(2);
            e.u8(*tag);
        }
        Fault::MalformedRequest { detail } => {
            e.u8(3);
            e.str(detail);
        }
        Fault::Runtime(err) => {
            e.u8(4);
            put_runtime_error(e, err);
        }
        Fault::ShuttingDown => e.u8(5),
    }
}

fn get_fault(d: &mut Decoder<'_>) -> Result<Fault, WireError> {
    Ok(match d.u8()? {
        0 => Fault::UnsupportedVersion {
            client: d.u16()?,
            min: d.u16()?,
            max: d.u16()?,
        },
        1 => Fault::HandshakeRequired,
        2 => Fault::UnknownRequest { tag: d.u8()? },
        3 => Fault::MalformedRequest { detail: d.str()? },
        4 => Fault::Runtime(get_runtime_error(d)?),
        5 => Fault::ShuttingDown,
        tag => {
            return Err(WireError::UnknownTag {
                context: "Fault",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Message framing payloads.
// ---------------------------------------------------------------------------

/// Request tag bytes (the high bit distinguishes responses).
mod req_tag {
    pub const HELLO: u8 = 0x01;
    pub const SUBMIT: u8 = 0x02;
    pub const TICK: u8 = 0x03;
    pub const REPORT: u8 = 0x04;
    pub const DRAIN: u8 = 0x05;
    pub const EVENTS: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const TAKE_RESULT: u8 = 0x08;
    pub const CACHE_STATS: u8 = 0x09;
}

/// Response tag bytes.
mod resp_tag {
    pub const HELLO_ACK: u8 = 0x81;
    pub const TICKET: u8 = 0x82;
    pub const COMPLETED: u8 = 0x83;
    pub const JOB_REPORT: u8 = 0x84;
    pub const REPORT: u8 = 0x85;
    pub const EVENTS: u8 = 0x86;
    pub const ERROR: u8 = 0x87;
    pub const TAKEN: u8 = 0x88;
    pub const CACHE_STATS: u8 = 0x89;
}

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
        out.clear();
        let mut e = Encoder::appending_to(std::mem::take(out));
        match self {
            Request::Hello { version } => {
                e.u8(req_tag::HELLO);
                e.u32(MAGIC);
                e.u16(*version);
            }
            Request::Submit(request) => {
                e.u8(req_tag::SUBMIT);
                put_job_request(&mut e, request);
            }
            Request::Tick { now } => {
                e.u8(req_tag::TICK);
                e.f64(*now);
            }
            Request::Report { ticket } => {
                e.u8(req_tag::REPORT);
                put_ticket(&mut e, ticket);
            }
            Request::Drain => e.u8(req_tag::DRAIN),
            Request::Events => e.u8(req_tag::EVENTS),
            Request::Shutdown => e.u8(req_tag::SHUTDOWN),
            Request::TakeResult { ticket } => {
                e.u8(req_tag::TAKE_RESULT);
                put_ticket(&mut e, ticket);
            }
            Request::CacheStats => e.u8(req_tag::CACHE_STATS),
        }
        *out = e.finish();
    }

    /// Decodes one frame payload, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut d = Decoder::new(bytes);
        let request = match d.u8()? {
            req_tag::HELLO => {
                let magic = d.u32()?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic { got: magic });
                }
                Request::Hello { version: d.u16()? }
            }
            req_tag::SUBMIT => Request::Submit(Box::new(get_job_request(&mut d)?)),
            req_tag::TICK => Request::Tick { now: d.f64()? },
            req_tag::REPORT => Request::Report {
                ticket: get_ticket(&mut d)?,
            },
            req_tag::DRAIN => Request::Drain,
            req_tag::EVENTS => Request::Events,
            req_tag::SHUTDOWN => Request::Shutdown,
            req_tag::TAKE_RESULT => Request::TakeResult {
                ticket: get_ticket(&mut d)?,
            },
            req_tag::CACHE_STATS => Request::CacheStats,
            tag => {
                return Err(WireError::UnknownTag {
                    context: "Request",
                    tag,
                })
            }
        };
        d.expect_end()?;
        Ok(request)
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
        out.clear();
        let mut e = Encoder::appending_to(std::mem::take(out));
        match self {
            Response::HelloAck { version } => {
                e.u8(resp_tag::HELLO_ACK);
                e.u32(MAGIC);
                e.u16(*version);
            }
            Response::Ticket(ticket) => {
                e.u8(resp_tag::TICKET);
                put_ticket(&mut e, ticket);
            }
            Response::Completed(tickets) => {
                e.u8(resp_tag::COMPLETED);
                e.seq(tickets, put_ticket);
            }
            Response::JobReport(result) => {
                e.u8(resp_tag::JOB_REPORT);
                let inner = result.as_deref();
                e.option(&inner, |e, r| put_job_result(e, r));
            }
            Response::Report(report) => {
                e.u8(resp_tag::REPORT);
                put_service_report(&mut e, report);
            }
            Response::Events(events) => {
                e.u8(resp_tag::EVENTS);
                e.seq(events, put_event);
            }
            Response::Error(fault) => {
                e.u8(resp_tag::ERROR);
                put_fault(&mut e, fault);
            }
            Response::Taken(result) => {
                e.u8(resp_tag::TAKEN);
                let inner = result.as_deref();
                e.option(&inner, |e, r| put_job_result(e, r));
            }
            Response::CacheStats(stats) => {
                e.u8(resp_tag::CACHE_STATS);
                put_route_cache_stats(&mut e, stats);
            }
        }
        *out = e.finish();
    }

    /// Decodes one frame payload, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut d = Decoder::new(bytes);
        let response = match d.u8()? {
            resp_tag::HELLO_ACK => {
                let magic = d.u32()?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic { got: magic });
                }
                Response::HelloAck { version: d.u16()? }
            }
            resp_tag::TICKET => Response::Ticket(get_ticket(&mut d)?),
            resp_tag::COMPLETED => Response::Completed(d.seq(16, get_ticket)?),
            resp_tag::JOB_REPORT => Response::JobReport(d.option(get_job_result)?.map(Box::new)),
            resp_tag::REPORT => Response::Report(Box::new(get_service_report(&mut d)?)),
            resp_tag::EVENTS => Response::Events(d.seq(1, get_event)?),
            resp_tag::ERROR => Response::Error(get_fault(&mut d)?),
            resp_tag::TAKEN => Response::Taken(d.option(get_job_result)?.map(Box::new)),
            resp_tag::CACHE_STATS => Response::CacheStats(get_route_cache_stats(&mut d)?),
            tag => {
                return Err(WireError::UnknownTag {
                    context: "Response",
                    tag,
                })
            }
        };
        d.expect_end()?;
        Ok(response)
    }
}
