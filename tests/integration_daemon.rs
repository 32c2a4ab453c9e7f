//! Integration tests for the `qucpd` daemon subsystem: round-trip
//! properties for every wire message (handshake and error frames
//! included), decode-rejects-garbage properties (truncation, forged
//! length prefixes, unknown tags — typed errors, never panics), the
//! mock-transport protocol suite (version negotiation, handshake
//! enforcement), graceful shutdown losing no admitted job, and the
//! headline acceptance property: a `Client` over the mock transport
//! AND over a live unix socket receives a `ServiceReport`
//! **bit-identical** to driving the same `Service` in process with the
//! same simulated clock.

use std::io::{ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use qucp_circuit::{Circuit, Gate};
use qucp_core::ProgramResult;
use qucp_daemon::{
    Client, ClientError, Daemon, DaemonConfig, Decoder, Fault, FrameReader, MockTransport, Request,
    Response, ServerSession, Transport, Wire, WireError, WireRuntimeError, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};
use qucp_device::ibm;
use qucp_runtime::{
    skewed_jobs, BatchReport, CalibrationFault, DeviceReport, Event, JobRequest, JobResult,
    JobTicket, QueueStats, RouteCacheStats, RoutingChoice, RuntimeError, Service, ServiceReport,
    ShotParallelism, ShrinkReason, TrajectoryKernel,
};
use qucp_sim::Counts;

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// The shared deterministic fleet both sides of every identity test
/// build: same device, same seed, same knobs.
fn fleet() -> Service {
    Service::builder()
        .device(ibm::melbourne())
        .max_parallel(2)
        .default_shots(64)
        .seed(7)
        .build()
        .expect("build service")
}

/// A small skewed workload (mixed widths, staggered arrivals).
fn workload(n: usize) -> Vec<JobRequest> {
    skewed_jobs(n, 12, 300.0, 64, 0xBEEF)
        .iter()
        .map(JobRequest::from_job)
        .collect()
}

/// A throwaway valid circuit for submissions in protocol tests.
fn bell_request(arrival: f64) -> JobRequest {
    let mut circuit = Circuit::with_name(2, "bell");
    circuit.try_push(Gate::H(0)).unwrap();
    circuit.try_push(Gate::Cx(0, 1)).unwrap();
    JobRequest::new(circuit, arrival)
}

/// A unique socket path in the system temp dir.
fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qucpd-it-{}-{tag}.sock", std::process::id()))
}

// ---------------------------------------------------------------------------
// Strategies for wire values.
// ---------------------------------------------------------------------------

/// Circuit width every generated gate stays inside.
const WIDTH: usize = 4;

/// Finite-or-infinite `f64`s, signed zeros included. NaN is excluded
/// here only because `PartialEq` cannot witness its round-trip; the
/// dedicated `nan_payloads_round_trip_bitwise` test covers NaN at the
/// bit level.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(2.5e-7),
        -1.0e9..1.0e9,
    ]
}

fn arb_gate() -> impl Strategy<Value = Gate> {
    (
        (0u8..20, 0usize..WIDTH, 1usize..WIDTH),
        (arb_f64(), arb_f64(), arb_f64()),
    )
        .prop_map(|((tag, q, offset), (a, b, c))| {
            let q2 = (q + offset) % WIDTH; // offset in 1..WIDTH, so q2 != q
            match tag {
                0 => Gate::I(q),
                1 => Gate::X(q),
                2 => Gate::Y(q),
                3 => Gate::Z(q),
                4 => Gate::H(q),
                5 => Gate::S(q),
                6 => Gate::Sdg(q),
                7 => Gate::T(q),
                8 => Gate::Tdg(q),
                9 => Gate::Sx(q),
                10 => Gate::Sxdg(q),
                11 => Gate::Rx(q, a),
                12 => Gate::Ry(q, a),
                13 => Gate::Rz(q, a),
                14 => Gate::P(q, a),
                15 => Gate::U(q, a, b, c),
                16 => Gate::Cx(q, q2),
                17 => Gate::Cz(q, q2),
                18 => Gate::Cp(q, q2, a),
                19 => Gate::Swap(q, q2),
                _ => unreachable!(),
            }
        })
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(), 0usize..10).prop_map(|gates| {
        let mut circuit = Circuit::with_name(WIDTH, "arb");
        for gate in gates {
            circuit.try_push(gate).expect("valid by construction");
        }
        circuit
    })
}

fn arb_shot_parallelism() -> impl Strategy<Value = ShotParallelism> {
    prop_oneof![
        Just(ShotParallelism::Serial),
        Just(ShotParallelism::Auto),
        (1usize..9, 0usize..5)
            .prop_map(|(shards, threads)| ShotParallelism::Sharded { shards, threads }),
    ]
}

fn arb_option<S: Strategy + 'static>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: 'static,
{
    prop_oneof![
        Just(()).prop_map(|_| None).boxed(),
        inner.prop_map(Some).boxed(),
    ]
    .boxed()
}

fn arb_routing_choice() -> impl Strategy<Value = RoutingChoice> {
    prop_oneof![
        Just(RoutingChoice::EarliestFree),
        arb_f64().prop_map(|pressure_per_ns| RoutingChoice::CalibrationAware { pressure_per_ns }),
    ]
}

fn arb_job_request() -> impl Strategy<Value = JobRequest> {
    (
        (arb_circuit(), arb_f64(), arb_option(0u64..999)),
        (arb_option(1usize..4096), arb_option(arb_f64())),
        (
            arb_option(arb_shot_parallelism()),
            arb_option(prop_oneof![
                Just(TrajectoryKernel::Replay),
                Just(TrajectoryKernel::SurvivalSkip)
            ]),
            arb_option(arb_routing_choice()),
        ),
    )
        .prop_map(
            |((circuit, arrival, id), (shots, threshold), (parallelism, kernel, routing))| {
                JobRequest {
                    circuit,
                    arrival,
                    id,
                    shots,
                    fidelity_threshold: threshold,
                    shot_parallelism: parallelism,
                    trajectory_kernel: kernel,
                    routing,
                }
            },
        )
}

fn arb_ticket() -> impl Strategy<Value = JobTicket> {
    (0usize..9999, 0u64..9999).prop_map(|(seq, id)| JobTicket { seq, id })
}

fn arb_queue_stats() -> impl Strategy<Value = QueueStats> {
    ((arb_f64(), arb_f64()), (arb_f64(), arb_f64(), 0usize..999)).prop_map(
        |((mean_waiting, mean_turnaround), (makespan, mean_throughput, batches))| QueueStats {
            mean_waiting,
            mean_turnaround,
            makespan,
            mean_throughput,
            batches,
        },
    )
}

fn arb_counts() -> impl Strategy<Value = Counts> {
    proptest::collection::vec((0usize..(1 << 3), 1usize..50), 0usize..6).prop_map(|entries| {
        // Dedupe indices through a BTreeMap before rebuilding: the wire
        // form requires unique outcomes, as Counts::iter produces.
        let map: std::collections::BTreeMap<usize, usize> = entries.into_iter().collect();
        Counts::from_entries(3, map).expect("valid by construction")
    })
}

fn arb_program_result() -> impl Strategy<Value = ProgramResult> {
    (
        (proptest::collection::vec(0usize..20, 1usize..5), arb_f64()),
        (0usize..30, arb_counts()),
        (arb_option(arb_f64()), arb_f64()),
    )
        .prop_map(
            |((partition, efs), (swap_count, counts), (pst, jsd))| ProgramResult {
                name: format!("prog-{swap_count}"),
                partition,
                efs,
                swap_count,
                counts,
                pst,
                jsd,
            },
        )
}

fn arb_job_result() -> impl Strategy<Value = JobResult> {
    (
        (0u64..999, 0usize..99),
        (arb_f64(), arb_f64()),
        (arb_f64(), arb_f64(), arb_program_result()),
    )
        .prop_map(
            |((job_id, batch_index), (start, completion), (waiting, turnaround, result))| {
                JobResult {
                    job_id,
                    batch_index,
                    start,
                    completion,
                    waiting,
                    turnaround,
                    result: Arc::new(result),
                }
            },
        )
}

fn arb_batch_report() -> impl Strategy<Value = BatchReport> {
    (
        (0usize..99, proptest::collection::vec(0u64..99, 0usize..4)),
        (arb_f64(), arb_f64(), arb_f64()),
        (0usize..20, 0usize..9),
    )
        .prop_map(
            |((batch_index, job_ids), (start, completion, makespan), (used_qubits, conflicts))| {
                BatchReport {
                    batch_index,
                    device: format!("dev-{batch_index}"),
                    job_ids: job_ids.into(),
                    start,
                    completion,
                    makespan,
                    used_qubits,
                    conflict_count: conflicts,
                }
            },
        )
}

fn arb_event() -> impl Strategy<Value = Event> {
    let submitted = ((0u64..99, 0usize..99), (arb_f64(), 1usize..20, 1usize..999)).prop_map(
        |((job_id, seq), (arrival, width, shots))| Event::JobSubmitted {
            job_id,
            seq,
            arrival,
            width,
            shots,
        },
    );
    let routed = ((0usize..99, arb_f64()), (arb_f64(), 1usize..5)).prop_map(
        |((batch_index, score), (start, candidates))| Event::BatchRouted {
            batch_index,
            device: format!("dev-{candidates}").into(),
            policy: "earliest-free".into(),
            score,
            start,
            candidates,
        },
    );
    let planned = (
        (0usize..99, proptest::collection::vec(0u64..99, 0usize..4)),
        (arb_f64(), arb_f64()),
    )
        .prop_map(
            |((batch_index, job_ids), (start, makespan))| Event::BatchPlanned {
                batch_index,
                device: "melbourne".into(),
                job_ids: job_ids.into(),
                start,
                makespan,
            },
        );
    let shrunk = ((0usize..99, 0u64..99), (0usize..5, 0u8..2)).prop_map(
        |((batch_index, dropped_job_id), (remaining, reason))| Event::BatchShrunk {
            batch_index,
            device: "melbourne".into(),
            dropped_job_id,
            remaining,
            reason: if reason == 0 {
                ShrinkReason::PartitionFailure
            } else {
                ShrinkReason::FidelityGate
            },
        },
    );
    let recal = (0u64..99).prop_map(|epoch| Event::DeviceRecalibrated {
        device: "melbourne".into(),
        epoch,
    });
    let completed = ((0u64..99, 0usize..99), (0usize..99, arb_f64(), arb_f64())).prop_map(
        |((job_id, seq), (batch_index, completion, turnaround))| Event::JobCompleted {
            job_id,
            seq,
            batch_index,
            completion,
            turnaround,
        },
    );
    prop_oneof![submitted, routed, planned, shrunk, recal, completed]
}

fn arb_service_report() -> impl Strategy<Value = ServiceReport> {
    (
        arb_queue_stats(),
        (
            proptest::collection::vec(
                (arb_queue_stats(), 0usize..99).prop_map(|(stats, jobs)| DeviceReport {
                    device: format!("dev-{jobs}"),
                    jobs,
                    stats,
                }),
                0usize..3,
            ),
            proptest::collection::vec(arb_batch_report(), 0usize..3),
        ),
        (
            proptest::collection::vec(arb_job_result(), 0usize..3),
            proptest::collection::vec(arb_event(), 0usize..4),
            0usize..99,
        ),
    )
        .prop_map(
            |(stats, (per_device, batches), (job_results, events, dropped_events))| ServiceReport {
                stats,
                per_device,
                batches,
                job_results,
                events,
                dropped_events,
            },
        )
}

fn arb_runtime_error() -> impl Strategy<Value = WireRuntimeError> {
    prop_oneof![
        Just(WireRuntimeError::ZeroParallel),
        Just(WireRuntimeError::NoDevices),
        Just(WireRuntimeError::ZeroShots),
        Just(WireRuntimeError::EmptyCircuit),
        arb_f64().prop_map(|value| WireRuntimeError::NonFiniteTime { value }),
        arb_f64().prop_map(|value| WireRuntimeError::InvalidThreshold { value }),
        (0usize..99, arb_calibration_fault()).prop_map(|(n, fault)| {
            WireRuntimeError::InvalidCalibration {
                device: format!("dev-{n}"),
                fault,
            }
        }),
        (0u64..999, 0u64..999)
            .prop_map(|(steps, max)| WireRuntimeError::DriftHorizonTooFar { steps, max }),
        (0u64..99).prop_map(|job_id| WireRuntimeError::JobUnplaceable {
            job_id,
            source: format!("no device admits job {job_id}"),
        }),
        Just(WireRuntimeError::Core("pipeline exploded".into())),
        (0usize..999).prop_map(|seq| WireRuntimeError::QueueCorrupted { seq }),
        arb_f64().prop_map(|value| WireRuntimeError::InvalidStrategy { value }),
    ]
}

fn arb_calibration_fault() -> impl Strategy<Value = CalibrationFault> {
    prop_oneof![
        Just(CalibrationFault::NonFinite),
        (0usize..99, 0usize..99)
            .prop_map(|(expected, got)| CalibrationFault::QubitCountMismatch { expected, got }),
        Just(CalibrationFault::MissingLinks),
        Just(CalibrationFault::OutOfRange),
    ]
}

fn arb_cache_stats() -> impl Strategy<Value = RouteCacheStats> {
    proptest::collection::vec(0usize..9999, 8).prop_map(|c| RouteCacheStats {
        hits: c[0],
        misses: c[1],
        entries: c[2],
        invalidated: c[3],
        plan_hits: c[4],
        plan_misses: c[5],
        plan_entries: c[6],
        plan_invalidated: c[7],
    })
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0u16..9, 1u16..9, 1u16..9).prop_map(|(client, min, max)| Fault::UnsupportedVersion {
            client,
            min,
            max
        }),
        Just(Fault::HandshakeRequired),
        (0u8..255).prop_map(|tag| Fault::UnknownRequest { tag }),
        Just(Fault::MalformedRequest {
            detail: "trailing garbage".into()
        }),
        arb_runtime_error().prop_map(Fault::Runtime),
        Just(Fault::ShuttingDown),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u16..9).prop_map(|version| Request::Hello { version }),
        arb_job_request().prop_map(|job| Request::Submit(Box::new(job))),
        arb_f64().prop_map(|now| Request::Tick { now }),
        arb_ticket().prop_map(|ticket| Request::Report { ticket }),
        arb_ticket().prop_map(|ticket| Request::TakeResult { ticket }),
        Just(Request::Drain),
        Just(Request::Events),
        Just(Request::Shutdown),
        Just(Request::CacheStats),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u16..9).prop_map(|version| Response::HelloAck { version }),
        arb_ticket().prop_map(Response::Ticket),
        proptest::collection::vec(arb_ticket(), 0usize..5).prop_map(Response::Completed),
        arb_option(arb_job_result()).prop_map(|result| Response::JobReport(result.map(Box::new))),
        arb_option(arb_job_result()).prop_map(|result| Response::Taken(result.map(Box::new))),
        arb_service_report().prop_map(|report| Response::Report(Box::new(report))),
        proptest::collection::vec(arb_event(), 0usize..4).prop_map(Response::Events),
        arb_fault().prop_map(Response::Error),
        arb_cache_stats().prop_map(Response::CacheStats),
    ]
}

// ---------------------------------------------------------------------------
// Satellite 1a: round-trip properties for every wire message.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode is the identity for every request, the version
    /// handshake included.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let decoded = Request::decode(&request.encode()).expect("round trip");
        prop_assert_eq!(decoded, request);
    }

    /// encode → decode is the identity for every response, error
    /// frames and full service reports included.
    #[test]
    fn responses_round_trip(response in arb_response()) {
        let decoded = Response::decode(&response.encode()).expect("round trip");
        prop_assert_eq!(decoded, response);
    }

    /// Re-encoding a decoded message reproduces the original bytes —
    /// the encoding is canonical, which is what makes "bit-identical
    /// report" a meaningful claim.
    #[test]
    fn encoding_is_canonical(response in arb_response()) {
        let bytes = response.encode();
        let reencoded = Response::decode(&bytes).expect("decode").encode();
        prop_assert_eq!(reencoded, bytes);
    }
}

/// NaN payloads and signed zeros survive the wire bit-for-bit (the
/// `PartialEq`-based properties above cannot witness NaN).
#[test]
fn nan_payloads_round_trip_bitwise() {
    let weird = f64::from_bits(0x7ff8_dead_beef_0001); // NaN with payload
    for value in [weird, f64::NAN, -0.0, f64::INFINITY] {
        let request = Request::Tick { now: value };
        let bytes = request.encode();
        let reencoded = Request::decode(&bytes).expect("decode").encode();
        assert_eq!(reencoded, bytes);
        match Request::decode(&bytes).expect("decode") {
            Request::Tick { now } => assert_eq!(now.to_bits(), value.to_bits()),
            other => panic!("wrong message {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 1b: decode rejects garbage with typed errors, never panics.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating a valid frame at any point yields a typed error (or,
    /// for a handful of prefix lengths, a shorter valid message) —
    /// never a panic.
    #[test]
    fn truncated_requests_never_panic(request in arb_request(), cut in 0usize..2000) {
        let bytes = request.encode();
        let cut = cut % bytes.len().max(1);
        let _ = Request::decode(&bytes[..cut]); // must return, not panic
    }

    /// Arbitrary garbage decodes to a typed error or, rarely, a valid
    /// message — never a panic.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0usize..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// The server session is total over arbitrary frames: garbage in,
    /// a typed error frame out.
    #[test]
    fn session_answers_garbage_with_typed_faults(
        bytes in proptest::collection::vec(0u8..=255, 1usize..100),
    ) {
        let mut session = ServerSession::new(
            Arc::new(Mutex::new(fleet())),
            Arc::new(AtomicBool::new(false)),
        );
        let reply = session.handle_frame(&bytes);
        // The reply itself must be well-formed.
        let _ = Response::decode(&reply).expect("server reply decodes");
    }

    /// A `Submit` whose strategy slot is filled — a per-job strategy,
    /// which the service does not take — is refused at that byte,
    /// whatever follows it: the decoder answers the typed refusal, a
    /// session answers a malformed request and admits nothing.
    #[test]
    fn a_submit_that_fills_the_strategy_slot_is_refused(
        request in arb_job_request(),
        tail in proptest::collection::vec(0u8..=255, 0usize..64),
    ) {
        // The slot and the four empty overrides behind it are the
        // frame's last five bytes.
        let plain = JobRequest {
            fidelity_threshold: None,
            shot_parallelism: None,
            trajectory_kernel: None,
            routing: None,
            ..request
        };
        let mut bytes = Request::Submit(Box::new(plain)).encode();
        bytes.truncate(bytes.len() - 5);
        bytes.push(1);
        bytes.extend(tail);
        let refusal = WireError::InvalidValue { context: "JobRequest::strategy" };
        prop_assert_eq!(Request::decode(&bytes), Err(refusal.clone()));

        let service = Arc::new(Mutex::new(fleet()));
        let mut session = ServerSession::new(Arc::clone(&service), Arc::new(AtomicBool::new(false)));
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        session.handle_frame(&hello.encode());
        let reply = Response::decode(&session.handle_frame(&bytes)).expect("server reply decodes");
        let detail = refusal.to_string();
        prop_assert_eq!(reply, Response::Error(Fault::MalformedRequest { detail }));
        prop_assert_eq!(service.lock().unwrap().events().len(), 0);
    }
}

#[test]
fn unknown_tags_are_typed_errors() {
    // 0x55 is no request tag.
    match Request::decode(&[0x55]) {
        Err(WireError::UnknownTag {
            context: "Request",
            tag: 0x55,
        }) => {}
        other => panic!("expected UnknownTag, got {other:?}"),
    }
    // Through the session it becomes an UnknownRequest fault frame.
    let mut session = ServerSession::new(
        Arc::new(Mutex::new(fleet())),
        Arc::new(AtomicBool::new(false)),
    );
    match Response::decode(&session.handle_frame(&[0x55])).expect("decodes") {
        Response::Error(Fault::UnknownRequest { tag: 0x55 }) => {}
        other => panic!("expected UnknownRequest fault, got {other:?}"),
    }
}

#[test]
fn oversized_sequence_prefix_is_rejected_before_allocation() {
    // A forged Completed frame advertising 2^64-1 tickets in 8 bytes.
    let mut bytes = vec![0x83]; // Completed tag
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    match Response::decode(&bytes) {
        Err(WireError::LengthOverflow { .. }) => {}
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
}

/// A `Submit` frame's circuit is decoded into a gate vector sized for
/// the gate count the frame declares (`integration_alloc_budget` counts
/// its one request); a count forged past what the bytes behind it can
/// carry is refused before anything is reserved.
#[test]
fn a_submit_frame_with_a_forged_gate_count_is_refused() {
    let mut circuit = Circuit::with_name(3, "ghz");
    circuit.h(0).cx(0, 1).cx(1, 2).rz(2, 0.25).x(0);
    let honest = Request::Submit(Box::new(JobRequest::new(circuit.clone(), 1.0))).encode();
    let Ok(Request::Submit(job)) = Request::decode(&honest) else {
        panic!("an honest Submit frame decodes");
    };
    assert_eq!(job.circuit, circuit);

    // Layout: tag, the circuit's width, its name (length and bytes),
    // then the gate count.
    let count_at = 1 + 8 + 8 + "ghz".len();
    assert_eq!(
        honest[count_at..count_at + 8],
        (circuit.gate_count() as u64).to_le_bytes()
    );
    // One gate per byte behind the prefix: more than they can carry.
    let behind = (honest.len() - count_at - 8) as u64;
    let mut forged = honest.clone();
    forged[count_at..count_at + 8].copy_from_slice(&behind.to_le_bytes());
    match Request::decode(&forged) {
        Err(WireError::LengthOverflow { len, max }) => {
            assert_eq!(len, behind);
            assert!(max < len, "{max} gates admitted of {len}");
        }
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
}

/// A sequence's length prefix is held to what the bytes behind it can
/// carry *in elements of that type*: a `Report` or `Events` frame
/// cannot make the decoder reserve more than it brought.
#[test]
fn a_forged_report_or_events_length_is_bounded_by_the_smallest_element() {
    // The smallest event on the wire: tag, an empty device name, an
    // epoch.
    let smallest = Event::DeviceRecalibrated {
        device: "".into(),
        epoch: 0,
    };
    let honest = Response::Events(vec![smallest.clone(); 3]).encode();
    let per_event = (honest.len() - 1 - 8) / 3;
    assert_eq!(per_event, <Event as Wire>::MIN_BYTES);
    // Claim one element more than the bytes behind the prefix could
    // hold, even at that size.
    let mut forged = honest.clone();
    forged[1..9].copy_from_slice(&4u64.to_le_bytes());
    assert_eq!(
        Response::decode(&forged),
        Err(WireError::LengthOverflow { len: 4, max: 3 })
    );

    // The same through a drained report: forge the `job_results`
    // prefix of an otherwise empty report. Layout: tag, five 8-byte
    // stats fields, then four sequence prefixes and `dropped_events`.
    let empty = Response::Report(Box::new(ServiceReport {
        stats: QueueStats {
            mean_waiting: 0.0,
            mean_turnaround: 0.0,
            makespan: 0.0,
            mean_throughput: 0.0,
            batches: 0,
        },
        per_device: Vec::new(),
        batches: Vec::new(),
        job_results: Vec::new(),
        events: Vec::new(),
        dropped_events: 0,
    }))
    .encode();
    let job_results_prefix = 1 + 5 * 8 + 2 * 8;
    let mut forged = empty.clone();
    forged[job_results_prefix..job_results_prefix + 8].copy_from_slice(&1u64.to_le_bytes());
    // Sixteen bytes follow (the events prefix and the dropped count);
    // no job result fits in them, so not even one is admitted.
    assert_eq!(
        Response::decode(&forged),
        Err(WireError::LengthOverflow { len: 1, max: 0 })
    );
}

/// The v3 stats payload is four probe counters plus four *optional
/// trailing* plan counters: cut after the four it reads as a peer
/// without a plan cache, cut anywhere inside the tail it is truncated.
#[test]
fn cache_stats_cut_after_the_probe_counters_decode_and_inside_the_tail_do_not() {
    let stats = RouteCacheStats {
        hits: 8,
        misses: 6,
        entries: 5,
        invalidated: 1,
        plan_hits: 70,
        plan_misses: 3,
        plan_entries: 2,
        plan_invalidated: 4,
    };
    let bytes = Response::CacheStats(stats).encode();
    assert_eq!(bytes.len(), 1 + 8 * 8);
    assert_eq!(
        Response::decode(&bytes[..1 + 4 * 8]),
        Ok(Response::CacheStats(RouteCacheStats {
            plan_hits: 0,
            plan_misses: 0,
            plan_entries: 0,
            plan_invalidated: 0,
            ..stats
        }))
    );
    assert_eq!(
        Response::decode(&bytes[..1 + 5 * 8]),
        Err(WireError::Truncated {
            needed: 8,
            remaining: 0
        })
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = Request::Drain.encode();
    bytes.push(0xAA);
    match Request::decode(&bytes) {
        Err(WireError::TrailingBytes { count: 1 }) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn malformed_domain_values_are_rejected() {
    // A circuit frame smuggling an out-of-range gate: width 1, Cx(0, 1).
    let mut circuit = Circuit::with_name(2, "smuggle");
    circuit.try_push(Gate::Cx(0, 1)).unwrap();
    let good = Request::Submit(Box::new(JobRequest::new(circuit, 0.0))).encode();
    // Byte-surgery: shrink the encoded width from 2 to 1. Layout:
    // tag (1) | width u64 — so bytes[1..9] hold the width.
    let mut evil = good;
    evil[1..9].copy_from_slice(&1u64.to_le_bytes());
    match Request::decode(&evil) {
        Err(WireError::InvalidValue { context: "Circuit" }) => {}
        other => panic!("expected InvalidValue, got {other:?}"),
    }
}

/// `Counts` reads its entries straight into `Counts::from_entries`:
/// what it accepts is the canonical form, and a forged length, an
/// outcome outside the register, a repeated outcome, a zero count or a
/// shot total past `usize::MAX` is refused.
#[test]
fn counts_decode_only_their_canonical_form() {
    let counts = |width: u64, len: u64, entries: &[(u64, u64)]| {
        let mut bytes = Vec::new();
        for word in [width, len]
            .into_iter()
            .chain(entries.iter().flat_map(|&(o, n)| [o, n]))
        {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let mut d = Decoder::new(&bytes);
        Counts::get(&mut d).and_then(|counts| d.expect_end().map(|()| counts))
    };
    let mut expected = Counts::new(2);
    expected.record_many(3, 1);
    expected.record_many(0, 3);
    assert_eq!(counts(2, 2, &[(3, 1), (0, 3)]), Ok(expected));
    assert_eq!(counts(2, 0, &[]), Ok(Counts::new(2)));
    assert_eq!(
        counts(2, 3, &[(3, 1), (0, 3)]),
        Err(WireError::LengthOverflow { len: 3, max: 2 })
    );
    let invalid = Err(WireError::InvalidValue { context: "Counts" });
    let max = usize::MAX as u64;
    for (width, entries) in [
        (2, &[(4, 1)][..]),
        (2, &[(1, 2), (1, 2)]),
        (2, &[(1, 0)]),
        (2, &[(0, max), (1, 1)]),
        (64, &[(0, 1)]),
    ] {
        let len = entries.len() as u64;
        assert_eq!(counts(width, len, entries), invalid, "{width} {entries:?}");
    }
}

/// A whole `Taken` response frame whose result carries forged counts:
/// the three entries of a width-2 histogram are rewritten in place, so
/// the frame keeps its length and every other byte. Entries out of
/// order are the canonical histogram; a repeated outcome, a zero
/// count, an outcome outside the register and a shot total past
/// `usize::MAX` refuse the frame.
#[test]
fn a_result_frame_with_forged_counts_is_accepted_or_refused_whole() {
    let entries = |counts: &[(u64, u64)]| -> Vec<u8> {
        let words = [2, counts.len() as u64].into_iter();
        words
            .chain(counts.iter().flat_map(|&(o, n)| [o, n]))
            .flat_map(u64::to_le_bytes)
            .collect()
    };
    let canonical = [(0, 30), (1, 1), (3, 33)];
    let counts = Counts::from_entries(2, canonical.map(|(o, n)| (o as usize, n as usize)));
    let result = JobResult {
        job_id: 7,
        batch_index: 1,
        start: 0.0,
        completion: 1.0,
        waiting: 0.0,
        turnaround: 1.0,
        result: Arc::new(ProgramResult {
            name: "bell".into(),
            partition: vec![4, 7],
            efs: 0.5,
            swap_count: 0,
            counts: counts.expect("valid counts"),
            pst: Some(0.5),
            jsd: 0.25,
        }),
    };
    let frame = Response::Taken(Some(Box::new(result.clone()))).encode();
    let original = entries(&canonical);
    let at = frame
        .windows(original.len())
        .position(|w| w == original)
        .expect("the counts are in the frame");
    let forged = |counts: &[(u64, u64)]| {
        let mut frame = frame.clone();
        frame[at..at + original.len()].copy_from_slice(&entries(counts));
        Response::decode(&frame)
    };
    assert_eq!(
        forged(&canonical),
        Ok(Response::Taken(Some(Box::new(result.clone()))))
    );
    assert_eq!(
        forged(&[(3, 33), (1, 1), (0, 30)]),
        Ok(Response::Taken(Some(Box::new(result))))
    );
    let invalid = Err(WireError::InvalidValue { context: "Counts" });
    let max = usize::MAX as u64;
    for counts in [
        [(0, 30), (1, 1), (1, 33)],
        [(3, 33), (1, 1), (3, 30)],
        [(0, 30), (1, 0), (3, 33)],
        [(0, 30), (1, 1), (4, 33)],
        [(0, max), (1, 1), (3, 33)],
        [(3, 1), (1, max), (0, 30)],
    ] {
        assert_eq!(forged(&counts), invalid, "{counts:?}");
    }
}

// ---------------------------------------------------------------------------
// Satellite 2: mock transport — protocol without sockets or threads.
// ---------------------------------------------------------------------------

#[test]
fn mock_handshake_negotiates_minimum_of_versions() {
    // A newer client downgrades to our version.
    let client = Client::connect_with_version(MockTransport::new(fleet()), PROTOCOL_VERSION + 7)
        .expect("handshake");
    assert_eq!(client.version(), PROTOCOL_VERSION);
    // An exact match stays.
    let client = Client::connect(MockTransport::new(fleet())).expect("handshake");
    assert_eq!(client.version(), PROTOCOL_VERSION);
}

#[test]
fn mock_handshake_rejects_prehistoric_clients() {
    let too_old = MIN_SUPPORTED_VERSION - 1; // version 0 is never valid
    match Client::connect_with_version(MockTransport::new(fleet()), too_old)
        .err()
        .expect("handshake must fail")
    {
        ClientError::Fault(Fault::UnsupportedVersion { client, min, max }) => {
            assert_eq!(client, too_old);
            assert_eq!(min, MIN_SUPPORTED_VERSION);
            assert_eq!(max, PROTOCOL_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn requests_before_handshake_are_refused() {
    let mut transport = MockTransport::new(fleet());
    let reply = transport.call(&Request::Drain.encode()).expect("mock call");
    match Response::decode(&reply).expect("decodes") {
        Response::Error(Fault::HandshakeRequired) => {}
        other => panic!("expected HandshakeRequired, got {other:?}"),
    }
}

/// Every runtime error a session can return reads the same over the
/// socket as in process: the client's fault is `"runtime error: "` plus
/// the sentence `RuntimeError`'s one `Display` writes.
#[test]
fn a_runtime_error_reads_the_same_over_the_wire_as_in_process() {
    fn same_sentence(in_process: RuntimeError, over_the_wire: ClientError) -> RuntimeError {
        match over_the_wire {
            ClientError::Fault(fault @ Fault::Runtime(_)) => {
                assert_eq!(fault.to_string(), format!("runtime error: {in_process}"));
            }
            other => panic!("expected a runtime fault, got {other:?}"),
        }
        in_process
    }
    let client = || Client::connect(MockTransport::new(fleet())).expect("handshake");

    let job = bell_request(0.0).with_shots(0);
    let e = same_sentence(
        fleet().submit(job.clone()).unwrap_err(),
        client().submit(job).unwrap_err(),
    );
    assert_eq!(e, RuntimeError::ZeroShots);

    let job = JobRequest::new(Circuit::new(0), 0.0);
    let e = same_sentence(
        fleet().submit(job.clone()).unwrap_err(),
        client().submit(job).unwrap_err(),
    );
    assert_eq!(e, RuntimeError::EmptyCircuit);

    let e = same_sentence(
        fleet().tick(f64::NAN).unwrap_err(),
        client().tick(f64::NAN).unwrap_err(),
    );
    assert!(matches!(e, RuntimeError::NonFiniteTime { value } if value.is_nan()));

    let job = bell_request(0.0).with_fidelity_threshold(-1.0);
    let e = same_sentence(
        fleet().submit(job.clone()).unwrap_err(),
        client().submit(job).unwrap_err(),
    );
    assert_eq!(e, RuntimeError::InvalidThreshold { value: -1.0 });

    // Wider than Melbourne: refused at submit. The sentence ends in the
    // planning error's own.
    let job = JobRequest::new(Circuit::new(64), 0.0);
    let e = same_sentence(
        fleet().submit(job.clone()).unwrap_err(),
        client().submit(job).unwrap_err(),
    );
    assert_eq!(
        e.to_string(),
        "job 0 cannot be placed: program 0 needs 64 qubits but the device has 15"
    );
}

#[test]
fn mock_full_protocol_conversation() {
    let mut client = Client::connect(MockTransport::new(fleet())).expect("handshake");
    let ticket = client.submit(bell_request(0.0)).expect("submit");
    assert_eq!(ticket.seq, 0);
    // Not yet executed.
    assert!(client.report(ticket).expect("report").is_none());
    // An infinite horizon drains it.
    let done = client.tick(f64::INFINITY).expect("tick");
    assert_eq!(done, vec![ticket]);
    let result = client.report(ticket).expect("report").expect("completed");
    assert_eq!(result.job_id, ticket.id);
    let events = client.events().expect("events");
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::JobCompleted { .. })));
    let report = client.drain().expect("drain");
    assert_eq!(report.job_results.len(), 1);
}

#[test]
fn mock_take_result_claims_exactly_once_and_spares_the_drain() {
    let mut client = Client::connect(MockTransport::new(fleet())).expect("handshake");
    let ticket = client.submit(bell_request(0.0)).expect("submit");
    // Nothing to claim before the batch runs.
    assert!(client.take_result(ticket).expect("take").is_none());
    client.tick(f64::INFINITY).expect("tick");
    // First claim yields the result, the second is spent.
    let taken = client.take_result(ticket).expect("take").expect("claimed");
    assert_eq!(taken.job_id, ticket.id);
    assert!(client.take_result(ticket).expect("take").is_none());
    // The claim is not eviction: the peek still sees the canonical
    // copy, and the drained report carries the job as always.
    let peeked = client.report(ticket).expect("report").expect("retained");
    assert_eq!(peeked, taken);
    let report = client.drain().expect("drain");
    assert_eq!(report.job_results.len(), 1);
    assert_eq!(report.job_results[0], taken);
}

// ---------------------------------------------------------------------------
// Satellite 3: graceful shutdown loses no admitted job.
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_every_admitted_job() {
    let service = Arc::new(Mutex::new(fleet()));
    let flag = Arc::new(AtomicBool::new(false));
    let mut client = Client::connect(MockTransport::over(Arc::clone(&service), Arc::clone(&flag)))
        .expect("handshake");
    let jobs = workload(5);
    let expected = jobs.len();
    let mut ids = Vec::new();
    for job in jobs {
        ids.push(client.submit(job).expect("submit").id);
    }
    // Shutdown must drain everything admitted before it...
    let report = client.shutdown().expect("shutdown");
    assert!(flag.load(Ordering::SeqCst), "shutdown flag raised");
    assert_eq!(report.job_results.len(), expected, "no job lost");
    let mut reported: Vec<u64> = report.job_results.iter().map(|r| r.job_id).collect();
    reported.sort_unstable();
    ids.sort_unstable();
    assert_eq!(reported, ids);
    // ...and later submissions are refused with a typed fault.
    match client.submit(bell_request(0.0)) {
        Err(ClientError::Fault(Fault::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn socket_shutdown_loses_no_job_and_stops_the_daemon() {
    let path = socket_path("shutdown");
    let handle = Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    )
    .expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");
    for job in workload(4) {
        client.submit(job).expect("submit");
    }
    let report = client.shutdown().expect("shutdown");
    assert_eq!(report.job_results.len(), 4, "no job lost across shutdown");
    assert!(handle.is_shutting_down());
    handle.join(); // must terminate (accept loop saw the flag)
    assert!(!path.exists(), "socket file removed on join");
}

// ---------------------------------------------------------------------------
// Acceptance: bit-identical reports in-process / mock / live socket.
// ---------------------------------------------------------------------------

/// Drives a client through the canonical sequence: submit all, tick at
/// fixed simulated horizons, then drain.
fn drive_client<T: Transport>(client: &mut Client<T>, jobs: Vec<JobRequest>) -> ServiceReport {
    let horizons = [1_000.0, 250_000.0];
    let mut tickets = Vec::new();
    for job in jobs {
        tickets.push(client.submit(job).expect("submit"));
    }
    for &t in &horizons {
        client.tick(t).expect("tick");
    }
    let report = client.drain().expect("drain");
    for ticket in tickets {
        assert!(
            client.report(ticket).expect("report").is_some(),
            "every ticket resolved after drain"
        );
    }
    report
}

/// The same sequence against the service directly, no protocol.
fn drive_in_process(mut service: Service, jobs: Vec<JobRequest>) -> ServiceReport {
    let horizons = [1_000.0, 250_000.0];
    for job in jobs {
        service.submit(job).expect("submit");
    }
    for &t in &horizons {
        service.tick(t).expect("tick");
    }
    service.run_until_drained().expect("drain")
}

#[test]
fn report_is_bit_identical_across_in_process_mock_and_socket() {
    let in_process = drive_in_process(fleet(), workload(6));

    let mut mock_client = Client::connect(MockTransport::new(fleet())).expect("handshake");
    let via_mock = drive_client(&mut mock_client, workload(6));

    let path = socket_path("bitident");
    // The wall-clock driver stays off so simulated time is driven
    // solely by the client's ticks — same clock, same report.
    let handle = Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    )
    .expect("spawn");
    let mut socket_client = Client::connect_unix(&path).expect("connect");
    let via_socket = drive_client(&mut socket_client, workload(6));
    handle.request_shutdown();
    handle.join();

    // The same over loopback TCP, the other front door.
    let (handle, addr) = Daemon::spawn_tcp(
        "127.0.0.1:0",
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    )
    .expect("spawn");
    let mut tcp_client = Client::connect_tcp(addr).expect("connect");
    let via_tcp = drive_client(&mut tcp_client, workload(6));
    handle.request_shutdown();
    handle.join();

    assert!(!in_process.job_results.is_empty(), "workload ran");
    assert_eq!(via_mock, in_process, "mock transport report differs");
    assert_eq!(via_socket, in_process, "socket report differs");
    assert_eq!(via_tcp, in_process, "TCP report differs");
    // Bit-level identity, stronger than PartialEq: the encoded frames
    // match byte for byte.
    assert_eq!(encode_report(&via_mock), encode_report(&in_process));
    assert_eq!(encode_report(&via_socket), encode_report(&in_process));
    assert_eq!(encode_report(&via_tcp), encode_report(&in_process));
}

fn encode_report(report: &ServiceReport) -> Vec<u8> {
    Response::Report(Box::new(report.clone())).encode()
}

// ---------------------------------------------------------------------------
// The frame path on real sockets: one write and one read per frame on
// each side, one thread per connection (see "What a round trip costs"
// in the daemon's crate docs).
// ---------------------------------------------------------------------------

/// A daemon whose clock only client requests move.
fn spawn_unix(tag: &str) -> (qucp_daemon::DaemonHandle, std::path::PathBuf) {
    let path = socket_path(tag);
    let config = DaemonConfig {
        driver_cadence: None,
    };
    let handle = Daemon::spawn_unix(&path, fleet(), config).expect("spawn");
    (handle, path)
}

/// `header ‖ payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    qucp_daemon::write_frame(&mut bytes, payload).expect("fits a frame");
    bytes
}

/// Reads one response frame off a raw stream.
fn next_response(frames: &mut FrameReader, stream: &mut UnixStream) -> Response {
    let payload = frames
        .read_frame(stream)
        .expect("a frame")
        .expect("the daemon answers before it hangs up");
    Response::decode(&payload).expect("decodes")
}

/// A raw connection that has shaken hands.
fn raw_connection(path: &std::path::Path) -> (UnixStream, FrameReader) {
    let mut stream = UnixStream::connect(path).expect("connect");
    let mut frames = FrameReader::new();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    stream.write_all(&framed(&hello.encode())).expect("hello");
    match next_response(&mut frames, &mut stream) {
        Response::HelloAck { .. } => (stream, frames),
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Nagle's algorithm and a frame sent as two segments cost a loopback
/// echo 88 ms; one write per frame and `TCP_NODELAY` on both ends make
/// it microseconds. A bar a thousand times the expected time, so a
/// loaded host cannot trip it.
#[test]
fn a_hundred_echoes_over_loopback_tcp_finish_within_a_second() {
    let config = DaemonConfig {
        driver_cadence: None,
    };
    let (handle, addr) = Daemon::spawn_tcp("127.0.0.1:0", fleet(), config).expect("spawn");
    let mut client = Client::connect_tcp(addr).expect("connect");
    let started = Instant::now();
    for _ in 0..100 {
        client.cache_stats().expect("echo");
    }
    let elapsed = started.elapsed();
    handle.request_shutdown();
    handle.join();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 echoes took {elapsed:?}"
    );
}

/// Inline writes make the socket the only queue: a peer that sends and
/// never reads fills it, the daemon stops reading that peer, and the
/// peer's own writes block — while other connections are served, and
/// without holding up shutdown.
#[test]
fn a_peer_that_never_reads_is_not_read_either_and_pins_nothing_past_shutdown() {
    let request = framed(&Request::CacheStats.encode());
    // Bytes offered per write.
    let chunk = 800 * request.len();

    // What a socket takes in with nobody reading, in writes this size.
    let absorbed = {
        let (mut tx, _rx) = UnixStream::pair().expect("socket pair");
        tx.set_nonblocking(true).expect("nonblocking");
        let unread = vec![0u8; chunk];
        let mut total = 0;
        loop {
            match tx.write(&unread) {
                Ok(n) => total += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break total,
                Err(e) => panic!("socket pair write: {e}"),
            }
        }
    };
    // Bounded, and several times what the daemon can legitimately hold
    // for this peer: one socket buffer, its 16 KiB read buffer, and the
    // few requests it answered before its own writes blocked.
    let tape = request.repeat(4 * absorbed / request.len() + 4 * 16 * 1024);

    let (handle, path) = spawn_unix("stalled-peer");
    let (mut raw, _frames) = raw_connection(&path);
    raw.set_nonblocking(true).expect("nonblocking");
    let mut sent = 0;
    let mut last_progress = Instant::now();
    while sent < tape.len() {
        match raw.write(&tape[sent..tape.len().min(sent + chunk)]) {
            Ok(n) => {
                sent += n;
                last_progress = Instant::now();
            }
            // Full for a moment, or for good?
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if last_progress.elapsed() > Duration::from_millis(500) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("tape write: {e}"),
        }
    }
    assert!(
        sent < tape.len(),
        "the daemon took the whole tape ({sent} bytes, {absorbed} fit a socket) \
         from a peer that reads nothing"
    );

    // Someone else is served meanwhile.
    let mut other = Client::connect_unix(&path).expect("connect");
    other.cache_stats().expect("served beside the stalled peer");

    // The stalled peer is still connected and still not reading.
    let started = Instant::now();
    handle.request_shutdown();
    handle.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?}"
    );
    drop(raw);
}

#[test]
fn a_handshake_and_a_hundred_requests_in_one_write_are_answered_in_order() {
    let (handle, path) = spawn_unix("one-write");
    let mut stream = UnixStream::connect(&path).expect("connect");
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    let mut bytes = framed(&hello.encode());
    for i in 0..100 {
        let submit = Request::Submit(Box::new(bell_request(0.0).with_id(1000 + i)));
        bytes.extend(framed(&submit.encode()));
    }
    assert!(bytes.len() > 2 * 1024, "more than a frame or two");
    let written = stream.write(&bytes).expect("write");
    assert_eq!(written, bytes.len(), "one write call took it all");

    let mut frames = FrameReader::new();
    match next_response(&mut frames, &mut stream) {
        Response::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    for i in 0..100 {
        match next_response(&mut frames, &mut stream) {
            Response::Ticket(ticket) => {
                assert_eq!((ticket.seq, ticket.id), (i, 1000 + i as u64));
            }
            other => panic!("expected ticket {i}, got {other:?}"),
        }
    }
    handle.request_shutdown();
    handle.join();
}

/// The daemon's reads time out every 20 ms to look at the shutdown
/// flag; a frame that is still arriving must survive that, wherever it
/// was cut.
#[test]
fn a_request_dribbled_across_read_timeouts_is_answered() {
    let (handle, path) = spawn_unix("dribble");
    let (mut stream, mut frames) = raw_connection(&path);
    let bytes = framed(&Request::Tick { now: 1_000.0 }.encode());
    assert_eq!(bytes.len(), 4 + 9);
    for (i, byte) in bytes.iter().enumerate() {
        // Inside the header, then inside the payload.
        if i == 2 || i == 8 {
            std::thread::sleep(Duration::from_millis(60));
        }
        stream.write_all(&[*byte]).expect("one byte");
    }
    match next_response(&mut frames, &mut stream) {
        Response::Completed(done) => assert!(done.is_empty()),
        other => panic!("expected Completed, got {other:?}"),
    }
    handle.request_shutdown();
    handle.join();
}

/// A report several read buffers long takes the large-frame path on
/// the client and many partial writes on the daemon.
#[test]
fn a_drain_report_several_read_buffers_long_round_trips_bit_for_bit() {
    let jobs = || (0..240).map(|i| bell_request(i as f64));
    let mut service = fleet();
    for job in jobs() {
        service.submit(job).expect("submit");
    }
    let in_process = service.run_until_drained().expect("drain");
    assert!(
        encode_report(&in_process).len() >= 64 * 1024,
        "only {} bytes",
        encode_report(&in_process).len()
    );

    let (handle, path) = spawn_unix("big-report");
    let mut client = Client::connect_unix(&path).expect("connect");
    for job in jobs() {
        client.submit(job).expect("submit");
    }
    let via_socket = client.drain().expect("drain");
    // The connection is still in step after the large frame.
    client.cache_stats().expect("echo");
    handle.request_shutdown();
    handle.join();
    assert_eq!(encode_report(&via_socket), encode_report(&in_process));
}

/// `advance_dispatch` (what the wall-clock driver calls) must leave
/// the completion queue for `tick` — otherwise a client's `Tick` would
/// race the driver cadence and lose notifications.
#[test]
fn advance_dispatch_preserves_completion_notifications() {
    let mut service = fleet();
    let ticket = service.submit(bell_request(0.0)).expect("submit");
    service
        .advance_dispatch(f64::INFINITY)
        .expect("advance_dispatch");
    // The batch ran (its result exists)...
    assert!(service.result(ticket).is_some(), "batch dispatched");
    // ...but the notification was not consumed: the next tick reports
    // it, exactly once.
    assert_eq!(service.tick(f64::INFINITY).expect("tick"), vec![ticket]);
    assert!(service.tick(f64::INFINITY).expect("tick").is_empty());
}

/// Same property through the daemon: with the wall-clock driver on,
/// a client that never ticked still receives the completion from its
/// own `Tick` — the driver advanced dispatch but did not consume the
/// notification.
#[test]
fn driver_leaves_completion_notifications_to_client_ticks() {
    let path = socket_path("driver-tick");
    let handle = Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: Some(std::time::Duration::from_millis(2)),
        },
    )
    .expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");
    let ticket = client.submit(bell_request(0.0)).expect("submit");
    // Wait until the driver has dispatched the batch...
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while client.report(ticket).expect("report").is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "driver never completed the job"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // ...then the notification must still be deliverable to *us*.
    assert_eq!(client.tick(f64::INFINITY).expect("tick"), vec![ticket]);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Pointing a second daemon at a live socket (or any non-socket path)
/// must fail without touching the original; only stale sockets are
/// reclaimed.
#[test]
fn spawn_unix_refuses_live_sockets_and_foreign_files() {
    // Live daemon: a second spawn fails AddrInUse and the first keeps
    // serving on the untouched socket.
    let path = socket_path("bind-live");
    let handle = Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    )
    .expect("spawn");
    let err = match Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("second daemon on a live socket must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let mut client = Client::connect_unix(&path).expect("first daemon still serves");
    client.submit(bell_request(0.0)).expect("submit");
    client.shutdown().expect("shutdown");
    handle.join();

    // A regular file at the path is refused, not deleted.
    let file = socket_path("bind-file");
    std::fs::write(&file, b"precious").expect("write");
    let err = match Daemon::spawn_unix(
        &file,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("non-socket path must be refused"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert_eq!(std::fs::read(&file).expect("still there"), b"precious");
    std::fs::remove_file(&file).expect("cleanup");

    // A stale socket (no listener behind it) is reclaimed.
    let stale = socket_path("bind-stale");
    drop(std::os::unix::net::UnixListener::bind(&stale).expect("bind"));
    assert!(stale.exists(), "stale socket file left behind");
    let handle = Daemon::spawn_unix(
        &stale,
        fleet(),
        DaemonConfig {
            driver_cadence: None,
        },
    )
    .expect("stale socket is replaced");
    handle.request_shutdown();
    handle.join();
}

#[test]
fn wall_clock_driver_completes_jobs_without_client_ticks() {
    let path = socket_path("driver");
    let handle = Daemon::spawn_unix(
        &path,
        fleet(),
        DaemonConfig {
            driver_cadence: Some(std::time::Duration::from_millis(2)),
        },
    )
    .expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");
    let ticket = client.submit(bell_request(0.0)).expect("submit");
    // The driver folds real elapsed nanoseconds into tick(now); the
    // bell batch completes a few µs into simulated time, so it must
    // appear without this client ever calling tick.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let result = loop {
        if let Some(result) = client.report(ticket).expect("report") {
            break result;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "driver never completed the job"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(result.job_id, ticket.id);
    assert_eq!(handle.driver_errors(), 0);
    client.shutdown().expect("shutdown");
    handle.join();
}
