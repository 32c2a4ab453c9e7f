//! Golden wire frames: every message, enum variant and field order of
//! protocol version 3 as committed bytes.
//!
//! The round-trip proptests (`tests/integration_daemon.rs`) hold a
//! type's encoder and decoder to *each other*; a change that moves both
//! the same way — two fields swapped in the one declaration, a tag
//! renumbered — passes them. These literals were printed by the encoder
//! of the commit before the codec was rewritten, and **are never
//! regenerated**: a frame that stops matching is a wire break (bump
//! [`PROTOCOL_VERSION`] and append, do not edit), and a new tag or
//! trailing field gets a new frame beside the old ones.

use std::collections::BTreeMap;
use std::sync::Arc;

use qucp_circuit::{Circuit, Gate};
use qucp_core::{CoreError, CrosstalkTreatment, PartitionPolicy, ProgramResult, Strategy};
use qucp_daemon::{Fault, Request, Response, PROTOCOL_VERSION};
use qucp_device::{Link, LinkPair};
use qucp_runtime::{
    BatchReport, CalibrationFault, DeviceReport, Event, JobRequest, JobResult, JobTicket,
    QueueStats, RouteCacheStats, RoutingChoice, RuntimeError, ServiceReport, ShotParallelism,
    ShrinkReason, TrajectoryKernel,
};
use qucp_sim::Counts;

/// A quiet NaN with a payload: only a bit-pattern codec carries it.
const NAN_BITS: u64 = 0x7ff8_dead_beef_0001;

fn bytes_of(hex: &str) -> Vec<u8> {
    hex.as_bytes()
        .chunks(2)
        .map(|pair| {
            let pair = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(pair, 16).expect("two hex digits")
        })
        .collect()
}

fn ticket() -> JobTicket {
    JobTicket { seq: 3, id: 41 }
}

/// Every gate kind once, in tag order, on three qubits.
fn every_gate() -> Circuit {
    let mut c = Circuit::with_name(3, "every-gate");
    for gate in [
        Gate::I(0),
        Gate::X(1),
        Gate::Y(2),
        Gate::Z(0),
        Gate::H(1),
        Gate::S(2),
        Gate::Sdg(0),
        Gate::T(1),
        Gate::Tdg(2),
        Gate::Sx(0),
        Gate::Sxdg(1),
        Gate::Rx(2, 0.25),
        Gate::Ry(0, -0.5),
        Gate::Rz(1, 1.75),
        Gate::P(2, -0.0),
        Gate::U(0, 0.125, 2.5, -3.0),
        Gate::Cx(0, 1),
        Gate::Cz(1, 2),
        Gate::Cp(2, 0, 0.75),
        Gate::Swap(0, 2),
    ] {
        c.try_push(gate).expect("valid gate");
    }
    c
}

fn bell() -> Circuit {
    let mut c = Circuit::with_name(2, "bell");
    c.try_push(Gate::H(0)).unwrap();
    c.try_push(Gate::Cx(0, 1)).unwrap();
    c
}

fn strategy(name: &str, partition: PartitionPolicy, routing: bool, serialize: bool) -> Strategy {
    Strategy {
        name: name.into(),
        partition,
        crosstalk_aware_routing: routing,
        serialize_conflicts: serialize,
    }
}

/// A job request with every override set; the strategy carries a
/// two-entry measured crosstalk map.
fn full_request() -> JobRequest {
    let measured: BTreeMap<LinkPair, f64> = [
        (LinkPair::new(Link::new(0, 1), Link::new(2, 3)), 3.5),
        (LinkPair::new(Link::new(4, 7), Link::new(10, 12)), 1.25),
    ]
    .into_iter()
    .collect();
    JobRequest {
        circuit: every_gate(),
        arrival: 125.5,
        id: Some(77),
        shots: Some(4096),
        strategy: Some(strategy(
            "measured",
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(measured)),
            true,
            false,
        )),
        fidelity_threshold: Some(0.125),
        shot_parallelism: Some(ShotParallelism::Sharded {
            shards: 8,
            threads: 2,
        }),
        trajectory_kernel: Some(TrajectoryKernel::SurvivalSkip),
        routing: Some(RoutingChoice::CalibrationAware {
            pressure_per_ns: 2.5e-7,
        }),
    }
}

/// A bell job carrying `strategy` and the given enum overrides — the
/// variants [`full_request`] does not reach.
fn bell_with(
    strategy: Strategy,
    parallelism: ShotParallelism,
    kernel: TrajectoryKernel,
    routing: RoutingChoice,
) -> JobRequest {
    JobRequest {
        strategy: Some(strategy),
        shot_parallelism: Some(parallelism),
        trajectory_kernel: Some(kernel),
        routing: Some(routing),
        ..JobRequest::new(bell(), 0.0)
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let submit = |job| Request::Submit(Box::new(job));
    vec![
        (
            "hello",
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
        ),
        ("submit_plain", submit(JobRequest::new(bell(), 10.0))),
        ("submit_every_override", submit(full_request())),
        (
            "submit_sigma_auto_replay_earliest",
            submit(bell_with(
                strategy(
                    "sigma",
                    PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0)),
                    false,
                    true,
                ),
                ShotParallelism::Auto,
                TrajectoryKernel::Replay,
                RoutingChoice::EarliestFree,
            )),
        ),
        (
            "submit_no_crosstalk_serial",
            submit(bell_with(
                strategy(
                    "plain",
                    PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
                    false,
                    false,
                ),
                ShotParallelism::Serial,
                TrajectoryKernel::Replay,
                RoutingChoice::EarliestFree,
            )),
        ),
        (
            "submit_topology_greedy",
            submit(JobRequest {
                strategy: Some(strategy(
                    "greedy",
                    PartitionPolicy::TopologyGreedy,
                    true,
                    true,
                )),
                ..JobRequest::new(bell(), 0.0)
            }),
        ),
        (
            "submit_fidelity_degree",
            submit(JobRequest {
                strategy: Some(strategy(
                    "degree",
                    PartitionPolicy::FidelityDegree,
                    false,
                    false,
                )),
                ..JobRequest::new(bell(), 0.0)
            }),
        ),
        ("tick", Request::Tick { now: 1500.0 }),
        ("tick_drain", Request::Tick { now: f64::INFINITY }),
        (
            "tick_nan_payload",
            Request::Tick {
                now: f64::from_bits(NAN_BITS),
            },
        ),
        ("report", Request::Report { ticket: ticket() }),
        ("drain", Request::Drain),
        ("take_result", Request::TakeResult { ticket: ticket() }),
        ("events", Request::Events),
        ("shutdown", Request::Shutdown),
        ("cache_stats", Request::CacheStats),
    ]
}

fn job_result(job_id: u64, pst: Option<f64>) -> JobResult {
    JobResult {
        job_id,
        batch_index: 2,
        start: 100.0,
        completion: 460.0,
        waiting: 90.0,
        turnaround: 450.0,
        result: Arc::new(ProgramResult {
            name: "bell".into(),
            partition: vec![4, 7],
            efs: 0.03125,
            swap_count: 1,
            counts: Counts::from_entries(2, [(0, 30), (3, 33), (1, 1)]).expect("valid counts"),
            pst,
            jsd: 0.015625,
        }),
    }
}

fn queue_stats(batches: usize) -> QueueStats {
    QueueStats {
        mean_waiting: 45.0,
        mean_turnaround: 225.5,
        makespan: 460.0,
        mean_throughput: 0.4375,
        batches,
    }
}

fn events() -> Vec<(&'static str, Event)> {
    vec![
        (
            "event_job_submitted",
            Event::JobSubmitted {
                job_id: 41,
                seq: 3,
                arrival: 10.0,
                width: 2,
                shots: 64,
            },
        ),
        (
            "event_batch_routed",
            Event::BatchRouted {
                batch_index: 2,
                device: "toronto".into(),
                policy: "calibration-aware".into(),
                score: 0.0625,
                start: 100.0,
                candidates: 2,
            },
        ),
        (
            "event_batch_planned",
            Event::BatchPlanned {
                batch_index: 2,
                device: "toronto".into(),
                job_ids: Arc::from([41, 42]),
                start: 100.0,
                makespan: 360.0,
            },
        ),
        (
            "event_batch_shrunk_partition",
            Event::BatchShrunk {
                batch_index: 2,
                device: "toronto".into(),
                dropped_job_id: 43,
                remaining: 2,
                reason: ShrinkReason::PartitionFailure,
            },
        ),
        (
            "event_batch_shrunk_gate",
            Event::BatchShrunk {
                batch_index: 2,
                device: "toronto".into(),
                dropped_job_id: 44,
                remaining: 1,
                reason: ShrinkReason::FidelityGate,
            },
        ),
        (
            "event_device_recalibrated",
            Event::DeviceRecalibrated {
                device: "melbourne".into(),
                epoch: 5,
            },
        ),
        (
            "event_job_completed",
            Event::JobCompleted {
                job_id: 41,
                seq: 3,
                batch_index: 2,
                completion: 460.0,
                turnaround: 450.0,
            },
        ),
    ]
}

/// Every runtime error, `InvalidCalibration` once per fault; the two
/// variants with a planning error inside carry one a session can see.
fn runtime_errors() -> Vec<(&'static str, RuntimeError)> {
    let invalid = |fault| RuntimeError::InvalidCalibration {
        device: "toronto".into(),
        fault,
    };
    vec![
        ("runtime_zero_parallel", RuntimeError::ZeroParallel),
        ("runtime_no_devices", RuntimeError::NoDevices),
        ("runtime_zero_shots", RuntimeError::ZeroShots),
        ("runtime_empty_circuit", RuntimeError::EmptyCircuit),
        (
            "runtime_non_finite_time",
            RuntimeError::NonFiniteTime {
                value: f64::NEG_INFINITY,
            },
        ),
        (
            "runtime_invalid_threshold",
            RuntimeError::InvalidThreshold { value: -1.5 },
        ),
        (
            "runtime_invalid_calibration_non_finite",
            invalid(CalibrationFault::NonFinite),
        ),
        (
            "runtime_invalid_calibration_qubit_count",
            invalid(CalibrationFault::QubitCountMismatch {
                expected: 27,
                got: 15,
            }),
        ),
        (
            "runtime_invalid_calibration_missing_links",
            invalid(CalibrationFault::MissingLinks),
        ),
        (
            "runtime_drift_horizon_too_far",
            RuntimeError::DriftHorizonTooFar {
                steps: 1_000_001,
                max: 1_000_000,
            },
        ),
        (
            "runtime_job_unplaceable",
            RuntimeError::JobUnplaceable {
                job_id: 9,
                source: CoreError::ProgramTooWide {
                    program: 0,
                    width: 64,
                    device: 27,
                },
            },
        ),
        (
            "runtime_core",
            RuntimeError::Core(CoreError::PartitionUnavailable {
                program: 1,
                size: 5,
            }),
        ),
        (
            "runtime_queue_corrupted",
            RuntimeError::QueueCorrupted { seq: 12 },
        ),
        (
            "runtime_invalid_calibration_out_of_range",
            invalid(CalibrationFault::OutOfRange),
        ),
        (
            "runtime_invalid_strategy",
            RuntimeError::InvalidStrategy {
                value: f64::INFINITY,
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut all = vec![
        ("hello_ack", Response::HelloAck { version: 2 }),
        ("ticket", Response::Ticket(ticket())),
        (
            "completed",
            Response::Completed(vec![ticket(), JobTicket { seq: 4, id: 42 }]),
        ),
        ("completed_none", Response::Completed(Vec::new())),
        ("job_report_pending", Response::JobReport(None)),
        (
            "job_report",
            Response::JobReport(Some(Box::new(job_result(41, Some(0.96875))))),
        ),
        ("taken_spent", Response::Taken(None)),
        (
            "taken",
            Response::Taken(Some(Box::new(job_result(42, None)))),
        ),
        (
            "report",
            Response::Report(Box::new(ServiceReport {
                stats: queue_stats(1),
                per_device: vec![
                    DeviceReport {
                        device: "melbourne".into(),
                        jobs: 0,
                        stats: queue_stats(0),
                    },
                    DeviceReport {
                        device: "toronto".into(),
                        jobs: 2,
                        stats: queue_stats(1),
                    },
                ],
                batches: vec![BatchReport {
                    batch_index: 2,
                    device: "toronto".into(),
                    job_ids: Arc::from([41, 42]),
                    start: 100.0,
                    completion: 460.0,
                    makespan: 360.0,
                    used_qubits: 4,
                    conflict_count: 1,
                }],
                job_results: vec![job_result(41, Some(0.96875)), job_result(42, None)],
                events: events().into_iter().map(|(_, event)| event).collect(),
                dropped_events: 6,
            })),
        ),
        ("events_none", Response::Events(Vec::new())),
        (
            "error_unsupported_version",
            Response::Error(Fault::UnsupportedVersion {
                client: 0,
                min: 1,
                max: 3,
            }),
        ),
        (
            "error_handshake_required",
            Response::Error(Fault::HandshakeRequired),
        ),
        (
            "error_unknown_request",
            Response::Error(Fault::UnknownRequest { tag: 0x55 }),
        ),
        (
            "error_malformed_request",
            Response::Error(Fault::MalformedRequest {
                detail: "3 trailing bytes after a complete message".into(),
            }),
        ),
        ("error_shutting_down", Response::Error(Fault::ShuttingDown)),
        (
            "cache_stats",
            Response::CacheStats(RouteCacheStats {
                hits: 8,
                misses: 6,
                entries: 5,
                invalidated: 1,
                plan_hits: 70,
                plan_misses: 3,
                plan_entries: 2,
                plan_invalidated: 4,
            }),
        ),
    ];
    all.extend(
        events()
            .into_iter()
            .map(|(name, event)| (name, Response::Events(vec![event]))),
    );
    all.extend(
        runtime_errors()
            .into_iter()
            .map(|(name, e)| (name, Response::Error(Fault::from(e)))),
    );
    all
}

#[test]
fn every_request_frame_is_the_committed_one() {
    let requests = requests();
    assert_eq!(requests.len(), REQUEST_FRAMES.len());
    for ((name, request), (golden_name, hex)) in requests.iter().zip(REQUEST_FRAMES) {
        assert_eq!(name, golden_name);
        let bytes = bytes_of(hex);
        assert_eq!(request.encode(), bytes, "{name}: encoder moved");
        let decoded = Request::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        match (&decoded, request) {
            // NaN is not equal to itself; its bits are.
            (Request::Tick { now: got }, Request::Tick { now: want }) => {
                assert_eq!(got.to_bits(), want.to_bits(), "{name}: decoder moved");
            }
            _ => assert_eq!(&decoded, request, "{name}: decoder moved"),
        }
    }
}

#[test]
fn every_response_frame_is_the_committed_one() {
    let responses = responses();
    assert_eq!(responses.len(), RESPONSE_FRAMES.len());
    for ((name, response), (golden_name, hex)) in responses.iter().zip(RESPONSE_FRAMES) {
        assert_eq!(name, golden_name);
        let bytes = bytes_of(hex);
        assert_eq!(response.encode(), bytes, "{name}: encoder moved");
        let decoded = Response::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&decoded, response, "{name}: decoder moved");
    }
}

/// A v3 peer that never learned the plan cache stops after the four
/// probe counters: the committed short frame still decodes, and does
/// not re-encode to itself (this build always sends all eight).
#[test]
fn the_short_cache_stats_frame_of_an_older_peer_still_decodes() {
    let (_, hex) = RESPONSE_FRAMES
        .iter()
        .find(|(name, _)| *name == "cache_stats")
        .expect("cache_stats frame");
    let bytes = bytes_of(hex);
    let short = &bytes[..1 + 4 * 8];
    assert_eq!(
        Response::decode(short),
        Ok(Response::CacheStats(RouteCacheStats {
            hits: 8,
            misses: 6,
            entries: 5,
            invalidated: 1,
            ..RouteCacheStats::default()
        }))
    );
}

const REQUEST_FRAMES: &[(&str, &str)] = &[
    ("hello", "01514350440300"),
    (
        "submit_plain",
        "020200000000000000040000000000000062656c6c0200000000000000040000\
         0000000000001000000000000000000100000000000000000000000000244000\
         000000000000",
    ),
    (
        "submit_every_override",
        "0203000000000000000a0000000000000065766572792d676174651400000000\
         0000000000000000000000000101000000000000000202000000000000000300\
         0000000000000004010000000000000005020000000000000006000000000000\
         00000701000000000000000802000000000000000900000000000000000a0100\
         0000000000000b0200000000000000000000000000d03f0c0000000000000000\
         000000000000e0bf0d0100000000000000000000000000fc3f0e020000000000\
         000000000000000000800f0000000000000000000000000000c03f0000000000\
         00044000000000000008c0100000000000000000010000000000000011010000\
         0000000000020000000000000012020000000000000000000000000000000000\
         00000000e83f13000000000000000002000000000000000000000000605f4001\
         4d000000000000000100100000000000000108000000000000006d6561737572\
         6564000202000000000000000000000000000000010000000000000002000000\
         0000000003000000000000000000000000000c40040000000000000007000000\
         000000000a000000000000000c00000000000000000000000000f43f01000100\
         0000000000c03f010108000000000000000200000000000000010101018dedb5\
         a0f7c6903e",
    ),
    (
        "submit_sigma_auto_replay_earliest",
        "020200000000000000040000000000000062656c6c0200000000000000040000\
         0000000000001000000000000000000100000000000000000000000000000000\
         000105000000000000007369676d610001000000000000104000010001020100\
         0100",
    ),
    (
        "submit_no_crosstalk_serial",
        "020200000000000000040000000000000062656c6c0200000000000000040000\
         0000000000001000000000000000000100000000000000000000000000000000\
         00010500000000000000706c61696e0000000000010001000100",
    ),
    (
        "submit_topology_greedy",
        "020200000000000000040000000000000062656c6c0200000000000000040000\
         0000000000001000000000000000000100000000000000000000000000000000\
         0001060000000000000067726565647901010100000000",
    ),
    (
        "submit_fidelity_degree",
        "020200000000000000040000000000000062656c6c0200000000000000040000\
         0000000000001000000000000000000100000000000000000000000000000000\
         0001060000000000000064656772656502000000000000",
    ),
    ("tick", "030000000000709740"),
    ("tick_drain", "03000000000000f07f"),
    ("tick_nan_payload", "030100efbeaddef87f"),
    ("report", "0403000000000000002900000000000000"),
    ("drain", "05"),
    ("take_result", "0803000000000000002900000000000000"),
    ("events", "06"),
    ("shutdown", "07"),
    ("cache_stats", "09"),
];

const RESPONSE_FRAMES: &[(&str, &str)] = &[
    ("hello_ack", "81514350440200"),
    ("ticket", "8203000000000000002900000000000000"),
    (
        "completed",
        "8302000000000000000300000000000000290000000000000004000000000000\
         002a00000000000000",
    ),
    ("completed_none", "830000000000000000"),
    ("job_report_pending", "8400"),
    (
        "job_report",
        "84012900000000000000020000000000000000000000000059400000000000c0\
         7c4000000000008056400000000000207c40040000000000000062656c6c0200\
         00000000000004000000000000000700000000000000000000000000a03f0100\
         0000000000000200000000000000030000000000000000000000000000001e00\
         0000000000000100000000000000010000000000000003000000000000002100\
         00000000000001000000000000ef3f000000000000903f",
    ),
    ("taken_spent", "8800"),
    (
        "taken",
        "88012a00000000000000020000000000000000000000000059400000000000c0\
         7c4000000000008056400000000000207c40040000000000000062656c6c0200\
         00000000000004000000000000000700000000000000000000000000a03f0100\
         0000000000000200000000000000030000000000000000000000000000001e00\
         0000000000000100000000000000010000000000000003000000000000002100\
         00000000000000000000000000903f",
    ),
    (
        "report",
        "8500000000008046400000000000306c400000000000c07c40000000000000dc\
         3f0100000000000000020000000000000009000000000000006d656c626f7572\
         6e65000000000000000000000000008046400000000000306c400000000000c0\
         7c40000000000000dc3f00000000000000000700000000000000746f726f6e74\
         6f020000000000000000000000008046400000000000306c400000000000c07c\
         40000000000000dc3f0100000000000000010000000000000002000000000000\
         000700000000000000746f726f6e746f02000000000000002900000000000000\
         2a0000000000000000000000000059400000000000c07c400000000000807640\
         0400000000000000010000000000000002000000000000002900000000000000\
         020000000000000000000000000059400000000000c07c400000000000805640\
         0000000000207c40040000000000000062656c6c020000000000000004000000\
         000000000700000000000000000000000000a03f010000000000000002000000\
         00000000030000000000000000000000000000001e0000000000000001000000\
         0000000001000000000000000300000000000000210000000000000001000000\
         000000ef3f000000000000903f2a000000000000000200000000000000000000\
         00000059400000000000c07c4000000000008056400000000000207c40040000\
         000000000062656c6c0200000000000000040000000000000007000000000000\
         00000000000000a03f0100000000000000020000000000000003000000000000\
         0000000000000000001e00000000000000010000000000000001000000000000\
         000300000000000000210000000000000000000000000000903f070000000000\
         0000002900000000000000030000000000000000000000000024400200000000\
         00000040000000000000000102000000000000000700000000000000746f726f\
         6e746f110000000000000063616c6962726174696f6e2d617761726500000000\
         0000b03f00000000000059400200000000000000020200000000000000070000\
         0000000000746f726f6e746f020000000000000029000000000000002a000000\
         0000000000000000000059400000000000807640030200000000000000070000\
         0000000000746f726f6e746f2b00000000000000020000000000000000030200\
         0000000000000700000000000000746f726f6e746f2c00000000000000010000\
         0000000000010409000000000000006d656c626f75726e650500000000000000\
         052900000000000000030000000000000002000000000000000000000000c07c\
         400000000000207c400600000000000000",
    ),
    ("events_none", "860000000000000000"),
    ("error_unsupported_version", "8700000001000300"),
    ("error_handshake_required", "8701"),
    ("error_unknown_request", "870255"),
    (
        "error_malformed_request",
        "870329000000000000003320747261696c696e67206279746573206166746572\
         206120636f6d706c657465206d657373616765",
    ),
    ("error_shutting_down", "8705"),
    (
        "cache_stats",
        "8908000000000000000600000000000000050000000000000001000000000000\
         0046000000000000000300000000000000020000000000000004000000000000\
         00",
    ),
    (
        "event_job_submitted",
        "8601000000000000000029000000000000000300000000000000000000000000\
         244002000000000000004000000000000000",
    ),
    (
        "event_batch_routed",
        "8601000000000000000102000000000000000700000000000000746f726f6e74\
         6f110000000000000063616c6962726174696f6e2d6177617265000000000000\
         b03f00000000000059400200000000000000",
    ),
    (
        "event_batch_planned",
        "8601000000000000000202000000000000000700000000000000746f726f6e74\
         6f020000000000000029000000000000002a0000000000000000000000000059\
         400000000000807640",
    ),
    (
        "event_batch_shrunk_partition",
        "8601000000000000000302000000000000000700000000000000746f726f6e74\
         6f2b00000000000000020000000000000000",
    ),
    (
        "event_batch_shrunk_gate",
        "8601000000000000000302000000000000000700000000000000746f726f6e74\
         6f2c00000000000000010000000000000001",
    ),
    (
        "event_device_recalibrated",
        "8601000000000000000409000000000000006d656c626f75726e650500000000\
         000000",
    ),
    (
        "event_job_completed",
        "8601000000000000000529000000000000000300000000000000020000000000\
         00000000000000c07c400000000000207c40",
    ),
    ("runtime_zero_parallel", "870400"),
    ("runtime_no_devices", "870401"),
    ("runtime_zero_shots", "870402"),
    ("runtime_empty_circuit", "870403"),
    ("runtime_non_finite_time", "870404000000000000f0ff"),
    ("runtime_invalid_threshold", "870405000000000000f8bf"),
    (
        "runtime_invalid_calibration_non_finite",
        "8704060700000000000000746f726f6e746f00",
    ),
    (
        "runtime_invalid_calibration_qubit_count",
        "8704060700000000000000746f726f6e746f011b000000000000000f00000000\
         000000",
    ),
    (
        "runtime_invalid_calibration_missing_links",
        "8704060700000000000000746f726f6e746f02",
    ),
    (
        "runtime_drift_horizon_too_far",
        "87040741420f000000000040420f0000000000",
    ),
    (
        "runtime_job_unplaceable",
        "87040809000000000000002f0000000000000070726f6772616d2030206e6565\
         6473203634207175626974732062757420746865206465766963652068617320\
         3237",
    ),
    (
        "runtime_core",
        "87040933000000000000006e6f206672656520636f6e6e656374656420706172\
         746974696f6e206f662073697a65203520666f722070726f6772616d2031",
    ),
    ("runtime_queue_corrupted", "87040a0c00000000000000"),
    (
        "runtime_invalid_calibration_out_of_range",
        "8704060700000000000000746f726f6e746f03",
    ),
    ("runtime_invalid_strategy", "87040b000000000000f07f"),
];
