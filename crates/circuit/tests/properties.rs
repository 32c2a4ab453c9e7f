//! Property-based tests for the circuit IR, scheduling, and QASM round trip.

use proptest::prelude::*;
use qucp_circuit::{schedule, Circuit, Gate};

/// Strategy producing an arbitrary gate on a register of `width` qubits.
fn arb_gate(width: usize) -> impl Strategy<Value = Gate> {
    let q = 0..width;
    let q2 = (0..width, 0..width).prop_filter("distinct qubits", |(a, b)| a != b);
    let angle = -std::f64::consts::TAU..std::f64::consts::TAU;
    prop_oneof![
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::Y),
        q.clone().prop_map(Gate::Z),
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::S),
        q.clone().prop_map(Gate::Sdg),
        q.clone().prop_map(Gate::T),
        q.clone().prop_map(Gate::Tdg),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::Rx(q, a)),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::Ry(q, a)),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::Rz(q, a)),
        (q, angle.clone()).prop_map(|(q, a)| Gate::P(q, a)),
        q2.clone().prop_map(|(a, b)| Gate::Cx(a, b)),
        q2.clone().prop_map(|(a, b)| Gate::Cz(a, b)),
        (q2.clone(), angle).prop_map(|((a, b), t)| Gate::Cp(a, b, t)),
        q2.prop_map(|(a, b)| Gate::Swap(a, b)),
    ]
}

/// Strategy producing a random circuit of up to `max_gates` gates on
/// 2..=6 qubits.
fn arb_circuit(max_gates: usize) -> impl Strategy<Value = Circuit> {
    (2usize..=6).prop_flat_map(move |width| {
        proptest::collection::vec(arb_gate(width), 0..max_gates).prop_map(move |gates| {
            let mut c = Circuit::new(width);
            for g in gates {
                c.push(g);
            }
            c
        })
    })
}

/// A gate duration: calibrated-looking, or one of the values a
/// schedule must survive.
fn arb_duration() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..1000.0f64,
        Just(0.0),
        Just(-0.0),
        Just(-35.0),
        Just(1e-300),
        Just(f64::NAN),
        Just(f64::INFINITY),
    ]
}

/// The peephole pass as it was: copying passes over the gate list until
/// one removes nothing. Returns the kept gates and the number removed.
fn cancel_until_fixed_point(gates: &[Gate]) -> (Vec<Gate>, usize) {
    let mut gates = gates.to_vec();
    let mut removed = 0;
    loop {
        let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
        let mut changed = false;
        for &g in &gates {
            if let Some(&last) = out.last() {
                if last == g.inverse() && last.qubits() == g.qubits() {
                    out.pop();
                    removed += 2;
                    changed = true;
                    continue;
                }
            }
            out.push(g);
        }
        gates = out;
        if !changed {
            return (gates, removed);
        }
    }
}

fn dur(_: usize, g: &Gate) -> f64 {
    if g.is_two_qubit() {
        300.0
    } else {
        35.0
    }
}

/// `Circuit::depth` as it was, one fresh vector of levels per call: the
/// oracle the stack-backed levels must answer as.
fn oracle_depth(c: &Circuit) -> usize {
    let mut level = vec![0usize; c.width()];
    let mut depth = 0;
    for g in c.gates() {
        let start = g.qubits().into_iter().map(|q| level[q]).max().unwrap_or(0);
        for q in &g.qubits() {
            level[q] = start + 1;
        }
        depth = depth.max(start + 1);
    }
    depth
}

proptest! {
    #[test]
    fn depth_never_exceeds_gate_count(c in arb_circuit(60)) {
        prop_assert!(c.depth() <= c.gate_count());
    }

    /// Registers on both sides of the 128 qubits kept on the stack, with
    /// gates crowded onto a few qubits or spread over all of them.
    #[test]
    fn depth_answers_as_the_vector_of_levels_did(
        width in prop_oneof![1usize..=8, 120usize..=140],
        crowd in 1usize..=4,
        picks in proptest::collection::vec((0usize..1_000, 0usize..1_000, 0u8..3), 0..80),
    ) {
        let span = if crowd == 4 { width } else { width.min(crowd + 1) };
        let mut c = Circuit::new(width);
        for (a, b, kind) in picks {
            let (a, b) = (a % span, b % span);
            if kind == 0 || a == b {
                c.h(a);
            } else {
                c.cx(a, b);
            }
        }
        prop_assert_eq!(c.depth(), oracle_depth(&c));
    }

    #[test]
    fn counts_are_consistent(c in arb_circuit(60)) {
        prop_assert_eq!(c.single_qubit_count() + c.two_qubit_count(), c.gate_count());
        prop_assert!(c.cx_count() <= c.two_qubit_count());
        let by_name: usize = c.count_ops().values().sum();
        prop_assert_eq!(by_name, c.gate_count());
    }

    #[test]
    fn double_inverse_is_identity(c in arb_circuit(40)) {
        let back = c.inverse().inverse();
        prop_assert_eq!(back.gates(), c.gates());
    }

    #[test]
    fn identity_remap_preserves_gates(c in arb_circuit(40)) {
        let mapping: Vec<usize> = (0..c.width()).collect();
        let mapped = c.remap(&mapping, c.width()).unwrap();
        prop_assert_eq!(mapped.gates(), c.gates());
    }

    #[test]
    fn shifted_remap_preserves_structure(c in arb_circuit(40)) {
        let mapping: Vec<usize> = (0..c.width()).map(|q| q + 3).collect();
        let mapped = c.remap(&mapping, c.width() + 3).unwrap();
        prop_assert_eq!(mapped.gate_count(), c.gate_count());
        prop_assert_eq!(mapped.cx_count(), c.cx_count());
        prop_assert_eq!(mapped.depth(), c.depth());
    }

    #[test]
    fn cancellation_never_grows(c in arb_circuit(60)) {
        let before = c.gate_count();
        let mut copy = c.clone();
        let removed = copy.cancel_adjacent_inverses();
        prop_assert_eq!(copy.gate_count() + removed, before);
        // One pass reaches the fixed point...
        let folded = copy.clone();
        prop_assert_eq!(copy.cancel_adjacent_inverses(), 0);
        prop_assert_eq!(copy.gates(), folded.gates());
        // ...that the copying loop to a fixed point reached.
        let (gates, oracle_removed) = cancel_until_fixed_point(c.gates());
        prop_assert_eq!(folded.gates(), &gates[..]);
        prop_assert_eq!(removed, oracle_removed);
    }

    #[test]
    fn asap_alap_same_makespan(c in arb_circuit(60)) {
        let asap = schedule::asap_schedule_with(&c, dur);
        let alap = schedule::alap_schedule_with(&c, dur);
        prop_assert!((asap.makespan() - alap.makespan()).abs() < 1e-6);
    }

    #[test]
    fn alap_makespan_is_the_asap_makespan_bit_for_bit(
        c in arb_circuit(60),
        durations in proptest::collection::vec(arb_duration(), 1..16),
    ) {
        // Any duration a calibration can hold, signed zeros, negatives
        // and NaN included: the forward pass is the ASAP pass's `max`.
        let duration = |i: usize, _: &Gate| durations[i % durations.len()];
        let asap = schedule::asap_schedule_with(&c, duration);
        let alap = schedule::alap_schedule_with(&c, duration);
        prop_assert_eq!(asap.makespan().to_bits(), alap.makespan().to_bits());
    }

    #[test]
    fn alap_entries_within_makespan(c in arb_circuit(60)) {
        let alap = schedule::alap_schedule_with(&c, dur);
        for e in alap.entries() {
            prop_assert!(e.start >= -1e-9);
            prop_assert!(e.end() <= alap.makespan() + 1e-9);
        }
    }

    #[test]
    fn alap_preserves_per_qubit_order(c in arb_circuit(60)) {
        let alap = schedule::alap_schedule_with(&c, dur);
        for q in 0..c.width() {
            let mut last_end = -1e18;
            for (i, g) in c.gates().iter().enumerate() {
                if g.qubits().contains(q) {
                    let e = alap.entries()[i];
                    prop_assert!(e.start >= last_end - 1e-9,
                        "gate {i} starts before predecessor ends on qubit {q}");
                    last_end = e.end();
                }
            }
        }
    }

    #[test]
    fn moments_partition_gates(c in arb_circuit(60)) {
        let m = schedule::moments(&c);
        let mut seen = vec![false; c.gate_count()];
        for layer in &m {
            // Gates within a moment act on disjoint qubits.
            let mut used = std::collections::HashSet::new();
            for &gi in layer {
                prop_assert!(!seen[gi]);
                seen[gi] = true;
                for q in &c.gates()[gi].qubits() {
                    prop_assert!(used.insert(q), "qubit collision inside moment");
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        prop_assert_eq!(m.len(), c.depth());
    }

    #[test]
    fn qasm_round_trip_preserves_counts(c in arb_circuit(40)) {
        let parsed = qucp_circuit::parse_qasm(&c.to_qasm()).unwrap();
        prop_assert_eq!(parsed.width(), c.width());
        prop_assert_eq!(parsed.gate_count(), c.gate_count());
        prop_assert_eq!(parsed.cx_count(), c.cx_count());
        prop_assert_eq!(parsed.two_qubit_count(), c.two_qubit_count());
    }

    #[test]
    fn idle_windows_are_ordered_and_positive(c in arb_circuit(60)) {
        let s = schedule::alap_schedule_with(&c, dur);
        for windows in s.idle_windows(&c) {
            let mut prev_end = -1e18;
            for (a, b) in windows {
                prop_assert!(b > a);
                prop_assert!(a >= prev_end - 1e-9);
                prev_end = b;
            }
        }
    }
}
