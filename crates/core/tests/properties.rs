//! Property-based tests for partitioning, mapping and the merged-schedule
//! context.

use proptest::prelude::*;
use qucp_circuit::Circuit;
use qucp_core::{
    allocate_partitions, candidate_partitions, context::build_context, map_program,
    CrosstalkTreatment, PartitionPolicy,
};
use qucp_device::ibm;
use qucp_sim::noiseless_probabilities;
use std::collections::BTreeSet;

/// A random program on `width` qubits biased toward two-qubit structure.
fn arb_program(width: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..width).prop_map(|q| (0, q, q)),
        ((0..width), (0..width))
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (1, a, b)),
    ];
    proptest::collection::vec(gate, 1..25).prop_map(move |ops| {
        let mut c = Circuit::new(width);
        for (kind, a, b) in ops {
            if kind == 0 {
                c.h(a);
            } else {
                c.cx(a, b);
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn candidates_are_connected(size in 2usize..6) {
        let dev = ibm::toronto();
        for c in candidate_partitions(&dev, size, &BTreeSet::new()) {
            prop_assert_eq!(c.len(), size);
            prop_assert!(dev.topology().is_connected_subset(&c));
            let mut sorted = c.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, c);
        }
    }

    #[test]
    fn allocations_always_disjoint(w1 in 2usize..5, w2 in 2usize..5, w3 in 2usize..4) {
        let dev = ibm::manhattan();
        let p1 = {
            let mut c = Circuit::new(w1);
            for i in 1..w1 { c.cx(i - 1, i); }
            c
        };
        let p2 = {
            let mut c = Circuit::new(w2);
            for i in 1..w2 { c.cx(i - 1, i); }
            c
        };
        let p3 = {
            let mut c = Circuit::new(w3);
            for i in 1..w3 { c.cx(i - 1, i); }
            c
        };
        let allocs = allocate_partitions(
            &dev,
            &[&p1, &p2, &p3],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0)),
        ).unwrap();
        let mut all: Vec<usize> = allocs.iter().flat_map(|a| a.qubits.clone()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n);
        prop_assert_eq!(n, w1 + w2 + w3);
        for a in &allocs {
            prop_assert!(dev.topology().is_connected_subset(&a.qubits));
            prop_assert!(a.efs.score >= 0.0);
        }
    }

    #[test]
    fn mapping_routes_every_gate_onto_links(program in arb_program(4)) {
        let dev = ibm::toronto();
        let allocs = allocate_partitions(
            &dev,
            &[&program],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        ).unwrap();
        let mapped = map_program(&dev, &allocs[0].qubits, &program);
        // Both wires are partition qubits: an induced link is a link.
        let layout = &mapped.layout;
        for g in mapped.circuit.gates() {
            if g.is_two_qubit() {
                let qs = g.qubits();
                let qs = qs.as_slice();
                prop_assert!(dev.topology().has_link(layout[qs[0]], layout[qs[1]]));
            }
        }
        // Mappings are permutations.
        let mut init = mapped.initial_mapping.clone();
        init.sort_unstable();
        prop_assert_eq!(init, (0..4).collect::<Vec<_>>());
        let mut fin = mapped.final_mapping.clone();
        fin.sort_unstable();
        prop_assert_eq!(fin, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn routing_preserves_distribution(program in arb_program(4)) {
        let dev = ibm::toronto();
        let allocs = allocate_partitions(
            &dev,
            &[&program],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        ).unwrap();
        let mapped = map_program(&dev, &allocs[0].qubits, &program);
        let routed_p = noiseless_probabilities(&mapped.circuit);
        let logical_p = noiseless_probabilities(&program);
        for (outcome, &p) in routed_p.iter().enumerate() {
            let mut logical = 0usize;
            for (lq, &wire) in mapped.final_mapping.iter().enumerate() {
                if outcome >> wire & 1 == 1 {
                    logical |= 1 << lq;
                }
            }
            prop_assert!((p - logical_p[logical]).abs() < 1e-9);
        }
    }

    #[test]
    fn context_scalings_at_least_one(seed in 0u64..30) {
        let dev = ibm::toronto();
        let p1 = {
            let mut c = Circuit::new(3);
            c.cx(0, 1).cx(1, 2).cx(0, 1);
            c
        };
        let p2 = p1.clone();
        let allocs = allocate_partitions(
            &dev,
            &[&p1, &p2],
            &PartitionPolicy::TopologyGreedy,
        ).unwrap();
        let m1 = map_program(&dev, &allocs[0].qubits, &p1);
        let m2 = map_program(&dev, &allocs[1].qubits, &p2);
        let ctx = build_context(&dev, &[m1, m2], false);
        let _ = seed;
        for s in &ctx.scalings {
            prop_assert!(s.max_factor() >= 1.0);
        }
        prop_assert!(ctx.makespan > 0.0);
        prop_assert!(ctx.serial_runtime >= ctx.makespan);
    }
}
