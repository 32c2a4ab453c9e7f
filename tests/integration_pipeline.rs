//! Cross-crate integration tests: the full QuCP pipeline
//! (partition → map → schedule → execute → score) on real device models.

use qucp_bench::{combo_circuits, FIG3B_COMBOS};
use qucp_circuit::library;
use qucp_core::{strategy, ParallelConfig, Pipeline};
use qucp_device::ibm;
use qucp_sim::ExecutionConfig;

fn quick_cfg(shots: usize) -> ParallelConfig {
    ParallelConfig {
        execution: ExecutionConfig::default().with_shots(shots).with_seed(77),
        optimize: true,
    }
}

#[test]
fn full_pipeline_on_toronto() {
    let device = ibm::toronto();
    let programs = combo_circuits(&FIG3B_COMBOS[4]); // adder-fred-alu
    let out = Pipeline::from_strategy(&strategy::qucp(4.0))
        .execute(&device, &programs, &quick_cfg(512))
        .expect("pipeline");
    assert_eq!(out.programs.len(), 3);
    // Disjoint partitions covering 4+3+5 qubits.
    let mut qubits: Vec<usize> = out
        .programs
        .iter()
        .flat_map(|p| p.partition.clone())
        .collect();
    let n = qubits.len();
    qubits.sort_unstable();
    qubits.dedup();
    assert_eq!(qubits.len(), n);
    assert_eq!(n, 12);
    assert!((out.throughput - 12.0 / 27.0).abs() < 1e-12);
    // Every program yields full shot counts and bounded metrics.
    for p in &out.programs {
        assert_eq!(p.counts.shots(), 512);
        assert!(p.jsd >= 0.0 && p.jsd <= 1.0);
        let pst = p.pst.expect("deterministic benchmarks");
        assert!((0.0..=1.0).contains(&pst));
    }
    // Parallel must beat serial runtime.
    assert!(out.runtime_reduction() > 1.5);
}

#[test]
fn pipeline_scales_to_manhattan_six_copies() {
    let device = ibm::manhattan();
    let base = library::by_name("4mod5-v1_22").unwrap().circuit();
    let programs: Vec<_> = (0..6)
        .map(|i| {
            let mut c = base.clone();
            c.set_name(format!("copy{i}"));
            c
        })
        .collect();
    let out = Pipeline::from_strategy(&strategy::qucp(4.0))
        .execute(&device, &programs, &quick_cfg(256))
        .expect("six copies fit on Manhattan");
    assert_eq!(out.programs.len(), 6);
    assert!((out.throughput - 30.0 / 65.0).abs() < 1e-12);
    assert!(out.runtime_reduction() > 3.0);
}

#[test]
fn planning_produces_executable_mappings() {
    let device = ibm::toronto();
    let programs = combo_circuits(&FIG3B_COMBOS[5]);
    for strat in [
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(&device),
        strategy::cna(),
        strategy::multiqc(),
        strategy::qucloud(),
    ] {
        let (_, allocs, mapped) = Pipeline::from_strategy(&strat)
            .plan_unmerged(&device, &programs, true)
            .expect("plan");
        for (alloc, mp) in allocs.iter().zip(&mapped) {
            // Every routed 2q gate sits on a physical link.
            for g in mp.circuit.gates() {
                if g.is_two_qubit() {
                    let qs = g.qubits();
                    let qs = qs.as_slice();
                    let (a, b) = (mp.layout[qs[0]], mp.layout[qs[1]]);
                    assert!(
                        device.topology().has_link(a, b),
                        "{}: unrouted gate in {}",
                        strat.name,
                        mp.circuit.name()
                    );
                }
            }
            assert_eq!(alloc.qubits, mp.layout);
        }
    }
}

#[test]
fn logical_counts_match_ideal_distribution_when_noise_free() {
    // With all noise channels off, the parallel pipeline must reproduce
    // the ideal distribution exactly (up to sampling), proving that the
    // output-permutation bookkeeping through routing is correct.
    let device = ibm::toronto();
    let programs = vec![library::by_name("adder").unwrap().circuit()];
    let cfg = ParallelConfig {
        execution: ExecutionConfig {
            shots: 400,
            seed: 5,
            gate_noise: false,
            readout_noise: false,
            idle_noise: false,
            ..ExecutionConfig::default()
        },
        optimize: true,
    };
    let out = Pipeline::from_strategy(&strategy::qucp(4.0))
        .execute(&device, &programs, &cfg)
        .unwrap();
    let r = &out.programs[0];
    // adder is deterministic: every noise-free shot must hit the target.
    assert_eq!(r.pst, Some(1.0));
    assert!(r.jsd < 1e-6);
}

#[test]
fn conflict_free_plans_have_unit_scalings() {
    // QuCP with a huge sigma refuses any one-hop adjacency: no conflicts.
    let device = ibm::toronto();
    let programs = combo_circuits(&FIG3B_COMBOS[7]);
    let out = Pipeline::from_strategy(&strategy::qucp(100.0))
        .execute(&device, &programs, &quick_cfg(128))
        .expect("run");
    assert_eq!(out.conflict_count, 0);
}

#[test]
fn deterministic_across_runs() {
    let device = ibm::toronto();
    let programs = combo_circuits(&FIG3B_COMBOS[6]);
    let a = Pipeline::from_strategy(&strategy::qucp(4.0))
        .execute(&device, &programs, &quick_cfg(256))
        .unwrap();
    let b = Pipeline::from_strategy(&strategy::qucp(4.0))
        .execute(&device, &programs, &quick_cfg(256))
        .unwrap();
    assert_eq!(a, b);
}
