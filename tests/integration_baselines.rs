//! Integration tests of the baseline strategies against QuCP: every
//! policy must run every workload; the quality ordering must reflect the
//! paper's Sec. II-B analysis.

use qucp_bench::{combo_circuits, FIG3A_COMBOS, FIG3B_COMBOS};
use qucp_core::{strategy, ParallelConfig, Pipeline, Strategy};
use qucp_device::ibm;
use qucp_sim::ExecutionConfig;

fn all_strategies(device: &qucp_device::Device) -> Vec<Strategy> {
    vec![
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(device),
        strategy::multiqc(),
        strategy::qucloud(),
        strategy::cna(),
        strategy::cna_serialized(),
    ]
}

#[test]
fn every_strategy_places_every_fig3_workload() {
    let device = ibm::toronto();
    for strat in all_strategies(&device) {
        for combo in FIG3A_COMBOS.iter().chain(FIG3B_COMBOS.iter()) {
            let programs = combo_circuits(combo);
            let (_, allocs, _) = Pipeline::from_strategy(&strat)
                .plan_unmerged(&device, &programs, true)
                .unwrap_or_else(|e| panic!("{} failed on {combo:?}: {e}", strat.name));
            // Disjoint, connected, right-sized.
            let mut all: Vec<usize> = allocs.iter().flat_map(|a| a.qubits.clone()).collect();
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n, "{}: overlap on {combo:?}", strat.name);
            for (a, p) in allocs.iter().zip(&programs) {
                assert_eq!(a.qubits.len(), p.width());
                assert!(device.topology().is_connected_subset(&a.qubits));
            }
        }
    }
}

#[test]
fn noise_aware_partitions_have_lower_efs_than_topology_greedy() {
    // MultiQC minimizes EFS directly, so its chosen partitions must not
    // score worse than CNA's calibration-blind ones.
    let device = ibm::toronto();
    for combo in &FIG3B_COMBOS[..4] {
        let programs = combo_circuits(combo);
        let (_, aware, _) = Pipeline::from_strategy(&strategy::multiqc())
            .plan_unmerged(&device, &programs, true)
            .unwrap();
        let (_, blind, _) = Pipeline::from_strategy(&strategy::cna())
            .plan_unmerged(&device, &programs, true)
            .unwrap();
        let aware_total: f64 = aware.iter().map(|a| a.efs.score).sum();
        let blind_total: f64 = blind.iter().map(|a| a.efs.score).sum();
        assert!(
            aware_total <= blind_total + 1e-9,
            "{combo:?}: aware {aware_total} vs blind {blind_total}"
        );
    }
}

#[test]
fn crosstalk_aware_strategies_accept_no_strong_adjacency() {
    // QuCP(sigma=4) and QuMC must avoid placing partitions one hop from
    // strongly coupled links; crosstalk-blind policies may not.
    let device = ibm::toronto();
    let programs = combo_circuits(&["qec", "var", "bell"]);
    for strat in [
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(&device),
    ] {
        let (_, allocs, mapped) = Pipeline::from_strategy(&strat)
            .plan_unmerged(&device, &programs, true)
            .unwrap();
        let ctx = qucp_core::context::build_context(&device, &mapped, false);
        // Any surviving conflicts must involve only weak ground-truth
        // gammas for the sigma policy (it already refused adjacency).
        for s in &ctx.scalings {
            assert!(
                s.max_factor() < 2.5,
                "{}: strong crosstalk accepted (factor {})",
                strat.name,
                s.max_factor()
            );
        }
        let _ = allocs;
    }
}

#[test]
fn serialization_eliminates_crosstalk_scalings() {
    let device = ibm::toronto();
    let programs = combo_circuits(&["adder", "4mod", "alu"]);
    let cfg = ParallelConfig {
        execution: ExecutionConfig::default().with_shots(128).with_seed(1),
        optimize: true,
    };
    let plain = Pipeline::from_strategy(&strategy::cna())
        .execute(&device, &programs, &cfg)
        .unwrap();
    let serialized = Pipeline::from_strategy(&strategy::cna_serialized())
        .execute(&device, &programs, &cfg)
        .unwrap();
    // Same partitions (same policy), same conflicts detected.
    assert_eq!(plain.conflict_count, serialized.conflict_count);
    for (a, b) in plain.programs.iter().zip(&serialized.programs) {
        assert_eq!(a.partition, b.partition);
    }
}

#[test]
fn single_program_equivalence_across_crosstalk_policies() {
    // With one program there is no cross-program crosstalk: QuCP, QuMC
    // and MultiQC (all EFS-based) must choose the same best partition.
    let device = ibm::toronto();
    let program = vec![qucp_circuit::library::by_name("alu-v0_27")
        .unwrap()
        .circuit()];
    let (_, a, _) = Pipeline::from_strategy(&strategy::qucp(4.0))
        .plan_unmerged(&device, &program, true)
        .unwrap();
    let (_, b, _) = Pipeline::from_strategy(&strategy::qumc_with_ground_truth(&device))
        .plan_unmerged(&device, &program, true)
        .unwrap();
    let (_, c, _) = Pipeline::from_strategy(&strategy::multiqc())
        .plan_unmerged(&device, &program, true)
        .unwrap();
    assert_eq!(a[0].qubits, b[0].qubits);
    assert_eq!(a[0].qubits, c[0].qubits);
}

#[test]
fn strategies_work_on_melbourne_and_manhattan() {
    // Cross-device sanity: the smallest and largest chips both serve a
    // two-program workload under every strategy.
    for device in [ibm::melbourne(), ibm::manhattan()] {
        let programs = combo_circuits(&["fred", "lin", "lin"]);
        let cfg = ParallelConfig {
            execution: ExecutionConfig::default().with_shots(128).with_seed(2),
            optimize: true,
        };
        for strat in all_strategies(&device) {
            let out = Pipeline::from_strategy(&strat)
                .execute(&device, &programs, &cfg)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", strat.name, device.name()));
            assert_eq!(out.programs.len(), 3);
        }
    }
}
