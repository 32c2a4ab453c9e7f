//! Whole workloads planned and executed through [`Pipeline::execute`]
//! (and planned through [`Pipeline::plan_unmerged`]) under the paper's
//! strategies. Mounted by the crate root as `executor`, the module
//! these tests first lived in, so their ids stay `executor::tests::*`.

#[cfg(test)]
mod tests {
    use crate::strategy::{self, Strategy};
    use crate::{CoreError, ParallelConfig, ParallelOutcome, Pipeline};
    use qucp_circuit::{library, Circuit};
    use qucp_device::{ibm, Device};
    use qucp_sim::ExecutionConfig;

    fn quick_cfg() -> ParallelConfig {
        ParallelConfig {
            execution: ExecutionConfig::default().with_shots(512).with_seed(42),
            optimize: true,
        }
    }

    fn execute(
        device: &Device,
        programs: &[Circuit],
        strategy: &Strategy,
    ) -> Result<ParallelOutcome, CoreError> {
        Pipeline::from_strategy(strategy).execute(device, programs, &quick_cfg())
    }

    #[test]
    fn single_program_executes() {
        let dev = ibm::toronto();
        let prog = library::by_name("fredkin").unwrap().circuit();
        let out = execute(&dev, &[prog], &strategy::qucp(4.0)).unwrap();
        assert_eq!(out.programs.len(), 1);
        let r = &out.programs[0];
        assert_eq!(r.counts.shots(), 512);
        assert!(r.pst.is_some(), "fredkin is deterministic");
        let pst = r.pst.unwrap();
        assert!(pst > 0.4, "pst unexpectedly low: {pst}");
        assert!((out.throughput - 3.0 / 27.0).abs() < 1e-12);
    }

    #[test]
    fn three_programs_execute_disjointly() {
        let dev = ibm::toronto();
        let progs = vec![
            library::by_name("adder").unwrap().circuit(),
            library::by_name("fredkin").unwrap().circuit(),
            library::by_name("linearsolver").unwrap().circuit(),
        ];
        let out = execute(&dev, &progs, &strategy::qucp(4.0)).unwrap();
        assert_eq!(out.programs.len(), 3);
        let mut all: Vec<usize> = out
            .programs
            .iter()
            .flat_map(|p| p.partition.clone())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!((out.throughput - 10.0 / 27.0).abs() < 1e-12);
        assert!(out.runtime_reduction() > 1.5, "parallel should be faster");
    }

    #[test]
    fn jsd_is_finite_and_bounded() {
        let dev = ibm::toronto();
        let progs = vec![
            library::by_name("bell").unwrap().circuit(),
            library::by_name("variation").unwrap().circuit(),
        ];
        let out = execute(&dev, &progs, &strategy::qucp(4.0)).unwrap();
        for p in &out.programs {
            assert!(p.jsd >= 0.0 && p.jsd <= 1.0, "{} jsd {}", p.name, p.jsd);
            assert!(p.pst.is_none());
        }
        assert!(out.mean_jsd() > 0.0);
        assert!(out.mean_pst().is_none());
    }

    #[test]
    fn all_strategies_run_the_same_workload() {
        let dev = ibm::toronto();
        let progs = vec![
            library::by_name("fredkin").unwrap().circuit(),
            library::by_name("linearsolver").unwrap().circuit(),
        ];
        for strat in [
            strategy::qucp(4.0),
            strategy::qumc_with_ground_truth(&dev),
            strategy::cna(),
            strategy::multiqc(),
            strategy::qucloud(),
        ] {
            let out = execute(&dev, &progs, &strat)
                .unwrap_or_else(|e| panic!("{} failed: {e}", strat.name));
            assert_eq!(out.programs.len(), 2, "{}", strat.name);
        }
    }

    #[test]
    fn plan_workload_exposes_mapping() {
        let dev = ibm::toronto();
        let progs = vec![library::by_name("adder").unwrap().circuit()];
        let qucp = strategy::qucp(4.0);
        let (opt, allocs, mapped) = Pipeline::from_strategy(&qucp)
            .plan_unmerged(&dev, &progs, true)
            .unwrap();
        assert_eq!(opt.len(), 1);
        assert_eq!(allocs.len(), 1);
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped[0].layout, allocs[0].qubits);
    }

    #[test]
    fn too_many_programs_fail_cleanly() {
        let dev = ibm::toronto();
        let progs: Vec<_> = (0..8)
            .map(|_| library::by_name("alu-v0_27").unwrap().circuit())
            .collect();
        let err = execute(&dev, &progs, &strategy::qucp(4.0)).unwrap_err();
        assert!(matches!(err, CoreError::PartitionUnavailable { .. }));
    }

    #[test]
    fn outcome_reproducible() {
        let dev = ibm::toronto();
        let progs = vec![library::by_name("fredkin").unwrap().circuit()];
        let a = execute(&dev, &progs, &strategy::qucp(4.0)).unwrap();
        let b = execute(&dev, &progs, &strategy::qucp(4.0)).unwrap();
        assert_eq!(a, b);
    }
}
