//! The golden outcomes: what `Pipeline::execute` returns for every
//! paper strategy on one fixed workload, as committed text.
//!
//! Every field of each [`ParallelOutcome`] is rendered — partitions,
//! EFS, SWAPs, counts, PST, JSD, conflicts, makespan, serial runtime
//! and throughput — with every `f64` as its bit pattern, so a change to
//! any stage of planning or execution shows as a changed line. The
//! lines were printed by the pipeline before its stage traits were
//! folded into one concrete type, and are **never regenerated** by a
//! change that claims the same plans and the same counts.

use qucp_bench::combo_circuits;
use qucp_core::{strategy, ParallelConfig, ParallelOutcome, Pipeline};
use qucp_device::ibm;
use qucp_sim::ExecutionConfig;

fn render(name: &str, outcome: &ParallelOutcome) -> String {
    let mut out = format!(
        "{name}: throughput={:#018x} conflicts={} makespan={:#018x} serial={:#018x}\n",
        outcome.throughput.to_bits(),
        outcome.conflict_count,
        outcome.makespan.to_bits(),
        outcome.serial_runtime.to_bits(),
    );
    for p in &outcome.programs {
        let counts: Vec<String> = p
            .counts
            .iter()
            .map(|(outcome, n)| format!("{outcome}:{n}"))
            .collect();
        let pst = p
            .pst
            .map_or_else(|| "none".to_string(), |x| format!("{:#018x}", x.to_bits()));
        out += &format!(
            "  {} partition={:?} efs={:#018x} swaps={} pst={pst} jsd={:#018x}\n    counts[{}]={}\n",
            p.name,
            p.partition,
            p.efs.to_bits(),
            p.swap_count,
            p.jsd.to_bits(),
            p.counts.width(),
            counts.join(","),
        );
    }
    out
}

const GOLDEN: &str = r"QuCP(σ=4): throughput=0x3fdc71c71c71c71c conflicts=0 makespan=0x40d331fec3abe036 serial=0x40e221a58d6f7047
  adder#0 partition=[12, 15, 17, 18] efs=0x3fda585a31071932 swaps=12 pst=0x3fd5c00000000000 jsd=0x3fdcf89262b9b3e6
    counts[4]=0:34,1:47,2:14,3:14,4:20,5:15,6:11,7:19,8:49,9:174,10:10,11:30,12:14,13:35,14:15,15:11
  fred#1 partition=[5, 8, 11] efs=0x3fd120bf9323fbab swaps=2 pst=0x3fe7500000000000 jsd=0x3fc35a08f483e474
    counts[3]=0:1,1:47,2:5,3:26,4:14,5:373,6:6,7:40
  alu#2 partition=[0, 1, 2, 4, 7] efs=0x3fd6b2f5def3886c swaps=12 pst=0x3fdd800000000000 jsd=0x3fd5f3a0940296b4
    counts[5]=0:22,1:26,2:6,3:20,4:1,5:5,6:19,7:236,8:6,9:5,10:10,11:3,12:1,13:5,14:2,15:8,16:6,17:1,18:6,19:3,20:3,22:26,23:8,24:8,25:7,26:3,27:14,28:5,29:11,30:6,31:30
QuMC: throughput=0x3fdc71c71c71c71c conflicts=0 makespan=0x40d331fec3abe036 serial=0x40e221a58d6f7047
  adder#0 partition=[12, 15, 17, 18] efs=0x3fda585a31071932 swaps=12 pst=0x3fd5c00000000000 jsd=0x3fdcf89262b9b3e6
    counts[4]=0:34,1:47,2:14,3:14,4:20,5:15,6:11,7:19,8:49,9:174,10:10,11:30,12:14,13:35,14:15,15:11
  fred#1 partition=[5, 8, 11] efs=0x3fd120bf9323fbab swaps=2 pst=0x3fe7500000000000 jsd=0x3fc35a08f483e474
    counts[3]=0:1,1:47,2:5,3:26,4:14,5:373,6:6,7:40
  alu#2 partition=[0, 1, 2, 4, 7] efs=0x3fd6b2f5def3886c swaps=12 pst=0x3fdd800000000000 jsd=0x3fd5f3a0940296b4
    counts[5]=0:22,1:26,2:6,3:20,4:1,5:5,6:19,7:236,8:6,9:5,10:10,11:3,12:1,13:5,14:2,15:8,16:6,17:1,18:6,19:3,20:3,22:26,23:8,24:8,25:7,26:3,27:14,28:5,29:11,30:6,31:30
CNA: throughput=0x3fdc71c71c71c71c conflicts=1 makespan=0x40d14d52c5276d45 serial=0x40df495b07a16e93
  adder#0 partition=[3, 5, 8, 11] efs=0x3fd9edde47e2906a swaps=6 pst=0x3fdca00000000000 jsd=0x3fd6afaf74a10e6e
    counts[4]=0:35,1:35,2:16,3:14,4:8,5:20,6:11,7:10,8:34,9:229,10:15,11:27,12:7,13:33,14:8,15:10
  fred#1 partition=[10, 12, 15] efs=0x3fd1926a224f023b swaps=2 pst=0x3fe5200000000000 jsd=0x3fc8fc08ca6feb9a
    counts[3]=0:4,1:41,2:7,3:49,4:22,5:338,6:5,7:46
  alu#2 partition=[0, 1, 2, 4, 7] efs=0x3fd6b2f5def3886c swaps=12 pst=0x3fdbe00000000000 jsd=0x3fd75396f4ba906d
    counts[5]=0:17,1:24,3:20,4:4,5:5,6:18,7:223,8:1,9:1,10:9,11:7,12:3,13:2,14:5,15:12,16:4,17:17,18:2,19:2,20:1,21:1,22:41,23:12,24:5,25:3,26:6,27:32,28:12,29:6,30:1,31:16
MultiQC: throughput=0x3fdc71c71c71c71c conflicts=3 makespan=0x40d331fec3abe036 serial=0x40e097038312f0c2
  adder#0 partition=[3, 5, 8, 11] efs=0x3fd9edde47e2906a swaps=6 pst=0x3fd7800000000000 jsd=0x3fdb46a389451fea
    counts[4]=0:25,1:32,2:15,3:25,4:13,5:28,6:11,7:30,8:27,9:188,10:17,11:35,12:7,13:35,14:8,15:16
  fred#1 partition=[10, 12, 15] efs=0x3fd1926a224f023b swaps=2 pst=0x3fe5f00000000000 jsd=0x3fc6d966cecec44a
    counts[3]=0:3,1:35,2:7,3:36,4:22,5:351,6:6,7:52
  alu#2 partition=[0, 1, 2, 4, 7] efs=0x3fd6b2f5def3886c swaps=12 pst=0x3fd7200000000000 jsd=0x3fdba2156451c8c8
    counts[5]=0:18,1:19,2:19,3:40,4:6,5:8,6:33,7:185,8:1,9:4,10:3,11:7,13:3,14:6,15:10,16:2,17:5,18:5,19:7,20:2,21:2,22:20,23:12,24:4,25:4,26:12,27:21,28:7,29:12,30:7,31:28
QuCloud: throughput=0x3fdc71c71c71c71c conflicts=0 makespan=0x40d331fec3abe036 serial=0x40e286247554c373
  adder#0 partition=[11, 13, 14, 16] efs=0x3fde9ae8825286c0 swaps=8 pst=0x3fdb400000000000 jsd=0x3fd7de27eaf379cc
    counts[4]=0:25,1:45,2:11,3:4,4:13,5:21,6:7,7:14,8:60,9:218,10:9,11:22,12:11,13:36,14:8,15:8
  fred#1 partition=[15, 17, 18] efs=0x3fd487e90a585794 swaps=2 pst=0x3fe6d00000000000 jsd=0x3fc49b7451d1eb07
    counts[3]=0:3,1:33,2:8,3:29,4:25,5:365,6:8,7:41
  alu#2 partition=[0, 1, 2, 4, 7] efs=0x3fd6b2f5def3886c swaps=12 pst=0x3fdd800000000000 jsd=0x3fd5f3a0940296b4
    counts[5]=0:22,1:26,2:6,3:20,4:1,5:5,6:19,7:236,8:6,9:5,10:10,11:3,12:1,13:5,14:2,15:8,16:6,17:1,18:6,19:3,20:3,22:26,23:8,24:8,25:7,26:3,27:14,28:5,29:11,30:6,31:30
";

#[test]
fn every_paper_strategy_executes_the_committed_outcome() {
    let device = ibm::toronto();
    let programs = combo_circuits(&["adder", "fred", "alu"]);
    let cfg = ParallelConfig {
        execution: ExecutionConfig::default().with_shots(512).with_seed(1234),
        optimize: true,
    };
    let mut rendered = String::new();
    for strat in [
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(&device),
        strategy::cna(),
        strategy::multiqc(),
        strategy::qucloud(),
    ] {
        let outcome = Pipeline::from_strategy(&strat)
            .execute(&device, &programs, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", strat.name));
        rendered += &render(&strat.name, &outcome);
    }
    if rendered != GOLDEN {
        eprintln!("{rendered}");
    }
    assert_eq!(rendered, GOLDEN);
}
