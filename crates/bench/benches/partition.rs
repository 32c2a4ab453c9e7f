//! Criterion benchmark: qubit-partition allocation throughput — the
//! compile-time cost QuCP pays instead of SRB's runtime cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qucp_bench::combo_circuits;
use qucp_core::{allocate_partitions, strategy, PartitionPolicy};
use qucp_device::ibm;
use std::hint::black_box;

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_partitions");
    group.sample_size(20);
    for (name, device) in [("toronto", ibm::toronto()), ("manhattan", ibm::manhattan())] {
        for size in [3usize, 5] {
            group.bench_with_input(BenchmarkId::new(name, size), &size, |b, &size| {
                // The growth kernel itself: `candidate_partitions` on an
                // idle chip would only read the device's region atlas.
                let free = vec![false; device.num_qubits()];
                b.iter(|| black_box(device.grow_regions(size, &free)))
            });
        }
    }
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_three_programs");
    group.sample_size(20);
    let programs = combo_circuits(&["adder", "fred", "alu"]);
    let refs: Vec<&qucp_circuit::Circuit> = programs.iter().collect();
    for (name, device) in [("toronto", ibm::toronto()), ("manhattan", ibm::manhattan())] {
        for (policy_name, strat) in [
            ("qucp", strategy::qucp(4.0)),
            ("cna", strategy::cna()),
            ("qucloud", strategy::qucloud()),
        ] {
            let policy: PartitionPolicy = strat.partition.clone();
            group.bench_function(format!("{name}/{policy_name}"), |b| {
                b.iter(|| black_box(allocate_partitions(&device, &refs, &policy).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_candidates, bench_allocation);
criterion_main!(benches);
