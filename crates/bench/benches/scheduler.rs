//! Criterion benchmark: service-runtime throughput (jobs served per
//! second of wall clock) at 1/2/4-way packing and an
//! admission-policy comparison on a
//! skewed-arrival workload (wide GHZ jobs blocking the FIFO head of
//! line).
//!
//! Dedicated (1-way) service is the baseline the paper argues against.
//! Besides wall-clock numbers, the skewed group prints the *simulated*
//! mean turnaround per policy once at start-up, so the scheduling win
//! (Backfill/SJF over FIFO) is visible next to the runtime cost of the
//! smarter policies; the win itself is pinned by
//! `tests/integration_service.rs`, not asserted here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{
    skewed_jobs, synthetic_jobs, AdmissionPolicy, Backfill, Fifo, Job, JobRequest, Service,
    ServiceReport, ShortestJobFirst,
};
use std::hint::black_box;

fn serve(
    jobs: &[Job],
    policy: impl AdmissionPolicy + 'static,
    device: qucp_device::Device,
    max_parallel: usize,
) -> ServiceReport {
    let mut service = Service::builder()
        .device(device)
        .strategy(strategy::qucp(4.0))
        .policy(policy)
        .max_parallel(max_parallel)
        .seed(0xBE7C)
        .build()
        .expect("build");
    for job in jobs {
        service.submit(JobRequest::from_job(job)).expect("submit");
    }
    service.run_until_drained().expect("drain")
}

fn bench_scheduler(c: &mut Criterion) {
    let jobs = synthetic_jobs(12, 300.0, 256, 0xBE7C);
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);

    for k in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("throughput", k), &k, |b, &k| {
            b.iter(|| black_box(serve(&jobs, Fifo, ibm::toronto(), k)))
        });
    }

    group.finish();

    // Admission policies on a skewed burst: every third job a
    // 13-qubit GHZ chain that monopolises the 15-qubit Melbourne chip.
    let skewed = skewed_jobs(12, 13, 50.0, 128, 7);
    let fifo = serve(&skewed, Fifo, ibm::melbourne(), 3);
    let backfill = serve(&skewed, Backfill { max_overtakes: 2 }, ibm::melbourne(), 3);
    let sjf = serve(&skewed, ShortestJobFirst, ibm::melbourne(), 3);
    eprintln!(
        "skewed-arrival simulated mean turnaround (ns): \
         FIFO {:.0} | Backfill {:.0} ({:.2}x) | SJF {:.0} ({:.2}x)",
        fifo.stats.mean_turnaround,
        backfill.stats.mean_turnaround,
        fifo.stats.mean_turnaround / backfill.stats.mean_turnaround,
        sjf.stats.mean_turnaround,
        fifo.stats.mean_turnaround / sjf.stats.mean_turnaround,
    );
    let mut skew_group = c.benchmark_group("scheduler_skewed");
    skew_group.sample_size(10);
    skew_group.bench_function("fifo_3way", |b| {
        b.iter(|| black_box(serve(&skewed, Fifo, ibm::melbourne(), 3)))
    });
    skew_group.bench_function("backfill_3way", |b| {
        b.iter(|| {
            black_box(serve(
                &skewed,
                Backfill { max_overtakes: 2 },
                ibm::melbourne(),
                3,
            ))
        })
    });
    skew_group.bench_function("sjf_3way", |b| {
        b.iter(|| black_box(serve(&skewed, ShortestJobFirst, ibm::melbourne(), 3)))
    });
    skew_group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
