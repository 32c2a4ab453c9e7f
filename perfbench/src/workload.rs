//! What the four workloads share: the three-phase pass (`prepare`
//! untimed, `run` on the clock, `digest` untimed), the outcome of a
//! pass, and the numbers every workload reads off a drained
//! [`ServiceReport`].

use std::collections::BTreeMap;
use std::time::Instant;

use qucp_circuit::Circuit;
use qucp_device::Device;
use qucp_runtime::{
    DeviceRegistry, Event, JobResult, JobTicket, RouteCacheStats, Service, ServiceReport,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::alloc::AllocSnapshot;
use crate::stats;
use crate::trace::LayerTime;

/// Divisor of every workload size: 1 for the benchmark, 20 for
/// `--smoke` and for the fill-in passes of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub usize);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(20);

    /// `n` scaled down, never to zero.
    pub fn of(self, n: usize) -> usize {
        (n / self.0).max(1)
    }
}

/// A named per-layer value.
pub type Metric = (&'static str, f64);

/// Span totals of one pass, by span name.
pub type Layers = BTreeMap<&'static str, LayerTime>;

/// One workload: built from a seed, then run pass after pass. Every
/// pass gets a fresh `Service`, so cache state is the same at every
/// pass start; inputs are cloned in `prepare`, before the clock.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Inputs of one pass.
    type Pass;
    /// What a pass leaves behind for `digest`.
    type Done;

    /// Builds the fleet and generates the inputs from `seed`. Part of
    /// set-up time.
    fn new(seed: u64, scale: Scale) -> Self;

    /// Spans one traced pass records, so the recorder never
    /// reallocates inside a pass.
    fn span_capacity(&self) -> usize;

    /// Builds the pass's services and requests. Not on the clock.
    fn prepare(&mut self) -> Self::Pass;

    /// The timed work: only calls into the system under test and the
    /// load generator's own bookkeeping.
    fn run(&mut self, pass: Self::Pass) -> Self::Done;

    /// Checks the pass and reads its numbers. Not on the clock; drops
    /// (or joins) whatever the pass built.
    fn digest(&mut self, done: Self::Done) -> PassOutcome;

    /// The per-layer metrics this workload is the home of, from one
    /// traced pass: its outcome, its spans by name, its wall time.
    fn layer_metrics(&self, _: &PassOutcome, _: &Layers, _wall_ns: u64) -> Vec<Metric> {
        Vec::new()
    }

    /// Isolated probes of single layers on this workload's own inputs
    /// (the batches its last pass recorded, its request tape).
    fn probes(&self) -> Vec<Metric>;
}

/// The metrics that are pure functions of (code, seed): simulated time
/// and fidelity read off the drained reports. Compared bit for bit
/// across the passes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Exact {
    /// Simulated makespan, ns (summed over the pass's services).
    pub makespan_ns: f64,
    /// 99th percentile of simulated job turnaround, ns.
    pub turnaround_p99_ns: f64,
    pub mean_turnaround_ns: f64,
    /// Used/total qubits while busy, weighted by each report's batches.
    pub throughput: f64,
    pub mean_jsd: f64,
    pub mean_pst: f64,
}

/// What `digest` hands the harness.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Jobs completed and claimed.
    pub jobs: u64,
    /// Calls made into the system under test.
    pub attempted: u64,
    /// Calls that were refused, errored, or answered wrongly.
    pub failed: u64,
    /// Wall ns from each job's `submit` call to its claim returning.
    pub latencies_ns: Vec<u64>,
    pub exact: Exact,
    /// Service-side counters and clocks of the pass.
    pub counters: Counters,
    /// Allocation counters at the phase boundaries inside the pass,
    /// for the workloads that have a submit phase and a drain phase.
    pub phases: Option<PhaseAllocs>,
    /// Per-layer values the pass yields without a span (an energy
    /// error, a byte count), for `layer_metrics` to pass on.
    pub extras: Vec<Metric>,
    /// Correctness failures, in words; empty when the pass is correct.
    pub problems: Vec<String>,
}

/// Counters and clocks read from the services of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub exec_ns: u64,
    pub plan_ns: u64,
    pub batches: u64,
    pub shrinks: u64,
    pub events: u64,
    pub epoch_bumps: u64,
    pub cache: CacheCounters,
}

/// [`RouteCacheStats`] summed over the services of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub invalidated: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_entries: u64,
    pub plan_invalidated: u64,
}

impl Counters {
    /// Adds one drained service's clocks, report and cache counters.
    pub fn absorb(&mut self, service: &Service, report: &ServiceReport) {
        self.exec_ns += service.execution_time_ns();
        self.plan_ns += service.planning_time_ns();
        self.absorb_report(report);
        self.absorb_cache(service.route_cache_stats());
    }

    pub fn absorb_report(&mut self, report: &ServiceReport) {
        self.batches += report.batches.len() as u64;
        self.events += (report.events.len() + report.dropped_events) as u64;
        for event in &report.events {
            match event {
                Event::BatchShrunk { .. } => self.shrinks += 1,
                Event::DeviceRecalibrated { .. } => self.epoch_bumps += 1,
                _ => {}
            }
        }
    }

    pub fn absorb_cache(&mut self, stats: RouteCacheStats) {
        let c = &mut self.cache;
        c.hits += stats.hits as u64;
        c.misses += stats.misses as u64;
        c.invalidated += stats.invalidated as u64;
        c.plan_hits += stats.plan_hits as u64;
        c.plan_misses += stats.plan_misses as u64;
        c.plan_entries += stats.plan_entries as u64;
        c.plan_invalidated += stats.plan_invalidated as u64;
    }
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The exact metrics of the jobs of `reports` pooled; makespans add,
/// because the services of one pass run one after another.
pub fn exact_of(reports: &[&ServiceReport]) -> Exact {
    let results: Vec<&JobResult> = reports.iter().flat_map(|r| &r.job_results).collect();
    let n = results.len().max(1) as f64;
    let mut turnarounds: Vec<f64> = results.iter().map(|r| r.turnaround).collect();
    turnarounds.sort_by(f64::total_cmp);
    let p99 = match turnarounds.len() {
        0 => 0.0,
        len => turnarounds[(len * 99).div_ceil(100) - 1],
    };
    let psts: Vec<f64> = results.iter().filter_map(|r| r.result.pst).collect();
    let batches: usize = reports.iter().map(|r| r.batches.len()).sum();
    Exact {
        makespan_ns: reports.iter().map(|r| r.stats.makespan).sum(),
        turnaround_p99_ns: p99,
        mean_turnaround_ns: turnarounds.iter().sum::<f64>() / n,
        throughput: reports
            .iter()
            .map(|r| r.stats.mean_throughput * r.batches.len() as f64)
            .sum::<f64>()
            / batches.max(1) as f64,
        mean_jsd: results.iter().map(|r| r.result.jsd).sum::<f64>() / n,
        mean_pst: psts.iter().sum::<f64>() / psts.len().max(1) as f64,
    }
}

/// The spans inside which a service plans and executes batches.
const DISPATCHING_SPANS: [&str; 4] = [
    "runtime.run_until_drained",
    "runtime.tick",
    "vqe.run_campaign",
    "zne.run_campaign",
];

/// The per-layer metrics every workload reports from its own passes:
/// the service's clocks and counters, the drained report, and the
/// spans around the runtime calls the workload happens to make.
pub fn common_layer_metrics(outcome: &PassOutcome, layers: &Layers, wall_ns: u64) -> Vec<Metric> {
    let jobs = outcome.jobs.max(1) as f64;
    let c = &outcome.counters;
    let e = &outcome.exact;
    let mut metrics = vec![
        ("runtime.exec_ns_per_job", c.exec_ns as f64 / jobs),
        ("runtime.plan_ns_per_job", c.plan_ns as f64 / jobs),
        ("runtime.exec_share", ratio(c.exec_ns, wall_ns)),
        ("runtime.batches", c.batches as f64),
        ("runtime.mean_batch_size", jobs / c.batches.max(1) as f64),
        ("runtime.shrinks", c.shrinks as f64),
        ("runtime.events_per_job", c.events as f64 / jobs),
        ("runtime.plan_hits", c.cache.plan_hits as f64),
        ("runtime.plan_misses", c.cache.plan_misses as f64),
        (
            "runtime.plan_hit_rate",
            ratio(c.cache.plan_hits, c.cache.plan_hits + c.cache.plan_misses),
        ),
        ("runtime.plan_entries", c.cache.plan_entries as f64),
        (
            "runtime.probe_hit_rate",
            ratio(c.cache.hits, c.cache.hits + c.cache.misses),
        ),
        (
            "runtime.cache_invalidated",
            (c.cache.invalidated + c.cache.plan_invalidated) as f64,
        ),
        ("runtime.epoch_bumps", c.epoch_bumps as f64),
        ("report.mean_turnaround_ns", e.mean_turnaround_ns),
        ("report.p99_turnaround_ns", e.turnaround_p99_ns),
        ("report.makespan_ns", e.makespan_ns),
        ("report.mean_pst", e.mean_pst),
        ("report.mean_jsd", e.mean_jsd),
        ("report.mean_throughput", e.throughput),
    ];
    for (metric, span) in [
        ("runtime.submit_ns_per_job", "runtime.submit"),
        ("runtime.take_result_ns_per_job", "runtime.take_result"),
        ("runtime.tick_ns_per_call", "runtime.tick"),
        ("runtime.advance_drift_ns_per_call", "runtime.advance_drift"),
    ] {
        if layer(layers, span).count > 0 {
            metrics.push((metric, ns_per_call(layers, span)));
        }
    }
    let drain = layer(layers, "runtime.run_until_drained");
    if drain.count > 0 {
        metrics.push(("runtime.drain_ns_per_job", drain.total_ns as f64 / jobs));
    }
    let dispatch = DISPATCHING_SPANS.map(|name| layer(layers, name));
    if dispatch.iter().any(|t| t.count > 0) {
        // What the dispatching calls spent outside the two clocks the
        // service keeps: the residual a stage clock inside the service
        // would have to split up.
        let dispatch_ns = dispatch.iter().map(|t| t.total_ns).sum::<u64>() as f64;
        metrics.push((
            "runtime.unattributed_ns_per_job",
            (dispatch_ns - c.exec_ns as f64 - c.plan_ns as f64) / jobs,
        ));
    }
    if let Some(p) = &outcome.phases {
        metrics.push((
            "runtime.allocs_per_submit",
            p.submitted.since(p.start).calls as f64 / jobs,
        ));
        metrics.push((
            "runtime.allocs_per_drained_job",
            p.drained.since(p.submitted).calls as f64 / jobs,
        ));
    }
    metrics
}

/// Total ns and call count of one span name (zero when absent).
pub fn layer(layers: &Layers, name: &str) -> LayerTime {
    layers.get(name).copied().unwrap_or_default()
}

/// Mean ns per span of one name (NaN when the pass recorded none, so a
/// missing span can never read as a fast one).
pub fn ns_per_call(layers: &Layers, name: &str) -> f64 {
    let t = layer(layers, name);
    t.total_ns as f64 / t.count as f64
}

/// In-pass latency percentiles, µs: the median and the highest of
/// p99/p90/p50 with at least a hundred samples beyond it.
pub fn latency_percentiles_us(latencies_ns: &mut [u64]) -> (f64, f64) {
    latencies_ns.sort_unstable();
    let tail = stats::tail_percentile(latencies_ns.len());
    (
        stats::percentile(latencies_ns, 50) as f64 / 1e3,
        stats::percentile(latencies_ns, tail) as f64 / 1e3,
    )
}

/// Allocation counters at the phase boundaries inside a pass.
#[derive(Debug, Clone, Copy)]
pub struct PhaseAllocs {
    pub start: AllocSnapshot,
    pub submitted: AllocSnapshot,
    pub drained: AllocSnapshot,
}

/// Records a pass's calls and failures, and each job's latency from
/// its `submit` call to its claim.
#[derive(Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    submitted_at: Vec<Instant>,
    pub latencies_ns: Vec<u64>,
}

impl Ledger {
    pub fn with_capacity(jobs: usize) -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            submitted_at: Vec::with_capacity(jobs),
            latencies_ns: Vec::with_capacity(jobs),
        }
    }

    /// Stamps the next job's `submit` call; returns its index.
    pub fn submitting(&mut self) -> usize {
        self.submitted_at.push(Instant::now());
        self.submitted_at.len() - 1
    }

    /// Counts one call into the system; an `Err` is a failure.
    pub fn call<T, E>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Counts one claim of job `index`; a claim that comes back empty
    /// is a failure, a full one closes the job's latency.
    pub fn claimed<T>(&mut self, index: usize, result: Option<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Some(value) => {
                self.latencies_ns
                    .push(self.submitted_at[index].elapsed().as_nanos() as u64);
                Some(value)
            }
            None => {
                self.failed += 1;
                None
            }
        }
    }
}

/// The claim checks of `digest`: every ticket was claimed exactly once
/// (`claimed` results, in submission order, equal the report's), and a
/// second claim returns `None`.
pub fn check_claims(
    service: &mut Service,
    tickets: &[JobTicket],
    claimed: &[JobResult],
    report: &ServiceReport,
    problems: &mut Vec<String>,
) {
    if claimed.len() != tickets.len() || report.job_results.len() != tickets.len() {
        problems.push(format!(
            "{} tickets, {} claimed, {} in the report",
            tickets.len(),
            claimed.len(),
            report.job_results.len()
        ));
        return;
    }
    let mut by_seq: Vec<&JobResult> = claimed.iter().collect();
    by_seq.sort_by_key(|r| (r.batch_index, r.job_id));
    let mut reported: Vec<&JobResult> = report.job_results.iter().collect();
    reported.sort_by_key(|r| (r.batch_index, r.job_id));
    if by_seq != reported {
        problems.push("claimed results differ from the drained report".into());
    }
    let again = tickets
        .iter()
        .filter(|t| service.take_result(t).is_some())
        .count();
    if again > 0 {
        problems.push(format!("{again} tickets could be claimed twice"));
    }
}

/// Shuffles `items` with a stream derived from the workload seed.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    items.shuffle(&mut StdRng::seed_from_u64(seed));
}

/// The first `max` batches of `report` as probe inputs: the device
/// that ran each and its member circuits, looked up by job id.
pub fn sample_batches(
    report: &ServiceReport,
    fleet: &DeviceRegistry,
    circuit_of: impl Fn(u64) -> Circuit,
    max: usize,
) -> Vec<(Device, Vec<Circuit>)> {
    report
        .batches
        .iter()
        .take(max)
        .filter_map(|batch| {
            let (_, device) = fleet.iter().find(|(_, d)| d.name() == batch.device)?;
            let members = batch.job_ids.iter().map(|&id| circuit_of(id)).collect();
            Some((device.clone(), members))
        })
        .collect()
}
