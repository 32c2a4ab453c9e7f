//! One run: set-up, timed passes, the quiet-pass estimate, the
//! correctness gates, and the two metric sets — end to end from an
//! untraced run, per layer from a traced one.

use std::time::{Duration, Instant};

use crate::alloc::AllocSnapshot;
use crate::host::{self, Canary};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Span, Tracer, NO_ID};
use crate::workload::{
    common_layer_metrics, latency_percentiles_us, Exact, Metric, PassOutcome, Scale, Workload,
};
use crate::workloads;

/// How one invocation runs its workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Wall seconds the passes fill (set-up and probes come on top).
    pub seconds: f64,
    pub scale: Scale,
    pub traced: bool,
}

/// Set-up repeats of an untraced run; `setup_s` is the fastest.
const SETUPS: usize = 5;

/// Fewest passes a run measures, however short `--seconds` is: the
/// quiet-pass estimate needs six.
const MIN_PASSES: usize = 6;

/// Share of a traced run's `--seconds` its own passes get; the probes
/// and the fill-in passes of the other workloads take the rest.
const TRACED_PASS_SHARE: f64 = 0.5;

/// How far apart, as a share of their median, the allocation counts of
/// two passes of one run may be.
const ALLOC_TOLERANCE: f64 = 1e-3;

/// A metric as reported: name, unit, value.
pub type Reported = (&'static str, &'static str, f64);

/// What a run hands `main`: the result object's fields, the
/// human-readable table, and (traced runs) the spans to write out.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// `(name, unit, value)` of every metric of the run's set.
    pub metrics: Vec<Reported>,
    pub table: String,
    pub problems: Vec<String>,
    /// Spans of the quietest traced pass.
    pub spans: Vec<Span>,
}

/// The measurements of one pass.
struct PassRecord {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: AllocSnapshot,
    canary_ns: u64,
    latency_p50_us: f64,
    latency_tail_us: f64,
    outcome: PassOutcome,
    spans: Vec<Span>,
}

impl PassRecord {
    fn jobs(&self) -> f64 {
        self.outcome.jobs.max(1) as f64
    }
}

/// One pass: inputs built before the clock starts, the outcome
/// digested after it stops. A traced pass records into a fresh tracer
/// under a root span named `pass`.
fn one_pass<W: Workload>(workload: &mut W, canary: &mut Canary, traced: bool) -> PassRecord {
    let canary_ns = canary.run();
    let pass = workload.prepare();
    if traced {
        trace::install(Tracer::on(workload.span_capacity() + 1));
    }
    let allocs = AllocSnapshot::now();
    let cpu = host::process_cpu_ns();
    let started = Instant::now();
    let done = trace::span("pass", NO_ID, || workload.run(pass));
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_ns = host::process_cpu_ns() - cpu;
    let allocs = AllocSnapshot::now().since(allocs);
    let spans = trace::install(Tracer::off()).into_spans();
    let mut outcome = workload.digest(done);
    let (latency_p50_us, latency_tail_us) = if outcome.latencies_ns.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        latency_percentiles_us(&mut outcome.latencies_ns)
    };
    PassRecord {
        wall_ns,
        cpu_ns,
        allocs,
        canary_ns,
        latency_p50_us,
        latency_tail_us,
        outcome,
        spans,
    }
}

/// What one set-up yields besides the workload.
struct SetUp {
    seconds: f64,
    /// Growth of the resident set over the set-up, per job of the
    /// warm-up pass. Only the first set-up of a process sees all of
    /// it; later ones reuse freed pages.
    rss_kb_per_job: f64,
    /// `VmHWM` when the set-up ended.
    peak_rss_kb: u64,
    problems: Vec<String>,
}

/// Set-up once: build the workload from the seed and run one discarded
/// warm-up pass.
fn set_up<W: Workload>(cfg: &RunConfig, canary: &mut Canary) -> (W, SetUp) {
    let rss_before = host::rss_kb().unwrap_or(0);
    let started = Instant::now();
    let mut workload = W::new(cfg.seed, cfg.scale);
    let warm_up = one_pass(&mut workload, canary, false);
    let seconds = started.elapsed().as_secs_f64();
    let peak_rss_kb = host::peak_rss_kb().unwrap_or(0);
    let grown = peak_rss_kb.saturating_sub(rss_before);
    let set_up = SetUp {
        seconds,
        rss_kb_per_job: grown as f64 / warm_up.jobs(),
        peak_rss_kb,
        problems: warm_up.outcome.problems,
    };
    (workload, set_up)
}

/// Passes until `seconds` are used up, at least [`MIN_PASSES`]. In a
/// traced run every other pass records spans, so the two kinds share
/// the host's mood and their difference is the tracer's cost.
fn passes<W: Workload>(
    workload: &mut W,
    canary: &mut Canary,
    seconds: f64,
    traced: bool,
) -> Vec<PassRecord> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    while records.len() < MIN_PASSES || Instant::now() < deadline {
        let record_spans = traced && records.len() % 2 == 1;
        records.push(one_pass(workload, canary, record_spans));
    }
    records
}

/// Runs workload `W` as `cfg` says.
pub fn run<W: Workload>(cfg: &RunConfig) -> RunResult {
    let mut canary = Canary::new();
    let mut problems = Vec::new();
    let mut set_ups = Vec::new();
    let mut workload = None;
    for _ in 0..if cfg.traced { 1 } else { SETUPS } {
        drop(workload.take());
        let (built, set_up) = set_up::<W>(cfg, &mut canary);
        set_ups.push(set_up);
        workload = Some(built);
    }
    let mut workload: W = workload.expect("at least one set-up");
    let setup_s: Vec<f64> = set_ups.iter().map(|s| s.seconds).collect();
    let rss_kb_per_job = set_ups[0].rss_kb_per_job;
    let peak_rss_mb = set_ups[0].peak_rss_kb as f64 / 1024.0;
    problems.extend(set_ups.into_iter().flat_map(|s| s.problems));
    let seconds = if cfg.traced {
        cfg.seconds * TRACED_PASS_SHARE
    } else {
        cfg.seconds
    };
    let records = passes(&mut workload, &mut canary, seconds, cfg.traced);

    for (i, record) in records.iter().enumerate() {
        problems.extend(
            record
                .outcome
                .problems
                .iter()
                .map(|p| format!("pass {i}: {p}")),
        );
    }
    let first = &records[0];
    if let Some(i) = records
        .iter()
        .position(|r| r.outcome.exact != first.outcome.exact)
    {
        problems.push(format!(
            "exact metrics differ between pass 0 and pass {i}: {:?} vs {:?}",
            first.outcome.exact, records[i].outcome.exact
        ));
    }
    if let Some(i) = records
        .iter()
        .position(|r| r.outcome.jobs != first.outcome.jobs)
    {
        problems.push(format!("job count differs between pass 0 and pass {i}"));
    }
    let attempted = records.iter().map(|r| r.outcome.attempted).sum();
    let failed = records.iter().map(|r| r.outcome.failed).sum();
    let passes = records.len();

    let (metrics, table, spans) = if cfg.traced {
        per_layer(
            cfg,
            &workload,
            records,
            rss_kb_per_job,
            &mut canary,
            &mut problems,
        )
    } else {
        let (metrics, table) = end_to_end(&records, &setup_s, peak_rss_mb, &mut problems);
        (metrics, table, Vec::new())
    };
    RunResult {
        workload: W::NAME,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        passes,
        metrics,
        table,
        problems,
        spans,
    }
}

/// Median, quartiles and count of a per-pass series, for the table.
fn describe(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("n={}", values.len());
    }
    let [q1, q2, q3] = stats::quartiles(values);
    format!(
        "median {q2:.6e}  q1 {q1:.6e}  q3 {q3:.6e}  n={}",
        values.len()
    )
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    records: &[PassRecord],
    setup_s: &[f64],
    peak_rss_mb: f64,
    problems: &mut Vec<String>,
) -> (Vec<Reported>, String) {
    let wall: Vec<u64> = records.iter().map(|r| r.wall_ns).collect();
    let quiet = stats::quiet_passes(&wall);
    let series = |f: &dyn Fn(&PassRecord) -> f64| -> Vec<f64> { records.iter().map(f).collect() };
    let jobs_per_s = series(&|r| r.jobs() / (r.wall_ns as f64 / 1e9));
    let cpu_us_per_job = series(&|r| r.cpu_ns as f64 / 1e3 / r.jobs());
    let p50 = series(&|r| r.latency_p50_us);
    let tail = series(&|r| r.latency_tail_us);
    // Allocation counts are a property of the code, not of the host.
    // Where the service shards a job's shots over worker threads, how
    // many shards a worker takes (and so how many buffers it makes)
    // depends on the race; everywhere else they repeat exactly. The
    // median over the passes is reported, and passes further apart
    // than a thousandth are a fault.
    let allocs = series(&|r| r.allocs.calls as f64 / r.jobs());
    let alloc_kb = series(&|r| r.allocs.bytes as f64 / 1e3 / r.jobs());
    for (name, per_pass) in [("allocs_per_job", &allocs), ("alloc_kb_per_job", &alloc_kb)] {
        let (low, high) = per_pass
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(low, high), &v| {
                (low.min(v), high.max(v))
            });
        if (high - low) / stats::median(per_pass) > ALLOC_TOLERANCE {
            problems.push(format!(
                "{name} ranges from {low} to {high} over the passes"
            ));
        }
    }
    let first = &records[0];
    let exact: Exact = first.outcome.exact;
    let value = |name: &str| -> (f64, String) {
        let timed = |v: &[f64]| (stats::quiet_mean(v, &quiet), describe(v));
        match name {
            "setup_s" => (
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                describe(setup_s),
            ),
            "jobs_per_s" => timed(&jobs_per_s),
            "cpu_us_per_job" => timed(&cpu_us_per_job),
            "latency_p50_us" => timed(&p50),
            "latency_tail_us" => timed(&tail),
            "peak_rss_mb" => (peak_rss_mb, "VmHWM after the first set-up".into()),
            "allocs_per_job" => (stats::median(&allocs), describe(&allocs)),
            "alloc_kb_per_job" => (stats::median(&alloc_kb), describe(&alloc_kb)),
            "sim_makespan_ms" => (exact.makespan_ns / 1e6, "exact".into()),
            "sim_turnaround_p99_us" => (exact.turnaround_p99_ns / 1e3, "exact".into()),
            "hw_throughput" => (exact.throughput, "exact".into()),
            "mean_jsd" => (exact.mean_jsd, "exact".into()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let mut metrics = Vec::new();
    let mut table = format!(
        "passes {}  quiet {}  (value = mean over the quiet passes; median/quartiles over all)\n",
        records.len(),
        quiet.len()
    );
    let wall_ms: Vec<String> = wall
        .iter()
        .map(|ns| format!("{:.0}", *ns as f64 / 1e6))
        .collect();
    table.push_str(&format!("pass wall ms: {}\n", wall_ms.join(" ")));
    let canary_us: Vec<String> = records
        .iter()
        .map(|r| format!("{:.0}", r.canary_ns as f64 / 1e3))
        .collect();
    table.push_str(&format!("canary us: {}\n", canary_us.join(" ")));
    for m in END_TO_END {
        let (v, note) = value(m.name);
        if !v.is_finite() || v == 0.0 {
            problems.push(format!("{} is {v}", m.name));
        }
        table.push_str(&format!(
            "  {:<24} {:>16.6e} {:<6} {note}\n",
            m.name, v, m.unit
        ));
        metrics.push((m.name, m.unit, v));
    }
    (metrics, table)
}

/// The share of the root span's time its child spans cover.
fn coverage(spans: &[Span]) -> f64 {
    let layers = trace::layer_times(spans);
    match layers.get("pass") {
        Some(root) if root.total_ns > 0 => 1.0 - root.self_ns as f64 / root.total_ns as f64,
        _ => 0.0,
    }
}

/// The metrics one traced pass of `workload` yields: the common ones,
/// the ones it is the home of, and the tracer's own.
fn traced_pass_metrics<W: Workload>(workload: &W, record: &PassRecord) -> Vec<Metric> {
    let layers = trace::layer_times(&record.spans);
    let mut metrics = common_layer_metrics(&record.outcome, &layers, record.wall_ns);
    metrics.extend(workload.layer_metrics(&record.outcome, &layers, record.wall_ns));
    metrics.push(("trace.spans", record.spans.len() as f64));
    metrics.push(("trace.coverage", coverage(&record.spans)));
    metrics
}

/// Every metric workload `V` is the home of, from one traced pass at
/// smoke scale: what a traced run of another workload prints under
/// those names, so that every run prints every name with a measured
/// value. They describe `V`, never the workload of the run.
pub fn fill_in<V: Workload>(
    seed: u64,
    canary: &mut Canary,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        scale: Scale::SMOKE,
        traced: true,
    };
    let (mut workload, set_up) = set_up::<V>(&cfg, canary);
    problems.extend(
        set_up
            .problems
            .into_iter()
            .map(|p| format!("fill-in {}: {p}", V::NAME)),
    );
    let record = one_pass(&mut workload, canary, true);
    let mut metrics = traced_pass_metrics(&workload, &record);
    metrics.extend(workload.probes());
    metrics
}

/// The per-layer metrics of a traced run.
fn per_layer<W: Workload>(
    cfg: &RunConfig,
    workload: &W,
    records: Vec<PassRecord>,
    rss_kb_per_job: f64,
    canary: &mut Canary,
    problems: &mut Vec<String>,
) -> (Vec<Reported>, String, Vec<Span>) {
    let (traced, untraced): (Vec<PassRecord>, Vec<PassRecord>) =
        records.into_iter().partition(|r| !r.spans.is_empty());
    let quiet_of = |records: &[PassRecord]| {
        stats::quiet_passes(&records.iter().map(|r| r.wall_ns).collect::<Vec<_>>())
    };
    let quiet = quiet_of(&traced);
    let quiet_wall = |records: &[PassRecord]| {
        let wall: Vec<f64> = records.iter().map(|r| r.wall_ns as f64).collect();
        stats::quiet_mean(&wall, &quiet_of(records))
    };

    // Lowest priority first: later entries of the same name win.
    let mut values: Vec<Metric> = Vec::new();
    for name in workloads::NAMES {
        if name != W::NAME {
            values.extend(
                workloads::fill_in(name, cfg.seed, canary, problems)
                    .into_iter()
                    .flatten(),
            );
        }
    }
    let per_pass: Vec<Vec<Metric>> = traced
        .iter()
        .map(|r| traced_pass_metrics(workload, r))
        .collect();
    for (k, &(name, _)) in per_pass[0].iter().enumerate() {
        let series: Vec<f64> = per_pass.iter().map(|m| m[k].1).collect();
        values.push((name, stats::quiet_mean(&series, &quiet)));
    }
    values.extend(workload.probes());
    values.push(("runtime.rss_kb_per_job", rss_kb_per_job));
    let canary_ns = |records: &[PassRecord]| -> Vec<f64> {
        records.iter().map(|r| r.canary_ns as f64).collect()
    };
    let traced_canary_ns = canary_ns(&traced);
    let all_canary_ns = [traced_canary_ns.clone(), canary_ns(&untraced)].concat();
    let slowest = all_canary_ns.iter().copied().fold(0.0, f64::max);
    let fastest = all_canary_ns.iter().copied().fold(f64::INFINITY, f64::min);
    values.push((
        "host.canary_ns",
        stats::quiet_mean(&traced_canary_ns, &quiet),
    ));
    values.push(("host.noise_ratio", slowest / fastest));
    values.push((
        "trace.overhead_share",
        quiet_wall(&traced) / quiet_wall(&untraced) - 1.0,
    ));

    let mut metrics = Vec::new();
    let mut table = format!(
        "passes {}  traced {}  quiet {}  (value = mean over the quiet traced passes)\n",
        traced.len() + untraced.len(),
        traced.len(),
        quiet.len()
    );
    for &(name, unit, _) in PER_LAYER {
        let value = values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v);
        let v = value.unwrap_or(f64::NAN);
        if !v.is_finite() {
            problems.push(format!("{name} is {v}"));
        }
        table.push_str(&format!("  {name:<36} {v:>16.6e} {unit}\n"));
        metrics.push((name, unit, v));
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| metrics::per_layer_unit(n).is_none())
    {
        problems.push(format!("{name} is not in the per-layer table"));
    }
    let quietest = quiet.first().copied().unwrap_or(0);
    let spans = traced
        .into_iter()
        .nth(quietest)
        .map_or(Vec::new(), |r| r.spans);
    (metrics, table, spans)
}
