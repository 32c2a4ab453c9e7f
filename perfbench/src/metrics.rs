//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` carries the same tables for the
//! driver; `--smoke` asserts the two agree.

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which a change may worsen it.
    pub bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    metric("setup_s", "s", "lower", 0.25),
    metric("jobs_per_s", "1/s", "higher", 0.25),
    metric("cpu_us_per_job", "us", "lower", 0.25),
    metric("latency_p50_us", "us", "lower", 0.25),
    metric("latency_tail_us", "us", "lower", 0.25),
    metric("peak_rss_mb", "MB", "lower", 0.10),
    metric("allocs_per_job", "count", "lower", 0.04),
    metric("alloc_kb_per_job", "kB", "lower", 0.04),
    metric("sim_makespan_ms", "sim_ms", "lower", 0.03),
    metric("sim_turnaround_p99_us", "sim_us", "lower", 0.06),
    metric("hw_throughput", "ratio", "higher", 0.04),
    metric("mean_jsd", "jsd", "lower", 0.06),
];

/// A per-layer metric: `(name, unit, better)`. Each has a home
/// workload (see the README); a traced run of another workload fills
/// it from one small pass of the home workload.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // qucp-runtime, from spans around the load generator's calls.
    ("runtime.submit_ns_per_job", "ns", "lower"),
    ("runtime.drain_ns_per_job", "ns", "lower"),
    ("runtime.tick_ns_per_call", "ns", "lower"),
    ("runtime.take_result_ns_per_job", "ns", "lower"),
    ("runtime.advance_drift_ns_per_call", "ns", "lower"),
    ("runtime.build_ns", "ns", "lower"),
    // qucp-runtime, from the service's own accessors and report.
    ("runtime.exec_ns_per_job", "ns", "lower"),
    ("runtime.plan_ns_per_job", "ns", "lower"),
    ("runtime.unattributed_ns_per_job", "ns", "lower"),
    ("runtime.exec_share", "ratio", "higher"),
    ("runtime.batches", "count", "lower"),
    ("runtime.mean_batch_size", "count", "higher"),
    ("runtime.shrinks", "count", "lower"),
    ("runtime.events_per_job", "count", "lower"),
    ("runtime.plan_hits", "count", "higher"),
    ("runtime.plan_misses", "count", "lower"),
    ("runtime.plan_hit_rate", "ratio", "higher"),
    ("runtime.plan_entries", "count", "lower"),
    ("runtime.probe_hit_rate", "ratio", "higher"),
    ("runtime.cache_invalidated", "count", "lower"),
    ("runtime.epoch_bumps", "count", "lower"),
    ("runtime.rss_kb_per_job", "kB", "lower"),
    ("runtime.allocs_per_submit", "count", "lower"),
    ("runtime.allocs_per_drained_job", "count", "lower"),
    // qucp-core, replayed on the batches the workload's report recorded.
    ("core.plan_ns_per_batch", "ns", "lower"),
    ("core.plan_ns_per_program", "ns", "lower"),
    ("core.merge_ns_per_batch", "ns", "lower"),
    ("core.allocs_per_plan", "count", "lower"),
    // qucp-sim, on a captured plan.
    ("sim.replay_ns_per_shot", "ns", "lower"),
    ("sim.survival_ns_per_shot", "ns", "lower"),
    ("sim.sharded_survival_ns_per_shot", "ns", "lower"),
    ("sim.setup_ns_per_program", "ns", "lower"),
    ("sim.clean_shot_fraction", "ratio", "higher"),
    ("sim.allocs_per_program", "count", "lower"),
    // qucp-daemon.
    ("daemon.encode_request_ns", "ns", "lower"),
    ("daemon.decode_request_ns", "ns", "lower"),
    ("daemon.encode_response_ns", "ns", "lower"),
    ("daemon.decode_response_ns", "ns", "lower"),
    ("daemon.request_bytes_per_job", "B", "lower"),
    ("daemon.response_bytes_per_job", "B", "lower"),
    ("daemon.rtts_per_job", "count", "lower"),
    ("daemon.session_ns_per_job", "ns", "lower"),
    ("daemon.socket_rtt_us", "us", "lower"),
    ("daemon.transport_share", "ratio", "lower"),
    ("daemon.drain_ns", "ns", "lower"),
    ("daemon.report_bytes", "B", "lower"),
    // qucp-vqe / qucp-zne.
    ("vqe.iters_per_s", "1/s", "higher"),
    ("vqe.generate_ns_per_round", "ns", "lower"),
    ("vqe.fold_ns_per_round", "ns", "lower"),
    ("vqe.jobs_per_round", "count", "lower"),
    ("vqe.batches_per_round", "count", "lower"),
    ("vqe.energy_error_mha", "mHa", "lower"),
    ("zne.fold_ns_per_circuit", "ns", "lower"),
    ("zne.extrapolate_ns", "ns", "lower"),
    ("zne.mitigated_error", "ratio", "lower"),
    // qucp-device / qucp-circuit.
    ("device.synthesize_ns_per_device", "ns", "lower"),
    ("device.drift_step_ns_per_device", "ns", "lower"),
    ("circuit.build_ns_per_circuit", "ns", "lower"),
    ("circuit.clone_ns_per_circuit", "ns", "lower"),
    // The drained report, for cross-checking the end-to-end copies.
    ("report.mean_turnaround_ns", "sim_ns", "lower"),
    ("report.p99_turnaround_ns", "sim_ns", "lower"),
    ("report.makespan_ns", "sim_ns", "lower"),
    ("report.mean_pst", "ratio", "higher"),
    ("report.mean_jsd", "jsd", "lower"),
    ("report.mean_throughput", "ratio", "higher"),
    // The tracer and the host.
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("host.canary_ns", "ns", "lower"),
    ("host.noise_ratio", "ratio", "lower"),
];

/// Unit of a per-layer metric, if the table has it.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::workloads::NAMES)
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used once");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
