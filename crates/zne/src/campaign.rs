//! The ZNE folded-circuit ladder as a streaming
//! [`CampaignDriver`]: one round submitting every noise-scaled fold of
//! one benchmark as a co-scheduled batch, extrapolated to zero noise at
//! finish.
//!
//! Where [`run_zne_comparison`](crate::run_zne_comparison) drives the
//! core pipeline directly (the Fig. 6 three-way comparison), this
//! driver streams the same ladder through the runtime
//! [`Service`](qucp_runtime::Service) — the folds are independent by
//! construction, so they pack onto shared hardware in one admission
//! round and their observables are claimed per ticket.
//!
//! **The service must be built with `optimize(false)`**: folded
//! circuits contain adjacent inverse gate pairs by construction, and
//! the cancellation peephole would silently unfold them back to scale
//! 1, making every ladder rung identical.

use qucp_circuit::Circuit;
use qucp_runtime::{CampaignDriver, JobRequest, JobResult, RoutingChoice};
use qucp_sim::noiseless_probabilities;

use crate::extrapolation::Factory;
use crate::folding::fold_gates_at_random;
use crate::runner::{best_extrapolation, z_observable, z_observable_exact};

/// A streaming ZNE campaign for one benchmark circuit: a single round
/// of folded circuits (one per scale factor), folded observables
/// extrapolated to zero noise when the campaign finishes.
///
/// The ladder matches [`run_zne_comparison`](crate::run_zne_comparison)
/// exactly: rung `i` is `fold_gates_at_random(circuit, scale[i],
/// seed + i)`. Deterministic — the batch depends only on the
/// construction parameters — so the service's serial == concurrent
/// guarantee carries to the mitigated value.
#[derive(Debug, Clone)]
pub struct ZneCampaign {
    circuit: Circuit,
    scale_factors: Vec<f64>,
    seed: u64,
    shots: usize,
    routing: Option<RoutingChoice>,
    ideal: f64,
    samples: Vec<(f64, f64)>,
}

/// What a drained [`ZneCampaign`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ZneCampaignOutput {
    /// Benchmark name.
    pub benchmark: String,
    /// The noiseless observable value.
    pub ideal: f64,
    /// The `(scale, observable)` ladder, in scale-factor order.
    pub samples: Vec<(f64, f64)>,
    /// The extrapolated zero-noise estimate.
    pub mitigated: f64,
    /// |ideal − mitigated|.
    pub error: f64,
    /// The factory that won the extrapolation.
    pub factory: Factory,
}

impl ZneCampaign {
    /// A campaign folding `circuit` at each of `scale_factors` (fold
    /// seeds derive from `seed` exactly as in the direct runner).
    pub fn new(circuit: Circuit, scale_factors: Vec<f64>, seed: u64, shots: usize) -> Self {
        let ideal = z_observable_exact(&noiseless_probabilities(&circuit), circuit.width());
        ZneCampaign {
            circuit,
            scale_factors,
            seed,
            shots,
            routing: None,
            ideal,
            samples: Vec::new(),
        }
    }

    /// Attaches a per-job routing override to every request.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routing = Some(routing);
        self
    }
}

impl CampaignDriver for ZneCampaign {
    type Output = ZneCampaignOutput;

    fn next_batch(&mut self, round: usize) -> Option<Vec<JobRequest>> {
        if round > 0 {
            return None;
        }
        Some(
            self.scale_factors
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let folded =
                        fold_gates_at_random(&self.circuit, s, self.seed.wrapping_add(i as u64));
                    let mut request = JobRequest::new(folded, 0.0).with_shots(self.shots);
                    if let Some(routing) = self.routing {
                        request = request.with_routing(routing);
                    }
                    request
                })
                .collect(),
        )
    }

    fn fold(&mut self, _round: usize, results: &[JobResult]) {
        self.samples = self
            .scale_factors
            .iter()
            .zip(results)
            .map(|(&s, r)| (s, z_observable(&r.result.counts)))
            .collect();
    }

    fn finish(self) -> ZneCampaignOutput {
        let (mitigated, factory) = best_extrapolation(&self.samples, self.ideal);
        ZneCampaignOutput {
            benchmark: self.circuit.name().to_string(),
            ideal: self.ideal,
            error: (self.ideal - mitigated).abs(),
            samples: self.samples,
            mitigated,
            factory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_circuit::library;
    use qucp_core::strategy;
    use qucp_device::ibm;
    use qucp_runtime::{run_campaign, Service};

    fn service() -> Service {
        Service::builder()
            .device(ibm::manhattan())
            .strategy(strategy::qucp(4.0))
            .default_shots(2048)
            .seed(11)
            // Folded circuits must survive untouched (see module docs).
            .optimize(false)
            .build()
            .unwrap()
    }

    #[test]
    fn ladder_is_mode_invariant_and_mitigates() {
        let circuit = library::by_name("fredkin").unwrap().circuit();
        let run = || {
            let mut svc = service();
            let campaign = ZneCampaign::new(circuit.clone(), vec![1.0, 1.5, 2.0, 2.5], 11, 2048);
            run_campaign(&mut svc, campaign).unwrap()
        };
        // Deterministic whatever threads the fan-out helper finds.
        let serial = run();
        assert_eq!(serial, run(), "campaign must be reproducible");
        assert_eq!(serial.output.samples.len(), 4);
        assert_eq!(serial.stats.rounds, 1);
        assert_eq!(serial.stats.jobs, 4);
        assert!((serial.output.ideal - 1.0).abs() < 1e-9);
        // The whole point of the ladder: the scale-1 rung alone is the
        // unmitigated estimate; extrapolation should not be far worse.
        let unmitigated_error = (serial.output.ideal - serial.output.samples[0].1).abs();
        assert!(
            serial.output.error <= unmitigated_error + 0.1,
            "mitigated {} vs unmitigated {}",
            serial.output.error,
            unmitigated_error
        );
    }
}
