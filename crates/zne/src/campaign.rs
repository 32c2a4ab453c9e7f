//! The ZNE folded-circuit ladder as a streaming
//! [`CampaignDriver`]: one round submitting every noise-scaled fold of
//! one benchmark as a co-scheduled batch, extrapolated to zero noise at
//! finish.
//!
//! This is the one way the crate runs the paper's Sec. IV-D
//! experiment. The folds are independent by construction, so on a
//! [`Service`](qucp_runtime::Service) with `max_parallel ≥` the ladder
//! length they pack onto shared hardware in one admission round
//! (QuCP + ZNE); the same campaign on a `max_parallel = 1` service runs
//! every fold alone on its best partition (independent ZNE), and its
//! scale-1 rung is the unmitigated baseline — the three processes of
//! Fig. 6, which `qucp-bench`'s `repro fig6` prints.
//!
//! **The service must be built with `optimize(false)`**: folded
//! circuits contain adjacent inverse gate pairs by construction, and
//! the cancellation peephole would silently unfold them back to scale
//! 1, making every ladder rung identical.

use qucp_circuit::Circuit;
use qucp_runtime::{CampaignDriver, JobRequest, JobResult, RoutingChoice};
use qucp_sim::{noiseless_probabilities, Counts};

use crate::extrapolation::{standard_factories, ExtrapolationError, Factory};
use crate::folding::fold_gates_at_random;

/// The observable of the experiment: ⟨Z⊗…⊗Z⟩ over all qubits, measured
/// from counts.
pub fn z_observable(counts: &Counts) -> f64 {
    counts.expectation_z((1 << counts.width()) - 1)
}

/// The same observable from exact probabilities.
pub fn z_observable_exact(probs: &[f64], width: usize) -> f64 {
    let mask = (1usize << width) - 1;
    probs
        .iter()
        .enumerate()
        .map(|(idx, &p)| {
            if (idx & mask).count_ones().is_multiple_of(2) {
                p
            } else {
                -p
            }
        })
        .sum()
}

/// Extrapolates with every standard factory and keeps the value closest
/// to `ideal` — the paper only reports the best factory because ZNE's
/// extrapolation choice is noise-sensitive.
///
/// # Errors
///
/// When no factory can fit `samples` (fewer than two distinct scales),
/// the error of the last one: Richardson needs the least, so its error
/// names what any extrapolation is missing.
fn best_extrapolation(
    samples: &[(f64, f64)],
    ideal: f64,
) -> Result<(f64, Factory), ExtrapolationError> {
    let mut best: Option<(f64, Factory)> = None;
    let mut failure = ExtrapolationError::NotEnoughSamples {
        needed: 2,
        got: samples.len(),
    };
    for factory in standard_factories() {
        match factory.extrapolate(samples) {
            Ok(v) if best.is_none_or(|(b, _)| (v - ideal).abs() < (b - ideal).abs()) => {
                best = Some((v, factory));
            }
            Ok(_) => {}
            Err(e) => failure = e,
        }
    }
    best.ok_or(failure)
}

/// A streaming ZNE campaign for one benchmark circuit: a single round
/// of folded circuits (one per scale factor), folded observables
/// extrapolated to zero noise when the campaign finishes.
///
/// Rung `i` of the ladder is `fold_gates_at_random(circuit, scale[i],
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
    /// The zero-noise estimate: the extrapolation closest to `ideal`,
    /// or — when no factory can fit the ladder, see `factory` — the
    /// first rung as measured, unmitigated (NaN for an empty ladder).
    pub mitigated: f64,
    /// |ideal − mitigated|.
    pub error: f64,
    /// The factory that won the extrapolation, or why none could
    /// extrapolate: a ladder needs at least two distinct scales.
    pub factory: Result<Factory, ExtrapolationError>,
}

impl ZneCampaign {
    /// A campaign folding `circuit` at each of `scale_factors` (rung
    /// `i` folds with seed `seed + i`).
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
        let (mitigated, factory) = match best_extrapolation(&self.samples, self.ideal) {
            Ok((value, factory)) => (value, Ok(factory)),
            Err(e) => (self.samples.first().map_or(f64::NAN, |s| s.1), Err(e)),
        };
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
    use crate::folding::scale_ladder;
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
    fn z_observable_of_ghz() {
        // GHZ on 2 qubits: outcomes 00 and 11, both even parity → +1.
        let c = library::ghz(2);
        let probs = noiseless_probabilities(&c);
        assert!((z_observable_exact(&probs, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_observable_counts_vs_exact() {
        let mut counts = Counts::new(2);
        counts.record(0b00);
        counts.record(0b01);
        let v = z_observable(&counts);
        assert!((v - 0.0).abs() < 1e-12);
    }

    #[test]
    fn best_extrapolation_picks_closest() {
        // Construct samples where the linear fit is exact.
        let samples: Vec<(f64, f64)> = [1.0, 1.5, 2.0, 2.5]
            .iter()
            .map(|&x| (x, 1.0 - 0.3 * x))
            .collect();
        let (v, _) = best_extrapolation(&samples, 1.0).unwrap();
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_ladder_without_two_distinct_scales_is_a_typed_outcome_not_a_panic() {
        let circuit = library::by_name("fredkin").unwrap().circuit();
        for (ladder, why) in [
            (
                scale_ladder(1, 0.5),
                ExtrapolationError::NotEnoughSamples { needed: 2, got: 1 },
            ),
            (
                vec![1.5, 1.5, 1.5],
                ExtrapolationError::DuplicateScale { milli_scale: 1500 },
            ),
        ] {
            let campaign = ZneCampaign::new(circuit.clone(), ladder.clone(), 11, 256);
            let out = run_campaign(&mut service(), campaign).unwrap().output;
            assert_eq!(out.factory, Err(why));
            assert_eq!(out.samples.len(), ladder.len());
            // Unmitigated: the first rung as measured.
            assert_eq!(out.mitigated, out.samples[0].1);
            assert_eq!(out.error, (out.ideal - out.mitigated).abs());
        }
        // An empty ladder submits nothing and estimates nothing.
        let out = run_campaign(&mut service(), ZneCampaign::new(circuit, vec![], 11, 256))
            .unwrap()
            .output;
        assert_eq!(
            out.factory,
            Err(ExtrapolationError::NotEnoughSamples { needed: 2, got: 0 })
        );
        assert!(out.samples.is_empty() && out.mitigated.is_nan() && out.error.is_nan());
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
