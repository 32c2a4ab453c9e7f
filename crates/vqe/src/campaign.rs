//! The H2 VQE grid as a streaming [`CampaignDriver`]: each round is one
//! θ point whose commuting-group measurement circuits ride the
//! [`Service`](qucp_runtime::Service) as a co-scheduled batch.
//!
//! Where [`run_h2_experiment`](crate::run_h2_experiment) drives the
//! core pipeline directly (the paper's Table III comparison), this
//! driver submits the same circuits through the runtime's streaming
//! job interface — multiprogrammed with per-ticket result retrieval —
//! so the VQE iteration loop benefits from admission packing, EFS
//! gating, and scheduler batching without owning any of it. Per-job
//! knobs (EFS threshold, routing override) apply to every request the
//! driver emits.

use qucp_circuit::Circuit;
use qucp_runtime::{CampaignDriver, JobRequest, JobResult, RoutingChoice};

use crate::hamiltonian::{h2_hamiltonian, Hamiltonian};
use crate::measurement::group_energy;
use crate::runner::circuits_for_theta;

/// A streaming H2 VQE campaign: one round per θ grid point, one job
/// per commuting measurement group.
///
/// The grid matches [`run_h2_experiment`](crate::run_h2_experiment):
/// `θ_i = −π + 2π(i + 0.5)/n`, circuits named `vqe_t{ti}_g{gi}`, energy
/// folded per group from raw counts with
/// [`group_energy`](crate::group_energy). Deterministic by
/// construction — the batches depend only on the grid, never on the
/// results — so the service's serial == concurrent guarantee carries
/// to the folded energies.
#[derive(Debug, Clone)]
pub struct VqeCampaign {
    h: Hamiltonian,
    groups: Vec<Vec<usize>>,
    thetas: Vec<f64>,
    reps: usize,
    shots: usize,
    fidelity_threshold: Option<f64>,
    routing: Option<RoutingChoice>,
    energies: Vec<f64>,
}

/// What a drained [`VqeCampaign`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeCampaignOutput {
    /// The θ grid, in round order.
    pub thetas: Vec<f64>,
    /// The estimated energy at each θ, in round order.
    pub energies: Vec<f64>,
    /// The grid minimum (the variational estimate).
    pub min_energy: f64,
}

impl VqeCampaign {
    /// An H2 campaign over `theta_points` grid angles with the given
    /// ansatz repetitions and per-circuit shot budget.
    pub fn h2(theta_points: usize, reps: usize, shots: usize) -> Self {
        let h = h2_hamiltonian();
        let groups = h.commuting_groups();
        let thetas = (0..theta_points)
            .map(|i| {
                -std::f64::consts::PI
                    + 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / theta_points as f64
            })
            .collect();
        VqeCampaign {
            h,
            groups,
            thetas,
            reps,
            shots,
            fidelity_threshold: None,
            routing: None,
            energies: Vec::new(),
        }
    }

    /// Attaches a per-job EFS fidelity threshold to every request.
    #[must_use]
    pub fn with_fidelity_threshold(mut self, threshold: f64) -> Self {
        self.fidelity_threshold = Some(threshold);
        self
    }

    /// Attaches a per-job routing override to every request.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Jobs per round: one per commuting group.
    pub fn jobs_per_round(&self) -> usize {
        self.groups.len()
    }

    fn request(&self, circuit: Circuit) -> JobRequest {
        let mut request = JobRequest::new(circuit, 0.0).with_shots(self.shots);
        if let Some(threshold) = self.fidelity_threshold {
            request = request.with_fidelity_threshold(threshold);
        }
        if let Some(routing) = self.routing {
            request = request.with_routing(routing);
        }
        request
    }
}

impl CampaignDriver for VqeCampaign {
    type Output = VqeCampaignOutput;

    fn next_batch(&mut self, round: usize) -> Option<Vec<JobRequest>> {
        let &theta = self.thetas.get(round)?;
        Some(
            circuits_for_theta(&self.h, &self.groups, self.reps, theta, round)
                .into_iter()
                .map(|c| self.request(c))
                .collect(),
        )
    }

    fn fold(&mut self, _round: usize, results: &[JobResult]) {
        let energy = results
            .iter()
            .zip(&self.groups)
            .map(|(r, group)| group_energy(&self.h, group, &r.result.counts))
            .sum();
        self.energies.push(energy);
    }

    fn finish(self) -> VqeCampaignOutput {
        let min_energy = self.energies.iter().copied().fold(f64::INFINITY, f64::min);
        VqeCampaignOutput {
            thetas: self.thetas,
            energies: self.energies,
            min_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::h2_exact_ground_energy;
    use qucp_core::strategy;
    use qucp_device::ibm;
    use qucp_runtime::{run_campaign, Service};

    fn service() -> Service {
        Service::builder()
            .device(ibm::manhattan())
            .strategy(strategy::qucp(4.0))
            .default_shots(1024)
            .seed(7)
            .optimize(false)
            .build()
            .unwrap()
    }

    #[test]
    fn campaign_energies_are_physical_and_deterministic() {
        let run = || {
            let mut svc = service();
            run_campaign(&mut svc, VqeCampaign::h2(4, 2, 1024)).unwrap()
        };
        // Deterministic whatever threads the fan-out helper finds.
        let serial = run();
        assert_eq!(serial, run(), "campaign must be reproducible");
        assert_eq!(serial.output.energies.len(), 4);
        assert_eq!(serial.stats.rounds, 4);
        assert_eq!(serial.stats.jobs, 8);
        for &e in &serial.output.energies {
            assert!(e > -2.5 && e < 1.0, "unphysical energy {e}");
        }
        // A 4-point grid is coarse, but the minimum still has to land
        // in the well, not at the dissociation plateau.
        assert!(serial.output.min_energy < h2_exact_ground_energy() + 1.0);
    }
}
