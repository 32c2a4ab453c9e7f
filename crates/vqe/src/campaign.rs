//! The H2 VQE grid as a streaming [`CampaignDriver`]: the
//! commuting-group measurement circuits of the θ grid ride the
//! [`Service`](qucp_runtime::Service) as co-scheduled batches.
//!
//! This is the one way the crate runs the paper's Sec. IV-C
//! experiment: the driver emits the circuits, the service owns
//! admission packing, EFS gating, batching and per-ticket retrieval.
//! The two processes of Table III are the same campaign on two
//! services — `max_parallel = 1` runs every measurement circuit
//! alone on its best partition (PG), `max_parallel ≥ nc` runs them
//! simultaneously (QuCP + PG) — and `nc` and the hardware throughput
//! are read off the drained report's
//! [`BatchReport`](qucp_runtime::BatchReport)s. Two round shapes
//! exist because two callers need them: [`VqeCampaign::h2`] emits one
//! round per θ (an iterative optimiser sees each energy before asking
//! for the next point), [`VqeCampaign::h2_grid`] the whole grid as one
//! round (Table III's 16 / 20 / 24 simultaneous circuits). Per-job
//! knobs (EFS threshold, routing override) apply to every request the
//! driver emits.
//!
//! **The service must be built with `optimize(false)`** to keep the
//! ansatz structure untouched.

use qucp_circuit::Circuit;
use qucp_runtime::{CampaignDriver, JobRequest, JobResult, RoutingChoice};
use qucp_sim::noiseless_probabilities;

use crate::ansatz::tied_ansatz;
use crate::hamiltonian::{h2_hamiltonian, Hamiltonian};
use crate::measurement::{group_energy, group_energy_exact, measurement_circuit};
use crate::pauli::PauliString;

/// The measurement circuits of one θ point: one per commuting group.
fn circuits_for_theta(
    h: &Hamiltonian,
    groups: &[Vec<usize>],
    reps: usize,
    theta: f64,
    label: usize,
) -> Vec<Circuit> {
    let ansatz = tied_ansatz(h.num_qubits(), reps, theta);
    groups
        .iter()
        .enumerate()
        .map(|(gi, group)| {
            let strings: Vec<&PauliString> = group.iter().map(|&i| &h.terms()[i].0).collect();
            let mut c = measurement_circuit(&ansatz, &strings);
            c.set_name(format!("vqe_t{label}_g{gi}"));
            c
        })
        .collect()
}

/// A streaming H2 VQE campaign: one job per commuting measurement
/// group of every θ grid point.
///
/// The grid is `θ_i = −π + 2π(i + 0.5)/n`, circuits are named
/// `vqe_t{ti}_g{gi}`, and the energy of a point is folded per group
/// from raw counts with [`group_energy`].
/// Deterministic by construction — the batches depend only on the
/// grid, never on the results — so the service's serial == concurrent
/// guarantee carries to the folded energies.
#[derive(Debug, Clone)]
pub struct VqeCampaign {
    h: Hamiltonian,
    groups: Vec<Vec<usize>>,
    thetas: Vec<f64>,
    thetas_per_round: usize,
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
    /// ansatz repetitions and per-circuit shot budget, one round per θ.
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
            thetas_per_round: 1,
            reps,
            shots,
            fidelity_threshold: None,
            routing: None,
            energies: Vec::new(),
        }
    }

    /// The same campaign with the whole θ grid emitted as a single
    /// round: `nc = 2 × theta_points` measurement circuits co-arrive,
    /// so a service with `max_parallel ≥ nc` runs them simultaneously
    /// (Table III).
    pub fn h2_grid(theta_points: usize, reps: usize, shots: usize) -> Self {
        VqeCampaign {
            thetas_per_round: theta_points,
            ..Self::h2(theta_points, reps, shots)
        }
    }

    /// The noiseless energy at each θ of the grid (the paper's
    /// simulator baseline).
    pub fn noiseless_energies(&self) -> Vec<f64> {
        (self.thetas.iter().enumerate())
            .map(|(ti, &theta)| {
                circuits_for_theta(&self.h, &self.groups, self.reps, theta, ti)
                    .iter()
                    .zip(&self.groups)
                    .map(|(c, group)| {
                        group_energy_exact(&self.h, group, &noiseless_probabilities(c))
                    })
                    .sum()
            })
            .collect()
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

    /// Jobs per round: one per commuting group of each of its θ.
    pub fn jobs_per_round(&self) -> usize {
        self.groups.len() * self.thetas_per_round
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
        let first = round * self.thetas_per_round;
        let last = (first + self.thetas_per_round).min(self.thetas.len());
        let thetas = self.thetas.get(first..last)?;
        Some(
            (thetas.iter().zip(first..))
                .flat_map(|(&theta, ti)| {
                    circuits_for_theta(&self.h, &self.groups, self.reps, theta, ti)
                })
                .map(|c| self.request(c))
                .collect(),
        )
    }

    fn fold(&mut self, _round: usize, results: &[JobResult]) {
        let energies = results.chunks(self.groups.len()).map(|point| {
            (point.iter().zip(&self.groups))
                .map(|(r, group)| group_energy(&self.h, group, &r.result.counts))
                .sum::<f64>()
        });
        self.energies.extend(energies);
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
    fn the_grid_round_is_the_per_theta_campaign_in_one_submission() {
        let dedicated = || {
            Service::builder()
                .device(ibm::manhattan())
                .max_parallel(1)
                .seed(7)
                .optimize(false)
                .build()
                .unwrap()
        };
        let grid = run_campaign(&mut dedicated(), VqeCampaign::h2_grid(3, 2, 256)).unwrap();
        let stepped = run_campaign(&mut dedicated(), VqeCampaign::h2(3, 2, 256)).unwrap();
        assert_eq!((grid.stats.rounds, grid.stats.jobs), (1, 6));
        assert_eq!((stepped.stats.rounds, stepped.stats.jobs), (3, 6));
        // One job per batch either way, in the same order: batch `b`
        // seeds the same circuit, so the round shape moves no energy.
        assert_eq!(grid.output, stepped.output);
        // The noiseless baseline obeys the variational principle.
        let noiseless = VqeCampaign::h2_grid(3, 2, 256).noiseless_energies();
        assert_eq!(noiseless.len(), 3);
        assert!(noiseless
            .iter()
            .all(|&e| e >= h2_exact_ground_energy() - 1e-9));
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
