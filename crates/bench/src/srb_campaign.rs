//! Simultaneous RB riding the runtime [`Service`](qucp_runtime::Service):
//! a streaming [`CampaignDriver`] that co-schedules the RB sequences of
//! a whole link group, one round per sequence length.
//!
//! The paper's SRB protocol drives every link of a conflict-free group
//! *at the same time* to expose crosstalk. This driver expresses that
//! through multiprogramming: each round submits, for every
//! characterized link and every random seed, one RB sequence of the
//! round's length — the admission policy packs them onto shared
//! hardware exactly as the paper batches simultaneous sequences.
//! Sequences are the ones [`qucp_srb::rb_on_link`] would generate
//! (same per-`(length, seed, link)` derivation from the base seed), so
//! the two paths characterize the same circuits.
//!
//! This driver lives in `qucp-bench` rather than `qucp-srb` because
//! the dependency arrow points the other way: `qucp-core`'s strategy
//! layer consumes SRB characterizations, so `qucp-srb` sits *below*
//! the runtime and cannot depend on it.
//!
//! Unlike the direct runner, the service pipeline applies its own noise
//! model to the *whole* circuit — there is no noise-free recovery block
//! and no per-gate γ scaling here. The recovery's noise is absorbed
//! into the SPAM constants of the decay fit, as in standard RB
//! analysis; crosstalk enters through the service's device model when
//! sequences actually share a chip.

use qucp_device::Link;
use qucp_runtime::{CampaignDriver, JobRequest, JobResult, RoutingChoice};
use qucp_srb::{fit_decay, rb_circuit, DecayFit, RbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A streaming simultaneous-RB campaign over a set of links: one round
/// per sequence length, `links × seeds` co-scheduled jobs per round,
/// per-link survival curves fitted when the campaign finishes.
#[derive(Debug, Clone)]
pub struct SrbServiceCampaign {
    links: Vec<Link>,
    cfg: RbConfig,
    routing: Option<RoutingChoice>,
    survival: Vec<Vec<(usize, f64)>>,
}

/// What a drained [`SrbServiceCampaign`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SrbServiceOutput {
    /// The characterized links, in construction order.
    pub links: Vec<Link>,
    /// Per-link `(length, mean survival)` curves, index-aligned with
    /// `links`.
    pub survival: Vec<Vec<(usize, f64)>>,
    /// Per-link decay fits, index-aligned with `links`.
    pub fits: Vec<DecayFit>,
}

impl SrbServiceOutput {
    /// Error per Clifford of link `i` from its fitted decay.
    pub fn error_per_clifford(&self, i: usize) -> f64 {
        self.fits[i].error_per_clifford()
    }
}

impl SrbServiceCampaign {
    /// A campaign characterizing `links` simultaneously under `cfg`
    /// (lengths, seeds per length, shots, base seed — shared with the
    /// direct [`qucp_srb::rb_on_link`] runner).
    pub fn new(links: Vec<Link>, cfg: RbConfig) -> Self {
        let survival = vec![Vec::with_capacity(cfg.lengths.len()); links.len()];
        SrbServiceCampaign {
            links,
            cfg,
            routing: None,
            survival,
        }
    }

    /// Attaches a per-job routing override to every request.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Jobs per round: one sequence per link per seed.
    pub fn jobs_per_round(&self) -> usize {
        self.links.len() * self.cfg.seeds
    }

    /// The sequence seed of `(length index, seed index, link)` — the
    /// same derivation [`qucp_srb::rb_on_link`] uses, so both paths
    /// draw identical Clifford sequences.
    fn seq_seed(&self, li: usize, s: usize, link: Link) -> u64 {
        self.cfg
            .base_seed
            .wrapping_add(li as u64 * 1_000_003)
            .wrapping_add(s as u64 * 7919)
            .wrapping_add(link.low() as u64 * 31)
            .wrapping_add(link.high() as u64)
    }
}

impl CampaignDriver for SrbServiceCampaign {
    type Output = SrbServiceOutput;

    fn next_batch(&mut self, round: usize) -> Option<Vec<JobRequest>> {
        let &m = self.cfg.lengths.get(round)?;
        let mut requests = Vec::with_capacity(self.jobs_per_round());
        for &link in &self.links {
            for s in 0..self.cfg.seeds {
                let mut rng = StdRng::seed_from_u64(self.seq_seed(round, s, link));
                let (mut circuit, _recovery_start) = rb_circuit(m, &mut rng);
                circuit.set_name(format!("srb_l{}_{}_m{m}_s{s}", link.low(), link.high()));
                let mut request = JobRequest::new(circuit, 0.0).with_shots(self.cfg.shots);
                if let Some(routing) = self.routing {
                    request = request.with_routing(routing);
                }
                requests.push(request);
            }
        }
        Some(requests)
    }

    fn fold(&mut self, round: usize, results: &[JobResult]) {
        let m = self.cfg.lengths[round];
        for (i, chunk) in results.chunks(self.cfg.seeds).enumerate() {
            let total: f64 = chunk.iter().map(|r| r.result.counts.probability(0)).sum();
            self.survival[i].push((m, total / self.cfg.seeds as f64));
        }
    }

    fn finish(self) -> SrbServiceOutput {
        let fits = self.survival.iter().map(|curve| fit_decay(curve)).collect();
        SrbServiceOutput {
            links: self.links,
            survival: self.survival,
            fits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::{Calibration, CrosstalkModel, Device, Topology};
    use qucp_runtime::Service;

    fn service() -> Service {
        let t = Topology::line(4);
        let cal = Calibration::uniform(&t, 0.04, 1e-4, 0.02);
        let dev = Device::new("srbdev", t, cal, CrosstalkModel::none());
        Service::builder()
            .device(dev)
            .default_shots(256)
            .seed(5)
            // RB sequences contain Clifford–inverse structure the
            // peephole would cancel; keep them intact.
            .optimize(false)
            .build()
            .unwrap()
    }

    fn quick_cfg() -> RbConfig {
        RbConfig {
            lengths: vec![1, 4, 8, 16],
            seeds: 2,
            shots: 256,
            base_seed: 5,
        }
    }

    #[test]
    fn simultaneous_rb_decays_and_is_mode_invariant() {
        let links = vec![Link::new(0, 1), Link::new(2, 3)];
        let run = || {
            let mut svc = service();
            let campaign = SrbServiceCampaign::new(links.clone(), quick_cfg());
            qucp_runtime::run_campaign(&mut svc, campaign).unwrap()
        };
        // Deterministic whatever threads the fan-out helper finds.
        let serial = run();
        assert_eq!(serial, run(), "campaign must be reproducible");
        assert_eq!(serial.stats.rounds, 4);
        assert_eq!(serial.stats.jobs, 4 * 2 * 2);
        for (i, curve) in serial.output.survival.iter().enumerate() {
            assert_eq!(curve.len(), 4);
            let first = curve.first().unwrap().1;
            let last = curve.last().unwrap().1;
            assert!(
                first > last,
                "link {i}: expected decay, got first {first} last {last}"
            );
            assert!(serial.output.error_per_clifford(i) > 0.0);
        }
    }
}
