//! Full SRB characterization campaigns: the overhead accounting of the
//! paper's Table I and the crosstalk map of its Fig. 2.

use std::collections::BTreeMap;
use std::fmt;

use qucp_device::{Device, LinkPair, SIGNIFICANT_RATIO};

use crate::grouping::srb_groups;
use crate::rb::{rb_on_link, RbConfig};

/// Number of job types per group and seed: RB on each member of the pair
/// plus the simultaneous run (the ×3 of Table I's job formula).
pub const JOBS_PER_GROUP_SEED: usize = 3;

/// The SRB overhead accounting for one device — a row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrbOverhead {
    /// Device name.
    pub device: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Number of coupling links (the paper's "1-hop pairs" row counts the
    /// links that must be characterized).
    pub links: usize,
    /// Number of disjoint one-hop link pairs (the geometric pair count).
    pub one_hop_pairs: usize,
    /// Simultaneous characterization groups after conflict coloring.
    pub groups: usize,
    /// Seeds per experiment.
    pub seeds: usize,
    /// Total jobs = 3 × groups × seeds.
    pub jobs: usize,
}

impl fmt::Display for SrbOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} links, {} one-hop pairs, {} groups, {} seeds, {} jobs",
            self.device,
            self.qubits,
            self.links,
            self.one_hop_pairs,
            self.groups,
            self.seeds,
            self.jobs
        )
    }
}

/// Computes the Table I overhead row for a device without running any
/// circuits.
pub fn srb_overhead(device: &Device, seeds: usize) -> SrbOverhead {
    let topo = device.topology();
    let groups = srb_groups(topo).len();
    SrbOverhead {
        device: device.name().to_string(),
        qubits: topo.num_qubits(),
        links: topo.num_links(),
        one_hop_pairs: topo.one_hop_link_pairs().len(),
        groups,
        seeds,
        jobs: JOBS_PER_GROUP_SEED * groups * seeds,
    }
}

/// The SRB measurement of one one-hop pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCharacterization {
    /// The measured pair.
    pub pair: LinkPair,
    /// Isolated error per Clifford of (first, second) link.
    pub isolated: (f64, f64),
    /// Simultaneous error per Clifford of (first, second) link.
    pub simultaneous: (f64, f64),
    /// The ground-truth γ of the device model (for validation).
    pub true_gamma: f64,
}

impl PairCharacterization {
    /// The smallest error-per-Clifford treated as resolvable: isolated
    /// errors below this floor are clamped before forming ratios so that
    /// shot-noise fits near zero cannot produce unbounded ratios.
    pub const EPSILON_FLOOR: f64 = 1e-3;

    /// Measured crosstalk ratio `ε(gi|gj)/ε(gi)` for the first link.
    pub fn ratio_first(&self) -> f64 {
        self.simultaneous.0 / self.isolated.0.max(Self::EPSILON_FLOOR)
    }

    /// Measured crosstalk ratio for the second link.
    pub fn ratio_second(&self) -> f64 {
        self.simultaneous.1 / self.isolated.1.max(Self::EPSILON_FLOOR)
    }

    /// The larger of the two ratios.
    pub fn worst_ratio(&self) -> f64 {
        self.ratio_first().max(self.ratio_second())
    }

    /// Whether the pair is significantly affected by crosstalk: its
    /// worst ratio meets the device's [`SIGNIFICANT_RATIO`].
    pub fn is_significant(&self) -> bool {
        self.worst_ratio() >= SIGNIFICANT_RATIO
    }
}

/// Runs SRB on one pair: isolated RB on each link, then the simultaneous
/// variant with the ground-truth γ applied (the physical effect of
/// driving both CNOTs at once).
pub fn characterize_pair(device: &Device, pair: LinkPair, cfg: &RbConfig) -> PairCharacterization {
    let (l1, l2) = (pair.first(), pair.second());
    let gamma = device.crosstalk().gamma(l1, l2);
    let iso1 = rb_on_link(device, l1, 1.0, cfg);
    let iso2 = rb_on_link(device, l2, 1.0, cfg);
    let sim1 = rb_on_link(device, l1, gamma, cfg);
    let sim2 = rb_on_link(device, l2, gamma, cfg);
    PairCharacterization {
        pair,
        isolated: (iso1.error_per_clifford(), iso2.error_per_clifford()),
        simultaneous: (sim1.error_per_clifford(), sim2.error_per_clifford()),
        true_gamma: gamma,
    }
}

/// A full characterization campaign over every one-hop pair of a device —
/// the data behind the paper's Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Overhead accounting (Table I row).
    pub overhead: SrbOverhead,
    /// Per-pair measurements.
    pub pairs: Vec<PairCharacterization>,
}

impl CampaignReport {
    /// Pairs flagged as significantly affected, sorted by worst ratio
    /// descending.
    pub fn significant(&self) -> Vec<&PairCharacterization> {
        let mut v: Vec<&PairCharacterization> =
            self.pairs.iter().filter(|p| p.is_significant()).collect();
        v.sort_by(|a, b| {
            b.worst_ratio()
                .total_cmp(&a.worst_ratio())
                .then(a.pair.cmp(&b.pair))
        });
        v
    }

    /// QuMC's measured-crosstalk map: the worst observed ratio of every
    /// significantly affected pair — the input of `qucp_core`'s
    /// `strategy::qumc`.
    pub fn crosstalk_map(&self) -> BTreeMap<LinkPair, f64> {
        (self.pairs.iter())
            .filter(|p| p.is_significant())
            .map(|p| (p.pair, p.worst_ratio()))
            .collect()
    }
}

/// Runs the full campaign: SRB on every one-hop pair of the device.
pub fn run_campaign(device: &Device, cfg: &RbConfig) -> CampaignReport {
    let overhead = srb_overhead(device, cfg.seeds);
    let pairs: Vec<PairCharacterization> = device
        .topology()
        .one_hop_link_pairs()
        .into_iter()
        .map(|p| characterize_pair(device, p, cfg))
        .collect();
    CampaignReport { overhead, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::{ibm, Calibration, CrosstalkModel, Device, Link, Topology};

    #[test]
    fn table1_overhead_structure() {
        let toronto = srb_overhead(&ibm::toronto(), 5);
        assert_eq!(toronto.qubits, 27);
        assert_eq!(toronto.links, 28);
        assert_eq!(toronto.seeds, 5);
        assert_eq!(toronto.jobs, 3 * toronto.groups * 5);

        let manhattan = srb_overhead(&ibm::manhattan(), 5);
        assert_eq!(manhattan.qubits, 65);
        assert_eq!(manhattan.links, 72);
        assert!(manhattan.groups >= toronto.groups);
        assert!(manhattan.jobs > toronto.jobs);
    }

    #[test]
    fn overhead_display() {
        let o = srb_overhead(&ibm::toronto(), 5);
        let s = o.to_string();
        assert!(s.contains("ibmq_toronto"));
        assert!(s.contains("27 qubits"));
    }

    fn small_device(gamma: f64) -> Device {
        let t = Topology::line(4);
        let cal = Calibration::uniform(&t, 0.03, 1e-4, 0.02);
        let pair = qucp_device::LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let xt = CrosstalkModel::from_pairs([(pair, gamma)]);
        Device::new("small", t, cal, xt)
    }

    fn quick_cfg() -> RbConfig {
        RbConfig {
            lengths: vec![1, 4, 8, 16],
            seeds: 2,
            shots: 256,
            base_seed: 77,
        }
    }

    #[test]
    fn characterization_detects_strong_crosstalk() {
        let dev = small_device(5.0);
        let pair = qucp_device::LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let ch = characterize_pair(&dev, pair, &quick_cfg());
        assert!(ch.is_significant(), "worst ratio {}", ch.worst_ratio());
        assert!(ch.worst_ratio() > 2.0);
        assert_eq!(ch.true_gamma, 5.0);
    }

    #[test]
    fn characterization_passes_quiet_pairs() {
        let dev = small_device(1.0);
        let pair = qucp_device::LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let ch = characterize_pair(&dev, pair, &quick_cfg());
        assert!(!ch.is_significant(), "worst ratio {}", ch.worst_ratio());
    }

    #[test]
    fn campaign_on_small_device() {
        let dev = small_device(4.0);
        let report = run_campaign(&dev, &quick_cfg());
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.significant().len(), 1);
        assert_eq!(report.overhead.one_hop_pairs, 1);
    }

    #[test]
    fn crosstalk_map_holds_the_significant_pairs_worst_ratios() {
        let report = run_campaign(&small_device(4.0), &quick_cfg());
        let map = report.crosstalk_map();
        let expected: BTreeMap<LinkPair, f64> = (report.significant().into_iter())
            .map(|p| (p.pair, p.worst_ratio()))
            .collect();
        assert_eq!(map.len(), 1);
        assert_eq!(map, expected);
        let quiet = run_campaign(&small_device(1.0), &quick_cfg());
        assert!(quiet.crosstalk_map().is_empty());
    }
}
