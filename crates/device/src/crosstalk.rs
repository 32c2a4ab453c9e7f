//! Ground-truth crosstalk model of a device.
//!
//! When two CNOTs on one-hop-separated links are driven simultaneously,
//! each gate's error rate is amplified by a factor γ(e₁, e₂) ≥ 1 (Sheldon
//! et al.; Murali et al. ASPLOS'20 report 2–11× amplification on IBM
//! chips). The paper *measures* this quantity with SRB (its Fig. 2) and
//! QuCP *approximates* it with the constant σ. Keeping an explicit ground
//! truth lets this repo reproduce both the characterization campaign and
//! the σ-approximation experiment.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link::{Link, LinkPair};
use crate::topology::Topology;

/// The amplification at or above which a pair counts as significant:
/// Murali et al. flag pairs whose simultaneous error grows ≥ 2×, and
/// weaker ratios are indistinguishable from 1 under SRB shot noise. The
/// ground truth's [`CrosstalkModel::significant_pairs`] and an SRB
/// measurement's significance both apply it.
pub const SIGNIFICANT_RATIO: f64 = 2.0;

/// Parameters of the synthetic crosstalk ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkProfile {
    /// Fraction of one-hop pairs with strong crosstalk (the red arrows of
    /// the paper's Fig. 2).
    pub strong_fraction: f64,
    /// Amplification range for strongly coupled pairs.
    pub strong_gamma: (f64, f64),
    /// Amplification range for weakly coupled pairs.
    pub weak_gamma: (f64, f64),
}

impl Default for CrosstalkProfile {
    fn default() -> Self {
        CrosstalkProfile {
            strong_fraction: 0.25,
            strong_gamma: (2.5, 8.0),
            weak_gamma: (1.0, 1.8),
        }
    }
}

/// Crosstalk amplification factors between one-hop link pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkModel {
    gamma: BTreeMap<LinkPair, f64>,
}

impl CrosstalkModel {
    /// Synthesizes the ground truth for `topology`, seeded for
    /// reproducibility. Only one-hop pairs receive a factor; all other
    /// pairs are assumed crosstalk-free (γ = 1), following the locality
    /// finding of Murali et al. that the paper builds on.
    pub fn synthesize(topology: &Topology, seed: u64, profile: &CrosstalkProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gamma = BTreeMap::new();
        for pair in topology.one_hop_link_pairs() {
            let g = if rng.gen_bool(profile.strong_fraction) {
                rng.gen_range(profile.strong_gamma.0..profile.strong_gamma.1)
            } else {
                rng.gen_range(profile.weak_gamma.0..profile.weak_gamma.1)
            };
            gamma.insert(pair, g);
        }
        CrosstalkModel { gamma }
    }

    /// A model with no crosstalk anywhere (γ ≡ 1).
    pub fn none() -> Self {
        CrosstalkModel {
            gamma: BTreeMap::new(),
        }
    }

    /// Builds a model from explicit pair factors.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (LinkPair, f64)>) -> Self {
        CrosstalkModel {
            gamma: pairs.into_iter().collect(),
        }
    }

    /// Amplification factor between two links (1.0 when uncharacterized or
    /// out of crosstalk range).
    pub fn gamma(&self, a: Link, b: Link) -> f64 {
        self.gamma.get(&LinkPair::new(a, b)).copied().unwrap_or(1.0)
    }

    /// All characterized pairs with their factors, canonically ordered.
    pub fn pairs(&self) -> impl Iterator<Item = (LinkPair, f64)> + '_ {
        self.gamma.iter().map(|(&p, &g)| (p, g))
    }

    /// Number of characterized pairs.
    pub fn num_pairs(&self) -> usize {
        self.gamma.len()
    }

    /// Pairs whose amplification meets [`SIGNIFICANT_RATIO`] — the pairs
    /// the paper's Fig. 2 highlights with arrows — strongest first.
    pub fn significant_pairs(&self) -> Vec<(LinkPair, f64)> {
        let mut v: Vec<(LinkPair, f64)> = self
            .gamma
            .iter()
            .filter(|(_, &g)| g >= SIGNIFICANT_RATIO)
            .map(|(&p, &g)| (p, g))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Mutable access to every characterized pair's factor, in
    /// canonical pair order (deterministic: the map is ordered) — the
    /// iteration a [`DriftModel`](crate::DriftModel) perturbs.
    pub fn gammas_mut(&mut self) -> impl Iterator<Item = (LinkPair, &mut f64)> {
        self.gamma.iter_mut().map(|(&p, g)| (p, g))
    }

    /// Whether every stored factor is finite.
    pub fn all_finite(&self) -> bool {
        self.gamma.values().all(|g| g.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::line(6)
    }

    #[test]
    fn synthesize_covers_one_hop_pairs() {
        let t = topo();
        let m = CrosstalkModel::synthesize(&t, 1, &CrosstalkProfile::default());
        assert_eq!(m.num_pairs(), t.one_hop_link_pairs().len());
    }

    #[test]
    fn synthesize_deterministic() {
        let t = topo();
        let p = CrosstalkProfile::default();
        assert_eq!(
            CrosstalkModel::synthesize(&t, 9, &p),
            CrosstalkModel::synthesize(&t, 9, &p)
        );
    }

    #[test]
    fn gamma_defaults_to_one() {
        let m = CrosstalkModel::none();
        assert_eq!(m.gamma(Link::new(0, 1), Link::new(2, 3)), 1.0);
        assert_eq!(m.num_pairs(), 0);
    }

    #[test]
    fn gamma_symmetric_lookup() {
        let pair = LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let m = CrosstalkModel::from_pairs([(pair, 4.2)]);
        assert_eq!(m.gamma(Link::new(2, 3), Link::new(0, 1)), 4.2);
        assert_eq!(m.gamma(Link::new(0, 1), Link::new(2, 3)), 4.2);
    }

    #[test]
    fn gamma_in_profile_ranges() {
        let t = topo();
        let p = CrosstalkProfile::default();
        let m = CrosstalkModel::synthesize(&t, 3, &p);
        for (_, g) in m.pairs() {
            assert!(g >= p.weak_gamma.0);
            assert!(g <= p.strong_gamma.1);
        }
    }

    #[test]
    fn significant_pairs_sorted_descending() {
        let a = LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let b = LinkPair::new(Link::new(1, 2), Link::new(3, 4));
        let c = LinkPair::new(Link::new(2, 3), Link::new(4, 5));
        let m = CrosstalkModel::from_pairs([(a, 3.0), (b, 6.0), (c, 1.9)]);
        let sig = m.significant_pairs();
        assert_eq!(sig, vec![(b, 6.0), (a, 3.0)]);
        let at_threshold = CrosstalkModel::from_pairs([(a, SIGNIFICANT_RATIO)]);
        assert_eq!(at_threshold.significant_pairs().len(), 1);
        assert!(CrosstalkModel::from_pairs([(a, 1.9)])
            .significant_pairs()
            .is_empty());
    }
}
