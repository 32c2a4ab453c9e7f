//! Parallel-execution strategies: QuCP and the baselines it is compared
//! against in the paper (Sec. II-B and IV-A).

use std::collections::BTreeMap;

use qucp_device::{Device, LinkPair};

use crate::efs::CrosstalkTreatment;
use crate::partition::PartitionPolicy;

/// The σ value the paper settles on after the tuning experiment of
/// Sec. IV-A ("when σ ≥ 4, QuCP provides the same results as QuMC").
pub const DEFAULT_SIGMA: f64 = 4.0;

/// A complete parallel-execution policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Display name (used in reports).
    pub name: String,
    /// Partitioning policy.
    pub partition: PartitionPolicy,
    /// Whether routing penalizes links with strong crosstalk partners in
    /// other partitions (CNA's gate-level awareness).
    pub crosstalk_aware_routing: bool,
    /// Whether overlapping one-hop CNOTs are serialized instead of
    /// suffering crosstalk (CNA's scheduling behaviour).
    pub serialize_conflicts: bool,
}

/// QuCP (this paper): crosstalk-aware partitioning through the σ
/// parameter — no characterization overhead.
pub fn qucp(sigma: f64) -> Strategy {
    Strategy {
        name: format!("QuCP(σ={sigma})"),
        partition: PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(sigma)),
        crosstalk_aware_routing: false,
        serialize_conflicts: false,
    }
}

/// QuMC (Niu & Todri-Sanial 2021): crosstalk-aware partitioning with
/// SRB-measured pair ratios.
pub fn qumc(measured: BTreeMap<LinkPair, f64>) -> Strategy {
    Strategy {
        name: "QuMC".to_string(),
        partition: PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(measured)),
        crosstalk_aware_routing: false,
        serialize_conflicts: false,
    }
}

/// QuMC with the device's ground-truth crosstalk as a stand-in for a
/// full SRB campaign: SRB estimates exactly this quantity (the SRB
/// crate's `CampaignReport::crosstalk_map` builds [`qumc`]'s map from a
/// simulated campaign). Following Murali et al. and QuMC practice, only
/// the significant pairs ([`qucp_device::SIGNIFICANT_RATIO`]) enter the
/// map.
pub fn qumc_with_ground_truth(device: &Device) -> Strategy {
    qumc(device.crosstalk().significant_pairs().into_iter().collect())
}

/// CNA (Ohkura): no noise-aware partitioning; crosstalk considered at
/// gate level *during mapping* (penalized SWAP-link selection). Overlaps
/// that mapping cannot avoid still suffer crosstalk at execution time.
pub fn cna() -> Strategy {
    Strategy {
        name: "CNA".to_string(),
        partition: PartitionPolicy::TopologyGreedy,
        crosstalk_aware_routing: true,
        serialize_conflicts: false,
    }
}

/// A CNA variant that additionally serializes the conflicting CNOTs the
/// mapper could not separate, trading crosstalk for idle decoherence
/// (used by the ablation benches, not a paper baseline).
pub fn cna_serialized() -> Strategy {
    Strategy {
        name: "CNA+serialize".to_string(),
        partition: PartitionPolicy::TopologyGreedy,
        crosstalk_aware_routing: true,
        serialize_conflicts: true,
    }
}

/// MultiQC (Das et al. 2019): reliability-aware partitioning, no
/// crosstalk handling at all.
pub fn multiqc() -> Strategy {
    Strategy {
        name: "MultiQC".to_string(),
        partition: PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        crosstalk_aware_routing: false,
        serialize_conflicts: false,
    }
}

/// QuCloud (Liu & Dou): fidelity-degree partitioning, no crosstalk
/// handling.
pub fn qucloud() -> Strategy {
    Strategy {
        name: "QuCloud".to_string(),
        partition: PartitionPolicy::FidelityDegree,
        crosstalk_aware_routing: false,
        serialize_conflicts: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::ibm;

    #[test]
    fn qucp_uses_sigma_treatment() {
        let s = qucp(4.0);
        assert!(s.name.contains("QuCP"));
        assert!(matches!(
            s.partition,
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(x)) if x == 4.0
        ));
        assert!(!s.serialize_conflicts);
    }

    #[test]
    fn qumc_ground_truth_covers_all_pairs() {
        let dev = ibm::toronto();
        let s = qumc_with_ground_truth(&dev);
        match s.partition {
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(map)) => {
                // Exactly the significant pairs, each with its
                // ground-truth factor.
                let significant: BTreeMap<_, _> =
                    dev.crosstalk().significant_pairs().into_iter().collect();
                assert_eq!(map, significant);
                assert!(map.len() < dev.crosstalk().num_pairs());
                assert!(!map.is_empty());
            }
            _ => panic!("expected measured treatment"),
        }
    }

    #[test]
    fn cna_is_gate_level() {
        let s = cna();
        assert!(s.crosstalk_aware_routing);
        assert!(!s.serialize_conflicts);
        assert_eq!(s.partition, PartitionPolicy::TopologyGreedy);
        assert!(cna_serialized().serialize_conflicts);
    }

    #[test]
    fn baselines_ignore_crosstalk_in_partitioning() {
        assert!(matches!(
            multiqc().partition,
            PartitionPolicy::NoiseAware(CrosstalkTreatment::None)
        ));
        assert_eq!(qucloud().partition, PartitionPolicy::FidelityDegree);
    }

    #[test]
    fn default_sigma_matches_paper() {
        assert_eq!(DEFAULT_SIGMA, 4.0);
    }
}
