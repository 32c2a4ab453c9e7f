//! The Estimated Fidelity Score of Eq. (1) of the paper:
//!
//! ```text
//! EFS = Avg2q(cross) × #2q  +  Avg1q × #1q  +  Σ_{Qi ∈ P} R_Qi
//! ```
//!
//! `Avg2q(cross)` is the average CNOT error inside the candidate
//! partition, with the errors of links that sit one hop away from
//! already-allocated links inflated by a crosstalk factor: the constant
//! σ for QuCP (no characterization needed) or the measured ratio for
//! QuMC (from SRB). Lower EFS means a more reliable partition.

use std::collections::BTreeMap;

use qucp_circuit::Circuit;
use qucp_device::{Device, Link, LinkPair, RegionView};

/// Gate-count statistics of a program, the `#2q`/`#1q` of Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of two-qubit gates.
    pub two_qubit: usize,
    /// Number of one-qubit gates.
    pub single_qubit: usize,
}

impl CircuitStats {
    /// Extracts the stats from a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        CircuitStats {
            two_qubit: circuit.two_qubit_count(),
            single_qubit: circuit.single_qubit_count(),
        }
    }
}

/// How crosstalk between a candidate partition and already-allocated
/// links enters the EFS.
#[derive(Debug, Clone, PartialEq)]
pub enum CrosstalkTreatment {
    /// Ignore crosstalk (MultiQC / QuCloud / CNA partitioning).
    None,
    /// QuCP: multiply affected CNOT errors by the constant σ, avoiding
    /// any characterization overhead (Sec. III of the paper).
    Sigma(f64),
    /// QuMC: use per-pair measured ratios (from an SRB campaign).
    /// Unmeasured pairs default to 1.
    Measured(BTreeMap<LinkPair, f64>),
}

impl CrosstalkTreatment {
    /// The inflation factor for a candidate link paired with an allocated
    /// link.
    pub fn factor(&self, pair: LinkPair) -> f64 {
        match self {
            CrosstalkTreatment::None => 1.0,
            CrosstalkTreatment::Sigma(sigma) => *sigma,
            CrosstalkTreatment::Measured(map) => map.get(&pair).copied().unwrap_or(1.0),
        }
    }
}

/// The EFS value together with the potential crosstalk pairs that
/// inflated it (the paper's `qcrosstalk` list).
#[derive(Debug, Clone, PartialEq)]
pub struct EfsBreakdown {
    /// The Eq. (1) score (lower is better).
    pub score: f64,
    /// Average (possibly crosstalk-inflated) CNOT error in the partition.
    pub avg_two_qubit_error: f64,
    /// Average one-qubit error in the partition.
    pub avg_single_qubit_error: f64,
    /// Total readout error of the partition.
    pub readout_sum: f64,
    /// Links of the candidate at one-hop distance from allocated links.
    pub crosstalk_pairs: Vec<LinkPair>,
}

/// Computes the EFS of a candidate `partition` for a program with
/// `stats`, given the links already claimed by other programs.
pub fn efs(
    device: &Device,
    partition: &[usize],
    stats: &CircuitStats,
    allocated_links: &[Link],
    treatment: &CrosstalkTreatment,
) -> EfsBreakdown {
    region_efs(
        device,
        device.region(partition).view(),
        stats,
        allocated_links,
        treatment,
    )
}

/// [`efs`] of an already measured region: with nothing allocated
/// the score is a few operations on the region's error sums; otherwise
/// only the CNOT term is recomputed, link by link, with its crosstalk
/// inflation.
pub(crate) fn region_efs(
    device: &Device,
    region: RegionView<'_>,
    stats: &CircuitStats,
    allocated_links: &[Link],
    treatment: &CrosstalkTreatment,
) -> EfsBreakdown {
    let mut crosstalk_pairs = Vec::new();
    let avg2q = avg_two_qubit_error(device, region, allocated_links, treatment, |pair| {
        crosstalk_pairs.push(pair)
    });
    let (score, avg1q, readout_sum) = eq1(region, stats, avg2q);
    EfsBreakdown {
        score,
        avg_two_qubit_error: avg2q,
        avg_single_qubit_error: avg1q,
        readout_sum,
        crosstalk_pairs,
    }
}

/// [`region_efs`]'s score alone, by the same floating-point operations,
/// without collecting the crosstalk pairs: what ranking a candidate
/// needs.
pub(crate) fn region_efs_score(
    device: &Device,
    region: RegionView<'_>,
    stats: &CircuitStats,
    allocated_links: &[Link],
    treatment: &CrosstalkTreatment,
) -> f64 {
    let avg2q = avg_two_qubit_error(device, region, allocated_links, treatment, |_| ());
    eq1(region, stats, avg2q).0
}

/// `Avg2q(cross)`, handing every potential crosstalk pair to `pair`:
/// per region link, the allocated links in their order that the
/// topology's one-hop relation pairs it with.
fn avg_two_qubit_error(
    device: &Device,
    region: RegionView<'_>,
    allocated_links: &[Link],
    treatment: &CrosstalkTreatment,
    mut pair: impl FnMut(LinkPair),
) -> f64 {
    let topo = device.topology();
    let cal = device.calibration();
    let links = region.links();
    if links.is_empty() {
        0.0
    } else if allocated_links.is_empty() {
        region.cx_error_sum() / links.len() as f64
    } else {
        let mut total = 0.0;
        for &l in links {
            let mut e = cal.cx_error(l);
            let mut worst = 1.0f64;
            let one_hop = topo.one_hop_links(l);
            for &al in allocated_links {
                if one_hop.binary_search(&al).is_ok() {
                    let p = LinkPair::new(l, al);
                    pair(p);
                    worst = worst.max(treatment.factor(p));
                }
            }
            e *= worst;
            total += e;
        }
        total / links.len() as f64
    }
}

/// Eq. (1) from `Avg2q(cross)` and the region's sums: the score, then
/// `Avg1q` and the readout sum it used.
fn eq1(region: RegionView<'_>, stats: &CircuitStats, avg2q: f64) -> (f64, f64, f64) {
    let avg1q = region.sq_error_sum() / region.qubits().len().max(1) as f64;
    let readout_sum = region.readout_error_sum();
    let score = avg2q * stats.two_qubit as f64 + avg1q * stats.single_qubit as f64 + readout_sum;
    (score, avg1q, readout_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::{Calibration, CrosstalkModel, Topology};

    fn device() -> Device {
        let t = Topology::line(6);
        let cal = Calibration::uniform(&t, 0.02, 4e-4, 0.03);
        Device::new("efs", t, cal, CrosstalkModel::none())
    }

    fn stats() -> CircuitStats {
        CircuitStats {
            two_qubit: 10,
            single_qubit: 13,
        }
    }

    #[test]
    fn stats_from_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2);
        let s = CircuitStats::of(&c);
        assert_eq!(s.two_qubit, 2);
        assert_eq!(s.single_qubit, 2);
    }

    #[test]
    fn efs_matches_formula_without_crosstalk() {
        let dev = device();
        let b = efs(&dev, &[0, 1, 2], &stats(), &[], &CrosstalkTreatment::None);
        // Avg2q = 0.02, Avg1q = 4e-4, readout = 3 × 0.03.
        let expected = 0.02 * 10.0 + 4e-4 * 13.0 + 0.09;
        assert!((b.score - expected).abs() < 1e-12, "score {}", b.score);
        assert!(b.crosstalk_pairs.is_empty());
    }

    #[test]
    fn sigma_inflates_one_hop_neighbours() {
        let dev = device();
        // Allocated link 3-4; candidate {0,1,2} has links 0-1, 1-2; link
        // 1-2 is one hop from 3-4 (via qubit 2-3 edge).
        let allocated = [Link::new(3, 4)];
        let none = efs(
            &dev,
            &[0, 1, 2],
            &stats(),
            &allocated,
            &CrosstalkTreatment::None,
        );
        let sigma = efs(
            &dev,
            &[0, 1, 2],
            &stats(),
            &allocated,
            &CrosstalkTreatment::Sigma(4.0),
        );
        assert!(sigma.score > none.score);
        assert_eq!(sigma.crosstalk_pairs.len(), 1);
        // Only link 1-2 is inflated: avg goes from 0.02 to (0.02 + 0.08)/2.
        assert!((sigma.avg_two_qubit_error - 0.05).abs() < 1e-12);
    }

    #[test]
    fn measured_treatment_uses_map() {
        let dev = device();
        let allocated = [Link::new(3, 4)];
        let pair = LinkPair::new(Link::new(1, 2), Link::new(3, 4));
        let mut map = BTreeMap::new();
        map.insert(pair, 6.0);
        let measured = efs(
            &dev,
            &[0, 1, 2],
            &stats(),
            &allocated,
            &CrosstalkTreatment::Measured(map),
        );
        assert!((measured.avg_two_qubit_error - (0.02 + 0.12) / 2.0).abs() < 1e-12);
        // Unmeasured pairs default to 1.
        let empty = efs(
            &dev,
            &[0, 1, 2],
            &stats(),
            &allocated,
            &CrosstalkTreatment::Measured(BTreeMap::new()),
        );
        assert!((empty.avg_two_qubit_error - 0.02).abs() < 1e-12);
    }

    #[test]
    fn shared_qubit_links_are_not_crosstalk_pairs() {
        // Allocated link 2-3: candidate link 1-2 shares qubit 2 with it —
        // a resource conflict, not a crosstalk pair — while candidate
        // link 0-1 is exactly one hop away and is inflated.
        let dev = device();
        let b = efs(
            &dev,
            &[0, 1, 2],
            &stats(),
            &[Link::new(2, 3)],
            &CrosstalkTreatment::Sigma(4.0),
        );
        assert_eq!(b.crosstalk_pairs.len(), 1);
        let pair = b.crosstalk_pairs[0];
        assert_eq!(pair, LinkPair::new(Link::new(0, 1), Link::new(2, 3)));
        // Only 0-1 inflated: avg = (0.08 + 0.02) / 2.
        assert!((b.avg_two_qubit_error - 0.05).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_partition_has_no_two_qubit_term() {
        let dev = device();
        let s = CircuitStats {
            two_qubit: 0,
            single_qubit: 5,
        };
        let b = efs(&dev, &[4], &s, &[], &CrosstalkTreatment::None);
        assert!((b.score - (4e-4 * 5.0 + 0.03)).abs() < 1e-12);
        assert_eq!(b.avg_two_qubit_error, 0.0);
    }

    #[test]
    fn bad_readout_region_scores_worse() {
        let dev = device();
        let mut cal = dev.calibration().clone();
        cal.set_readout_error(5, 0.2);
        let dev = dev.with_state(cal, dev.crosstalk().clone());
        let good = efs(&dev, &[0, 1, 2], &stats(), &[], &CrosstalkTreatment::None);
        let bad = efs(&dev, &[3, 4, 5], &stats(), &[], &CrosstalkTreatment::None);
        assert!(bad.score > good.score);
    }

    #[test]
    fn treatment_factor_defaults() {
        let pair = LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        assert_eq!(CrosstalkTreatment::None.factor(pair), 1.0);
        assert_eq!(CrosstalkTreatment::Sigma(4.0).factor(pair), 4.0);
        assert_eq!(
            CrosstalkTreatment::Measured(BTreeMap::new()).factor(pair),
            1.0
        );
    }
}
