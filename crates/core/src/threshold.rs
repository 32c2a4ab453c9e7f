//! The fidelity-threshold mechanism of Sec. IV-B: trading hardware
//! throughput against output fidelity.
//!
//! QuCP estimates, from EFS alone (no execution), how much fidelity a
//! parallel workload would lose compared to running each circuit
//! independently on the best partition. A user-supplied threshold on
//! that difference then determines how many copies run simultaneously —
//! the mechanism behind the paper's Fig. 4.

use qucp_circuit::Circuit;
use qucp_device::Device;

use crate::error::CoreError;
use crate::partition::{allocate_partitions, Allocation};
use crate::strategy::Strategy;

/// The EFS-estimated fidelity difference of running `k` copies in
/// parallel versus one copy independently.
///
/// Independent execution uses the single best partition (EFS `E₁`);
/// parallel execution allocates `k` disjoint partitions and suffers the
/// mean EFS `E̅ₖ`. The difference `E̅ₖ − E₁ ≥ 0` grows as the allocator is
/// pushed into worse regions of the chip.
///
/// # Errors
///
/// Propagates partition failures when even a single copy does not fit.
pub fn efs_difference(
    device: &Device,
    circuit: &Circuit,
    k: usize,
    strategy: &Strategy,
) -> Result<f64, CoreError> {
    copies_difference(k, &mut |k| allocated_copies(device, circuit, strategy, k))
}

/// The largest `k ≤ k_max` whose EFS difference stays within
/// `threshold`. A threshold of zero admits exactly one circuit (the
/// paper: "when the fidelity threshold is zero … only one circuit is
/// executed each time").
///
/// # Errors
///
/// Propagates partition failures when even a single copy does not fit.
pub fn parallel_count_for_threshold(
    device: &Device,
    circuit: &Circuit,
    threshold: f64,
    k_max: usize,
    strategy: &Strategy,
) -> Result<usize, CoreError> {
    let mean_score = |k| allocated_copies(device, circuit, strategy, k);
    copies_within_threshold(threshold, k_max, mean_score)
}

/// The Fig. 4 rule on any source of allocations: from one copy, admits
/// `k = 2, 3, …, k_max` while the EFS difference of `k` copies stays
/// within `threshold`; stops at the first `k` over it or whose copies do
/// not fit. `mean_score(k)` is the [`mean_efs_score`] of `k` copies
/// allocated together: [`parallel_count_for_threshold`] allocates them,
/// the runtime's head-only gate reads them from its plan memo.
///
/// # Errors
///
/// Any planning error but [`CoreError::PartitionUnavailable`].
pub fn copies_within_threshold(
    threshold: f64,
    k_max: usize,
    mut mean_score: impl FnMut(usize) -> Result<f64, CoreError>,
) -> Result<usize, CoreError> {
    let mut best_k = 1;
    for k in 2..=k_max {
        match copies_difference(k, &mut mean_score) {
            Ok(diff) if diff <= threshold => best_k = k,
            Ok(_) => break,
            Err(CoreError::PartitionUnavailable { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(best_k)
}

/// The mean EFS score of a joint allocation (`E̅ₖ` of its `k` programs).
pub fn mean_efs_score(allocations: &[Allocation]) -> f64 {
    allocations.iter().map(|a| a.efs.score).sum::<f64>() / allocations.len() as f64
}

/// `E̅ₖ − E₁`, clamped at zero.
fn copies_difference(
    k: usize,
    mean_score: &mut impl FnMut(usize) -> Result<f64, CoreError>,
) -> Result<f64, CoreError> {
    let best = mean_score(1)?;
    Ok((mean_score(k)? - best).max(0.0))
}

/// The mean EFS score of `k` copies of `circuit`, allocated afresh.
fn allocated_copies(
    device: &Device,
    circuit: &Circuit,
    strategy: &Strategy,
    k: usize,
) -> Result<f64, CoreError> {
    let allocations = allocate_partitions(device, &vec![circuit; k], &strategy.partition)?;
    Ok(mean_efs_score(&allocations))
}

/// Per-member EFS excess of running a **heterogeneous** batch together
/// versus each member alone on its best partition.
///
/// Entry `i` is `Eᵢ(batch) − Eᵢ(solo)`, clamped at zero: how much worse
/// member `i`'s allocated partition scores when it has to share the
/// chip with the rest of the batch. Unlike [`efs_difference`], which
/// replicates a single circuit `k` times (the paper's homogeneous
/// Fig. 4 experiment), this evaluates the *actual* batch members, so a
/// runtime admission gate can enforce each job's own fidelity
/// tolerance.
///
/// # Errors
///
/// Propagates partition failures when the batch (or any member alone)
/// does not fit.
pub fn batch_efs_excesses(
    device: &Device,
    circuits: &[&Circuit],
    strategy: &Strategy,
) -> Result<Vec<f64>, CoreError> {
    let joint = allocate_partitions(device, circuits, &strategy.partition)?;
    let solo = solo_efs_scores(device, circuits, strategy)?;
    let mut excesses = vec![0.0; circuits.len()];
    for alloc in &joint {
        excesses[alloc.program_index] = (alloc.efs.score - solo[alloc.program_index]).max(0.0);
    }
    Ok(excesses)
}

/// The solo-best EFS score of every circuit: what each would pay on its
/// preferred partition with the chip to itself. Replicated copies (same
/// gates on the same width, whatever their names) share one allocation
/// probe, so a homogeneous batch costs a single probe. Callers that
/// already hold a joint allocation (e.g. the runtime's batch fidelity
/// gate) combine these with its per-member scores instead of paying
/// [`batch_efs_excesses`]'s second joint allocation.
///
/// # Errors
///
/// Propagates partition failures when a member does not fit alone.
pub fn solo_efs_scores(
    device: &Device,
    circuits: &[&Circuit],
    strategy: &Strategy,
) -> Result<Vec<f64>, CoreError> {
    let mut scores: Vec<Option<f64>> = vec![None; circuits.len()];
    for i in 0..circuits.len() {
        if scores[i].is_some() {
            continue;
        }
        let solo = allocate_partitions(device, &[circuits[i]], &strategy.partition)?;
        let score = solo[0].efs.score;
        for (j, c) in circuits.iter().enumerate().skip(i) {
            if scores[j].is_none()
                && c.width() == circuits[i].width()
                && c.gates() == circuits[i].gates()
            {
                scores[j] = Some(score);
            }
        }
    }
    Ok(scores
        .into_iter()
        .map(|s| s.expect("score filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy;
    use crate::{ParallelConfig, Pipeline};
    use qucp_circuit::library;
    use qucp_device::ibm;
    use qucp_sim::ExecutionConfig;

    #[test]
    fn efs_difference_grows_with_copies() {
        let dev = ibm::manhattan();
        let c = library::by_name("4mod5-v1_22").unwrap().circuit();
        let s = strategy::qucp(4.0);
        let d2 = efs_difference(&dev, &c, 2, &s).unwrap();
        let d4 = efs_difference(&dev, &c, 4, &s).unwrap();
        let d6 = efs_difference(&dev, &c, 6, &s).unwrap();
        assert!(d2 >= 0.0);
        assert!(d4 >= d2 - 1e-12);
        assert!(d6 >= d4 - 1e-12, "d6 {d6} < d4 {d4}");
    }

    #[test]
    fn zero_threshold_admits_one() {
        let dev = ibm::manhattan();
        let c = library::by_name("4mod5-v1_22").unwrap().circuit();
        let k = parallel_count_for_threshold(&dev, &c, 0.0, 6, &strategy::qucp(4.0)).unwrap();
        assert_eq!(k, 1);
    }

    #[test]
    fn huge_threshold_admits_max() {
        let dev = ibm::manhattan();
        let c = library::by_name("4mod5-v1_22").unwrap().circuit();
        let k = parallel_count_for_threshold(&dev, &c, 1e9, 6, &strategy::qucp(4.0)).unwrap();
        assert_eq!(k, 6);
    }

    #[test]
    fn admitted_count_is_monotone_in_threshold() {
        let dev = ibm::manhattan();
        let c = library::by_name("alu-v0_27").unwrap().circuit();
        let s = strategy::qucp(4.0);
        let mut last = 0;
        for t in [0.0, 0.05, 0.1, 0.2, 0.5, 2.0] {
            let k = parallel_count_for_threshold(&dev, &c, t, 6, &s).unwrap();
            assert!(k >= last, "k not monotone at threshold {t}");
            last = k;
        }
    }

    #[test]
    fn batch_excess_is_zero_for_singleton_and_grows_with_pressure() {
        let dev = ibm::toronto();
        let a = library::by_name("fredkin").unwrap().circuit();
        let b = library::by_name("alu-v0_27").unwrap().circuit();
        let s = strategy::qucp(4.0);
        let solo = batch_efs_excesses(&dev, &[&a], &s).unwrap();
        assert_eq!(solo, vec![0.0]);
        // Four copies of the same circuit compete for the same best
        // region, so at least one member must pay an excess.
        let crowded = batch_efs_excesses(&dev, &[&a, &a, &a, &a], &s).unwrap();
        assert_eq!(crowded.len(), 4);
        assert!(crowded.iter().all(|&e| e >= 0.0));
        assert!(crowded.iter().sum::<f64>() > 0.0);
        // Heterogeneous pair: one non-negative excess per member.
        let pair = batch_efs_excesses(&dev, &[&a, &b], &s).unwrap();
        assert_eq!(pair.len(), 2);
        assert!(pair.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn batch_difference_matches_homogeneous_difference() {
        // On a homogeneous batch the per-member mean equals the
        // replicated-copy estimate of `efs_difference`.
        let dev = ibm::manhattan();
        let c = library::by_name("4mod5-v1_22").unwrap().circuit();
        let s = strategy::qucp(4.0);
        let excesses = batch_efs_excesses(&dev, &[&c, &c, &c], &s).unwrap();
        let batch = excesses.iter().sum::<f64>() / 3.0;
        let homog = efs_difference(&dev, &c, 3, &s).unwrap();
        assert!((batch - homog).abs() < 1e-12, "batch {batch} vs {homog}");
    }

    #[test]
    fn sweep_reports_throughput_growth() {
        // What the Fig. 4 sweep does at each threshold: execute the
        // admitted number of copies (the service's head-only gate does
        // this per batch; `qucp-bench`'s `repro fig4` prints it).
        let dev = ibm::manhattan();
        let c = library::by_name("4mod5-v1_22").unwrap().circuit();
        let s = strategy::qucp(4.0);
        let cfg = ParallelConfig {
            execution: ExecutionConfig::default().with_shots(256),
            optimize: true,
        };
        let points: Vec<_> = [0.0, 1e9]
            .iter()
            .map(|&threshold| {
                let k = parallel_count_for_threshold(&dev, &c, threshold, 4, &s).unwrap();
                let copies = vec![c.clone(); k];
                let out = Pipeline::from_strategy(&s)
                    .execute(&dev, &copies, &cfg)
                    .unwrap();
                (k, out)
            })
            .collect();
        assert_eq!(points[0].0, 1);
        assert_eq!(points[1].0, 4);
        assert!(points[1].1.throughput > points[0].1.throughput);
        assert!(points[0].1.mean_pst().is_some());
    }
}
