//! O(1) outcome sampling via Walker/Vose alias tables.
//!
//! [`Statevector::sample`](crate::Statevector::sample) walks the dense
//! probability CDF linearly — O(2^n) per shot. That walk is pinned
//! bit-for-bit by every tuned-seed test, so it cannot change; but the
//! paths that are *not* bit-pinned to it (the [`SurvivalSkip`] clean and
//! single-error shots) sample one distribution many times per job,
//! and for those an [`AliasTable`] answers each draw in constant time.
//! The clean-shot table is built once per prepared job; a
//! single-error table is built by the trajectory evaluator, once per
//! distinct `(position, Pauli)` pattern of a run, at the tree node
//! whose final state it samples — no stream keeps a table cache, and
//! the evaluator rebuilds its one table in place
//! ([`AliasTable::rebuild`]) instead of requesting five vectors a node.
//!
//! One `f64` uniform per sample: the draw is split into a bucket index
//! (the integer part of `u · n`) and an intra-bucket coin (the
//! fractional part), so RNG-draw counts stay auditable — exactly one
//! stream advance per outcome, same as the linear walk it replaces.
//!
//! [`SurvivalSkip`]: crate::TrajectoryKernel::SurvivalSkip

use std::mem::size_of;

/// A Walker/Vose alias table over a finite outcome distribution.
///
/// Construction is O(n) and deterministic (index-ordered worklists, no
/// RNG, no float comparators beyond the `< 1.0` bucket classification),
/// sampling is O(1). Outcomes with exactly zero probability are never
/// returned.
///
/// The default table is over no outcome yet: [`AliasTable::rebuild`] it
/// before the first sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct AliasTable {
    /// Per-bucket acceptance threshold for the intra-bucket coin.
    prob: Vec<f64>,
    /// Per-bucket alternative outcome when the coin rejects.
    alias: Vec<u32>,
}

/// The worklists of one [`AliasTable::rebuild`]: kept between rebuilds
/// so a caller that builds a table per tree node requests their memory
/// once.
#[derive(Debug, Clone, Default)]
pub(crate) struct AliasScratch {
    scaled: Vec<f64>,
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from outcome weights (need not be normalized).
    ///
    /// Degenerate inputs — an all-zero, NaN-summing or infinite-summing
    /// weight vector — fall back to the uniform distribution rather
    /// than producing a table that can never accept.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty (there is no outcome to sample).
    pub fn from_probabilities(weights: &[f64]) -> Self {
        let mut table = AliasTable::default();
        table.rebuild(weights, &mut AliasScratch::default());
        table
    }

    /// Makes this the table [`AliasTable::from_probabilities`] builds
    /// from `weights` — the same construction in the same order, so
    /// [`AliasTable::sample`] answers every draw alike — in the buffers
    /// the table and `scratch` already hold.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty (there is no outcome to sample).
    pub fn rebuild(&mut self, weights: &[f64], scratch: &mut AliasScratch) {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one outcome");
        let total: f64 = weights.iter().sum();
        let (prob, alias) = (&mut self.prob, &mut self.alias);
        prob.clear();
        prob.resize(n, 1.0f64);
        alias.clear();
        alias.extend(0..n as u32);
        if total > 0.0 && total.is_finite() {
            let AliasScratch {
                scaled,
                small,
                large,
            } = scratch;
            scaled.clear();
            scaled.extend(weights.iter().map(|&w| w * n as f64 / total));
            // Index-ordered worklists keep the construction a pure
            // function of the input.
            small.clear();
            large.clear();
            for (i, &s) in scaled.iter().enumerate() {
                if s < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
                prob[s as usize] = scaled[s as usize];
                alias[s as usize] = l;
                scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                if scaled[l as usize] < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
            // Leftover buckets (floating-point residue) stay
            // self-aliased with threshold 1.
        }
    }

    /// Maps one uniform draw `u ∈ [0, 1)` to an outcome index: bucket
    /// `⌊u·n⌋`, accepted against the fractional part.
    pub fn sample(&self, u: f64) -> usize {
        let n = self.prob.len();
        let scaled = u * n as f64;
        let i = (scaled as usize).min(n - 1);
        let coin = scaled - i as f64;
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Samples one outcome, advancing `rng` by exactly one `f64` draw.
    #[cfg(test)]
    pub fn sample_with(&self, rng: &mut impl rand::Rng) -> usize {
        self.sample(rng.gen())
    }

    /// Heap bytes the table holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.prob.capacity() * size_of::<f64>() + self.alias.capacity() * size_of::<u32>()
    }
}

impl AliasScratch {
    /// Heap bytes the worklists hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.scaled.capacity() * size_of::<f64>()
            + (self.small.capacity() + self.large.capacity()) * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Statevector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_distribution_always_returns_the_outcome() {
        let table = AliasTable::from_probabilities(&[0.0, 0.0, 1.0, 0.0]);
        for k in 0..1000 {
            let u = k as f64 / 1000.0;
            assert_eq!(table.sample(u), 2, "u = {u}");
        }
    }

    #[test]
    fn zero_probability_outcomes_are_never_sampled() {
        let table = AliasTable::from_probabilities(&[0.5, 0.0, 0.25, 0.25]);
        for k in 0..10_000 {
            let u = k as f64 / 10_000.0;
            assert_ne!(table.sample(u), 1, "u = {u}");
        }
    }

    #[test]
    fn exhaustive_grid_recovers_the_distribution() {
        // A fine uniform grid over u reproduces each probability to the
        // grid resolution: the alias decomposition conserves mass.
        let p = [0.1, 0.4, 0.2, 0.3];
        let table = AliasTable::from_probabilities(&p);
        let grid = 400_000usize;
        let mut hits = [0usize; 4];
        for k in 0..grid {
            hits[table.sample((k as f64 + 0.5) / grid as f64)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            let freq = h as f64 / grid as f64;
            assert!(
                (freq - p[i]).abs() < 1e-4,
                "outcome {i}: {freq} vs {}",
                p[i]
            );
        }
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        let a = AliasTable::from_probabilities(&[1.0, 3.0]);
        let b = AliasTable::from_probabilities(&[0.25, 0.75]);
        for k in 0..1000 {
            let u = k as f64 / 1000.0;
            assert_eq!(a.sample(u), b.sample(u));
        }
    }

    /// The construction as it was written before tables could be
    /// rebuilt in place (five fresh vectors per table), kept as the
    /// oracle of [`AliasTable::rebuild`].
    fn fresh_vectors_table(weights: &[f64]) -> AliasTable {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        if total > 0.0 && total.is_finite() {
            let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
            let mut small: Vec<u32> = Vec::new();
            let mut large: Vec<u32> = Vec::new();
            for (i, &s) in scaled.iter().enumerate() {
                if s < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
                prob[s as usize] = scaled[s as usize];
                alias[s as usize] = l;
                scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                if scaled[l as usize] < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
        }
        AliasTable { prob, alias }
    }

    /// A rebuilt table is the freshly built one, whatever it and the
    /// scratch held before: longer, shorter and degenerate weights in a
    /// row through one table.
    #[test]
    fn rebuild_equals_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut table = AliasTable::default();
        let mut scratch = AliasScratch::default();
        for round in 0..200 {
            let n = 1usize << rng.gen_range(0..6u32);
            let mut weights: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen() })
                .collect();
            if round % 17 == 0 {
                weights.fill(0.0);
            }
            table.rebuild(&weights, &mut scratch);
            let fresh = fresh_vectors_table(&weights);
            assert_eq!(table, fresh, "round {round}: {weights:?}");
            assert_eq!(AliasTable::from_probabilities(&weights), fresh);
            for k in 0..64 {
                let u = k as f64 / 64.0;
                assert_eq!(table.sample(u), fresh.sample(u));
            }
        }
    }

    #[test]
    fn degenerate_weights_fall_back_to_uniform() {
        for weights in [
            vec![0.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![f64::INFINITY, 1.0],
        ] {
            let table = AliasTable::from_probabilities(&weights);
            assert_eq!(table.sample(0.0), 0, "{weights:?}");
            assert_eq!(table.sample(0.999), 1, "{weights:?}");
        }
    }

    #[test]
    fn single_outcome_table() {
        let table = AliasTable::from_probabilities(&[1.0]);
        assert_eq!(table.sample(0.0), 0);
        assert_eq!(table.sample(0.999_999), 0);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        let _ = AliasTable::from_probabilities(&[]);
    }

    #[test]
    fn statevector_table_matches_probabilities() {
        let mut c = qucp_circuit::Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = Statevector::from_circuit(&c);
        let table = AliasTable::from_probabilities(&sv.probabilities());
        let mut rng = StdRng::seed_from_u64(7);
        let shots = 40_000;
        let mut hits = [0usize; 4];
        for _ in 0..shots {
            hits[table.sample_with(&mut rng)] += 1;
        }
        assert_eq!(hits[1] + hits[2], 0, "bell never yields 01/10");
        let frac = hits[0] as f64 / shots as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }
}
