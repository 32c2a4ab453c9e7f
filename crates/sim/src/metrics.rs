//! Output-fidelity metrics of the paper: PST (Eq. 2), Jensen-Shannon
//! divergence (Eq. 3), Kullback-Leibler divergence (Eq. 4), plus total
//! variation distance and Hellinger fidelity used in ablations.

use crate::counts::Counts;

/// Probability of a Successful Trial (paper Eq. 2): the fraction of shots
/// that produced the expected bitstring of a deterministic circuit.
pub fn pst(counts: &Counts, expected: usize) -> f64 {
    counts.probability(expected)
}

/// Kullback-Leibler divergence `D(P‖Q)` (paper Eq. 4) in bits.
///
/// Terms with `p = 0` contribute zero; terms with `p > 0, q = 0` would be
/// infinite, which is why the paper prefers JSD — here they saturate to a
/// large finite value (`1e9`) to stay orderable.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    kl_terms(p.iter().copied().zip(q.iter().copied()))
}

/// The sum behind [`kl_divergence`] over `(p, q)` pairs in the order
/// given: the one place its terms and its saturation rule are written,
/// so the dense and the streaming JSD add the same floats.
fn kl_terms(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut acc = 0.0;
    for (pi, qi) in pairs {
        if pi > 0.0 {
            if qi > 0.0 {
                acc += pi * (pi / qi).log2();
            } else {
                return 1e9;
            }
        }
    }
    acc
}

/// Jensen-Shannon divergence (paper Eq. 3) in bits: always finite,
/// symmetric, and bounded by 1.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn jsd(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let m: Vec<f64> = p.iter().zip(q).map(|(&a, &b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// [`jsd`] of the empirical distribution of `counts` against the
/// distribution `q` looks up per outcome, streamed off the sparse
/// counts: the same terms in the same ascending outcome order as
/// `jsd(&counts.distribution(), q)` — bit for bit the same value —
/// without the dense vector and without the mixture vector.
/// `D(P‖M)` has a term per recorded outcome only (an absent outcome
/// has `p = 0`); `D(Q‖M)` walks every outcome with the counts merged in.
pub fn jsd_counts(counts: &Counts, q: impl Fn(usize) -> f64) -> f64 {
    // Empty counts have no entry, so this divisor is never zero where
    // it is used.
    let shots = counts.shots() as f64;
    let mixed = |p: f64, q: f64| 0.5 * (p + q);
    let from_p = kl_terms(counts.iter().map(|(outcome, c)| {
        let p = c as f64 / shots;
        (p, mixed(p, q(outcome)))
    }));
    let mut recorded = counts.iter().peekable();
    let from_q = kl_terms((0..1usize << counts.width()).map(|outcome| {
        let qi = q(outcome);
        let p = match recorded.next_if(|&(recorded, _)| recorded == outcome) {
            Some((_, c)) => c as f64 / shots,
            None => 0.0,
        };
        (qi, mixed(p, qi))
    }));
    0.5 * from_p + 0.5 * from_q
}

/// Total variation distance `½ Σ |p - q|`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn tvd(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// Hellinger fidelity `(Σ √(p·q))²` — 1 for identical distributions.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hellinger_fidelity(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let bc: f64 = p.iter().zip(q).map(|(&a, &b)| (a * b).sqrt()).sum();
    bc * bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pst_from_counts() {
        let mut c = Counts::new(2);
        c.record(0b11);
        c.record(0b11);
        c.record(0b01);
        c.record(0b00);
        assert!((pst(&c, 0b11) - 0.5).abs() < 1e-12);
        assert_eq!(pst(&c, 0b10), 0.0);
    }

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-15);
    }

    #[test]
    fn kl_positive_and_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let d1 = kl_divergence(&p, &q);
        let d2 = kl_divergence(&q, &p);
        assert!(d1 > 0.0);
        assert!(d2 > 0.0);
        assert!((d1 - d2).abs() > 1e-6);
    }

    #[test]
    fn kl_saturates_on_missing_support() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert_eq!(kl_divergence(&p, &q), 1e9);
    }

    #[test]
    fn jsd_bounds() {
        // Identical → 0.
        let p = [0.5, 0.5];
        assert!(jsd(&p, &p).abs() < 1e-15);
        // Disjoint support → 1 bit.
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((jsd(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jsd_symmetric() {
        let p = [0.7, 0.2, 0.1, 0.0];
        let q = [0.25, 0.25, 0.25, 0.25];
        assert!((jsd(&p, &q) - jsd(&q, &p)).abs() < 1e-15);
        let v = jsd(&p, &q);
        assert!(v > 0.0 && v < 1.0);
    }

    /// An ideal distribution with exact zeros (a deterministic
    /// circuit's has one non-zero entry) and counts over a few outcomes
    /// — none at all in one case out of five — some of them where the
    /// ideal is zero.
    fn arb_counts_and_ideal() -> impl Strategy<Value = (Counts, Vec<f64>)> {
        (1..=5usize).prop_flat_map(|width| {
            let dim = 1usize << width;
            let ideal = proptest::collection::vec((0..3u8, 0.0..1.0f64), dim).prop_map(|cells| {
                let weights: Vec<f64> = cells
                    .iter()
                    .map(|&(kind, w)| if kind == 0 { 0.0 } else { w })
                    .collect();
                let total: f64 = weights.iter().sum();
                if total > 0.0 {
                    weights.iter().map(|w| w / total).collect()
                } else {
                    weights
                }
            });
            let entries = proptest::collection::vec((0..dim, 1..500usize), 0..8);
            (0..5u8, entries, ideal).prop_map(move |(empty, entries, ideal)| {
                let mut counts = Counts::new(width);
                if empty != 0 {
                    for (outcome, n) in entries {
                        counts.record_many(outcome, n);
                    }
                }
                (counts, ideal)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_jsd_is_the_dense_jsd_bit_for_bit(case in arb_counts_and_ideal()) {
            let (counts, ideal) = case;
            prop_assert_eq!(
                jsd_counts(&counts, |o| ideal[o]).to_bits(),
                jsd(&counts.distribution(), &ideal).to_bits()
            );
        }
    }

    /// The saturation rule is the dense one's too: an ideal that is
    /// negative where a shot landed makes the mixture non-positive.
    #[test]
    fn streaming_jsd_saturates_where_the_dense_jsd_does() {
        let mut counts = Counts::new(1);
        counts.record(0);
        for ideal in [[-1.0, 2.0], [-3.0, 4.0], [f64::NAN, 1.0], [0.0, 1.0]] {
            assert_eq!(
                jsd_counts(&counts, |o| ideal[o]).to_bits(),
                jsd(&counts.distribution(), &ideal).to_bits(),
                "{ideal:?}"
            );
        }
    }

    #[test]
    fn tvd_properties() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((tvd(&p, &q) - 1.0).abs() < 1e-15);
        assert!(tvd(&p, &p).abs() < 1e-15);
        let r = [0.5, 0.5];
        assert!((tvd(&p, &r) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn hellinger_bounds() {
        let p = [0.5, 0.5];
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!(hellinger_fidelity(&a, &b).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        jsd(&[0.5, 0.5], &[1.0]);
    }
}
