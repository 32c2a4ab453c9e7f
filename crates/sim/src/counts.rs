//! Measurement count accumulation and observable estimation.

use std::collections::BTreeMap;
use std::fmt;

/// Accumulated measurement outcomes of a circuit execution.
///
/// Outcomes are basis-state indices in the little-endian convention of
/// [`crate::Statevector`] (bit `q` of the index is qubit `q`).
///
/// ```
/// use qucp_sim::Counts;
/// let mut counts = Counts::new(2);
/// counts.record(0b00);
/// counts.record(0b11);
/// counts.record(0b11);
/// assert_eq!(counts.shots(), 3);
/// assert!((counts.probability(0b11) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(counts.bitstring(0b01), "10"); // qubit 0 first
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    width: usize,
    map: BTreeMap<usize, usize>,
    shots: usize,
}

impl Counts {
    /// Empty counts for a `width`-qubit register.
    pub fn new(width: usize) -> Self {
        Counts {
            width,
            map: BTreeMap::new(),
            shots: 0,
        }
    }

    /// Rebuilds counts from `(outcome, count)` entries, e.g. decoded
    /// from a wire encoding of [`Counts::iter`]. Returns `None` — never
    /// panicking, unlike repeated [`Counts::record`] — when `width`
    /// exceeds the register sizes a `usize` outcome can index, an
    /// outcome is out of range or repeated, or the total shot count
    /// overflows. Entries may arrive in any order; the result is
    /// identical to recording each outcome `count` times.
    pub fn from_entries(
        width: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> Option<Self> {
        if width >= usize::BITS as usize {
            return None;
        }
        let mut counts = Counts::new(width);
        for (index, count) in entries {
            // Zero counts are rejected too: recording never produces
            // them, so admitting one would break the canonical-form
            // equality `from_entries(width, c.iter()) == c`.
            if count == 0 || index >= (1usize << width) {
                return None;
            }
            if counts.map.insert(index, count).is_some() {
                return None;
            }
            counts.shots = counts.shots.checked_add(count)?;
        }
        Some(counts)
    }

    /// Records one shot with outcome `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the register width.
    pub fn record(&mut self, index: usize) {
        self.record_many(index, 1);
    }

    /// Records `n` shots with outcome `index` in one map walk: the
    /// result is that of calling [`Counts::record`] `n` times, so
    /// `n == 0` records nothing (no entry, no range check).
    ///
    /// # Panics
    ///
    /// Panics, like [`Counts::record`], if `n > 0` and `index` does not
    /// fit in the register width.
    pub fn record_many(&mut self, index: usize, n: usize) {
        if n == 0 {
            return;
        }
        assert!(
            index < (1usize << self.width),
            "outcome {index} out of range for {} qubits",
            self.width
        );
        *self.map.entry(index).or_insert(0) += n;
        self.shots += n;
    }

    /// Register width in qubits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of shots recorded.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Count of a particular outcome.
    pub fn count(&self, index: usize) -> usize {
        self.map.get(&index).copied().unwrap_or(0)
    }

    /// Empirical probability of an outcome.
    pub fn probability(&self, index: usize) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.count(index) as f64 / self.shots as f64
        }
    }

    /// The empirical distribution as a dense vector of length `2^width`.
    pub fn distribution(&self) -> Vec<f64> {
        let mut v = vec![0.0; 1 << self.width];
        if self.shots == 0 {
            return v;
        }
        for (&idx, &c) in &self.map {
            v[idx] = c as f64 / self.shots as f64;
        }
        v
    }

    /// Number of distinct outcomes recorded — how many pairs
    /// [`Counts::iter`] yields.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no shot was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(outcome, count)` pairs in ascending outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders an outcome as a bitstring with **qubit 0 first**.
    pub fn bitstring(&self, index: usize) -> String {
        (0..self.width)
            .map(|q| if index >> q & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// Expectation value of a tensor of Pauli-Z operators on the qubits
    /// set in `mask` (e.g. `mask = 0b11` for ⟨Z₁Z₀⟩). Returns a value in
    /// `[-1, 1]`; the empty mask gives 1.
    pub fn expectation_z(&self, mask: usize) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (&idx, &c) in &self.map {
            let parity = (idx & mask).count_ones() % 2;
            let sign = if parity == 0 { 1.0 } else { -1.0 };
            acc += sign * c as f64;
        }
        acc / self.shots as f64
    }

    /// Merges another `Counts` of the same width into this one.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.width, other.width, "width mismatch in Counts::merge");
        for (&idx, &c) in &other.map {
            *self.map.entry(idx).or_insert(0) += c;
        }
        self.shots += other.shots;
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (&idx, &c)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.bitstring(idx), c)?;
        }
        write!(f, "}} ({} shots)", self.shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0);
        c.record(5);
        c.record(5);
        assert_eq!(c.shots(), 3);
        assert_eq!(c.count(5), 2);
        assert_eq!(c.count(1), 0);
        assert!((c.probability(5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        let mut c = Counts::new(2);
        c.record(4);
    }

    /// `record_many` is `record` repeated, zero counts included, and
    /// both agree with a tally kept by hand (`from_entries`, which
    /// records nothing itself, rebuilds the same canonical form).
    #[test]
    fn record_many_equals_the_looped_record() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let width = rng.gen_range(1..=5usize);
            let (mut many, mut looped) = (Counts::new(width), Counts::new(width));
            let mut tally = BTreeMap::new();
            for _ in 0..rng.gen_range(0..12usize) {
                let index = rng.gen_range(0..1usize << width);
                let n = rng.gen_range(0..40usize);
                many.record_many(index, n);
                (0..n).for_each(|_| looped.record(index));
                *tally.entry(index).or_insert(0) += n;
            }
            tally.retain(|_, n| *n > 0);
            assert_eq!(many, looped);
            assert_eq!(Counts::from_entries(width, tally), Some(many));
        }
        // Nothing recorded, nothing checked: the looped form never
        // reaches `record`'s range assertion either.
        let mut c = Counts::new(2);
        c.record_many(4, 0);
        assert_eq!(c, Counts::new(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_many_out_of_range_panics() {
        let mut c = Counts::new(2);
        c.record_many(4, 3);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut c = Counts::new(2);
        for idx in [0, 1, 1, 2, 3, 3, 3, 3] {
            c.record(idx);
        }
        let d = c.distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counts() {
        let c = Counts::new(2);
        assert_eq!(c.shots(), 0);
        assert_eq!(c.probability(0), 0.0);
        assert_eq!(c.expectation_z(0b11), 0.0);
        assert!(c.distribution().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn bitstring_is_little_endian() {
        let c = Counts::new(4);
        assert_eq!(c.bitstring(0b0001), "1000");
        assert_eq!(c.bitstring(0b1000), "0001");
        assert_eq!(c.bitstring(0b1010), "0101");
    }

    #[test]
    fn expectation_z_parity() {
        let mut c = Counts::new(2);
        // |00> and |11> have even parity on mask 0b11.
        c.record(0b00);
        c.record(0b11);
        assert!((c.expectation_z(0b11) - 1.0).abs() < 1e-12);
        // |01> flips sign for single-qubit mask on qubit 0.
        let mut c = Counts::new(2);
        c.record(0b01);
        assert!((c.expectation_z(0b01) + 1.0).abs() < 1e-12);
        assert!((c.expectation_z(0b10) - 1.0).abs() < 1e-12);
        // Empty mask: always +1.
        assert!((c.expectation_z(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(2);
        a.record(1);
        let mut b = Counts::new(2);
        b.record(1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.shots(), 3);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(2), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_width_mismatch_panics() {
        let mut a = Counts::new(2);
        let b = Counts::new(3);
        a.merge(&b);
    }

    #[test]
    fn display_contains_bitstrings() {
        let mut c = Counts::new(2);
        c.record(0b01);
        let s = c.to_string();
        assert!(s.contains("10: 1"), "{s}");
        assert!(s.contains("1 shots"));
    }

    #[test]
    fn iter_in_order() {
        let mut c = Counts::new(2);
        c.record(3);
        c.record(0);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (3, 1)]);
    }
}
