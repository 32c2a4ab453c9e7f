//! Measurement count accumulation and observable estimation.

use std::fmt;

/// Accumulated measurement outcomes of a circuit execution.
///
/// Outcomes are basis-state indices in the little-endian convention of
/// [`crate::Statevector`] (bit `q` of the index is qubit `q`).
///
/// **Representation.** One vector of `(outcome, count)` entries, in
/// ascending outcome order with no zero count — the canonical form
/// that [`Counts::iter`] yields and that equality compares — plus the
/// register width and the shot total. What each operation costs, for
/// `k` distinct outcomes:
///
/// - a clone is one heap request (none when empty), however many
///   outcomes it holds; [`Counts::iter`], [`Counts::len`],
///   [`Counts::shots`], [`Counts::expectation_z`] and the `Display`
///   rendering walk the entries and request nothing (bar the
///   rendered text);
/// - [`Counts::count`] and [`Counts::probability`] are a binary search;
/// - [`Counts::record`] and [`Counts::record_many`] are a binary search
///   plus, for an outcome not yet recorded, an insertion that shifts
///   the later entries — O(k), amortized growth. A simulator run does
///   not record through them: it tallies its shots in the vector it
///   returns, O(1) a shot, and a returned histogram's capacity is at
///   most twice its entries;
/// - [`Counts::merge`] appends the other side's entries (at most one
///   heap request) and brings them into order in place;
/// - [`Counts::relabel`] rewrites the outcomes in place, and sorts and
///   adds up only when the new outcomes are out of order or meet;
/// - [`Counts::from_entries`] validates and keeps the entries it is
///   handed (a `Vec` is kept as it is, sorted in place if it must be);
/// - [`Counts::distribution`] is the one dense vector, `2^width` long.
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
    /// `(outcome, count)`, ascending by outcome, every count above 0.
    entries: Vec<(usize, usize)>,
    shots: usize,
}

/// Panics unless `index` is an outcome of a `width`-qubit register.
fn check_range(index: usize, width: usize) {
    assert!(
        index < (1usize << width),
        "outcome {index} out of range for {width} qubits"
    );
}

/// Brings entries into canonical order: sorted by outcome (only if
/// they are not), then each run of equal outcomes added up into its
/// first entry — in place, no heap request.
fn coalesce(entries: &mut Vec<(usize, usize)>) {
    if !entries.is_sorted_by_key(|&(outcome, _)| outcome) {
        entries.sort_unstable_by_key(|&(outcome, _)| outcome);
    }
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

impl Counts {
    /// Empty counts for a `width`-qubit register.
    pub fn new(width: usize) -> Self {
        Counts {
            width,
            entries: Vec::new(),
            shots: 0,
        }
    }

    /// Rebuilds counts from `(outcome, count)` entries, e.g. decoded
    /// from a wire encoding of [`Counts::iter`]. Returns `None` — never
    /// panicking, unlike repeated [`Counts::record`] — when `width`
    /// exceeds the register sizes a `usize` outcome can index, an
    /// outcome is out of range or repeated, a count is zero, or the
    /// total shot count overflows. Entries may arrive in any order; the
    /// result is identical to recording each outcome `count` times.
    pub fn from_entries(
        width: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> Option<Self> {
        if width >= usize::BITS as usize {
            return None;
        }
        let mut entries: Vec<(usize, usize)> = entries.into_iter().collect();
        let mut shots = 0usize;
        for &(index, count) in &entries {
            // Zero counts are rejected too: recording never produces
            // them, so admitting one would break the canonical-form
            // equality `from_entries(width, c.iter()) == c`.
            if count == 0 || index >= (1usize << width) {
                return None;
            }
            shots = shots.checked_add(count)?;
        }
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            entries.sort_unstable_by_key(|&(outcome, _)| outcome);
            if entries.windows(2).any(|pair| pair[0].0 == pair[1].0) {
                return None;
            }
        }
        Some(Counts {
            width,
            entries,
            shots,
        })
    }

    /// Records one shot with outcome `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the register width.
    pub fn record(&mut self, index: usize) {
        self.record_many(index, 1);
    }

    /// Records `n` shots with outcome `index` in one search: the
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
        check_range(index, self.width);
        match self
            .entries
            .binary_search_by_key(&index, |&(outcome, _)| outcome)
        {
            Ok(at) => self.entries[at].1 += n,
            Err(at) => self.entries.insert(at, (index, n)),
        }
        self.shots += n;
    }

    /// Moves every recorded outcome `o` to `to(o)`, in place: the
    /// result is that of recording each entry's count at its new
    /// outcome with [`Counts::record_many`], so outcomes that meet add
    /// up. A permutation of the bits (what `qucp-core` undoes after
    /// routing) needs no heap request.
    ///
    /// # Panics
    ///
    /// Panics, like [`Counts::record_many`], if a new outcome does not
    /// fit in the register width.
    pub fn relabel(&mut self, mut to: impl FnMut(usize) -> usize) {
        for entry in &mut self.entries {
            entry.0 = to(entry.0);
            check_range(entry.0, self.width);
        }
        coalesce(&mut self.entries);
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
        self.entries
            .binary_search_by_key(&index, |&(outcome, _)| outcome)
            .map_or(0, |at| self.entries[at].1)
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
        for (idx, c) in self.iter() {
            v[idx] = c as f64 / self.shots as f64;
        }
        v
    }

    /// Number of distinct outcomes recorded — how many pairs
    /// [`Counts::iter`] yields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shot was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the vector has room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Iterates `(outcome, count)` pairs in ascending outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries.iter().copied()
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
        for (idx, c) in self.iter() {
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
        // Room for both sides at most doubles the union, which holds
        // the larger side.
        self.entries.reserve_exact(other.len());
        self.entries.extend_from_slice(&other.entries);
        coalesce(&mut self.entries);
        self.shots += other.shots;
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (idx, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.bitstring(idx), c)?;
        }
        write!(f, "}} ({} shots)", self.shots)
    }
}

/// A run's shots, tallied in the vector its [`Counts`] will own.
///
/// **Dense** when the register has no more outcomes than the tally has
/// shots to hold (`2^width ≤ shots`): entry `i` is `(i, count)`, and
/// [`Tally::into_counts`] drops the zero counts in place. **Sparse**
/// otherwise: one entry per recorded shot, appended into capacity
/// reserved for every shot, sorted and added up in place once at the
/// end. Either way a shot costs O(1) and shifts nothing, a tally holds
/// at most 16 bytes a shot, and the histogram it becomes keeps at most
/// twice its entries' capacity (a wide GHZ state's keeps 2 entries,
/// not one per shot).
#[derive(Debug)]
pub(crate) struct Tally {
    width: usize,
    dense: bool,
    entries: Vec<(usize, usize)>,
    shots: usize,
}

impl Tally {
    /// An empty tally with room for `shots` shots of a `width`-qubit
    /// register: one heap request (none for no shot).
    pub(crate) fn new(width: usize, shots: usize) -> Self {
        let dense = u32::try_from(width)
            .ok()
            .and_then(|width| 1usize.checked_shl(width))
            .is_some_and(|dim| dim <= shots);
        let entries = if dense {
            (0..1 << width).map(|outcome| (outcome, 0)).collect()
        } else {
            Vec::with_capacity(shots)
        };
        Tally {
            width,
            dense,
            entries,
            shots: 0,
        }
    }

    /// Records one shot with outcome `index` (in the register: the
    /// simulator's outcomes always are).
    pub(crate) fn record(&mut self, index: usize) {
        self.add(index, 1);
    }

    fn add(&mut self, index: usize, n: usize) {
        debug_assert!(index >> self.width == 0, "outcome {index} out of range");
        if self.dense {
            self.entries[index].1 += n;
        } else {
            self.entries.push((index, n));
        }
        self.shots += n;
    }

    /// Makes room, in one request, for `shots` more sparse entries.
    pub(crate) fn reserve(&mut self, shots: usize) {
        if !self.dense {
            self.entries.reserve_exact(shots);
        }
    }

    /// Adds the shots of `other`, a tally of the same register.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        debug_assert_eq!(self.width, other.width);
        for &(index, n) in &other.entries {
            if n > 0 {
                self.add(index, n);
            }
        }
    }

    /// The histogram, in this tally's vector: compacted (dense) or
    /// sorted and added up (sparse) in place, then shrunk if more than
    /// half of it would be spare.
    pub(crate) fn into_counts(self) -> Counts {
        let Tally {
            width,
            dense,
            mut entries,
            shots,
        } = self;
        if dense {
            entries.retain(|&(_, n)| n > 0);
        } else {
            coalesce(&mut entries);
        }
        if entries.capacity() > 2 * entries.len() {
            entries.shrink_to_fit();
        }
        Counts {
            width,
            entries,
            shots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The histogram `Counts` was before it became one vector: a tree
    /// of outcomes, each operation written as it was then.
    #[derive(Debug, Clone)]
    struct Oracle {
        width: usize,
        map: BTreeMap<usize, usize>,
        shots: usize,
    }

    impl Oracle {
        fn new(width: usize) -> Self {
            Oracle {
                width,
                map: BTreeMap::new(),
                shots: 0,
            }
        }

        fn record_many(&mut self, index: usize, n: usize) {
            if n > 0 {
                *self.map.entry(index).or_insert(0) += n;
                self.shots += n;
            }
        }

        fn merge(&mut self, other: &Oracle) {
            for (&index, &n) in &other.map {
                *self.map.entry(index).or_insert(0) += n;
            }
            self.shots += other.shots;
        }

        fn relabel(&self, to: impl Fn(usize) -> usize) -> Oracle {
            let mut out = Oracle::new(self.width);
            for (&index, &n) in &self.map {
                out.record_many(to(index), n);
            }
            out
        }

        fn distribution(&self) -> Vec<f64> {
            let mut v = vec![0.0; 1 << self.width];
            if self.shots > 0 {
                for (&index, &n) in &self.map {
                    v[index] = n as f64 / self.shots as f64;
                }
            }
            v
        }

        fn expectation_z(&self, mask: usize) -> f64 {
            if self.shots == 0 {
                return 0.0;
            }
            let mut acc = 0.0;
            for (&index, &n) in &self.map {
                let parity = (index & mask).count_ones() % 2;
                let sign = if parity == 0 { 1.0 } else { -1.0 };
                acc += sign * n as f64;
            }
            acc / self.shots as f64
        }

        fn display(&self, counts: &Counts) -> String {
            let entries: Vec<String> = (self.map.iter())
                .map(|(&index, n)| format!("{}: {n}", counts.bitstring(index)))
                .collect();
            format!("{{{}}} ({} shots)", entries.join(", "), self.shots)
        }
    }

    /// Every query of `counts` answers as the oracle's, bit for bit, and
    /// its vector holds at most twice its entries.
    fn assert_matches(counts: &Counts, oracle: &Oracle) -> Result<(), TestCaseError> {
        let entries: Vec<(usize, usize)> = oracle.map.iter().map(|(&o, &n)| (o, n)).collect();
        prop_assert_eq!(counts.iter().collect::<Vec<_>>(), entries);
        prop_assert_eq!(
            (
                counts.width(),
                counts.shots(),
                counts.len(),
                counts.is_empty()
            ),
            (
                oracle.width,
                oracle.shots,
                oracle.map.len(),
                oracle.map.is_empty()
            )
        );
        for index in 0..1 << oracle.width {
            prop_assert_eq!(
                counts.count(index),
                oracle.map.get(&index).copied().unwrap_or(0)
            );
            prop_assert_eq!(
                counts.expectation_z(index).to_bits(),
                oracle.expectation_z(index).to_bits()
            );
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(counts.distribution()), bits(oracle.distribution()));
        prop_assert_eq!(counts.to_string(), oracle.display(counts));
        prop_assert!(counts.entries.capacity() <= 2 * counts.len(), "{counts:?}");
        let clone = counts.clone();
        prop_assert_eq!(&clone, counts);
        prop_assert_eq!(clone.entries.capacity(), clone.len());
        Ok(())
    }

    /// A register width and `(outcome, n)` records for it, `n` possibly 0.
    fn arb_records() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..=6).prop_flat_map(|width| {
            let records = proptest::collection::vec((0..1usize << width, 0usize..40), 0..24);
            (Just(width), records)
        })
    }

    fn recorded(width: usize, records: &[(usize, usize)]) -> (Counts, Oracle) {
        let (mut counts, mut oracle) = (Counts::new(width), Oracle::new(width));
        for &(index, n) in records {
            if n == 1 {
                counts.record(index);
            } else {
                counts.record_many(index, n);
            }
            oracle.record_many(index, n);
        }
        // `record` grows the vector as a `Vec` grows; the bound is a
        // run's, so a recorded histogram is checked through a copy.
        (counts.clone(), oracle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recorded_counts_answer_as_the_tree_did(case in arb_records()) {
            let (width, records) = case;
            let (counts, oracle) = recorded(width, &records);
            assert_matches(&counts, &oracle)?;
        }

        #[test]
        fn merged_counts_answer_as_the_tree_did(
            case in arb_records(),
            other in proptest::collection::vec((0usize..64, 0usize..40), 0..24),
        ) {
            let (width, records) = case;
            let other: Vec<_> = other.into_iter().map(|(o, n)| (o >> (6 - width), n)).collect();
            let (mut counts, mut oracle) = recorded(width, &records);
            let (b, b_oracle) = recorded(width, &other);
            counts.merge(&b);
            oracle.merge(&b_oracle);
            assert_matches(&counts, &oracle)?;
        }

        /// Entries in any order rebuild the canonical form; a repeated
        /// outcome, a zero count, an outcome outside the register or an
        /// overflowing total is refused wherever it sits.
        #[test]
        fn entries_in_any_order_rebuild_the_tree(case in arb_records(), keys in proptest::collection::vec(0u64..u64::MAX, 24)) {
            let (width, records) = case;
            let (counts, oracle) = recorded(width, &records);
            let mut shuffled: Vec<(u64, (usize, usize))> = keys.iter().copied().zip(counts.iter()).collect();
            shuffled.sort_unstable();
            let entries: Vec<(usize, usize)> = shuffled.iter().map(|&(_, e)| e).collect();
            let rebuilt = Counts::from_entries(width, entries.clone());
            prop_assert_eq!(rebuilt.as_ref(), Some(&counts));
            assert_matches(&rebuilt.unwrap(), &oracle)?;
            let at = keys[0] as usize % (entries.len() + 1);
            let forged = |entry: (usize, usize)| {
                let mut forged = entries.clone();
                forged.insert(at, entry);
                Counts::from_entries(width, forged)
            };
            if let Some(&(outcome, _)) = entries.first() {
                prop_assert_eq!(forged((outcome, 1)), None);
                prop_assert_eq!(forged((outcome, usize::MAX)), None);
            }
            prop_assert_eq!(forged((1 << width, 1)), None);
            prop_assert_eq!(forged((keys[1] as usize % (1 << width), 0)), None);
        }

        /// The relabel is `record_many` at each entry's new outcome, for
        /// a bit permutation and for any map of outcomes (which merges).
        #[test]
        fn relabelled_counts_answer_as_the_tree_did(
            case in arb_records(),
            keys in proptest::collection::vec(0usize..64, 64),
        ) {
            let (width, records) = case;
            let (counts, oracle) = recorded(width, &records);
            let dim = 1usize << width;
            let any_map = |o: usize| keys[o] % dim;
            let mut order: Vec<usize> = (0..width).collect();
            order.sort_by_key(|&q| keys[q]);
            let permute = |o: usize| {
                (0..width).filter(|&q| o >> order[q] & 1 == 1).fold(0, |acc, q| acc | 1 << q)
            };
            let mut mapped = counts.clone();
            mapped.relabel(any_map);
            assert_matches(&mapped, &oracle.relabel(any_map))?;
            let mut permuted = counts.clone();
            let capacity = permuted.entries.capacity();
            permuted.relabel(permute);
            prop_assert_eq!(permuted.entries.capacity(), capacity);
            assert_matches(&permuted, &oracle.relabel(permute))?;
        }

        /// A tally is the tree in both regimes — more outcomes than
        /// shots and fewer — joined from tallies of either regime, and
        /// the histogram it becomes keeps at most twice its entries.
        #[test]
        fn tallies_answer_as_the_tree_did(
            width in 1usize..=7,
            outcomes in proptest::collection::vec(0usize..128, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..4),
        ) {
            let outcomes: Vec<usize> = outcomes.into_iter().map(|o| o >> (7 - width)).collect();
            let mut oracle = Oracle::new(width);
            outcomes.iter().for_each(|&o| oracle.record_many(o, 1));
            let mut one = Tally::new(width, outcomes.len());
            outcomes.iter().for_each(|&o| one.record(o));
            assert_matches(&one.into_counts(), &oracle)?;
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (outcomes.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(outcomes.len());
            let mut parts = Vec::new();
            let mut from = 0;
            for to in cuts {
                let mut part = Tally::new(width, to - from);
                outcomes[from..to].iter().for_each(|&o| part.record(o));
                parts.push(part);
                from = to;
            }
            let mut joined = parts.remove(0);
            joined.reserve(parts.iter().map(|p| p.shots).sum());
            parts.iter().for_each(|part| joined.absorb(part));
            assert_matches(&joined.into_counts(), &oracle)?;
        }
    }

    #[test]
    fn a_tally_is_dense_where_the_register_fits_its_shots() {
        assert!(Tally::new(2, 4).dense);
        assert!(!Tally::new(3, 4).dense);
        assert!(!Tally::new(64, 0).dense);
        assert_eq!(Tally::new(5, 0).into_counts(), Counts::new(5));
        // A wide GHZ state's two outcomes keep two entries' bytes.
        let mut ghz = Tally::new(20, 8192);
        (0..8192).for_each(|shot| ghz.record(if shot % 3 == 0 { 0 } else { (1 << 20) - 1 }));
        let counts = ghz.into_counts();
        assert_eq!(
            counts.iter().collect::<Vec<_>>(),
            [(0, 2731), ((1 << 20) - 1, 5461)]
        );
        assert_eq!(counts.entries.capacity(), 2);
    }
}
