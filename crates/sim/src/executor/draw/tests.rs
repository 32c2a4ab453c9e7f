//! The draw tables against the `rand` draws they were taken from:
//! same outcome, same words consumed, on both sides of every threshold.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::super::{gate_threshold, idle_cumulative, idle_thresholds, readout_threshold};
use super::{gate_errs, idle_pauli, readout_flips};

/// A scripted word source that counts what it hands out.
struct Words {
    words: Vec<u64>,
    taken: usize,
}

impl RngCore for Words {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.taken += 1;
        self.words[self.taken - 1]
    }
}

/// Runs `draw` on a one-word script; returns its outcome and the words
/// it consumed.
fn on_word<T>(word: u64, draw: impl FnOnce(&mut Words) -> T) -> (T, usize) {
    let mut rng = Words {
        words: vec![word],
        taken: 0,
    };
    let out = draw(&mut rng);
    (out, rng.taken)
}

/// Probabilities with their fixed-point thresholds `⌊p · 2^64⌋`: zero,
/// one whose threshold rounds to zero, the smallest with a nonzero
/// threshold, the gate-error cap, and the largest below one.
const BELOW_ONE: [(f64, u64); 5] = [
    (0.0, 0),
    (1e-25, 0),
    (1.0 / (2.0 * (1u64 << 63) as f64), 1),
    (0.75, 3 << 62),
    (1.0 - 1.0 / (1u64 << 53) as f64, u64::MAX - ((1 << 11) - 1)),
];

/// Words on both sides of `threshold`, and the ends of the range.
fn around(threshold: u64) -> Vec<u64> {
    let near = [
        threshold.wrapping_sub(1),
        threshold,
        threshold.wrapping_add(1),
    ];
    near.into_iter().chain([0, 1, 1 << 63, u64::MAX]).collect()
}

#[test]
fn gate_thresholds_draw_what_the_bernoulli_draws() {
    for (p, threshold) in BELOW_ONE {
        // A gate that cannot err draws nothing; every other gate draws
        // one word, even when its threshold is zero.
        let expected = (p > 0.0).then_some(threshold);
        assert_eq!(gate_threshold(p), expected, "p = {p:e}");
        for word in around(threshold) {
            assert_eq!(
                on_word(word, |rng| gate_errs(gate_threshold(p), rng)),
                on_word(word, |rng| p > 0.0 && rng.gen_bool(p)),
                "p = {p:e}, word {word:#x}"
            );
        }
    }
}

#[test]
fn readout_thresholds_draw_what_the_bernoulli_draws() {
    for (p, threshold) in BELOW_ONE {
        // Zero included: a word is consumed, and is never below 0.
        assert_eq!(readout_threshold(p), Some(threshold), "p = {p:e}");
        for word in around(threshold) {
            let table = on_word(word, |rng| readout_flips(readout_threshold(p), rng));
            assert_eq!(table, on_word(word, |rng| rng.gen_bool(p)), "p = {p:e}");
            assert_eq!(table.1, 1);
        }
    }
    // A certain flip consumes nothing.
    assert_eq!(readout_threshold(1.0), None);
    let table = on_word(7, |rng| readout_flips(readout_threshold(1.0), rng));
    assert_eq!(table, on_word(7, |rng| rng.gen_bool(1.0)));
    assert_eq!(table, (true, 0));
}

#[test]
#[should_panic(expected = "outside range")]
fn a_readout_error_above_one_is_refused_as_the_bernoulli_refuses_it() {
    readout_threshold(1.5);
}

#[test]
fn idle_thresholds_split_the_uniforms_where_the_f64_compare_does() {
    // `gen::<f64>()` is `k · 2^-53` for a 53-bit `k`: on both sides of
    // each of the three cumulative boundaries, and at random, the
    // integer compare picks the Pauli the `f64` compare picks.
    let scale = 1.0 / (1u64 << 53) as f64;
    let mut rng = StdRng::seed_from_u64(0x1D7E);
    let mut windows = vec![
        (0.0, 0.0),
        (0.1, 0.3),
        (1e-9, 3e-10),
        (1e-300, 1e-300),
        (0.3, 0.0),
        (0.0, 0.3),
        (1.0, 1.0),
        (f64::NAN, 0.5),
        (0.5, f64::NAN),
        (-0.25, 0.5),
        (0.5, -0.9),
    ];
    windows.extend((0..200).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())));
    windows.extend((0..200).map(|_| (rng.gen::<f64>() * 1e-6, rng.gen::<f64>() * 1e-3)));
    let mut seen = [0usize; 4];
    for (relax_p, dephase_p) in windows {
        let thresholds = idle_thresholds(relax_p, dephase_p);
        let near = thresholds
            .into_iter()
            .flat_map(|t| (t.saturating_sub(2)..=t + 2).collect::<Vec<_>>());
        let random = (0..50).map(|_| rng.next_u64() >> 11);
        for k in near.chain(random).chain([0, (1 << 53) - 1]) {
            if k >= 1 << 53 {
                continue;
            }
            let expected = idle_pauli(k as f64 * scale, idle_cumulative(relax_p, dephase_p));
            assert_eq!(
                idle_pauli(k, thresholds),
                expected,
                "k = {k} of ({relax_p:e}, {dephase_p:e}) with {thresholds:?}"
            );
            seen[expected.map_or(0, usize::from)] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n > 100),
        "every Pauli and none: {seen:?}"
    );
}

#[test]
fn an_idle_draw_is_the_top_53_bits_of_one_word() {
    // The uniform the thresholds were derived for is the one `rand`
    // returns, and it costs one `u64`.
    let (mut uniform, mut word) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
    for _ in 0..1000 {
        let k = word.next_u64() >> 11;
        assert_eq!(uniform.gen::<f64>(), k as f64 / (1u64 << 53) as f64);
    }
    assert_eq!(uniform.next_u32(), word.next_u32());
}
