//! The draw tables against the `rand` draws they were taken from:
//! same outcome, same words consumed, on both sides of every threshold;
//! the lane screen against the scalar fold; the carried sort key
//! against the slice order.

use std::cmp::Ordering;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::super::evaluate::sort_by_pattern;
use super::super::{
    gate_threshold, idle_cumulative, idle_thresholds, readout_threshold, strip_bound, Event, Strip,
};
use super::{
    event_error, gate_errs, idle_pauli, pack, readout_flips, replay_outcome, scalar_screen,
    screen_events, screen_scalar, sort_key, unpack, Ahead, ErrorKey, ErrorShot, Screen,
    ScreenLanes, AHEAD_HALVES, LANE_WORDS, SCREEN_WORDS, UNTYPED,
};

/// Runs `check` on the screen body this CPU picks, then on the scalar
/// fold, and asserts that both return the same.
fn on_both_screens<T: PartialEq + std::fmt::Debug>(check: impl Fn() -> T) -> T {
    let picked = check();
    let scalar = scalar_screen(check);
    assert_eq!(picked, scalar, "both screen bodies");
    scalar
}

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

/// An event of the kind `build_plan` makes: a gate of error probability
/// `p`, or an idle window of `(relax_p, dephase_p)`.
#[derive(Clone, Copy, Debug)]
enum Spec {
    Gate(f64),
    Idle(f64, f64),
}

fn event(spec: Spec) -> Event {
    match spec {
        Spec::Gate(p) => Event::Gate {
            index: 0,
            error_p: p,
            threshold: gate_threshold(p),
        },
        Spec::Idle(relax_p, dephase_p) => Event::Idle {
            q: 0,
            relax_p,
            dephase_p,
            thresholds: idle_thresholds(relax_p, dephase_p),
        },
    }
}

/// Draws `shots` shots' event errors, outcome uniforms and readout
/// masks through the strip, read ahead from one generator, and through
/// one `rand` draw per event and per qubit from another — from `skip`
/// halves into the same stream — and asserts the same errors, uniforms
/// and masks and the same position after every shot. Returns how many
/// shots drew an error.
fn strip_matches_the_per_event_draw(
    specs: &[Spec],
    readout_p: &[f64],
    shots: usize,
    skip: usize,
) -> usize {
    let events: Vec<Event> = specs.iter().copied().map(event).collect();
    let strip = Strip::compile(&events, readout_p, true);
    let mut screened = StdRng::seed_from_u64(0x5781_9000 + skip as u64);
    for _ in 0..skip {
        screened.next_u32();
    }
    let mut per_event = screened.clone();
    let mut ahead = Ahead::new(|halves: &mut [u32]| screened.fill_u32(halves));
    let mut with_errors = 0;
    for shot in 0..shots {
        let mut errors: Vec<ErrorKey> = Vec::new();
        screen_events(&events, strip.events(), &mut ahead, &mut errors);
        let (u, mask) = replay_outcome(&strip, &mut ahead);

        let mut expected = Vec::new();
        for (pos, &spec) in specs.iter().enumerate() {
            let code = match spec {
                Spec::Gate(p) => (p > 0.0 && per_event.gen_bool(p)).then_some(UNTYPED),
                Spec::Idle(relax_p, dephase_p) => {
                    idle_pauli(per_event.gen::<f64>(), idle_cumulative(relax_p, dephase_p))
                }
            };
            expected.extend(code.map(|code| pack(pos, code)));
        }
        let expected_u: f64 = per_event.gen();
        let expected_mask = readout_p
            .iter()
            .enumerate()
            .filter(|&(_, &p)| per_event.gen_bool(p))
            .fold(0, |mask, (q, _)| mask | 1 << q);

        assert_eq!(
            (&errors, u.to_bits(), mask),
            (&expected, expected_u.to_bits(), expected_mask),
            "shot {shot}"
        );
        assert_eq!(ahead.next_u32(), per_event.next_u32(), "shot {shot}");
        with_errors += usize::from(!errors.is_empty());
    }
    with_errors
}

#[test]
fn the_strip_draws_what_one_draw_per_event_draws() {
    // A noise-free gate draws no word; a gate of threshold 0 draws one
    // and never errs; an idle window whose largest threshold is 2^53
    // errs on every word; readout errors of 0 (a word, never a flip)
    // and 1 (a flip, no word). Each beside quiet events, so that a
    // chunk without them is screened out.
    let certain = (1.0, 1.0);
    assert_eq!(idle_thresholds(certain.0, certain.1)[2], 1 << 53);
    assert_eq!(gate_threshold(1e-25), Some(0));
    let quiet = [Spec::Gate(1e-3), Spec::Idle(1e-4, 2e-4)];
    let cases: [(Spec, &[f64]); 5] = [
        (Spec::Gate(0.0), &[0.01]),
        (Spec::Gate(1e-25), &[0.01]),
        (Spec::Idle(certain.0, certain.1), &[0.01]),
        (Spec::Gate(1e-3), &[0.0, 1.0, 0.02]),
        (Spec::Gate(0.3), &[1.0]),
    ];
    on_both_screens(|| {
        for (case, &(spec, readout_p)) in cases.iter().enumerate() {
            for len in [1, 5, SCREEN_WORDS - 1, SCREEN_WORDS + 3, 3 * SCREEN_WORDS] {
                let mut specs: Vec<Spec> = quiet.iter().copied().cycle().take(len).collect();
                specs.insert(len / 2, spec);
                let errs = strip_matches_the_per_event_draw(&specs, readout_p, 64, case);
                if matches!(spec, Spec::Idle(..)) {
                    assert_eq!(errs, 64, "the certain window errs in every shot");
                }
            }
        }
        // Only noise-free gates (no event word at all), and no events.
        strip_matches_the_per_event_draw(&[Spec::Gate(0.0); 7], &[0.5], 16, 0);
        strip_matches_the_per_event_draw(&[], &[0.5, 0.0], 16, 0);
    });
}

#[test]
fn a_shot_whose_words_straddle_a_refill_draws_what_one_draw_per_event_draws() {
    // 37 event words and two readout words a shot: shot after shot,
    // from every offset into the first sixteen-block refill (odd ones
    // included), the shots cross the end of a refill at every position
    // inside a shot, screened chunks and walked ones alike.
    let specs: Vec<Spec> = (0..37)
        .map(|i| match i % 3 {
            0 => Spec::Gate(4e-3),
            1 => Spec::Idle(2e-3, 6e-3),
            _ => Spec::Gate(1e-3),
        })
        .collect();
    let with_errors = on_both_screens(|| {
        (0..256)
            .map(|skip| strip_matches_the_per_event_draw(&specs, &[0.03, 0.05], 12, skip))
            .sum::<usize>()
    });
    // Both sides of the screen were taken.
    assert!(
        (100..256 * 12 - 100).contains(&with_errors),
        "{with_errors}"
    );
}

/// The halves of `words`, each low half first, as the generator hands
/// them out.
fn halves_of(words: &[u64]) -> Vec<u32> {
    words
        .iter()
        .flat_map(|&w| [w as u32, (w >> 32) as u32])
        .collect()
}

/// Screens one shot's scripted `words` against the strip of `specs`,
/// on the lane screen and on the scalar fold, and asserts the errors
/// and the words consumed of one [`event_error`] per event on the same
/// script. Returns the errors.
fn screened_as_per_event(specs: &[Spec], words: &[u64]) -> Vec<ErrorKey> {
    let events: Vec<Event> = specs.iter().copied().map(event).collect();
    let strip = Strip::compile(&events, &[], false);
    assert_eq!(
        strip.events().len(),
        words.len(),
        "one word per drawing event"
    );
    let screen_once = || {
        // The script runs on past the shot's words: the stream is read
        // ahead.
        let mut script = halves_of(words)
            .into_iter()
            .chain(std::iter::repeat(0x5A5A_5A5A));
        let mut read = 0;
        let mut ahead = Ahead::new(|dest: &mut [u32]| {
            dest.iter_mut()
                .for_each(|h| *h = script.next().expect("endless"));
            read += dest.len();
        });
        let mut screened = Vec::new();
        screen_events(&events, strip.events(), &mut ahead, &mut screened);
        let unread = AHEAD_HALVES - ahead.at;
        assert_eq!(read - unread, 2 * words.len(), "every word handed out");
        screened
    };
    let screened = on_both_screens(screen_once);

    let mut per_event = Words {
        words: words.to_vec(),
        taken: 0,
    };
    let mut expected = Vec::new();
    for (pos, &ev) in events.iter().enumerate() {
        expected.extend(event_error(ev, &mut per_event).map(|code| pack(pos, code)));
    }
    assert_eq!(per_event.taken, words.len(), "the same words consumed");
    assert_eq!(screened, expected, "{specs:?} on {words:x?}");
    screened
}

/// The bound of `spec`'s event in the strip.
fn bound(spec: Spec) -> u64 {
    strip_bound(&event(spec)).expect("the event draws a word")
}

#[test]
fn the_screen_tests_only_candidates_and_finds_every_error() {
    // Two chunks of quiet gates; every word above its bound except at
    // positions 0, 17, 63 (first chunk) and 64, 100 (second). Position
    // 17 holds its bound exactly (inclusive: it errs), 40 the word just
    // above (no candidate, no error), 0 and 64 the word 0.
    let quiet = Spec::Gate(1e-3);
    let specs = vec![quiet; 130];
    let mut words = vec![u64::MAX; 130];
    words[0] = 0;
    words[17] = bound(quiet);
    words[40] = bound(quiet) + 1;
    words[63] = bound(quiet) / 2;
    words[64] = 0;
    words[100] = bound(quiet);
    let errs = screened_as_per_event(&specs, &words);
    let at: Vec<usize> = errs.iter().map(|&key| unpack(key).0).collect();
    assert_eq!(at, [0, 17, 63, 64, 100]);
}

#[test]
fn an_idle_word_at_its_inclusive_bound_errs_and_one_above_does_not() {
    for idle in [
        Spec::Idle(2e-3, 6e-3),
        Spec::Idle(0.3, 0.1),
        Spec::Idle(1.0, 1.0),
    ] {
        let specs = [Spec::Gate(1e-3), idle, Spec::Gate(1e-3)];
        let b = bound(idle);
        let errs = screened_as_per_event(&specs, &[u64::MAX, b, u64::MAX]);
        assert_eq!(errs.len(), 1, "{idle:?} at its bound");
        if let Some(above) = b.checked_add(1) {
            assert!(screened_as_per_event(&specs, &[u64::MAX, above, u64::MAX]).is_empty());
        }
    }
}

#[test]
fn a_candidate_that_does_not_err() {
    // A NaN or negative dephasing zeroes `thresholds[2]`: with no
    // relaxation every threshold is 0, the bound is 0, and the word 0 is
    // a candidate on which nothing errs — as a gate of threshold 0. With
    // relaxation the bound comes from the Y threshold, and the Z slot
    // that NaN emptied never errs.
    for dephase in [f64::NAN, -0.9] {
        let zeroed = Spec::Idle(0.0, dephase);
        assert_eq!(idle_thresholds(0.0, dephase), [0; 3]);
        assert_eq!(bound(zeroed), 0);
        let specs = [zeroed, Spec::Gate(1e-25), zeroed];
        assert!(screened_as_per_event(&specs, &[0, 0, 0]).is_empty());

        let relaxing = Spec::Idle(0.2, dephase);
        assert_eq!(idle_thresholds(0.2, dephase)[2], 0);
        let b = bound(relaxing);
        let specs = [relaxing; 3];
        assert_eq!(screened_as_per_event(&specs, &[b, b + 1, 0]).len(), 2);
    }
}

#[test]
fn a_strip_where_a_gate_draws_no_word_walks_every_event() {
    // The noise-free gates draw nothing, so the words shift against the
    // events; the screen walks each chunk on the words it read.
    let quiet = Spec::Gate(1e-3);
    let mut specs = vec![quiet; 70];
    specs[3] = Spec::Gate(0.0);
    specs[66] = Spec::Gate(0.0);
    specs[10] = Spec::Idle(0.3, f64::NAN);
    let mut words = vec![u64::MAX; 68];
    words[0] = 0;
    words[9] = 0;
    words[63] = bound(quiet);
    words[67] = 0;
    let errs = screened_as_per_event(&specs, &words);
    let at: Vec<usize> = errs.iter().map(|&key| unpack(key).0).collect();
    assert_eq!(at, [0, 10, 64, 69]);
}

/// A bound worth screening against: the ends of the range, their
/// neighbours, the middle, and random ones of every magnitude.
fn boundary_bound(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        4 => 1 << 63,
        5 => rng.next_u64() >> rng.gen_range(0..64u32),
        _ => rng.next_u64(),
    }
}

/// A word beside `bound`: on it, on either side, at the ends, or
/// anywhere.
fn word_near(bound: u64, rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..7u32) {
        0 | 1 => bound,
        2 => bound.wrapping_sub(1),
        3 => bound.wrapping_add(1),
        4 => 0,
        5 => u64::MAX,
        _ => rng.next_u64(),
    }
}

#[test]
fn the_lane_screen_equals_the_scalar_fold() {
    // Every chunk length 0..=64, each word starting on an even half and
    // on an odd one (as after a `next_u32`), on words at, beside and
    // away from bounds that include 0 and u64::MAX: both masks of both
    // bodies are the plain per-word comparisons.
    let lanes = ScreenLanes::detect();
    if lanes.is_none() {
        eprintln!("skipped the lanes: this CPU has no AVX-512F lane body");
    }
    let mut rng = StdRng::seed_from_u64(0x05C4_EE17);
    for len in 0..=SCREEN_WORDS {
        for offset in [0, 1] {
            for _ in 0..24 {
                let bounds: Vec<u64> = (0..len).map(|_| boundary_bound(&mut rng)).collect();
                let words: Vec<u64> = bounds.iter().map(|&b| word_near(b, &mut rng)).collect();
                let mut halves = vec![0xDEAD_BEEF; offset];
                halves.extend(halves_of(&words));
                halves.push(0xFEED_F00D);
                let halves = &halves[offset..];
                let bits = |hit: fn(u64, u64) -> bool| {
                    let each = words.iter().zip(&bounds).enumerate();
                    each.fold(0u64, |mask, (k, (&w, &b))| mask | u64::from(hit(w, b)) << k)
                };
                let (at_most, below) = (bits(|w, b| w <= b), bits(|w, b| w < b));
                let what = format!("{len} words from half {offset}");
                assert_eq!(screen_scalar::<false>(halves, &bounds), at_most, "{what}");
                assert_eq!(screen_scalar::<true>(halves, &bounds), below, "{what}");
                if let Some(lanes) = lanes {
                    assert_eq!(lanes.screen::<false>(halves, &bounds), at_most, "{what}");
                    assert_eq!(lanes.screen::<true>(halves, &bounds), below, "{what}");
                }
                // The dispatch, on both sides of the short-strip cut.
                for screen in [Screen(None), Screen(lanes)] {
                    assert_eq!(screen.mask::<false>(halves, &bounds), at_most, "{what}");
                    assert_eq!(screen.mask::<true>(halves, &bounds), below, "{what}");
                }
            }
        }
    }
    const {
        assert!(
            LANE_WORDS > 0 && LANE_WORDS < SCREEN_WORDS,
            "lengths 0..=64 cross the cut"
        )
    };
}

/// Draws `shots` outcome uniforms and readout masks of `strip` through
/// the bulk read, read ahead from one generator, and through
/// `gen::<f64>()` and one `gen_bool` per qubit (none with readout noise
/// off) from another — from `skip` halves into the same stream — and
/// asserts the same uniforms, masks and positions after every shot.
fn outcome_matches_the_per_qubit_draw(readout_p: &[f64], noise: bool, shots: usize, skip: usize) {
    let strip = Strip::compile(&[], readout_p, noise);
    let mut bulk = StdRng::seed_from_u64(0x0B1C_0000 + skip as u64);
    for _ in 0..skip {
        bulk.next_u32();
    }
    let mut per_qubit = bulk.clone();
    let mut ahead = Ahead::new(|halves: &mut [u32]| bulk.fill_u32(halves));
    for shot in 0..shots {
        let (u, mask) = replay_outcome(&strip, &mut ahead);
        let expected_u: f64 = per_qubit.gen();
        let mut expected_mask = 0;
        for (q, &p) in readout_p.iter().enumerate().filter(|_| noise) {
            expected_mask |= usize::from(per_qubit.gen_bool(p)) << q;
        }
        let what = format!("shot {shot} of {readout_p:?}, noise {noise}, skip {skip}");
        assert_eq!(
            (u.to_bits(), mask),
            (expected_u.to_bits(), expected_mask),
            "{what}"
        );
        assert_eq!(ahead.next_u32(), per_qubit.next_u32(), "{what}");
    }
}

#[test]
fn the_bulk_outcome_read_draws_what_the_per_qubit_draw_draws() {
    // Readout noise off, readouts of 0 (a word, never a flip) and 1 (a
    // flip, no word: the per-qubit path), mixed, and 1-32 random
    // qubits; from every offset into a refill, odd ones included, so
    // that shots straddle the read-ahead's refills.
    let mut rng = StdRng::seed_from_u64(0x0B1C);
    let mut cases: Vec<Vec<f64>> = vec![vec![], vec![0.0], vec![1.0], vec![0.03, 1.0, 0.0]];
    cases.extend((1..=32).map(|width| (0..width).map(|_| rng.gen::<f64>() * 0.2).collect()));
    on_both_screens(|| {
        for readout_p in &cases {
            for noise in [true, false] {
                for skip in [0, 1, 2, 7, 100, 255, 256, 257] {
                    outcome_matches_the_per_qubit_draw(readout_p, noise, 40, skip);
                }
            }
        }
    });
    // On both sides of every readout threshold, scripted: a bit flips
    // iff its word is below its threshold, as `gen_bool` says.
    for (p, threshold) in BELOW_ONE {
        let strip = Strip::compile(&[], &[p, 0.5], true);
        for word in around(threshold) {
            let (u, mask) = on_both_screens(|| {
                let script = halves_of(&[7 << 11, word, u64::MAX]);
                let mut script = script.into_iter().chain(std::iter::repeat(0));
                let mut ahead = Ahead::new(|dest: &mut [u32]| {
                    dest.iter_mut()
                        .for_each(|h| *h = script.next().expect("endless"));
                });
                let (u, mask) = replay_outcome(&strip, &mut ahead);
                (u.to_bits(), mask)
            });
            let expected = on_word(word, |rng| rng.gen_bool(p)).0;
            assert_eq!(u, (7.0 / (1u64 << 53) as f64).to_bits());
            assert_eq!(mask, usize::from(expected), "p = {p:e}, word {word:#x}");
        }
    }
}

#[test]
fn an_error_shot_is_four_words() {
    // The carried key took the shot from 24 to 32 bytes: the join
    // buffers of an 8 192-shot run on eight qubits whose every shot
    // errs, with room for their patterns, stay well inside the bytes a
    // thread keeps (`a_warm_run_requests_only_its_histogram` holds a
    // warm GHZ-8 run to its histogram).
    assert_eq!(std::mem::size_of::<ErrorShot>(), 32);
}

/// The comparator the evaluator sorted with before the draw carried
/// each shot's key: the first two keys packed from the arena, then the
/// keys from the third on.
fn arena_order(patterns: &[ErrorKey], a: &ErrorShot, b: &ErrorShot) -> Ordering {
    let pattern = |shot: &ErrorShot| &patterns[shot.start..shot.start + shot.len as usize];
    let head = |shot: &ErrorShot| {
        let second = u64::from(patterns.get(shot.start + 1).copied().unwrap_or(0));
        let present = u64::from(shot.len > 1).wrapping_neg();
        u64::from(patterns[shot.start]) << 32 | second & present
    };
    let tail = |shot: &ErrorShot| &pattern(shot)[(shot.len as usize).min(2)..];
    head(a).cmp(&head(b)).then_with(|| tail(a).cmp(tail(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_carried_key_orders_patterns_as_the_slices_do(
        drawn in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 1u8..=3), 1..=4),
            1..48,
        ),
    ) {
        // Keys from an alphabet of nine, lengths 1-4: ties in the first
        // two keys, in whole patterns and across lengths are common.
        let mut arena: Vec<ErrorKey> = Vec::new();
        let mut shots = Vec::new();
        for (i, pattern) in drawn.iter().enumerate() {
            let start = arena.len();
            arena.extend(pattern.iter().map(|&(pos, code)| pack(pos, code)));
            shots.push(ErrorShot {
                u: i as f64,
                key: sort_key(&arena[start..]),
                start,
                len: pattern.len() as u32,
                mask: i as u32,
            });
        }
        let patterns_of = |shots: &[ErrorShot]| -> Vec<Vec<ErrorKey>> {
            shots.iter().map(|s| arena[s.start..s.start + s.len as usize].to_vec()).collect()
        };
        let mut sorted = patterns_of(&shots);
        sorted.sort();
        let mut before = shots.clone();
        before.sort_unstable_by(|a, b| arena_order(&arena, a, b));
        sort_by_pattern(&mut shots, &arena);
        prop_assert_eq!(patterns_of(&shots), sorted.clone());
        prop_assert_eq!(patterns_of(&before), sorted);
    }
}
