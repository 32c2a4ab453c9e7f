//! The draw pass: one sequential walk over a stream's `StdRng` fixes
//! everything random about every shot — the typed error pattern, the
//! outcome uniform and the readout flips — before any state is touched.
//!
//! A per-event or per-qubit draw is one random word compared with a
//! threshold the prepared job fixed (`super::gate_threshold`,
//! `super::idle_thresholds`, `super::readout_threshold`): the words
//! consumed and the patterns drawn are those of the Bernoulli and
//! uniform draws of `rand` the thresholds were taken from, and nothing
//! here converts a probability. `Replay` reads a shot's event words in
//! bulk and screens them against the prepared [`super::Strip`] before
//! it runs any of those comparisons.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::{idle_cumulative, random_pauli, Event, TrajectoryJob, TrajectoryKernel};
use crate::counts::Tally;

#[cfg(test)]
mod tests;

/// Words the `Replay` draw reads and screens at a time, in a buffer
/// its stream keeps.
const SCREEN_WORDS: usize = 64;

/// One error of a shot's pattern, packed `position · 16 + code` so that
/// patterns compare as plain integer slices: the event position (below
/// 2^28, `PreparedJob::run` checks) and the Pauli it suffers — 1–3 for
/// X/Y/Z on a one-qubit gate or an idle window, a 1–15 base-4 digit
/// pair on a two-qubit gate.
pub(super) type ErrorKey = u32;

fn pack(pos: usize, code: u8) -> ErrorKey {
    (pos as ErrorKey) << 4 | ErrorKey::from(code)
}

pub(super) fn unpack(key: ErrorKey) -> (usize, u8) {
    ((key >> 4) as usize, (key & 0xF) as u8)
}

/// Code of a `Replay` gate error whose type is not drawn yet (no typed
/// error carries it: Pauli codes start at 1).
const UNTYPED: u8 = 0;

/// A shot that drew at least one error, waiting for its state.
#[derive(Clone, Copy)]
pub(super) struct ErrorShot {
    /// The uniform that picks the outcome from the shot's final state.
    pub u: f64,
    /// Where the shot's pattern starts in the stream's arena.
    pub start: usize,
    /// Errors in the pattern (at least one), ascending by position.
    pub len: u32,
    /// Readout flips, XOR-ed onto the sampled outcome.
    pub mask: u32,
}

/// What the draw pass of one stream leaves behind.
pub(super) struct Drawn {
    /// The clean shots, resolved on the spot.
    pub counts: Tally,
    /// The error shots, in draw order.
    pub shots: Vec<ErrorShot>,
    /// The arena the error shots' patterns live in.
    pub patterns: Vec<ErrorKey>,
}

impl Drawn {
    /// Appends a later stream's draws: counts add up, the shots move
    /// behind this stream's with their patterns.
    pub(super) fn append(&mut self, later: Drawn) {
        self.counts.absorb(&later.counts);
        let base = self.patterns.len();
        self.patterns.extend_from_slice(&later.patterns);
        self.shots.extend(later.shots.iter().map(|shot| ErrorShot {
            start: shot.start + base,
            ..*shot
        }));
    }
}

/// The Pauli code an idle window's draw selects, if any: the first of
/// X, Y, Z (1–3) whose cumulative bound exceeds `draw` — a uniform
/// against the window's cumulative probabilities, or the 53 bits it was
/// made from against its integer thresholds.
fn idle_pauli<T: PartialOrd>(draw: T, cumulative: [T; 3]) -> Option<u8> {
    (1..=3)
        .zip(cumulative)
        .find_map(|(code, bound)| (draw < bound).then_some(code))
}

/// Whether a gate errs: never, and without a draw, when it has no
/// threshold (an error probability of zero); else iff the next word is
/// below it.
fn gate_errs(threshold: Option<u64>, rng: &mut impl RngCore) -> bool {
    threshold.is_some_and(|t| rng.next_u64() < t)
}

/// Whether a readout bit flips: always, and without a draw, when it has
/// no threshold (a flip probability of one); else iff the next word is
/// below it.
fn readout_flips(threshold: Option<u64>, rng: &mut impl RngCore) -> bool {
    threshold.is_none_or(|t| rng.next_u64() < t)
}

/// The readout flips of qubits `from..` as an XOR mask, one
/// [`readout_flips`] per qubit in order.
fn per_qubit_flips(
    thresholds: impl Iterator<Item = Option<u64>>,
    from: usize,
    rng: &mut impl RngCore,
) -> usize {
    let mut mask = 0;
    for (q, threshold) in thresholds.enumerate().skip(from) {
        if readout_flips(threshold, rng) {
            mask ^= 1 << q;
        }
    }
    mask
}

/// The exact per-event test: whether `ev` errs on the next word of
/// `rng` (a gate that cannot err draws none), as an idle window's Pauli
/// or an [`UNTYPED`] gate error.
fn event_error(ev: Event, rng: &mut impl RngCore) -> Option<u8> {
    match ev {
        Event::Gate { threshold, .. } => gate_errs(threshold, rng).then_some(UNTYPED),
        Event::Idle { thresholds, .. } => idle_pauli(rng.next_u64() >> 11, thresholds),
    }
}

/// Words already read from the generator, handed out again in order:
/// what [`event_error`] draws from on a screened chunk.
struct Reread<'a>(std::slice::Iter<'a, u64>);

impl RngCore for Reread<'_> {
    fn next_u32(&mut self) -> u32 {
        unreachable!("an event draws whole words")
    }

    fn next_u64(&mut self) -> u64 {
        *self
            .0
            .next()
            .expect("a chunk holds a word per word-drawing event")
    }
}

/// One shot's event draws under `Replay`: pushes onto `arena` every
/// error of `events` in stream order, gate errors [`UNTYPED`], from one
/// word per event that draws one — whose [`super::strip_bound`]s are
/// `bounds`.
///
/// The words are read [`SCREEN_WORDS`] at a time into `words` (`fill`
/// writes as many of the stream's next words as its slice holds) and
/// compared with their bounds into a mask, bit `k` set iff word `k` is
/// at or below its bound: only the events at set bits — the candidates —
/// go through [`event_error`], each on its own word, and a word above
/// its bound cannot make its event err. (When some gate draws no word,
/// a word's index is not its event's position, and every event of the
/// chunk is walked on the words read.) The words read, the errors and
/// the generator's position are those of one [`event_error`] per event.
fn screen_events(
    events: &[Event],
    bounds: &[u64],
    mut fill: impl FnMut(&mut [u64]),
    words: &mut [u64; SCREEN_WORDS],
    arena: &mut Vec<ErrorKey>,
) {
    let aligned = bounds.len() == events.len();
    let mut pos = 0;
    for bounds in bounds.chunks(SCREEN_WORDS) {
        let words = &mut words[..bounds.len()];
        fill(words);
        if !aligned {
            let mut reread = Reread(words.iter());
            while !reread.0.as_slice().is_empty() {
                if let Some(code) = event_error(events[pos], &mut reread) {
                    arena.push(pack(pos, code));
                }
                pos += 1;
            }
            continue;
        }
        let mut candidates = words
            .iter()
            .zip(bounds)
            .enumerate()
            .fold(0u64, |mask, (k, (w, b))| mask | u64::from(w <= b) << k);
        while candidates != 0 {
            let k = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if let Some(code) = event_error(events[pos + k], &mut Reread(words[k..=k].iter())) {
                arena.push(pack(pos + k, code));
            }
        }
        pos += words.len();
    }
}

/// Jumps from hit to hit through the prefix survival products `surv`
/// of `surv.len() - 1` independent chances: one uniform + binary search
/// per hit, one last uniform to certify the clean tail. With `target`
/// uniform on `(0, surv[from]]` the next hit sits where the prefix
/// first drops below it — `P(hit at i) = (surv[i] − surv[i+1]) /
/// surv[from]`, `P(none) = tail / surv[from]`, the per-chance Bernoulli
/// model given a clean prefix. Returns the position from which the
/// products have underflowed and the caller draws per chance, if any.
fn survival_jumps(
    surv: &[f64],
    rng: &mut StdRng,
    mut hit: impl FnMut(usize, &mut StdRng),
) -> Option<usize> {
    let chances = surv.len() - 1;
    let tail = surv[chances];
    let mut from = 0usize;
    while from < chances {
        let s_from = surv[from];
        if s_from <= f64::MIN_POSITIVE {
            return Some(from);
        }
        let u: f64 = rng.gen();
        let target = (1.0 - u) * s_from;
        if tail >= target {
            break;
        }
        let pos = from + surv[from + 1..].partition_point(|&s| s >= target);
        hit(pos, rng);
        from = pos + 1;
    }
    None
}

impl TrajectoryJob<'_> {
    /// Draws one sequential stream of `shots` trajectories from `seed`:
    /// per shot the kernel's error pattern, the outcome uniform, the
    /// readout flips. A clean shot is tallied at once, an error shot
    /// kept for [`TrajectoryJob::evaluate`], which tallies it into the
    /// same vector. Patterns are drawn straight into the arena; nothing
    /// but the tally is allocated before the first error.
    pub(super) fn draw(&self, shots: usize, seed: u64) -> Drawn {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = Tally::new(self.width, shots);
        let (mut errors, mut patterns) = (Vec::new(), Vec::new());
        let mut words = [0; SCREEN_WORDS];
        for left in (1..=shots).rev() {
            let start = patterns.len();
            match self.cfg.kernel {
                TrajectoryKernel::Replay => self.draw_replay(&mut rng, &mut words, &mut patterns),
                TrajectoryKernel::SurvivalSkip => self.draw_survival(&mut rng, &mut patterns),
            }
            let u: f64 = rng.gen();
            let mask = self.readout_mask(&mut rng);
            let len = patterns.len() - start;
            if len == 0 {
                let ideal = match self.tables {
                    Some(tables) => tables.alias.sample(u),
                    None => self.ideal.sample_at(u),
                };
                counts.record(ideal ^ mask);
                continue;
            }
            if errors.capacity() == 0 {
                // Both buffers are sized once, for what the later shots
                // should draw (a shot's errors ≤ min(Σ −ln(1 − p_e), events)).
                let clean = self.plan.clean;
                let mean = (-clean.ln()).min(self.plan.events.len() as f64);
                let later = (left - 1) as f64;
                errors.reserve_exact(1 + (later * (1.0 - clean)).ceil() as usize);
                patterns.reserve_exact((later * mean).ceil() as usize);
            }
            errors.push(ErrorShot {
                u,
                start,
                len: len as u32,
                mask: mask as u32,
            });
        }
        let shots = errors;
        Drawn {
            counts,
            shots,
            patterns,
        }
    }

    /// One [`event_error`] per event of `events[from..]` in stream
    /// order — a Bernoulli per noisy gate (one `u64` below the gate's
    /// threshold), one uniform per idle window (the top 53 bits of one
    /// `u64`; it also fixes the Pauli) — each gate error typed on the
    /// spot.
    fn draw_per_event(&self, from: usize, rng: &mut StdRng, arena: &mut Vec<ErrorKey>) {
        for (pos, &ev) in self.plan.events.iter().enumerate().skip(from) {
            let code = event_error(ev, rng).map(|code| match ev {
                Event::Gate { index, .. } => self.draw_gate_error_code(index as usize, rng),
                Event::Idle { .. } => code,
            });
            if let Some(code) = code {
                arena.push(pack(pos, code));
            }
        }
    }

    /// `Replay`'s pattern: one draw per event, screened in bulk
    /// ([`screen_events`]), then one type draw per *gate* error in
    /// ascending position.
    fn draw_replay(
        &self,
        rng: &mut StdRng,
        words: &mut [u64; SCREEN_WORDS],
        arena: &mut Vec<ErrorKey>,
    ) {
        let start = arena.len();
        let fill = |words: &mut [u64]| rng.fill_u64(words);
        screen_events(&self.plan.events, self.strip.events(), fill, words, arena);
        for key in &mut arena[start..] {
            let (pos, code) = unpack(*key);
            if code != UNTYPED {
                continue;
            }
            let Event::Gate { index, .. } = self.plan.events[pos] else {
                unreachable!("only gate errors wait for their type");
            };
            let code = if self.gates[index as usize].is_two_qubit() {
                // Uniform over the 15 non-identity two-qubit Paulis,
                // drawn as a `usize`: the vendored sampler consumes the
                // stream differently per integer width, and this is the
                // width the pinned Replay stream has always drawn
                // (SurvivalSkip's is `i32`, see `draw_gate_error_code`).
                rng.gen_range(1..16usize) as u8
            } else {
                random_pauli(rng)
            };
            *key = pack(pos, code);
        }
    }

    /// `SurvivalSkip`'s pattern: jump from error to error through the
    /// event survival products, drawing each error's Pauli on the spot;
    /// once the products underflow (pathologically long or noisy streams
    /// only) the rest is drawn per event. [`TrajectoryJob::draw_replay`]'s
    /// distribution, another RNG stream.
    fn draw_survival(&self, rng: &mut StdRng, arena: &mut Vec<ErrorKey>) {
        let tables = self.tables.expect("SurvivalSkip runs with its tables");
        let underflow = survival_jumps(&tables.events, rng, |pos, rng| {
            let code = match self.plan.events[pos] {
                Event::Gate { index, .. } => self.draw_gate_error_code(index as usize, rng),
                Event::Idle {
                    relax_p, dephase_p, ..
                } => {
                    // The Pauli conditioned on the window erroring;
                    // rounding can land the scaled draw on the total,
                    // which is a Z like everything past X and Y.
                    let cumulative = idle_cumulative(relax_p, dephase_p);
                    idle_pauli(rng.gen::<f64>() * cumulative[2], cumulative).unwrap_or(3)
                }
            };
            arena.push(pack(pos, code));
        });
        if let Some(from) = underflow {
            self.draw_per_event(from, rng, arena);
        }
    }

    /// The Pauli code of a `SurvivalSkip` error at gate `index`: uniform
    /// over X/Y/Z or over the 15 non-identity two-qubit Paulis — drawn
    /// as an `i32`, the width this kernel's pinned stream always used.
    fn draw_gate_error_code(&self, index: usize, rng: &mut StdRng) -> u8 {
        if self.gates[index].is_two_qubit() {
            rng.gen_range(1..16i32) as u8
        } else {
            random_pauli(rng)
        }
    }

    /// The readout flips of one shot as an XOR mask over the measured
    /// bits: `SurvivalSkip` jumps from flipped bit to flipped bit through
    /// its readout survival products — typically one uniform per shot;
    /// `Replay`, and both past an underflow, draw a Bernoulli per qubit
    /// (a certain flip draws nothing).
    fn readout_mask(&self, rng: &mut StdRng) -> usize {
        let mut mask = 0usize;
        if !self.cfg.readout_noise {
            return mask;
        }
        let per_qubit_from = match self.tables.and_then(|t| t.readout_survival.as_deref()) {
            Some(surv) => survival_jumps(surv, rng, |q, _| mask ^= 1 << q),
            None => Some(0),
        };
        // Without an underflow the jumps covered every qubit.
        let from = per_qubit_from.unwrap_or(self.width);
        mask ^ per_qubit_flips(self.strip.readout(), from, rng)
    }
}
