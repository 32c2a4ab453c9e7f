//! The draw pass: one sequential walk over a stream's `StdRng` fixes
//! everything random about every shot — the typed error pattern, the
//! outcome uniform and the readout flips — before any state is touched.
//!
//! A per-event or per-qubit draw is one random word compared with a
//! threshold the prepared job fixed (`super::gate_threshold`,
//! `super::idle_thresholds`, `super::readout_threshold`): the words
//! consumed and the patterns drawn are those of the Bernoulli and
//! uniform draws of `rand` the thresholds were taken from, and nothing
//! here converts a probability. `Replay` reads its stream ahead in
//! bulk ([`Ahead`]) and compares a shot's words where they lie: its
//! event words are screened against the prepared [`super::Strip`] in
//! lanes ([`Screen`]) before any exact per-event test runs, and its
//! outcome uniform and readout words are read together, the readout
//! words screened against the strip's readout tail.

#[cfg(test)]
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::{idle_cumulative, random_pauli, Event, Strip, TrajectoryJob, TrajectoryKernel};
use crate::counts::Tally;
use crate::state::ScreenLanes;

#[cfg(test)]
mod tests;

/// Words the `Replay` draw screens at a time: one mask bit a word.
const SCREEN_WORDS: usize = 64;

/// The 32-bit halves a `Replay` stream reads ahead: one sixteen-block
/// refill of the generator, and room for two screened chunks.
const AHEAD_HALVES: usize = 4 * SCREEN_WORDS;

/// The words of one lane vector: a shorter strip is screened by the
/// scalar fold, where the lane body's call costs what it saves.
const LANE_WORDS: usize = 8;

#[cfg(test)]
thread_local! {
    /// Set while a test forces the scalar screen on this thread (and on
    /// the helpers its fan-outs spawn): nothing outside tests reads it.
    pub(crate) static SCALAR_SCREEN: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every screen on the scalar fold.
#[cfg(test)]
pub(super) fn scalar_screen<T>(f: impl FnOnce() -> T) -> T {
    let was = SCALAR_SCREEN.replace(true);
    let out = f();
    SCALAR_SCREEN.set(was);
    out
}

/// Word `k` of `halves`: halves `2k` (low) and `2k + 1` (high), as the
/// generator's `next_u64` pairs its 32-bit outputs.
fn word(halves: &[u32], k: usize) -> u64 {
    u64::from(halves[2 * k]) | u64::from(halves[2 * k + 1]) << 32
}

/// The body a stream screens its words with: AVX-512F lanes where the
/// CPU has them, else [`screen_scalar`], their oracle.
#[derive(Clone, Copy)]
struct Screen(Option<ScreenLanes>);

impl Screen {
    /// The one place the screen's body is chosen, once a stream.
    fn chosen() -> Self {
        #[cfg(test)]
        if SCALAR_SCREEN.get() {
            return Screen(None);
        }
        Screen(ScreenLanes::detect())
    }

    /// Bit `k` set iff [`word`] `k` of `halves` is below `bounds[k]`
    /// (`BELOW`) or at most it, for `k < bounds.len()` (at most 64).
    /// Fewer than [`LANE_WORDS`] words are screened by the scalar fold
    /// whatever the body.
    fn mask<const BELOW: bool>(self, halves: &[u32], bounds: &[u64]) -> u64 {
        match self.0 {
            Some(lanes) if bounds.len() >= LANE_WORDS => lanes.screen::<BELOW>(halves, bounds),
            _ => screen_scalar::<BELOW>(halves, bounds),
        }
    }
}

/// [`Screen::mask`] one word at a time, on every CPU.
fn screen_scalar<const BELOW: bool>(halves: &[u32], bounds: &[u64]) -> u64 {
    bounds.iter().enumerate().fold(0, |mask, (k, &bound)| {
        let w = word(halves, k);
        mask | u64::from(if BELOW { w < bound } else { w <= bound }) << k
    })
}

/// The uniform `Rng::gen::<f64>()` makes of `word`: its top 53 bits,
/// scaled by `2^-53`.
fn uniform(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A `Replay` stream's generator read ahead: its 32-bit outputs in
/// order, up to [`AHEAD_HALVES`] of them buffered through `fill`
/// (`StdRng::fill_u32`). It hands out the halves and words the
/// generator's own `next_u32` and `next_u64` would — a word is two
/// halves, the first low, across a refill too — and a shot's words are
/// compared where they lie. What it reads past a stream's last shot is
/// never handed out.
struct Ahead<F> {
    fill: F,
    /// The body the stream's words are screened with.
    screen: Screen,
    halves: [u32; AHEAD_HALVES],
    /// The next half to hand out: `halves[at..]` are read, not yet
    /// handed out.
    at: usize,
}

impl<F: FnMut(&mut [u32])> Ahead<F> {
    fn new(fill: F) -> Self {
        Ahead {
            fill,
            screen: Screen::chosen(),
            halves: [0; AHEAD_HALVES],
            at: AHEAD_HALVES,
        }
    }

    /// The next `n` halves (at most [`AHEAD_HALVES`]), still to be
    /// handed out: when fewer are left, they move to the front and the
    /// generator fills in behind them.
    fn peek(&mut self, n: usize) -> &[u32] {
        let left = AHEAD_HALVES - self.at;
        if left < n {
            self.halves.copy_within(self.at.., 0);
            (self.fill)(&mut self.halves[left..]);
            self.at = 0;
        }
        &self.halves[self.at..self.at + n]
    }

    /// Hands out `n` halves.
    fn skip(&mut self, n: usize) {
        self.at += n;
    }
}

impl<F: FnMut(&mut [u32])> RngCore for Ahead<F> {
    fn next_u32(&mut self) -> u32 {
        let half = self.peek(1)[0];
        self.skip(1);
        half
    }

    fn next_u64(&mut self) -> u64 {
        let word = word(self.peek(2), 0);
        self.skip(2);
        word
    }
}

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

/// A pattern's first two keys packed, `first << 32 | second`, 0 for an
/// absent second one (no key is 0: codes start at 1): patterns ordered
/// by it are ordered as their slices are, up to a tie, which only the
/// keys from the third on settle.
pub(super) fn sort_key(pattern: &[ErrorKey]) -> u64 {
    let second = pattern.get(1).copied().unwrap_or(0);
    u64::from(pattern[0]) << 32 | u64::from(second)
}

/// A shot that drew at least one error, waiting for its state.
#[derive(Clone, Copy)]
pub(super) struct ErrorShot {
    /// The uniform that picks the outcome from the shot's final state.
    pub u: f64,
    /// The pattern's [`sort_key`], written by the draw so that the
    /// evaluator's sort compares integers.
    pub key: u64,
    /// Where the shot's pattern starts in the stream's arena.
    pub start: usize,
    /// Errors in the pattern (at least one), ascending by position.
    pub len: u32,
    /// Readout flips, XOR-ed onto the sampled outcome.
    pub mask: u32,
}

/// A stream's error shots and the arena their patterns live in.
#[derive(Default)]
pub(super) struct Errors {
    /// The error shots, in draw order.
    pub shots: Vec<ErrorShot>,
    /// The arena the error shots' patterns live in.
    pub patterns: Vec<ErrorKey>,
}

impl Errors {
    /// Empties both, keeping their room.
    pub(super) fn clear(&mut self) {
        self.shots.clear();
        self.patterns.clear();
    }

    /// Heap bytes the two hold.
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.shots.capacity() * size_of::<ErrorShot>()
            + self.patterns.capacity() * size_of::<ErrorKey>()
    }
}

/// What the draw pass of one stream leaves behind.
pub(super) struct Drawn {
    /// The clean shots, resolved on the spot.
    pub counts: Tally,
    /// The error shots, waiting for their states.
    pub errors: Errors,
}

impl Drawn {
    /// Appends a later stream's draws: counts add up, the shots move
    /// behind this stream's with their patterns.
    pub(super) fn append(&mut self, later: Drawn) {
        self.counts.absorb(&later.counts);
        let base = self.errors.patterns.len();
        let (shots, patterns) = (&later.errors.shots, &later.errors.patterns);
        self.errors.patterns.extend_from_slice(patterns);
        self.errors.shots.extend(shots.iter().map(|shot| ErrorShot {
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
        Event::Idle { .. } => errs_on(ev, rng.next_u64()),
    }
}

/// [`event_error`] on its word, for an event that draws one.
fn errs_on(ev: Event, word: u64) -> Option<u8> {
    match ev {
        Event::Gate { threshold, .. } => threshold.is_some_and(|t| word < t).then_some(UNTYPED),
        Event::Idle { thresholds, .. } => idle_pauli(word >> 11, thresholds),
    }
}

/// One shot's event draws under `Replay`: pushes onto `arena` every
/// error of `events` in stream order, gate errors [`UNTYPED`], from one
/// word of `ahead` per event that draws one — whose
/// [`super::strip_bound`]s are `bounds`.
///
/// The words are screened [`SCREEN_WORDS`] at a time where they lie in
/// `ahead`: [`Screen::mask`] sets bit `k` iff word `k` is at or below its
/// bound, and only the events at set bits — the candidates — go through
/// the exact test ([`errs_on`]) on their word; a word above its bound
/// cannot make its event err. When some gate draws no word, a word's
/// index is not its event's position, and every event goes through
/// [`event_error`] on the words in order. The words read, the errors
/// and the stream's position are those of one [`event_error`] per
/// event.
fn screen_events<F: FnMut(&mut [u32])>(
    events: &[Event],
    bounds: &[u64],
    ahead: &mut Ahead<F>,
    arena: &mut Vec<ErrorKey>,
) {
    if bounds.len() != events.len() {
        for (pos, &ev) in events.iter().enumerate() {
            if let Some(code) = event_error(ev, ahead) {
                arena.push(pack(pos, code));
            }
        }
        return;
    }
    let screen = ahead.screen;
    for (chunk, bounds) in bounds.chunks(SCREEN_WORDS).enumerate() {
        let halves = ahead.peek(2 * bounds.len());
        let mut candidates = screen.mask::<false>(halves, bounds);
        while candidates != 0 {
            let k = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let pos = chunk * SCREEN_WORDS + k;
            if let Some(code) = errs_on(events[pos], word(halves, k)) {
                arena.push(pack(pos, code));
            }
        }
        ahead.skip(2 * bounds.len());
    }
}

/// A `Replay` shot's outcome uniform and readout flips (an XOR mask
/// over the measured bits): one `Rng::gen::<f64>()`, then one
/// [`readout_flips`] per measured qubit. Where no readout is a certain
/// flip each of those draws one word, so the words are read together
/// and the readout words screened against the strip's readout tail: a
/// bit flips iff its word is below its threshold.
fn replay_outcome<F: FnMut(&mut [u32])>(strip: &Strip, ahead: &mut Ahead<F>) -> (f64, usize) {
    let Some(thresholds) = strip.bulk_readout() else {
        let u = ahead.gen();
        return (u, per_qubit_flips(strip.readout(), 0, ahead));
    };
    let (screen, halves) = (ahead.screen, 2 * (1 + thresholds.len()));
    let words = ahead.peek(halves);
    let (u, flips) = (
        uniform(word(words, 0)),
        screen.mask::<true>(&words[2..], thresholds),
    );
    ahead.skip(halves);
    (u, flips as usize)
}

/// Room for a count whose expectation is `mean` and whose variance is
/// at most `mean` (a sum of independent Bernoullis): four standard
/// deviations above it, so that buffers sized for one run of a job
/// hold the next one's draws.
fn headroom(mean: f64) -> usize {
    (mean + 4.0 * mean.sqrt()).ceil() as usize
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
    /// Draws one sequential stream of `shots` trajectories from `seed`
    /// on behind what `into` holds: per shot the kernel's error
    /// pattern, the outcome uniform, the readout flips. A clean shot is
    /// tallied at once, an error shot kept for
    /// [`TrajectoryJob::evaluate`], which tallies it into the same
    /// vector. Patterns are drawn straight into the arena. The buffers
    /// are handed in, and at their first error shot they are given room
    /// for the error shots of `room` shots (the stream's own, or the
    /// whole run's for the stream the others join): a draw into buffers
    /// kept from a run of the same job allocates nothing.
    pub(super) fn draw(&self, shots: usize, seed: u64, into: Drawn, room: usize) -> Drawn {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.cfg.kernel {
            TrajectoryKernel::Replay => {
                let mut ahead = Ahead::new(|halves: &mut [u32]| rng.fill_u32(halves));
                self.draw_shots(shots, into, room, |arena| {
                    self.draw_replay(&mut ahead, arena);
                    replay_outcome(self.strip, &mut ahead)
                })
            }
            TrajectoryKernel::SurvivalSkip => self.draw_shots(shots, into, room, |arena| {
                self.draw_survival(&mut rng, arena);
                (rng.gen(), self.readout_mask(&mut rng))
            }),
        }
    }

    /// [`TrajectoryJob::draw`]'s loop: `shot` pushes one shot's pattern
    /// onto the arena and returns its outcome uniform and readout mask.
    fn draw_shots(
        &self,
        shots: usize,
        into: Drawn,
        room: usize,
        mut shot: impl FnMut(&mut Vec<ErrorKey>) -> (f64, usize),
    ) -> Drawn {
        let Drawn {
            mut counts,
            errors:
                Errors {
                    shots: mut errors,
                    mut patterns,
                },
        } = into;
        for _ in 0..shots {
            let start = patterns.len();
            let (u, mask) = shot(&mut patterns);
            let len = patterns.len() - start;
            if len == 0 {
                let ideal = match self.tables {
                    Some(tables) => tables.alias.sample(u),
                    None => self.ideal.sample(u),
                };
                counts.record(ideal ^ mask);
                continue;
            }
            if errors.is_empty() {
                // Both buffers are sized once, for what `room` shots
                // should draw (a shot's errors ≤ min(Σ −ln(1 − p_e),
                // events)) — a size that depends on the job alone, so
                // room they kept from a run of it is enough as it is.
                let clean = self.plan.clean;
                let mean = (-clean.ln()).min(self.plan.events.len() as f64);
                let room = room as f64;
                errors.reserve_exact(headroom(room * (1.0 - clean)).max(1));
                patterns.reserve_exact(headroom(room * mean).saturating_sub(len));
            }
            errors.push(ErrorShot {
                u,
                key: sort_key(&patterns[start..]),
                start,
                len: len as u32,
                mask: mask as u32,
            });
        }
        Drawn {
            counts,
            errors: Errors {
                shots: errors,
                patterns,
            },
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
    fn draw_replay<F: FnMut(&mut [u32])>(&self, ahead: &mut Ahead<F>, arena: &mut Vec<ErrorKey>) {
        let start = arena.len();
        screen_events(&self.plan.events, self.strip.events(), ahead, arena);
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
                ahead.gen_range(1..16usize) as u8
            } else {
                random_pauli(ahead)
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

    /// The readout flips of one `SurvivalSkip` shot as an XOR mask over
    /// the measured bits: a jump from flipped bit to flipped bit through
    /// its readout survival products — typically one uniform per shot;
    /// past an underflow, a Bernoulli per qubit (a certain flip draws
    /// nothing).
    fn readout_mask(&self, rng: &mut StdRng) -> usize {
        let mut mask = 0usize;
        let tables = self.tables.expect("SurvivalSkip runs with its tables");
        let Some(surv) = tables.readout_survival.as_deref() else {
            return mask;
        };
        // Without an underflow the jumps covered every qubit.
        let from = survival_jumps(surv, rng, |q, _| mask ^= 1 << q).unwrap_or(self.width);
        mask ^ per_qubit_flips(self.strip.readout(), from, rng)
    }
}
