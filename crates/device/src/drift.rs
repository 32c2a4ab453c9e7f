//! Calibration drift: deterministic processes that age a device's
//! calibration between recalibrations.
//!
//! Real IBM chips are recalibrated roughly daily, and their gate and
//! readout error rates *drift* between calibrations — both the source
//! paper and the multi-programming mechanism it builds on select
//! partitions from the *current* calibration snapshot, and co-execution
//! quality degrades when the noise picture goes stale (Ohkura et al.,
//! arXiv:2112.07091). A [`DriftModel`] makes that process explicit: a
//! pure, seeded function from a step index to an in-place perturbation
//! of a [`Calibration`] and its [`CrosstalkModel`], so a runtime can
//! replay the exact same noise trajectory on every run.
//!
//! Time is divided into fixed *steps* ([`DriftModel::steps_at`] maps a
//! simulated timestamp to the number of completed steps), and every
//! step is one [`DriftModel::apply_step`]: drift is a walk, and a fresh
//! calibration is the runtime's business (`Service::recalibrate`), not
//! the model's. [`GaussianWalk`] is the reference implementation: a
//! seeded multiplicative (log-normal) random walk on CNOT / one-qubit /
//! readout errors and crosstalk gammas.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibration::Calibration;
use crate::crosstalk::CrosstalkModel;

/// A deterministic calibration-drift process.
///
/// Implementations must be pure functions of `(self, step,
/// device_salt)` and the current calibration state — never of wall
/// clock, thread timing or call count — so that a fleet's noise
/// trajectory is bit-for-bit reproducible and serial == concurrent
/// execution holds under drift. Drifted values must stay **finite**
/// (clamp like [`GaussianWalk`] does); a runtime applying a step that
/// produces NaN or infinity rolls the step back and rejects it.
pub trait DriftModel: Send + Sync + fmt::Debug {
    /// Number of completed drift steps at simulated time `now` (ns).
    /// Must be monotone in `now`; non-positive or NaN times map to 0.
    fn steps_at(&self, now: f64) -> u64;

    /// Applies drift step `step` (1-based) to one device's calibration
    /// state and reports whether anything actually changed (a `false`
    /// return tells the runtime to install nothing: no new device, no
    /// epoch bump, no cache invalidation). `device_salt` distinguishes the devices of a
    /// fleet sharing one model, so twins drift along independent
    /// trajectories.
    fn apply_step(
        &self,
        step: u64,
        device_salt: u64,
        calibration: &mut Calibration,
        crosstalk: &mut CrosstalkModel,
    ) -> bool;
}

/// The SplitMix64 output mixing function (Steele, Lea & Flood 2014) —
/// the workspace's one canonical copy, shared with the trajectory
/// engine's shard-seed derivation (`qucp_sim::derive_shard_seed`).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of drift step `step` on the device salted `salt`:
/// `(seed, step, salt)` pass through two SplitMix64 rounds so that
/// neighbouring steps and neighbouring devices never share a stream.
fn derive_step_seed(seed: u64, step: u64, salt: u64) -> u64 {
    splitmix64(
        splitmix64(seed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(step))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(salt.wrapping_add(1))),
    )
}

/// The interval-to-step mapping drift models share: the number of
/// whole `interval_ns` periods completed by simulated time `now`.
/// NaN/non-positive times and degenerate (non-positive or non-finite)
/// intervals map to zero steps; counts past `u64::MAX` saturate.
pub fn interval_steps(now: f64, interval_ns: f64) -> u64 {
    let ticking = interval_ns.is_finite() && interval_ns > 0.0 && now > 0.0;
    if !ticking {
        return 0;
    }
    let steps = (now / interval_ns).floor();
    if steps >= u64::MAX as f64 {
        u64::MAX
    } else {
        steps as u64
    }
}

/// A standard-normal draw via Box–Muller (the vendored `rand` has no
/// normal distribution). Deterministic: exactly two uniform draws.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]: ln never sees 0
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Floors/caps applied after every perturbation so drifted values stay
/// physical: error rates in `[1e-6, 0.45]` (matching the synthesis
/// cap), gammas in `[1.0, 64.0]` (crosstalk amplifies, never helps).
const ERROR_FLOOR: f64 = 1e-6;
const ERROR_CAP: f64 = 0.45;
const GAMMA_CAP: f64 = 64.0;

/// A seeded multiplicative Gaussian random walk on a device's error
/// landscape — the reference [`DriftModel`].
///
/// One step fires every [`interval_ns`](GaussianWalk::interval_ns) of
/// simulated time. Each step multiplies every CNOT error by
/// `exp(cx_sigma · z)` with `z ~ N(0, 1)` (and likewise the one-qubit
/// errors, readout errors and crosstalk gammas with their own sigmas),
/// clamped to physical ranges — a log-normal walk, so rates stay
/// positive and relative drift magnitude is scale-free.
///
/// All sigmas zero makes every step a no-op ([`apply_step`](DriftModel::apply_step)
/// returns `false` without touching the state), which a frozen-fleet
/// equivalence test can rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianWalk {
    /// Base seed of the walk; step `k` on device salt `d` draws from a
    /// stream derived from `(seed, k, d)` only.
    pub seed: u64,
    /// Simulated nanoseconds per drift step (must be positive; a
    /// non-positive or non-finite interval yields zero steps).
    pub interval_ns: f64,
    /// Per-step log-normal sigma on CNOT errors.
    pub cx_sigma: f64,
    /// Per-step log-normal sigma on one-qubit gate errors.
    pub sq_sigma: f64,
    /// Per-step log-normal sigma on readout errors.
    pub readout_sigma: f64,
    /// Per-step log-normal sigma on crosstalk gammas (applied to the
    /// excess `γ − 1`, so uncharacterized-equivalent pairs stay at 1).
    pub gamma_sigma: f64,
}

impl GaussianWalk {
    /// A walk with the default drift magnitudes: 8% per-step sigma on
    /// CNOT/readout errors, 5% on one-qubit errors, 4% on gammas.
    pub fn new(seed: u64, interval_ns: f64) -> Self {
        GaussianWalk {
            seed,
            interval_ns,
            cx_sigma: 0.08,
            sq_sigma: 0.05,
            readout_sigma: 0.08,
            gamma_sigma: 0.04,
        }
    }

    /// The same walk with every sigma zeroed — steps still tick but
    /// drift never changes a value. The frozen-fleet equivalence tests pin that a
    /// service driven by this walk is bit-for-bit a frozen service.
    #[must_use]
    pub fn frozen(mut self) -> Self {
        self.cx_sigma = 0.0;
        self.sq_sigma = 0.0;
        self.readout_sigma = 0.0;
        self.gamma_sigma = 0.0;
        self
    }

    fn is_noop(&self) -> bool {
        self.cx_sigma == 0.0
            && self.sq_sigma == 0.0
            && self.readout_sigma == 0.0
            && self.gamma_sigma == 0.0
    }
}

impl DriftModel for GaussianWalk {
    fn steps_at(&self, now: f64) -> u64 {
        interval_steps(now, self.interval_ns)
    }

    fn apply_step(
        &self,
        step: u64,
        device_salt: u64,
        calibration: &mut Calibration,
        crosstalk: &mut CrosstalkModel,
    ) -> bool {
        if self.is_noop() {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(derive_step_seed(self.seed, step, device_salt));
        let mut changed = false;
        let mut perturb = |value: &mut f64, sigma: f64, floor: f64, cap: f64| {
            // Draw even when sigma is 0 so enabling one channel never
            // reshuffles another channel's stream.
            let z = standard_normal(&mut rng);
            if sigma != 0.0 {
                let next = (*value * (sigma * z).exp()).clamp(floor, cap);
                if next != *value {
                    *value = next;
                    changed = true;
                }
            }
        };
        for (_, e) in calibration.cx_errors_mut() {
            perturb(e, self.cx_sigma, ERROR_FLOOR, ERROR_CAP);
        }
        for e in calibration.sq_errors_mut() {
            perturb(e, self.sq_sigma, ERROR_FLOOR, ERROR_CAP);
        }
        for e in calibration.readout_errors_mut() {
            perturb(e, self.readout_sigma, ERROR_FLOOR, ERROR_CAP);
        }
        for (_, g) in crosstalk.gammas_mut() {
            // Walk the excess over 1 so γ can approach (never cross)
            // the crosstalk-free floor.
            let z = standard_normal(&mut rng);
            if self.gamma_sigma != 0.0 {
                let next = (1.0 + (*g - 1.0) * (self.gamma_sigma * z).exp()).clamp(1.0, GAMMA_CAP);
                if next != *g {
                    *g = next;
                    changed = true;
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::CrosstalkProfile;

    fn state() -> (Calibration, CrosstalkModel) {
        let t = Topology::grid(3, 3);
        (
            Calibration::synthesize(&t, 11, &crate::NoiseProfile::default()),
            CrosstalkModel::synthesize(&t, 12, &CrosstalkProfile::default()),
        )
    }

    #[test]
    fn steps_are_deterministic_and_salted() {
        let walk = GaussianWalk::new(7, 1000.0);
        let (base_cal, base_xt) = state();
        let run = |step: u64, salt: u64| {
            let (mut cal, mut xt) = (base_cal.clone(), base_xt.clone());
            assert!(walk.apply_step(step, salt, &mut cal, &mut xt));
            (cal, xt)
        };
        assert_eq!(run(1, 0), run(1, 0), "same step, same salt: identical");
        assert_ne!(run(1, 0), run(1, 1), "twin devices drift independently");
        assert_ne!(run(1, 0), run(2, 0), "steps draw fresh streams");
    }

    #[test]
    fn zero_sigma_walk_never_changes_anything() {
        let walk = GaussianWalk::new(7, 1000.0).frozen();
        let (mut cal, mut xt) = state();
        let (snap_cal, snap_xt) = (cal.clone(), xt.clone());
        for step in 1..=10 {
            assert!(!walk.apply_step(step, 0, &mut cal, &mut xt));
        }
        assert_eq!(cal, snap_cal);
        assert_eq!(xt, snap_xt);
    }

    #[test]
    fn drifted_values_stay_physical_and_finite() {
        let mut walk = GaussianWalk::new(3, 1000.0);
        walk.cx_sigma = 1.5; // violent drift to stress the clamps
        walk.readout_sigma = 1.5;
        walk.gamma_sigma = 1.5;
        let (mut cal, mut xt) = state();
        for step in 1..=50 {
            walk.apply_step(step, 4, &mut cal, &mut xt);
        }
        assert!(cal.all_finite());
        assert!(xt.all_finite());
        for (l, _) in cal.clone().cx_errors_mut() {
            let e = cal.cx_error(l);
            assert!((ERROR_FLOOR..=ERROR_CAP).contains(&e), "cx {e}");
        }
        for (p, g) in xt.pairs() {
            assert!((1.0..=GAMMA_CAP).contains(&g), "{p:?} gamma {g}");
        }
    }

    #[test]
    fn steps_at_floor_semantics() {
        let walk = GaussianWalk::new(0, 1000.0);
        assert_eq!(walk.steps_at(-5.0), 0);
        assert_eq!(walk.steps_at(0.0), 0);
        assert_eq!(walk.steps_at(999.9), 0);
        assert_eq!(walk.steps_at(1000.0), 1);
        assert_eq!(walk.steps_at(3500.0), 3);
        assert_eq!(walk.steps_at(f64::NAN), 0);
        let degenerate = GaussianWalk::new(0, 0.0);
        assert_eq!(degenerate.steps_at(1e9), 0, "zero interval never steps");
    }

    #[test]
    fn enabling_one_channel_does_not_reshuffle_another() {
        // cx perturbations must be identical whether or not readout
        // drift is enabled: each entry consumes its draws regardless.
        let mut only_cx = GaussianWalk::new(5, 1000.0).frozen();
        only_cx.cx_sigma = 0.1;
        let mut both = only_cx;
        both.readout_sigma = 0.1;
        let (base_cal, base_xt) = state();
        let (mut cal_a, mut xt_a) = (base_cal.clone(), base_xt.clone());
        let (mut cal_b, mut xt_b) = (base_cal.clone(), base_xt.clone());
        only_cx.apply_step(1, 0, &mut cal_a, &mut xt_a);
        both.apply_step(1, 0, &mut cal_b, &mut xt_b);
        let links: Vec<_> = base_cal.links_by_reliability();
        for (l, _) in links {
            assert_eq!(cal_a.cx_error(l), cal_b.cx_error(l));
        }
    }
}
