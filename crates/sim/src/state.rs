//! Dense statevector with gate kernels.

use qucp_circuit::{Circuit, Gate};
use rand::Rng;

use crate::math::{Complex, Mat2};
use crate::unitaries::single_qubit_matrix;

/// A dense statevector on `n` qubits.
///
/// Basis-state indices are little-endian: bit `q` of the index is the
/// value of qubit `q`, so `|q1 q0⟩ = |10⟩` is index 2.
///
/// ```
/// use qucp_sim::Statevector;
/// use qucp_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let sv = Statevector::from_circuit(&bell);
/// let p = sv.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert!((p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    n: usize,
    amps: Vec<Complex>,
}

impl Statevector {
    /// The all-zeros state `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (dense simulation would exceed memory; parallel
    /// programs are simulated per-partition, so this bound is never hit in
    /// practice).
    pub fn zero_state(n: usize) -> Self {
        assert!(n <= 24, "statevector limited to 24 qubits, got {n}");
        let mut amps = vec![Complex::zero(); 1 << n];
        amps[0] = Complex::one();
        Statevector { n, amps }
    }

    /// Resets the state to `|0…0⟩` in place, keeping the allocation.
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex::zero());
        self.amps[0] = Complex::one();
    }

    /// Runs `circuit` from `|0…0⟩` and returns the final state.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut sv = Statevector::zero_state(circuit.width());
        for g in circuit.gates() {
            sv.apply(g);
        }
        sv
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Applies any supported gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate's qubits are out of range.
    pub fn apply(&mut self, gate: &Gate) {
        kernel::apply(&mut self.amps, gate);
    }

    /// Applies a 2×2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_single(&mut self, q: usize, m: &Mat2) {
        kernel::apply_single(&mut self.amps, q, m);
    }

    /// Applies CNOT with the given control and target.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        kernel::apply_cx(&mut self.amps, control, target);
    }

    /// Applies CZ.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        kernel::apply_cz(&mut self.amps, a, b);
    }

    /// Applies a controlled phase of angle `theta`.
    pub fn apply_cp(&mut self, a: usize, b: usize, theta: f64) {
        kernel::apply_cp(&mut self.amps, a, b, theta);
    }

    /// Applies SWAP.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        kernel::apply_swap(&mut self.amps, a, b);
    }

    /// Measurement probabilities of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should be 1 for a valid state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Samples one measurement outcome (a basis-state index),
    /// advancing `rng` by exactly one `f64` draw.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.sample_at(rng.gen())
    }

    /// The outcome the uniform draw `u ∈ [0, 1)` selects: the first
    /// basis state at which the running sum of probabilities exceeds
    /// `u` (the linear CDF walk every tuned-seed test is pinned to).
    pub fn sample_at(&self, u: f64) -> usize {
        kernel::sample_at(&self.amps, u)
    }

    /// The most probable outcome and its probability.
    pub fn argmax(&self) -> (usize, f64) {
        let mut best = (0, 0.0);
        for (idx, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p > best.1 {
                best = (idx, p);
            }
        }
        best
    }

    /// The outcome this state yields with near certainty (probability
    /// above 0.999), if it has one.
    pub fn deterministic_outcome(&self) -> Option<usize> {
        let (idx, p) = self.argmax();
        (p > 0.999).then_some(idx)
    }

    /// Fidelity `|⟨self|other⟩|²` with another state.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        assert_eq!(self.n, other.n, "state dimension mismatch");
        let mut ip = Complex::zero();
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += a.conj() * *b;
        }
        ip.norm_sqr()
    }
}

/// The gate and sampling kernels over a bare amplitude slice of length
/// `2^n`: what [`Statevector`] wraps, and what the trajectory evaluator
/// runs on the levels of its amplitude pool.
pub(crate) mod kernel {
    use super::{single_qubit_matrix, Complex, Gate, Mat2};

    /// Qubits of a `2^n`-amplitude slice.
    fn width(amps: &[Complex]) -> usize {
        amps.len().trailing_zeros() as usize
    }

    /// [`Statevector::apply`](super::Statevector::apply) on a slice.
    pub(crate) fn apply(amps: &mut [Complex], gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => apply_cx(amps, c, t),
            Gate::Cz(a, b) => apply_cz(amps, a, b),
            Gate::Cp(a, b, theta) => apply_cp(amps, a, b, theta),
            Gate::Swap(a, b) => apply_swap(amps, a, b),
            ref g => {
                let q = g.qubits().as_slice()[0];
                apply_single(amps, q, &single_qubit_matrix(g));
            }
        }
    }

    /// The sweep is branch-free: amplitude pairs `(base, base | 1<<q)`
    /// are visited as contiguous strided blocks (no per-index bit test),
    /// in the same ascending pair order — and therefore with bit-for-bit
    /// the same floating-point results — as the historical masked loop.
    pub(crate) fn apply_single(amps: &mut [Complex], q: usize, m: &Mat2) {
        assert!(q < width(amps), "qubit {q} out of range");
        let bit = 1usize << q;
        let (m00, m01) = (m[0][0], m[0][1]);
        let (m10, m11) = (m[1][0], m[1][1]);
        for block in amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = m00 * x + m01 * y;
                *b = m10 * x + m11 * y;
            }
        }
    }

    /// Branch-free: the indices with the control bit set split into
    /// contiguous runs of `min(control, target)`-strided amplitudes
    /// whose target-flipped partners are swapped run-at-a-time.
    pub(crate) fn apply_cx(amps: &mut [Complex], control: usize, target: usize) {
        let n = width(amps);
        assert!(control < n && target < n && control != target);
        let cb = 1usize << control;
        let tb = 1usize << target;
        if control > target {
            for block in amps.chunks_exact_mut(cb << 1) {
                // The upper half has the control bit set; swap its
                // target-bit pairs.
                for pair in block[cb..].chunks_exact_mut(tb << 1) {
                    let (lo, hi) = pair.split_at_mut(tb);
                    lo.swap_with_slice(hi);
                }
            }
        } else {
            for block in amps.chunks_exact_mut(tb << 1) {
                let (lo, hi) = block.split_at_mut(tb);
                // Swap the control-set runs of the target-clear half
                // with the matching runs of the target-set half.
                for (l, h) in lo
                    .chunks_exact_mut(cb << 1)
                    .zip(hi.chunks_exact_mut(cb << 1))
                {
                    l[cb..].swap_with_slice(&mut h[cb..]);
                }
            }
        }
    }

    /// Multiplies every amplitude with both bits set by `phase`,
    /// visiting them as contiguous strided runs (branch-free).
    fn phase_both_set(amps: &mut [Complex], a: usize, b: usize, phase: impl Fn(&mut Complex)) {
        let n = width(amps);
        assert!(a < n && b < n && a != b);
        let lo_bit = 1usize << a.min(b);
        let hi_bit = 1usize << a.max(b);
        for block in amps.chunks_exact_mut(hi_bit << 1) {
            for run in block[hi_bit..].chunks_exact_mut(lo_bit << 1) {
                run[lo_bit..].iter_mut().for_each(&phase);
            }
        }
    }

    /// Negates the amplitudes with both bits set.
    pub(crate) fn apply_cz(amps: &mut [Complex], a: usize, b: usize) {
        phase_both_set(amps, a, b, |amp| *amp = -*amp);
    }

    /// Same sweep as [`apply_cz`], multiplying by `e^{iθ}`.
    pub(crate) fn apply_cp(amps: &mut [Complex], a: usize, b: usize, theta: f64) {
        let phase = Complex::cis(theta);
        phase_both_set(amps, a, b, |amp| *amp *= phase);
    }

    /// Branch-free: the `|…1…0…⟩`/`|…0…1…⟩` partner pairs form matching
    /// contiguous runs in the two halves of each high-bit block and are
    /// exchanged run-at-a-time.
    pub(crate) fn apply_swap(amps: &mut [Complex], a: usize, b: usize) {
        let n = width(amps);
        assert!(a < n && b < n && a != b);
        let lo_bit = 1usize << a.min(b);
        let hi_bit = 1usize << a.max(b);
        for block in amps.chunks_exact_mut(hi_bit << 1) {
            let (lo_half, hi_half) = block.split_at_mut(hi_bit);
            for (l, h) in lo_half
                .chunks_exact_mut(lo_bit << 1)
                .zip(hi_half.chunks_exact_mut(lo_bit << 1))
            {
                l[lo_bit..].swap_with_slice(&mut h[..lo_bit]);
            }
        }
    }

    /// [`Statevector::sample_at`](super::Statevector::sample_at) on a slice.
    pub(crate) fn sample_at(amps: &[Complex], u: f64) -> usize {
        let mut acc = 0.0;
        for (idx, amp) in amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if u < acc {
                return idx;
            }
        }
        amps.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_initialization() {
        let sv = Statevector::zero_state(3);
        assert_eq!(sv.num_qubits(), 3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert!((sv.probabilities()[0] - 1.0).abs() < 1e-15);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn reset_zero_restores_initial_state() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.4);
        let mut sv = Statevector::from_circuit(&c);
        sv.reset_zero();
        assert_eq!(sv, Statevector::zero_state(3));
    }

    #[test]
    fn x_flips_bit() {
        let mut sv = Statevector::zero_state(2);
        sv.apply(&Gate::X(1));
        let p = sv.probabilities();
        assert!((p[2] - 1.0).abs() < 1e-15); // |10⟩ little-endian: qubit1=1
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = Statevector::from_circuit(&c);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12);
        assert!(p[2].abs() < 1e-12);
    }

    #[test]
    fn cx_truth_table() {
        // |control=1, target=0⟩ → |11⟩
        let mut sv = Statevector::zero_state(2);
        sv.apply(&Gate::X(0));
        sv.apply(&Gate::Cx(0, 1));
        assert_eq!(sv.argmax().0, 0b11);
        // control=0 leaves target alone
        let mut sv = Statevector::zero_state(2);
        sv.apply(&Gate::Cx(0, 1));
        assert_eq!(sv.argmax().0, 0);
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut sv = Statevector::zero_state(2);
        sv.apply(&Gate::X(0));
        sv.apply(&Gate::Swap(0, 1));
        assert_eq!(sv.argmax().0, 0b10);
    }

    #[test]
    fn cz_phases_only_11() {
        let mut sv = Statevector::zero_state(2);
        sv.apply(&Gate::H(0));
        sv.apply(&Gate::H(1));
        sv.apply(&Gate::Cz(0, 1));
        let amps = sv.amplitudes();
        assert!(amps[3].approx_eq(Complex::real(-0.5), 1e-12));
        assert!(amps[0].approx_eq(Complex::real(0.5), 1e-12));
    }

    #[test]
    fn cp_matches_cz_at_pi() {
        let mut a = Statevector::zero_state(2);
        a.apply(&Gate::H(0));
        a.apply(&Gate::H(1));
        a.apply(&Gate::Cz(0, 1));
        let mut b = Statevector::zero_state(2);
        b.apply(&Gate::H(0));
        b.apply(&Gate::H(1));
        b.apply(&Gate::Cp(0, 1, std::f64::consts::PI));
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_inverse_returns_to_zero() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cx(1, 2)
            .ry(2, 0.7)
            .cz(0, 2)
            .rz(1, -0.3);
        let composed = c.compose(&c.inverse()).unwrap();
        let sv = Statevector::from_circuit(&composed);
        assert!((sv.probabilities()[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .ry(2, 1.1)
            .swap(1, 3)
            .cp(0, 2, 0.4)
            .u(3, 0.3, 0.2, 0.1)
            .sx(1);
        let sv = Statevector::from_circuit(&c);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = Statevector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(11);
        let mut ones = 0;
        let shots = 20_000;
        for _ in 0..shots {
            ones += sv.sample(&mut rng);
        }
        let frac = ones as f64 / shots as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn sample_is_sample_at_of_one_f64_draw() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.9);
        let sv = Statevector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(5);
        let mut mirror = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            assert_eq!(sv.sample(&mut rng), sv.sample_at(mirror.gen::<f64>()));
        }
        // Exactly one f64 per sample: the two streams are still in step.
        assert_eq!(rng.gen::<u64>(), mirror.gen::<u64>());
        // The walk returns the first outcome whose cumulative
        // probability exceeds u, and the last one past the total.
        let half = Statevector::from_circuit(Circuit::new(1).h(0));
        assert_eq!(half.sample_at(0.0), 0);
        assert_eq!(half.sample_at(0.75), 1);
        assert_eq!(half.sample_at(1.5), 1);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let mut a = Statevector::zero_state(1);
        let mut b = Statevector::zero_state(1);
        b.apply(&Gate::X(0));
        assert!(a.fidelity(&b) < 1e-15);
        a.apply(&Gate::X(0));
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_out_of_range_panics() {
        let mut sv = Statevector::zero_state(2);
        sv.apply_single(2, &crate::math::mat2_identity());
    }

    #[test]
    fn ghz_endpoints() {
        let c = qucp_circuit::library::ghz(5);
        let sv = Statevector::from_circuit(&c);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[31] - 0.5).abs() < 1e-12);
    }
}
