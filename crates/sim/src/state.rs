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
    ///
    /// The trajectory hot loop re-simulates error shots from scratch;
    /// resetting a scratch state instead of allocating a fresh one keeps
    /// that loop allocation-free.
    pub fn reset_zero(&mut self) {
        for a in &mut self.amps {
            *a = Complex::zero();
        }
        self.amps[0] = Complex::one();
    }

    /// Overwrites this state with `other` in place, keeping the
    /// allocation — the snapshot-restore primitive of the trajectory
    /// hot loop (error shots resume from a cached ideal prefix state
    /// instead of re-simulating from `|0…0⟩`).
    ///
    /// # Panics
    ///
    /// Panics if the two states have different widths.
    pub fn copy_from(&mut self, other: &Statevector) {
        assert_eq!(self.n, other.n, "statevector width mismatch");
        self.amps.copy_from_slice(&other.amps);
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
        match *gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Cp(a, b, theta) => self.apply_cp(a, b, theta),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            ref g => {
                let q = g.qubits().as_slice()[0];
                self.apply_single(q, &single_qubit_matrix(g));
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    ///
    /// The sweep is branch-free: amplitude pairs `(base, base | 1<<q)`
    /// are visited as contiguous strided blocks (no per-index bit test),
    /// in the same ascending pair order — and therefore with bit-for-bit
    /// the same floating-point results — as the historical masked loop.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_single(&mut self, q: usize, m: &Mat2) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        let (m00, m01) = (m[0][0], m[0][1]);
        let (m10, m11) = (m[1][0], m[1][1]);
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = m00 * x + m01 * y;
                *b = m10 * x + m11 * y;
            }
        }
    }

    /// Applies CNOT with the given control and target.
    ///
    /// Branch-free: the indices with the control bit set split into
    /// contiguous runs of `min(control, target)`-strided amplitudes
    /// whose target-flipped partners are swapped run-at-a-time.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let cb = 1usize << control;
        let tb = 1usize << target;
        if control > target {
            for block in self.amps.chunks_exact_mut(cb << 1) {
                // The upper half has the control bit set; swap its
                // target-bit pairs.
                for pair in block[cb..].chunks_exact_mut(tb << 1) {
                    let (lo, hi) = pair.split_at_mut(tb);
                    lo.swap_with_slice(hi);
                }
            }
        } else {
            for block in self.amps.chunks_exact_mut(tb << 1) {
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

    /// Applies CZ.
    ///
    /// Branch-free: amplitudes with both bits set are visited as
    /// contiguous strided runs and negated in place.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let lo_bit = 1usize << a.min(b);
        let hi_bit = 1usize << a.max(b);
        for block in self.amps.chunks_exact_mut(hi_bit << 1) {
            for run in block[hi_bit..].chunks_exact_mut(lo_bit << 1) {
                for amp in &mut run[lo_bit..] {
                    *amp = -*amp;
                }
            }
        }
    }

    /// Applies a controlled phase of angle `theta`.
    ///
    /// Branch-free, same sweep as [`Statevector::apply_cz`].
    pub fn apply_cp(&mut self, a: usize, b: usize, theta: f64) {
        assert!(a < self.n && b < self.n && a != b);
        let phase = Complex::cis(theta);
        let lo_bit = 1usize << a.min(b);
        let hi_bit = 1usize << a.max(b);
        for block in self.amps.chunks_exact_mut(hi_bit << 1) {
            for run in block[hi_bit..].chunks_exact_mut(lo_bit << 1) {
                for amp in &mut run[lo_bit..] {
                    *amp *= phase;
                }
            }
        }
    }

    /// Applies SWAP.
    ///
    /// Branch-free: the `|…1…0…⟩`/`|…0…1…⟩` partner pairs form matching
    /// contiguous runs in the two halves of each high-bit block and are
    /// exchanged run-at-a-time.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let lo_bit = 1usize << a.min(b);
        let hi_bit = 1usize << a.max(b);
        for block in self.amps.chunks_exact_mut(hi_bit << 1) {
            let (lo_half, hi_half) = block.split_at_mut(hi_bit);
            for (l, h) in lo_half
                .chunks_exact_mut(lo_bit << 1)
                .zip(hi_half.chunks_exact_mut(lo_bit << 1))
            {
                l[lo_bit..].swap_with_slice(&mut h[..lo_bit]);
            }
        }
    }

    /// Measurement probabilities of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should be 1 for a valid state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Samples one measurement outcome (a basis-state index).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (idx, amp) in self.amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if u < acc {
                return idx;
            }
        }
        self.amps.len() - 1
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
