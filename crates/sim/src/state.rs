//! Dense statevector with gate kernels.

use qucp_circuit::{Circuit, Gate};
use rand::Rng;

use crate::math::{Complex, Mat2};
use crate::unitaries::single_qubit_matrix;

#[cfg(target_arch = "x86_64")]
mod lanes;

/// No vector body off x86_64: every op runs the scalar body.
#[cfg(not(target_arch = "x86_64"))]
mod lanes {
    use super::{kernel::Op, Complex, Mat2};

    pub(super) fn run(_: &mut [Complex], _: &Op, _: &[Mat2]) -> bool {
        false
    }
}

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
        let mut mats = Vec::new();
        let mut sv = Statevector::zero_state(circuit.width());
        for g in circuit.gates() {
            sv.apply_reusing(g, &mut mats);
        }
        sv
    }

    /// [`Statevector::apply`] with the side vector of the gate's
    /// compilation handed in, to be reused from gate to gate.
    fn apply_reusing(&mut self, gate: &Gate, mats: &mut Vec<Mat2>) {
        mats.clear();
        let op = kernel::compile(gate, mats);
        kernel::run(&mut self.amps, &op, mats);
    }

    /// Runs compiled `ops` (with their matrix side vector) from
    /// `|0…0⟩` on `n` qubits: [`Statevector::from_circuit`] of the
    /// circuit they were compiled from.
    pub(crate) fn from_ops(n: usize, ops: &[kernel::Op], mats: &[Mat2]) -> Self {
        let mut sv = Statevector::zero_state(n);
        for op in ops {
            kernel::run(&mut sv.amps, op, mats);
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
        self.apply_reusing(gate, &mut Vec::new());
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
        kernel::apply_cp(&mut self.amps, a, b, Complex::cis(theta));
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
///
/// A gate is **compiled once** ([`compile`](kernel::compile): the
/// matrix or phase is evaluated, and the kernel is picked from the
/// *stored* entries — which are exactly `0.0`, which exactly `1.0`,
/// which purely real or imaginary; never from the gate's name) and
/// **run any number of times** ([`run`](kernel::run), the only
/// dispatch). A structured kernel computes the general 2×2 product with
/// the terms left out that multiply a stored `0.0` (or are `1.0 · x`).
/// `Complex`'s product is four plain multiplies and no fused
/// multiply-add, and adding a product with `±0.0` returns the other
/// summand, so every amplitude a structured kernel writes equals the
/// general kernel's **up to the sign of a zero** — and `norm_sqr`,
/// every running probability sum and every sampled outcome bit for bit
/// (the test `structured_kernels_equal_the_general_kernel` holds that
/// over every gate kind, qubit and register size).
///
/// Every op has two bodies. [`scalar`](kernel::scalar) is one amplitude
/// at a time, on every CPU; the lane body (`state/lanes.rs`) is four
/// amplitudes per AVX-512F vector, and [`run`](kernel::run) takes it on
/// a register of at least eight amplitudes where the CPU has AVX-512F.
/// Each `f64` the lane body writes is the scalar expression — the same
/// products, summed by the same single add, with no fused multiply-add
/// — so the two bodies agree **bit for bit**, signs of zeros included
/// (`lane_kernels_equal_the_scalar_kernels_bit_for_bit`), and the
/// scalar body is the lane body's oracle.
pub(crate) mod kernel {
    #[cfg(test)]
    use std::cell::Cell;

    use super::{single_qubit_matrix, Complex, Gate, Mat2};

    /// One compiled gate: the kernel its matrix's structure allows,
    /// with the constants the kernel multiplies by.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Op {
        /// `[[0, 1], [1, 0]]`: the two halves of every pair trade
        /// places (`X`).
        Flip {
            q: u32,
        },
        /// `diag(1, d)` (`I Z S Sdg T Tdg P`, a rotation by 0).
        Phase {
            q: u32,
            d: Complex,
        },
        /// `diag(d0, d1)` (`Rz`).
        Diagonal {
            q: u32,
            d0: Complex,
            d1: Complex,
        },
        /// Four real entries (`H`, `Ry`).
        Real {
            q: u32,
            m: [[f64; 2]; 2],
        },
        /// `[[d0, i·b01], [i·b10, d1]]`: a real diagonal and an
        /// imaginary off-diagonal (`Rx`, `Y`).
        Cross {
            q: u32,
            d0: f64,
            b01: f64,
            b10: f64,
            d1: f64,
        },
        /// No exact structure (`U`, `Sx`, `Sxdg`): matrix `mat` of the
        /// side vector, through [`apply_single`].
        General {
            q: u32,
            mat: u32,
        },
        Cx {
            control: u32,
            target: u32,
        },
        Cz {
            a: u32,
            b: u32,
        },
        /// Controlled phase, its `e^{iθ}` evaluated.
        Cp {
            a: u32,
            b: u32,
            phase: Complex,
        },
        Swap {
            a: u32,
            b: u32,
        },
    }

    /// Qubits of a `2^n`-amplitude slice.
    pub(super) fn width(amps: &[Complex]) -> usize {
        amps.len().trailing_zeros() as usize
    }

    /// A qubit (or gate) index as the 32-bit field of an [`Op`] or an
    /// event.
    pub(crate) fn narrow(index: usize) -> u32 {
        u32::try_from(index).expect("qubit and gate indices fit 32 bits")
    }

    /// Compiles `gate`. A matrix without structure goes to `mats`, the
    /// side vector [`run`] is handed again (it keeps an [`Op`] at 40
    /// bytes where the matrix alone is 64).
    pub(crate) fn compile(gate: &Gate, mats: &mut Vec<Mat2>) -> Op {
        match *gate {
            Gate::Cx(c, t) => Op::Cx {
                control: narrow(c),
                target: narrow(t),
            },
            Gate::Cz(a, b) => Op::Cz {
                a: narrow(a),
                b: narrow(b),
            },
            Gate::Cp(a, b, theta) => Op::Cp {
                a: narrow(a),
                b: narrow(b),
                phase: Complex::cis(theta),
            },
            Gate::Swap(a, b) => Op::Swap {
                a: narrow(a),
                b: narrow(b),
            },
            ref g => {
                let q = narrow(g.qubits().as_slice()[0]);
                compile_matrix(q, single_qubit_matrix(g), mats)
            }
        }
    }

    /// The kernel the entries of `m` allow on qubit `q`, decided by
    /// exact comparison (`==` takes `-0.0` for `0.0`: both annihilate
    /// a product).
    fn compile_matrix(q: u32, m: Mat2, mats: &mut Vec<Mat2>) -> Op {
        let [[m00, m01], [m10, m11]] = m;
        let (zero, one) = (Complex::zero(), Complex::one());
        if m01 == zero && m10 == zero {
            if m00 == one {
                Op::Phase { q, d: m11 }
            } else {
                Op::Diagonal {
                    q,
                    d0: m00,
                    d1: m11,
                }
            }
        } else if m00 == zero && m11 == zero && m01 == one && m10 == one {
            Op::Flip { q }
        } else if [m00, m01, m10, m11].iter().all(|z| z.im == 0.0) {
            Op::Real {
                q,
                m: [[m00.re, m01.re], [m10.re, m11.re]],
            }
        } else if m00.im == 0.0 && m11.im == 0.0 && m01.re == 0.0 && m10.re == 0.0 {
            Op::Cross {
                q,
                d0: m00.re,
                b01: m01.im,
                b10: m10.im,
                d1: m11.re,
            }
        } else {
            mats.push(m);
            Op::General {
                q,
                mat: u32::try_from(mats.len() - 1).expect("fewer than 2^32 matrices"),
            }
        }
    }

    #[cfg(test)]
    thread_local! {
        /// Set while a test forces the scalar body on this thread (and
        /// on the helpers its fan-outs spawn): nothing outside tests
        /// reads it.
        pub(crate) static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every op on the scalar body.
    #[cfg(test)]
    pub(crate) fn scalar_only<T>(f: impl FnOnce() -> T) -> T {
        let was = SCALAR_ONLY.replace(true);
        let out = f();
        SCALAR_ONLY.set(was);
        out
    }

    /// Applies `op` to `amps`; `mats` is the side vector `op` was
    /// compiled into. The only dispatch: the lane body where the
    /// register and the CPU allow it, else [`scalar`].
    ///
    /// # Panics
    ///
    /// Panics if a qubit of `op` is out of range.
    pub(crate) fn run(amps: &mut [Complex], op: &Op, mats: &[Mat2]) {
        #[cfg(test)]
        if SCALAR_ONLY.get() {
            return scalar(amps, op, mats);
        }
        if !super::lanes::run(amps, op, mats) {
            scalar(amps, op, mats);
        }
    }

    /// [`run`]'s body one amplitude at a time: on every CPU, and the
    /// oracle of the lane body.
    pub(super) fn scalar(amps: &mut [Complex], op: &Op, mats: &[Mat2]) {
        match *op {
            Op::Flip { q } => {
                let bit = pair_bit(amps, q as usize);
                for block in amps.chunks_exact_mut(bit << 1) {
                    let (lo, hi) = block.split_at_mut(bit);
                    lo.swap_with_slice(hi);
                }
            }
            Op::Phase { q, d } => {
                let bit = pair_bit(amps, q as usize);
                for block in amps.chunks_exact_mut(bit << 1) {
                    for b in &mut block[bit..] {
                        *b = d * *b;
                    }
                }
            }
            Op::Diagonal { q, d0, d1 } => pairs(amps, q as usize, |a, b| {
                *a = d0 * *a;
                *b = d1 * *b;
            }),
            Op::Real { q, m } => pairs(amps, q as usize, |a, b| {
                let (x, y) = (*a, *b);
                *a = Complex::new(
                    m[0][0] * x.re + m[0][1] * y.re,
                    m[0][0] * x.im + m[0][1] * y.im,
                );
                *b = Complex::new(
                    m[1][0] * x.re + m[1][1] * y.re,
                    m[1][0] * x.im + m[1][1] * y.im,
                );
            }),
            Op::Cross {
                q,
                d0,
                b01,
                b10,
                d1,
            } => pairs(amps, q as usize, |a, b| {
                let (x, y) = (*a, *b);
                *a = Complex::new(d0 * x.re - b01 * y.im, d0 * x.im + b01 * y.re);
                *b = Complex::new(d1 * y.re - b10 * x.im, b10 * x.re + d1 * y.im);
            }),
            Op::General { q, mat } => apply_single(amps, q as usize, &mats[mat as usize]),
            Op::Cx { control, target } => apply_cx(amps, control as usize, target as usize),
            Op::Cz { a, b } => apply_cz(amps, a as usize, b as usize),
            Op::Cp { a, b, phase } => apply_cp(amps, a as usize, b as usize, phase),
            Op::Swap { a, b } => apply_swap(amps, a as usize, b as usize),
        }
    }

    /// The stride between the two amplitudes of a pair on qubit `q`.
    pub(super) fn pair_bit(amps: &[Complex], q: usize) -> usize {
        assert!(q < width(amps), "qubit {q} out of range");
        1usize << q
    }

    /// Hands `f` every amplitude pair `(base, base | 1 << q)`. The sweep
    /// is branch-free: the pairs are visited as contiguous strided
    /// blocks (no per-index bit test), in ascending order.
    #[inline(always)]
    fn pairs(amps: &mut [Complex], q: usize, f: impl Fn(&mut Complex, &mut Complex)) {
        let bit = pair_bit(amps, q);
        for block in amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                f(a, b);
            }
        }
    }

    /// The general 2×2 product on qubit `q`: what every structured
    /// kernel is a pruning of, and the per-shot oracle's one kernel.
    pub(crate) fn apply_single(amps: &mut [Complex], q: usize, m: &Mat2) {
        let (m00, m01) = (m[0][0], m[0][1]);
        let (m10, m11) = (m[1][0], m[1][1]);
        pairs(amps, q, |a, b| {
            let (x, y) = (*a, *b);
            *a = m00 * x + m01 * y;
            *b = m10 * x + m11 * y;
        });
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

    /// Same sweep as [`apply_cz`], multiplying by `phase`.
    pub(crate) fn apply_cp(amps: &mut [Complex], a: usize, b: usize, phase: Complex) {
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

    /// Writes the running sums [`sample_at`] walks — the same additions
    /// in the same order — over `sums`.
    pub(crate) fn running_sums(amps: &[Complex], sums: &mut Vec<f64>) {
        sums.clear();
        let mut acc = 0.0;
        sums.extend(amps.iter().map(|amp| {
            acc += amp.norm_sqr();
            acc
        }));
    }

    /// [`sample_at`] on the [`running_sums`] of a state: they never
    /// decrease, so the first one above `u` is found by bisection.
    pub(crate) fn sample_sums(sums: &[f64], u: f64) -> usize {
        sums.partition_point(|&acc| acc <= u).min(sums.len() - 1)
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

    /// The 16 one-qubit gate kinds on qubit `q`, the parametrised ones
    /// at `angle`.
    fn one_qubit_gates(q: usize, angle: f64) -> [Gate; 16] {
        [
            Gate::I(q),
            Gate::X(q),
            Gate::Y(q),
            Gate::Z(q),
            Gate::H(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::T(q),
            Gate::Tdg(q),
            Gate::Sx(q),
            Gate::Sxdg(q),
            Gate::Rx(q, angle),
            Gate::Ry(q, angle),
            Gate::Rz(q, angle),
            Gate::P(q, angle),
            Gate::U(q, angle, 0.3 - angle, 2.0 * angle),
        ]
    }

    /// A random unnormalised state: `dense`, or with about half of the
    /// real and imaginary parts exactly `0.0` or `-0.0`.
    fn random_state(n: usize, dense: bool, rng: &mut StdRng) -> Statevector {
        let part = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 if !dense => 0.0,
            1 if !dense => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        };
        let amps = (0..1usize << n)
            .map(|_| Complex::new(part(rng), part(rng)))
            .collect();
        Statevector { n, amps }
    }

    /// `==` on amplitudes (`f64`'s: `-0.0 == 0.0`, which is the claim)
    /// and bit equality on every probability and on their sum.
    fn assert_equal_up_to_the_sign_of_a_zero(
        got: &Statevector,
        expected: &Statevector,
        what: &str,
    ) {
        assert_eq!(got.amps, expected.amps, "{what}");
        let bits = |sv: &Statevector| -> Vec<u64> {
            let probabilities = sv.amps.iter().map(|a| a.norm_sqr().to_bits());
            probabilities.chain([sv.norm_sqr().to_bits()]).collect()
        };
        assert_eq!(bits(got), bits(expected), "{what}");
    }

    #[test]
    fn structured_kernels_equal_the_general_kernel() {
        // Every one-qubit gate kind x every qubit of a 1-6 qubit
        // register x dense and sparse states x angles with and without
        // exact structure: the compiled op == the general 2x2 product
        // with the gate's matrix.
        use std::f64::consts::PI;
        let mut rng = StdRng::seed_from_u64(0x5EED_0021);
        for n in 1..=6 {
            for q in 0..n {
                for round in 0..6 {
                    let angle = match round {
                        0 => 0.0,
                        1 => PI,
                        2 => -PI / 2.0,
                        3 => 2.0 * PI,
                        _ => rng.gen_range(-7.0..7.0),
                    };
                    for gate in one_qubit_gates(q, angle) {
                        let state = random_state(n, round % 2 == 0, &mut rng);
                        let mut expected = state.clone();
                        expected.apply_single(q, &single_qubit_matrix(&gate));
                        let mut got = state.clone();
                        let mut mats = Vec::new();
                        let op = kernel::compile(&gate, &mut mats);
                        kernel::run(&mut got.amps, &op, &mats);
                        let what = format!("{gate:?} as {op:?} on {n} qubits");
                        assert_equal_up_to_the_sign_of_a_zero(&got, &expected, &what);
                        // `Statevector::apply` is the same two calls.
                        let mut applied = state;
                        applied.apply(&gate);
                        assert_eq!(applied, got, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_two_qubit_gates_equal_their_kernels() {
        // `Cp` keeps its phase: the compiled op == the kernel handed a
        // fresh `cis`; the three others carry nothing but their qubits.
        let mut rng = StdRng::seed_from_u64(0x5EED_0022);
        for n in 2..=5 {
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    let theta = rng.gen_range(-7.0..7.0);
                    let state = random_state(n, a % 2 == 0, &mut rng);
                    // Each gate's kernel, called directly (`apply_cp`
                    // evaluates a fresh `cis`).
                    let direct = |sv: &mut Statevector, gate: &Gate| match *gate {
                        Gate::Cx(c, t) => sv.apply_cx(c, t),
                        Gate::Cz(a, b) => sv.apply_cz(a, b),
                        Gate::Cp(a, b, theta) => sv.apply_cp(a, b, theta),
                        Gate::Swap(a, b) => sv.apply_swap(a, b),
                        _ => unreachable!("two-qubit gates only"),
                    };
                    let gates = [
                        Gate::Cx(a, b),
                        Gate::Cz(a, b),
                        Gate::Cp(a, b, theta),
                        Gate::Swap(a, b),
                    ];
                    for gate in gates {
                        let mut expected = state.clone();
                        direct(&mut expected, &gate);
                        let mut got = state.clone();
                        let mut mats = Vec::new();
                        let op = kernel::compile(&gate, &mut mats);
                        kernel::run(&mut got.amps, &op, &mats);
                        assert!(mats.is_empty());
                        let what = format!("{gate:?} on {n} qubits");
                        assert_equal_up_to_the_sign_of_a_zero(&got, &expected, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernels_equal_the_scalar_kernels_bit_for_bit() {
        // Every one-qubit gate kind on every qubit at two angles, and
        // every two-qubit kind on every ordered pair, on 3-10 qubits,
        // dense and with signed zeros: the lane body writes the scalar
        // body's bits, signs of zeros included.
        let mut rng = StdRng::seed_from_u64(0x5EED_0027);
        let bits = |amps: &[Complex]| -> Vec<u64> {
            let parts = amps.iter().flat_map(|a| [a.re, a.im]);
            parts.map(f64::to_bits).collect()
        };
        // A register of two qubits or fewer stays on the scalar body.
        let flip = kernel::Op::Flip { q: 0 };
        assert!(!lanes::run(&mut [Complex::one(); 4], &flip, &[]));
        let mut cases = 0;
        for n in 3..=10 {
            let mut gates = Vec::new();
            for q in 0..n {
                for angle in [std::f64::consts::PI, rng.gen_range(-7.0..7.0)] {
                    gates.extend(one_qubit_gates(q, angle));
                }
            }
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    let theta = rng.gen_range(-7.0..7.0);
                    gates.extend([
                        Gate::Cx(a, b),
                        Gate::Cz(a, b),
                        Gate::Cp(a, b, theta),
                        Gate::Swap(a, b),
                    ]);
                }
            }
            for gate in gates {
                let mut mats = Vec::new();
                let op = kernel::compile(&gate, &mut mats);
                for dense in [true, false] {
                    let state = random_state(n, dense, &mut rng);
                    let mut expected = state.amps.clone();
                    kernel::scalar(&mut expected, &op, &mats);
                    let mut got = state.amps;
                    if !lanes::run(&mut got, &op, &mats) {
                        eprintln!("skipped: this CPU has no AVX-512F lane body");
                        return;
                    }
                    let what = format!("{gate:?} as {op:?} on {n} qubits, dense: {dense}");
                    assert_eq!(bits(&got), bits(&expected), "{what}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * (32 * 52 + 4 * 328));
    }

    /// `gate` compiled, with the matrices it left in the side vector.
    fn compiled(gate: Gate) -> (kernel::Op, usize) {
        let mut mats = Vec::new();
        (kernel::compile(&gate, &mut mats), mats.len())
    }

    #[test]
    fn x_compiles_to_the_flip() {
        assert_eq!(compiled(Gate::X(3)), (kernel::Op::Flip { q: 3 }, 0));
    }

    #[test]
    fn phase_gates_compile_to_the_phase_kernel() {
        use kernel::Op::Phase;
        let i = Complex::i();
        assert_eq!(
            compiled(Gate::I(0)).0,
            Phase {
                q: 0,
                d: Complex::one()
            }
        );
        assert_eq!(
            compiled(Gate::Z(1)).0,
            Phase {
                q: 1,
                d: -Complex::one()
            }
        );
        assert_eq!(compiled(Gate::S(2)).0, Phase { q: 2, d: i });
        assert_eq!(compiled(Gate::Sdg(2)).0, Phase { q: 2, d: -i });
        for gate in [Gate::T(0), Gate::Tdg(0), Gate::P(0, 0.9), Gate::P(0, 0.0)] {
            assert!(
                matches!(compiled(gate), (Phase { q: 0, .. }, 0)),
                "{gate:?}"
            );
        }
    }

    #[test]
    fn rz_of_pi_compiles_to_the_diagonal_kernel() {
        // cos(π/2) is 6e-17 in `f64`, not 0: the entries are not purely
        // imaginary, and nothing but the stored zeros is used.
        let (op, mats) = compiled(Gate::Rz(0, std::f64::consts::PI));
        let kernel::Op::Diagonal { q: 0, d0, d1 } = op else {
            panic!("Rz(π) compiled to {op:?}");
        };
        assert!(d0.re != 0.0 && d1.re != 0.0 && mats == 0);
        assert!(matches!(
            compiled(Gate::Rz(4, 0.3)).0,
            kernel::Op::Diagonal { q: 4, .. }
        ));
    }

    #[test]
    fn h_and_ry_compile_to_the_real_kernel() {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(
            compiled(Gate::H(2)),
            (
                kernel::Op::Real {
                    q: 2,
                    m: [[h, h], [h, -h]]
                },
                0
            )
        );
        let (c, s) = (0.35f64.cos(), 0.35f64.sin());
        assert_eq!(
            compiled(Gate::Ry(1, 0.7)).0,
            kernel::Op::Real {
                q: 1,
                m: [[c, -s], [s, c]]
            }
        );
    }

    #[test]
    fn rx_and_y_compile_to_the_cross_kernel() {
        let (c, s) = (0.15f64.cos(), 0.15f64.sin());
        assert_eq!(
            compiled(Gate::Rx(5, 0.3)),
            (
                kernel::Op::Cross {
                    q: 5,
                    d0: c,
                    b01: -s,
                    b10: -s,
                    d1: c
                },
                0
            )
        );
        assert_eq!(
            compiled(Gate::Y(0)).0,
            kernel::Op::Cross {
                q: 0,
                d0: 0.0,
                b01: -1.0,
                b10: 1.0,
                d1: 0.0
            }
        );
    }

    #[test]
    fn u_and_sx_compile_to_the_general_kernel() {
        let mut mats = Vec::new();
        let gates = [Gate::U(1, 0.4, 1.3, -0.6), Gate::Sx(0), Gate::Sxdg(2)];
        for (at, gate) in gates.iter().enumerate() {
            let op = kernel::compile(gate, &mut mats);
            let q = gate.qubits().as_slice()[0] as u32;
            assert_eq!(op, kernel::Op::General { q, mat: at as u32 }, "{gate:?}");
            assert_eq!(mats[at], single_qubit_matrix(gate));
        }
    }

    #[test]
    fn a_rotation_by_zero_compiles_to_what_its_matrix_says() {
        // Ry(0) is [[1, -0], [0, 1]] numerically — a diagonal with a
        // leading one, not "a real matrix because it is an Ry".
        let identity = kernel::Op::Phase {
            q: 0,
            d: Complex::one(),
        };
        assert_eq!(compiled(Gate::Ry(0, 0.0)).0, identity);
        assert_eq!(compiled(Gate::Rx(0, 0.0)).0, identity);
        // U(0, 0, 0) likewise; U(π, 0, π) is X up to rounding only.
        assert_eq!(compiled(Gate::U(0, 0.0, 0.0, 0.0)), (identity, 0));
        assert!(matches!(
            compiled(Gate::U(0, std::f64::consts::PI, 0.0, std::f64::consts::PI)),
            (kernel::Op::General { .. }, 1)
        ));
    }

    #[test]
    fn bisected_running_sums_sample_like_the_walk() {
        // Sparse and dense states, uniforms on, between and past the
        // sums: the first index whose running sum exceeds `u`, or the
        // last index.
        let mut rng = StdRng::seed_from_u64(0x5EED_0023);
        let mut sums = Vec::new();
        for n in 1..=6 {
            for dense in [true, false] {
                let state = random_state(n, dense, &mut rng);
                kernel::running_sums(&state.amps, &mut sums);
                assert_eq!(sums.len(), state.amps.len());
                assert_eq!(sums.last().unwrap().to_bits(), state.norm_sqr().to_bits());
                let total = *sums.last().unwrap();
                let edges: Vec<f64> = sums
                    .iter()
                    .flat_map(|&s| [s, s.next_down(), s.next_up()])
                    .collect();
                let inside = (0..200).map(|_| rng.gen_range(0.0..1.0) * total);
                for u in edges.into_iter().chain(inside).chain([0.0, total * 2.0]) {
                    assert_eq!(
                        kernel::sample_sums(&sums, u),
                        kernel::sample_at(&state.amps, u),
                        "u = {u} on {state:?}"
                    );
                }
            }
        }
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
