//! Exact density-matrix evaluation of the noise model.
//!
//! Walks the *same* trajectory plan as [`crate::run_noisy`] — identical
//! ALAP event stream, identical error probabilities — but evolves the
//! density matrix through the corresponding channels instead of sampling
//! Pauli trajectories:
//!
//! * a gate with error probability `p` becomes the channel
//!   `(1−p)·UρU† + p·(uniform non-identity Pauli conjugations of UρU†)`;
//! * an idle window becomes the Pauli-twirled thermal channel
//!   `(1−px−py−pz)ρ + px·XρX + py·YρY + pz·ZρZ`;
//! * readout becomes a classical confusion map on the diagonal.
//!
//! This gives the exact outcome distribution the Monte-Carlo sampler
//! converges to — used by validation tests (trajectories vs channels)
//! and available wherever sampling noise is unwanted. Exponential in
//! memory (`4^n`), so limited to 12 qubits; parallel programs are ≤ 6.

use qucp_circuit::{Circuit, Gate};
use qucp_device::Device;

use crate::executor::{plan_standalone, Event, ExecutionConfig, NoiseScaling, SimError};
use crate::math::{Complex, Mat2};
use crate::unitaries::single_qubit_matrix;

/// A dense density matrix on `n` qubits (row-major `dim × dim`,
/// little-endian basis indexing like [`crate::Statevector`]): the state
/// [`exact_probabilities`] evolves.
#[derive(Debug, Clone)]
pub(crate) struct DensityMatrix {
    dim: usize,
    rho: Vec<Complex>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 12` (memory grows as `4^n`).
    fn zero_state(n: usize) -> Self {
        assert!(n <= 12, "density matrix limited to 12 qubits, got {n}");
        let dim = 1usize << n;
        let mut rho = vec![Complex::zero(); dim * dim];
        rho[0] = Complex::one();
        DensityMatrix { dim, rho }
    }

    /// The matrix entry `ρ[r][c]`.
    fn entry(&self, r: usize, c: usize) -> Complex {
        self.rho[r * self.dim + c]
    }

    /// Measurement probabilities (the diagonal).
    fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.entry(i, i).re.max(0.0))
            .collect()
    }

    /// Applies a gate unitarily: `ρ ← UρU†`.
    fn apply(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => self.conjugate_permutation(|idx| {
                if idx >> c & 1 == 1 {
                    idx ^ (1 << t)
                } else {
                    idx
                }
            }),
            Gate::Swap(a, b) => self.conjugate_permutation(|idx| {
                let ba = idx >> a & 1;
                let bb = idx >> b & 1;
                if ba == bb {
                    idx
                } else {
                    idx ^ (1 << a) ^ (1 << b)
                }
            }),
            Gate::Cz(a, b) => self.conjugate_diagonal(|idx| {
                if idx >> a & 1 == 1 && idx >> b & 1 == 1 {
                    Complex::real(-1.0)
                } else {
                    Complex::one()
                }
            }),
            Gate::Cp(a, b, theta) => self.conjugate_diagonal(|idx| {
                if idx >> a & 1 == 1 && idx >> b & 1 == 1 {
                    Complex::cis(theta)
                } else {
                    Complex::one()
                }
            }),
            ref g => {
                let q = g.qubits().as_slice()[0];
                self.conjugate_single(q, &single_qubit_matrix(g));
            }
        }
    }

    /// `ρ ← UρU†` for a one-qubit unitary on `q`.
    fn conjugate_single(&mut self, q: usize, u: &Mat2) {
        let bit = 1usize << q;
        // Left: ρ ← Uρ (columns are statevectors over the row index).
        for c in 0..self.dim {
            for r in 0..self.dim {
                if r & bit == 0 {
                    let r2 = r | bit;
                    let a = self.rho[r * self.dim + c];
                    let b = self.rho[r2 * self.dim + c];
                    self.rho[r * self.dim + c] = u[0][0] * a + u[0][1] * b;
                    self.rho[r2 * self.dim + c] = u[1][0] * a + u[1][1] * b;
                }
            }
        }
        // Right: ρ ← ρU† (rows pick up conj(U)).
        for r in 0..self.dim {
            for c in 0..self.dim {
                if c & bit == 0 {
                    let c2 = c | bit;
                    let a = self.rho[r * self.dim + c];
                    let b = self.rho[r * self.dim + c2];
                    self.rho[r * self.dim + c] = a * u[0][0].conj() + b * u[0][1].conj();
                    self.rho[r * self.dim + c2] = a * u[1][0].conj() + b * u[1][1].conj();
                }
            }
        }
    }

    fn conjugate_permutation(&mut self, f: impl Fn(usize) -> usize) {
        let mut out = vec![Complex::zero(); self.dim * self.dim];
        for r in 0..self.dim {
            let fr = f(r);
            for c in 0..self.dim {
                out[fr * self.dim + f(c)] = self.rho[r * self.dim + c];
            }
        }
        self.rho = out;
    }

    fn conjugate_diagonal(&mut self, phase: impl Fn(usize) -> Complex) {
        for r in 0..self.dim {
            let pr = phase(r);
            for c in 0..self.dim {
                let pc = phase(c).conj();
                self.rho[r * self.dim + c] = pr * self.rho[r * self.dim + c] * pc;
            }
        }
    }

    /// The Pauli-twirled channel
    /// `ρ ← (1−px−py−pz)ρ + px·XρX + py·YρY + pz·ZρZ` on qubit `q`.
    fn pauli_channel(&mut self, q: usize, px: f64, py: f64, pz: f64) {
        let keep = 1.0 - px - py - pz;
        let mut acc: Vec<Complex> = self.rho.iter().map(|&z| z.scale(keep)).collect();
        for (p, gate) in [(px, Gate::X(q)), (py, Gate::Y(q)), (pz, Gate::Z(q))] {
            if p > 0.0 {
                let mut term = self.clone();
                term.apply(&gate);
                for (a, b) in acc.iter_mut().zip(&term.rho) {
                    *a += b.scale(p);
                }
            }
        }
        self.rho = acc;
    }

    /// Uniform depolarizing after a gate: with probability `p`, a
    /// uniformly random non-identity Pauli on the gate's operands (3
    /// choices for one qubit, 15 for two) — exactly the channel the
    /// trajectory sampler draws from.
    fn gate_error_channel(&mut self, gate: &Gate, p: f64) {
        if p <= 0.0 {
            return;
        }
        let qs = gate.qubits();
        let qs = qs.as_slice();
        let mut acc: Vec<Complex> = self.rho.iter().map(|&z| z.scale(1.0 - p)).collect();
        if qs.len() == 1 {
            for pauli in [Gate::X(qs[0]), Gate::Y(qs[0]), Gate::Z(qs[0])] {
                let mut term = self.clone();
                term.apply(&pauli);
                for (a, b) in acc.iter_mut().zip(&term.rho) {
                    *a += b.scale(p / 3.0);
                }
            }
        } else {
            for k in 1..16 {
                let (pa, pb) = (k / 4, k % 4);
                let mut term = self.clone();
                if let Some(g) = int_pauli_gate(pa, qs[0]) {
                    term.apply(&g);
                }
                if let Some(g) = int_pauli_gate(pb, qs[1]) {
                    term.apply(&g);
                }
                for (a, b) in acc.iter_mut().zip(&term.rho) {
                    *a += b.scale(p / 15.0);
                }
            }
        }
        self.rho = acc;
    }
}

fn int_pauli_gate(i: usize, q: usize) -> Option<Gate> {
    match i {
        1 => Some(Gate::X(q)),
        2 => Some(Gate::Y(q)),
        3 => Some(Gate::Z(q)),
        _ => None,
    }
}

/// Applies the per-qubit readout confusion to an outcome distribution.
pub fn apply_readout_confusion(probs: &[f64], readout_error: &[f64]) -> Vec<f64> {
    let dim = probs.len();
    let n = readout_error.len();
    assert_eq!(dim, 1 << n, "distribution/readout size mismatch");
    let mut out = probs.to_vec();
    // Qubit-by-qubit binary confusion (tensored assignment matrix).
    for (q, &e) in readout_error.iter().enumerate() {
        let bit = 1usize << q;
        let mut next = vec![0.0; dim];
        for (idx, &p) in out.iter().enumerate() {
            next[idx] += p * (1.0 - e);
            next[idx ^ bit] += p * e;
        }
        out = next;
    }
    out
}

/// Exact outcome distribution of a mapped job under the full noise
/// model — the channel-level counterpart of [`crate::run_noisy`].
///
/// # Errors
///
/// Returns the same [`SimError`] layout diagnostics as the sampler.
///
/// # Panics
///
/// Panics if the circuit exceeds 12 qubits.
pub fn exact_probabilities(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    cfg: &ExecutionConfig,
) -> Result<Vec<f64>, SimError> {
    let plan = plan_standalone(circuit, layout, device, scaling, &[], cfg)?;
    let mut rho = DensityMatrix::zero_state(circuit.width());
    for &ev in &plan.events {
        match ev {
            Event::Gate { index, error_p, .. } => {
                let gate = &circuit.gates()[index as usize];
                rho.apply(gate);
                rho.gate_error_channel(gate, error_p);
            }
            Event::Idle {
                q,
                relax_p,
                dephase_p,
                ..
            } => {
                rho.pauli_channel(q as usize, relax_p / 4.0, relax_p / 4.0, dephase_p / 2.0);
            }
        }
    }
    let mut probs = rho.probabilities();
    if cfg.readout_noise {
        let cal = device.calibration();
        let errors: Vec<f64> = layout.iter().map(|&p| cal.readout_error(p)).collect();
        probs = apply_readout_confusion(&probs, &errors);
    }
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Statevector;
    use qucp_device::{Calibration, CrosstalkModel, Topology};

    impl DensityMatrix {
        /// Trace (should be 1).
        fn trace(&self) -> Complex {
            (0..self.dim)
                .map(|i| self.entry(i, i))
                .fold(Complex::zero(), |a, b| a + b)
        }

        /// Purity `Tr(ρ²)` — 1 for pure states, `1/dim` when fully mixed.
        fn purity(&self) -> f64 {
            let mut acc = 0.0;
            for r in 0..self.dim {
                for c in 0..self.dim {
                    acc += (self.entry(r, c) * self.entry(c, r)).re;
                }
            }
            acc
        }
    }

    fn line_device(n: usize, cx: f64, ro: f64) -> Device {
        let t = Topology::line(n);
        let cal = Calibration::uniform(&t, cx, 1e-4, ro);
        Device::new("dm", t, cal, CrosstalkModel::none())
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cx(1, 2)
            .ry(2, 0.7)
            .cz(0, 2)
            .swap(0, 2)
            .cp(1, 2, 0.3);
        let sv = Statevector::from_circuit(&c);
        let mut dm = DensityMatrix::zero_state(3);
        for g in c.gates() {
            dm.apply(g);
        }
        let p_sv = sv.probabilities();
        let p_dm = dm.probabilities();
        for (a, b) in p_sv.iter().zip(&p_dm) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((dm.purity() - 1.0).abs() < 1e-9);
        assert!(dm.trace().approx_eq(Complex::one(), 1e-10));
    }

    #[test]
    fn depolarizing_mixes_state() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.gate_error_channel(&Gate::X(0), 0.75); // maximal 1q depolarizing
                                                  // Fully mixed: diag(1/2, 1/2).
        let p = dm.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[1] - 0.5).abs() < 1e-10);
        assert!((dm.purity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pauli_channel_dephases() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply(&Gate::H(0));
        assert!(dm.entry(0, 1).abs() > 0.4);
        dm.pauli_channel(0, 0.0, 0.0, 0.5); // full dephasing
        assert!(dm.entry(0, 1).abs() < 1e-10);
        // Diagonal untouched.
        assert!((dm.probabilities()[0] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn trace_preserved_by_channels() {
        let mut dm = DensityMatrix::zero_state(2);
        dm.apply(&Gate::H(0));
        dm.apply(&Gate::Cx(0, 1));
        dm.gate_error_channel(&Gate::Cx(0, 1), 0.2);
        dm.pauli_channel(1, 0.05, 0.05, 0.1);
        assert!(dm.trace().approx_eq(Complex::one(), 1e-10));
        let total: f64 = dm.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn readout_confusion_single_qubit() {
        let probs = vec![1.0, 0.0];
        let out = apply_readout_confusion(&probs, &[0.1]);
        assert!((out[0] - 0.9).abs() < 1e-12);
        assert!((out[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn readout_confusion_preserves_normalization() {
        let probs = vec![0.4, 0.1, 0.3, 0.2];
        let out = apply_readout_confusion(&probs, &[0.05, 0.2]);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_probabilities_noise_free_matches_ideal() {
        let dev = line_device(2, 0.0, 0.0);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cfg = ExecutionConfig::default();
        let p = exact_probabilities(&c, &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn exact_probabilities_reflect_readout() {
        let dev = line_device(1, 0.0, 0.25);
        let c = Circuit::new(1);
        let cfg = ExecutionConfig::default();
        let p = exact_probabilities(&c, &[0], &dev, &NoiseScaling::uniform(0), &cfg).unwrap();
        assert!((p[1] - 0.25).abs() < 1e-10);
    }

    #[test]
    fn layout_errors_propagate() {
        let dev = line_device(2, 0.0, 0.0);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let cfg = ExecutionConfig::default();
        let err =
            exact_probabilities(&c, &[0, 0], &dev, &NoiseScaling::uniform(1), &cfg).unwrap_err();
        assert!(matches!(err, SimError::LayoutNotInjective { .. }));
    }
}
