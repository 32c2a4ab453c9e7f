//! Elementary gate set of the QuCP intermediate representation.
//!
//! The gate set mirrors the OpenQASM 2.0 `qelib1.inc` subset used by the
//! RevLib / QASMBench circuits evaluated in the paper, plus the `swap` gate
//! inserted by routing. Every gate knows its operands, its symbolic inverse,
//! and a few structural predicates used by the scheduler, the optimizer and
//! the noise model.

use std::fmt;

/// A fixed-capacity operand list (quantum gates act on one or two qubits).
///
/// Returned by [`Gate::qubits`]; iterate it or view it with
/// [`Qubits::as_slice`].
///
/// ```
/// use qucp_circuit::Gate;
/// let g = Gate::Cx(0, 3);
/// assert_eq!(g.qubits().as_slice(), &[0, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qubits {
    buf: [usize; 2],
    len: u8,
}

impl Qubits {
    /// Operand list of a one-qubit gate.
    pub fn one(q: usize) -> Self {
        Qubits {
            buf: [q, 0],
            len: 1,
        }
    }

    /// Operand list of a two-qubit gate.
    pub fn two(a: usize, b: usize) -> Self {
        Qubits {
            buf: [a, b],
            len: 2,
        }
    }

    /// The operands as a slice, in gate-argument order.
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }

    /// Number of operands (1 or 2).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: a gate has at least one operand.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `q` is one of the operands.
    pub fn contains(&self, q: usize) -> bool {
        self.as_slice().contains(&q)
    }
}

impl<'a> IntoIterator for &'a Qubits {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

/// An elementary quantum gate.
///
/// One-qubit variants carry the qubit index first, then any Euler angles in
/// radians. Two-qubit variants are `(control, target)` for controlled gates
/// and unordered for [`Gate::Swap`] (the IR keeps the textual order).
///
/// ```
/// use qucp_circuit::Gate;
/// let g = Gate::Ry(2, std::f64::consts::FRAC_PI_2);
/// assert!(!g.is_two_qubit());
/// assert_eq!(g.inverse(), Gate::Ry(2, -std::f64::consts::FRAC_PI_2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle marker).
    I(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Hadamard.
    H(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Inverse phase gate.
    Sdg(usize),
    /// T = diag(1, e^{iπ/4}).
    T(usize),
    /// Inverse T gate.
    Tdg(usize),
    /// Square root of X.
    Sx(usize),
    /// Inverse square root of X.
    Sxdg(usize),
    /// Rotation about X by the given angle.
    Rx(usize, f64),
    /// Rotation about Y by the given angle.
    Ry(usize, f64),
    /// Rotation about Z by the given angle.
    Rz(usize, f64),
    /// Phase rotation diag(1, e^{iθ}).
    P(usize, f64),
    /// Generic one-qubit gate U(θ, φ, λ) in the OpenQASM 2 convention.
    U(usize, f64, f64, f64),
    /// Controlled-X with `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z with `(control, target)` (symmetric).
    Cz(usize, usize),
    /// Controlled phase with `(control, target, angle)` (symmetric).
    Cp(usize, usize, f64),
    /// Swap of two qubits (inserted by routing).
    Swap(usize, usize),
}

impl Gate {
    /// The OpenQASM 2.0 mnemonic of the gate.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I(_) => "id",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Sx(_) => "sx",
            Gate::Sxdg(_) => "sxdg",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::P(..) => "p",
            Gate::U(..) => "u3",
            Gate::Cx(..) => "cx",
            Gate::Cz(..) => "cz",
            Gate::Cp(..) => "cp",
            Gate::Swap(..) => "swap",
        }
    }

    /// Operand qubits in argument order.
    pub fn qubits(&self) -> Qubits {
        match *self {
            Gate::I(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Sx(q)
            | Gate::Sxdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::P(q, _)
            | Gate::U(q, ..) => Qubits::one(q),
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Cp(a, b, _) | Gate::Swap(a, b) => {
                Qubits::two(a, b)
            }
        }
    }

    /// Whether the gate acts on two qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            Gate::Cx(..) | Gate::Cz(..) | Gate::Cp(..) | Gate::Swap(..)
        )
    }

    /// Whether this is a CNOT (the native entangler on IBM devices).
    pub fn is_cx(&self) -> bool {
        matches!(self, Gate::Cx(..))
    }

    /// Euler angles carried by the gate, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(_, t)
            | Gate::Ry(_, t)
            | Gate::Rz(_, t)
            | Gate::P(_, t)
            | Gate::Cp(_, _, t) => {
                vec![t]
            }
            Gate::U(_, t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// The symbolic inverse of the gate.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::I(q) => Gate::I(q),
            Gate::X(q) => Gate::X(q),
            Gate::Y(q) => Gate::Y(q),
            Gate::Z(q) => Gate::Z(q),
            Gate::H(q) => Gate::H(q),
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Sx(q) => Gate::Sxdg(q),
            Gate::Sxdg(q) => Gate::Sx(q),
            Gate::Rx(q, t) => Gate::Rx(q, -t),
            Gate::Ry(q, t) => Gate::Ry(q, -t),
            Gate::Rz(q, t) => Gate::Rz(q, -t),
            Gate::P(q, t) => Gate::P(q, -t),
            Gate::U(q, t, p, l) => Gate::U(q, -t, -l, -p),
            Gate::Cx(a, b) => Gate::Cx(a, b),
            Gate::Cz(a, b) => Gate::Cz(a, b),
            Gate::Cp(a, b, t) => Gate::Cp(a, b, -t),
            Gate::Swap(a, b) => Gate::Swap(a, b),
        }
    }

    /// Whether the gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I(_)
                | Gate::Z(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::T(_)
                | Gate::Tdg(_)
                | Gate::Rz(..)
                | Gate::P(..)
                | Gate::Cz(..)
                | Gate::Cp(..)
        )
    }

    /// Whether the gate maps every computational basis state to a single
    /// computational basis state (possibly with a phase).
    ///
    /// Circuits built only from such gates have a deterministic noiseless
    /// measurement outcome — the "Result = 1" class of Table II benchmarks.
    pub fn preserves_computational_basis(&self) -> bool {
        self.is_diagonal()
            || matches!(
                self,
                Gate::X(_) | Gate::Y(_) | Gate::Cx(..) | Gate::Swap(..)
            )
    }

    /// Re-index the operands of the gate through `f`.
    ///
    /// Used to lay a logical circuit onto physical qubits.
    pub fn map_qubits(&self, mut f: impl FnMut(usize) -> usize) -> Gate {
        match *self {
            Gate::I(q) => Gate::I(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::H(q) => Gate::H(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Sx(q) => Gate::Sx(f(q)),
            Gate::Sxdg(q) => Gate::Sxdg(f(q)),
            Gate::Rx(q, t) => Gate::Rx(f(q), t),
            Gate::Ry(q, t) => Gate::Ry(f(q), t),
            Gate::Rz(q, t) => Gate::Rz(f(q), t),
            Gate::P(q, t) => Gate::P(f(q), t),
            Gate::U(q, t, p, l) => Gate::U(f(q), t, p, l),
            Gate::Cx(a, b) => Gate::Cx(f(a), f(b)),
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::Cp(a, b, t) => Gate::Cp(f(a), f(b), t),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
        }
    }
}

impl fmt::Display for Gate {
    /// Formats the gate as an OpenQASM 2.0 statement (without newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())?;
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format_angle(*p)).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))?;
        }
        let qs: Vec<String> = self
            .qubits()
            .into_iter()
            .map(|q| format!("q[{q}]"))
            .collect();
        write!(f, " {};", qs.join(","))
    }
}

/// Renders an angle compactly, using `pi` fractions when exact.
fn format_angle(theta: f64) -> String {
    let pi = std::f64::consts::PI;
    for denom in 1..=16_i64 {
        for numer in -32..=32_i64 {
            if numer == 0 {
                continue;
            }
            let v = pi * numer as f64 / denom as f64;
            if (v - theta).abs() < 1e-12 {
                return match (numer, denom) {
                    (1, 1) => "pi".to_string(),
                    (-1, 1) => "-pi".to_string(),
                    (n, 1) => format!("{n}*pi"),
                    (1, d) => format!("pi/{d}"),
                    (-1, d) => format!("-pi/{d}"),
                    (n, d) => format!("{n}*pi/{d}"),
                };
            }
        }
    }
    format!("{theta:.12}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn qubits_one_and_two() {
        assert_eq!(Gate::H(3).qubits().as_slice(), &[3]);
        assert_eq!(Gate::Cx(1, 2).qubits().as_slice(), &[1, 2]);
        assert_eq!(Gate::Cx(1, 2).qubits().len(), 2);
        assert!(Gate::Cx(1, 2).qubits().contains(2));
        assert!(!Gate::Cx(1, 2).qubits().contains(0));
        assert!(!Gate::H(0).qubits().is_empty());
    }

    #[test]
    fn two_qubit_predicate() {
        assert!(Gate::Cx(0, 1).is_two_qubit());
        assert!(Gate::Swap(0, 1).is_two_qubit());
        assert!(Gate::Cz(0, 1).is_two_qubit());
        assert!(!Gate::H(0).is_two_qubit());
        assert!(Gate::Cx(0, 1).is_cx());
        assert!(!Gate::Cz(0, 1).is_cx());
    }

    #[test]
    fn inverse_round_trip() {
        let gates = [
            Gate::X(0),
            Gate::H(1),
            Gate::S(0),
            Gate::T(2),
            Gate::Sx(1),
            Gate::Rx(0, 0.3),
            Gate::Ry(0, -1.2),
            Gate::Rz(3, 2.5),
            Gate::P(0, 0.7),
            Gate::U(0, 0.1, 0.2, 0.3),
            Gate::Cx(0, 1),
            Gate::Cz(1, 2),
            Gate::Cp(0, 1, 0.4),
            Gate::Swap(2, 3),
        ];
        for g in gates {
            assert_eq!(g.inverse().inverse(), g, "double inverse of {g:?}");
        }
    }

    #[test]
    fn s_and_t_invert_to_daggers() {
        assert_eq!(Gate::S(0).inverse(), Gate::Sdg(0));
        assert_eq!(Gate::Tdg(0).inverse(), Gate::T(0));
        assert_eq!(Gate::Sxdg(4).inverse(), Gate::Sx(4));
    }

    #[test]
    fn basis_preservation() {
        assert!(Gate::X(0).preserves_computational_basis());
        assert!(Gate::Cx(0, 1).preserves_computational_basis());
        assert!(Gate::T(0).preserves_computational_basis());
        assert!(Gate::Rz(0, 0.3).preserves_computational_basis());
        assert!(!Gate::H(0).preserves_computational_basis());
        assert!(!Gate::Ry(0, 0.3).preserves_computational_basis());
        assert!(!Gate::U(0, 1.0, 0.0, 0.0).preserves_computational_basis());
    }

    #[test]
    fn map_qubits_shifts_operands() {
        let g = Gate::Cx(0, 1).map_qubits(|q| q + 10);
        assert_eq!(g, Gate::Cx(10, 11));
        let g = Gate::Ry(2, 0.5).map_qubits(|q| q * 3);
        assert_eq!(g, Gate::Ry(6, 0.5));
    }

    #[test]
    fn qasm_display() {
        assert_eq!(Gate::H(0).to_string(), "h q[0];");
        assert_eq!(Gate::Cx(1, 2).to_string(), "cx q[1],q[2];");
        assert_eq!(Gate::Rz(0, PI / 2.0).to_string(), "rz(pi/2) q[0];");
        assert_eq!(Gate::Rz(0, -PI).to_string(), "rz(-pi) q[0];");
        assert_eq!(
            Gate::U(0, PI, 0.0, PI).to_string(),
            "u3(pi,0.000000000000,pi) q[0];"
        );
    }

    #[test]
    fn angle_formatting_fractions() {
        assert_eq!(format_angle(PI), "pi");
        assert_eq!(format_angle(-PI / 4.0), "-pi/4");
        assert_eq!(format_angle(3.0 * PI / 4.0), "3*pi/4");
        assert_eq!(format_angle(2.0 * PI), "2*pi");
        assert_eq!(format_angle(0.123), "0.123000000000");
    }

    #[test]
    fn params_exposed() {
        assert!(Gate::H(0).params().is_empty());
        assert_eq!(Gate::Rx(0, 1.5).params(), vec![1.5]);
        assert_eq!(Gate::U(0, 1.0, 2.0, 3.0).params(), vec![1.0, 2.0, 3.0]);
    }
}
