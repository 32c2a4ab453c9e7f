//! The [`Circuit`] container: an ordered gate list on a fixed register.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::CircuitError;
use crate::gate::Gate;

/// An ordered quantum circuit on `width` qubits.
///
/// Measurement of every qubit at the end of the circuit is implicit, which
/// matches the benchmarks of the paper (all of them measure the full
/// register). Gates are stored in program order; scheduling into moments is
/// performed by [`crate::schedule`].
///
/// ```
/// use qucp_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.gate_count(), 2);
/// assert_eq!(c.cx_count(), 1);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    width: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `width` qubits named `"circuit"`.
    pub fn new(width: usize) -> Self {
        Circuit {
            name: "circuit".to_string(),
            width,
            gates: Vec::new(),
        }
    }

    /// Creates an empty named circuit on `width` qubits.
    pub fn with_name(width: usize, name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            width,
            gates: Vec::new(),
        }
    }

    /// The circuit name (used in reports and QASM headers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Consumes the circuit, keeping its name: the report of a job
    /// whose circuit is spent takes the string instead of copying it.
    pub fn into_name(self) -> String {
        self.name
    }

    /// Renames the circuit in place.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits in the register.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of two-qubit gates of any kind.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of CNOT gates (the metric reported in Table II of the paper).
    pub fn cx_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_cx()).count()
    }

    /// Number of one-qubit gates.
    pub fn single_qubit_count(&self) -> usize {
        self.gates.len() - self.two_qubit_count()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Makes room for exactly `additional` more gates, in one heap
    /// request: a builder that knows how many gates it will push sizes
    /// the circuit once instead of growing it push by push.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve_exact(additional);
    }

    /// Appends a gate, validating its operands.
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`] if an operand exceeds the register,
    /// [`CircuitError::DuplicateQubit`] if a two-qubit gate repeats a qubit.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        let qs = gate.qubits();
        for q in &qs {
            if q >= self.width {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    width: self.width,
                });
            }
        }
        let s = qs.as_slice();
        if s.len() == 2 && s[0] == s[1] {
            return Err(CircuitError::DuplicateQubit { qubit: s[0] });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics on the conditions documented at [`Circuit::try_push`]. The
    /// builder methods ([`Circuit::h`], [`Circuit::cx`], …) use this method.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.try_push(gate)
            .unwrap_or_else(|e| panic!("invalid gate {gate:?}: {e}"));
        self
    }

    /// Appends every gate of `other` (same width required).
    ///
    /// # Errors
    ///
    /// [`CircuitError::WidthMismatch`] if `other` is wider than `self`.
    pub fn try_extend_from(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if other.width > self.width {
            return Err(CircuitError::WidthMismatch {
                expected: self.width,
                found: other.width,
            });
        }
        self.gates.extend_from_slice(&other.gates);
        Ok(())
    }

    /// Returns a new circuit with the gates of `self` followed by `other`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WidthMismatch`] if widths differ.
    pub fn compose(&self, other: &Circuit) -> Result<Circuit, CircuitError> {
        if other.width != self.width {
            return Err(CircuitError::WidthMismatch {
                expected: self.width,
                found: other.width,
            });
        }
        let mut out = self.clone();
        out.gates.extend_from_slice(&other.gates);
        Ok(out)
    }

    /// The inverse circuit (gates reversed, each inverted symbolically).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            name: format!("{}_dg", self.name),
            width: self.width,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// The set of qubits touched by at least one gate.
    pub fn used_qubits(&self) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        for g in &self.gates {
            for q in &g.qubits() {
                set.insert(q);
            }
        }
        set
    }

    /// Circuit depth: the number of moments under greedy as-soon-as-possible
    /// layering (each gate occupies one moment on each of its qubits).
    ///
    /// A register of up to 128 qubits keeps its per-qubit levels on the
    /// stack, so asking (as a job submission does) costs no heap
    /// request; a wider one sizes one vector.
    pub fn depth(&self) -> usize {
        const INLINE: usize = 128;
        let mut inline = [0usize; INLINE];
        let mut wide = Vec::new();
        let level: &mut [usize] = if self.width <= INLINE {
            &mut inline[..self.width]
        } else {
            wide.resize(self.width, 0);
            &mut wide
        };
        let mut depth = 0;
        for g in &self.gates {
            let start = g.qubits().into_iter().map(|q| level[q]).max().unwrap_or(0);
            for q in &g.qubits() {
                level[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }

    /// Per-mnemonic gate counts, ordered by name.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for g in &self.gates {
            *map.entry(g.name()).or_insert(0) += 1;
        }
        map
    }

    /// The logical interaction graph: two-qubit gate multiplicity per
    /// unordered qubit pair, ascending by pair. (The noise-aware initial
    /// mapper builds the same weights as a sorted vector in the buffers
    /// its caller lends.)
    pub fn interaction_graph(&self) -> BTreeMap<(usize, usize), usize> {
        let mut map = BTreeMap::new();
        for g in &self.gates {
            if g.is_two_qubit() {
                let s = g.qubits();
                let s = s.as_slice();
                let key = (s[0].min(s[1]), s[0].max(s[1]));
                *map.entry(key).or_insert(0) += 1;
            }
        }
        map
    }

    /// Whether every gate maps computational basis states to basis states,
    /// i.e. the noiseless output is a single deterministic bitstring.
    pub fn is_classically_deterministic(&self) -> bool {
        self.gates.iter().all(Gate::preserves_computational_basis)
    }

    /// Re-indexes every gate through `mapping` (logical index → new index)
    /// onto a register of `new_width` qubits.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidMapping`] if the mapping misses a used qubit,
    /// is not injective on used qubits, or exceeds `new_width`.
    pub fn remap(&self, mapping: &[usize], new_width: usize) -> Result<Circuit, CircuitError> {
        let used = self.used_qubits();
        let mut seen = BTreeSet::new();
        for &q in &used {
            let Some(&target) = mapping.get(q) else {
                return Err(CircuitError::InvalidMapping {
                    reason: format!("qubit {q} is used but not mapped"),
                });
            };
            if target >= new_width {
                return Err(CircuitError::InvalidMapping {
                    reason: format!("qubit {q} maps to {target} >= width {new_width}"),
                });
            }
            if !seen.insert(target) {
                return Err(CircuitError::InvalidMapping {
                    reason: format!("mapping is not injective at physical qubit {target}"),
                });
            }
        }
        let gates = self
            .gates
            .iter()
            .map(|g| g.map_qubits(|q| mapping[q]))
            .collect();
        Ok(Circuit {
            name: self.name.clone(),
            width: new_width,
            gates,
        })
    }

    /// Removes adjacent inverse gate pairs (`h h`, `cx cx`, `s sdg`, …),
    /// cascades included (`s h h sdg` folds to nothing); returns the
    /// number of gates removed.
    ///
    /// One pass in place: the kept gates are a stack at the front of the
    /// gate list, and each gate either cancels the top — its partner is
    /// the gate kept last, so no gate in between touches an operand — or
    /// is pushed. Every adjacent pair of kept gates was compared when
    /// the second was pushed, so a second call removes nothing.
    ///
    /// This is the light peephole pass applied before mapping, standing in
    /// for Qiskit's `optimization_level=3` cancellation stage.
    pub fn cancel_adjacent_inverses(&mut self) -> usize {
        let mut kept = 0usize;
        for read in 0..self.gates.len() {
            let g = self.gates[read];
            let last = kept.checked_sub(1).map(|top| self.gates[top]);
            if last.is_some_and(|last| last == g.inverse() && last.qubits() == g.qubits()) {
                kept -= 1;
            } else {
                self.gates[kept] = g;
                kept += 1;
            }
        }
        let removed = self.gates.len() - kept;
        self.gates.truncate(kept);
        removed
    }

    /// Serializes the circuit as OpenQASM 2.0 with terminal measurement.
    pub fn to_qasm(&self) -> String {
        let mut s = String::new();
        s.push_str("OPENQASM 2.0;\n");
        s.push_str("include \"qelib1.inc\";\n");
        s.push_str(&format!("qreg q[{}];\n", self.width));
        s.push_str(&format!("creg c[{}];\n", self.width));
        for g in &self.gates {
            s.push_str(&g.to_string());
            s.push('\n');
        }
        for q in 0..self.width {
            s.push_str(&format!("measure q[{q}] -> c[{q}];\n"));
        }
        s
    }

    // ----- builder methods ------------------------------------------------
    //
    // Every builder panics on invalid operands (see `push`).

    /// Appends an identity marker on `q`.
    pub fn id(&mut self, q: usize) -> &mut Self {
        self.push(Gate::I(q))
    }

    /// Appends X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends S on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends S† on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }

    /// Appends T on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Appends T† on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg(q))
    }

    /// Appends √X on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sx(q))
    }

    /// Appends Rx(θ) on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }

    /// Appends Ry(θ) on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }

    /// Appends Rz(θ) on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }

    /// Appends a phase gate P(θ) on `q`.
    pub fn p(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::P(q, theta))
    }

    /// Appends the generic U(θ, φ, λ) on `q`.
    pub fn u(&mut self, q: usize, theta: f64, phi: f64, lambda: f64) -> &mut Self {
        self.push(Gate::U(q, theta, phi, lambda))
    }

    /// Appends CNOT with the given control and target.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(control, target))
    }

    /// Appends CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends a controlled phase CP(θ).
    pub fn cp(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::Cp(a, b, theta))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends the standard 15-gate, 6-CNOT Toffoli decomposition with
    /// controls `a`, `b` and target `c`.
    pub fn ccx(&mut self, a: usize, b: usize, c: usize) -> &mut Self {
        self.h(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(b)
            .t(c)
            .cx(a, b)
            .h(c)
            .t(a)
            .tdg(b)
            .cx(a, b)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <{} qubits, {} gates, {} cx, depth {}>",
            self.name,
            self.width,
            self.gate_count(),
            self.cx_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2).swap(0, 2);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.cx_count(), 2);
        assert_eq!(c.two_qubit_count(), 3);
        assert_eq!(c.single_qubit_count(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::H(2)).unwrap_err();
        assert_eq!(err, CircuitError::QubitOutOfRange { qubit: 2, width: 2 });
    }

    #[test]
    fn try_push_rejects_duplicate() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::Cx(1, 1)).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: 1 });
    }

    #[test]
    #[should_panic(expected = "invalid gate")]
    fn push_panics_out_of_range() {
        let mut c = Circuit::new(1);
        c.cx(0, 1);
    }

    #[test]
    fn depth_parallel_gates() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn depth_empty_is_zero() {
        assert_eq!(Circuit::new(5).depth(), 0);
    }

    #[test]
    fn used_qubits_subset() {
        let mut c = Circuit::new(5);
        c.h(1).cx(1, 3);
        let used: Vec<usize> = c.used_qubits().into_iter().collect();
        assert_eq!(used, vec![1, 3]);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gates(), &[Gate::Cx(0, 1), Gate::Tdg(0), Gate::H(0)]);
        assert_eq!(inv.name(), "circuit_dg");
    }

    #[test]
    fn compose_same_width() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        let c = a.compose(&b).unwrap();
        assert_eq!(c.gate_count(), 2);
        let wide = Circuit::new(3);
        assert!(a.compose(&wide).is_err());
    }

    #[test]
    fn remap_to_physical() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mapped = c.remap(&[5, 9], 10).unwrap();
        assert_eq!(mapped.gates(), &[Gate::H(5), Gate::Cx(5, 9)]);
        assert_eq!(mapped.width(), 10);
    }

    #[test]
    fn remap_rejects_non_injective() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let err = c.remap(&[3, 3], 5).unwrap_err();
        assert!(matches!(err, CircuitError::InvalidMapping { .. }));
    }

    #[test]
    fn remap_rejects_out_of_range_target() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(c.remap(&[7], 5).is_err());
    }

    #[test]
    fn interaction_graph_weights() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 0).cx(1, 2);
        let g = c.interaction_graph();
        assert_eq!(g[&(0, 1)], 2);
        assert_eq!(g[&(1, 2)], 1);
    }

    #[test]
    fn determinism_classification() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        assert!(c.is_classically_deterministic());
        c.h(1);
        assert!(!c.is_classically_deterministic());
    }

    #[test]
    fn cancellation_removes_pairs() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1).cx(0, 1).t(0);
        let removed = c.cancel_adjacent_inverses();
        assert_eq!(removed, 4);
        assert_eq!(c.gates(), &[Gate::T(0)]);
    }

    #[test]
    fn cancellation_cascades() {
        let mut c = Circuit::new(1);
        c.s(0).h(0).h(0).sdg(0);
        let removed = c.cancel_adjacent_inverses();
        assert_eq!(removed, 4);
        assert!(c.is_empty());
    }

    #[test]
    fn cancellation_respects_interleaving() {
        // cx(0,1) h(0) cx(0,1): the h blocks cancellation on qubit 0.
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).cx(0, 1);
        assert_eq!(c.cancel_adjacent_inverses(), 0);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn ccx_has_paper_counts() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.gate_count(), 15);
        assert_eq!(c.cx_count(), 6);
    }

    #[test]
    fn qasm_round_structure() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let q = c.to_qasm();
        assert!(q.contains("qreg q[2];"));
        assert!(q.contains("h q[0];"));
        assert!(q.contains("cx q[0],q[1];"));
        assert!(q.contains("measure q[1] -> c[1];"));
    }

    #[test]
    fn display_summary() {
        let mut c = Circuit::with_name(2, "bell");
        c.h(0).cx(0, 1);
        assert_eq!(c.to_string(), "bell <2 qubits, 2 gates, 1 cx, depth 2>");
    }

    #[test]
    fn count_ops_by_name() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let ops = c.count_ops();
        assert_eq!(ops["h"], 2);
        assert_eq!(ops["cx"], 1);
    }
}
