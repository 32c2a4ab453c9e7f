//! The benchmark suite of Table II of the paper, plus a few generic circuit
//! generators used by examples and tests.
//!
//! The eight benchmarks are reconstructions of the RevLib / QASMBench
//! circuits the paper evaluates, with the **exact qubit / gate / CNOT
//! counts of Table II** and the same result class: reversible-logic
//! circuits (`adder`, `4mod5-v1_22`, `fredkin`, `alu-v0_27`) are built from
//! basis-preserving gate networks so their noiseless output is a single
//! bitstring (evaluated with PST), while the remaining four produce
//! distributions (evaluated with JSD). Circuits are embedded as OpenQASM
//! 2.0 and parsed by [`crate::parse_qasm`], which keeps the parser honest.

use std::sync::OnceLock;

use crate::circuit::Circuit;
use crate::qasm::parse_qasm;

/// How the noiseless output of a benchmark is evaluated (Table II "Result").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultKind {
    /// The ideal output is a single bitstring; fidelity is measured with
    /// the Probability of a Successful Trial (PST), Eq. (2) of the paper.
    Deterministic,
    /// The ideal output is a distribution; fidelity is measured with the
    /// Jensen-Shannon divergence (JSD), Eq. (3) of the paper.
    Distribution,
}

/// Expected structural statistics of a benchmark (the Table II row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkStats {
    /// Number of qubits.
    pub qubits: usize,
    /// Total gate count.
    pub gates: usize,
    /// CNOT count.
    pub cx: usize,
}

/// One benchmark of the paper's Table II.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Canonical benchmark name as printed in the paper.
    pub name: &'static str,
    /// Short name used on the figure axes (`adder`, `4mod`, `fred`, …).
    pub short_name: &'static str,
    /// Result class: deterministic (PST) or distribution (JSD).
    pub result: ResultKind,
    /// The Table II row this reconstruction matches.
    pub stats: BenchmarkStats,
    /// OpenQASM 2.0 source.
    pub qasm: &'static str,
}

impl Benchmark {
    /// The embedded QASM as a circuit named after the benchmark. A
    /// [`TABLE2`] entry is parsed once per process and cloned after
    /// that; any other benchmark value parses its own source.
    ///
    /// # Panics
    ///
    /// Never panics for the embedded benchmarks (covered by tests); the
    /// QASM sources are fixed at compile time.
    pub fn circuit(&self) -> Circuit {
        static PARSED: [OnceLock<Circuit>; TABLE2.len()] =
            [const { OnceLock::new() }; TABLE2.len()];
        match TABLE2
            .iter()
            .position(|b| b.name == self.name && b.qasm == self.qasm)
        {
            Some(i) => PARSED[i].get_or_init(|| self.parse()).clone(),
            None => self.parse(),
        }
    }

    /// Parses the embedded QASM into a circuit named after the benchmark.
    fn parse(&self) -> Circuit {
        let mut c = parse_qasm(self.qasm)
            .unwrap_or_else(|e| panic!("embedded benchmark `{}` failed to parse: {e}", self.name));
        c.set_name(self.name);
        c
    }
}

const ADDER_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// 1-bit full adder with carry (IBM QX tutorial form): a=q0, b=q1,
// sum into q2, carry into q3.
qreg q[4];
creg c[4];
x q[0];
x q[1];
h q[3];
cx q[2],q[3];
t q[0];
t q[1];
t q[2];
tdg q[3];
cx q[0],q[1];
cx q[2],q[3];
cx q[3],q[0];
cx q[1],q[2];
cx q[0],q[1];
cx q[2],q[3];
tdg q[0];
tdg q[1];
tdg q[2];
t q[3];
cx q[0],q[1];
cx q[2],q[3];
s q[3];
cx q[3],q[0];
h q[3];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
"#;

const LINEARSOLVER_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// 2x2 linear system solver sketch (HHL-lite): controlled rotations on an
// ancilla conditioned on two equation qubits.
qreg q[3];
creg c[3];
ry(0.3) q[0];
ry(0.7) q[1];
rz(1.1) q[2];
h q[0];
h q[1];
ry(pi/8) q[2];
cx q[0],q[2];
ry(pi/4) q[2];
cx q[1],q[2];
ry(-pi/4) q[2];
cx q[0],q[2];
ry(-pi/8) q[2];
cx q[1],q[2];
h q[0];
h q[1];
rz(pi/4) q[2];
h q[2];
s q[0];
t q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"#;

const FOURMOD5_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// 4mod5-v1_22 (RevLib): reversible mod-5 block on 5 lines, CX/X network.
qreg q[5];
creg c[5];
x q[1];
x q[4];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
x q[2];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
x q[3];
cx q[4],q[0];
cx q[0],q[1];
cx q[1],q[2];
x q[0];
cx q[3],q[4];
cx q[4],q[0];
x q[4];
x q[3];
x q[0];
x q[1];
x q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
measure q[4] -> c[4];
"#;

const FREDKIN_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// Controlled swap: control q0, targets q1/q2, on input |110>.
qreg q[3];
creg c[3];
x q[0];
x q[1];
cx q[2],q[1];
h q[2];
cx q[1],q[2];
tdg q[2];
cx q[0],q[2];
t q[2];
cx q[1],q[2];
tdg q[2];
cx q[0],q[2];
t q[1];
t q[2];
cx q[0],q[1];
h q[2];
t q[0];
tdg q[1];
cx q[0],q[1];
cx q[2],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"#;

const QEC_EN_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// 5-qubit error-correction encoder sketch: data qubit q0 spread over a
// bit-flip block, syndrome qubits entangled in the X basis.
qreg q[5];
creg c[5];
ry(pi/3) q[0];
cx q[0],q[1];
cx q[0],q[2];
h q[3];
h q[4];
cx q[3],q[0];
cx q[3],q[1];
cx q[4],q[1];
cx q[4],q[2];
t q[0];
tdg q[1];
t q[2];
s q[3];
sdg q[4];
cx q[0],q[3];
cx q[2],q[4];
h q[0];
h q[1];
h q[2];
x q[3];
x q[4];
rz(0.5) q[0];
ry(0.25) q[1];
cx q[1],q[3];
cx q[2],q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
measure q[4] -> c[4];
"#;

const ALU_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// alu-v0_27 (RevLib): one-bit ALU slice; two Toffoli stages feeding a CX
// propagate network.
qreg q[5];
creg c[5];
x q[0];
ccx q[0],q[1],q[2];
ccx q[2],q[3],q[4];
cx q[0],q[1];
cx q[2],q[3];
cx q[4],q[0];
cx q[1],q[2];
cx q[3],q[4];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
measure q[4] -> c[4];
"#;

const BELL_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// Dressed Bell-pair preparation over four qubits with rotation padding.
qreg q[4];
creg c[4];
h q[0];
h q[1];
h q[2];
h q[3];
rz(pi/8) q[0];
rz(pi/4) q[1];
rz(3*pi/8) q[2];
rz(pi/2) q[3];
cx q[0],q[1];
cx q[2],q[3];
ry(pi/5) q[0];
ry(2*pi/5) q[1];
ry(3*pi/5) q[2];
ry(4*pi/5) q[3];
cx q[1],q[2];
rz(pi/7) q[0];
rz(2*pi/7) q[1];
rz(3*pi/7) q[2];
rz(4*pi/7) q[3];
cx q[0],q[1];
cx q[2],q[3];
ry(pi/9) q[0];
ry(2*pi/9) q[1];
ry(pi/6) q[2];
ry(pi/3) q[3];
cx q[3],q[0];
s q[0];
t q[1];
sdg q[2];
tdg q[3];
h q[0];
h q[2];
cx q[1],q[3];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
"#;

const VARIATION_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// Hardware-efficient variational ansatz instance: four RyRz + ring-CX
// layers and a final rotation layer.
qreg q[4];
creg c[4];
ry(0.1) q[0];
rz(0.2) q[0];
ry(0.3) q[1];
rz(0.4) q[1];
ry(0.5) q[2];
rz(0.6) q[2];
ry(0.7) q[3];
rz(0.8) q[3];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[0];
ry(0.9) q[0];
rz(1.0) q[0];
ry(1.1) q[1];
rz(1.2) q[1];
ry(1.3) q[2];
rz(1.4) q[2];
ry(1.5) q[3];
rz(1.6) q[3];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[0];
ry(1.7) q[0];
rz(1.8) q[0];
ry(1.9) q[1];
rz(2.0) q[1];
ry(2.1) q[2];
rz(2.2) q[2];
ry(2.3) q[3];
rz(2.4) q[3];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[0];
ry(2.5) q[0];
rz(2.6) q[0];
ry(2.7) q[1];
rz(2.8) q[1];
ry(2.9) q[2];
rz(3.0) q[2];
ry(3.1) q[3];
rz(0.15) q[3];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[0];
ry(0.25) q[0];
ry(0.35) q[1];
ry(0.45) q[2];
ry(0.55) q[3];
rz(0.65) q[0];
rz(0.75) q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
"#;

/// The eight Table II benchmarks in the paper's row order.
pub const TABLE2: [Benchmark; 8] = [
    Benchmark {
        name: "adder",
        short_name: "adder",
        result: ResultKind::Deterministic,
        stats: BenchmarkStats {
            qubits: 4,
            gates: 23,
            cx: 10,
        },
        qasm: ADDER_QASM,
    },
    Benchmark {
        name: "linearsolver",
        short_name: "lin",
        result: ResultKind::Distribution,
        stats: BenchmarkStats {
            qubits: 3,
            gates: 19,
            cx: 4,
        },
        qasm: LINEARSOLVER_QASM,
    },
    Benchmark {
        name: "4mod5-v1_22",
        short_name: "4mod",
        result: ResultKind::Deterministic,
        stats: BenchmarkStats {
            qubits: 5,
            gates: 21,
            cx: 11,
        },
        qasm: FOURMOD5_QASM,
    },
    Benchmark {
        name: "fredkin",
        short_name: "fred",
        result: ResultKind::Deterministic,
        stats: BenchmarkStats {
            qubits: 3,
            gates: 19,
            cx: 8,
        },
        qasm: FREDKIN_QASM,
    },
    Benchmark {
        name: "qec_en",
        short_name: "qec",
        result: ResultKind::Distribution,
        stats: BenchmarkStats {
            qubits: 5,
            gates: 25,
            cx: 10,
        },
        qasm: QEC_EN_QASM,
    },
    Benchmark {
        name: "alu-v0_27",
        short_name: "alu",
        result: ResultKind::Deterministic,
        stats: BenchmarkStats {
            qubits: 5,
            gates: 36,
            cx: 17,
        },
        qasm: ALU_QASM,
    },
    Benchmark {
        name: "bell",
        short_name: "bell",
        result: ResultKind::Distribution,
        stats: BenchmarkStats {
            qubits: 4,
            gates: 33,
            cx: 7,
        },
        qasm: BELL_QASM,
    },
    Benchmark {
        name: "variation",
        short_name: "var",
        result: ResultKind::Distribution,
        stats: BenchmarkStats {
            qubits: 4,
            gates: 54,
            cx: 16,
        },
        qasm: VARIATION_QASM,
    },
];

/// All Table II benchmarks.
pub fn all() -> &'static [Benchmark] {
    &TABLE2
}

/// Looks a benchmark up by either its full or short name.
pub fn by_name(name: &str) -> Option<&'static Benchmark> {
    TABLE2
        .iter()
        .find(|b| b.name == name || b.short_name == name)
}

/// A GHZ state preparation circuit on `n` qubits (H then a CNOT chain).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ghz(n: usize) -> Circuit {
    assert!(n > 0, "ghz requires at least one qubit");
    let mut c = Circuit::with_name(n, format!("ghz_{n}"));
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c
}

/// The quantum Fourier transform on `n` qubits (without the final qubit
/// reversal), built from H and controlled-phase gates.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qft(n: usize) -> Circuit {
    assert!(n > 0, "qft requires at least one qubit");
    let mut c = Circuit::with_name(n, format!("qft_{n}"));
    for i in 0..n {
        c.h(i);
        for j in i + 1..n {
            let angle = std::f64::consts::PI / f64::powi(2.0, (j - i) as i32);
            c.cp(j, i, angle);
        }
    }
    c
}

/// A W-state preparation circuit on `n` qubits using the cascade of
/// controlled rotations (ideal output: equal superposition of the `n`
/// one-hot bitstrings).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn w_state(n: usize) -> Circuit {
    assert!(n > 0, "w_state requires at least one qubit");
    let mut c = Circuit::with_name(n, format!("w_{n}"));
    c.x(0);
    for k in 1..n {
        // Move (n-k)/(n-k+1) of the remaining excitation from qubit k-1
        // onto qubit k: a controlled-Ry (decomposed Ry/CX/Ry/CX) followed
        // by a CX that shifts the transferred excitation.
        let moved = (n - k) as f64 / ((n - k) as f64 + 1.0);
        let theta = 2.0 * moved.sqrt().asin();
        c.ry(k, theta / 2.0);
        c.cx(k - 1, k);
        c.ry(k, -theta / 2.0);
        c.cx(k - 1, k);
        c.cx(k, k - 1);
    }
    c
}

/// Bernstein–Vazirani for an `n`-bit `secret` with an explicit ancilla
/// on the last wire (width `n + 1`). Deterministic: measures the secret.
///
/// # Panics
///
/// Panics if `n == 0` or `secret >= 2^n`.
pub fn bernstein_vazirani(n: usize, secret: usize) -> Circuit {
    assert!(n > 0, "bernstein_vazirani requires at least one data qubit");
    assert!(secret < (1 << n), "secret does not fit in {n} bits");
    let mut c = Circuit::with_name(n + 1, format!("bv_{n}_{secret:b}"));
    c.x(n).h(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        if secret >> q & 1 == 1 {
            c.cx(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c.h(n).x(n);
    c
}

/// One QAOA layer for MaxCut on a ring of `n` vertices: the standard
/// `H^{⊗n} · e^{-iγ Σ Z_i Z_{i+1}} · e^{-iβ Σ X_i}` circuit with the ZZ
/// terms compiled to CX·Rz·CX.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn qaoa_maxcut_ring(n: usize, gamma: f64, beta: f64) -> Circuit {
    assert!(n >= 3, "a ring needs at least 3 vertices");
    let mut c = Circuit::with_name(n, format!("qaoa_ring_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for i in 0..n {
        let j = (i + 1) % n;
        c.cx(i, j);
        c.rz(j, 2.0 * gamma);
        c.cx(i, j);
    }
    for q in 0..n {
        c.rx(q, 2.0 * beta);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts_match_paper() {
        for b in all() {
            let c = b.circuit();
            assert_eq!(c.width(), b.stats.qubits, "{} qubits", b.name);
            assert_eq!(c.gate_count(), b.stats.gates, "{} gates", b.name);
            assert_eq!(c.cx_count(), b.stats.cx, "{} cx", b.name);
        }
    }

    #[test]
    fn a_table2_circuit_is_its_parsed_source_and_a_copy_parses_its_own() {
        for b in all() {
            assert_eq!(b.circuit(), b.parse(), "{}", b.name);
            assert_eq!(b.circuit(), b.circuit(), "{}", b.name);
        }
        // A caller-built benchmark under a table name, with other source,
        // is not served the table's circuit.
        let fredkin = by_name("fredkin").unwrap();
        let impostor = Benchmark {
            qasm: by_name("bell").unwrap().qasm,
            ..*fredkin
        };
        let circuit = impostor.circuit();
        assert_eq!(circuit.name(), "fredkin");
        assert_eq!(circuit.width(), by_name("bell").unwrap().stats.qubits);
        assert_ne!(circuit, fredkin.circuit());
    }

    #[test]
    fn table2_row_order_matches_paper() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "adder",
                "linearsolver",
                "4mod5-v1_22",
                "fredkin",
                "qec_en",
                "alu-v0_27",
                "bell",
                "variation"
            ]
        );
    }

    #[test]
    fn result_kind_classification() {
        assert_eq!(by_name("adder").unwrap().result, ResultKind::Deterministic);
        assert_eq!(
            by_name("fredkin").unwrap().result,
            ResultKind::Deterministic
        );
        assert_eq!(
            by_name("4mod5-v1_22").unwrap().result,
            ResultKind::Deterministic
        );
        assert_eq!(
            by_name("alu-v0_27").unwrap().result,
            ResultKind::Deterministic
        );
        assert_eq!(by_name("bell").unwrap().result, ResultKind::Distribution);
        assert_eq!(
            by_name("linearsolver").unwrap().result,
            ResultKind::Distribution
        );
        assert_eq!(by_name("qec_en").unwrap().result, ResultKind::Distribution);
        assert_eq!(
            by_name("variation").unwrap().result,
            ResultKind::Distribution
        );
    }

    #[test]
    fn classical_benchmarks_are_basis_preserving() {
        // The X/CX-network reconstructions must be deterministic by
        // construction; the Toffoli-based ones are verified end-to-end by
        // the simulator tests in qucp-sim.
        let c = by_name("4mod5-v1_22").unwrap().circuit();
        assert!(c.is_classically_deterministic());
    }

    #[test]
    fn lookup_by_short_name() {
        assert_eq!(by_name("4mod").unwrap().name, "4mod5-v1_22");
        assert_eq!(by_name("lin").unwrap().name, "linearsolver");
        assert_eq!(by_name("var").unwrap().name, "variation");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn ghz_structure() {
        let c = ghz(4);
        assert_eq!(c.width(), 4);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.cx_count(), 3);
        assert_eq!(c.depth(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn ghz_zero_panics() {
        ghz(0);
    }

    #[test]
    fn qft_gate_count() {
        // n H gates + n(n-1)/2 controlled-phase gates.
        let c = qft(4);
        assert_eq!(c.gate_count(), 4 + 6);
        assert_eq!(c.two_qubit_count(), 6);
    }

    #[test]
    fn benchmarks_use_all_declared_qubits() {
        for b in all() {
            let c = b.circuit();
            assert_eq!(
                c.used_qubits().len(),
                b.stats.qubits,
                "{} should touch all of its qubits",
                b.name
            );
        }
    }

    #[test]
    fn benchmark_names_unique() {
        let mut names: Vec<&str> = all().iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn circuits_are_reparsable_from_writer() {
        for b in all() {
            let c = b.circuit();
            let round = crate::parse_qasm(&c.to_qasm()).unwrap();
            assert_eq!(round.gate_count(), c.gate_count(), "{}", b.name);
            assert_eq!(round.cx_count(), c.cx_count(), "{}", b.name);
        }
    }

    #[test]
    fn w_state_structure() {
        let c = w_state(3);
        assert_eq!(c.width(), 3);
        assert!(c.cx_count() >= 3);
        assert!(!c.is_classically_deterministic());
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn w_state_zero_panics() {
        w_state(0);
    }

    #[test]
    fn bernstein_vazirani_structure() {
        let c = bernstein_vazirani(4, 0b1011);
        assert_eq!(c.width(), 5);
        // One CX per set secret bit.
        assert_eq!(c.cx_count(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn bernstein_vazirani_oversized_secret_panics() {
        bernstein_vazirani(2, 7);
    }

    #[test]
    fn qaoa_ring_structure() {
        let c = qaoa_maxcut_ring(4, 0.3, 0.7);
        assert_eq!(c.width(), 4);
        assert_eq!(c.cx_count(), 8); // 2 per ring edge
        assert_eq!(c.count_ops()["rx"], 4);
        assert_eq!(c.count_ops()["rz"], 4);
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn qaoa_small_ring_panics() {
        qaoa_maxcut_ring(2, 0.1, 0.1);
    }
}
