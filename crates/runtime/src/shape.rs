//! Circuit shapes: the structural identity the plan memo keys on,
//! interned once per submission (after the peephole fold).
//!
//! Planning never reads a circuit's name, so the memo of planning
//! work — the probes' lists of head copies, whole committed plans —
//! is keyed by what planning does read: the width and the exact gate
//! sequence. [`ShapeTable::intern`] turns a submitted circuit into a
//! [`Shape`] handle such that two handles are the same handle exactly
//! when their circuits have the same shape. The table is a std
//! `HashSet` of the encoded gate sequences: the hash only narrows the
//! search and the set decides by `[u64]` equality, word for word, so a
//! hash collision costs a second comparison, never a wrong cache entry.
//! Cache keys hold the handles themselves and compare them by identity:
//! nothing is replayed on the strength of a hash.
//!
//! The set holds each of its shapes strongly; a sweep
//! ([`ShapeTable::sweep`]) keeps only the ones something besides the
//! table holds — a pending job or a cache key — so the table adds no
//! state that outlives the queue and the caches past the next sweep.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qucp_circuit::{Circuit, Gate};

/// Operands below this pack into a gate's first word.
const NARROW: usize = 1 << 28;
/// Flag of a first word whose operands follow in two words of their
/// own.
const WIDE: u64 = 1 << 7;

/// Writes `circuit`'s shape into `code`: the width, then per gate its
/// variant tag and operands and the bit patterns of its angles.
///
/// The code is **injective** — equal codes mean equal shapes, which is
/// what lets [`ShapeTable::intern`] compare codes instead of circuits:
/// a gate's first word carries its tag (which fixes how many angle
/// words follow) and either both operands or the [`WIDE`] flag (then
/// the operands are the next two words), so a code reads back
/// unambiguously, word by word. The match has no wildcard arm: a new
/// gate variant gets its tag here before the crate compiles, so it
/// cannot silently alias another.
fn encode(circuit: &Circuit, code: &mut Vec<u64>) {
    let plain = |tag, q| (tag, q, 0, [0.0; 3], 0);
    let angle = |tag, q, theta| (tag, q, 0, [theta, 0.0, 0.0], 1);
    code.clear();
    code.push(circuit.width() as u64);
    for gate in circuit.gates() {
        let (tag, a, b, angles, angle_count): (u64, usize, usize, [f64; 3], usize) = match *gate {
            Gate::I(q) => plain(0, q),
            Gate::X(q) => plain(1, q),
            Gate::Y(q) => plain(2, q),
            Gate::Z(q) => plain(3, q),
            Gate::H(q) => plain(4, q),
            Gate::S(q) => plain(5, q),
            Gate::Sdg(q) => plain(6, q),
            Gate::T(q) => plain(7, q),
            Gate::Tdg(q) => plain(8, q),
            Gate::Sx(q) => plain(9, q),
            Gate::Sxdg(q) => plain(10, q),
            Gate::Rx(q, t) => angle(11, q, t),
            Gate::Ry(q, t) => angle(12, q, t),
            Gate::Rz(q, t) => angle(13, q, t),
            Gate::P(q, t) => angle(14, q, t),
            Gate::U(q, t, p, l) => (15, q, 0, [t, p, l], 3),
            Gate::Cx(a, b) => (16, a, b, [0.0; 3], 0),
            Gate::Cz(a, b) => (17, a, b, [0.0; 3], 0),
            Gate::Cp(a, b, t) => (18, a, b, [t, 0.0, 0.0], 1),
            Gate::Swap(a, b) => (19, a, b, [0.0; 3], 0),
        };
        if a < NARROW && b < NARROW {
            code.push(tag | (a as u64) << 8 | (b as u64) << 36);
        } else {
            code.extend([tag | WIDE, a as u64, b as u64]);
        }
        code.extend(angles[..angle_count].iter().map(|theta| theta.to_bits()));
    }
}

/// The interned *shape* of a submitted circuit — its width and exact
/// gate sequence, its name excluded — so replicated copies
/// (`fredkin#0`, `fredkin#1`) share every cache entry.
///
/// ## The equality rule
///
/// Two circuits have the same shape iff they have the same width and
/// the same number of gates, and each pair of gates is the same
/// variant on the same operands with angle parameters of identical
/// **bit patterns** (`f64::to_bits`). `Rz(q, 0.0)` and `Rz(q, -0.0)`
/// are therefore different shapes, two NaN angles with equal bits are
/// the same shape, and two NaNs with different payloads are not: a
/// shape never claims more than that planning saw the very same input.
///
/// Handles of one [`ShapeTable`] compare (and hash) by identity, which
/// the table makes equivalent to the rule above for live handles.
#[derive(Debug, Clone)]
pub(crate) struct Shape(Arc<[u64]>);

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(Arc::as_ptr(&self.0), state);
    }
}

/// The service's shape interner (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ShapeTable {
    /// Every shape handed out since the last sweep dropped it. The
    /// set's `RandomState` is keyed per table: submitted circuits come
    /// from outside the process, and a crafted pile-up on one bucket
    /// would make every submit walk it.
    shapes: HashSet<Arc<[u64]>>,
    /// The code of the circuit being interned (kept for its capacity).
    code: Vec<u64>,
    /// The set's size at which the next miss sweeps first.
    sweep_at: usize,
}

impl ShapeTable {
    /// The handle of `circuit`'s shape: the one every live job and
    /// cache key of that shape already holds, or a new one. A known
    /// shape allocates nothing.
    pub(crate) fn intern(&mut self, circuit: &Circuit) -> Shape {
        encode(circuit, &mut self.code);
        if let Some(known) = self.shapes.get(self.code.as_slice()) {
            return Shape(Arc::clone(known));
        }
        // Swept before the shapes nothing holds could outnumber the
        // ones held at the last sweep: amortized O(1) per new shape,
        // and the table is bounded by the held shapes, not by the
        // shapes ever seen.
        if self.shapes.len() >= self.sweep_at {
            self.sweep();
        }
        let shape: Arc<[u64]> = self.code.as_slice().into();
        self.shapes.insert(Arc::clone(&shape));
        Shape(shape)
    }

    /// Drops the shapes nothing but the table holds. The service calls
    /// this after a cache invalidation — the one place cache keys die
    /// in bulk — so a drained, invalidated service holds no shape.
    pub(crate) fn sweep(&mut self) {
        self.shapes.retain(|shape| Arc::strong_count(shape) > 1);
        self.sweep_at = 2 * self.shapes.len() + 1;
    }

    /// Shapes held (ones nothing else holds included until the next
    /// sweep).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shapes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_circuit::library;

    fn bell() -> Circuit {
        library::by_name("bell").unwrap().circuit()
    }

    /// Reads a code back into the circuit it was written from.
    fn decode(code: &[u64]) -> Circuit {
        let mut words = code.iter().copied();
        let mut circuit = Circuit::new(words.next().expect("the width") as usize);
        while let Some(first) = words.next() {
            let mut word = || words.next().expect("the tag says another word follows");
            let (a, b) = match first & WIDE {
                0 => ((first >> 8) as usize % NARROW, (first >> 36) as usize),
                _ => (word() as usize, word() as usize),
            };
            let mut t = || f64::from_bits(word());
            circuit.push(match first & (WIDE - 1) {
                0 => Gate::I(a),
                1 => Gate::X(a),
                2 => Gate::Y(a),
                3 => Gate::Z(a),
                4 => Gate::H(a),
                5 => Gate::S(a),
                6 => Gate::Sdg(a),
                7 => Gate::T(a),
                8 => Gate::Tdg(a),
                9 => Gate::Sx(a),
                10 => Gate::Sxdg(a),
                11 => Gate::Rx(a, t()),
                12 => Gate::Ry(a, t()),
                13 => Gate::Rz(a, t()),
                14 => Gate::P(a, t()),
                15 => Gate::U(a, t(), t(), t()),
                16 => Gate::Cx(a, b),
                17 => Gate::Cz(a, b),
                18 => Gate::Cp(a, b, t()),
                19 => Gate::Swap(a, b),
                tag => panic!("no gate has tag {tag}"),
            });
        }
        circuit
    }

    /// Equal codes mean equal shapes because a code reads back into
    /// exactly the circuit it was written from — every gate variant,
    /// operands past the packed range, and angles bit for bit.
    #[test]
    fn a_code_reads_back_into_its_circuit() {
        let mut every_gate = Circuit::new(4 * NARROW);
        let (far, nan) = (NARROW + 3, f64::from_bits(f64::NAN.to_bits() ^ 5));
        every_gate.id(0).x(1).y(2).z(3).h(0).s(1).sdg(2).t(3).tdg(0);
        every_gate.sx(NARROW - 1).push(Gate::Sxdg(far));
        every_gate
            .rx(0, 0.25)
            .ry(far, -0.0)
            .rz(2, nan)
            .p(3, f64::INFINITY);
        every_gate.u(1, 0.1, -0.2, 0.3).u(far, 0.0, 0.0, 0.5);
        every_gate
            .cx(0, NARROW - 1)
            .cx(NARROW - 1, 0)
            .cx(far, 1)
            .cx(1, far);
        every_gate.cz(2, 3).cp(far, far + 1, 1e-300).swap(0, 1);
        let library = library::TABLE2.iter().map(|b| b.circuit());
        let mut code = Vec::new();
        for circuit in library.chain([every_gate, Circuit::new(7)]) {
            encode(&circuit, &mut code);
            let back = decode(&code);
            assert_eq!(back.width(), circuit.width());
            // Variant, operands, and the angles as bits (NaN != NaN).
            let parts = |c: &Circuit| -> Vec<_> {
                let bits = |g: &Gate| g.params().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                let gates = c.gates().iter();
                gates
                    .map(|g| (std::mem::discriminant(g), g.qubits(), bits(g)))
                    .collect()
            };
            assert_eq!(parts(&back), parts(&circuit), "{}", circuit.name());
        }
    }

    /// The port of `shape_fingerprint_ignores_names_but_not_gates`.
    #[test]
    fn a_renamed_copy_shares_its_shape_one_more_gate_does_not() {
        let mut table = ShapeTable::default();
        let shape = table.intern(&bell());
        let mut renamed = bell();
        renamed.set_name("other");
        assert_eq!(table.intern(&renamed), shape);
        let mut grown = bell();
        grown.h(0);
        let grown = table.intern(&grown);
        assert_ne!(grown, shape);
        // The same gates on a wider register are another shape.
        let mut wider = Circuit::new(bell().width() + 1);
        wider.try_extend_from(&bell()).unwrap();
        let wider = table.intern(&wider);
        assert!(wider != shape && wider != grown);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn angles_compare_by_bit_pattern() {
        let rz = |theta: f64| {
            let mut c = Circuit::new(1);
            c.rz(0, theta);
            c
        };
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() ^ 1);
        assert!(payload.is_nan());
        let mut table = ShapeTable::default();
        let zero = table.intern(&rz(0.0));
        assert_ne!(table.intern(&rz(-0.0)), zero, "0.0 == -0.0, bits differ");
        let nan = table.intern(&rz(quiet));
        assert_eq!(table.intern(&rz(quiet)), nan, "NaN != NaN, bits agree");
        assert_ne!(table.intern(&rz(payload)), nan);
        // The variant and the angle's slot are part of the gate.
        let mut rx = Circuit::new(1);
        rx.rx(0, 0.0);
        assert_ne!(table.intern(&rx), zero);
        let (mut u1, mut u2) = (Circuit::new(1), Circuit::new(1));
        u1.u(0, 0.5, 0.0, 0.0);
        u2.u(0, 0.0, 0.5, 0.0);
        assert_ne!(table.intern(&u1), table.intern(&u2));
    }

    #[test]
    fn a_shape_lives_as_long_as_its_handles() {
        let angled = |theta: f64| {
            let mut c = bell();
            c.rz(0, theta);
            c
        };
        let mut table = ShapeTable::default();
        let held = table.intern(&bell());
        let sweep: Vec<Shape> = (0..100)
            .map(|i| table.intern(&angled(f64::from(i))))
            .collect();
        assert_eq!(table.len(), 101);
        drop(sweep);
        // Shapes that come and go never pile up: a miss sweeps before
        // the unheld could outnumber what was held at the last sweep.
        for i in 100..2000 {
            table.intern(&angled(f64::from(i)));
            assert!(table.len() <= 2 * 101 + 1, "{} at {i}", table.len());
        }
        // A live shape survives any sweep with its identity...
        table.sweep();
        assert_eq!(table.len(), 1);
        assert_eq!(table.intern(&bell()), held);
        // ...and a table nobody holds a handle of is empty.
        drop(held);
        table.sweep();
        assert_eq!(table.len(), 0);
    }
}
