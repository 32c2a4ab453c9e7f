//! Models of the three IBM devices the paper evaluates on.
//!
//! * [`melbourne`] — IBM Q 16 Melbourne (15 usable qubits, Fig. 1). The
//!   CNOT error rates are transcribed from the values printed in the
//!   paper's Fig. 1 (×10⁻²), assigned in canonical link order.
//! * [`toronto`] — IBM Q 27 Toronto (27-qubit Falcon heavy-hex lattice,
//!   Fig. 2 and the Fig. 3 experiments).
//! * [`manhattan`] — IBM Q 65 Manhattan (65-qubit Hummingbird heavy-hex
//!   lattice, the Fig. 4/5/6 experiments).
//!
//! Topologies are the published coupling maps; calibrations and crosstalk
//! factors are synthesized from fixed seeds: the 2021 daily snapshots the
//! paper ran on are not shipped with the repository, so these are twins
//! with the published topologies and error ranges, not those
//! calibrations.

use crate::calibration::{Calibration, NoiseProfile};
use crate::crosstalk::{CrosstalkModel, CrosstalkProfile};
use crate::device::Device;
use crate::link::Link;
use crate::topology::Topology;

/// Calibration seed for Melbourne.
pub const MELBOURNE_SEED: u64 = 16;
/// Calibration seed for Toronto.
pub const TORONTO_SEED: u64 = 27;
/// Calibration seed for Manhattan.
pub const MANHATTAN_SEED: u64 = 65;
/// Offset added to a device seed to derive its crosstalk seed.
pub const CROSSTALK_SEED_OFFSET: u64 = 1000;

/// The 20-link coupling map of IBM Q 16 Melbourne (15 usable qubits),
/// drawn as in the paper's Fig. 1: a 7-qubit top row (0–6), an 8-qubit
/// bottom row (7–14), and vertical rungs.
pub fn melbourne_topology() -> Topology {
    let edges = [
        // top row
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        // vertical rungs
        (0, 14),
        (1, 13),
        (2, 12),
        (3, 11),
        (4, 10),
        (5, 9),
        (6, 8),
        // bottom row
        (7, 8),
        (8, 9),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
    ];
    Topology::new(15, &edges)
}

/// CNOT error rates printed in the paper's Fig. 1 (×10⁻²), in the edge
/// order of [`melbourne_topology`].
pub const MELBOURNE_FIG1_CX_ERRORS: [f64; 20] = [
    2.1, 3.1, 1.9, 5.9, 1.1, 5.3, // top row
    2.8, 2.9, 3.7, 4.0, 5.4, 4.9, 4.4, // rungs
    2.6, 6.2, 3.7, 2.4, 2.8, 2.7, 2.7, // bottom row
];

/// IBM Q 16 Melbourne with the Fig. 1 CNOT error rates.
pub fn melbourne() -> Device {
    let topo = melbourne_topology();
    let mut cal = Calibration::synthesize(&topo, MELBOURNE_SEED, &NoiseProfile::default());
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (0, 14),
        (1, 13),
        (2, 12),
        (3, 11),
        (4, 10),
        (5, 9),
        (6, 8),
        (7, 8),
        (8, 9),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
    ];
    for (i, &(a, b)) in edges.iter().enumerate() {
        cal.set_cx_error(Link::new(a, b), MELBOURNE_FIG1_CX_ERRORS[i] / 100.0);
    }
    let xtalk = CrosstalkModel::synthesize(
        &topo,
        MELBOURNE_SEED + CROSSTALK_SEED_OFFSET,
        &CrosstalkProfile::default(),
    );
    Device::new("ibmq_16_melbourne", topo, cal, xtalk)
}

/// The 28-link coupling map of IBM Q 27 Toronto (Falcon heavy-hex).
pub fn toronto_topology() -> Topology {
    let edges = [
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (3, 5),
        (4, 7),
        (5, 8),
        (6, 7),
        (7, 10),
        (8, 9),
        (8, 11),
        (10, 12),
        (11, 14),
        (12, 13),
        (12, 15),
        (13, 14),
        (14, 16),
        (15, 18),
        (16, 19),
        (17, 18),
        (18, 21),
        (19, 20),
        (19, 22),
        (21, 23),
        (22, 25),
        (23, 24),
        (24, 25),
        (25, 26),
    ];
    Topology::new(27, &edges)
}

/// IBM Q 27 Toronto with a seeded synthetic calibration.
pub fn toronto() -> Device {
    let topo = toronto_topology();
    let cal = Calibration::synthesize(&topo, TORONTO_SEED, &NoiseProfile::default());
    let xtalk = CrosstalkModel::synthesize(
        &topo,
        TORONTO_SEED + CROSSTALK_SEED_OFFSET,
        &CrosstalkProfile::default(),
    );
    Device::new("ibmq_toronto", topo, cal, xtalk)
}

/// The 72-link coupling map of IBM Q 65 Manhattan (Hummingbird heavy-hex):
/// five horizontal rows of qubits joined by vertical rungs.
pub fn manhattan_topology() -> Topology {
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(72);
    let chain = |edges: &mut Vec<(usize, usize)>, from: usize, to: usize| {
        for q in from..to {
            edges.push((q, q + 1));
        }
    };
    chain(&mut edges, 0, 9); // row A: 0..=9
    edges.extend_from_slice(&[(0, 10), (4, 11), (8, 12)]);
    chain(&mut edges, 13, 23); // row B: 13..=23
    edges.extend_from_slice(&[(10, 13), (11, 17), (12, 21)]);
    edges.extend_from_slice(&[(15, 24), (19, 25), (23, 26)]);
    chain(&mut edges, 27, 37); // row C: 27..=37
    edges.extend_from_slice(&[(24, 29), (25, 33), (26, 37)]);
    edges.extend_from_slice(&[(27, 38), (31, 39), (35, 40)]);
    chain(&mut edges, 41, 51); // row D: 41..=51
    edges.extend_from_slice(&[(38, 41), (39, 45), (40, 49)]);
    edges.extend_from_slice(&[(43, 52), (47, 53), (51, 54)]);
    chain(&mut edges, 55, 64); // row E: 55..=64
    edges.extend_from_slice(&[(52, 56), (53, 60), (54, 64)]);
    Topology::new(65, &edges)
}

/// IBM Q 65 Manhattan with a seeded synthetic calibration.
pub fn manhattan() -> Device {
    let topo = manhattan_topology();
    let cal = Calibration::synthesize(&topo, MANHATTAN_SEED, &NoiseProfile::default());
    let xtalk = CrosstalkModel::synthesize(
        &topo,
        MANHATTAN_SEED + CROSSTALK_SEED_OFFSET,
        &CrosstalkProfile::default(),
    );
    Device::new("ibmq_manhattan", topo, cal, xtalk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn melbourne_matches_fig1() {
        let d = melbourne();
        assert_eq!(d.num_qubits(), 15);
        assert_eq!(d.topology().num_links(), 20);
        assert!(d.topology().is_connected());
        // Spot-check the transcribed Fig. 1 values.
        assert!((d.cx_error(0, 1) - 0.021).abs() < 1e-12);
        assert!((d.cx_error(3, 4) - 0.059).abs() < 1e-12);
        assert!((d.cx_error(4, 5) - 0.011).abs() < 1e-12);
        assert!((d.cx_error(8, 9) - 0.062).abs() < 1e-12);
    }

    #[test]
    fn toronto_shape() {
        let d = toronto();
        assert_eq!(d.num_qubits(), 27);
        assert_eq!(d.topology().num_links(), 28);
        assert!(d.topology().is_connected());
        // Heavy-hex: no qubit exceeds degree 3.
        for q in 0..27 {
            assert!(d.topology().degree(q) <= 3, "qubit {q} has degree > 3");
        }
    }

    #[test]
    fn manhattan_shape() {
        let d = manhattan();
        assert_eq!(d.num_qubits(), 65);
        assert_eq!(d.topology().num_links(), 72);
        assert!(d.topology().is_connected());
        for q in 0..65 {
            assert!(d.topology().degree(q) <= 3, "qubit {q} has degree > 3");
        }
    }

    #[test]
    fn all_qubits_used_in_manhattan() {
        let t = manhattan_topology();
        for q in 0..65 {
            assert!(t.degree(q) >= 1, "qubit {q} is isolated");
        }
    }

    #[test]
    fn devices_are_reproducible() {
        assert_eq!(toronto(), toronto());
        assert_eq!(manhattan(), manhattan());
        assert_eq!(melbourne(), melbourne());
    }

    #[test]
    fn crosstalk_present_on_all_devices() {
        assert!(melbourne().crosstalk().num_pairs() > 0);
        assert!(toronto().crosstalk().num_pairs() > 0);
        assert!(manhattan().crosstalk().num_pairs() > 0);
    }

    #[test]
    fn table1_qubit_row() {
        // Table I of the paper: 27 and 65 qubits.
        assert_eq!(toronto().num_qubits(), 27);
        assert_eq!(manhattan().num_qubits(), 65);
    }
}
