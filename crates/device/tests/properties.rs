//! Property-based tests for topologies, calibrations and crosstalk models.

use proptest::prelude::*;
use qucp_device::{
    ibm, Calibration, CrosstalkModel, CrosstalkProfile, NoiseProfile, Topology, UNREACHABLE,
};

/// Strategy producing a random connected topology of 4..12 qubits: a
/// spanning line plus random chords.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (4usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n).prop_map(move |extra| {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            for (a, b) in extra {
                if a != b {
                    edges.push((a, b));
                }
            }
            Topology::new(n, &edges)
        })
    })
}

/// Adjacency and hop counts as the topology kept them before they were
/// flat: one sorted vector per qubit, one BFS (with a queue of its own)
/// per start qubit.
fn nested(n: usize, edges: &[(usize, usize)]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut adjacency = vec![Vec::new(); n];
    for &(a, b) in edges {
        if !adjacency[a].contains(&b) {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
    }
    for row in &mut adjacency {
        row.sort_unstable();
    }
    let mut distance = vec![vec![UNREACHABLE; n]; n];
    for (start, row) in distance.iter_mut().enumerate() {
        row[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(q) = queue.pop_front() {
            for &nb in &adjacency[q] {
                if row[nb] == UNREACHABLE {
                    row[nb] = row[q] + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    (adjacency, distance)
}

proptest! {
    /// The flat topology answers every neighbour, degree, link and
    /// distance query as the nested one did, on graphs that may be
    /// disconnected, hold duplicate or reversed edges and isolated
    /// qubits; and equality still means "same qubits, same links".
    #[test]
    fn flat_topology_answers_as_the_nested_one(
        n in 1usize..14,
        raw in proptest::collection::vec((0usize..14, 0usize..14), 0..30),
    ) {
        let edges: Vec<(usize, usize)> = raw
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .collect();
        let t = Topology::new(n, &edges);
        let (adjacency, distance) = nested(n, &edges);
        for (a, (row, hops)) in adjacency.iter().zip(&distance).enumerate() {
            prop_assert_eq!(t.neighbors(a), &row[..]);
            prop_assert_eq!(t.degree(a), row.len());
            for (b, &d) in hops.iter().enumerate() {
                prop_assert_eq!(t.distance(a, b), d);
                prop_assert_eq!(t.has_link(a, b), row.contains(&b));
            }
        }
        let reversed: Vec<(usize, usize)> = edges.iter().rev().map(|&(a, b)| (b, a)).collect();
        prop_assert_eq!(&Topology::new(n, &reversed), &t);
        if let Some(&(a, b)) = edges.first() {
            let fewer: Vec<(usize, usize)> =
                edges.iter().copied().filter(|&e| e != (a, b) && e != (b, a)).collect();
            prop_assert_ne!(&Topology::new(n, &fewer), &t);
        }
    }

}

proptest! {
    #[test]
    fn distance_is_symmetric(t in arb_topology()) {
        for a in 0..t.num_qubits() {
            for b in 0..t.num_qubits() {
                prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn distance_satisfies_triangle_inequality(t in arb_topology()) {
        let n = t.num_qubits();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let ab = t.distance(a, b);
                    let bc = t.distance(b, c);
                    let ac = t.distance(a, c);
                    prop_assert!(ac <= ab.saturating_add(bc));
                }
            }
        }
    }

    #[test]
    fn adjacency_matches_distance_one(t in arb_topology()) {
        for a in 0..t.num_qubits() {
            for b in 0..t.num_qubits() {
                if a != b {
                    prop_assert_eq!(t.has_link(a, b), t.distance(a, b) == 1);
                }
            }
        }
    }

    #[test]
    fn one_hop_pairs_are_disjoint_distance_one(t in arb_topology()) {
        for p in t.one_hop_link_pairs() {
            prop_assert!(p.is_disjoint());
            prop_assert_eq!(t.link_distance(p.first(), p.second()), 1);
        }
    }

    #[test]
    fn shortest_path_length_matches_distance(t in arb_topology()) {
        for a in 0..t.num_qubits() {
            for b in 0..t.num_qubits() {
                let p = t.shortest_path(a, b).unwrap();
                prop_assert_eq!(p.len(), t.distance(a, b) + 1);
                // Consecutive vertices are coupled.
                for w in p.windows(2) {
                    prop_assert!(t.has_link(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn calibration_synthesis_bounded(seed in 0u64..500) {
        let t = ibm::toronto_topology();
        let p = NoiseProfile::default();
        let cal = Calibration::synthesize(&t, seed, &p);
        for &l in t.links() {
            prop_assert!(cal.cx_error(l) > 0.0);
            prop_assert!(cal.cx_error(l) < 0.5);
        }
        for q in 0..t.num_qubits() {
            prop_assert!(cal.readout_error(q) > 0.0 && cal.readout_error(q) < 0.5);
            prop_assert!(cal.t1(q) > 0.0);
            prop_assert!(cal.t2(q) <= 2.0 * cal.t1(q) + 1e-9);
        }
    }

    #[test]
    fn crosstalk_gammas_at_least_one(seed in 0u64..500) {
        let t = ibm::toronto_topology();
        let m = CrosstalkModel::synthesize(&t, seed, &CrosstalkProfile::default());
        for (pair, g) in m.pairs() {
            prop_assert!(g >= 1.0, "pair {} has gamma {}", pair, g);
            prop_assert!(pair.is_disjoint());
        }
    }
}
