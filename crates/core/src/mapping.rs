//! Noise-aware qubit mapping inside an allocated partition: initial
//! placement (HA-style heuristic, Niu et al. \[18\] of the paper) and
//! reliability-weighted SWAP routing.
//!
//! The mapped program stays in *partition-local* coordinates: local wire
//! `w` is carried by physical qubit `layout[w]`. Routing inserts SWAPs,
//! which permute which logical qubit lives on which wire; the final
//! mapping is recorded so measured counts can be permuted back to
//! logical order.

use std::collections::BTreeSet;

use qucp_circuit::{Circuit, Gate};
use qucp_device::{Device, Link, Topology};
use qucp_sim::Counts;

/// A program mapped and routed onto a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedProgram {
    /// The routed circuit in local wire coordinates.
    pub circuit: Circuit,
    /// Local wire → physical qubit.
    pub layout: Vec<usize>,
    /// Logical qubit → local wire before routing.
    pub initial_mapping: Vec<usize>,
    /// Logical qubit → local wire after all SWAPs.
    pub final_mapping: Vec<usize>,
    /// Number of SWAP gates inserted by routing.
    pub swap_count: usize,
}

impl MappedProgram {
    /// Permutes measured counts (local wire order) back into logical
    /// qubit order so they can be compared with the ideal distribution
    /// of the unmapped circuit: a copy of `counts`, relabelled by
    /// [`MappedProgram::into_logical_counts`].
    pub fn to_logical_counts(&self, counts: &Counts) -> Counts {
        self.into_logical_counts(counts.clone())
    }

    /// [`MappedProgram::to_logical_counts`] in place: `counts`' own
    /// entries are relabelled ([`Counts::relabel`]), and outcomes that
    /// meet add up as [`Counts::record_many`] adds them; a permutation
    /// costs no heap request.
    pub fn into_logical_counts(&self, mut counts: Counts) -> Counts {
        counts.relabel(|outcome| {
            let mut logical = 0usize;
            for (lq, &wire) in self.final_mapping.iter().enumerate() {
                if outcome >> wire & 1 == 1 {
                    logical |= 1 << lq;
                }
            }
            logical
        });
        counts
    }
}

/// Builds the partition-local topology: local index = position of the
/// physical qubit in the (sorted) partition list.
pub fn local_topology(device: &Device, partition: &[usize]) -> Topology {
    let topo = device.topology();
    let local = |q: usize| partition.iter().position(|&p| p == q);
    // Each induced link once, from its lower end.
    let edges = partition.iter().enumerate().flat_map(|(i, &p)| {
        topo.neighbors(p)
            .iter()
            .filter(move |&&nb| nb > p)
            .filter_map(move |&nb| local(nb).map(|j| (i, j)))
    });
    let mut induced = Vec::with_capacity(edges.clone().count());
    induced.extend(edges);
    Topology::new(partition.len(), &induced)
}

/// Noise-aware initial mapping: logical qubit → local wire.
///
/// Logical qubits are placed in descending interaction-weight order;
/// each is put on the free wire minimizing the reliability-weighted
/// distance to its already-placed interaction partners (falling back to
/// wire quality — subgraph degree, then readout error — when it has no
/// placed partner yet).
pub fn initial_mapping(device: &Device, partition: &[usize], circuit: &Circuit) -> Vec<usize> {
    initial_mapping_on(
        device,
        partition,
        &local_topology(device, partition),
        circuit,
    )
}

/// [`initial_mapping`] on an already built partition-local topology
/// (`topo` must be `local_topology(device, partition)`).
pub(crate) fn initial_mapping_on(
    device: &Device,
    partition: &[usize],
    topo: &Topology,
    circuit: &Circuit,
) -> Vec<usize> {
    let k = partition.len();
    assert_eq!(
        circuit.width(),
        k,
        "partition size must equal program width"
    );
    let cal = device.calibration();
    let weights = circuit.interaction_graph();
    let mut total_weight = vec![0usize; k];
    for (&(a, b), &w) in &weights {
        total_weight[a] += w;
        total_weight[b] += w;
    }
    let mut logical_order: Vec<usize> = (0..k).collect();
    logical_order.sort_by_key(|&l| (std::cmp::Reverse(total_weight[l]), l));

    // Wire quality: high subgraph degree, low readout error, a NaN
    // readout last (as partition scoring ranks a NaN score).
    let quality = |w: usize| {
        let readout = cal.readout_error(partition[w]);
        (
            std::cmp::Reverse(topo.degree(w)),
            readout.is_nan(),
            (readout * 1e9) as u64,
            w,
        )
    };
    let mean_err = {
        let links = topo.links();
        if links.is_empty() {
            0.02
        } else {
            links
                .iter()
                .map(|l| cal.cx_error(Link::new(partition[l.low()], partition[l.high()])))
                .sum::<f64>()
                / links.len() as f64
        }
    };

    let mut mapping = vec![usize::MAX; k];
    let mut free: BTreeSet<usize> = (0..k).collect();
    for &l in &logical_order {
        let placed_partners: Vec<(usize, usize)> = weights
            .iter()
            .filter_map(|(&(a, b), &w)| {
                if a == l && mapping[b] != usize::MAX {
                    Some((mapping[b], w))
                } else if b == l && mapping[a] != usize::MAX {
                    Some((mapping[a], w))
                } else {
                    None
                }
            })
            .collect();
        let wire = if placed_partners.is_empty() {
            *free.iter().min_by_key(|&&w| quality(w)).expect("free wire")
        } else {
            *free
                .iter()
                .min_by(|&&a, &&b| {
                    let cost = |w: usize| -> f64 {
                        placed_partners
                            .iter()
                            .map(|&(pw, weight)| {
                                let d = topo.distance(w, pw);
                                let link_cost = if d == 1 {
                                    cal.cx_error(Link::new(partition[w], partition[pw]))
                                } else {
                                    d as f64 * 3.0 * mean_err
                                };
                                weight as f64 * link_cost
                            })
                            .sum()
                    };
                    cost(a).total_cmp(&cost(b)).then(a.cmp(&b))
                })
                .expect("free wire")
        };
        mapping[l] = wire;
        free.remove(&wire);
    }
    mapping
}

/// Routes a program onto its partition, inserting reliability-weighted
/// SWAPs until every two-qubit gate lands on a coupled wire pair.
///
/// `link_penalty` adds a policy-specific cost to candidate SWAP links —
/// the CNA baseline uses it to penalize links with strong crosstalk
/// partners in other partitions (gate-level crosstalk awareness).
///
/// # Panics
///
/// Panics if the partition subgraph is disconnected (the partitioner
/// guarantees connectivity).
pub fn route(
    device: &Device,
    partition: &[usize],
    circuit: &Circuit,
    initial: &[usize],
    link_penalty: impl Fn(Link) -> f64,
) -> MappedProgram {
    route_on(
        device,
        partition,
        &local_topology(device, partition),
        circuit,
        initial,
        link_penalty,
    )
}

/// [`route`] on an already built partition-local topology (`topo` must
/// be `local_topology(device, partition)`).
pub(crate) fn route_on(
    device: &Device,
    partition: &[usize],
    topo: &Topology,
    circuit: &Circuit,
    initial: &[usize],
    link_penalty: impl Fn(Link) -> f64,
) -> MappedProgram {
    let k = partition.len();
    let cal = device.calibration();
    let mut pi: Vec<usize> = initial.to_vec(); // logical -> wire
    let mut routed = Circuit::with_name(k, circuit.name());
    // Every gate of the source, routed; only inserted SWAPs grow it.
    routed.reserve(circuit.gate_count());
    let mut swap_count = 0usize;

    let swap_cost = |a: usize, b: usize| -> f64 {
        let link = Link::new(partition[a], partition[b]);
        // Three CNOTs of error plus any policy penalty.
        3.0 * cal.cx_error(link) + link_penalty(link)
    };

    for gate in circuit.gates() {
        let qs = gate.qubits();
        let qs = qs.as_slice();
        if qs.len() == 1 {
            routed.push(gate.map_qubits(|q| pi[q]));
            continue;
        }
        let (a, b) = (qs[0], qs[1]);
        while topo.distance(pi[a], pi[b]) > 1 {
            let d = topo.distance(pi[a], pi[b]);
            // Candidate swaps: move either endpoint one step closer.
            let mut best: Option<(f64, usize, usize)> = None;
            for (from, toward) in [(pi[a], pi[b]), (pi[b], pi[a])] {
                for &nb in topo.neighbors(from) {
                    if topo.distance(nb, toward) < d {
                        let cost = swap_cost(from, nb);
                        let key = (cost, from.min(nb), from.max(nb));
                        if best.is_none()
                            || (key.0, key.1, key.2)
                                < (best.unwrap().0, best.unwrap().1, best.unwrap().2)
                        {
                            best = Some(key);
                        }
                    }
                }
            }
            let (_, w1, w2) = best.expect("partition subgraph is connected");
            routed.push(Gate::Swap(w1, w2));
            swap_count += 1;
            // Update the logical positions living on those wires.
            for wire in pi.iter_mut() {
                if *wire == w1 {
                    *wire = w2;
                } else if *wire == w2 {
                    *wire = w1;
                }
            }
        }
        routed.push(gate.map_qubits(|q| pi[q]));
    }

    MappedProgram {
        circuit: routed,
        layout: partition.to_vec(),
        initial_mapping: initial.to_vec(),
        final_mapping: pi,
        swap_count,
    }
}

/// Convenience: initial mapping + routing with no link penalty.
pub fn map_program(device: &Device, partition: &[usize], circuit: &Circuit) -> MappedProgram {
    let topo = local_topology(device, partition);
    let initial = initial_mapping_on(device, partition, &topo, circuit);
    route_on(device, partition, &topo, circuit, &initial, |_| 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_circuit::library;
    use qucp_device::{ibm, Calibration, CrosstalkModel};
    use qucp_sim::noiseless_probabilities;

    fn line_device(n: usize) -> Device {
        let t = Topology::line(n);
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        Device::new("line", t, cal, CrosstalkModel::none())
    }

    #[test]
    fn local_topology_reindexes() {
        let dev = ibm::toronto();
        let partition = vec![1, 2, 4];
        let t = local_topology(&dev, &partition);
        assert_eq!(t.num_qubits(), 3);
        // 1-2 and 1-4 are links of Toronto.
        assert!(t.has_link(0, 1));
        assert!(t.has_link(0, 2));
        assert!(!t.has_link(1, 2));
    }

    #[test]
    fn initial_mapping_is_a_permutation() {
        let dev = ibm::toronto();
        let bench = library::by_name("adder").unwrap().circuit();
        let partition = vec![12, 13, 14, 16];
        let m = initial_mapping(&dev, &partition, &bench);
        let mut sorted = m.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn routing_places_all_two_qubit_gates_on_links() {
        let dev = ibm::toronto();
        for name in ["adder", "alu-v0_27", "4mod5-v1_22", "variation"] {
            let bench = library::by_name(name).unwrap().circuit();
            let size = bench.width();
            // A path-shaped partition to force swaps.
            let partition: Vec<usize> = match size {
                3 => vec![0, 1, 2],
                4 => vec![0, 1, 2, 3],
                _ => vec![0, 1, 2, 3, 5],
            };
            let mapped = map_program(&dev, &partition, &bench);
            let local = local_topology(&dev, &partition);
            for g in mapped.circuit.gates() {
                if g.is_two_qubit() {
                    let qs = g.qubits();
                    let qs = qs.as_slice();
                    assert!(
                        local.has_link(qs[0], qs[1]),
                        "{name}: gate {g:?} not on a link"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_preserves_semantics_up_to_wire_permutation() {
        let dev = ibm::toronto();
        for name in ["adder", "fredkin", "bell", "linearsolver"] {
            let bench = library::by_name(name).unwrap().circuit();
            let size = bench.width();
            let partition: Vec<usize> = match size {
                3 => vec![3, 5, 8],
                4 => vec![1, 2, 3, 5],
                _ => vec![1, 2, 3, 4, 5],
            };
            let mapped = map_program(&dev, &partition, &bench);
            // Compare noiseless distributions after undoing the wire
            // permutation. Build pseudo-counts from exact probabilities.
            let routed_p = noiseless_probabilities(&mapped.circuit);
            let logical_p = noiseless_probabilities(&bench);
            for (outcome, &p) in routed_p.iter().enumerate() {
                let mut logical = 0usize;
                for (lq, &wire) in mapped.final_mapping.iter().enumerate() {
                    if outcome >> wire & 1 == 1 {
                        logical |= 1 << lq;
                    }
                }
                assert!(
                    (p - logical_p[logical]).abs() < 1e-9,
                    "{name}: outcome {outcome} p {p} vs logical {}",
                    logical_p[logical]
                );
            }
        }
    }

    #[test]
    fn adjacent_program_needs_no_swaps() {
        let dev = line_device(4);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mapped = map_program(&dev, &[1, 2], &c);
        assert_eq!(mapped.swap_count, 0);
        assert_eq!(mapped.initial_mapping, mapped.final_mapping);
    }

    #[test]
    fn distant_interaction_forces_swaps() {
        let dev = line_device(5);
        let mut c = Circuit::new(5);
        // Only qubits 0 and 4 interact; any placement on a line of 5
        // needs routing if they end up far apart — force the worst case
        // with an explicit bad initial mapping.
        c.cx(0, 4);
        let initial = vec![0, 1, 2, 3, 4];
        let mapped = route(&dev, &[0, 1, 2, 3, 4], &c, &initial, |_| 0.0);
        assert!(mapped.swap_count >= 3);
        // Gate lands on a link.
        let local = local_topology(&dev, &[0, 1, 2, 3, 4]);
        let last = mapped.circuit.gates().last().unwrap();
        let qs = last.qubits();
        let qs = qs.as_slice();
        assert!(local.has_link(qs[0], qs[1]));
    }

    #[test]
    fn initial_mapping_places_partners_adjacently_when_possible() {
        let dev = line_device(4);
        let mut c = Circuit::new(3);
        for _ in 0..5 {
            c.cx(0, 1);
        }
        c.cx(1, 2);
        let m = initial_mapping(&dev, &[0, 1, 2], &c);
        let topo = local_topology(&dev, &[0, 1, 2]);
        // The heavy pair (0,1) must be adjacent.
        assert_eq!(topo.distance(m[0], m[1]), 1);
    }

    /// A NaN readout ranks a wire last among wires of its degree, as
    /// partition scoring ranks a NaN score; while the quality key cast
    /// `NaN × 1e9` to the integer 0, it ranked first and logical 1 of
    /// three idle qubits sat on it (`[1, 0, 2]`).
    #[test]
    fn a_nan_readout_ranks_as_the_worst_wire() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        for readout in [f64::NAN, 0.5] {
            let dev = line_device(3);
            let mut cal = dev.calibration().clone();
            cal.set_readout_error(0, readout);
            let dev = dev.with_state(cal, dev.crosstalk().clone());
            assert_eq!(
                initial_mapping(&dev, &[0, 1, 2], &c),
                [1, 2, 0],
                "{readout}"
            );
        }
    }

    #[test]
    fn to_logical_counts_permutes_bits() {
        let mapped = MappedProgram {
            circuit: Circuit::new(2),
            layout: vec![10, 11],
            initial_mapping: vec![0, 1],
            final_mapping: vec![1, 0], // logical 0 ended on wire 1
            swap_count: 1,
        };
        let mut counts = Counts::new(2);
        counts.record(0b01); // wire0 = 1, wire1 = 0
        let logical = mapped.to_logical_counts(&counts);
        // Logical 0 reads wire 1 (=0), logical 1 reads wire 0 (=1).
        assert_eq!(logical.count(0b10), 1);
    }

    /// The copying and the in-place relabel are the shot-by-shot loop
    /// they replaced, for any wire permutation, and the result keeps the
    /// canonical form the wire codec rebuilds.
    #[test]
    fn to_logical_counts_equals_recording_shot_by_shot() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x10c1);
        for _ in 0..100 {
            let width = rng.gen_range(1..=5usize);
            let mut final_mapping: Vec<usize> = (0..width).collect();
            final_mapping.shuffle(&mut rng);
            let mapped = MappedProgram {
                circuit: Circuit::new(width),
                layout: (0..width).collect(),
                initial_mapping: (0..width).collect(),
                final_mapping,
                swap_count: 0,
            };
            let mut counts = Counts::new(width);
            for _ in 0..rng.gen_range(0..10usize) {
                counts.record_many(
                    rng.gen_range(0..1usize << width),
                    rng.gen_range(1..300usize),
                );
            }
            let mut looped = Counts::new(width);
            for (outcome, n) in counts.iter() {
                let logical = (0..width)
                    .filter(|&lq| outcome >> mapped.final_mapping[lq] & 1 == 1)
                    .fold(0usize, |acc, lq| acc | 1 << lq);
                (0..n).for_each(|_| looped.record(logical));
            }
            let logical = mapped.to_logical_counts(&counts);
            assert_eq!(logical, looped);
            assert_eq!(mapped.into_logical_counts(counts.clone()), looped);
            assert_eq!(Counts::from_entries(width, logical.iter()), Some(logical));
        }
    }

    #[test]
    fn penalty_steers_swap_selection() {
        // Line 0-1-2-3; route cx(0,3). Penalizing one inner link should
        // push swaps to the other side.
        let dev = line_device(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let initial = vec![0, 1, 2, 3];
        let no_pen = route(&dev, &[0, 1, 2, 3], &c, &initial, |_| 0.0);
        let with_pen = route(&dev, &[0, 1, 2, 3], &c, &initial, |l| {
            if l == Link::new(0, 1) {
                10.0
            } else {
                0.0
            }
        });
        assert_eq!(no_pen.swap_count, with_pen.swap_count);
        // The penalized route must not use the 0-1 link for its swaps.
        for g in with_pen.circuit.gates() {
            if matches!(g, Gate::Swap(..)) {
                let qs = g.qubits();
                let qs = qs.as_slice();
                assert_ne!((qs[0].min(qs[1]), qs[0].max(qs[1])), (0, 1));
            }
        }
    }
}
