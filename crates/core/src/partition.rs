//! Qubit partitioning: allocating disjoint reliable regions to programs.
//!
//! Follows the QuMC heuristic the paper builds on: grow connected
//! candidate regions from every free seed qubit, score each candidate
//! with the EFS metric (crosstalk-aware for QuCP/QuMC), and allocate the
//! best region to each program in turn. Baseline policies differ in the
//! candidate scoring: CNA-style topology-greedy ignores calibration;
//! QuCloud-style scoring maximizes "fidelity degree" (link fidelity sums)
//! without readout or crosstalk terms.
//!
//! ## Where the candidates come from
//!
//! The growth itself lives with the chip
//! ([`Device::for_each_region`]). The first program of every
//! allocation — and so the only program of every solo probe
//! ([`best_partition`], [`solo_efs_scores`](crate::solo_efs_scores),
//! the `k = 1` baseline of [`efs_difference`](crate::efs_difference)) —
//! is placed on an *idle* chip, whose candidates are a pure function of
//! the topology, the calibration and the program's width. Those are
//! read from the device's region atlas ([`Device::idle_regions`]):
//! grown once per calibration snapshot into one arena per width (the
//! regions' qubits, their induced links, and one record of EFS error
//! sums per region), and no part of the device's `PartialEq`/`Debug`
//! value. Each candidate is a borrowed [`RegionView`], so ranking the
//! idle chip copies nothing, and scoring one is a handful of
//! floating-point operations, bit-identical to summing the calibration
//! entries afresh.
//!
//! The later programs of a multi-program allocation grow around the
//! qubits already taken, and read the atlas too. When no CNOT or
//! readout error is NaN, growth ranks frontier qubits in a strict total
//! order and blocking only removes candidates, so a seed whose idle
//! region avoids the taken qubits grows exactly that region again: its
//! view is borrowed, and only the other seeds are grown afresh, in the
//! lent [`GrowthScratch`]. A NaN makes the ranking partial and every
//! free seed is grown afresh. Candidates are scored as the walk visits
//! them, without collecting crosstalk pairs; only each later program's
//! winner is copied out, into the one [`Region`] stage 1's buffers
//! keep, and broken down. Stage 1 reads the programs where the caller
//! keeps them ([`allocate_partitions_in`] reads each through an
//! accessor by program index).

use std::collections::BTreeSet;

use qucp_circuit::Circuit;
use qucp_device::{Device, GrowthScratch, Link, Region, RegionView};

use crate::efs::{region_efs, region_efs_score, CircuitStats, CrosstalkTreatment, EfsBreakdown};
use crate::error::CoreError;
use crate::scratch::PlanScratch;

/// Candidate-scoring policy of the partitioner.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionPolicy {
    /// Grow and score candidates by EFS (Eq. 1) with the given crosstalk
    /// treatment. QuCP uses `Sigma`, QuMC `Measured`, MultiQC `None`.
    NoiseAware(CrosstalkTreatment),
    /// CNA-style: first connected region found scanning qubits in index
    /// order — topology only, calibration-blind.
    TopologyGreedy,
    /// QuCloud-style: maximize the summed link fidelity (1 − CNOT error)
    /// inside the region; no readout or crosstalk terms.
    FidelityDegree,
}

/// One allocated partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Index of the program in the caller's list.
    pub program_index: usize,
    /// Physical qubits of the partition (sorted).
    pub qubits: Vec<usize>,
    /// The EFS breakdown of the chosen candidate (always computed with
    /// the policy's treatment, `None` treatment for the baseline policies).
    pub efs: EfsBreakdown,
}

impl Allocation {
    /// The coupling links inside the partition.
    pub fn links(&self, device: &Device) -> Vec<Link> {
        device.topology().links_within(&self.qubits)
    }
}

/// The connected candidate regions of `size` qubits that avoid the
/// `allocated` qubits: one grown from every free seed
/// ([`Device::grow_regions`]), or read from the device's region atlas
/// wherever that is exact.
///
/// Returns deduplicated candidates (each sorted ascending).
pub fn candidate_partitions(
    device: &Device,
    size: usize,
    allocated: &BTreeSet<usize>,
) -> Vec<Vec<usize>> {
    let mut blocked = vec![false; device.num_qubits()];
    for &q in allocated {
        if let Some(flag) = blocked.get_mut(q) {
            *flag = true;
        }
    }
    let regions = device.grow_regions(size, &blocked);
    regions.iter().map(|r| r.qubits().to_vec()).collect()
}

/// Stage 1's buffers in a [`PlanScratch`]: the growth walk's, the
/// placement order, the taken-qubit mask, the links already claimed and
/// the best candidate so far of a later program.
#[derive(Debug, Default)]
pub(crate) struct AllocationBuffers {
    growth: GrowthScratch,
    order: Vec<usize>,
    blocked: Vec<bool>,
    allocated_links: Vec<Link>,
    /// The winner of a later program, copied out of the growth walk's
    /// buffers into this one's, which every later program reuses.
    kept: Option<Region>,
}

/// Allocates disjoint partitions for `programs` under `policy`.
///
/// Programs are placed in descending (width, CNOT count) order — densest
/// first, as in QuMC — but the returned allocations are indexed by the
/// caller's original order.
///
/// [`allocate_partitions_in`] on a fresh [`PlanScratch`].
///
/// # Errors
///
/// [`CoreError::ProgramTooWide`] if a program exceeds the device;
/// [`CoreError::PartitionUnavailable`] if no free connected region fits.
pub fn allocate_partitions(
    device: &Device,
    programs: &[&Circuit],
    policy: &PartitionPolicy,
) -> Result<Vec<Allocation>, CoreError> {
    let scratch = &mut PlanScratch::default();
    allocate_partitions_in(scratch, device, programs.len(), |i| programs[i], policy)
}

/// [`allocate_partitions`] on the buffers of `scratch`, of the `count`
/// programs `program(0)`, …, `program(count - 1)`: the same
/// allocations, bit for bit, asking the heap only for what they keep
/// once `scratch` has grown to the chip and the programs. The programs
/// are read where the caller keeps them, and nothing is copied.
///
/// # Errors
///
/// As [`allocate_partitions`].
pub fn allocate_partitions_in<'c>(
    scratch: &mut PlanScratch,
    device: &Device,
    count: usize,
    program: impl Fn(usize) -> &'c Circuit,
    policy: &PartitionPolicy,
) -> Result<Vec<Allocation>, CoreError> {
    for i in 0..count {
        let p = program(i);
        if p.width() > device.num_qubits() {
            return Err(CoreError::ProgramTooWide {
                program: i,
                width: p.width(),
                device: device.num_qubits(),
            });
        }
    }
    let AllocationBuffers {
        growth,
        order,
        blocked,
        allocated_links,
        kept,
    } = &mut scratch.allocation;
    order.clear();
    order.extend(0..count);
    order.sort_by_key(|&i| {
        std::cmp::Reverse((program(i).width(), program(i).cx_count(), usize::MAX - i))
    });

    blocked.clear();
    blocked.resize(device.num_qubits(), false);
    allocated_links.clear();
    let mut result: Vec<Option<Allocation>> = vec![None; count];

    for (placed, &pi) in order.iter().enumerate() {
        let program = program(pi);
        let stats = CircuitStats::of(program);
        let size = program.width();
        let rank = |c: RegionView<'_>| match policy {
            PartitionPolicy::NoiseAware(treatment) => {
                region_efs_score(device, c, &stats, allocated_links, treatment)
            }
            // First region in qubit-index order, calibration-blind.
            PartitionPolicy::TopologyGreedy => 0.0,
            PartitionPolicy::FidelityDegree => {
                let fidelity: f64 = c
                    .links()
                    .iter()
                    .map(|&l| 1.0 - device.calibration().cx_error(l))
                    .sum();
                // The highest fidelity ranks first. A NaN-poisoned
                // region's fidelity counts as −∞, so it loses to every
                // finite candidate, mirroring the NaN-loses behaviour
                // of the NoiseAware minimization.
                if fidelity.is_nan() {
                    f64::INFINITY
                } else {
                    -fidelity
                }
            }
        };
        // The first program ranks the atlas's regions in place; a later
        // one ranks the growth walk's and keeps a copy of its best.
        let region = if placed == 0 {
            let mut best = None;
            for c in device.idle_regions(size).iter() {
                let key = rank(c);
                if ranks_first(key, c, best) {
                    best = Some((key, c));
                }
            }
            best.map(|(_, c)| c)
        } else {
            let mut best_key = None;
            device.for_each_region(size, blocked, growth, |c| {
                let key = rank(c);
                if ranks_first(key, c, best_key.zip(kept.as_ref().map(Region::view))) {
                    best_key = Some(key);
                    match kept {
                        Some(kept) => kept.copy_from(c),
                        None => *kept = Some(c.to_region()),
                    }
                }
            });
            best_key.and(kept.as_ref().map(Region::view))
        };
        let region = region.ok_or(CoreError::PartitionUnavailable { program: pi, size })?;
        let treatment = match policy {
            PartitionPolicy::NoiseAware(treatment) => treatment,
            _ => &CrosstalkTreatment::None,
        };
        let allocation = Allocation {
            program_index: pi,
            qubits: region.qubits().to_vec(),
            efs: region_efs(device, region, &stats, allocated_links, treatment),
        };
        for &q in region.qubits() {
            blocked[q] = true;
        }
        allocated_links.extend_from_slice(region.links());
        result[pi] = Some(allocation);
    }
    Ok(result.into_iter().map(Option::unwrap).collect())
}

/// Whether candidate `c`, ranked `key`, goes before the best so far:
/// the lower rank by `total_cmp` (NaN scores sort last), then the lower
/// qubit list. That is a total order on distinct regions, so neither
/// the order candidates arrive in nor a region arriving twice changes
/// the winner.
fn ranks_first(key: f64, c: RegionView<'_>, best: Option<(f64, RegionView<'_>)>) -> bool {
    best.is_none_or(|(best_key, best)| {
        key.total_cmp(&best_key)
            .then_with(|| c.qubits().cmp(best.qubits()))
            .is_lt()
    })
}

/// The solo-best partition of a single program on an idle chip: the
/// allocation (and its EFS score) the program would get with the device
/// to itself.
///
/// This exposes partition *scoring* without replanning: callers that
/// only need the calibration-quality estimate of a circuit on a device
/// — the multi-device router, threshold explorers — get the stage-1
/// candidate growth and EFS evaluation alone, skipping the routing and
/// schedule-merge stages a full
/// [`Pipeline::plan`](crate::pipeline::Pipeline::plan) would pay for a
/// plan they discard.
///
/// # Errors
///
/// [`CoreError::ProgramTooWide`] if the program exceeds the device;
/// [`CoreError::PartitionUnavailable`] if no connected region fits.
pub fn best_partition(
    device: &Device,
    circuit: &Circuit,
    policy: &PartitionPolicy,
) -> Result<Allocation, CoreError> {
    let allocs = allocate_partitions(device, &[circuit], policy)?;
    Ok(allocs.into_iter().next().expect("one program allocated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::{ibm, Calibration, CrosstalkModel, LinkPair, NoiseProfile, Topology};

    fn line_device() -> Device {
        let t = Topology::line(8);
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        // Make the right end clearly better.
        cal.set_cx_error(Link::new(0, 1), 0.06);
        cal.set_cx_error(Link::new(1, 2), 0.05);
        cal.set_cx_error(Link::new(6, 7), 0.008);
        cal.set_cx_error(Link::new(5, 6), 0.009);
        Device::new("line8", t, cal, CrosstalkModel::none())
    }

    fn program(width: usize, cx: usize) -> Circuit {
        let mut c = Circuit::new(width);
        for i in 0..cx {
            c.cx(i % width, (i + 1) % width);
        }
        c.h(0);
        c
    }

    #[test]
    fn candidates_are_connected_and_right_sized() {
        let dev = line_device();
        let cands = candidate_partitions(&dev, 3, &BTreeSet::new());
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.len(), 3);
            assert!(dev.topology().is_connected_subset(c));
        }
    }

    #[test]
    fn candidates_avoid_allocated() {
        let dev = line_device();
        let allocated: BTreeSet<usize> = [3, 4].into_iter().collect();
        for c in candidate_partitions(&dev, 3, &allocated) {
            assert!(c.iter().all(|q| !allocated.contains(q)));
        }
    }

    #[test]
    fn noise_aware_picks_reliable_end() {
        let dev = line_device();
        let p = program(3, 8);
        let allocs = allocate_partitions(
            &dev,
            &[&p],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        )
        .unwrap();
        // The reliable end is 5,6,7.
        assert_eq!(allocs[0].qubits, vec![5, 6, 7]);
    }

    #[test]
    fn topology_greedy_picks_low_indices() {
        let dev = line_device();
        let p = program(3, 8);
        let allocs = allocate_partitions(&dev, &[&p], &PartitionPolicy::TopologyGreedy).unwrap();
        assert_eq!(allocs[0].qubits, vec![0, 1, 2]);
    }

    #[test]
    fn allocations_are_disjoint() {
        let dev = ibm::toronto();
        let p1 = program(4, 10);
        let p2 = program(4, 8);
        let p3 = program(3, 6);
        let allocs = allocate_partitions(
            &dev,
            &[&p1, &p2, &p3],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0)),
        )
        .unwrap();
        let mut all: Vec<usize> = allocs.iter().flat_map(|a| a.qubits.clone()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "partitions overlap");
        for a in &allocs {
            assert!(dev.topology().is_connected_subset(&a.qubits));
        }
    }

    #[test]
    fn allocation_preserves_program_order() {
        let dev = ibm::toronto();
        let small = program(2, 2);
        let big = program(5, 12);
        let allocs = allocate_partitions(
            &dev,
            &[&small, &big],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        )
        .unwrap();
        assert_eq!(allocs[0].program_index, 0);
        assert_eq!(allocs[0].qubits.len(), 2);
        assert_eq!(allocs[1].qubits.len(), 5);
    }

    #[test]
    fn too_wide_program_rejected() {
        let dev = line_device();
        let p = program(9, 4);
        let err = allocate_partitions(&dev, &[&p], &PartitionPolicy::TopologyGreedy).unwrap_err();
        assert!(matches!(err, CoreError::ProgramTooWide { .. }));
    }

    #[test]
    fn exhausted_device_rejected() {
        let dev = line_device();
        let p1 = program(5, 4);
        let p2 = program(5, 4);
        let err = allocate_partitions(
            &dev,
            &[&p1, &p2],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::PartitionUnavailable { .. }));
    }

    #[test]
    fn sigma_steers_away_from_allocated_neighbours() {
        // Uniform line: without crosstalk treatment the second partition
        // may sit one hop from the first; with a large sigma it should
        // prefer distance.
        let t = Topology::line(10);
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        let dev = Device::new("line10", t, cal, CrosstalkModel::none());
        let p1 = program(3, 10);
        let p2 = program(3, 10);
        let allocs = allocate_partitions(
            &dev,
            &[&p1, &p2],
            &PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(8.0)),
        )
        .unwrap();
        // Distance between the two regions should exceed one hop for the
        // links (no crosstalk pairs chosen).
        assert!(
            allocs[1].efs.crosstalk_pairs.is_empty() || allocs[0].efs.crosstalk_pairs.is_empty(),
            "sigma treatment should find a crosstalk-free placement on an idle line"
        );
    }

    #[test]
    fn best_partition_matches_singleton_allocation() {
        let dev = line_device();
        let p = program(3, 8);
        let policy = PartitionPolicy::NoiseAware(CrosstalkTreatment::None);
        let alloc = best_partition(&dev, &p, &policy).unwrap();
        let full = allocate_partitions(&dev, &[&p], &policy).unwrap();
        assert_eq!(alloc, full[0]);
        assert!(best_partition(&dev, &program(9, 4), &policy).is_err());
    }

    #[test]
    fn nan_calibration_entry_does_not_panic_partition_scoring() {
        // A NaN reading in the daily snapshot (a real failure mode of
        // IBM's properties feed) must degrade gracefully: candidates
        // whose EFS turns NaN sort last under `total_cmp`, so the
        // noise-aware allocator deterministically avoids the poisoned
        // region instead of panicking in its comparator.
        let dev = line_device();
        let mut cal = dev.calibration().clone();
        cal.set_cx_error(Link::new(0, 1), f64::NAN);
        cal.set_readout_error(1, f64::NAN);
        let dev = dev.with_state(cal, dev.crosstalk().clone());
        let p = program(3, 8);
        for policy in [
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0)),
            PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
            PartitionPolicy::TopologyGreedy,
            PartitionPolicy::FidelityDegree,
        ] {
            let allocs = allocate_partitions(&dev, &[&p], &policy).unwrap();
            assert_eq!(allocs[0].qubits.len(), 3, "{policy:?}");
            // Determinism: the same poisoned snapshot always yields the
            // same placement and bit-identical score (a NaN score would
            // fail `==`, so compare the bits).
            let again = allocate_partitions(&dev, &[&p], &policy).unwrap();
            assert_eq!(allocs[0].qubits, again[0].qubits, "{policy:?}");
            assert_eq!(
                allocs[0].efs.score.to_bits(),
                again[0].efs.score.to_bits(),
                "{policy:?}"
            );
        }
        // The calibration-consulting policies must place on
        // finite-scored regions (the reliable right end of the line is
        // untouched); only the calibration-blind TopologyGreedy may
        // still sit on the poisoned link.
        for policy in [
            PartitionPolicy::NoiseAware(CrosstalkTreatment::None),
            PartitionPolicy::FidelityDegree,
        ] {
            let allocs = allocate_partitions(&dev, &[&p], &policy).unwrap();
            assert!(allocs[0].efs.score.is_finite(), "{policy:?}");
            assert!(!allocs[0].qubits.contains(&0), "{policy:?}");
        }
    }

    /// The allocator as it was before the region atlas: candidate
    /// growth with set and list membership tests re-run for every
    /// program, and the EFS summed from the calibration entries for
    /// every candidate. Kept verbatim as the oracle the atlas-backed
    /// allocator must match bit for bit.
    mod oracle {
        use super::super::*;
        use qucp_device::LinkPair;

        pub fn candidate_partitions(
            device: &Device,
            size: usize,
            allocated: &BTreeSet<usize>,
        ) -> Vec<Vec<usize>> {
            let topo = device.topology();
            let cal = device.calibration();
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for seed in 0..topo.num_qubits() {
                if allocated.contains(&seed) {
                    continue;
                }
                let mut region = vec![seed];
                while region.len() < size {
                    let mut best: Option<(usize, f64, f64, usize)> = None;
                    for &q in &region {
                        for &nb in topo.neighbors(q) {
                            if allocated.contains(&nb) || region.contains(&nb) {
                                continue;
                            }
                            let mut into_region = 0usize;
                            let mut link_err = f64::INFINITY;
                            for &r in &region {
                                if topo.has_link(r, nb) {
                                    into_region += 1;
                                    link_err = link_err.min(cal.cx_error(Link::new(r, nb)));
                                }
                            }
                            let better = match best {
                                None => true,
                                Some((bi, be, bro, bnb)) => {
                                    (
                                        std::cmp::Reverse(into_region),
                                        link_err,
                                        cal.readout_error(nb),
                                        nb,
                                    ) < (std::cmp::Reverse(bi), be, bro, bnb)
                                }
                            };
                            if better {
                                best = Some((into_region, link_err, cal.readout_error(nb), nb));
                            }
                        }
                    }
                    match best {
                        Some((_, _, _, nb)) => region.push(nb),
                        None => break,
                    }
                }
                if region.len() == size {
                    let mut sorted = region.clone();
                    sorted.sort_unstable();
                    if seen.insert(sorted.clone()) {
                        out.push(sorted);
                    }
                }
            }
            out
        }

        fn efs(
            device: &Device,
            partition: &[usize],
            stats: &CircuitStats,
            allocated_links: &[Link],
            treatment: &CrosstalkTreatment,
        ) -> EfsBreakdown {
            let topo = device.topology();
            let cal = device.calibration();
            let links = topo.links_within(partition);
            let mut crosstalk_pairs = Vec::new();
            let avg2q = if links.is_empty() {
                0.0
            } else {
                let mut total = 0.0;
                for &l in &links {
                    let mut e = cal.cx_error(l);
                    let mut worst = 1.0f64;
                    for &al in allocated_links {
                        if !l.shares_qubit(&al) && topo.link_distance(l, al) == 1 {
                            let pair = LinkPair::new(l, al);
                            crosstalk_pairs.push(pair);
                            worst = worst.max(treatment.factor(pair));
                        }
                    }
                    e *= worst;
                    total += e;
                }
                total / links.len() as f64
            };
            let avg1q = partition.iter().map(|&q| cal.sq_error(q)).sum::<f64>()
                / partition.len().max(1) as f64;
            let readout_sum: f64 = partition.iter().map(|&q| cal.readout_error(q)).sum();
            EfsBreakdown {
                score: avg2q * stats.two_qubit as f64
                    + avg1q * stats.single_qubit as f64
                    + readout_sum,
                avg_two_qubit_error: avg2q,
                avg_single_qubit_error: avg1q,
                readout_sum,
                crosstalk_pairs,
            }
        }

        pub fn allocate_partitions(
            device: &Device,
            programs: &[&Circuit],
            policy: &PartitionPolicy,
        ) -> Result<Vec<Allocation>, CoreError> {
            for (i, p) in programs.iter().enumerate() {
                if p.width() > device.num_qubits() {
                    return Err(CoreError::ProgramTooWide {
                        program: i,
                        width: p.width(),
                        device: device.num_qubits(),
                    });
                }
            }
            let mut order: Vec<usize> = (0..programs.len()).collect();
            order.sort_by_key(|&i| {
                std::cmp::Reverse((programs[i].width(), programs[i].cx_count(), usize::MAX - i))
            });
            let mut allocated_qubits: BTreeSet<usize> = BTreeSet::new();
            let mut allocated_links: Vec<Link> = Vec::new();
            let mut result: Vec<Option<Allocation>> = vec![None; programs.len()];
            for &pi in &order {
                let program = programs[pi];
                let stats = CircuitStats::of(program);
                let size = program.width();
                let candidates = candidate_partitions(device, size, &allocated_qubits);
                if candidates.is_empty() {
                    return Err(CoreError::PartitionUnavailable { program: pi, size });
                }
                let none = CrosstalkTreatment::None;
                let (qubits, breakdown) = match policy {
                    PartitionPolicy::NoiseAware(treatment) => candidates
                        .into_iter()
                        .map(|c| {
                            let b = efs(device, &c, &stats, &allocated_links, treatment);
                            (c, b)
                        })
                        .min_by(|a, b| a.1.score.total_cmp(&b.1.score).then_with(|| a.0.cmp(&b.0)))
                        .expect("candidates not empty"),
                    PartitionPolicy::TopologyGreedy => {
                        let c = candidates
                            .into_iter()
                            .min_by(|a, b| a.cmp(b))
                            .expect("candidates not empty");
                        let b = efs(device, &c, &stats, &allocated_links, &none);
                        (c, b)
                    }
                    PartitionPolicy::FidelityDegree => candidates
                        .into_iter()
                        .map(|c| {
                            let links = device.topology().links_within(&c);
                            let fidelity: f64 = links
                                .iter()
                                .map(|&l| 1.0 - device.calibration().cx_error(l))
                                .sum();
                            let fidelity = if fidelity.is_nan() {
                                f64::NEG_INFINITY
                            } else {
                                fidelity
                            };
                            let b = efs(device, &c, &stats, &allocated_links, &none);
                            (c, b, fidelity)
                        })
                        .max_by(|a, b| a.2.total_cmp(&b.2).then_with(|| b.0.cmp(&a.0)))
                        .map(|(c, b, _)| (c, b))
                        .expect("candidates not empty"),
                };
                for &q in &qubits {
                    allocated_qubits.insert(q);
                }
                allocated_links.extend(device.topology().links_within(&qubits));
                result[pi] = Some(Allocation {
                    program_index: pi,
                    qubits,
                    efs: breakdown,
                });
            }
            Ok(result.into_iter().map(Option::unwrap).collect())
        }
    }

    /// An allocation outcome with every float as its bit pattern, so
    /// NaN scores and signed zeros compare exactly.
    fn bits(outcome: &Result<Vec<Allocation>, CoreError>) -> String {
        match outcome {
            Err(e) => format!("{e:?}"),
            Ok(allocs) => allocs
                .iter()
                .map(|a| {
                    format!(
                        "{} {:?} {:x} {:x} {:x} {:x} {:?}\n",
                        a.program_index,
                        a.qubits,
                        a.efs.score.to_bits(),
                        a.efs.avg_two_qubit_error.to_bits(),
                        a.efs.avg_single_qubit_error.to_bits(),
                        a.efs.readout_sum.to_bits(),
                        a.efs.crosstalk_pairs,
                    )
                })
                .collect(),
        }
    }

    fn policies() -> [PartitionPolicy; 4] {
        let measured = [
            (LinkPair::new(Link::new(0, 1), Link::new(2, 3)), 6.0),
            (LinkPair::new(Link::new(1, 2), Link::new(3, 4)), 2.5),
        ];
        [
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0)),
            PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(
                measured.into_iter().collect(),
            )),
            PartitionPolicy::TopologyGreedy,
            PartitionPolicy::FidelityDegree,
        ]
    }

    /// A chip of one of three topology classes under a seeded
    /// calibration: `style` 0 draws every error from the continuous
    /// synthetic profile, 1 from a three-value palette (ties
    /// everywhere), 2 from the palette plus NaN (the growth and scoring
    /// comparators turn partial).
    fn arb_device(topology: usize, style: usize, seed: u64) -> Device {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let topo = match topology {
            0 => Topology::line(9),
            1 => Topology::grid(3, 4),
            _ => ibm::toronto_topology(),
        };
        let mut cal = Calibration::synthesize(&topo, seed, &NoiseProfile::default());
        if style > 0 {
            let palette = [0.01, 0.02, 0.03, f64::NAN];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = || palette[rng.gen_range(0..2 + style)];
            for (_, e) in cal.cx_errors_mut() {
                *e = draw();
            }
            for e in cal.readout_errors_mut() {
                *e = draw();
            }
            for e in cal.sq_errors_mut() {
                *e = draw() / 50.0;
            }
        }
        Device::new("arb", topo, cal, CrosstalkModel::none())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn atlas_backed_allocation_equals_the_regrowing_oracle(
            topology in 0usize..3,
            style in 0usize..3,
            seed in 0u64..1_000_000,
            shapes in proptest::collection::vec((1usize..6, 0usize..12), 1..6),
            masks in proptest::collection::vec((0usize..=27, 0u64..u64::MAX), 1..4),
        ) {
            let dev = arb_device(topology, style, seed);
            let programs: Vec<Circuit> = shapes
                .iter()
                .map(|&(w, cx)| program(w, if w > 1 { cx } else { 0 }))
                .collect();
            let refs: Vec<&Circuit> = programs.iter().collect();
            for policy in policies() {
                let expected = bits(&oracle::allocate_partitions(&dev, &refs, &policy));
                // Cold atlas, warm atlas, and a clone sharing it.
                for device in [&dev, &dev, &dev.clone()] {
                    proptest::prop_assert_eq!(
                        bits(&allocate_partitions(device, &refs, &policy)),
                        expected.clone()
                    );
                }
            }
            // Growth around taken qubits — none, and random sets of
            // every density — against the oracle's.
            let n = dev.num_qubits();
            let mut taken = vec![BTreeSet::new()];
            for (count, shuffle) in masks {
                use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut StdRng::seed_from_u64(shuffle));
                taken.push(order[..count.min(n)].iter().copied().collect());
            }
            for size in 1..6 {
                for allocated in &taken {
                    proptest::prop_assert_eq!(
                        candidate_partitions(&dev, size, allocated),
                        oracle::candidate_partitions(&dev, size, allocated)
                    );
                }
            }
        }
    }

    /// The allocation a device constructed from scratch with `dev`'s
    /// current parts would produce.
    fn fresh_allocation(dev: &Device, refs: &[&Circuit], policy: &PartitionPolicy) -> String {
        let fresh = Device::new(
            dev.name(),
            dev.topology().clone(),
            dev.calibration().clone(),
            dev.crosstalk().clone(),
        );
        bits(&oracle::allocate_partitions(&fresh, refs, policy))
    }

    #[test]
    fn a_calibration_edit_changes_the_next_allocation_like_a_fresh_device() {
        let (a, b) = (program(3, 8), program(3, 5));
        let refs = [&a, &b];
        let policy = PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0));
        let edit = |dev: &Device, q: usize, readout: f64| {
            let mut cal = dev.calibration().clone();
            cal.set_readout_error(q, readout);
            dev.with_state(cal, dev.crosstalk().clone())
        };
        let dev = line_device();
        let warm = bits(&allocate_partitions(&dev, &refs, &policy));
        assert_eq!(warm, fresh_allocation(&dev, &refs, &policy));

        // Spoil the best region's readout in a new state of a clone:
        // the new device re-grows, the original keeps answering from
        // its own atlas.
        let twin = edit(&dev.clone(), 6, 0.4);
        let moved = bits(&allocate_partitions(&twin, &refs, &policy));
        assert_ne!(moved, warm);
        assert_eq!(moved, fresh_allocation(&twin, &refs, &policy));
        assert_eq!(bits(&allocate_partitions(&dev, &refs, &policy)), warm);

        // The same edit on the original, then back, then a poisoned one.
        let dev = edit(&dev, 6, 0.4);
        assert_eq!(bits(&allocate_partitions(&dev, &refs, &policy)), moved);
        let dev = edit(&dev, 6, 0.02);
        assert_eq!(bits(&allocate_partitions(&dev, &refs, &policy)), warm);
        let dev = edit(&dev, 5, f64::NAN);
        assert_eq!(
            bits(&allocate_partitions(&dev, &refs, &policy)),
            fresh_allocation(&dev, &refs, &policy)
        );
    }

    #[test]
    fn fidelity_degree_prefers_good_links() {
        let dev = line_device();
        let p = program(3, 8);
        let allocs = allocate_partitions(&dev, &[&p], &PartitionPolicy::FidelityDegree).unwrap();
        assert_eq!(allocs[0].qubits, vec![5, 6, 7]);
    }
}
