//! Merged-workload scheduling context: which CNOTs of different programs
//! overlap in time, and what that costs.
//!
//! All programs are ALAP-aligned to a common end time (the paper's
//! scheduling policy), then every cross-program pair of two-qubit gates
//! on one-hop-separated links that overlap in time is charged:
//!
//! * **partition-level policies** (QuCP/QuMC/MultiQC/QuCloud) leave the
//!   overlap in place and the gates suffer the device's γ amplification;
//! * **gate-level serialization** (CNA) delays the later gate instead,
//!   avoiding the amplification but stretching that program's schedule —
//!   charged as trailing idle time on its qubits.

use qucp_circuit::schedule::{alap_schedule_in, Schedule, ScheduledGate};
use qucp_device::{Device, Link};
use qucp_sim::{gate_durations_into, NoiseScaling};

use crate::mapping::MappedProgram;
use crate::scratch::PlanScratch;

/// The computed noise context of a merged workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadContext {
    /// Per-program, per-gate crosstalk scaling factors.
    pub scalings: Vec<NoiseScaling>,
    /// Per-program trailing idle (ns) per local qubit, charged by
    /// serialization.
    pub tail_idle: Vec<Vec<f64>>,
    /// Number of cross-program one-hop CNOT overlaps found.
    pub conflict_count: usize,
    /// Merged makespan (ns): the longest program's schedule.
    pub makespan: f64,
    /// Each program's individual schedule makespan (ns) — what the job
    /// would take running alone (used by the runtime's queue
    /// accounting).
    pub program_makespans: Vec<f64>,
    /// Sum of the programs' individual makespans (ns) — the serial
    /// runtime a non-parallel execution would need.
    pub serial_runtime: f64,
    /// Each program's own ALAP schedule (unshifted), timed by
    /// [`gate_durations`](qucp_sim::gate_durations) under the calibration the plan was made on:
    /// the timing stage 4 hands the simulator
    /// ([`PlannedWorkload::prepare`](crate::PlannedWorkload::prepare)),
    /// which then looks up no duration and schedules nothing.
    pub schedules: Vec<Schedule>,
}

/// What the merge fills and drops, in a [`PlanScratch`]: one program's
/// gate durations and its ALAP pass's per-qubit times, every program's
/// aligned two-qubit entries and driven links (one flat list each, cut
/// by end offsets), and the serialization delays.
#[derive(Debug, Default)]
pub(crate) struct ContextBuffers {
    durations: Vec<f64>,
    deadlines: Vec<f64>,
    two_qubit: Vec<(ScheduledGate, Link)>,
    two_qubit_ends: Vec<usize>,
    driven: Vec<Link>,
    driven_ends: Vec<usize>,
    extra_delay: Vec<f64>,
}

/// A mapped program's ALAP schedule under `device`'s gate durations,
/// looked up into `durations`, its per-qubit pass in `deadlines`.
fn program_schedule(
    device: &Device,
    p: &MappedProgram,
    durations: &mut Vec<f64>,
    deadlines: &mut Vec<f64>,
) -> Schedule {
    gate_durations_into(&p.circuit, &p.layout, device, durations);
    alap_schedule_in(deadlines, &p.circuit, |i, _| durations[i])
}

/// Builds the workload context for a set of mapped programs.
///
/// With `serialize = false` (QuCP and the partition-level baseline
/// strategies), overlapping one-hop CNOT pairs have their error
/// probabilities scaled by the ground-truth γ. With `serialize = true` (CNA), the overlap is
/// resolved by delaying the later program's gate; the delay is charged
/// as trailing idle on every qubit of that program.
pub fn build_context(
    device: &Device,
    programs: &[MappedProgram],
    serialize: bool,
) -> WorkloadContext {
    build_context_in(&mut PlanScratch::default(), device, programs, serialize)
}

/// [`build_context`] on the buffers of `scratch`.
pub(crate) fn build_context_in(
    scratch: &mut PlanScratch,
    device: &Device,
    programs: &[MappedProgram],
    serialize: bool,
) -> WorkloadContext {
    let ContextBuffers {
        durations,
        deadlines,
        two_qubit,
        two_qubit_ends,
        driven,
        driven_ends,
        extra_delay,
    } = &mut scratch.context;
    // Per-program schedules, ALAP-aligned to the common end time.
    let schedules: Vec<Schedule> = programs
        .iter()
        .map(|p| program_schedule(device, p, durations, deadlines))
        .collect();
    let makespans: Vec<f64> = schedules.iter().map(Schedule::makespan).collect();
    let makespan = makespans.iter().copied().fold(0.0, f64::max);
    // Only two-qubit gates can conflict: keep those, shifted so all
    // programs finish together, each with the physical link it drives.
    two_qubit.clear();
    two_qubit_ends.clear();
    for (p, sched) in programs.iter().zip(&schedules) {
        let shift = makespan - sched.makespan();
        let gates = p.circuit.gates();
        let entries = sched.entries().iter();
        two_qubit.extend(
            entries
                .filter(|e| gates[e.gate_index].is_two_qubit())
                .map(|e| {
                    let qs = gates[e.gate_index].qubits();
                    let qs = qs.as_slice();
                    let mut aligned = *e;
                    aligned.start += shift;
                    (aligned, Link::new(p.layout[qs[0]], p.layout[qs[1]]))
                }),
        );
        two_qubit_ends.push(two_qubit.len());
    }
    // The distinct links each program drives: a program pair with no
    // one-hop pair among them has nothing to scan.
    driven.clear();
    driven_ends.clear();
    for i in 0..programs.len() {
        let start = driven.len();
        for &(_, l) in span(two_qubit, two_qubit_ends, i) {
            if !driven[start..].contains(&l) {
                driven.push(l);
            }
        }
        driven[start..].sort_unstable();
        driven_ends.push(driven.len());
    }
    // Disjoint partitions never share a qubit; the relation says so
    // all the same.
    let topo = device.topology();

    let mut scalings: Vec<NoiseScaling> = programs
        .iter()
        .map(|p| NoiseScaling::uniform(p.circuit.gate_count()))
        .collect();
    extra_delay.clear();
    extra_delay.resize(programs.len(), 0.0);
    let mut conflict_count = 0usize;

    for i in 0..programs.len() {
        for j in i + 1..programs.len() {
            let (driven_i, driven_j) = (span(driven, driven_ends, i), span(driven, driven_ends, j));
            let adjacent = driven_i
                .iter()
                .any(|&li| driven_j.iter().any(|&lj| topo.is_one_hop(li, lj)));
            if !adjacent {
                continue;
            }
            for &(ei, li) in span(two_qubit, two_qubit_ends, i) {
                for &(ej, lj) in span(two_qubit, two_qubit_ends, j) {
                    if !ei.overlaps(&ej) || !topo.is_one_hop(li, lj) {
                        continue;
                    }
                    conflict_count += 1;
                    if serialize {
                        // Delay the later program's gate past the other:
                        // charge the overlap duration as extra wall time.
                        let overlap = (ei.end().min(ej.end())) - (ei.start.max(ej.start));
                        extra_delay[j] += overlap;
                    } else {
                        let gamma = device.crosstalk().gamma(li, lj);
                        scalings[i].amplify(ei.gate_index, gamma);
                        scalings[j].amplify(ej.gate_index, gamma);
                    }
                }
            }
        }
    }

    let tail_idle: Vec<Vec<f64>> = programs
        .iter()
        .zip(extra_delay.iter())
        .map(|(p, &d)| vec![d; p.circuit.width()])
        .collect();

    WorkloadContext {
        scalings,
        tail_idle,
        conflict_count,
        makespan,
        serial_runtime: makespans.iter().sum(),
        program_makespans: makespans,
        schedules,
    }
}

/// Part `i` of a flat list cut by end offsets.
fn span<'a, T>(flat: &'a [T], ends: &[usize], i: usize) -> &'a [T] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &flat[start..ends[i]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_circuit::Circuit;
    use qucp_device::{Calibration, CrosstalkModel, LinkPair, Topology};

    /// Line of 5: programs on {0,1} and {2,3}; links 0-1 and 2-3 are one
    /// hop apart (dist(1,2) = 1) and share no qubit.
    fn device_with_gamma(gamma: f64) -> Device {
        let t = Topology::line(5);
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        let pair = LinkPair::new(Link::new(0, 1), Link::new(2, 3));
        let xt = CrosstalkModel::from_pairs([(pair, gamma)]);
        Device::new("ctx", t, cal, xt)
    }

    fn mapped_cx_program(layout: Vec<usize>) -> MappedProgram {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        MappedProgram {
            circuit: c,
            layout,
            initial_mapping: vec![0, 1],
            final_mapping: vec![0, 1],
            swap_count: 0,
        }
    }

    #[test]
    fn overlapping_one_hop_cnots_get_gamma() {
        let dev = device_with_gamma(5.0);
        let p1 = mapped_cx_program(vec![0, 1]);
        let p2 = mapped_cx_program(vec![2, 3]);
        let ctx = build_context(&dev, &[p1, p2], false);
        assert_eq!(ctx.conflict_count, 1);
        assert_eq!(ctx.scalings[0].factor(0), 5.0);
        assert_eq!(ctx.scalings[1].factor(0), 5.0);
        assert!(ctx.tail_idle.iter().all(|t| t.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn serialization_charges_delay_instead() {
        let dev = device_with_gamma(5.0);
        let p1 = mapped_cx_program(vec![0, 1]);
        let p2 = mapped_cx_program(vec![2, 3]);
        let ctx = build_context(&dev, &[p1, p2], true);
        assert_eq!(ctx.conflict_count, 1);
        assert_eq!(ctx.scalings[0].factor(0), 1.0);
        assert_eq!(ctx.scalings[1].factor(0), 1.0);
        assert!(ctx.tail_idle[1][0] > 0.0);
        assert_eq!(ctx.tail_idle[0][0], 0.0);
    }

    #[test]
    fn distant_programs_have_no_conflicts() {
        let t = Topology::line(8);
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        let dev = Device::new("far", t, cal, CrosstalkModel::none());
        let p1 = mapped_cx_program(vec![0, 1]);
        let p2 = mapped_cx_program(vec![5, 6]);
        let ctx = build_context(&dev, &[p1, p2], false);
        assert_eq!(ctx.conflict_count, 0);
        assert_eq!(ctx.scalings[0].factor(0), 1.0);
    }

    #[test]
    fn alap_alignment_separates_staggered_gates() {
        // Program 1 has one cx; program 2 has a long single-qubit tail
        // after its cx, so under end-aligned ALAP its cx happens much
        // earlier and they do NOT overlap.
        let dev = device_with_gamma(5.0);
        let p1 = mapped_cx_program(vec![0, 1]);
        let mut c2 = Circuit::new(2);
        c2.cx(0, 1);
        for _ in 0..40 {
            c2.h(0);
            c2.h(1);
        }
        let p2 = MappedProgram {
            circuit: c2,
            layout: vec![2, 3],
            initial_mapping: vec![0, 1],
            final_mapping: vec![0, 1],
            swap_count: 0,
        };
        let ctx = build_context(&dev, &[p1, p2], false);
        assert_eq!(ctx.conflict_count, 0, "staggered gates should not overlap");
    }

    /// The merge as it was: every schedule entry of every program pair
    /// visited, the driven link re-derived per visit. The oracle for
    /// [`build_context`]'s pruned scan.
    fn full_scan_context(
        device: &Device,
        programs: &[MappedProgram],
        serialize: bool,
    ) -> WorkloadContext {
        let timed: Vec<Schedule> = programs
            .iter()
            .map(|p| program_schedule(device, p, &mut Vec::new(), &mut Vec::new()))
            .collect();
        let mut schedules: Vec<Vec<ScheduledGate>> = Vec::with_capacity(programs.len());
        let mut makespans = Vec::with_capacity(programs.len());
        for sched in &timed {
            makespans.push(sched.makespan());
            schedules.push(sched.entries().to_vec());
        }
        let makespan = makespans.iter().copied().fold(0.0, f64::max);
        for (entries, &m) in schedules.iter_mut().zip(&makespans) {
            let shift = makespan - m;
            for e in entries.iter_mut() {
                e.start += shift;
            }
        }
        let mut scalings: Vec<NoiseScaling> = programs
            .iter()
            .map(|p| NoiseScaling::uniform(p.circuit.gate_count()))
            .collect();
        let mut extra_delay = vec![0.0f64; programs.len()];
        let mut conflict_count = 0usize;
        let link_of = |p: &MappedProgram, gate_index: usize| -> Option<Link> {
            let g = &p.circuit.gates()[gate_index];
            if !g.is_two_qubit() {
                return None;
            }
            let qs = g.qubits();
            let qs = qs.as_slice();
            Some(Link::new(p.layout[qs[0]], p.layout[qs[1]]))
        };
        for i in 0..programs.len() {
            for j in i + 1..programs.len() {
                for ei in &schedules[i] {
                    let Some(li) = link_of(&programs[i], ei.gate_index) else {
                        continue;
                    };
                    for ej in &schedules[j] {
                        let Some(lj) = link_of(&programs[j], ej.gate_index) else {
                            continue;
                        };
                        if !ei.overlaps(ej)
                            || li.shares_qubit(&lj)
                            || device.topology().link_distance(li, lj) != 1
                        {
                            continue;
                        }
                        conflict_count += 1;
                        if serialize {
                            let overlap = (ei.end().min(ej.end())) - (ei.start.max(ej.start));
                            extra_delay[j] += overlap;
                        } else {
                            let gamma = device.crosstalk().gamma(li, lj);
                            scalings[i].amplify(ei.gate_index, gamma);
                            scalings[j].amplify(ej.gate_index, gamma);
                        }
                    }
                }
            }
        }
        let tail_idle: Vec<Vec<f64>> = programs
            .iter()
            .zip(&extra_delay)
            .map(|(p, &d)| vec![d; p.circuit.width()])
            .collect();
        WorkloadContext {
            scalings,
            tail_idle,
            conflict_count,
            makespan,
            serial_runtime: makespans.iter().sum(),
            program_makespans: makespans,
            schedules: timed,
        }
    }

    /// Every float of a context as its bit pattern.
    fn context_bits(ctx: &WorkloadContext, programs: &[MappedProgram]) -> Vec<u64> {
        let mut bits = vec![
            ctx.conflict_count as u64,
            ctx.makespan.to_bits(),
            ctx.serial_runtime.to_bits(),
        ];
        bits.extend(ctx.program_makespans.iter().map(|m| m.to_bits()));
        bits.extend(ctx.tail_idle.iter().flatten().map(|d| d.to_bits()));
        for (scaling, p) in ctx.scalings.iter().zip(programs) {
            bits.extend((0..p.circuit.gate_count()).map(|g| scaling.factor(g).to_bits()));
        }
        bits
    }

    #[test]
    fn pruned_scan_equals_the_full_scan_on_random_mapped_workloads() {
        use crate::mapping::map_program;
        use crate::partition::{allocate_partitions, PartitionPolicy};
        use crate::CrosstalkTreatment;
        use qucp_device::ibm;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let dev = ibm::toronto();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let mut conflicts = 0;
        for case in 0..60 {
            // Two to four random programs, dense in two-qubit gates,
            // packed next to each other by the calibration-blind policy
            // on even cases and spread by QuCP's on odd ones.
            let circuits: Vec<Circuit> = (0..rng.gen_range(2..5))
                .map(|_| {
                    let width = rng.gen_range(2..6);
                    let mut c = Circuit::new(width);
                    for _ in 0..rng.gen_range(1..30) {
                        let a = rng.gen_range(0..width);
                        let b = (a + rng.gen_range(1..width)) % width;
                        if rng.gen_bool(0.6) {
                            c.cx(a, b);
                        } else {
                            c.h(a);
                        }
                    }
                    c
                })
                .collect();
            let refs: Vec<&Circuit> = circuits.iter().collect();
            let policy = if case % 2 == 0 {
                PartitionPolicy::TopologyGreedy
            } else {
                PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0))
            };
            let mapped: Vec<MappedProgram> = allocate_partitions(&dev, &refs, &policy)
                .unwrap()
                .iter()
                .map(|a| map_program(&dev, &a.qubits, &circuits[a.program_index]))
                .collect();
            for serialize in [false, true] {
                let pruned = build_context(&dev, &mapped, serialize);
                let full = full_scan_context(&dev, &mapped, serialize);
                assert_eq!(
                    context_bits(&pruned, &mapped),
                    context_bits(&full, &mapped),
                    "case {case}, serialize {serialize}"
                );
                conflicts += pruned.conflict_count;
            }
        }
        assert!(conflicts > 100, "the cases must exercise the charged path");
    }

    #[test]
    fn runtime_accounting() {
        let dev = device_with_gamma(1.0);
        let p1 = mapped_cx_program(vec![0, 1]);
        let p2 = mapped_cx_program(vec![2, 3]);
        let ctx = build_context(&dev, &[p1, p2], false);
        assert!(ctx.makespan > 0.0);
        assert!((ctx.serial_runtime - 2.0 * ctx.makespan).abs() < 1e-9);
    }

    #[test]
    fn single_program_context_is_trivial() {
        let dev = device_with_gamma(9.0);
        let p1 = mapped_cx_program(vec![0, 1]);
        let ctx = build_context(&dev, &[p1], false);
        assert_eq!(ctx.conflict_count, 0);
        assert_eq!(ctx.scalings.len(), 1);
        assert_eq!(ctx.scalings[0].factor(0), 1.0);
    }
}
