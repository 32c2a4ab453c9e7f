//! Time scheduling of circuits: moments, ASAP and ALAP schedules, and idle
//! window extraction.
//!
//! The paper (Sec. II-B, "Task scheduling") uses As-Late-As-Possible (ALAP)
//! scheduling for parallel workloads so that qubits stay in the ground state
//! as long as possible, limiting decoherence when circuits of different
//! depths are merged. ALAP is therefore the default throughout this repo;
//! ASAP is provided for comparison and for computing the makespan.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// A gate placed in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledGate {
    /// Index of the gate in the source circuit's gate list.
    pub gate_index: usize,
    /// Start time in nanoseconds.
    pub start: f64,
    /// Duration in nanoseconds.
    pub duration: f64,
}

impl ScheduledGate {
    /// End time in nanoseconds.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// Whether two scheduled gates overlap in time (open intervals).
    pub fn overlaps(&self, other: &ScheduledGate) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// A fully timed circuit schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    entries: Vec<ScheduledGate>,
    makespan: f64,
}

impl Schedule {
    /// The scheduled gates in source order.
    pub fn entries(&self) -> &[ScheduledGate] {
        &self.entries
    }

    /// Total wall-clock duration of the schedule in nanoseconds.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The entry for a particular gate index.
    pub fn entry(&self, gate_index: usize) -> Option<&ScheduledGate> {
        self.entries.iter().find(|e| e.gate_index == gate_index)
    }

    /// Per-qubit idle windows within `[0, makespan]`.
    ///
    /// Returns, for each qubit of the circuit, the list of `(start, end)`
    /// gaps during which the qubit holds state but no gate acts on it. The
    /// noise model converts these into decoherence errors. Leading idle time
    /// (before the first gate on a qubit) is excluded under ALAP semantics:
    /// the qubit is still in the ground state there.
    pub fn idle_windows(&self, circuit: &Circuit) -> Vec<Vec<(f64, f64)>> {
        let mut per_qubit: Vec<Vec<(f64, f64)>> = vec![Vec::new(); circuit.width()];
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); circuit.width()];
        for e in &self.entries {
            for q in &circuit.gates()[e.gate_index].qubits() {
                busy[q].push((e.start, e.end()));
            }
        }
        for (q, spans) in busy.iter_mut().enumerate() {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            if spans.is_empty() {
                continue;
            }
            // Gaps between consecutive operations.
            for w in spans.windows(2) {
                let gap = (w[0].1, w[1].0);
                if gap.1 - gap.0 > 1e-9 {
                    per_qubit[q].push(gap);
                }
            }
            // Trailing idle until readout at the makespan.
            let last_end = spans.last().unwrap().1;
            if self.makespan - last_end > 1e-9 {
                per_qubit[q].push((last_end, self.makespan));
            }
        }
        per_qubit
    }
}

/// Greedy as-soon-as-possible layering of a circuit into moments.
///
/// Each moment is a set of gate indices acting on disjoint qubits. This is
/// the unit-time view used for depth and for coarse crosstalk analysis.
///
/// ```
/// use qucp_circuit::{Circuit, schedule::moments};
/// let mut c = Circuit::new(3);
/// c.h(0).h(1).cx(0, 1).h(2);
/// let m = moments(&c);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m[0], vec![0, 1, 3]); // h q0, h q1, h q2
/// assert_eq!(m[1], vec![2]);       // cx
/// ```
pub fn moments(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut level = vec![0usize; circuit.width()];
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for (i, g) in circuit.gates().iter().enumerate() {
        let start = g.qubits().into_iter().map(|q| level[q]).max().unwrap_or(0);
        for q in &g.qubits() {
            level[q] = start + 1;
        }
        if layers.len() <= start {
            layers.resize_with(start + 1, Vec::new);
        }
        layers[start].push(i);
    }
    layers
}

/// Schedules the circuit as soon as possible with per-gate durations:
/// `duration(i, gate)` is gate `i`'s, so durations may depend on gate
/// position (e.g. link-specific CNOT durations after mapping).
pub fn asap_schedule_with(circuit: &Circuit, duration: impl Fn(usize, &Gate) -> f64) -> Schedule {
    let mut available = vec![0.0f64; circuit.width()];
    let mut entries = Vec::with_capacity(circuit.gate_count());
    let mut makespan = 0.0f64;
    for (i, g) in circuit.gates().iter().enumerate() {
        let start = g
            .qubits()
            .into_iter()
            .map(|q| available[q])
            .fold(0.0f64, f64::max);
        let d = duration(i, g);
        for q in &g.qubits() {
            available[q] = start + d;
        }
        makespan = makespan.max(start + d);
        entries.push(ScheduledGate {
            gate_index: i,
            start,
            duration: d,
        });
    }
    Schedule { entries, makespan }
}

/// Schedules the circuit as late as possible within the ASAP makespan,
/// with [`asap_schedule_with`]'s index-aware durations.
///
/// The relative order of gates on each qubit is preserved; every gate is
/// pushed toward the end of the schedule so that qubits leave the ground
/// state as late as possible (the paper's default policy).
///
/// The makespan is [`asap_schedule_with`]'s, bit for bit: one forward
/// pass takes the same `max` over the same sums, without building the
/// ASAP entries, and its per-qubit buffer then holds the deadlines.
pub fn alap_schedule_with(circuit: &Circuit, duration: impl Fn(usize, &Gate) -> f64) -> Schedule {
    alap_schedule_in(&mut Vec::new(), circuit, duration)
}

/// [`alap_schedule_with`] with its per-qubit buffer lent by the caller:
/// the same schedule, bit for bit, asking the heap only for the entries
/// it returns once `available` has grown to the widest circuit. Whatever
/// `available` holds is overwritten.
pub fn alap_schedule_in(
    available: &mut Vec<f64>,
    circuit: &Circuit,
    duration: impl Fn(usize, &Gate) -> f64,
) -> Schedule {
    available.clear();
    available.resize(circuit.width(), 0.0);
    let mut makespan = 0.0f64;
    for (i, g) in circuit.gates().iter().enumerate() {
        let start = g
            .qubits()
            .into_iter()
            .map(|q| available[q])
            .fold(0.0f64, f64::max);
        let d = duration(i, g);
        for q in &g.qubits() {
            available[q] = start + d;
        }
        makespan = makespan.max(start + d);
    }
    let deadline = available;
    deadline.fill(makespan);
    let mut entries = vec![
        ScheduledGate {
            gate_index: 0,
            start: 0.0,
            duration: 0.0,
        };
        circuit.gate_count()
    ];
    for (i, g) in circuit.gates().iter().enumerate().rev() {
        let end = g
            .qubits()
            .into_iter()
            .map(|q| deadline[q])
            .fold(f64::INFINITY, f64::min);
        let d = duration(i, g);
        let start = end - d;
        for q in &g.qubits() {
            deadline[q] = start;
        }
        entries[i] = ScheduledGate {
            gate_index: i,
            start,
            duration: d,
        };
    }
    Schedule { entries, makespan }
}

/// A simple duration model: constant per gate class.
///
/// Device-accurate durations come from `qucp-device` calibrations; this
/// model is used by unit tests and the pure-circuit examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDurations {
    /// Duration of any one-qubit gate, in nanoseconds.
    pub single: f64,
    /// Duration of a CNOT/CZ/CP, in nanoseconds.
    pub two_qubit: f64,
    /// Duration of a SWAP (typically three CNOTs), in nanoseconds.
    pub swap: f64,
}

impl Default for UniformDurations {
    /// IBM-like defaults: 35 ns one-qubit gates, 300 ns CNOTs.
    fn default() -> Self {
        UniformDurations {
            single: 35.0,
            two_qubit: 300.0,
            swap: 900.0,
        }
    }
}

impl UniformDurations {
    /// Duration of `gate` under this model.
    pub fn duration(&self, gate: &Gate) -> f64 {
        match gate {
            Gate::Swap(..) => self.swap,
            g if g.is_two_qubit() => self.two_qubit,
            _ => self.single,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(_: usize, g: &Gate) -> f64 {
        if g.is_two_qubit() {
            300.0
        } else {
            35.0
        }
    }

    #[test]
    fn asap_timings() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let s = asap_schedule_with(&c, dur);
        assert_eq!(s.entries()[0].start, 0.0);
        assert_eq!(s.entries()[1].start, 35.0);
        assert_eq!(s.entries()[2].start, 335.0);
        assert_eq!(s.makespan(), 370.0);
    }

    #[test]
    fn alap_pushes_gates_late() {
        // q0: h then nothing; q1: long chain. ALAP should delay the h.
        let mut c = Circuit::new(2);
        c.h(0).h(1).h(1).h(1).cx(0, 1);
        let asap = asap_schedule_with(&c, dur);
        let alap = alap_schedule_with(&c, dur);
        assert_eq!(asap.makespan(), alap.makespan());
        // Under ASAP the single h on q0 starts at t=0; under ALAP it abuts
        // the cx.
        assert_eq!(asap.entries()[0].start, 0.0);
        assert_eq!(alap.entries()[0].start, 105.0 - 35.0);
        // Gate order per qubit preserved.
        assert!(alap.entries()[1].start < alap.entries()[2].start);
        assert!(alap.entries()[2].start < alap.entries()[3].start);
    }

    #[test]
    fn alap_reduces_idle_before_first_gate() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).h(1).h(1).cx(0, 1);
        let alap = alap_schedule_with(&c, dur);
        let idle = alap.idle_windows(&c);
        // Under ALAP, qubit 0's h abuts the cx, so no internal gap exists.
        assert!(idle[0].is_empty());
        assert!(idle[1].is_empty());
    }

    #[test]
    fn idle_windows_trailing_gap() {
        // q1 finishes well before q0 under ASAP.
        let mut c = Circuit::new(2);
        c.h(1).h(0).h(0).h(0).h(0);
        let s = asap_schedule_with(&c, dur);
        let idle = s.idle_windows(&c);
        assert_eq!(idle[1].len(), 1);
        let (a, b) = idle[1][0];
        assert_eq!(a, 35.0);
        assert_eq!(b, s.makespan());
    }

    #[test]
    fn idle_windows_internal_gap() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(0).h(0).cx(0, 1);
        let s = asap_schedule_with(&c, dur);
        let idle = s.idle_windows(&c);
        // q1 idles between the two cx gates.
        assert_eq!(idle[1].len(), 1);
        let (a, b) = idle[1][0];
        assert!((b - a - 70.0).abs() < 1e-9);
    }

    #[test]
    fn unused_qubits_have_no_idle_windows() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        let s = alap_schedule_with(&c, dur);
        assert!(s.idle_windows(&c)[2].is_empty());
    }

    #[test]
    fn moments_group_disjoint_gates() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 1).cx(2, 3).h(0);
        let m = moments(&c);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], vec![0, 1, 3]);
        assert_eq!(m[1], vec![2]);
        assert_eq!(m[2], vec![4]);
    }

    #[test]
    fn overlap_detection() {
        let a = ScheduledGate {
            gate_index: 0,
            start: 0.0,
            duration: 10.0,
        };
        let b = ScheduledGate {
            gate_index: 1,
            start: 5.0,
            duration: 10.0,
        };
        let c = ScheduledGate {
            gate_index: 2,
            start: 10.0,
            duration: 5.0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn uniform_durations_default() {
        let d = UniformDurations::default();
        assert_eq!(d.duration(&Gate::H(0)), 35.0);
        assert_eq!(d.duration(&Gate::Cx(0, 1)), 300.0);
        assert_eq!(d.duration(&Gate::Swap(0, 1)), 900.0);
    }

    #[test]
    fn empty_circuit_schedule() {
        let c = Circuit::new(3);
        let s = alap_schedule_with(&c, dur);
        assert_eq!(s.makespan(), 0.0);
        assert!(s.entries().is_empty());
    }

    #[test]
    fn schedule_entry_lookup() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = asap_schedule_with(&c, dur);
        assert!(s.entry(1).is_some());
        assert!(s.entry(7).is_none());
    }
}
