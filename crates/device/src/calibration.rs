//! Device calibration data: gate/readout error rates, coherence times and
//! gate durations.
//!
//! This mirrors the content of IBM's daily `properties()` snapshot that
//! the paper's partitioning and mapping policies consume (Fig. 1 of the
//! paper prints the CNOT and readout error rates of IBM Q 16 Melbourne).
//! Real calibration snapshots are not available offline, so calibrations
//! are synthesized from a seeded RNG with magnitudes matched to the
//! figures in the paper; see [`NoiseProfile`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link::Link;
use crate::topology::{LinkIndex, Topology};

/// Magnitude ranges used when synthesizing a calibration.
///
/// Defaults match the regimes printed in the paper's Fig. 1 (CNOT error
/// ≈ 1–6×10⁻², readout ≈ 1–8×10⁻², one-qubit error a few 10⁻⁴).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Uniform range of baseline CNOT error rates.
    pub cx_error: (f64, f64),
    /// Fraction of links further degraded (the "red" links of Fig. 1).
    pub bad_link_fraction: f64,
    /// Multiplier range applied to degraded links.
    pub bad_link_factor: (f64, f64),
    /// Uniform range of one-qubit gate error rates.
    pub sq_error: (f64, f64),
    /// Uniform range of readout error rates.
    pub readout_error: (f64, f64),
    /// Fraction of qubits with degraded readout.
    pub bad_readout_fraction: f64,
    /// Multiplier range applied to degraded readout qubits.
    pub bad_readout_factor: (f64, f64),
    /// Uniform range of T1 relaxation times, nanoseconds.
    pub t1: (f64, f64),
    /// Uniform range of T2 dephasing times, nanoseconds (clamped to 2·T1).
    pub t2: (f64, f64),
    /// Uniform range of CNOT durations, nanoseconds.
    pub cx_duration: (f64, f64),
    /// Duration of one-qubit gates, nanoseconds.
    pub sq_duration: f64,
    /// Duration of measurement, nanoseconds.
    pub readout_duration: f64,
}

impl Default for NoiseProfile {
    fn default() -> Self {
        NoiseProfile {
            cx_error: (0.006, 0.040),
            bad_link_fraction: 0.18,
            bad_link_factor: (1.8, 3.0),
            sq_error: (2.0e-4, 8.0e-4),
            readout_error: (0.008, 0.050),
            bad_readout_fraction: 0.18,
            bad_readout_factor: (2.0, 3.5),
            t1: (60_000.0, 120_000.0),
            t2: (40_000.0, 140_000.0),
            cx_duration: (250.0, 450.0),
            sq_duration: 35.0,
            readout_duration: 700.0,
        }
    }
}

/// A calibration snapshot for a device.
///
/// The per-link entries are a table: one CNOT error and one CNOT
/// duration per link of the topology the snapshot was made for, in that
/// topology's canonical link order, found through the topology's link
/// index (shared by reference count with the topology and every
/// clone). Two
/// snapshots are equal when their links and every entry are.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    links: Arc<LinkIndex>,
    cx_error: Vec<f64>,
    cx_duration: Vec<f64>,
    sq_error: Vec<f64>,
    readout_error: Vec<f64>,
    t1: Vec<f64>,
    t2: Vec<f64>,
    sq_duration: f64,
    readout_duration: f64,
}

impl Calibration {
    /// Synthesizes a calibration for `topology` from `profile`, seeded for
    /// reproducibility.
    pub fn synthesize(topology: &Topology, seed: u64, profile: &NoiseProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = topology.num_qubits();
        let mut cx_error = Vec::with_capacity(topology.num_links());
        let mut cx_duration = Vec::with_capacity(topology.num_links());
        for _ in topology.links() {
            let mut e = rng.gen_range(profile.cx_error.0..profile.cx_error.1);
            if rng.gen_bool(profile.bad_link_fraction) {
                e *= rng.gen_range(profile.bad_link_factor.0..profile.bad_link_factor.1);
            }
            cx_error.push(e.min(0.45));
            cx_duration.push(rng.gen_range(profile.cx_duration.0..profile.cx_duration.1));
        }
        let sq_error: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(profile.sq_error.0..profile.sq_error.1))
            .collect();
        let readout_error: Vec<f64> = (0..n)
            .map(|_| {
                let mut e = rng.gen_range(profile.readout_error.0..profile.readout_error.1);
                if rng.gen_bool(profile.bad_readout_fraction) {
                    e *= rng.gen_range(profile.bad_readout_factor.0..profile.bad_readout_factor.1);
                }
                e.min(0.45)
            })
            .collect();
        let t1: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(profile.t1.0..profile.t1.1))
            .collect();
        let t2: Vec<f64> = t1
            .iter()
            .map(|&t1q| rng.gen_range(profile.t2.0..profile.t2.1).min(2.0 * t1q))
            .collect();
        Calibration {
            links: Arc::clone(topology.link_index()),
            cx_error,
            cx_duration,
            sq_error,
            readout_error,
            t1,
            t2,
            sq_duration: profile.sq_duration,
            readout_duration: profile.readout_duration,
        }
    }

    /// Builds a calibration with uniform values (useful in tests where the
    /// noise landscape must be flat).
    pub fn uniform(topology: &Topology, cx_error: f64, sq_error: f64, readout_error: f64) -> Self {
        let n = topology.num_qubits();
        let profile = NoiseProfile::default();
        Calibration {
            links: Arc::clone(topology.link_index()),
            cx_error: vec![cx_error; topology.num_links()],
            cx_duration: vec![300.0; topology.num_links()],
            sq_error: vec![sq_error; n],
            readout_error: vec![readout_error; n],
            t1: vec![90_000.0; n],
            t2: vec![80_000.0; n],
            sq_duration: profile.sq_duration,
            readout_duration: profile.readout_duration,
        }
    }

    /// Overrides the CNOT error of one link (used to transcribe Fig. 1's
    /// Melbourne values and in tests).
    ///
    /// # Panics
    ///
    /// Panics if the link is not part of the calibration.
    pub fn set_cx_error(&mut self, link: Link, error: f64) {
        let i = self.entry(link);
        self.cx_error[i] = error;
    }

    /// The table entry of `link`.
    ///
    /// # Panics
    ///
    /// Panics if the link is not part of the calibration.
    fn entry(&self, link: Link) -> usize {
        self.links
            .position(link)
            .unwrap_or_else(|| panic!("link {link} not in calibration"))
    }

    /// Overrides the readout error of one qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set_readout_error(&mut self, q: usize, error: f64) {
        self.readout_error[q] = error;
    }

    /// CNOT error rate on a link.
    ///
    /// # Panics
    ///
    /// Panics if the link is not part of the topology's link set.
    pub fn cx_error(&self, link: Link) -> f64 {
        self.cx_error[self.entry(link)]
    }

    /// CNOT duration on a link in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the link is not part of the topology's link set.
    pub fn cx_duration(&self, link: Link) -> f64 {
        self.cx_duration[self.entry(link)]
    }

    /// One-qubit gate error rate of qubit `q`.
    pub fn sq_error(&self, q: usize) -> f64 {
        self.sq_error[q]
    }

    /// Readout (measurement) error rate of qubit `q`.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// T1 relaxation time of qubit `q` in nanoseconds.
    pub fn t1(&self, q: usize) -> f64 {
        self.t1[q]
    }

    /// T2 dephasing time of qubit `q` in nanoseconds.
    pub fn t2(&self, q: usize) -> f64 {
        self.t2[q]
    }

    /// One-qubit gate duration in nanoseconds.
    pub fn sq_duration(&self) -> f64 {
        self.sq_duration
    }

    /// Readout duration in nanoseconds.
    pub fn readout_duration(&self) -> f64 {
        self.readout_duration
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.sq_error.len()
    }

    /// Mean CNOT error over all links.
    pub fn mean_cx_error(&self) -> f64 {
        if self.cx_error.is_empty() {
            return 0.0;
        }
        self.cx_error.iter().sum::<f64>() / self.cx_error.len() as f64
    }

    /// Mean readout error over all qubits.
    pub fn mean_readout_error(&self) -> f64 {
        self.readout_error.iter().sum::<f64>() / self.readout_error.len() as f64
    }

    /// Mutable access to every link's CNOT error, in canonical link
    /// order — the iteration a [`DriftModel`](crate::DriftModel)
    /// perturbs, deterministic because the table is kept in the
    /// topology's canonical link order.
    pub fn cx_errors_mut(&mut self) -> impl Iterator<Item = (Link, &mut f64)> {
        self.links.links().iter().copied().zip(&mut self.cx_error)
    }

    /// Mutable access to the one-qubit gate errors, indexed by qubit.
    pub fn sq_errors_mut(&mut self) -> &mut [f64] {
        &mut self.sq_error
    }

    /// Mutable access to the readout errors, indexed by qubit.
    pub fn readout_errors_mut(&mut self) -> &mut [f64] {
        &mut self.readout_error
    }

    /// Whether every stored entry (errors, durations, coherence times)
    /// is finite — the validity gate a live-fleet recalibration API
    /// checks before letting a snapshot near the planning caches.
    pub fn all_finite(&self) -> bool {
        self.cx_error.iter().all(|e| e.is_finite())
            && self.cx_duration.iter().all(|d| d.is_finite())
            && self.sq_error.iter().all(|e| e.is_finite())
            && self.readout_error.iter().all(|e| e.is_finite())
            && self.t1.iter().all(|t| t.is_finite())
            && self.t2.iter().all(|t| t.is_finite())
            && self.sq_duration.is_finite()
            && self.readout_duration.is_finite()
    }

    /// Whether every error rate lies in `[0, 1]` and every duration and
    /// coherence time is at least 0 — the range check a live-fleet
    /// recalibration and a drift step pass before a snapshot is
    /// installed. (A NaN is in no range; an infinite time is in range,
    /// which [`Calibration::all_finite`] checks.)
    pub fn in_range(&self) -> bool {
        let rate = |e: &f64| (0.0..=1.0).contains(e);
        let time = |t: &f64| *t >= 0.0;
        self.cx_error.iter().all(rate)
            && self.sq_error.iter().all(rate)
            && self.readout_error.iter().all(rate)
            && self.cx_duration.iter().all(time)
            && self.t1.iter().all(time)
            && self.t2.iter().all(time)
            && time(&self.sq_duration)
            && time(&self.readout_duration)
    }

    /// Whether this snapshot calibrates every link of `topology` (and
    /// the same qubit count) — required before swapping it into a
    /// device, or the per-link accessors would panic mid-plan.
    pub fn covers(&self, topology: &Topology) -> bool {
        self.num_qubits() == topology.num_qubits()
            && (Arc::ptr_eq(&self.links, topology.link_index())
                || (topology.links().iter()).all(|&l| self.links.position(l).is_some()))
    }

    /// Links sorted by ascending CNOT error (most reliable first).
    pub fn links_by_reliability(&self) -> Vec<(Link, f64)> {
        let links = self.links.links().iter().copied();
        let mut v: Vec<(Link, f64)> = links.zip(self.cx_error.iter().copied()).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::grid(3, 3)
    }

    #[test]
    fn synthesize_is_deterministic() {
        let t = topo();
        let p = NoiseProfile::default();
        let a = Calibration::synthesize(&t, 42, &p);
        let b = Calibration::synthesize(&t, 42, &p);
        assert_eq!(a, b);
        let c = Calibration::synthesize(&t, 43, &p);
        assert_ne!(a, c);
    }

    #[test]
    fn synthesized_values_in_range() {
        let t = topo();
        let p = NoiseProfile::default();
        let cal = Calibration::synthesize(&t, 7, &p);
        for &l in t.links() {
            let e = cal.cx_error(l);
            assert!(e >= p.cx_error.0);
            assert!(e <= p.cx_error.1 * p.bad_link_factor.1);
            let d = cal.cx_duration(l);
            assert!(d >= p.cx_duration.0 && d <= p.cx_duration.1);
        }
        for q in 0..t.num_qubits() {
            assert!(cal.sq_error(q) >= p.sq_error.0 && cal.sq_error(q) <= p.sq_error.1);
            assert!(cal.readout_error(q) >= p.readout_error.0);
            assert!(cal.t2(q) <= 2.0 * cal.t1(q) + 1e-9);
        }
    }

    #[test]
    fn uniform_calibration() {
        let t = topo();
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.03);
        assert_eq!(cal.cx_error(Link::new(0, 1)), 0.02);
        assert_eq!(cal.sq_error(5), 3e-4);
        assert_eq!(cal.readout_error(8), 0.03);
        assert!((cal.mean_cx_error() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn setters_override() {
        let t = topo();
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.03);
        cal.set_cx_error(Link::new(0, 1), 0.059);
        cal.set_readout_error(4, 0.08);
        assert_eq!(cal.cx_error(Link::new(0, 1)), 0.059);
        assert_eq!(cal.readout_error(4), 0.08);
    }

    #[test]
    #[should_panic(expected = "not in calibration")]
    fn unknown_link_panics() {
        let t = topo();
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.03);
        cal.cx_error(Link::new(0, 8));
    }

    #[test]
    fn reliability_ordering() {
        let t = Topology::line(3);
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.03);
        cal.set_cx_error(Link::new(0, 1), 0.05);
        let order = cal.links_by_reliability();
        assert_eq!(order[0].0, Link::new(1, 2));
        assert_eq!(order[1].0, Link::new(0, 1));
    }

    #[test]
    fn a_link_reads_the_entry_the_table_iterates_it_with() {
        let t = crate::ibm::toronto_topology();
        let mut cal = Calibration::synthesize(&t, 5, &NoiseProfile::default());
        let listed: Vec<(Link, f64)> = cal.cx_errors_mut().map(|(l, e)| (l, *e)).collect();
        assert_eq!(
            listed.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            t.links()
        );
        for (l, e) in listed {
            assert_eq!(cal.cx_error(l).to_bits(), e.to_bits(), "{l}");
        }
        assert!(cal.covers(&t));
        // A snapshot of a wider link set covers a topology of its links'
        // subset on as many qubits; one that misses a link does not.
        let ring = Topology::ring(6);
        let line = Topology::line(6);
        let ring_cal = Calibration::uniform(&ring, 0.02, 3e-4, 0.03);
        assert!(ring_cal.covers(&line));
        assert!(!Calibration::uniform(&line, 0.02, 3e-4, 0.03).covers(&ring));
        assert_eq!(ring_cal.cx_error(Link::new(0, 5)), 0.02);
    }

    #[test]
    fn mean_errors() {
        let t = Topology::line(3);
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.04);
        cal.set_cx_error(Link::new(0, 1), 0.04);
        assert!((cal.mean_cx_error() - 0.03).abs() < 1e-12);
        assert!((cal.mean_readout_error() - 0.04).abs() < 1e-12);
    }
}
