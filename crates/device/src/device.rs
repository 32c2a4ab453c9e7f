//! The [`Device`] aggregate: topology + calibration + crosstalk ground
//! truth.

use crate::calibration::Calibration;
use crate::crosstalk::CrosstalkModel;
use crate::link::Link;
use crate::region::RegionAtlas;
use crate::topology::Topology;

/// A NISQ device model.
///
/// ```
/// use qucp_device::ibm;
/// let dev = ibm::toronto();
/// assert_eq!(dev.num_qubits(), 27);
/// assert_eq!(dev.topology().num_links(), 28);
/// ```
///
/// Besides its value — name, topology, calibration, crosstalk — a
/// device carries the *region atlas* of its current calibration
/// snapshot: the idle-chip candidate regions partitioners keep asking
/// for, grown once and shared by clones. The atlas is a pure function
/// of the topology and the calibration, is replaced by an empty one
/// whenever the calibration is borrowed mutably, and is ignored by
/// `PartialEq` and `Debug`; see
/// [`idle_regions`](Device::idle_regions) for the full contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    topology: Topology,
    calibration: Calibration,
    crosstalk: CrosstalkModel,
    /// Idle-chip regions of `calibration` (see
    /// [`idle_regions`](Device::idle_regions)); every `&mut` route to
    /// `calibration` must reset it.
    atlas: RegionAtlas,
}

impl Device {
    /// Assembles a device from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the calibration was built for a different qubit count.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        calibration: Calibration,
        crosstalk: CrosstalkModel,
    ) -> Self {
        assert_eq!(
            topology.num_qubits(),
            calibration.num_qubits(),
            "calibration does not match topology"
        );
        Device {
            name: name.into(),
            atlas: RegionAtlas::empty(topology.num_qubits()),
            topology,
            calibration,
            crosstalk,
        }
    }

    /// The device name (e.g. `"ibmq_toronto"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coupling topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration snapshot.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Mutable access to the calibration (recalibration, tests and
    /// what-if experiments). Empties the region atlas first, whether or
    /// not the caller goes on to change anything.
    pub fn calibration_mut(&mut self) -> &mut Calibration {
        self.atlas = RegionAtlas::empty(self.topology.num_qubits());
        &mut self.calibration
    }

    /// The region atlas of the current calibration snapshot.
    pub(crate) fn atlas(&self) -> &RegionAtlas {
        &self.atlas
    }

    /// The crosstalk ground truth.
    pub fn crosstalk(&self) -> &CrosstalkModel {
        &self.crosstalk
    }

    /// Mutable access to the crosstalk ground truth (drift models and
    /// what-if experiments).
    pub fn crosstalk_mut(&mut self) -> &mut CrosstalkModel {
        &mut self.crosstalk
    }

    /// Simultaneous mutable access to the calibration and the
    /// crosstalk ground truth — the borrow a
    /// [`DriftModel`](crate::DriftModel) step needs, since it perturbs
    /// both in one pass. Empties the region atlas first, like
    /// [`calibration_mut`](Device::calibration_mut).
    pub fn calibration_state_mut(&mut self) -> (&mut Calibration, &mut CrosstalkModel) {
        self.atlas = RegionAtlas::empty(self.topology.num_qubits());
        (&mut self.calibration, &mut self.crosstalk)
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// Whether the chip can in principle host a program of `width`
    /// logical qubits — the cheap topology-level admission check a
    /// multi-device dispatcher runs before committing to the expensive
    /// partition probe (which also consults calibration quality).
    ///
    /// Zero-width programs are rejected: they claim no qubits and a
    /// scheduler has nothing to place.
    ///
    /// ```
    /// use qucp_device::ibm;
    /// let dev = ibm::toronto();
    /// assert!(dev.admits(27));
    /// assert!(!dev.admits(28));
    /// assert!(!dev.admits(0));
    /// ```
    pub fn admits(&self, width: usize) -> bool {
        width >= 1 && width <= self.num_qubits()
    }

    /// Hardware throughput (paper Sec. II-A): used qubits over total.
    pub fn throughput(&self, used_qubits: usize) -> f64 {
        used_qubits as f64 / self.num_qubits() as f64
    }

    /// Error rate of a CNOT on a physical link.
    ///
    /// # Panics
    ///
    /// Panics if `(a, b)` is not a coupling link of the device.
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        self.calibration.cx_error(Link::new(a, b))
    }

    /// Duration (ns) of a CNOT on a physical link.
    ///
    /// # Panics
    ///
    /// Panics if `(a, b)` is not a coupling link of the device.
    pub fn cx_duration(&self, a: usize, b: usize) -> f64 {
        self.calibration.cx_duration(Link::new(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        let t = Topology::line(4);
        let cal = Calibration::uniform(&t, 0.02, 3e-4, 0.03);
        Device::new("test", t, cal, CrosstalkModel::none())
    }

    #[test]
    fn accessors() {
        let d = device();
        assert_eq!(d.name(), "test");
        assert_eq!(d.num_qubits(), 4);
        assert_eq!(d.cx_error(1, 0), 0.02);
        assert_eq!(d.cx_duration(2, 3), 300.0);
    }

    #[test]
    fn throughput_fraction() {
        let d = device();
        assert!((d.throughput(2) - 0.5).abs() < 1e-12);
        assert_eq!(d.throughput(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "calibration does not match topology")]
    fn mismatched_calibration_panics() {
        let t = Topology::line(4);
        let other = Topology::line(5);
        let cal = Calibration::uniform(&other, 0.02, 3e-4, 0.03);
        Device::new("bad", t, cal, CrosstalkModel::none());
    }

    #[test]
    fn calibration_mut_allows_overrides() {
        let mut d = device();
        d.calibration_mut().set_readout_error(0, 0.2);
        assert_eq!(d.calibration().readout_error(0), 0.2);
    }
}
