//! The [`Device`] aggregate: topology + calibration + crosstalk ground
//! truth.

use std::sync::Arc;

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
/// A device is a value: nothing borrows its state mutably. A new
/// calibration snapshot is a new device,
/// [`with_state`](Device::with_state), which shares the name and the
/// topology by reference count.
///
/// Besides its value — name, topology, calibration, crosstalk — a
/// device carries the *region atlas* of its calibration snapshot: the
/// idle-chip candidate regions partitioners keep asking for, grown
/// once and shared by clones. The atlas is a pure function of the
/// topology and the calibration, starts empty on every new device, and
/// is ignored by `PartialEq` and `Debug`; see
/// [`idle_regions`](Device::idle_regions) for the full contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: Arc<str>,
    topology: Arc<Topology>,
    calibration: Calibration,
    crosstalk: CrosstalkModel,
    /// Idle-chip regions of `calibration` (see
    /// [`idle_regions`](Device::idle_regions)).
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
            name: name.into().into(),
            atlas: RegionAtlas::empty(topology.num_qubits()),
            topology: Arc::new(topology),
            calibration,
            crosstalk,
        }
    }

    /// The same chip under another calibration state: the name and the
    /// topology are shared, the atlas starts empty. Recalibration and
    /// drift install such a device; they never edit one in place.
    ///
    /// ```
    /// use qucp_device::ibm;
    /// let dev = ibm::toronto();
    /// let mut calibration = dev.calibration().clone();
    /// calibration.set_readout_error(0, 0.2);
    /// let next = dev.with_state(calibration, dev.crosstalk().clone());
    /// assert_eq!(next.calibration().readout_error(0), 0.2);
    /// assert_ne!(dev.calibration().readout_error(0), 0.2);
    /// assert_eq!(next.name(), dev.name());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the calibration was built for a different qubit count.
    #[must_use]
    pub fn with_state(&self, calibration: Calibration, crosstalk: CrosstalkModel) -> Device {
        assert_eq!(
            self.num_qubits(),
            calibration.num_qubits(),
            "calibration does not match topology"
        );
        Device {
            name: Arc::clone(&self.name),
            atlas: RegionAtlas::empty(self.num_qubits()),
            topology: Arc::clone(&self.topology),
            calibration,
            crosstalk,
        }
    }

    /// The device name (e.g. `"ibmq_toronto"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device name as the reference-counted string every device of
    /// this chip shares ([`with_state`](Device::with_state) keeps it):
    /// a holder that clones it copies no byte of the name.
    pub fn shared_name(&self) -> &Arc<str> {
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

    /// The region atlas of the current calibration snapshot.
    pub(crate) fn atlas(&self) -> &RegionAtlas {
        &self.atlas
    }

    /// The crosstalk ground truth.
    pub fn crosstalk(&self) -> &CrosstalkModel {
        &self.crosstalk
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
    fn with_state_allows_overrides() {
        let d = device();
        let mut cal = d.calibration().clone();
        cal.set_readout_error(0, 0.2);
        let edited = d.with_state(cal, d.crosstalk().clone());
        assert_eq!(edited.calibration().readout_error(0), 0.2);
        assert_eq!(d.calibration().readout_error(0), 0.03);
        assert!(std::ptr::eq(edited.topology(), d.topology()));
        assert!(Arc::ptr_eq(edited.shared_name(), d.shared_name()));
    }

    #[test]
    #[should_panic(expected = "calibration does not match topology")]
    fn mismatched_state_panics() {
        let d = device();
        let other = Topology::line(5);
        let cal = Calibration::uniform(&other, 0.02, 3e-4, 0.03);
        let _ = d.with_state(cal, CrosstalkModel::none());
    }
}
