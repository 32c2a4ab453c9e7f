//! Connected candidate regions of a chip: the QuMC growth heuristic,
//! and the per-calibration atlas of what it grows on an idle chip.
//!
//! A multiprogramming partitioner asks one question over and over:
//! *which connected regions of `size` qubits could host a program?*
//! [`Device::grow_regions`] answers it by growing one region from every
//! free seed qubit, and [`Device::idle_regions`] keeps the answer for
//! the chip with nothing placed on it — the first placement of every
//! allocation, and the whole of every solo probe.

use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

use crate::calibration::Calibration;
use crate::device::Device;
use crate::link::Link;
use crate::topology::Topology;

/// A set of physical qubits with what a partition scorer reads off it:
/// the induced coupling links and the three error sums of the EFS
/// metric.
///
/// The sums are accumulated from zero in a fixed order — CNOT errors
/// over [`links`](Region::links) in canonical link order, one-qubit and
/// readout errors over [`qubits`](Region::qubits) in listed order — so
/// a scorer that divides them reproduces, bit for bit, what summing the
/// calibration entries itself would give.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    qubits: Vec<usize>,
    links: Vec<Link>,
    cx_error_sum: f64,
    sq_error_sum: f64,
    readout_error_sum: f64,
}

impl Region {
    fn measure(cal: &Calibration, qubits: Vec<usize>, links: Vec<Link>) -> Region {
        let mut cx_error_sum = 0.0;
        for &l in &links {
            cx_error_sum += cal.cx_error(l);
        }
        Region {
            cx_error_sum,
            sq_error_sum: qubits.iter().map(|&q| cal.sq_error(q)).sum(),
            readout_error_sum: qubits.iter().map(|&q| cal.readout_error(q)).sum(),
            qubits,
            links,
        }
    }

    /// The region's physical qubits (ascending for grown regions).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The coupling links with both endpoints in the region, in the
    /// topology's canonical order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Sum of the CNOT errors of [`links`](Region::links).
    pub fn cx_error_sum(&self) -> f64 {
        self.cx_error_sum
    }

    /// Sum of the one-qubit gate errors of the region's qubits.
    pub fn sq_error_sum(&self) -> f64 {
        self.sq_error_sum
    }

    /// Sum of the readout errors of the region's qubits.
    pub fn readout_error_sum(&self) -> f64 {
        self.readout_error_sum
    }
}

/// The idle-chip regions of one calibration snapshot, one lazily filled
/// slot per width (see [`Device::idle_regions`]). A cache over the
/// device, not part of its value: `Clone` shares it, `PartialEq` and
/// `Debug` ignore it.
#[derive(Clone)]
pub(crate) struct RegionAtlas(Arc<[OnceLock<Vec<Region>>]>);

impl RegionAtlas {
    /// An atlas with every slot empty, for a chip of `num_qubits`.
    pub(crate) fn empty(num_qubits: usize) -> Self {
        RegionAtlas((0..=num_qubits).map(|_| OnceLock::new()).collect())
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|slot| slot.get().is_none())
    }
}

impl PartialEq for RegionAtlas {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for RegionAtlas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionAtlas").finish_non_exhaustive()
    }
}

impl Device {
    /// The region induced by `qubits`: its links and error sums under
    /// the current calibration.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range.
    pub fn region(&self, qubits: &[usize]) -> Region {
        let links = self.topology().links_within(qubits);
        Region::measure(self.calibration(), qubits.to_vec(), links)
    }

    /// Grows connected candidate regions of `size` qubits, one from
    /// every seed qubit not marked in `blocked`, never stepping onto a
    /// blocked qubit. Neighbour additions are ranked compactness-first
    /// (most links back into the region — the QuMC growth heuristic,
    /// which keeps routing cheap), then by the most reliable connecting
    /// link, then by readout error, then by index.
    ///
    /// Returns the distinct regions (qubits ascending) in order of
    /// their first seed; at most one per free qubit.
    ///
    /// # Panics
    ///
    /// Panics if `blocked` does not have one entry per qubit.
    pub fn grow_regions(&self, size: usize, blocked: &[bool]) -> Vec<Region> {
        grow(self.topology(), self.calibration(), size, blocked)
    }

    /// The candidate regions of `size` qubits on the **idle** chip:
    /// [`grow_regions`](Device::grow_regions) with nothing blocked,
    /// grown once per calibration snapshot.
    ///
    /// ## The region atlas
    ///
    /// What this returns is a pure function of the topology, the
    /// calibration and `size`, so the device keeps it, one slot per
    /// width, filled on first request. The atlas
    ///
    /// * belongs to one calibration: a device has no `&mut` route to
    ///   its state, and a new state is a new device
    ///   ([`with_state`](Device::with_state)) whose atlas starts empty,
    ///   so no edit can be followed by a stale read — there is no epoch
    ///   to compare and nothing to remember to call;
    /// * is shared by `Clone`: a clone reads and fills the same slots;
    /// * retains at most one region per qubit for each width requested
    ///   (at most `num_qubits()` widths), and is dropped with the last
    ///   device sharing it;
    /// * is **not part of the device's value**: `PartialEq` and `Debug`
    ///   ignore it, and a device that has answered a thousand requests
    ///   equals one that was just constructed.
    pub fn idle_regions(&self, size: usize) -> &[Region] {
        match self.atlas().0.get(size) {
            Some(slot) => slot.get_or_init(|| {
                let free = vec![false; self.num_qubits()];
                grow(self.topology(), self.calibration(), size, &free)
            }),
            // Wider than the chip: nothing to grow.
            None => &[],
        }
    }
}

/// The growth kernel behind [`Device::grow_regions`].
///
/// Membership tests are flat masks; a frontier qubit is scored from its
/// own side (its neighbours that are already in the region), reading
/// CNOT errors from a per-adjacency-slot table filled once per call.
fn grow(topo: &Topology, cal: &Calibration, size: usize, blocked: &[bool]) -> Vec<Region> {
    let n = topo.num_qubits();
    assert_eq!(blocked.len(), n, "one blocked flag per qubit");
    // `link_error[offset[q] + i]` is the CNOT error of the link from
    // `q` to its `i`-th neighbour.
    let mut offset = Vec::with_capacity(n);
    let mut link_error = Vec::with_capacity(2 * topo.num_links());
    for q in 0..n {
        offset.push(link_error.len());
        link_error.extend(
            topo.neighbors(q)
                .iter()
                .map(|&nb| cal.cx_error(Link::new(q, nb))),
        );
    }

    let mut in_region = vec![false; n];
    let mut region: Vec<usize> = Vec::with_capacity(size);
    let mut out: Vec<Region> = Vec::new();
    for seed in (0..n).filter(|&q| !blocked[q]) {
        region.clear();
        region.push(seed);
        in_region[seed] = true;
        while region.len() < size {
            // Frontier: free neighbours of the region, scored by
            // (links into region desc, connecting link error asc,
            // readout asc, index asc). The visiting order (region in
            // insertion order, neighbours ascending) is part of the
            // result: a NaN readout makes the comparison partial.
            let mut best: Option<(usize, f64, f64, usize)> = None;
            for &q in &region {
                for &nb in topo.neighbors(q) {
                    if blocked[nb] || in_region[nb] {
                        continue;
                    }
                    let mut into_region = 0usize;
                    let mut link_err = f64::INFINITY;
                    for (i, &r) in topo.neighbors(nb).iter().enumerate() {
                        if in_region[r] {
                            into_region += 1;
                            link_err = link_err.min(link_error[offset[nb] + i]);
                        }
                    }
                    let readout = cal.readout_error(nb);
                    let better = match best {
                        None => true,
                        Some((bi, be, bro, bnb)) => {
                            (Reverse(into_region), link_err, readout, nb)
                                < (Reverse(bi), be, bro, bnb)
                        }
                    };
                    if better {
                        best = Some((into_region, link_err, readout, nb));
                    }
                }
            }
            match best {
                Some((_, _, _, nb)) => {
                    region.push(nb);
                    in_region[nb] = true;
                }
                None => break,
            }
        }
        if region.len() == size {
            region.sort_unstable();
            if !out.iter().any(|r| r.qubits == region) {
                // Ascending `q`, then ascending neighbour: canonical
                // link order.
                let links = region
                    .iter()
                    .flat_map(|&q| {
                        let inside = &in_region;
                        topo.neighbors(q)
                            .iter()
                            .filter(move |&&nb| nb > q && inside[nb])
                            .map(move |&nb| Link::new(q, nb))
                    })
                    .collect();
                out.push(Region::measure(cal, region.clone(), links));
            }
        }
        for &q in &region {
            in_region[q] = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstalk::CrosstalkModel;
    use crate::ibm;

    fn line_device() -> Device {
        let t = Topology::line(8);
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        cal.set_cx_error(Link::new(6, 7), 0.008);
        cal.set_readout_error(2, 0.2);
        Device::new("line8", t, cal, CrosstalkModel::none())
    }

    #[test]
    fn grown_regions_are_connected_distinct_and_measured() {
        let dev = ibm::toronto();
        for size in 1..=6 {
            let regions = dev.idle_regions(size);
            assert!(!regions.is_empty() && regions.len() <= dev.num_qubits());
            for (i, r) in regions.iter().enumerate() {
                assert_eq!(r.qubits().len(), size);
                assert!(r.qubits().windows(2).all(|w| w[0] < w[1]));
                assert!(dev.topology().is_connected_subset(r.qubits()));
                assert_eq!(r, &dev.region(r.qubits()));
                assert!(regions[..i].iter().all(|o| o.qubits() != r.qubits()));
            }
        }
    }

    #[test]
    fn growth_avoids_blocked_qubits_and_may_find_nothing() {
        let dev = line_device();
        let mut blocked = vec![false; 8];
        blocked[3] = true;
        blocked[4] = true;
        let regions = dev.grow_regions(3, &blocked);
        assert!(!regions.is_empty());
        for r in &regions {
            assert!(r.qubits().iter().all(|&q| !blocked[q]));
        }
        // Two free islands of three qubits cannot host four.
        assert!(dev.grow_regions(4, &blocked).is_empty());
        assert!(dev.idle_regions(0).is_empty());
        assert!(dev.idle_regions(9).is_empty());
    }

    #[test]
    fn region_sums_follow_the_calibration() {
        let dev = line_device();
        let r = dev.region(&[5, 6, 7]);
        assert_eq!(r.links(), &[Link::new(5, 6), Link::new(6, 7)]);
        assert_eq!(r.cx_error_sum(), 0.0 + 0.02 + 0.008);
        assert_eq!(r.sq_error_sum(), [3e-4; 3].iter().sum::<f64>());
        assert_eq!(r.readout_error_sum(), [0.02; 3].iter().sum::<f64>());
    }

    #[test]
    fn no_mutable_route_to_the_calibration_leaves_a_filled_slot() {
        let dev = line_device();
        let fresh = |dev: &Device| {
            Device::new(
                dev.name(),
                dev.topology().clone(),
                dev.calibration().clone(),
                dev.crosstalk().clone(),
            )
        };
        let edit = |dev: &Device, readout: f64| {
            let mut cal = dev.calibration().clone();
            cal.set_readout_error(6, readout);
            dev.with_state(cal, dev.crosstalk().clone())
        };
        let before = dev.idle_regions(3).to_vec();
        assert!(!dev.atlas().is_empty());

        // A clone shares the filled atlas; a new state of the clone
        // starts empty and leaves both alone.
        let twin = dev.clone();
        assert!(!twin.atlas().is_empty());
        let edited = edit(&twin, 0.3);
        assert!(edited.atlas().is_empty());
        assert!(!twin.atlas().is_empty());
        assert_eq!(edited.idle_regions(3), fresh(&edited).idle_regions(3));
        assert_ne!(edited.idle_regions(3), &before[..]);
        assert_eq!(dev.idle_regions(3), &before[..]);
        assert_eq!(twin.idle_regions(3), &before[..]);

        let restored = edit(&edited, 0.02);
        assert!(restored.atlas().is_empty());
        assert_eq!(restored.idle_regions(3), &before[..]);

        // Even a new state equal to the old one starts a new atlas.
        let same = dev.with_state(dev.calibration().clone(), dev.crosstalk().clone());
        assert!(same.atlas().is_empty());
        assert_eq!(same, dev);
    }

    #[test]
    fn the_atlas_is_not_part_of_the_devices_value() {
        let dev = line_device();
        let untouched = dev.clone();
        let debug_before = format!("{dev:?}");
        dev.idle_regions(2);
        dev.idle_regions(5);
        assert_eq!(dev, untouched);
        assert_eq!(format!("{dev:?}"), debug_before);
    }
}
