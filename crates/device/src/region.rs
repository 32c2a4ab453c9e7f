//! Connected candidate regions of a chip: the QuMC growth heuristic,
//! and the per-calibration atlas of what it grows on an idle chip.
//!
//! A multiprogramming partitioner asks one question over and over:
//! *which connected regions of `size` qubits could host a program?*
//! [`Device::for_each_region`] answers it by growing one region from
//! every free seed qubit, and [`Device::idle_regions`] keeps the answer
//! for the chip with nothing placed on it — the first placement of
//! every allocation, and the whole of every solo probe.
//!
//! Growth around taken qubits reads the atlas too:
//! [`Device::for_each_region`] says why a seed whose idle region avoids
//! the taken qubits may borrow it, and why a NaN CNOT or readout error
//! turns that off (`a_nan_readout_grows_differently_around_a_taken_qubit`
//! pins a chip where borrowing would be wrong). Every seed that is
//! grown — for the atlas or around taken qubits — is grown by the one
//! kernel, [`Grower::grow_marked`].
//!
//! Both hand out [`RegionView`]s, borrowed and `Copy`: an atlas slot
//! keeps its regions in one arena per width, and a region regrown
//! around taken qubits lives in the caller's [`GrowthScratch`]. An
//! owned [`Region`] is made only where a caller keeps one
//! ([`Device::grow_regions`], [`Device::region`],
//! [`RegionView::to_region`]).

use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

use crate::calibration::Calibration;
use crate::device::Device;
use crate::link::Link;
use crate::topology::Topology;

/// A set of physical qubits with what a partition scorer reads off it:
/// the induced coupling links and the three error sums of the EFS
/// metric, owned. [`RegionView`] is the borrowed form the atlas and
/// growth hand out; [`view`](Region::view) lends one of an owned region.
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
    /// `qubits` with no links and zero sums, to be measured.
    fn unmeasured(qubits: Vec<usize>) -> Region {
        Region {
            qubits,
            links: Vec::new(),
            cx_error_sum: 0.0,
            sq_error_sum: 0.0,
            readout_error_sum: 0.0,
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

    /// The region as a borrowed view.
    pub fn view(&self) -> RegionView<'_> {
        RegionView {
            qubits: &self.qubits,
            links: &self.links,
            cx_error_sum: self.cx_error_sum,
            sq_error_sum: self.sq_error_sum,
            readout_error_sum: self.readout_error_sum,
        }
    }

    /// Makes `self` a copy of `view` in the buffers it already holds.
    pub fn copy_from(&mut self, view: RegionView<'_>) {
        self.qubits.clear();
        self.qubits.extend_from_slice(view.qubits);
        self.links.clear();
        self.links.extend_from_slice(view.links);
        self.cx_error_sum = view.cx_error_sum;
        self.sq_error_sum = view.sq_error_sum;
        self.readout_error_sum = view.readout_error_sum;
    }
}

/// A region borrowed from where it lives — an atlas slot's arena or a
/// [`GrowthScratch`] — with [`Region`]'s accessors and the same bits.
/// It is `Copy` and asks the heap for nothing;
/// [`to_region`](RegionView::to_region) copies it out where a caller
/// keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionView<'a> {
    qubits: &'a [usize],
    links: &'a [Link],
    cx_error_sum: f64,
    sq_error_sum: f64,
    readout_error_sum: f64,
}

impl<'a> RegionView<'a> {
    /// The region's physical qubits (ascending for grown regions).
    pub fn qubits(&self) -> &'a [usize] {
        self.qubits
    }

    /// The coupling links with both endpoints in the region, in the
    /// topology's canonical order.
    pub fn links(&self) -> &'a [Link] {
        self.links
    }

    /// Sum of the CNOT errors of [`links`](RegionView::links).
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

    /// An owned copy: two exact-size vectors.
    pub fn to_region(&self) -> Region {
        Region {
            qubits: self.qubits.to_vec(),
            links: self.links.to_vec(),
            cx_error_sum: self.cx_error_sum,
            sq_error_sum: self.sq_error_sum,
            readout_error_sum: self.readout_error_sum,
        }
    }
}

/// The regions of one atlas slot ([`Device::idle_regions`]), in order
/// of their first seed: a borrowed, `Copy` listing of the slot's arena
/// that hands out each region as a [`RegionView`]. Two listings of one
/// width are equal when their regions are, region by region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regions<'a> {
    width: usize,
    qubits: &'a [usize],
    links: &'a [Link],
    records: &'a [Record],
}

impl<'a> Regions<'a> {
    /// No region.
    const NONE: Regions<'static> = Regions {
        width: 0,
        qubits: &[],
        links: &[],
        records: &[],
    };

    /// The number of regions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there is no region.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Region `i`, if there are more than `i`.
    pub fn get(&self, i: usize) -> Option<RegionView<'a>> {
        self.records.get(i).map(|record| self.view(i, record))
    }

    /// The regions in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = RegionView<'a>> {
        let records = self.records.iter().enumerate();
        records.map(move |(i, record)| self.view(i, record))
    }

    /// Region `i`, whose record is `record`.
    fn view(&self, i: usize, record: &Record) -> RegionView<'a> {
        RegionView {
            qubits: &self.qubits[i * self.width..(i + 1) * self.width],
            links: &self.links[record.links_start as usize..record.links_end as usize],
            cx_error_sum: record.cx_error_sum,
            sq_error_sum: record.sq_error_sum,
            readout_error_sum: record.readout_error_sum,
        }
    }

    /// The address of the slot's qubit arena: the same for every
    /// listing of one slot, so it tells whether two listings read one
    /// atlas fill.
    pub fn as_ptr(&self) -> *const usize {
        self.qubits.as_ptr()
    }
}

/// What an atlas slot keeps per region besides its qubits: its span of
/// the slot's links and its three error sums.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    links_start: u32,
    links_end: u32,
    cx_error_sum: f64,
    sq_error_sum: f64,
    readout_error_sum: f64,
}

/// Measures the region of `qubits` — the qubits `inside` marks, which
/// `ascending` lists in ascending order: appends its induced links to
/// `links` in canonical order and returns its CNOT, one-qubit and
/// readout error sums. The CNOT errors are read from the atlas's table
/// and added from zero in link order, the others in `qubits`' order.
fn measure(
    topo: &Topology,
    cx: &[f64],
    cal: &Calibration,
    qubits: &[usize],
    ascending: impl Iterator<Item = usize>,
    inside: &[bool],
    links: &mut Vec<Link>,
) -> (f64, f64, f64) {
    let mut cx_sum = 0.0;
    for q in ascending {
        let offset = topo.neighbor_offset(q);
        for (i, &nb) in topo.neighbors(q).iter().enumerate() {
            if nb > q && inside[nb] {
                links.push(Link::new(q, nb));
                cx_sum += cx[offset + i];
            }
        }
    }
    (
        cx_sum,
        qubits.iter().map(|&q| cal.sq_error(q)).sum(),
        qubits.iter().map(|&q| cal.readout_error(q)).sum(),
    )
}

/// What the atlas knows of one calibration besides its regions.
struct Errors {
    /// `cx[topology.neighbor_offset(q) + i]` is the CNOT error of the
    /// link from `q` to its `i`-th neighbour.
    cx: Vec<f64>,
    /// No CNOT or readout error is NaN: growth's ranking is a strict
    /// total order, and growth around taken qubits may borrow the idle
    /// regions (see [`Device::for_each_region`]).
    nan_free: bool,
}

/// One width of the atlas, as one arena: the idle chip's distinct
/// regions in order of their first seed, and which of them each seed
/// grew.
struct Slot {
    width: usize,
    /// Region `r`'s qubits, ascending, are
    /// `qubits[r * width..(r + 1) * width]`.
    qubits: Vec<usize>,
    /// Every region's induced links, region after region, each region's
    /// in canonical order.
    links: Vec<Link>,
    /// One per region: its span of `links` and its error sums.
    records: Vec<Record>,
    /// Region `seed_region[s]` is what seed `s` grows on the idle chip;
    /// [`NO_REGION`] where its component is smaller than the width.
    seed_region: Vec<u32>,
}

const NO_REGION: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Seeds grown by this thread's [`Grower`]s, atlas fills included.
    static SEEDS_GROWN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Slot {
    /// The slot's regions.
    fn regions(&self) -> Regions<'_> {
        Regions {
            width: self.width,
            qubits: &self.qubits,
            links: &self.links,
            records: &self.records,
        }
    }

    /// The idle region of `seed` (`NO_REGION` indexes none).
    fn of_seed(&self, seed: usize) -> Option<RegionView<'_>> {
        self.regions().get(self.seed_region[seed] as usize)
    }
}

/// The idle-chip regions of one calibration snapshot, one lazily filled
/// slot per width, and the CNOT-error table every growth reads (see
/// [`Device::idle_regions`]). A cache over the device, not part of its
/// value: `Clone` shares it, `PartialEq` and `Debug` ignore it.
#[derive(Clone)]
pub(crate) struct RegionAtlas(Arc<Atlas>);

struct Atlas {
    errors: OnceLock<Errors>,
    slots: Box<[OnceLock<Slot>]>,
}

impl RegionAtlas {
    /// An atlas with every slot empty, for a chip of `num_qubits`.
    pub(crate) fn empty(num_qubits: usize) -> Self {
        RegionAtlas(Arc::new(Atlas {
            errors: OnceLock::new(),
            slots: (0..=num_qubits).map(|_| OnceLock::new()).collect(),
        }))
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.errors.get().is_none() && self.0.slots.iter().all(|slot| slot.get().is_none())
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
        let mut inside = vec![false; self.num_qubits()];
        for &q in qubits {
            inside[q] = true;
        }
        let ascending = (0..inside.len()).filter(|&q| inside[q]);
        let (topo, cx, cal) = (self.topology(), &self.errors().cx, self.calibration());
        let mut links = Vec::new();
        let (cx_error_sum, sq_error_sum, readout_error_sum) =
            measure(topo, cx, cal, qubits, ascending, &inside, &mut links);
        Region {
            qubits: qubits.to_vec(),
            links,
            cx_error_sum,
            sq_error_sum,
            readout_error_sum,
        }
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
        let mut out: Vec<Region> = Vec::new();
        let mut scratch = GrowthScratch::default();
        self.for_each_region(size, blocked, &mut scratch, |r| {
            if !out.iter().any(|o| o.qubits() == r.qubits()) {
                out.push(r.to_region());
            }
        });
        out
    }

    /// Visits the region every free seed grows, as
    /// [`grow_regions`](Device::grow_regions) would list them but
    /// without collecting them: seeds ascending, a region once per seed
    /// that grows it (so possibly more than once), and only for as long
    /// as the call runs — a region regrown around `blocked` lives in a
    /// buffer the next seed reuses. Any choice that ranks distinct
    /// regions in a total order picks the same winner from this walk as
    /// from the deduplicated list, with no heap request per candidate.
    ///
    /// The idle chip's regions come from the atlas, and so does every
    /// free seed's region that avoids `blocked` when the calibration
    /// holds no NaN CNOT or readout error; only the other seeds are
    /// grown again. That is exact: without a NaN, growth ranks frontier
    /// qubits in a strict total order, a qubit's rank depends on the
    /// region alone, and blocking only removes candidates — so while
    /// the idle picks stay free, each is still on the frontier and
    /// still first. A seed that grows nothing on the idle chip sits in
    /// a component smaller than `size` and grows nothing around
    /// `blocked` either. A NaN makes the ranking partial, and then
    /// every free seed with an idle region is grown again.
    ///
    /// # Panics
    ///
    /// Panics if `blocked` does not have one entry per qubit.
    pub fn for_each_region(
        &self,
        size: usize,
        blocked: &[bool],
        scratch: &mut GrowthScratch,
        mut visit: impl FnMut(RegionView<'_>),
    ) {
        let n = self.num_qubits();
        assert_eq!(blocked.len(), n, "one blocked flag per qubit");
        let Some(slot) = self.slot(size) else {
            // Wider than the chip: nothing to grow.
            return;
        };
        if !blocked.contains(&true) {
            slot.regions().iter().for_each(visit);
            return;
        }
        let errors = self.errors();
        let mut grower = Grower::new(self, &errors.cx, scratch);
        for seed in (0..n).filter(|&q| !blocked[q]) {
            let Some(idle) = slot.of_seed(seed) else {
                continue;
            };
            if errors.nan_free && idle.qubits().iter().all(|&q| !blocked[q]) {
                visit(idle);
            } else if let Some(region) = grower.grow(size, blocked, seed) {
                visit(region.view());
            }
        }
    }

    /// The candidate regions of `size` qubits on the **idle** chip:
    /// [`grow_regions`](Device::grow_regions) with nothing blocked,
    /// grown once per calibration snapshot and lent as views.
    ///
    /// ## The region atlas
    ///
    /// What this returns is a pure function of the topology, the
    /// calibration and `size`, so the device keeps it, one slot per
    /// width, filled on first request. A slot is one arena: the qubits
    /// of `size` × regions in one vector, their induced links in one
    /// more, one record per region (its span of the links and its three
    /// error sums) and, per seed qubit, the index of the region it grew
    /// (one `u32` each), which growth around taken qubits reads
    /// ([`for_each_region`](Device::for_each_region)). A fill reserves
    /// each vector once, with room for one region per seed, and grows
    /// every seed once, measuring each distinct region straight into
    /// them: it asks the heap for a fixed number of blocks, whatever the
    /// number of regions. Beside the slots, the atlas holds one CNOT
    /// error per adjacency slot and whether the calibration is NaN-free,
    /// computed once for every growth and [`region`](Device::region) to
    /// read.
    /// The atlas
    ///
    /// * belongs to one calibration: a device has no `&mut` route to
    ///   its state, and a new state is a new device
    ///   ([`with_state`](Device::with_state)) whose atlas starts empty,
    ///   so no edit can be followed by a stale read — there is no epoch
    ///   to compare and nothing to remember to call;
    /// * is shared by `Clone`: a clone reads and fills the same slots;
    /// * retains, for each width requested (at most `num_qubits()`
    ///   widths), room for one region per qubit — `size` qubits, one
    ///   record, and as many links as a connected region of `size`
    ///   qubits can induce (at most `size × max degree / 2`) — plus one
    ///   index per seed, and `2 × num_links()` errors, and is dropped
    ///   with the last device sharing it;
    /// * is **not part of the device's value**: `PartialEq` and `Debug`
    ///   ignore it, and a device that has answered a thousand requests
    ///   equals one that was just constructed.
    pub fn idle_regions(&self, size: usize) -> Regions<'_> {
        self.slot(size).map_or(Regions::NONE, Slot::regions)
    }

    /// The atlas slot of `size`, filled by growing every seed on the
    /// idle chip; `None` wider than the chip.
    fn slot(&self, size: usize) -> Option<&Slot> {
        let slot = self.atlas().0.slots.get(size)?;
        Some(slot.get_or_init(|| self.fill_slot(size)))
    }

    /// Grows every seed of the idle chip once, measuring each distinct
    /// region into the slot's vectors as it is found. Each vector is
    /// reserved once, for one region per seed: that is what a fill asks
    /// the heap for, whatever the number of distinct regions.
    fn fill_slot(&self, size: usize) -> Slot {
        let n = self.num_qubits();
        let (topo, cal, errors) = (self.topology(), self.calibration(), self.errors());
        // The most links a connected region of `size` qubits induces.
        let max_degree = (0..n).map(|q| topo.degree(q)).max().unwrap_or(0);
        let link_room = (size * max_degree / 2)
            .min(size * size.saturating_sub(1) / 2)
            .min(topo.num_links());
        let mut qubits: Vec<usize> = Vec::with_capacity(n * size);
        let mut links = Vec::with_capacity(n * link_room);
        let mut records = Vec::with_capacity(n);
        let free = vec![false; n];
        let mut scratch = GrowthScratch::default();
        scratch.region.qubits.reserve_exact(size);
        let mut grower = Grower::new(self, &errors.cx, &mut scratch);
        let seed_region = (0..n)
            .map(|seed| {
                if !grower.grow_marked(size, &free, seed) {
                    grower.unmark();
                    return NO_REGION;
                }
                let grown = &grower.region.qubits;
                let index = match qubits.chunks_exact(size).position(|o| o == grown) {
                    Some(i) => i,
                    None => {
                        qubits.extend_from_slice(grown);
                        let links_start = links.len() as u32;
                        let ascending = grown.iter().copied();
                        let (cx_error_sum, sq_error_sum, readout_error_sum) = measure(
                            topo,
                            &errors.cx,
                            cal,
                            grown,
                            ascending,
                            grower.in_region,
                            &mut links,
                        );
                        records.push(Record {
                            links_start,
                            links_end: links.len() as u32,
                            cx_error_sum,
                            sq_error_sum,
                            readout_error_sum,
                        });
                        records.len() - 1
                    }
                };
                grower.unmark();
                index as u32
            })
            .collect();
        Slot {
            width: size,
            qubits,
            links,
            records,
            seed_region,
        }
    }

    /// The atlas's CNOT-error table and NaN check, filled on first use.
    fn errors(&self) -> &Errors {
        self.atlas().0.errors.get_or_init(|| {
            let topo = self.topology();
            let cal = self.calibration();
            let mut cx = Vec::with_capacity(2 * topo.num_links());
            for q in 0..topo.num_qubits() {
                cx.extend(
                    topo.neighbors(q)
                        .iter()
                        .map(|&nb| cal.cx_error(Link::new(q, nb))),
                );
            }
            let nan_free = cx.iter().all(|e| !e.is_nan())
                && (0..topo.num_qubits()).all(|q| !cal.readout_error(q).is_nan());
            Errors { cx, nan_free }
        })
    }
}

/// The buffers growth fills and drops — a membership mask and the
/// region one seed grows — lent to
/// [`for_each_region`](Device::for_each_region) by its caller, which
/// keeps them from call to call: growth around taken qubits asks the
/// heap for nothing once they have grown to the largest chip and region
/// it has met. Empty between calls as a value, never as capacity.
#[derive(Debug)]
pub struct GrowthScratch {
    in_region: Vec<bool>,
    /// The last region completed, measured; while growing, its qubits
    /// in the order they were added.
    region: Region,
}

impl Default for GrowthScratch {
    fn default() -> Self {
        GrowthScratch {
            in_region: Vec::new(),
            region: Region::unmeasured(Vec::new()),
        }
    }
}

/// The growth kernel — one region from one seed — on the buffers of a
/// [`GrowthScratch`], reused from seed to seed.
///
/// Membership tests are flat masks; a frontier qubit is scored from its
/// own side (its neighbours that are already in the region), reading
/// CNOT errors from the atlas's table.
struct Grower<'d, 's> {
    topo: &'d Topology,
    cal: &'d Calibration,
    cx: &'d [f64],
    in_region: &'s mut Vec<bool>,
    region: &'s mut Region,
}

impl<'d, 's> Grower<'d, 's> {
    fn new(device: &'d Device, cx: &'d [f64], scratch: &'s mut GrowthScratch) -> Self {
        scratch.in_region.clear();
        scratch.in_region.resize(device.num_qubits(), false);
        Grower {
            topo: device.topology(),
            cal: device.calibration(),
            cx,
            in_region: &mut scratch.in_region,
            region: &mut scratch.region,
        }
    }

    /// Grows the region of `size` qubits seeded at `seed` around the
    /// `blocked` qubits, measured; `None` if the frontier runs dry
    /// first.
    fn grow(&mut self, size: usize, blocked: &[bool], seed: usize) -> Option<&Region> {
        let complete = self.grow_marked(size, blocked, seed);
        if complete {
            let region = &mut *self.region;
            region.links.clear();
            (
                region.cx_error_sum,
                region.sq_error_sum,
                region.readout_error_sum,
            ) = measure(
                self.topo,
                self.cx,
                self.cal,
                &region.qubits,
                region.qubits.iter().copied(),
                self.in_region,
                &mut region.links,
            );
        }
        self.unmark();
        complete.then_some(&*self.region)
    }

    /// Grows the qubits of the region of `size` qubits seeded at `seed`
    /// around the `blocked` qubits into the scratch region, sorted if it
    /// is complete, and leaves them marked in the mask
    /// ([`unmark`](Grower::unmark) clears them); `false` if the
    /// frontier runs dry first.
    fn grow_marked(&mut self, size: usize, blocked: &[bool], seed: usize) -> bool {
        #[cfg(test)]
        SEEDS_GROWN.with(|n| n.set(n.get() + 1));
        let (topo, cx) = (self.topo, self.cx);
        let in_region = &mut *self.in_region;
        let grown = &mut self.region.qubits;
        grown.clear();
        grown.push(seed);
        in_region[seed] = true;
        while grown.len() < size {
            // Frontier: free neighbours of the region, scored by
            // (links into region desc, connecting link error asc,
            // readout asc, index asc). The visiting order (region in
            // insertion order, neighbours ascending) is part of the
            // result: a NaN makes the comparison partial.
            let mut best: Option<(usize, f64, f64, usize)> = None;
            for &q in grown.iter() {
                for &nb in topo.neighbors(q) {
                    if blocked[nb] || in_region[nb] {
                        continue;
                    }
                    let mut into_region = 0usize;
                    let mut link_err = f64::INFINITY;
                    let offset = topo.neighbor_offset(nb);
                    for (i, &r) in topo.neighbors(nb).iter().enumerate() {
                        if in_region[r] {
                            into_region += 1;
                            link_err = link_err.min(cx[offset + i]);
                        }
                    }
                    let readout = self.cal.readout_error(nb);
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
                    grown.push(nb);
                    in_region[nb] = true;
                }
                None => break,
            }
        }
        let complete = grown.len() == size;
        if complete {
            grown.sort_unstable();
        }
        complete
    }

    /// Clears the mask of the qubits the last growth marked.
    fn unmark(&mut self) {
        for &q in &self.region.qubits {
            self.in_region[q] = false;
        }
    }
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

    /// Growth as it was before growth around taken qubits read the
    /// atlas: every free seed grown afresh on every call, CNOT errors
    /// read from a table rebuilt per call, every region measured from
    /// the calibration. Kept as the oracle the atlas-reading growth
    /// must match bit for bit.
    fn oracle_grow(dev: &Device, size: usize, blocked: &[bool]) -> Vec<Region> {
        let (topo, cal) = (dev.topology(), dev.calibration());
        let n = topo.num_qubits();
        let mut offset = Vec::with_capacity(n);
        let mut link_error = Vec::new();
        for q in 0..n {
            offset.push(link_error.len());
            link_error.extend(
                topo.neighbors(q)
                    .iter()
                    .map(|&nb| cal.cx_error(Link::new(q, nb))),
            );
        }
        let mut in_region = vec![false; n];
        let mut out: Vec<Region> = Vec::new();
        for seed in (0..n).filter(|&q| !blocked[q]) {
            let mut region = vec![seed];
            in_region[seed] = true;
            while region.len() < size {
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
                    let links = topo.links_within(&region);
                    let mut cx_error_sum = 0.0;
                    for &l in &links {
                        cx_error_sum += cal.cx_error(l);
                    }
                    out.push(Region {
                        cx_error_sum,
                        sq_error_sum: region.iter().map(|&q| cal.sq_error(q)).sum(),
                        readout_error_sum: region.iter().map(|&q| cal.readout_error(q)).sum(),
                        qubits: region.clone(),
                        links,
                    });
                }
            }
            for &q in &region {
                in_region[q] = false;
            }
        }
        out
    }

    /// Region views with every sum as its bit pattern, so NaN sums and
    /// signed zeros compare exactly.
    fn bits<'a>(regions: impl IntoIterator<Item = RegionView<'a>>) -> Vec<String> {
        regions
            .into_iter()
            .map(|r| {
                format!(
                    "{:?} {:?} {:x} {:x} {:x}",
                    r.qubits,
                    r.links,
                    r.cx_error_sum.to_bits(),
                    r.sq_error_sum.to_bits(),
                    r.readout_error_sum.to_bits()
                )
            })
            .collect()
    }

    /// [`bits`] of owned regions.
    fn owned_bits(regions: &[Region]) -> Vec<String> {
        bits(regions.iter().map(Region::view))
    }

    /// Owned copies of a slot's regions.
    fn owned(regions: Regions<'_>) -> Vec<Region> {
        regions.iter().map(|r| r.to_region()).collect()
    }

    /// A chip of one of three topology classes under a seeded
    /// calibration: `style` 0 draws every error from the continuous
    /// synthetic profile, 1 from a three-value palette (ties
    /// everywhere), 2 from the palette plus NaN (growth's ranking turns
    /// partial).
    fn arb_device(topology: usize, style: usize, seed: u64) -> Device {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let topo = match topology {
            0 => Topology::line(9),
            1 => Topology::grid(3, 4),
            _ => ibm::toronto_topology(),
        };
        let mut cal = Calibration::synthesize(&topo, seed, &crate::NoiseProfile::default());
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

        /// Growth around any blocked set — of every density, on a cold
        /// atlas, a warm one and a clone sharing it — equals the
        /// regrowing oracle region by region, every sum by its bits.
        #[test]
        fn growth_around_taken_qubits_equals_the_regrowing_oracle(
            topology in 0usize..3,
            style in 0usize..3,
            seed in 0u64..1_000_000,
            masks in proptest::collection::vec((0usize..=27, 0u64..u64::MAX), 1..6),
        ) {
            use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
            let dev = arb_device(topology, style, seed);
            let n = dev.num_qubits();
            for (taken, shuffle) in masks {
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut StdRng::seed_from_u64(shuffle));
                let mut blocked = vec![false; n];
                for &q in &order[..taken.min(n)] {
                    blocked[q] = true;
                }
                for size in 1..=6 {
                    let expected = owned_bits(&oracle_grow(&dev, size, &blocked));
                    for device in [&dev, &dev, &dev.clone()] {
                        proptest::prop_assert_eq!(
                            owned_bits(&device.grow_regions(size, &blocked)),
                            expected.clone()
                        );
                    }
                    let free = vec![false; n];
                    proptest::prop_assert_eq!(
                        bits(dev.idle_regions(size).iter()),
                        owned_bits(&oracle_grow(&dev, size, &free))
                    );
                }
            }
        }
    }

    /// The chip where reusing idle regions under a NaN would be wrong.
    /// Qubit 0 has neighbours 1, 2 and 3 on equal links, with readouts
    /// 0.03, NaN and 0.01; 2 and 3 each have a better link elsewhere.
    /// On the idle chip seed 0 compares 1 with the NaN (no pick) and
    /// then with 3, and grows {0, 3}. With 1 taken it meets the NaN
    /// first, which nothing ranks before, and grows {0, 2} — a region
    /// no other seed grows — although {0, 3} avoids qubit 1.
    #[test]
    fn a_nan_readout_grows_differently_around_a_taken_qubit() {
        let t = Topology::new(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (2, 5)]);
        let mut cal = Calibration::uniform(&t, 0.02, 3e-4, 0.02);
        cal.set_cx_error(Link::new(3, 4), 0.01);
        cal.set_cx_error(Link::new(2, 5), 0.01);
        cal.set_readout_error(1, 0.03);
        cal.set_readout_error(2, f64::NAN);
        cal.set_readout_error(3, 0.01);
        let dev = Device::new("nan-star", t, cal, CrosstalkModel::none());
        let qubits = |regions: &[Region]| -> Vec<Vec<usize>> {
            regions.iter().map(|r| r.qubits().to_vec()).collect()
        };
        assert_eq!(
            qubits(&owned(dev.idle_regions(2))),
            [vec![0, 3], vec![0, 1], vec![2, 5], vec![3, 4]]
        );
        let mut blocked = vec![false; 6];
        blocked[1] = true;
        let grown = dev.grow_regions(2, &blocked);
        assert_eq!(qubits(&grown), [vec![0, 2], vec![2, 5], vec![3, 4]]);
        assert_eq!(
            owned_bits(&grown),
            owned_bits(&oracle_grow(&dev, 2, &blocked))
        );
    }

    /// Around taken qubits only the seeds whose idle region is taken
    /// are grown again — unless the calibration holds a NaN, when
    /// every free seed that grows a region on the idle chip is.
    #[test]
    fn growth_around_taken_qubits_regrows_only_seeds_whose_idle_region_is_taken() {
        let seeds_grown = || SEEDS_GROWN.with(|n| n.get());
        let toronto = ibm::toronto();
        let mut cal = toronto.calibration().clone();
        cal.set_readout_error(26, f64::NAN);
        let poisoned = toronto.with_state(cal, toronto.crosstalk().clone());
        let mut blocked = vec![false; toronto.num_qubits()];
        for q in [1, 2, 3, 4, 7, 12] {
            blocked[q] = true;
        }
        for (dev, nan_free) in [(&toronto, true), (&poisoned, false)] {
            for size in 1..=6 {
                let slot = dev.slot(size).unwrap();
                let regrown = (0..dev.num_qubits())
                    .filter(|&s| !blocked[s])
                    .filter_map(|s| slot.of_seed(s))
                    .filter(|r| !nan_free || r.qubits().iter().any(|&q| blocked[q]))
                    .count();
                let before = seeds_grown();
                let grown = dev.grow_regions(size, &blocked);
                assert_eq!(
                    seeds_grown() - before,
                    regrown,
                    "size {size}, NaN-free {nan_free}"
                );
                assert_eq!(
                    owned_bits(&grown),
                    owned_bits(&oracle_grow(dev, size, &blocked))
                );
                if nan_free && size > 1 {
                    assert!(regrown < blocked.iter().filter(|&&b| !b).count() / 2);
                }
            }
        }
    }

    /// On the three IBM twins and a drifted Toronto, every region of
    /// the atlas is connected, distinct and, bit for bit, the region
    /// its qubits induce.
    #[test]
    fn grown_regions_are_connected_distinct_and_measured() {
        use crate::drift::{DriftModel, GaussianWalk};
        let toronto = ibm::toronto();
        let (mut cal, mut crosstalk) = (toronto.calibration().clone(), toronto.crosstalk().clone());
        let walk = GaussianWalk::new(0xD81F7, 1_000.0);
        for step in 1..=20 {
            walk.apply_step(step, 0, &mut cal, &mut crosstalk);
        }
        let drifted = toronto.with_state(cal, crosstalk);
        assert_ne!(drifted, toronto);
        for dev in [toronto, ibm::manhattan(), ibm::melbourne(), drifted] {
            for size in 1..=6 {
                let regions = dev.idle_regions(size);
                assert!(!regions.is_empty() && regions.len() <= dev.num_qubits());
                for (i, r) in regions.iter().enumerate() {
                    assert_eq!(r.qubits().len(), size);
                    assert!(r.qubits().windows(2).all(|w| w[0] < w[1]));
                    assert!(dev.topology().is_connected_subset(r.qubits()));
                    assert_eq!(bits([r]), bits([dev.region(r.qubits()).view()]));
                    assert!(regions.iter().take(i).all(|o| o.qubits() != r.qubits()));
                }
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
        let before = owned(dev.idle_regions(3));
        assert!(!dev.atlas().is_empty());

        // A clone shares the filled atlas; a new state of the clone
        // starts empty and leaves both alone.
        let twin = dev.clone();
        assert!(!twin.atlas().is_empty());
        let edited = edit(&twin, 0.3);
        assert!(edited.atlas().is_empty());
        assert!(!twin.atlas().is_empty());
        assert_eq!(edited.idle_regions(3), fresh(&edited).idle_regions(3));
        assert_ne!(owned(edited.idle_regions(3)), before);
        assert_eq!(owned(dev.idle_regions(3)), before);
        assert_eq!(owned(twin.idle_regions(3)), before);

        let restored = edit(&edited, 0.02);
        assert!(restored.atlas().is_empty());
        assert_eq!(owned(restored.idle_regions(3)), before);

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
