//! The job table: every job the service admitted, one slot per
//! submission index, and the queue of those not yet dispatched.
//!
//! Under the heavy-traffic regime the paper's cloud argument assumes
//! (Sec. I: "millions of users") the queue must not be rebuilt or
//! scanned per dispatch step, so [`JobTable`] keeps, beside its slots,
//! a persistent FIFO-sorted [`JobView`] mirror of the queued jobs,
//! maintained incrementally: O(log n) insert position (amortized append
//! for in-order arrivals), O(1) seq → slot indexing, O(log n)
//! arrived-prefix binding per dispatch step, and dead-prefix removal so
//! draining the queue front is an offset bump instead of a memmove.
//! What it must answer — FIFO `(arrival, submission)` order, the
//! arrived window, each job's strategy key — is stated without any of
//! this by the reference scheduler of the differential suite
//! (`tests/support/reference.rs`), which re-sorts a `Vec` per step.
//!
//! ## Who owns a job, when
//!
//! A job's life is one [`Slot`] of the table, at its seq (the next seq
//! is the table's length). Until its batch commits it is one queued
//! [`Pending`] record, circuit included; dispatch reads it in place
//! (head choice and packing off the [`JobView`] mirror, cache keys and
//! probe misses through [`JobTable::get`]) and copies nothing out of it
//! — only a plan-cache miss clones the members' circuits, into the plan
//! it builds. [`JobTable::take_members`] hands the records over **by
//! value** and leaves the slots running: the staged batch keeps what
//! execution and the report need (the circuit's name moved, not
//! copied). The finish pass writes each result into its slot, which a
//! claim copies once and the drained report copies again.
//!
//! ## The strategy table and its two readers
//!
//! The table interns each distinct effective strategy into a small key
//! table ([`JobTable::strategy_key`]: key 0 = the service default,
//! including overrides that compare equal to it — value equality); a
//! job carries its key, not a strategy, and so does its [`JobView`],
//! where the admission policy's pack compares it with the head's. Two
//! things read the table behind the key:
//!
//! * **The plan memo.** The head's key is the strategy component of
//!   every plan-memo key (`service/route_cache.rs`): two
//!   batches share a cache entry only if their heads' strategies are
//!   the same table entry, which is the very equality that lets their
//!   jobs share a batch.
//! * **Dispatch.** An entry is the strategy, once, behind one [`Arc`]:
//!   a dispatch step holds the head's entry by reference count, so no
//!   dispatch clones a strategy, and planning borrows the entry's
//!   settings ([`qucp_core::Pipeline::from_strategy`]).

use std::sync::Arc;

use qucp_circuit::Circuit;
use qucp_core::Strategy;
use qucp_sim::{ShotParallelism, TrajectoryKernel};

use crate::error::RuntimeError;
use crate::job::JobResult;
use crate::policy::JobView;
use crate::registry::RoutingChoice;
use crate::shape::Shape;

/// A pending (admitted but not yet dispatched) job. Its seq is its
/// slot's index, its width its circuit's, its overtake count and
/// strategy key its view's.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) id: u64,
    /// The circuit its batch runs: folded at submit if the service
    /// optimizes.
    pub(crate) circuit: Circuit,
    /// The circuit's interned shape (width + exact gate sequence, name
    /// excluded) — the plan-memo key component, interned once at
    /// submit instead of hashed once per dispatch the job is probed.
    pub(crate) shape: Shape,
    pub(crate) shots: usize,
    pub(crate) arrival: f64,
    pub(crate) fidelity_threshold: Option<f64>,
    pub(crate) shot_parallelism: Option<ShotParallelism>,
    pub(crate) trajectory_kernel: Option<TrajectoryKernel>,
    /// Per-job routing override, consulted only when this job heads a
    /// batch (see [`RoutingChoice`]).
    pub(crate) routing: Option<RoutingChoice>,
}

/// One job's slot, at its submission index.
#[derive(Debug)]
enum Slot {
    /// Admitted, not yet committed to a batch.
    Queued(Pending),
    /// Committed to a batch that has not finished.
    Running,
    /// Its batch ran; the first claim spends the ticket.
    Done { result: JobResult, claimed: bool },
}

impl Slot {
    /// The queued record, leaving the slot [`Slot::Running`]; any other
    /// slot stays as it is.
    fn take_queued(&mut self) -> Option<Pending> {
        match std::mem::replace(self, Slot::Running) {
            Slot::Queued(p) => Some(p),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Every admitted job, one [`Slot`] per submission index, plus a
/// persistent FIFO-sorted [`JobView`] mirror of the queued ones
/// maintained incrementally.
#[derive(Debug)]
pub(crate) struct JobTable {
    /// Slot `seq` is the job submitted `seq`-th.
    slots: Vec<Slot>,
    /// FIFO mirror of every queued job, sorted by `(arrival, seq)`
    /// (`total_cmp` order). Indices `..head` are a dead prefix awaiting
    /// compaction.
    views: Vec<JobView>,
    /// First live mirror index: front-contiguous removals bump this
    /// offset instead of shifting the vector.
    head: usize,
    /// Distinct strategies seen so far; slot 0 holds the default.
    interned: Vec<Arc<Strategy>>,
}

impl JobTable {
    pub(crate) fn new(default: Strategy) -> Self {
        JobTable {
            slots: Vec::new(),
            views: Vec::new(),
            head: 0,
            interned: vec![Arc::new(default)],
        }
    }

    /// The table key of a job's strategy override, interning it on
    /// first sight (`None` and overrides equal to the default are 0).
    pub(crate) fn strategy_key(&mut self, strategy: Option<Strategy>) -> u32 {
        match strategy {
            None => 0,
            Some(s) => match self.interned.iter().position(|x| **x == s) {
                Some(i) => i as u32,
                None => {
                    self.interned.push(Arc::new(s));
                    (self.interned.len() - 1) as u32
                }
            },
        }
    }

    /// The shared strategy behind a key handed out by
    /// [`JobTable::strategy_key`]: what a dispatch step holds of its
    /// head's strategy.
    pub(crate) fn strategy(&self, key: u32) -> &Arc<Strategy> {
        &self.interned[key as usize]
    }

    /// Index of job `seq` in the live (and so in any arrived) window:
    /// its `(arrival, seq)` key locates it in O(log n) by binary search
    /// over the sorted mirror.
    pub(crate) fn position_of(&self, arrival: f64, seq: usize) -> Option<usize> {
        let live = &self.views[self.head..];
        let pos = live.partition_point(|v| {
            v.arrival.total_cmp(&arrival).then(v.seq.cmp(&seq)) == std::cmp::Ordering::Less
        });
        (live.get(pos)?.seq == seq).then_some(pos)
    }

    /// The seq the next admitted job gets: the table's length.
    pub(crate) fn next_seq(&self) -> usize {
        self.slots.len()
    }

    /// Admits a job as seq [`JobTable::next_seq`], keeping FIFO
    /// `(arrival, submission)` order; `depth` is the submitted
    /// circuit's, which admission orders by, and `strategy_key` its
    /// effective strategy's [`JobTable::strategy_key`].
    pub(crate) fn insert(&mut self, p: Pending, depth: usize, strategy_key: u32) {
        let width = p.circuit.width();
        let view = JobView {
            seq: self.slots.len(),
            arrival: p.arrival,
            width,
            area: width * depth,
            skips: 0,
            strategy_key,
        };
        // The tie rule: after every job with
        // `arrival <= p.arrival` (equal arrivals keep submission order,
        // so the mirror stays `(arrival, seq)`-sorted).
        let rel = self.views[self.head..]
            .partition_point(|v| v.arrival.total_cmp(&p.arrival) != std::cmp::Ordering::Greater);
        let abs = self.head + rel;
        self.views.insert(abs, view);
        self.slots.push(Slot::Queued(p));
    }

    /// Takes a committed batch's members out of the queue and hands
    /// each record, by value and in `seqs` order, to `member` with its
    /// seq, returning the outputs; each slot is left
    /// [`Slot::Running`]. `positions` is the caller's buffer for the
    /// members' mirror slots (cleared here, capacity kept).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] naming the first `seq` that is
    /// not queued; the others are taken all the same (and dropped), so
    /// slots and mirror still agree. Dispatch resolves every member
    /// through [`JobTable::get`] for the plan key before it commits, so
    /// it cannot see this error first.
    pub(crate) fn take_members<T>(
        &mut self,
        seqs: &[usize],
        positions: &mut Vec<usize>,
        mut member: impl FnMut(usize, Pending) -> T,
    ) -> Result<Vec<T>, RuntimeError> {
        positions.clear();
        let mut members = Vec::with_capacity(seqs.len());
        let mut missing = None;
        for &seq in seqs {
            let Some(p) = self.slots.get_mut(seq).and_then(Slot::take_queued) else {
                missing.get_or_insert(seq);
                continue;
            };
            let rel = self
                .position_of(p.arrival, seq)
                .expect("mirror entry exists for every queued job");
            positions.push(self.head + rel);
            members.push(member(seq, p));
        }
        let taken = match missing {
            None => Ok(members),
            Some(seq) => Err(RuntimeError::QueueCorrupted { seq }),
        };
        if positions.is_empty() {
            return taken;
        }
        positions.sort_unstable();
        let n = positions.len();
        if positions[0] == self.head && positions[n - 1] == self.head + n - 1 {
            // The batch drained the queue front (the FIFO common case):
            // removal is an offset bump, no element moves.
            self.head += n;
        } else {
            // Scattered removal (SJF / backfill picks): one in-place
            // compaction pass from the first removed slot.
            let first = positions[0];
            let mut next = 0;
            let mut write = first;
            for read in first..self.views.len() {
                if next < n && positions[next] == read {
                    next += 1;
                    continue;
                }
                self.views[write] = self.views[read];
                write += 1;
            }
            self.views.truncate(write);
        }
        // Compact once the dead prefix reaches half the buffer: each
        // slot is drained at most once, so removals stay amortized O(1)
        // per removed job and memory stays within 2× the live queue.
        if self.head > 0 && self.head * 2 >= self.views.len() {
            self.views.drain(..self.head);
            self.head = 0;
        }
        taken
    }

    /// Records the result of job `seq`, whose batch ran.
    pub(crate) fn finish(&mut self, seq: usize, result: JobResult) {
        debug_assert!(matches!(self.slots[seq], Slot::Running));
        self.slots[seq] = Slot::Done {
            result,
            claimed: false,
        };
    }

    /// Jobs queued: admitted, not yet committed to a batch.
    pub(crate) fn queued(&self) -> usize {
        self.views.len() - self.head
    }

    /// Arrival of the earliest queued job (`None` when none is).
    pub(crate) fn first_arrival(&self) -> Option<f64> {
        self.views.get(self.head).map(|v| v.arrival)
    }

    /// The queued job with submission index `seq`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] if `seq` is not queued: an
    /// internal invariant violation surfaced as a typed error instead
    /// of a panic.
    pub(crate) fn get(&self, seq: usize) -> Result<&Pending, RuntimeError> {
        match self.slots.get(seq) {
            Some(Slot::Queued(p)) => Ok(p),
            _ => Err(RuntimeError::QueueCorrupted { seq }),
        }
    }

    /// The result of job `seq` if its batch ran, whatever its claim.
    pub(crate) fn result(&self, seq: usize) -> Option<&JobResult> {
        match self.slots.get(seq)? {
            Slot::Done { result, .. } => Some(result),
            _ => None,
        }
    }

    /// The first claim of job `seq`'s result, if its batch ran and its
    /// id is `id`: a clone that shares the scored result with the one
    /// the table keeps for the drained report (no heap request). Every
    /// other call changes nothing and answers `None`.
    pub(crate) fn claim(&mut self, seq: usize, id: u64) -> Option<JobResult> {
        match self.slots.get_mut(seq)? {
            Slot::Done { result, claimed } if result.job_id == id && !*claimed => {
                *claimed = true;
                Some(result.clone())
            }
            _ => None,
        }
    }

    /// Every job's result, in submission order: what a drained service
    /// reports, sharing each scored result with the table (one heap
    /// request, the vector).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] naming the first job whose
    /// batch has not run.
    pub(crate) fn results(&self) -> Result<Vec<JobResult>, RuntimeError> {
        // Sized up front: a `collect` into a `Result` cannot size its
        // vector, which then grows by doubling.
        let mut results = Vec::with_capacity(self.slots.len());
        for (seq, slot) in self.slots.iter().enumerate() {
            let Slot::Done { result, .. } = slot else {
                return Err(RuntimeError::QueueCorrupted { seq });
            };
            results.push(result.clone());
        }
        Ok(results)
    }

    /// The policy-facing views of all jobs arrived by `now`, in FIFO
    /// order.
    pub(crate) fn arrived(&self, now: f64) -> &[JobView] {
        let live = &self.views[self.head..];
        let end = live.partition_point(|v| v.arrival <= now);
        &live[..end]
    }

    /// Bumps a queued job's overtake counter (backfill starvation
    /// accounting), which only its view holds.
    pub(crate) fn bump_skip(&mut self, seq: usize) {
        let Ok(arrival) = self.get(seq).map(|p| p.arrival) else {
            debug_assert!(false, "bumping job seq {seq} that is not queued");
            return;
        };
        let rel = self
            .position_of(arrival, seq)
            .expect("mirror entry exists for every queued job");
        self.views[self.head + rel].skips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_circuit::Circuit;
    use qucp_core::strategy;

    /// Admits a Bell-pair job that arrives at `arrival` as `seq`, the
    /// table's next seq; its id is its seq.
    fn admit(table: &mut JobTable, seq: usize, arrival: f64, strategy_key: u32) {
        assert_eq!(table.next_seq(), seq);
        let mut circuit = Circuit::new(2);
        circuit.h(0);
        circuit.cx(0, 1);
        let depth = circuit.depth();
        let job = Pending {
            id: seq as u64,
            shape: crate::shape::ShapeTable::default().intern(&circuit),
            circuit,
            shots: 64,
            arrival,
            fidelity_threshold: None,
            shot_parallelism: None,
            trajectory_kernel: None,
            routing: None,
        };
        table.insert(job, depth, strategy_key);
    }

    fn store() -> JobTable {
        JobTable::new(strategy::qucp(strategy::DEFAULT_SIGMA))
    }

    /// Both insert paths — the in-order append and the mid-queue
    /// insert of a late submission with an early arrival — keep the
    /// mirror FIFO-sorted.
    #[test]
    fn both_paths_keep_fifo_order_under_out_of_order_arrivals() {
        let mut store = store();
        // Arrivals 30, 10, 20, 10: ties keep submission order.
        for (seq, arrival) in [(0, 30.0), (1, 10.0), (2, 20.0), (3, 10.0)] {
            admit(&mut store, seq, arrival, 0);
        }
        let order: Vec<usize> = store.arrived(f64::INFINITY).iter().map(|v| v.seq).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert_eq!(store.first_arrival(), Some(10.0));
        // The arrived window respects `now`.
        let early: Vec<usize> = store.arrived(15.0).iter().map(|v| v.seq).collect();
        assert_eq!(early, vec![1, 3]);
    }

    /// A queued job's overtake count lives in its mirror view alone: a
    /// skip bump finds the view by the job's `(arrival, seq)` key and
    /// counts there, and the arrived window reads it back at the same
    /// position.
    #[test]
    fn position_and_skip_bump_agree_between_paths() {
        let mut store = store();
        for (seq, arrival) in [(0, 0.0), (1, 1.0), (2, 2.0)] {
            admit(&mut store, seq, arrival, 0);
        }
        assert_eq!(store.position_of(1.0, 1), Some(1));
        store.bump_skip(1);
        store.bump_skip(1);
        let skips: Vec<usize> = store
            .arrived(f64::INFINITY)
            .iter()
            .map(|v| v.skips)
            .collect();
        assert_eq!(skips, vec![0, 2, 0]);
        assert_eq!(store.position_of(1.0, 1), Some(1));
    }

    /// Takes `seqs`, returning the taken jobs' seqs in the order handed
    /// over.
    fn take(store: &mut JobTable, seqs: &[usize]) -> Vec<usize> {
        store
            .take_members(seqs, &mut Vec::new(), |seq, _| seq)
            .unwrap()
    }

    #[test]
    fn removal_compacts_and_preserves_survivors() {
        let mut store = store();
        for seq in 0..6 {
            admit(&mut store, seq, seq as f64, 0);
        }
        // Scattered removal first (mid-queue), then a front drain.
        take(&mut store, &[1, 3]);
        assert_eq!(store.queued(), 4);
        let order: Vec<usize> = store.arrived(f64::INFINITY).iter().map(|v| v.seq).collect();
        assert_eq!(order, vec![0, 2, 4, 5]);
        take(&mut store, &[0, 2]);
        let order: Vec<usize> = store.arrived(f64::INFINITY).iter().map(|v| v.seq).collect();
        assert_eq!(order, vec![4, 5]);
        assert!(store.get(1).is_err());
        assert!(store.get(4).is_ok());
    }

    /// `remove_members` as it was before members were handed over by
    /// value — the jobs dropped in place, the same mirror surgery —
    /// kept as the oracle of what [`JobTable::take_members`] leaves
    /// behind.
    fn remove_members(store: &mut JobTable, seqs: &[usize]) {
        let mut positions: Vec<usize> = Vec::with_capacity(seqs.len());
        for &seq in seqs {
            let p = store.slots[seq].take_queued().unwrap();
            positions.push(store.head + store.position_of(p.arrival, seq).unwrap());
        }
        positions.sort_unstable();
        let n = positions.len();
        if positions[0] == store.head && positions[n - 1] == store.head + n - 1 {
            store.head += n;
        } else {
            let first = positions[0];
            let mut next = 0;
            let mut write = first;
            for read in first..store.views.len() {
                if next < n && positions[next] == read {
                    next += 1;
                    continue;
                }
                store.views[write] = store.views[read];
                write += 1;
            }
            store.views.truncate(write);
        }
        if store.head > 0 && store.head * 2 >= store.views.len() {
            store.views.drain(..store.head);
            store.head = 0;
        }
    }

    /// Everything a table holds but the jobs' payloads.
    fn layout(store: &JobTable) -> impl PartialEq + std::fmt::Debug {
        let slots = store.slots.iter().enumerate();
        let seqs: Vec<usize> = slots
            .filter(|(_, slot)| matches!(slot, Slot::Queued(_)))
            .map(|(seq, _)| seq)
            .collect();
        (seqs, store.views.clone(), store.head)
    }

    #[test]
    fn take_members_hands_over_in_seqs_order_and_leaves_what_removal_left() {
        // Front drains (the offset bump, twice, then the compaction at
        // half the buffer), a middle removal, a removal in neither
        // queue nor seq order, override members, the last jobs.
        let batches: [&[usize]; 6] = [&[0, 1], &[2], &[5, 7], &[9, 4, 6], &[3], &[8, 10, 11]];
        let fill = || {
            let mut store = store();
            let other = store.strategy_key(Some(strategy::cna()));
            for seq in 0..12 {
                let key = if seq % 5 == 4 { other } else { 0 };
                // Arrivals run against submission order in pairs.
                admit(&mut store, seq, (seq ^ 1) as f64, key);
            }
            // Every view carries its job's strategy key.
            for v in store.arrived(f64::INFINITY) {
                assert_eq!(v.strategy_key, if v.seq % 5 == 4 { other } else { 0 });
            }
            store
        };
        let (mut taken_from, mut removed_from) = (fill(), fill());
        let mut positions = vec![usize::MAX; 3];
        for seqs in batches {
            let handed = taken_from
                .take_members(seqs, &mut positions, |seq, p| (seq, p.id, p.arrival))
                .unwrap();
            let expected: Vec<_> = seqs
                .iter()
                .map(|&seq| (seq, seq as u64, (seq ^ 1) as f64))
                .collect();
            assert_eq!(handed, expected);
            remove_members(&mut removed_from, seqs);
            assert_eq!(layout(&taken_from), layout(&removed_from), "after {seqs:?}");
        }
        assert_eq!(taken_from.queued(), 0);
    }

    /// A seq the table does not hold is a typed error, and the members
    /// around it leave slots and mirror together.
    #[test]
    fn take_members_names_a_missing_seq_and_keeps_map_and_mirror_agreed() {
        let mut store = store();
        for seq in 0..4 {
            admit(&mut store, seq, seq as f64, 0);
        }
        let taken = store.take_members(&[0, 9, 1], &mut Vec::new(), |seq, _| seq);
        assert!(matches!(
            taken,
            Err(RuntimeError::QueueCorrupted { seq: 9 })
        ));
        let order: Vec<usize> = store.arrived(f64::INFINITY).iter().map(|v| v.seq).collect();
        assert_eq!(order, vec![2, 3]);
        assert!(store.get(0).is_err() && store.get(1).is_err());
    }

    /// A result for job `seq`, whose id is its seq.
    fn result_of(seq: usize) -> JobResult {
        JobResult {
            job_id: seq as u64,
            batch_index: seq,
            start: 1.0,
            completion: 2.0,
            waiting: 1.0,
            turnaround: 2.0,
            result: Arc::new(qucp_core::ProgramResult {
                name: format!("job {seq}"),
                partition: vec![0, 1],
                efs: 0.5,
                swap_count: 0,
                counts: qucp_sim::Counts::default(),
                pst: None,
                jsd: 0.0,
            }),
        }
    }

    /// A slot's life: queued until its batch commits, then neither
    /// queued nor done while the batch runs, done once it finishes, and
    /// claimed by the first claim, which alone hands out a clone — one
    /// that shares the kept result, as the report's does. A claim on a
    /// queued, running, unknown or already claimed seq, or under
    /// another id, changes nothing.
    #[test]
    fn a_slot_is_queued_then_running_then_done_and_claimed_once() {
        let mut store = store();
        for seq in 0..2 {
            admit(&mut store, seq, seq as f64, 0);
        }
        assert!(store.get(0).is_ok() && store.result(0).is_none());
        assert_eq!(store.claim(0, 0), None);
        assert!(store.get(0).is_ok(), "a queued claim takes nothing");
        assert!(matches!(
            store.results(),
            Err(RuntimeError::QueueCorrupted { seq: 0 })
        ));

        take(&mut store, &[0]);
        assert!(matches!(store.slots[0], Slot::Running));
        assert!(store.get(0).is_err() && store.result(0).is_none());
        assert_eq!(store.claim(0, 0), None);
        assert_eq!(store.next_seq(), 2, "a taken job keeps its slot");

        store.finish(0, result_of(0));
        assert_eq!(store.result(0), Some(&result_of(0)));
        for (seq, id) in [(0, 7), (1, 1), (2, 2)] {
            assert_eq!(store.claim(seq, id), None, "seq {seq} id {id}");
        }
        assert!(matches!(store.slots[0], Slot::Done { claimed: false, .. }));
        let claimed = store.claim(0, 0).expect("the first claim");
        assert_eq!(claimed, result_of(0));
        assert!(matches!(store.slots[0], Slot::Done { claimed: true, .. }));
        assert_eq!(store.claim(0, 0), None);
        assert_eq!(store.result(0), Some(&result_of(0)), "a claim keeps it");

        // The second job was never touched by the claims around it.
        assert!(store.get(1).is_ok());
        take(&mut store, &[1]);
        store.finish(1, result_of(1));
        let results = store.results().unwrap();
        assert_eq!(results, vec![result_of(0), result_of(1)]);
        let kept = &store.result(0).unwrap().result;
        assert!(Arc::ptr_eq(&claimed.result, kept), "the claim shares it");
        assert!(Arc::ptr_eq(&results[0].result, kept), "so does the report");
    }

    /// One table entry per distinct strategy, shared by reference
    /// count; a strategy unequal to itself gets a fresh entry per
    /// submission, as its key always did.
    #[test]
    fn one_strategy_entry_per_distinct_strategy() {
        let mut store = store();
        let cna = store.strategy_key(Some(strategy::cna()));
        let entry = Arc::clone(store.strategy(cna));
        for _ in 0..3 {
            assert_eq!(store.strategy_key(Some(strategy::cna())), cna);
            assert_eq!(
                store.strategy_key(Some(strategy::qucp(strategy::DEFAULT_SIGMA))),
                0
            );
        }
        assert!(Arc::ptr_eq(&entry, store.strategy(cna)));
        assert_eq!(*entry, strategy::cna());
        assert_eq!(store.interned.len(), 2);
        let nan = [
            store.strategy_key(Some(strategy::qucp(f64::NAN))),
            store.strategy_key(Some(strategy::qucp(f64::NAN))),
        ];
        assert_eq!(nan, [2, 3]);
        assert!(!Arc::ptr_eq(store.strategy(nan[0]), store.strategy(nan[1])));
    }
}
