//! Admission policies: who leads the next batch and who rides along.
//!
//! The paper's cloud-queue argument (Sec. I/II-A) treats the admission
//! discipline as fixed FIFO fair-share; Niu & Todri-Sanial's
//! multi-programming mechanism and Ohkura et al.'s simultaneous
//! execution study both show the interesting design space is exactly
//! here — which jobs are co-scheduled when a device frees up. The
//! [`Service`](crate::Service) takes the decision from its
//! [`AdmissionPolicy`], a closed set of rules held by value:
//!
//! - [`AdmissionPolicy::Fifo`] reproduces the seed scheduler
//!   bit-for-bit: strict arrival order, packing stops at the first job
//!   that does not fit.
//! - [`AdmissionPolicy::Backfill`] lets smaller jobs jump a
//!   head-of-line job that does not fit the remaining qubit budget, with
//!   a hard starvation bound: a job overtaken
//!   [`Backfill::max_overtakes`] times becomes a barrier no later job
//!   may pass.
//! - [`AdmissionPolicy::ShortestJobFirst`] orders by circuit area
//!   (width × depth, a service-time proxy), classic SJF turnaround
//!   optimisation at the cost of fairness.
//!
//! Policies never see circuits or devices — only [`JobView`]s and a
//! [`BatchBudget`] — so they stay cheap and deterministic; planning,
//! fidelity gating and execution remain the service's business. A pack
//! is written into a buffer the caller keeps, so admission asks nothing
//! of the heap once the buffer has grown.

/// What a policy reads of one pending job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobView {
    /// Service-assigned submission index (FIFO tiebreaker).
    pub seq: usize,
    /// Arrival time (ns).
    pub arrival: f64,
    /// Logical qubit width.
    pub width: usize,
    /// Circuit area: width × depth (critical-path length in gates), the
    /// service-time proxy [`AdmissionPolicy::ShortestJobFirst`] orders
    /// by. Precomputed once at submission so repeated packs never
    /// re-multiply per dispatch step.
    pub area: usize,
    /// How many batches have already overtaken this job (the backfill
    /// starvation counter).
    pub skips: usize,
}

/// The resource envelope of the batch being formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchBudget {
    /// Physical qubits of the target device.
    pub qubits: usize,
    /// Maximum batch width (config cap, possibly tightened by the
    /// head-only EFS gate).
    pub max_members: usize,
}

/// Decides, each time a device frees up, which arrived job leads the
/// next batch and which others ride along.
///
/// `arrived` is always sorted FIFO (arrival time, then submission
/// order) and non-empty. Every rule is a deterministic pure function of
/// its inputs — the service's bit-for-bit reproducibility guarantee
/// rests on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Strict arrival-order service: the seed scheduler's discipline
    /// (IBM fair-share semantics). Packing walks the queue in order and
    /// stops at the first job that does not fit — no overtaking, ever.
    #[default]
    Fifo,
    /// FIFO with backfilling: jobs that do not fit the remaining budget
    /// are skipped instead of blocking the batch, so smaller jobs
    /// behind them may ride along (see [`Backfill`]).
    Backfill(Backfill),
    /// Shortest-job-first: both the head and the riders are chosen by
    /// ascending circuit area — width × depth, a proxy for the schedule
    /// time the job will occupy its partition — with ties broken FIFO.
    /// Classic SJF turnaround minimisation on skewed workloads, at the
    /// cost of delaying large jobs. Jobs that do not fit are skipped,
    /// not barriers — SJF makes no fairness promise.
    ShortestJobFirst,
}

/// The starvation bound of [`AdmissionPolicy::Backfill`].
///
/// Every time a batch admits a job queued behind a skipped one, the
/// skipped job's overtake counter rises; once it reaches
/// `max_overtakes` the job becomes a barrier — packing stops there
/// until the job itself is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backfill {
    /// How many batches may overtake a waiting job before it becomes a
    /// barrier.
    pub max_overtakes: usize,
}

impl Default for Backfill {
    fn default() -> Self {
        Backfill { max_overtakes: 4 }
    }
}

impl From<Backfill> for AdmissionPolicy {
    fn from(backfill: Backfill) -> Self {
        AdmissionPolicy::Backfill(backfill)
    }
}

fn sjf_cmp(a: &JobView, b: &JobView) -> std::cmp::Ordering {
    a.area
        .cmp(&b.area)
        .then(a.arrival.total_cmp(&b.arrival))
        .then(a.seq.cmp(&b.seq))
}

impl AdmissionPolicy {
    /// Display name (reports, events, benches).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "FIFO",
            AdmissionPolicy::Backfill(_) => "Backfill",
            AdmissionPolicy::ShortestJobFirst => "SJF",
        }
    }

    /// Picks the head-of-line job; returns its index into `arrived`.
    pub fn choose_head(self, arrived: &[JobView]) -> usize {
        match self {
            AdmissionPolicy::Fifo | AdmissionPolicy::Backfill(_) => 0,
            AdmissionPolicy::ShortestJobFirst => {
                let mut best = 0;
                for i in 1..arrived.len() {
                    if sjf_cmp(&arrived[i], &arrived[best]) == std::cmp::Ordering::Less {
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Packs the batch around `head` (an index into `arrived`) into
    /// `picks`, replacing its contents: member indices with the head
    /// first. The head leads the pack
    /// whatever its width; the service packs only for a chip that
    /// admits the head, and enforces the budget again afterwards.
    pub fn pack(
        self,
        arrived: &[JobView],
        head: usize,
        budget: &BatchBudget,
        picks: &mut Vec<usize>,
    ) {
        picks.clear();
        picks.push(head);
        let mut used = arrived[head].width;
        match self {
            AdmissionPolicy::Fifo => {
                for (i, job) in arrived.iter().enumerate().skip(head + 1) {
                    if picks.len() >= budget.max_members || used + job.width > budget.qubits {
                        break;
                    }
                    used += job.width;
                    picks.push(i);
                }
            }
            AdmissionPolicy::Backfill(Backfill { max_overtakes }) => {
                for (i, job) in arrived.iter().enumerate().skip(head + 1) {
                    if picks.len() >= budget.max_members {
                        break;
                    }
                    if used + job.width <= budget.qubits {
                        used += job.width;
                        picks.push(i);
                    } else if job.width <= budget.qubits && job.skips >= max_overtakes {
                        // Starvation bound: this job has been jumped
                        // enough. Jobs wider than the whole device are
                        // never barriers here — they cannot run on this
                        // chip at all, and the service routes them (and
                        // their overtake accounting) to a chip that
                        // admits them.
                        break;
                    }
                }
            }
            AdmissionPolicy::ShortestJobFirst => {
                // Every other job, in SJF order behind the head, then
                // compacted in place to the ones that fit. The order is
                // total (`seq` is unique), so the unstable sort — which
                // needs no buffer — orders as a stable one would.
                picks.extend((0..arrived.len()).filter(|&i| i != head));
                picks[1..].sort_unstable_by(|&a, &b| sjf_cmp(&arrived[a], &arrived[b]));
                let mut kept = 1;
                for read in 1..picks.len() {
                    if kept >= budget.max_members {
                        break;
                    }
                    let job = &arrived[picks[read]];
                    if used + job.width <= budget.qubits {
                        used += job.width;
                        picks[kept] = picks[read];
                        kept += 1;
                    }
                }
                picks.truncate(kept);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AdmissionPolicy::{Fifo, ShortestJobFirst};

    fn view(seq: usize, arrival: f64, width: usize, depth: usize) -> JobView {
        JobView {
            seq,
            arrival,
            width,
            area: width * depth,
            skips: 0,
        }
    }

    const BUDGET: BatchBudget = BatchBudget {
        qubits: 10,
        max_members: 4,
    };

    /// The pack of `policy`, into a buffer holding stale picks.
    fn pack(policy: AdmissionPolicy, arrived: &[JobView], head: usize) -> Vec<usize> {
        let mut picks = vec![99, 98, 97, 96, 95];
        policy.pack(arrived, head, &BUDGET, &mut picks);
        picks
    }

    #[test]
    fn fifo_stops_at_first_misfit() {
        let arrived = vec![
            view(0, 0.0, 3, 5),
            view(1, 1.0, 9, 5), // does not fit next to job 0
            view(2, 2.0, 2, 5),
        ];
        assert_eq!(Fifo.choose_head(&arrived), 0);
        assert_eq!(pack(Fifo, &arrived, 0), vec![0]);
    }

    #[test]
    fn fifo_respects_member_cap() {
        let arrived = vec![
            view(0, 0.0, 1, 1),
            view(1, 1.0, 1, 1),
            view(2, 2.0, 1, 1),
            view(3, 3.0, 1, 1),
            view(4, 4.0, 1, 1),
        ];
        assert_eq!(pack(Fifo, &arrived, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn backfill_skips_misfits_but_honors_barrier() {
        let mut arrived = vec![
            view(0, 0.0, 3, 5),
            view(1, 1.0, 9, 5), // too wide to ride along
            view(2, 2.0, 2, 5),
        ];
        let policy = AdmissionPolicy::from(Backfill { max_overtakes: 2 });
        assert_eq!(pack(policy, &arrived, 0), vec![0, 2]);
        // Once the big job has been overtaken to its bound, it blocks.
        arrived[1].skips = 2;
        assert_eq!(pack(policy, &arrived, 0), vec![0]);
    }

    #[test]
    fn sjf_orders_by_circuit_area() {
        let arrived = vec![view(0, 0.0, 3, 50), view(1, 1.0, 3, 5), view(2, 2.0, 3, 20)];
        assert_eq!(ShortestJobFirst.choose_head(&arrived), 1);
        assert_eq!(pack(ShortestJobFirst, &arrived, 1), vec![1, 2, 0]);
    }

    #[test]
    fn sjf_skips_misfits_and_stops_at_the_member_cap() {
        // Areas 40, 12, 10, 20, 30, 5; job 2 is the smallest rider but
        // too wide beside the head, and the cap of four admits the head
        // and three riders.
        let arrived = vec![
            view(0, 0.0, 2, 20),
            view(1, 1.0, 2, 6),
            view(2, 2.0, 10, 1),
            view(3, 3.0, 2, 10),
            view(4, 4.0, 2, 15),
            view(5, 5.0, 1, 5),
        ];
        assert_eq!(ShortestJobFirst.choose_head(&arrived), 5);
        assert_eq!(pack(ShortestJobFirst, &arrived, 5), vec![5, 1, 3, 4]);
    }

    #[test]
    fn head_wider_than_budget_still_admitted_alone() {
        let arrived = vec![view(0, 0.0, 64, 5), view(1, 1.0, 2, 5)];
        assert_eq!(pack(Fifo, &arrived, 0), vec![0]);
        assert_eq!(pack(Backfill::default().into(), &arrived, 0), vec![0]);
        assert_eq!(pack(ShortestJobFirst, &arrived, 0), vec![0]);
    }

    #[test]
    fn names_are_the_event_strings() {
        let names = [Fifo, Backfill::default().into(), ShortestJobFirst].map(AdmissionPolicy::name);
        assert_eq!(names, ["FIFO", "Backfill", "SJF"]);
    }
}
