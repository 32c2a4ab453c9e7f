//! Iterative application campaigns riding the [`Service`]: the
//! generate → submit-batch → await-results → fold loop, factored once.
//!
//! The paper's thesis is that parallel circuit execution accelerates
//! real NISQ workloads — VQE's commuting-group measurement circuits,
//! ZNE's folded-circuit ladder, SRB's simultaneous-RB groups (see
//! Mineh & Montanaro, arXiv:2209.03796, and Ohkura et al.,
//! arXiv:2112.07091). All three share one shape: an iterative driver
//! that is a **pure function from prior results to the next
//! co-scheduled batch of requests**. [`CampaignDriver`] captures that
//! shape; [`run_campaign`] owns the loop, so application crates never
//! re-implement submission, awaiting, or retrieval.
//!
//! ## The loop
//!
//! Each round, [`run_campaign`]:
//!
//! 1. asks the driver for the next batch of [`JobRequest`]s
//!    ([`CampaignDriver::next_batch`]; `None` ends the campaign);
//! 2. stamps every request's arrival with the campaign clock (the max
//!    completion time seen so far) and submits them — co-arrival is
//!    what lets the admission policy pack them onto shared hardware;
//! 3. drains the round with [`Service::tick`] at `+∞` and claims each
//!    ticket's result with [`Service::take_result`] — the per-ticket,
//!    exactly-once retrieval seam (results are handed to the driver in
//!    submission order);
//! 4. hands the results to [`CampaignDriver::fold`] and advances the
//!    campaign clock.
//!
//! ## Ownership and determinism contract
//!
//! - The driver owns every claimed [`JobResult`] copy; the service
//!   retains the canonical results for its end-of-run drained
//!   [`ServiceReport`](crate::ServiceReport), which is **unchanged**
//!   by mid-stream claims (claim flags, not eviction — see
//!   [`Service::take_result`]).
//! - A campaign is deterministic end to end: the service's
//!   thread-count-independence guarantee covers every batch it dispatches,
//!   and the loop adds no nondeterminism of its own (arrival stamping
//!   and result ordering are pure functions of the submissions). The
//!   same driver on the same service configuration folds bit-identical
//!   results however many threads the host offers.

use crate::error::RuntimeError;
use crate::job::JobResult;
use crate::service::{JobRequest, Service};

/// An iterative job source: a pure function from prior results to the
/// next co-scheduled batch of requests.
///
/// Implementations hold the application state (a θ grid and folded
/// energies for VQE, a noise-scale ladder for ZNE, simultaneous-RB
/// groups for SRB) and must be deterministic: `next_batch` and `fold`
/// may depend only on the construction parameters and the results
/// folded so far, never on wall-clock time or thread identity — the
/// campaign's determinism guarantee rests on it.
pub trait CampaignDriver {
    /// What the campaign produces once no batches remain.
    type Output;

    /// The next co-scheduled batch, or `None` when the campaign is
    /// done. Arrival times are overwritten by the campaign clock, so
    /// drivers may leave them `0.0`. An empty batch also ends the
    /// campaign (a driver with nothing to submit is done).
    fn next_batch(&mut self, round: usize) -> Option<Vec<JobRequest>>;

    /// Folds one round's results — in submission order, one per
    /// request of the corresponding [`CampaignDriver::next_batch`] —
    /// into the driver state.
    fn fold(&mut self, round: usize, results: &[JobResult]);

    /// Consumes the driver into its output.
    fn finish(self) -> Self::Output
    where
        Self: Sized;
}

/// Scheduling statistics of one [`run_campaign`] call, accumulated
/// across its rounds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignStats {
    /// Rounds the driver produced.
    pub rounds: usize,
    /// Jobs submitted across all rounds.
    pub jobs: usize,
    /// Batches the service dispatched for those jobs — the "scheduler
    /// ticks" a multiprogrammed campaign saves over a serial-direct
    /// one.
    pub batches: usize,
    /// The campaign clock after the last round: the simulated
    /// completion time of the whole campaign (ns).
    pub makespan: f64,
    /// Summed turnaround (ns) over every claimed result.
    pub total_turnaround: f64,
}

/// The outcome of a drained campaign: the driver's output plus the
/// scheduling statistics of the rounds that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun<O> {
    /// What the driver folded.
    pub output: O,
    /// How the service served it.
    pub stats: CampaignStats,
}

/// Runs a campaign to completion on `service` (see the module docs for
/// the loop and its contract).
///
/// The service may carry unrelated pending work; each round's `+∞`
/// tick drains it alongside the campaign's jobs (their tickets are
/// simply not claimed here, so their results stay available to their
/// owners and to the drained report).
///
/// # Errors
///
/// Propagates submission and dispatch errors
/// ([`RuntimeError::JobUnplaceable`], [`RuntimeError::Core`], …). A
/// claimed ticket that the drained round cannot produce is a service
/// invariant violation surfaced as [`RuntimeError::QueueCorrupted`].
pub fn run_campaign<D: CampaignDriver>(
    service: &mut Service,
    mut driver: D,
) -> Result<CampaignRun<D::Output>, RuntimeError> {
    let mut stats = CampaignStats::default();
    let batches_before = service.batches_run();
    let mut round = 0;
    while let Some(requests) = driver.next_batch(round) {
        if requests.is_empty() {
            break;
        }
        let mut tickets = Vec::with_capacity(requests.len());
        for mut request in requests {
            // Co-arrival at the campaign clock: the whole round is
            // visible to the admission policy at once, so it packs.
            request.arrival = stats.makespan;
            tickets.push(service.submit(request)?);
        }
        service.tick(f64::INFINITY)?;
        let mut results = Vec::with_capacity(tickets.len());
        for ticket in &tickets {
            let result = service
                .take_result(ticket)
                .ok_or(RuntimeError::QueueCorrupted { seq: ticket.seq })?;
            stats.makespan = stats.makespan.max(result.completion);
            stats.total_turnaround += result.turnaround;
            results.push(result);
        }
        stats.jobs += tickets.len();
        stats.rounds += 1;
        driver.fold(round, &results);
        round += 1;
    }
    stats.batches = service.batches_run() - batches_before;
    Ok(CampaignRun {
        output: driver.finish(),
        stats,
    })
}
