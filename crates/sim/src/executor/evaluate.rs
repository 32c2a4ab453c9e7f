//! The evaluate pass: the drawn error shots, sorted by pattern, are the
//! leaves of a prefix tree, and a depth-first walk evolves each distinct
//! error prefix once instead of once per shot (Li, Ding & Xie,
//! "Eliminating redundant computation in noisy quantum computing
//! simulation", DAC 2020 — exact for this noise model), by the same
//! gates and Paulis in the same order as a per-shot replay from `|0…0⟩`.

use super::draw::{unpack, Drawn, ErrorKey, ErrorShot};
use super::{apply_pauli, apply_typed_gate_error, run_work, Event, TrajectoryJob};
use crate::alias::{AliasScratch, AliasTable};
use crate::counts::{Counts, Tally};
use crate::fanout::{run_indexed_within, workers_for};
use crate::math::Complex;
use crate::state::kernel;

impl TrajectoryJob<'_> {
    /// Resolves the error shots of `drawn` into its counts on at most
    /// `budget` workers: the sorted shots are cut into one contiguous
    /// run per worker, each walked as a prefix tree of its own (own
    /// level pool and tally, added into the draw's). A shot's outcome is
    /// a function of its own pattern, uniform and mask, so no cut or
    /// worker count moves a count.
    pub(super) fn evaluate(&self, drawn: Drawn, budget: usize) -> Counts {
        let (mut counts, mut shots, patterns) = (drawn.counts, drawn.shots, drawn.patterns);
        if shots.is_empty() {
            return counts.into_counts();
        }
        let pattern = |shot: &ErrorShot| &patterns[shot.start..shot.start + shot.len as usize];
        // A pattern's first two keys packed, 0 for an absent second one
        // (no key is 0: codes start at 1), order patterns as the slices
        // do, so only a tie reads on, from the third key. Branch-free:
        // whether a shot has a second error is a coin toss.
        let head = |shot: &ErrorShot| {
            let second = u64::from(patterns.get(shot.start + 1).copied().unwrap_or(0));
            let present = u64::from(shot.len > 1).wrapping_neg();
            u64::from(patterns[shot.start]) << 32 | second & present
        };
        let tail = |shot: &ErrorShot| &pattern(shot)[(shot.len as usize).min(2)..];
        // In place; equal patterns may land in any order (counts commute).
        shots.sort_unstable_by(|a, b| head(a).cmp(&head(b)).then_with(|| tail(a).cmp(tail(b))));
        let work = run_work(shots.len(), self.plan);
        let workers = workers_for(budget, shots.len(), work);
        if workers == 1 {
            // Straight into the clean shots' tally: a one-task fan-out
            // would allocate a result vector and a second tally.
            Evaluator::walk(self, &patterns, &shots, &mut counts);
            return counts.into_counts();
        }
        let runs: Vec<&[ErrorShot]> = shots.chunks(shots.len().div_ceil(workers)).collect();
        let partials = run_indexed_within(budget, runs.len(), work, |w| {
            let mut partial = Tally::new(self.width, runs[w].len());
            Evaluator::walk(self, &patterns, runs[w], &mut partial);
            partial
        });
        for partial in &partials {
            counts.absorb(partial);
        }
        counts.into_counts()
    }
}

/// One worker's walk over a sorted run of error shots.
struct Evaluator<'a> {
    job: &'a TrajectoryJob<'a>,
    patterns: &'a [ErrorKey],
    /// The level stack in one allocation, `2^width` amplitudes a level:
    /// level 0 is the root, which walks the ideal event stream forward
    /// once; a deeper level holds the error prefix its subtree shares.
    pool: Vec<Complex>,
    /// The running probability sums of the node being sampled, when
    /// several shots end there — its plain probabilities at a node
    /// sampled through `alias`; requested by the first such node.
    cdf: Vec<f64>,
    /// The alias table of the single-error node being sampled, rebuilt
    /// in place per node (a run has one such node per distinct
    /// `(position, Pauli)` pattern), and its worklists.
    alias: AliasTable,
    alias_scratch: AliasScratch,
    counts: &'a mut Tally,
}

impl<'a> Evaluator<'a> {
    /// Evaluates `shots` (sorted, not empty) from `|0…0⟩` into `counts`.
    fn walk(
        job: &'a TrajectoryJob<'a>,
        patterns: &'a [ErrorKey],
        shots: &[ErrorShot],
        counts: &'a mut Tally,
    ) {
        #[cfg(test)]
        super::differential::POOLS_ALLOCATED.with(|n| n.set(n.get() + 1));
        let dim = 1usize << job.width;
        // One shot stays in the root's buffer, more almost always fork once.
        let mut pool = Vec::with_capacity(dim * shots.len().min(2));
        pool.resize(dim, Complex::zero());
        pool[0] = Complex::one();
        let mut evaluator = Evaluator {
            job,
            patterns,
            pool,
            cdf: Vec::new(),
            alias: AliasTable::unbuilt(),
            alias_scratch: AliasScratch::default(),
            counts,
        };
        evaluator.node(shots, 0, 0, 0);
    }

    fn level(&mut self, level: usize) -> &mut [Complex] {
        let dim = 1usize << self.job.width;
        &mut self.pool[level * dim..(level + 1) * dim]
    }

    /// Walks the subtree of `shots`, which share their first `depth`
    /// errors; `level` holds that prefix's state right before event
    /// `cursor`. Children are visited in ascending `(position, code)`:
    /// the node's state advances through the child's event, is copied
    /// one level down and struck with the child's Pauli there. The last
    /// child of a node no shot ends at inherits the node's buffer instead
    /// (a lone error shot, however many errors, uses one state). Shots
    /// ending at the node are sampled from its final state, last.
    fn node(&mut self, mut shots: &[ErrorShot], mut depth: usize, level: usize, mut cursor: usize) {
        let patterns = self.patterns;
        let pattern = |shot: &ErrorShot| &patterns[shot.start..shot.start + shot.len as usize];
        loop {
            let (done, mut rest) =
                shots.split_at(shots.partition_point(|shot| shot.len as usize == depth));
            let mut heir = None;
            while let Some(first) = rest.first() {
                let key = patterns[first.start + depth];
                let (group, later) =
                    rest.split_at(rest.partition_point(|shot| patterns[shot.start + depth] == key));
                let next = unpack(key).0 + 1;
                self.advance(level, cursor, next);
                cursor = next;
                if done.is_empty() && later.is_empty() {
                    self.strike(level, key);
                    heir = Some(group);
                } else if level + 2 < self.job.max_levels {
                    self.fork(level, key);
                    self.node(group, depth + 1, level + 1, cursor);
                } else {
                    // The level bound: the child may not fork again, so
                    // it gets the group one run of equal patterns at a
                    // time — a chain, which lives in one buffer — each
                    // from a fresh copy of this deepest shared state.
                    for run in group.chunk_by(|a, b| pattern(a) == pattern(b)) {
                        self.fork(level, key);
                        self.node(run, depth + 1, level + 1, cursor);
                    }
                }
                rest = later;
            }
            match heir {
                Some(group) => {
                    shots = group;
                    depth += 1;
                }
                None => {
                    self.advance(level, cursor, self.job.plan.events.len());
                    return self.sample(level, done, depth);
                }
            }
        }
    }

    /// Applies the ideal gates of events `from..to` to `level`.
    fn advance(&mut self, level: usize, from: usize, to: usize) {
        let job = self.job;
        let amps = self.level(level);
        for ev in &job.plan.events[from..to] {
            if let Event::Gate { index, .. } = *ev {
                kernel::run(amps, &job.ops[index as usize], job.mats);
                #[cfg(test)]
                super::differential::GATES_APPLIED.with(|n| n.set(n.get() + 1));
            }
        }
    }

    /// Applies the error `key` to `level`, which has just advanced
    /// through the error's event.
    fn strike(&mut self, level: usize, key: ErrorKey) {
        let job = self.job;
        let amps = self.level(level);
        let (pos, code) = unpack(key);
        match job.plan.events[pos] {
            Event::Gate { index, .. } => {
                apply_typed_gate_error(amps, &job.gates[index as usize], code);
            }
            Event::Idle { q, .. } => apply_pauli(amps, q as usize, code),
        }
    }

    /// Copies `level` one level down and strikes the copy with `key`.
    fn fork(&mut self, level: usize, key: ErrorKey) {
        let dim = 1usize << self.job.width;
        let (from, to) = (level * dim, (level + 1) * dim);
        if self.pool.len() == to {
            self.pool.extend_from_within(from..to);
        } else {
            self.pool.copy_within(from..to, to);
        }
        self.strike(level + 1, key);
    }

    /// Samples the shots whose pattern ends at this node from `level`'s
    /// final state, each with its recorded uniform: through the node's
    /// alias table for `SurvivalSkip` single-error shots under
    /// [`single_error_alias`](super::single_error_alias), else the CDF
    /// — walked for a lone shot, written out once and binary-searched
    /// when several shots would walk the same sums.
    fn sample(&mut self, level: usize, shots: &[ErrorShot], depth: usize) {
        let dim = 1usize << self.job.width;
        let amps = &self.pool[level * dim..(level + 1) * dim];
        let mut record =
            |shot: &ErrorShot, outcome: usize| self.counts.record(outcome ^ shot.mask as usize);
        if depth == 1 && self.job.alias_single_errors {
            self.cdf.clear();
            self.cdf.extend(amps.iter().map(|a| a.norm_sqr()));
            self.alias.rebuild(&self.cdf, &mut self.alias_scratch);
            let table = &self.alias;
            shots
                .iter()
                .for_each(|shot| record(shot, table.sample(shot.u)));
        } else if let [shot] = shots {
            record(shot, kernel::sample_at(amps, shot.u));
        } else {
            kernel::running_sums(amps, &mut self.cdf);
            let sums = &self.cdf;
            shots
                .iter()
                .for_each(|shot| record(shot, kernel::sample_sums(sums, shot.u)));
        }
    }
}
