//! The evaluate pass: the drawn error shots, sorted by pattern, are the
//! leaves of a prefix tree, and a depth-first walk evolves each distinct
//! error prefix once instead of once per shot (Li, Ding & Xie,
//! "Eliminating redundant computation in noisy quantum computing
//! simulation", DAC 2020 — exact for this noise model), by the same
//! gates and Paulis in the same order as a per-shot replay from `|0…0⟩`.

use super::draw::{unpack, Drawn, ErrorKey, ErrorShot, Errors};
use super::{apply_pauli, apply_typed_gate_error, run_work, scratch, Event, TrajectoryJob};
use crate::alias::{AliasScratch, AliasTable};
use crate::counts::{Counts, Tally};
use crate::fanout::{run_indexed_within, workers_for};
use crate::math::Complex;
use crate::state::kernel;

impl TrajectoryJob<'_> {
    /// Resolves the error shots of `drawn` into its counts on at most
    /// `budget` workers, and gives its error buffers back to the
    /// thread's scratch as the join stream's.
    pub(super) fn evaluate(&self, drawn: Drawn, budget: usize) -> Counts {
        let Drawn {
            mut counts,
            mut errors,
        } = drawn;
        self.resolve(&mut counts, &mut errors, budget);
        scratch::give_join(errors);
        counts.into_counts()
    }

    /// The sorted shots are cut into one contiguous run per worker, each
    /// walked as a prefix tree of its own (own level pool and tally,
    /// added into `counts`). A shot's outcome is a function of its own
    /// pattern, uniform and mask, so no cut or worker count moves a
    /// count.
    fn resolve(&self, counts: &mut Tally, errors: &mut Errors, budget: usize) {
        let (shots, patterns) = (&mut errors.shots, &errors.patterns[..]);
        if shots.is_empty() {
            return;
        }
        sort_by_pattern(shots, patterns);
        let shots = &shots[..];
        let work = run_work(shots.len(), self.plan);
        let workers = workers_for(budget, shots.len(), work);
        if workers == 1 {
            // Straight into the clean shots' tally: a one-task fan-out
            // would need a second tally.
            Evaluator::walk(self, patterns, shots, counts);
            return;
        }
        let chunk = shots.len().div_ceil(workers);
        let runs = shots.len().div_ceil(chunk);
        let partials = run_indexed_within(budget, runs, work, |w| {
            let run = &shots[w * chunk..shots.len().min((w + 1) * chunk)];
            let mut partial = Tally::new(self.width, run.len());
            Evaluator::walk(self, patterns, run, &mut partial);
            partial
        });
        for partial in &partials {
            counts.absorb(partial);
        }
    }
}

/// Sorts `shots` by pattern, in place: by the carried [`sort_key`]
/// (the first two keys), and where two keys tie by the keys from the
/// third on — the arena is read only when both patterns have some.
/// Equal patterns may land in any order (counts commute).
///
/// [`sort_key`]: super::draw::sort_key
pub(super) fn sort_by_pattern(shots: &mut [ErrorShot], patterns: &[ErrorKey]) {
    let tail = |shot: &ErrorShot| match shot.len {
        0..=2 => &[],
        len => &patterns[shot.start + 2..shot.start + len as usize],
    };
    shots.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| tail(a).cmp(tail(b))));
}

/// One walking worker's buffers, kept between walks in the thread's
/// scratch.
#[derive(Default)]
pub(super) struct Levels {
    /// The level stack in one allocation, `2^width` amplitudes a level:
    /// level 0 is the root, which walks the ideal event stream forward
    /// once; a deeper level holds the error prefix its subtree shares.
    pool: Vec<Complex>,
    /// The running probability sums of the node being sampled, when
    /// several shots end there — its plain probabilities at a node
    /// sampled through `alias`.
    cdf: Vec<f64>,
    /// The alias table of the single-error node being sampled, rebuilt
    /// in place per node (a run has one such node per distinct
    /// `(position, Pauli)` pattern), and its worklists.
    alias: AliasTable,
    alias_scratch: AliasScratch,
}

impl Levels {
    /// Heap bytes the pool and the tables hold.
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity() * size_of::<Complex>()
            + self.cdf.capacity() * size_of::<f64>()
            + self.alias.heap_bytes()
            + self.alias_scratch.heap_bytes()
    }
}

/// One worker's walk over a sorted run of error shots.
struct Evaluator<'a> {
    job: &'a TrajectoryJob<'a>,
    patterns: &'a [ErrorKey],
    levels: Levels,
    counts: &'a mut Tally,
}

impl<'a> Evaluator<'a> {
    /// Evaluates `shots` (sorted, not empty) from `|0…0⟩` into `counts`,
    /// on the level pool and tables of the thread's scratch.
    fn walk(
        job: &'a TrajectoryJob<'a>,
        patterns: &'a [ErrorKey],
        shots: &[ErrorShot],
        counts: &'a mut Tally,
    ) {
        #[cfg(test)]
        super::differential::WALKS_STARTED.with(|n| n.set(n.get() + 1));
        let dim = 1usize << job.width;
        let mut levels = scratch::take_levels();
        let pool = &mut levels.pool;
        pool.clear();
        // One shot stays in the root's buffer, more almost always fork once.
        pool.reserve_exact(dim * shots.len().min(2));
        pool.resize(dim, Complex::zero());
        pool[0] = Complex::one();
        let mut evaluator = Evaluator {
            job,
            patterns,
            levels,
            counts,
        };
        evaluator.node(shots, 0, 0, 0);
        scratch::give_levels(evaluator.levels);
    }

    fn level(&mut self, level: usize) -> &mut [Complex] {
        let dim = 1usize << self.job.width;
        &mut self.levels.pool[level * dim..(level + 1) * dim]
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
        let pool = &mut self.levels.pool;
        if pool.len() == to {
            pool.extend_from_within(from..to);
        } else {
            pool.copy_within(from..to, to);
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
        let Levels {
            pool,
            cdf,
            alias,
            alias_scratch,
        } = &mut self.levels;
        let amps = &pool[level * dim..(level + 1) * dim];
        let mut record =
            |shot: &ErrorShot, outcome: usize| self.counts.record(outcome ^ shot.mask as usize);
        if depth == 1 && self.job.alias_single_errors {
            cdf.clear();
            cdf.extend(amps.iter().map(|a| a.norm_sqr()));
            alias.rebuild(cdf, alias_scratch);
            let table = &*alias;
            shots
                .iter()
                .for_each(|shot| record(shot, table.sample(shot.u)));
        } else if let [shot] = shots {
            record(shot, kernel::sample_at(amps, shot.u));
        } else {
            kernel::running_sums(amps, cdf);
            let sums = &*cdf;
            shots
                .iter()
                .for_each(|shot| record(shot, kernel::sample_sums(sums, shot.u)));
        }
    }
}
