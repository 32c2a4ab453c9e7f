//! What a run fills and drops, kept by the thread that ran it: the
//! error buffers of the stream its histogram is joined in, and one
//! walking worker's level pool and sampling tables.
//!
//! Buffers are taken out of the thread's [`RunScratch`] and given back
//! to it, each in one short borrow: no borrow is held across a draw or
//! a walk, so a fan-out that runs its tasks inline takes from the same
//! scratch as its caller. A taken buffer is empty; a thread that has
//! none makes a fresh one (a helper thread starts with none, and its
//! scratch dies with it). When a run ends, [`trim`] frees whatever
//! would keep the caller's scratch above [`SCRATCH_RETAIN_BYTES`].

use std::cell::RefCell;

use super::draw::Errors;
use super::evaluate::Levels;

/// The heap bytes a thread keeps between runs, at most (1 MiB): room
/// for every run of the paper's 8 192-shot jobs on registers of up to
/// eight qubits, serial or in 16 shards. What a larger run leaves
/// behind is freed when it ends, so a long-lived thread — a daemon
/// connection's — never holds more than this for its runs.
pub(super) const SCRATCH_RETAIN_BYTES: usize = 1 << 20;

/// One thread's kept buffers.
struct RunScratch {
    /// The error buffers of the stream every other joins, the largest
    /// a run needs: a serial run's only stream, a sharded run's first.
    join: Option<Errors>,
    /// One walking worker's level pool and sampling tables.
    levels: Option<Levels>,
}

thread_local! {
    static SCRATCH: RefCell<RunScratch> = const {
        RefCell::new(RunScratch {
            join: None,
            levels: None,
        })
    };
}

fn with<R>(f: impl FnOnce(&mut RunScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

/// The join stream's error buffers, empty.
pub(super) fn take_join() -> Errors {
    let mut errors = with(|s| s.join.take()).unwrap_or_default();
    errors.clear();
    errors
}

/// Gives the join stream's buffers back; of two (a helper drew the
/// first shard), the larger is kept.
pub(super) fn give_join(errors: Errors) {
    with(|s| match &s.join {
        Some(kept) if kept.heap_bytes() >= errors.heap_bytes() => {}
        _ => s.join = Some(errors),
    });
}

/// A walking worker's level pool and tables (contents unspecified: the
/// walk sets up its root itself).
pub(super) fn take_levels() -> Levels {
    with(|s| s.levels.take()).unwrap_or_default()
}

pub(super) fn give_levels(levels: Levels) {
    with(|s| s.levels = Some(levels));
}

/// Frees what would keep this thread's scratch above
/// [`SCRATCH_RETAIN_BYTES`]: the join buffers are kept first, then the
/// level pool and tables if they fit in what is left.
pub(super) fn trim() {
    with(|s| {
        let join = s.join.as_ref().map_or(0, Errors::heap_bytes);
        if join > SCRATCH_RETAIN_BYTES {
            s.join = None;
        }
        let left = SCRATCH_RETAIN_BYTES
            .checked_sub(join)
            .unwrap_or(SCRATCH_RETAIN_BYTES);
        if s.levels.as_ref().is_some_and(|l| l.heap_bytes() > left) {
            s.levels = None;
        }
    });
}

/// The heap bytes this thread's scratch holds.
#[cfg(test)]
pub(super) fn retained_bytes() -> usize {
    with(|s| {
        let join = s.join.as_ref().map_or(0, Errors::heap_bytes);
        join + s.levels.as_ref().map_or(0, Levels::heap_bytes)
    })
}
