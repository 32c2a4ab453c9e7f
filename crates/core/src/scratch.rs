//! The buffers planning fills and drops, in one value a caller keeps.
//!
//! A plan-memo miss runs stages 1–3 again, and most of what they ask
//! the heap for is gone before the plan is: the growth mask and region,
//! the placement order and the taken-qubit mask of stage 1, the
//! partition-local graph with its distance table and the interaction
//! weights of routing, the gate durations and the overlap tables of the
//! merge. A [`PlanScratch`] holds all of them. The caller owns it and
//! lends it by `&mut` to [`Pipeline::allocate`](crate::Pipeline::allocate),
//! [`Pipeline::complete`](crate::Pipeline::complete) and
//! [`allocate_partitions_in`](crate::partition::allocate_partitions_in),
//! so a long-lived caller (the runtime's dispatch loop) plans on memory
//! it requested once and a miss asks the heap only for what the plan
//! keeps. Nothing in here is shared or interior-mutable: a plan is
//! still a pure function of its inputs, whatever a scratch held before
//! (every buffer is emptied before it is read), and the entry points
//! without a scratch ([`Pipeline::plan`](crate::Pipeline::plan),
//! [`allocate_partitions`](crate::allocate_partitions), …) run the same
//! code on a fresh one.

use crate::context::ContextBuffers;
use crate::mapping::RouteBuffers;
use crate::partition::AllocationBuffers;

/// The transient buffers of stages 1–3 (see the [module](self) docs),
/// empty as a value between calls and kept as capacity.
#[derive(Debug, Default)]
pub struct PlanScratch {
    pub(crate) allocation: AllocationBuffers,
    pub(crate) routing: RouteBuffers,
    pub(crate) context: ContextBuffers,
}
