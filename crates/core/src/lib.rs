//! # qucp-core
//!
//! QuCP — Quantum Crosstalk-aware Parallel workload execution — the
//! primary contribution of *"How Parallel Circuit Execution Can Be
//! Useful for NISQ Computing?"* (Niu & Todri-Sanial, DATE 2022),
//! together with the baseline strategies it is evaluated against.
//!
//! ## Architecture: one pipeline
//!
//! The method is one fixed sequence of stages, run by a [`Pipeline`]
//! under one [`Strategy`]'s settings (see [`pipeline`]):
//!
//! | stage | paper mechanism | where |
//! |-------|-----------------|-------|
//! | 1. allocate | EFS region allocation (Eq. 1) | [`Pipeline::allocate`] over [`allocate_partitions`] |
//! | 2. map/route | HA placement + reliability SWAPs (± CNA penalties) | [`Pipeline::complete`] |
//! | 3. merge | end-aligned ALAP + γ/serialization | [`Pipeline::complete`] over [`context::build_context`] |
//! | 4. execute | noisy execution + PST/JSD scoring | [`PlannedWorkload::run_program`] |
//!
//! A [`Strategy`] (QuCP, QuMC, CNA, MultiQC, QuCloud) is a partition
//! policy plus two flags; [`Pipeline::from_strategy`] borrows them.
//! [`Pipeline::plan`] runs stages 1–3 and [`Pipeline::execute`] all
//! four. The `qucp-runtime` batch scheduler calls the stages one at a
//! time: its EFS gate loops on allocation alone, and it executes the
//! programs of a shared [`PlannedWorkload`] concurrently.
//!
//! Supporting modules: [`partition`] grows and scores candidate regions
//! ([`efs()`], Eq. 1 of the paper), with crosstalk entering either through
//! QuCP's σ parameter or QuMC's measured pair ratios (a map built from
//! the device's ground truth or from an SRB campaign in `qucp-srb`,
//! which this crate does not depend on); [`mapping`] places and routes
//! each program inside its region with one greedy shortest-path router;
//! [`context`] merges the ALAP-aligned schedules and determines which
//! cross-program CNOTs suffer crosstalk (or, for CNA, are serialized);
//! [`threshold`] implements the Fig. 4 throughput/fidelity trade-off.
//! The cloud-queue motivation of Sec. I/II-A lives in the
//! `qucp-runtime` crate, whose batch scheduler queues, packs and runs
//! jobs through this pipeline and reports their queue statistics.
//!
//! ```
//! use qucp_circuit::library;
//! use qucp_device::ibm;
//! use qucp_core::{strategy, ParallelConfig, Pipeline};
//! use qucp_sim::ExecutionConfig;
//!
//! # fn main() -> Result<(), qucp_core::CoreError> {
//! let device = ibm::toronto();
//! let programs = vec![
//!     library::by_name("fredkin").unwrap().circuit(),
//!     library::by_name("linearsolver").unwrap().circuit(),
//! ];
//! let cfg = ParallelConfig {
//!     execution: ExecutionConfig::default().with_shots(1024),
//!     optimize: true,
//! };
//! let qucp = strategy::qucp(4.0);
//! let outcome = Pipeline::from_strategy(&qucp).execute(&device, &programs, &cfg)?;
//! assert_eq!(outcome.programs.len(), 2);
//! println!("throughput: {:.1}%", 100.0 * outcome.throughput);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod context;
pub mod efs;
mod error;
pub mod mapping;
pub mod partition;
pub mod pipeline;
pub mod report;
pub mod scratch;
pub mod strategy;
pub mod threshold;

#[cfg(test)]
#[path = "pipeline/end_to_end.rs"]
mod executor;

pub use efs::{efs, CircuitStats, CrosstalkTreatment, EfsBreakdown};
pub use error::CoreError;
pub use mapping::{initial_mapping, map_program, route, MappedProgram};
pub use partition::{
    allocate_partitions, allocate_partitions_in, best_partition, candidate_partitions, Allocation,
    PartitionPolicy,
};
pub use pipeline::{ParallelConfig, ParallelOutcome, Pipeline, PlannedWorkload, ProgramResult};
pub use scratch::PlanScratch;
pub use strategy::{Strategy, DEFAULT_SIGMA};
pub use threshold::{
    batch_efs_excesses, efs_difference, parallel_count_for_threshold, solo_efs_scores,
};
