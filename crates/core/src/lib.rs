//! # qucp-core
//!
//! QuCP — Quantum Crosstalk-aware Parallel workload execution — the
//! primary contribution of *"How Parallel Circuit Execution Can Be
//! Useful for NISQ Computing?"* (Niu & Todri-Sanial, DATE 2022),
//! together with the baselines it is evaluated against.
//!
//! ## Architecture: the staged pipeline
//!
//! Execution is organized as four swappable stages behind traits (see
//! [`pipeline`]):
//!
//! | stage | trait | paper mechanism | default impl |
//! |-------|-------|-----------------|--------------|
//! | 1. partition | [`Partitioner`] | EFS region allocation (Eq. 1) | [`EfsPartitioner`] over any [`PartitionPolicy`] |
//! | 2. map/route | [`Router`] | HA placement + reliability SWAPs | [`ReliabilityRouter`] (± CNA penalties) |
//! | 3. merge | [`ScheduleMerger`] | end-aligned ALAP + γ/serialization | [`AlapMerger`] |
//! | 4. execute | [`Backend`] | noisy execution + PST/JSD scoring | [`SimulatorBackend`] |
//!
//! A [`Strategy`] (QuCP, QuMC, CNA, MultiQC, QuCloud) names a stage
//! combination; [`Pipeline::from_strategy`] assembles it, and
//! [`execute_parallel`]/[`plan_workload`] are thin wrappers kept for
//! callers. New allocation policies or backends implement one trait and
//! plug in without touching the driver — the `qucp-runtime` batch
//! scheduler builds on exactly this seam, executing the programs of a
//! planned workload concurrently through the `Send + Sync` stage
//! objects.
//!
//! Supporting modules: [`partition`] grows and scores candidate regions
//! ([`efs()`], Eq. 1 of the paper), with crosstalk entering either through
//! QuCP's σ parameter or QuMC's measured pair ratios; [`mapping`] places
//! and routes each program inside its region; [`context`] merges the
//! ALAP-aligned schedules and determines which cross-program CNOTs
//! suffer crosstalk (or, for CNA, are serialized); [`threshold`]
//! implements the Fig. 4 throughput/fidelity trade-off; [`queue`] models
//! the cloud-queue motivation of Sec. I analytically (the `qucp-runtime`
//! crate realizes the same semantics as an executable system).
//!
//! ```
//! use qucp_circuit::library;
//! use qucp_device::ibm;
//! use qucp_core::{execute_parallel, strategy, ParallelConfig};
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
//! let outcome = execute_parallel(&device, &programs, &strategy::qucp(4.0), &cfg)?;
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
mod executor;
pub mod mapping;
pub mod partition;
pub mod pipeline;
pub mod queue;
pub mod report;
pub mod sabre;
pub mod strategy;
pub mod threshold;

pub use efs::{efs, CircuitStats, CrosstalkTreatment, EfsBreakdown};
pub use error::CoreError;
pub use executor::{
    execute_parallel, plan_workload, ParallelConfig, ParallelOutcome, ProgramResult,
};
pub use mapping::{initial_mapping, local_topology, map_program, route, MappedProgram};
pub use partition::{
    allocate_partitions, best_partition, candidate_partitions, Allocation, PartitionPolicy,
};
pub use pipeline::{
    AlapMerger, Backend, EfsPartitioner, Partitioner, Pipeline, PlannedWorkload, ReliabilityRouter,
    Router, ScheduleMerger, SimulatorBackend,
};
pub use sabre::{route_sabre, SabreOptions};
pub use strategy::{Strategy, DEFAULT_SIGMA};
pub use threshold::{
    batch_efs_difference, batch_efs_excesses, efs_difference, parallel_count_for_threshold,
    solo_efs_scores,
};
