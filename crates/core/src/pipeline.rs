//! The paper's method as one fixed pipeline.
//!
//! QuCP, like QuMC before it, is one sequence of four stages, and a
//! [`Pipeline`] runs them under one [`Strategy`]'s settings:
//!
//! 1. **allocate** ([`Pipeline::allocate`]) — a disjoint reliable region
//!    per program: the QuMC-style candidate growth and EFS scoring of
//!    [`allocate_partitions`](crate::allocate_partitions) under the strategy's [`PartitionPolicy`];
//! 2. **map and route** — reliability-weighted placement and SWAP
//!    routing inside each region, with CNA's crosstalk-aware link
//!    penalty when the strategy asks for it;
//! 3. **merge** — end-aligned ALAP schedules, charging cross-program
//!    crosstalk or serialization delays ([`build_context`](crate::context::build_context));
//! 4. **execute** ([`PlannedWorkload::run_program`]) — one mapped
//!    program on the `qucp-sim` trajectory simulator, scored against
//!    the routed circuit's one evolution: [`PlannedWorkload::prepare`],
//!    then [`PlannedWorkload::run_prepared`].
//!
//! [`Pipeline::complete`] is stages 2–3, [`Pipeline::plan`] stages 1–3
//! and [`Pipeline::execute`] all four. The `qucp-runtime` batch
//! scheduler calls them one at a time: its EFS gate loops on stage 1
//! alone, it executes the programs of a shared plan concurrently (a
//! [`PlannedWorkload`] is `Send + Sync`), and its plan cache keeps each
//! program's [`PreparedJob`] beside the cached plan.

use qucp_circuit::Circuit;
use qucp_device::{Device, Link};
use qucp_sim::{Counts, ExecutionConfig, PreparedJob};

use crate::context::{build_context_in, WorkloadContext};
use crate::error::CoreError;
use crate::mapping::{map_in, MappedProgram};
use crate::partition::{allocate_partitions_in, Allocation, PartitionPolicy};
use crate::scratch::PlanScratch;
use crate::strategy::Strategy;

/// Configuration of a parallel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Simulator settings (shots, seed, noise channels).
    pub execution: ExecutionConfig,
    /// Run the cancellation peephole pass before mapping (stands in for
    /// the paper's `optimization_level = 3`).
    pub optimize: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            execution: ExecutionConfig::default(),
            optimize: true,
        }
    }
}

/// Per-program outcome of a parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// Program name.
    pub name: String,
    /// Physical qubits of the allocated partition.
    pub partition: Vec<usize>,
    /// EFS of the chosen partition at allocation time.
    pub efs: f64,
    /// SWAPs inserted by routing.
    pub swap_count: usize,
    /// Measured counts, permuted back to logical qubit order.
    pub counts: Counts,
    /// PST against the ideal outcome (deterministic circuits only).
    pub pst: Option<f64>,
    /// Jensen-Shannon divergence against the noiseless distribution.
    pub jsd: f64,
}

/// Outcome of a parallel workload execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelOutcome {
    /// Per-program results in the caller's order.
    pub programs: Vec<ProgramResult>,
    /// Hardware throughput: used qubits / device qubits (Sec. II-A).
    pub throughput: f64,
    /// Cross-program one-hop CNOT overlaps encountered.
    pub conflict_count: usize,
    /// Merged-schedule makespan (ns).
    pub makespan: f64,
    /// Serial runtime (ns) that independent execution would need.
    pub serial_runtime: f64,
}

impl ParallelOutcome {
    /// Mean PST over the deterministic programs (`None` if there are
    /// none).
    pub fn mean_pst(&self) -> Option<f64> {
        let psts: Vec<f64> = self.programs.iter().filter_map(|p| p.pst).collect();
        if psts.is_empty() {
            None
        } else {
            Some(psts.iter().sum::<f64>() / psts.len() as f64)
        }
    }

    /// Mean JSD over all programs.
    pub fn mean_jsd(&self) -> f64 {
        self.programs.iter().map(|p| p.jsd).sum::<f64>() / self.programs.len().max(1) as f64
    }

    /// Runtime reduction factor of parallel over serial execution.
    pub fn runtime_reduction(&self) -> f64 {
        if self.makespan == 0.0 {
            1.0
        } else {
            self.serial_runtime / self.makespan
        }
    }
}

/// A planned workload without its schedule merge: the optimized
/// circuits, their partition allocations, and the routed mappings,
/// index-aligned ([`Pipeline::plan_unmerged`]).
pub type WorkloadPlan = (Vec<Circuit>, Vec<Allocation>, Vec<MappedProgram>);

/// A fully planned (not yet executed) workload.
///
/// ## Replay
///
/// Planning is a pure function of *(device calibration state, ordered
/// program structures, strategy, optimize flag)* — program **names**
/// never influence any stage. A caller holding a plan for one batch may
/// therefore replay it for a later batch whose members have the same
/// ordered shapes (width + exact gate sequence) on the same calibration
/// epoch of the same device: every field of the plan, including the
/// merged [`WorkloadContext`], is bit-identical to what a fresh
/// [`Pipeline::plan`] call would produce. Only the `name` carried by
/// each program (and thus by [`ProgramResult::name`]) is stale under
/// replay; replaying callers must re-bind result names to the current
/// batch members. Nothing on the plan can check that contract — after
/// optimization its programs are no longer the members' circuits — so
/// shape equality is the **replaying caller's** guarantee: the runtime's
/// plan cache replays an entry only under a key that holds the members'
/// interned shapes, and two circuits share an interned shape only after
/// a gate-by-gate comparison.
///
/// A plan is a plain value: executing it reads it and keeps nothing on
/// it. A caller that executes one plan many times may keep each
/// program's [`PreparedJob`] itself (the runtime's plan cache does,
/// beside the cached plan).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedWorkload {
    /// The (optionally optimized) circuits, in caller order.
    pub programs: Vec<Circuit>,
    /// One allocation per program, index-aligned with `programs`.
    pub allocations: Vec<Allocation>,
    /// Routed programs, index-aligned with `programs`.
    pub mapped: Vec<MappedProgram>,
    /// Merged-schedule noise context of the whole workload.
    pub context: WorkloadContext,
}

impl PlannedWorkload {
    /// Total physical qubits claimed by the workload.
    pub fn used_qubits(&self) -> usize {
        self.allocations.iter().map(|a| a.qubits.len()).sum()
    }

    /// Stage 4: runs program `index` on the `qucp-sim` trajectory
    /// simulator and scores it against its noiseless reference —
    /// [`prepare`](PlannedWorkload::prepare), then
    /// [`run_prepared`](PlannedWorkload::run_prepared), the result named
    /// after the program.
    ///
    /// Deterministic given `exec.seed`: the program's own seed derives
    /// from `(exec.seed, index)` only ([`derive_program_seed`]), so
    /// concurrent and serial batch execution agree bit for bit. The
    /// same holds one level down: when `exec.parallelism` shards the
    /// shot loop ([`qucp_sim::ShotParallelism`]), the result depends on
    /// the shard count only, never on how many worker threads execute
    /// the shards. `exec.kernel` ([`qucp_sim::TrajectoryKernel`])
    /// selects the per-shot sampler; each kernel pins its own stream,
    /// and both obey the same `(seed, shards)` purity contract.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sim`] if the simulator rejects the mapped job
    /// (which would indicate a mapping bug).
    pub fn run_program(
        &self,
        device: &Device,
        index: usize,
        exec: &ExecutionConfig,
    ) -> Result<ProgramResult, CoreError> {
        let prepared = self.prepare(device, index, exec)?;
        Ok(ProgramResult {
            name: self.programs[index].name().to_string(),
            ..self.run_prepared(&prepared, index, exec)
        })
    }

    /// The first half of [`run_program`](PlannedWorkload::run_program):
    /// program `index`'s simulator set-up (event stream, error
    /// probabilities, compiled gates, ideal distribution), the routed
    /// circuit's one evolution: its ideal distribution is also the
    /// score's noiseless reference.
    ///
    /// A pure function of the planned program, `device`'s calibration
    /// and `exec`'s three noise flags — never of `exec.seed`,
    /// `exec.shots`, `exec.parallelism` or `exec.kernel`. A caller may
    /// therefore keep the result and hand it to
    /// [`run_prepared`](PlannedWorkload::run_prepared) as often as the
    /// calibration and the flags stay the same: every run equals a
    /// [`run_program`](PlannedWorkload::run_program) call, bit for bit.
    /// Keeping it valid across calibration changes is the caller's
    /// business.
    ///
    /// **Timing comes from the plan.** The event stream is timed by the
    /// program's schedule in [`WorkloadContext::schedules`], which the
    /// merge computed: no gate duration is looked up and nothing is
    /// scheduled here ([`PreparedJob::prepare_scheduled`]). `device`
    /// supplies error rates, coherence times and readout errors. That
    /// is the schedule a fresh lookup would compute, because durations
    /// do not drift under a plan: a drift model (`GaussianWalk`) moves
    /// error rates and crosstalk only, and a recalibration bumps the
    /// device's epoch, which drops every plan made on the old snapshot.
    /// A caller that hands in a device whose durations differ from the
    /// planning device's gets the plan's timing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sim`] if the simulator rejects the mapped job
    /// (which would indicate a mapping bug).
    pub fn prepare(
        &self,
        device: &Device,
        index: usize,
        exec: &ExecutionConfig,
    ) -> Result<PreparedJob, CoreError> {
        let mp = &self.mapped[index];
        Ok(PreparedJob::prepare_scheduled(
            &mp.circuit,
            &mp.layout,
            device,
            &self.context.scalings[index],
            &self.context.tail_idle[index],
            &self.context.schedules[index],
            exec,
        )?)
    }

    /// The second half of [`run_program`](PlannedWorkload::run_program):
    /// program `index`'s shots from `prepared` — what
    /// [`prepare`](PlannedWorkload::prepare) returned for that program
    /// under `exec`'s noise flags — their counts and the score
    /// ([`MappedProgram::score`] against the prepared job's ideal
    /// distribution); no simulator set-up. The result's
    /// [`ProgramResult::name`] is left empty (no heap request) for the
    /// caller to set: `run_program` names it after the program, the
    /// runtime after its job.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` was built under other noise flags than
    /// `exec`'s, or for a routed circuit of another width or gate count
    /// than program `index`'s.
    pub fn run_prepared(
        &self,
        prepared: &PreparedJob,
        index: usize,
        exec: &ExecutionConfig,
    ) -> ProgramResult {
        let mp = &self.mapped[index];
        let exec = ExecutionConfig {
            seed: derive_program_seed(exec.seed, index),
            ..*exec
        };
        // The run's histogram is relabelled in its own vector.
        let counts = mp.into_logical_counts(prepared.run(&mp.circuit, &exec));
        let (pst, jsd) = mp.score(prepared.ideal_probabilities(), &counts);
        ProgramResult {
            name: String::new(),
            partition: self.allocations[index].qubits.clone(),
            efs: self.allocations[index].efs.score,
            swap_count: mp.swap_count,
            counts,
            pst,
            jsd,
        }
    }
}

/// Per-program seed derivation of [`PlannedWorkload::run_program`]: a
/// golden-ratio stride keeps the trajectory streams of simultaneous
/// programs independent of each other and of execution order.
pub fn derive_program_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1))
}

/// Stage 2: places and routes `programs[allocations[i].program_index]`
/// onto `allocations[i].qubits`, returning mapped programs
/// index-aligned with `allocations`. With `crosstalk_aware` (CNA's
/// gate-level awareness) a SWAP link pays for its strongest γ partner
/// inside *other* partitions.
fn route_all(
    scratch: &mut PlanScratch,
    device: &Device,
    programs: &[Circuit],
    allocations: &[Allocation],
    crosstalk_aware: bool,
) -> Vec<MappedProgram> {
    let buffers = &mut scratch.routing;
    let topo = device.topology();
    allocations
        .iter()
        .enumerate()
        .map(|(i, alloc)| {
            let circuit = &programs[alloc.program_index];
            if !crosstalk_aware {
                return map_in(buffers, device, &alloc.qubits, circuit, |_| 0.0);
            }
            // The links inside every other partition, partition by
            // partition, each in canonical order.
            let mut other_links = std::mem::take(&mut buffers.other_links);
            other_links.clear();
            for (_, other) in allocations.iter().enumerate().filter(|&(j, _)| j != i) {
                let inside =
                    |l: &&Link| other.qubits.contains(&l.low()) && other.qubits.contains(&l.high());
                other_links.extend(topo.links().iter().filter(inside));
            }
            let xtalk = device.crosstalk();
            let cal = device.calibration();
            let mapped = map_in(buffers, device, &alloc.qubits, circuit, |l| {
                let mut worst = 1.0f64;
                for &ol in &other_links {
                    if topo.is_one_hop(l, ol) {
                        worst = worst.max(xtalk.gamma(l, ol));
                    }
                }
                (worst - 1.0) * cal.cx_error(l)
            });
            buffers.other_links = other_links;
            mapped
        })
        .collect()
}

/// The four stages under one [`Strategy`]'s planning settings, borrowed
/// from it: building a pipeline copies a reference and two flags.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline<'s> {
    /// Stage 1's candidate scoring.
    partition: &'s PartitionPolicy,
    /// Stage 2: penalize SWAP links with strong crosstalk partners
    /// inside other partitions (CNA's gate-level awareness).
    crosstalk_aware_routing: bool,
    /// Stage 3: serialize overlapping one-hop CNOTs instead of letting
    /// them suffer crosstalk (CNA's scheduling behaviour).
    serialize_conflicts: bool,
}

impl<'s> Pipeline<'s> {
    /// The pipeline of a paper [`Strategy`] (QuCP, QuMC, CNA, MultiQC,
    /// QuCloud).
    pub fn from_strategy(strategy: &'s Strategy) -> Self {
        Pipeline {
            partition: &strategy.partition,
            crosstalk_aware_routing: strategy.crosstalk_aware_routing,
            serialize_conflicts: strategy.serialize_conflicts,
        }
    }

    /// Runs stage 1 alone: one [`Allocation`] per program, nothing
    /// routed. Everything a fidelity gate reads — each member's EFS
    /// score on the chip it would share — is known here, so a caller
    /// that may still drop members decides on allocations and pays for
    /// [`complete`](Pipeline::complete) once, for the set that stays.
    /// The first placement and every solo probe read the device's
    /// region atlas (see [`crate::partition`]). Stage 1's working
    /// buffers are `scratch`'s ([`crate::scratch`]), and it reads the
    /// `count` programs where the caller keeps them, through `program`
    /// by index: nothing is copied.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures
    /// ([`CoreError::PartitionUnavailable`],
    /// [`CoreError::ProgramTooWide`]).
    pub fn allocate<'c>(
        &self,
        scratch: &mut PlanScratch,
        device: &Device,
        count: usize,
        program: impl Fn(usize) -> &'c Circuit,
    ) -> Result<Vec<Allocation>, CoreError> {
        allocate_partitions_in(scratch, device, count, program, self.partition)
    }

    /// Runs stages 2–3 on an allocated workload: routes every program
    /// inside its region and merges the schedules, on `scratch`'s
    /// working buffers. `plan(device, programs, false)` is
    /// `complete(scratch, device, programs, allocate(scratch, device,
    /// programs.len(), |i| &programs[i])?)`.
    pub fn complete(
        &self,
        scratch: &mut PlanScratch,
        device: &Device,
        programs: Vec<Circuit>,
        allocations: Vec<Allocation>,
    ) -> PlannedWorkload {
        let mapped = route_all(
            scratch,
            device,
            &programs,
            &allocations,
            self.crosstalk_aware_routing,
        );
        let context = build_context_in(scratch, device, &mapped, self.serialize_conflicts);
        PlannedWorkload {
            programs,
            allocations,
            mapped,
            context,
        }
    }

    /// Runs stages 1–2 only: optimize, partition and route, skipping
    /// the schedule merge. Plan-only callers (σ tuning, the threshold
    /// explorer) use this to avoid paying the cross-program overlap
    /// scan for a context they would discard.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures
    /// ([`CoreError::PartitionUnavailable`],
    /// [`CoreError::ProgramTooWide`]).
    pub fn plan_unmerged(
        &self,
        device: &Device,
        programs: &[Circuit],
        optimize: bool,
    ) -> Result<WorkloadPlan, CoreError> {
        let scratch = &mut PlanScratch::default();
        let optimized = optimized(programs, optimize);
        let allocations = self.allocate(scratch, device, optimized.len(), |i| &optimized[i])?;
        let mapped = route_all(
            scratch,
            device,
            &optimized,
            &allocations,
            self.crosstalk_aware_routing,
        );
        Ok((optimized, allocations, mapped))
    }

    /// Runs stages 1–3: optimize, partition, route and merge, without
    /// executing anything.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures
    /// ([`CoreError::PartitionUnavailable`],
    /// [`CoreError::ProgramTooWide`]).
    pub fn plan(
        &self,
        device: &Device,
        programs: &[Circuit],
        optimize: bool,
    ) -> Result<PlannedWorkload, CoreError> {
        let scratch = &mut PlanScratch::default();
        let optimized = optimized(programs, optimize);
        let allocations = self.allocate(scratch, device, optimized.len(), |i| &optimized[i])?;
        Ok(self.complete(scratch, device, optimized, allocations))
    }

    /// Runs stage 4 on every program of an already planned workload,
    /// serially in program order.
    ///
    /// # Errors
    ///
    /// Propagates [`PlannedWorkload::run_program`] failures.
    pub fn execute_plan(
        &self,
        device: &Device,
        plan: &PlannedWorkload,
        cfg: &ParallelConfig,
    ) -> Result<ParallelOutcome, CoreError> {
        let programs = (0..plan.programs.len())
            .map(|i| plan.run_program(device, i, &cfg.execution))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParallelOutcome {
            programs,
            throughput: device.throughput(plan.used_qubits()),
            conflict_count: plan.context.conflict_count,
            makespan: plan.context.makespan,
            serial_runtime: plan.context.serial_runtime,
        })
    }

    /// Plans and executes `programs` end to end.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if partitioning fails or a mapped job is
    /// rejected by the simulator (which would indicate a mapping bug).
    pub fn execute(
        &self,
        device: &Device,
        programs: &[Circuit],
        cfg: &ParallelConfig,
    ) -> Result<ParallelOutcome, CoreError> {
        let plan = self.plan(device, programs, cfg.optimize)?;
        self.execute_plan(device, &plan, cfg)
    }
}

/// The circuits a plan is made for: copies of `programs`, peephole
/// optimized on request.
fn optimized(programs: &[Circuit], optimize: bool) -> Vec<Circuit> {
    let mut optimized = programs.to_vec();
    if optimize {
        for c in &mut optimized {
            c.cancel_adjacent_inverses();
        }
    }
    optimized
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy;
    use qucp_circuit::library;
    use qucp_device::ibm;
    use qucp_sim::{metrics, Statevector};

    fn quick_cfg() -> ParallelConfig {
        ParallelConfig {
            execution: ExecutionConfig::default().with_shots(256).with_seed(7),
            optimize: true,
        }
    }

    /// Stage 4 over every program of `plan`.
    fn execute(device: &Device, plan: &PlannedWorkload, cfg: &ParallelConfig) -> ParallelOutcome {
        let qucp = strategy::qucp(4.0);
        Pipeline::from_strategy(&qucp)
            .execute_plan(device, plan, cfg)
            .unwrap()
    }

    #[test]
    fn pipeline_stages_compose() {
        let dev = ibm::toronto();
        let progs = vec![
            library::by_name("fredkin").unwrap().circuit(),
            library::by_name("bell").unwrap().circuit(),
        ];
        let qucp = strategy::qucp(4.0);
        let pipe = Pipeline::from_strategy(&qucp);
        let plan = pipe.plan(&dev, &progs, true).unwrap();
        assert_eq!(plan.programs.len(), 2);
        assert_eq!(plan.allocations.len(), 2);
        assert_eq!(plan.mapped.len(), 2);
        let widths: usize = plan.programs.iter().map(Circuit::width).sum();
        assert_eq!(plan.used_qubits(), widths);
        let out = execute(&dev, &plan, &quick_cfg());
        assert_eq!(out.programs.len(), 2);
        assert_eq!(out.programs[0].counts.shots(), 256);
    }

    #[test]
    fn derived_seeds_are_order_independent() {
        assert_eq!(derive_program_seed(42, 0), derive_program_seed(42, 0));
        assert_ne!(derive_program_seed(42, 0), derive_program_seed(42, 1));
        assert_ne!(derive_program_seed(42, 1), derive_program_seed(43, 1));
    }

    #[test]
    fn sharded_streams_of_coscheduled_programs_stay_disjoint() {
        // Program seeds are golden-ratio strides of the batch seed; the
        // shard derivation mixes the base seed before applying its own
        // stride, so program i's shard s must never collide with
        // program i+1's shard s-1 (or any other (i', s') with
        // i + s == i' + s'). A linear shard stride over the raw seed
        // would make every such pair share a bit-identical RNG stream.
        use qucp_sim::derive_shard_seed;
        let base = 0x5EED;
        let mut seen = std::collections::HashSet::new();
        for program in 0..4 {
            for shard in 0..8 {
                assert!(
                    seen.insert(derive_shard_seed(derive_program_seed(base, program), shard)),
                    "shard stream collision at program {program}, shard {shard}"
                );
            }
        }
    }

    #[test]
    fn replayed_plan_equals_a_fresh_plan_under_any_calibration_and_flags() {
        use qucp_sim::{ShotParallelism, TrajectoryKernel};
        // A two-program plan on Toronto and a recalibrated twin of the
        // chip (every CNOT and readout error moved).
        let dev = ibm::toronto();
        let progs = vec![
            library::by_name("fredkin").unwrap().circuit(),
            library::by_name("bell").unwrap().circuit(),
        ];
        let qucp = strategy::qucp(4.0);
        let plan = Pipeline::from_strategy(&qucp)
            .plan(&dev, &progs, true)
            .unwrap();
        let mut cal = dev.calibration().clone();
        for (_, e) in cal.cx_errors_mut() {
            *e *= 1.7;
        }
        for e in cal.readout_errors_mut() {
            *e *= 0.5;
        }
        let drifted = dev.with_state(cal, dev.crosstalk().clone());
        let noisy = quick_cfg().execution;
        let mut quiet = noisy;
        quiet.idle_noise = false;
        quiet.readout_noise = false;
        // One `prepare` per program, calibration and flag set; every run
        // from it — both kernels, three shot modes, two seeds — equals a
        // `run_program` call, which prepares afresh.
        for device in [&dev, &drifted] {
            for flags in [noisy, quiet] {
                for index in 0..plan.programs.len() {
                    let prepared = plan.prepare(device, index, &flags).unwrap();
                    for kernel in [TrajectoryKernel::Replay, TrajectoryKernel::SurvivalSkip] {
                        for parallelism in [
                            ShotParallelism::Serial,
                            ShotParallelism::Sharded {
                                shards: 3,
                                threads: 2,
                            },
                            ShotParallelism::Auto,
                        ] {
                            for seed in [7, 8] {
                                let exec = flags
                                    .with_kernel(kernel)
                                    .with_parallelism(parallelism)
                                    .with_seed(seed);
                                // Named after the program, as `run_program` names it.
                                let named = ProgramResult {
                                    name: plan.programs[index].name().to_string(),
                                    ..plan.run_prepared(&prepared, index, &exec)
                                };
                                assert_eq!(
                                    named,
                                    plan.run_program(device, index, &exec).unwrap(),
                                    "{exec:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // The calibrations and the flag sets really do differ in what
        // they produce.
        let run = |device: &Device, exec: &ExecutionConfig| plan.run_program(device, 0, exec);
        assert_ne!(run(&dev, &noisy).unwrap(), run(&drifted, &noisy).unwrap());
        assert_ne!(run(&dev, &noisy).unwrap(), run(&dev, &quiet).unwrap());
    }

    #[test]
    fn a_plan_fed_build_equals_the_standalone_build_of_the_same_mapped_job() {
        // Every program of two- and three-program plans under each paper
        // strategy (CNA's serialization hands over tail idles), built
        // from the merge's schedule and afresh by `PreparedJob::prepare`
        // under every noise-flag set, on the planning calibration and on
        // a drifted one: the same job, every event float included.
        let dev = ibm::toronto();
        let mut cal = dev.calibration().clone();
        for (_, e) in cal.cx_errors_mut() {
            *e *= 1.3;
        }
        let drifted = dev.with_state(cal, dev.crosstalk().clone());
        let names = [["fredkin", "bell", "adder"], ["4mod", "alu", "bell"]];
        let strategies = [
            strategy::qucp(4.0),
            strategy::qumc_with_ground_truth(&dev),
            strategy::cna(),
            strategy::cna_serialized(),
            strategy::multiqc(),
            strategy::qucloud(),
        ];
        let mut tails = 0;
        for strategy in strategies {
            for names in names {
                for n in [2, 3] {
                    let progs: Vec<Circuit> = names[..n]
                        .iter()
                        .map(|name| library::by_name(name).unwrap().circuit())
                        .collect();
                    let plan = Pipeline::from_strategy(&strategy)
                        .plan(&dev, &progs, true)
                        .unwrap();
                    for flags in 0..8 {
                        let exec = ExecutionConfig {
                            gate_noise: flags & 1 != 0,
                            readout_noise: flags & 2 != 0,
                            idle_noise: flags & 4 != 0,
                            ..quick_cfg().execution
                        };
                        for device in [&dev, &drifted] {
                            for (i, mp) in plan.mapped.iter().enumerate() {
                                let fed = plan.prepare(device, i, &exec).unwrap();
                                let standalone = PreparedJob::prepare(
                                    &mp.circuit,
                                    &mp.layout,
                                    device,
                                    &plan.context.scalings[i],
                                    &plan.context.tail_idle[i],
                                    &exec,
                                )
                                .unwrap();
                                assert_eq!(format!("{fed:?}"), format!("{standalone:?}"));
                            }
                        }
                    }
                    tails += plan
                        .context
                        .tail_idle
                        .iter()
                        .flatten()
                        .filter(|&&t| t > 0.0)
                        .count();
                }
            }
        }
        assert!(tails > 0, "serialization must hand over a tail idle");
    }

    /// The score `run_prepared` computed before it read the prepared
    /// job's distribution: the logical circuit evolved a second time,
    /// PST at its deterministic outcome and the streaming JSD over its
    /// probability slice.
    fn logical_score(logical: &Circuit, counts: &Counts) -> (Option<f64>, f64) {
        let state = Statevector::from_circuit(logical);
        let ideal = state.probabilities();
        let pst = (state.deterministic_outcome()).map(|target| counts.probability(target));
        (pst, metrics::jsd_counts(counts, |outcome| ideal[outcome]))
    }

    /// Holds the prepared job of `mp` to the second evolution it
    /// replaces: its ideal distribution read through
    /// [`MappedProgram::local_outcome`] is `logical`'s, bit for bit.
    fn assert_one_evolution(logical: &Circuit, mp: &MappedProgram, prepared: &PreparedJob) {
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let relabelled: Vec<f64> = (0..1usize << logical.width())
            .map(|o| prepared.ideal_probabilities()[mp.local_outcome(o)])
            .collect();
        let expected = Statevector::from_circuit(logical).probabilities();
        assert_eq!(bits(&relabelled), bits(&expected), "{}", logical.name());
    }

    /// Every paper strategy × Table II program × Toronto, Manhattan and
    /// Melbourne: the prepared job's distribution is the logical
    /// circuit's, and `run_prepared` scores as the second evolution
    /// did.
    #[test]
    fn a_planned_program_is_scored_against_its_one_evolution() {
        let exec = quick_cfg().execution;
        let mut scored = 0;
        for dev in [ibm::toronto(), ibm::manhattan(), ibm::melbourne()] {
            let strategies = [
                strategy::qucp(4.0),
                strategy::qumc_with_ground_truth(&dev),
                strategy::cna(),
                strategy::cna_serialized(),
                strategy::multiqc(),
                strategy::qucloud(),
            ];
            for strategy in &strategies {
                for bench in library::all() {
                    let plan = Pipeline::from_strategy(strategy)
                        .plan(&dev, &[bench.circuit()], true)
                        .unwrap();
                    let prepared = plan.prepare(&dev, 0, &exec).unwrap();
                    assert_one_evolution(&plan.programs[0], &plan.mapped[0], &prepared);
                    let run = plan.run_prepared(&prepared, 0, &exec);
                    let (pst, jsd) = logical_score(&plan.programs[0], &run.counts);
                    assert_eq!(run.pst.map(f64::to_bits), pst.map(f64::to_bits));
                    assert_eq!(run.jsd.to_bits(), jsd.to_bits(), "{}", bench.name);
                    scored += usize::from(run.pst.is_some());
                }
            }
        }
        assert!(scored > 0, "a deterministic benchmark is scored by PST");
    }

    /// Seeded random 2–8-qubit circuits routed onto random connected
    /// Toronto partitions, SWAPs and all: the prepared job's
    /// distribution is the logical circuit's, and the one scorer scores
    /// as the second evolution did.
    #[test]
    fn a_routed_random_circuit_is_scored_against_its_one_evolution() {
        use crate::mapping::map_program;
        use qucp_sim::NoiseScaling;
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let dev = ibm::toronto();
        let topo = dev.topology();
        let mut rng = StdRng::seed_from_u64(0x0e_e01e);
        let exec = ExecutionConfig::default().with_shots(64);
        let (mut swaps, mut deterministic) = (0, 0);
        for case in 0..400 {
            let width = rng.gen_range(2..=8usize);
            // A connected partition, grown from a random qubit.
            let mut partition = vec![rng.gen_range(0..topo.num_qubits())];
            while partition.len() < width {
                let frontier: Vec<usize> = (partition.iter())
                    .flat_map(|&q| topo.neighbors(q).iter().copied())
                    .filter(|q| !partition.contains(q))
                    .collect();
                partition.push(*frontier.choose(&mut rng).unwrap());
            }
            partition.sort_unstable();
            let mut circuit = Circuit::new(width);
            // Every fourth circuit is classical (a basis state out).
            let classical = case % 4 == 0;
            for _ in 0..rng.gen_range(1..=6 * width) {
                let a = rng.gen_range(0..width);
                let b = (a + rng.gen_range(1..width)) % width;
                let angle = rng.gen_range(-3.2..3.2);
                match rng.gen_range(if classical { 0..3 } else { 0..10 }) {
                    0 => circuit.cx(a, b),
                    1 => circuit.swap(a, b),
                    2 => circuit.x(a),
                    3 => circuit.rx(a, angle),
                    4 => circuit.ry(a, angle),
                    5 => circuit.rz(a, angle),
                    6 => circuit.u(a, angle, 0.5 * angle, -angle),
                    7 => circuit.sx(a),
                    8 => circuit.t(a).cz(a, b),
                    _ => circuit.cp(a, b, angle),
                };
            }
            let mp = map_program(&dev, &partition, &circuit);
            swaps += mp.swap_count;
            let scaling = NoiseScaling::uniform(mp.circuit.gate_count());
            let exec = exec.with_seed(case);
            let prepared =
                PreparedJob::prepare(&mp.circuit, &mp.layout, &dev, &scaling, &[], &exec).unwrap();
            assert_one_evolution(&circuit, &mp, &prepared);
            let counts = mp.into_logical_counts(prepared.run(&mp.circuit, &exec));
            let (pst, jsd) = mp.score(prepared.ideal_probabilities(), &counts);
            let expected = logical_score(&circuit, &counts);
            assert_eq!(
                pst.map(f64::to_bits),
                expected.0.map(f64::to_bits),
                "case {case}"
            );
            assert_eq!(jsd.to_bits(), expected.1.to_bits(), "case {case}");
            deterministic += usize::from(pst.is_some());
        }
        // 2 146 SWAPs routed, 127 circuits scored by PST.
        assert!(
            swaps > 2000 && deterministic > 100,
            "{swaps} swaps, {deterministic} PSTs"
        );
    }

    #[test]
    fn pipeline_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pipeline>();
        assert_send_sync::<PlannedWorkload>();
        assert_send_sync::<PreparedJob>();
    }
}
