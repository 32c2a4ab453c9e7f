//! # qucp-sim
//!
//! Noisy quantum-circuit simulation for the QuCP reproduction.
//!
//! The paper executes jobs on IBM hardware; this crate substitutes a
//! Monte-Carlo trajectory statevector simulator whose noise structure is
//! driven by the `qucp-device` calibration model: stochastic Pauli errors
//! after gates, thermal relaxation/dephasing in ALAP-schedule idle gaps,
//! readout bit flips, and crosstalk amplification of CNOT errors through
//! per-gate [`NoiseScaling`] factors (computed by the parallel executor
//! in `qucp-core` from the merged schedule).
//!
//! Because simultaneously executed programs occupy disjoint partitions
//! and never entangle, the joint state factorizes: each program is
//! simulated on its own small register, which keeps 65-qubit parallel
//! workloads tractable.
//!
//! ## Thread safety
//!
//! Every execution entry point ([`run_noisy`],
//! [`clean_shot_probability`], …) is a free function over `Send + Sync`
//! inputs ([`ExecutionConfig`] is `Copy`; circuits, devices and
//! [`NoiseScaling`] are plain data) with no interior mutability or
//! global state — each call owns its RNG, seeded from the config. A
//! [`PreparedJob`] — the seed- and shot-independent half of
//! [`run_noisy`], kept by callers that run one mapped job many times —
//! is `Send + Sync` too and shared by reference. The
//! `qucp-runtime` batch scheduler relies on this to execute the
//! programs of a batch concurrently; a compile-time assertion in this
//! crate's tests pins the guarantee.
//!
//! ## Fan-out
//!
//! Every parallel loop of the workspace is one call to
//! [`run_indexed`]: the caller claims tasks off an atomic index
//! itself, helper threads join only when the process's core budget
//! (read once) exceeds one and the fan-out's estimated total work
//! gives each worker a floor of it (8 192 units of 10 ns), results
//! return in index order and a task panic resumes on the caller.
//!
//! ## Draw, then evaluate
//!
//! No random draw of the noise model depends on the quantum state, so
//! a run first *draws* every shot — typed error pattern, outcome
//! uniform, readout flips — in one pass per RNG stream, answering clean
//! shots on the spot, and then *evaluates* the error shots together:
//! sorted by pattern they form a prefix tree, and a depth-first walk
//! evolves each distinct error prefix once instead of once per shot,
//! by the same operations in the same order as a per-shot replay —
//! every count is bit for bit what earlier releases produced.
//!
//! ### Compiled once
//!
//! Neither pass derives anything a job already knows:
//! [`PreparedJob::prepare`] is a compiler, and a shot costs its random
//! words, an error branch its arithmetic.
//!
//! - **Event stream.** A mapped job is timed by its ALAP schedule, and
//!   the stream is built from it in one pass. A planned program comes
//!   with the schedule its planner's merge already computed
//!   ([`PreparedJob::prepare_scheduled`], which `qucp-core` calls): no
//!   gate duration is looked up and nothing is scheduled again; the
//!   stand-alone entries ([`run_noisy`], [`PreparedJob::prepare`],
//!   [`clean_shot_probability`], [`exact_probabilities`]) compute it and
//!   call the same builder. One walk over the schedule's entries in
//!   source order yields the gate slots and each qubit's idle windows —
//!   the gap to the qubit's previous span, then the trailing one — with
//!   no per-qubit list, because for durations of at least 0 a qubit's
//!   spans arrive in order (a qubit whose spans do not is sorted in the
//!   same builder). The slots are sorted once by a packed integer key,
//!   unique per slot: the time's `total_cmp`-ordered bits, the kind
//!   (idle windows first), then the slot's rank in the order the
//!   windows and gates were once pushed. A unique key needs no stable
//!   sort, and the order is the stable float sort's, so every event and
//!   every count is the old builder's bit for bit (the old builder is a
//!   test oracle).
//! - **Draw thresholds.** Per event, in stream order, `prepare` stores
//!   what the draw pass compares a random word with: for a noisy gate
//!   the 64-bit fixed-point threshold `rand`'s Bernoulli would compute
//!   from its probability on every draw (a gate that cannot err draws
//!   nothing); for an idle window the three cumulative Pauli
//!   probabilities as integers `⌈x · 2^53⌉`, against the top 53 bits of
//!   one word — `rand`'s uniform `f64` is exactly those bits times
//!   `2^-53`, so the compare is the `f64` compare; per measured qubit
//!   the readout threshold (a certain flip consumes no word, an
//!   impossible one consumes one). Same words, same order, same
//!   patterns; the thresholds sit where an event's sort keys sat, beside
//!   a gate's error probability, so an event is no bigger.
//! - **One strip for the `Replay` draw.** The same thresholds once more
//!   as one `u64` array in stream order: per event that draws a word,
//!   the largest word with which it may err (a gate's threshold minus
//!   one; an idle window's largest threshold times `2^11`, minus one,
//!   or every word for a certain window), then the readout thresholds.
//!   The stream is read ahead in bulk (`StdRng::fill_u32`: the 32-bit
//!   outputs of as many `next_u32` calls, two of which are a
//!   `next_u64` word), and a shot's words are compared where they lie.
//!   Its event words are **screened in lanes**, 64 at a time: eight
//!   words a vector against their bounds (AVX-512F `cmple` into a mask,
//!   `state/lanes.rs`, detected once a stream; the scalar fold is the
//!   other body and its oracle), bit `k` set iff word `k` is at or
//!   below its bound. Only the events at set bits — the candidates —
//!   run the exact per-event compare above, each on its word, and a
//!   chunk with an empty mask costs no per-event test. (Where some
//!   gate draws no word, every event is tested on the words in order.)
//!   The **readout tail is read in bulk** too: the outcome uniform's
//!   word and one word per measured qubit are compared at once with
//!   the readout thresholds (`cmplt`: a bit flips iff its word is below
//!   its threshold); only a job with a certain flip, which draws no
//!   word, reads them qubit by qubit. The strip is a superset filter
//!   over the same words, so every pattern, type draw, outcome uniform
//!   and readout mask is the per-event draw's. It lives in the
//!   allocation that held the readout thresholds; the survival products
//!   only `SurvivalSkip` reads are built by its first run.
//! - **The ideal distribution.** A clean shot's outcome needs the
//!   ideal state only through its distribution, so `prepare` keeps
//!   that instead, in the state's own block (16 B an outcome): the
//!   running probability sums, which a **clean `Replay` shot bisects**
//!   (the first sum above its uniform, the outcome the CDF walk finds),
//!   then the probabilities the `SurvivalSkip` alias table is built
//!   from, and which `qucp-core` scores a run against
//!   ([`PreparedJob::ideal_probabilities`]).
//! - **Ops.** Each gate's matrix or phase is evaluated once, and the
//!   kernel is picked from the *stored* entries: which are exactly
//!   `0.0`, exactly `1.0`, purely real or imaginary. A structured
//!   kernel (half swap, `diag(1, d)`, `diag(d0, d1)`, all-real, real
//!   diagonal with imaginary off-diagonal) is the general 2×2 complex
//!   product with the terms dropped that multiply a stored zero. The
//!   complex product is four plain multiplies, never fused, and `x +
//!   0·y` is `x`: each amplitude equals the general kernel's up to the
//!   sign of a zero, so every probability, every running sum, every
//!   sampled outcome — every count — is the same bit for bit. The
//!   general kernel still runs for matrices without exact structure
//!   (`U`, `Sx`, `Sxdg`) and is the per-shot test oracle's only kernel.
//!   An error's Pauli is struck the same way: a half swap, the cross
//!   kernel, a sign flip.
//! - **Lanes.** Every op has a second body at AVX-512F width
//!   (`state/lanes.rs`, four amplitudes per vector). `kernel::run`, the
//!   only dispatch, takes it on a register of at least eight amplitudes
//!   when the CPU has AVX-512F (std's cached run-time detection);
//!   on other CPUs and architectures, and for one- and two-qubit
//!   registers, the scalar body runs, and it is the lane body's oracle.
//!   Every output `f64` is the scalar kernel's expression: the same
//!   products, in the same order, into the same single add or subtract
//!   (`x − b·y` is written `x + (−b)·y`: negation does not round). No
//!   fused multiply-add, no reduction, no reassociation; permutes and
//!   blends only move data. Each amplitude is therefore the scalar
//!   body's bit for bit, signs of zeros included, and no count depends
//!   on the CPU.
//! - **One CDF per node.** When several shots end at a node of the
//!   tree, the running sums their CDF walks would each recompute are
//!   written out once and bisected per shot.
//! - **A carried sort key.** The draw writes each error shot's first
//!   two error keys into it as one integer, so the evaluator's sort
//!   compares integers and reads the pattern arena only where two
//!   patterns longer than two errors tie on it.
//!
//! ## Shot-sharded parallelism
//!
//! A single job's Monte-Carlo trajectories are embarrassingly parallel,
//! and [`ExecutionConfig::parallelism`] exploits that:
//! [`ShotParallelism::Sharded`] splits the shot budget into a fixed
//! number of *shards*, each an independent sequential RNG stream; the
//! draws fan out over worker threads, and so does the one evaluation
//! over all shards' error shots. [`ShotParallelism::Auto`] picks
//! the shard count from the shot budget itself
//! ([`auto_shard_count`]: one shard per 512 shots, capped at 32) so
//! callers need not hand-tune the split — the resolution depends only
//! on the job, never the machine, keeping counts deterministic.
//!
//! **Shard-RNG derivation.** Shard `s` of a job seeded with `seed`
//! seeds its `StdRng` with [`derive_shard_seed`]`(seed, s)` — the
//! `s + 1`-th output of a SplitMix64 generator started at the *mixed*
//! base seed `splitmix64(seed)`. Mixing the base seed first keeps the
//! shard streams of co-scheduled programs disjoint even though their
//! per-program seeds are golden-ratio strides of one batch seed; the
//! SplitMix64 finalizer then decorrelates the per-shard ChaCha12
//! streams, all without touching the vendored `rand` internals that
//! the tuned calibration thresholds depend on.
//!
//! ## Trajectory kernels
//!
//! [`ExecutionConfig::kernel`] selects how a shot's randomness is drawn
//! and mapped to an outcome; evaluation is shared. Both kernels sample
//! the identical noise model — only the RNG stream that realizes it
//! differs:
//!
//! - [`TrajectoryKernel::Replay`] (default): one Bernoulli draw per
//!   scheduled event; every outcome is picked by the linear CDF walk
//!   over the shot's final state. Bit-for-bit the historical stream.
//! - [`TrajectoryKernel::SurvivalSkip`]: one uniform draw + binary
//!   search over the plan's prefix survival products jumps straight to
//!   the next error event, and clean and single-error shots sample
//!   Walker/Vose alias tables in O(1) — RNG work per shot
//!   proportional to the number of *errors*, not the number of events.
//!
//! ## Determinism contract (kernel × parallelism)
//!
//! Counts are always a pure function of `(kernel, seed, shards)` and
//! the job; thread counts and scheduling interleavings can change only
//! wall-clock time, never a single count.
//!
//! | | [`Replay`](TrajectoryKernel::Replay) | [`SurvivalSkip`](TrajectoryKernel::SurvivalSkip) |
//! |---|---|---|
//! | [`Serial`](ShotParallelism::Serial) | the historical pre-sharding stream, pinned bit-for-bit across releases | one pinned stream per `(job, seed)`, fewer draws per shot |
//! | [`Sharded`](ShotParallelism::Sharded) | pure in `(seed, shards)` via [`derive_shard_seed`], joined in shard order | same shard seeds, same join — pure in `(seed, shards)` |
//! | [`Auto`](ShotParallelism::Auto) | equals `Sharded` at [`auto_shard_count`]`(shots)` exactly | equals `Sharded` at [`auto_shard_count`]`(shots)` exactly |
//!
//! Switching any of kernel, shard count, or seed selects a different
//! (equally valid) sample of the same distribution; switching threads
//! never does.
//!
//! ```
//! use qucp_circuit::Circuit;
//! use qucp_device::ibm;
//! use qucp_sim::{run_noisy, ExecutionConfig, NoiseScaling};
//!
//! # fn main() -> Result<(), qucp_sim::SimError> {
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let dev = ibm::toronto();
//! let cfg = ExecutionConfig::default().with_shots(1024);
//! let counts = run_noisy(&bell, &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg)?;
//! assert_eq!(counts.shots(), 1024);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alias;
mod counts;
pub mod density;
mod executor;
mod fanout;
pub mod math;
pub mod metrics;
mod state;
mod unitaries;

pub use counts::Counts;
pub use density::{apply_readout_confusion, exact_probabilities};
pub use executor::{
    auto_shard_count, clean_shot_probability, derive_shard_seed, gate_durations,
    gate_durations_into, ideal_outcome, noiseless_probabilities, run_noisy, ExecutionConfig,
    NoiseScaling, PreparedJob, ShotParallelism, SimError, TrajectoryKernel,
};
pub use fanout::run_indexed;
pub use state::Statevector;
pub use unitaries::single_qubit_matrix;
