//! The base configuration of a [`Service`](crate::Service).

use qucp_sim::{ShotParallelism, TrajectoryKernel};

/// Base runtime configuration of a [`Service`](crate::Service) (the
/// builder's defaults; see
/// [`ServiceBuilder::config`](crate::ServiceBuilder::config)).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Hard cap on jobs per batch (1 = dedicated mode).
    pub max_parallel: usize,
    /// Default EFS fidelity-threshold gate (Fig. 4). `None` disables
    /// the gate for jobs without a per-job override.
    pub fidelity_threshold: Option<f64>,
    /// Base RNG seed; batch `b`, program `i` derive their trajectory
    /// seeds from `(seed, b, i)` only.
    pub seed: u64,
    /// Run the cancellation peephole pass before mapping.
    pub optimize: bool,
    /// Intra-program shot parallelism: how each program's trajectory
    /// loop spreads its shots over worker threads, layered *under* the
    /// per-batch fan-out over programs. Sharded counts are
    /// deterministic in the shard count, never the thread count; the
    /// serial default keeps every report bit-for-bit identical to the
    /// pre-sharding runtime.
    pub shot_parallelism: ShotParallelism,
    /// Default per-shot trajectory algorithm (see
    /// [`TrajectoryKernel`]). The [`Replay`] default keeps every
    /// report bit-for-bit identical to the pre-kernel runtime;
    /// [`SurvivalSkip`] trades that historical stream for much cheaper
    /// shots while sampling the identical distribution.
    ///
    /// [`Replay`]: TrajectoryKernel::Replay
    /// [`SurvivalSkip`]: TrajectoryKernel::SurvivalSkip
    pub trajectory_kernel: TrajectoryKernel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_parallel: 4,
            fidelity_threshold: None,
            seed: 0x5EED,
            optimize: true,
            shot_parallelism: ShotParallelism::Serial,
            trajectory_kernel: TrajectoryKernel::Replay,
        }
    }
}
