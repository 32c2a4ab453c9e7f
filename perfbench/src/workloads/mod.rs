//! The four workloads, and the dispatch from a workload's name to its
//! type.

mod daemon_loop;
mod plan_churn;
mod sched_flood;
mod sim_campaigns;

use crate::harness::{self, RunConfig, RunResult};
use crate::host::Canary;
use crate::workload::{Metric, Workload};

use daemon_loop::DaemonLoop;
use plan_churn::PlanChurn;
use sched_flood::SchedFlood;
use sim_campaigns::SimCampaigns;

/// The workloads' names, in the order `--smoke` and the fill-in passes
/// of a traced run go through them.
pub const NAMES: [&str; 4] = [
    SchedFlood::NAME,
    PlanChurn::NAME,
    SimCampaigns::NAME,
    DaemonLoop::NAME,
];

/// Calls a generic function of the harness with the workload type
/// called `$name`; `None` if there is none.
macro_rules! with_workload {
    ($name:expr, $function:ident $arguments:tt) => {
        match $name {
            SchedFlood::NAME => Some(harness::$function::<SchedFlood> $arguments),
            PlanChurn::NAME => Some(harness::$function::<PlanChurn> $arguments),
            SimCampaigns::NAME => Some(harness::$function::<SimCampaigns> $arguments),
            DaemonLoop::NAME => Some(harness::$function::<DaemonLoop> $arguments),
            _ => None,
        }
    };
}

/// Runs the workload called `name`; `None` if there is none.
pub fn run(name: &str, cfg: &RunConfig) -> Option<RunResult> {
    with_workload!(name, run(cfg))
}

/// The fill-in metrics of the workload called `name` (see
/// [`harness::fill_in`]); `None` if there is none.
pub fn fill_in(
    name: &str,
    seed: u64,
    canary: &mut Canary,
    problems: &mut Vec<String>,
) -> Option<Vec<Metric>> {
    with_workload!(name, fill_in(seed, canary, problems))
}
