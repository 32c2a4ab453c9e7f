//! # qucp-srb
//!
//! Simultaneous Randomized Benchmarking (SRB) for crosstalk
//! characterization, reproducing Sec. III of the QuCP paper: the
//! overhead accounting of Table I and the Fig. 2 crosstalk map of
//! IBM Q 27 Toronto.
//!
//! The paper's central argument is that SRB characterization is too
//! expensive to run routinely (`jobs = 3 × groups × seeds`, growing with
//! chip size), which motivates QuCP's σ approximation. This crate
//! implements the whole pipeline anyway — Clifford sequence generation,
//! decay fitting, pair grouping, campaign accounting — both to reproduce
//! the overhead numbers and to give the QuMC baseline its characterized
//! crosstalk input: [`CampaignReport::crosstalk_map`] is the measured map
//! `qucp_core::strategy::qumc` takes. A pair is significant when its
//! worst ratio meets the device crate's
//! [`SIGNIFICANT_RATIO`](qucp_device::SIGNIFICANT_RATIO), the same
//! threshold the ground truth's significant pairs use.
//!
//! ```
//! use qucp_device::ibm;
//! use qucp_srb::{srb_overhead, srb_groups};
//!
//! let dev = ibm::toronto();
//! let overhead = srb_overhead(&dev, 5);
//! assert_eq!(overhead.jobs, 3 * overhead.groups * 5);
//! assert_eq!(srb_groups(dev.topology()).len(), overhead.groups);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
pub mod cliffords;
mod fit;
mod grouping;
mod rb;

pub use campaign::{
    characterize_pair, run_campaign, srb_overhead, CampaignReport, PairCharacterization,
    SrbOverhead, JOBS_PER_GROUP_SEED,
};
pub use fit::{fit_decay, DecayFit};
pub use grouping::{pairs_conflict, srb_groups};
pub use rb::{rb_circuit, rb_on_link, RbConfig, RbOutcome};
