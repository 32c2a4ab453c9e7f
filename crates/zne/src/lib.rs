//! # qucp-zne
//!
//! Digital zero-noise extrapolation (Sec. IV-D of the paper): unitary
//! folding à la Mitiq's `fold_gates_at_random`, the Linear / Polynomial
//! / Richardson extrapolation factories, tensored readout mitigation,
//! and [`ZneCampaign`]: the folded ladder of one benchmark as a
//! [`CampaignDriver`](qucp_runtime::CampaignDriver) on a
//! [`Service`](qucp_runtime::Service). Fig. 6's three processes are
//! that one campaign on two services (`max_parallel = 1` for the
//! baseline rung and independent ZNE, `≥` the ladder length for
//! QuCP + ZNE), which `qucp-bench`'s `repro fig6` prints.
//!
//! ```
//! use qucp_circuit::library;
//! use qucp_zne::{fold_gates_at_random, Factory};
//!
//! let circuit = library::ghz(3);
//! let folded = fold_gates_at_random(&circuit, 2.0, 42);
//! assert!(folded.gate_count() > circuit.gate_count());
//!
//! let samples = [(1.0, 0.8), (1.5, 0.7), (2.0, 0.6), (2.5, 0.5)];
//! let mitigated = Factory::Linear.extrapolate(&samples).unwrap();
//! assert!((mitigated - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod extrapolation;
mod folding;
mod readout;

pub use campaign::{z_observable, z_observable_exact, ZneCampaign, ZneCampaignOutput};
pub use extrapolation::{standard_factories, ExtrapolationError, Factory};
pub use folding::{achieved_scale, fold_gates_at_random, fold_global, scale_ladder};
pub use readout::{mitigate_counts, mitigate_distribution, ReadoutError};
