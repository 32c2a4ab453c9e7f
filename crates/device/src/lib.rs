//! # qucp-device
//!
//! NISQ device models for the QuCP reproduction: coupling topologies,
//! calibration snapshots, and the crosstalk ground truth that
//! Simultaneous Randomized Benchmarking estimates.
//!
//! The paper evaluates on IBM Q 16 Melbourne, IBM Q 27 Toronto and IBM Q
//! 65 Manhattan; their coupling maps are reconstructed in [`ibm`], with
//! calibration magnitudes seeded to match the ranges printed in the
//! paper's figures.
//!
//! ```
//! use qucp_device::{ibm, Link};
//!
//! let dev = ibm::manhattan();
//! assert_eq!(dev.num_qubits(), 65);
//! let pairs = dev.topology().one_hop_link_pairs();
//! assert!(!pairs.is_empty());
//! let gamma = dev.crosstalk().gamma(Link::new(0, 1), Link::new(2, 3));
//! assert!(gamma >= 1.0);
//! ```
//!
//! A [`Device`] is a value: no method borrows its state mutably. A
//! recalibration or a [`DriftModel`] step produces a new calibration
//! state, and [`Device::with_state`] builds the device that carries it
//! — the same name and topology (shared by reference count) with an
//! empty region atlas, so an atlas always belongs to one calibration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibration;
mod crosstalk;
mod device;
mod drift;
pub mod ibm;
mod link;
mod region;
mod topology;

pub use calibration::{Calibration, NoiseProfile};
pub use crosstalk::{CrosstalkModel, CrosstalkProfile, SIGNIFICANT_RATIO};
pub use device::Device;
pub use drift::{interval_steps, splitmix64, DriftModel, GaussianWalk};
pub use link::{Link, LinkPair};
pub use region::{GrowthScratch, Region, RegionView, Regions};
pub use topology::{Topology, UNREACHABLE};
