//! # qucp-vqe
//!
//! The Variational Quantum Eigensolver substrate of the paper's
//! Sec. IV-C: the parity-mapped H2 Hamiltonian (five Pauli terms),
//! qubit-wise-commuting measurement grouping (PG), the RyRz
//! hardware-efficient ansatz, energy estimation from counts, an exact
//! Hermitian eigensolver for the theory reference, and
//! [`VqeCampaign`]: the θ grid's measurement circuits as a
//! [`CampaignDriver`](qucp_runtime::CampaignDriver) on a
//! [`Service`](qucp_runtime::Service). Table III / Fig. 5 are that one
//! campaign on two services — independent (PG, `max_parallel = 1`)
//! against parallel (QuCP + PG, `max_parallel ≥ nc`) — which
//! `qucp-bench`'s `repro table3` prints.
//!
//! ```
//! use qucp_vqe::{h2_hamiltonian, ground_state_energy};
//!
//! let h = h2_hamiltonian();
//! assert_eq!(h.commuting_groups().len(), 2);
//! let e = ground_state_energy(&h);
//! assert!((e + 1.857275).abs() < 1e-4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ansatz;
mod campaign;
mod eigen;
mod hamiltonian;
mod measurement;
mod pauli;

pub use ansatz::{hardware_efficient, parameter_count, tied_ansatz};
pub use campaign::{VqeCampaign, VqeCampaignOutput};
pub use eigen::{dense_matrix, ground_state_energy, hermitian_eigenvalues};
pub use hamiltonian::{h2_exact_ground_energy, h2_hamiltonian, Hamiltonian};
pub use measurement::{
    expectation_from_counts, expectation_from_probabilities, group_energy, group_energy_exact,
    measurement_circuit,
};
pub use pauli::{group_commuting, ParsePauliError, PauliOp, PauliString};
