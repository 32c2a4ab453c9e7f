//! # qucp-circuit
//!
//! Quantum-circuit intermediate representation for the QuCP reproduction of
//! *"How Parallel Circuit Execution Can Be Useful for NISQ Computing?"*
//! (Niu & Todri-Sanial, DATE 2022).
//!
//! The crate provides:
//!
//! * [`Gate`] — the `qelib1.inc`-style elementary gate set;
//! * [`Circuit`] — an ordered gate list with builders, structural queries,
//!   remapping onto physical qubits, and a light cancellation pass;
//! * [`parse_qasm`] — an OpenQASM 2.0 subset parser (and [`Circuit::to_qasm`]
//!   as the writer);
//! * [`schedule`] — ASAP/ALAP timing, moments, and idle-window extraction
//!   (the paper's default ALAP task-scheduling policy);
//! * [`library`] — the eight Table II benchmarks with the paper's exact
//!   qubit/gate/CNOT counts, plus GHZ/QFT generators.
//!
//! ```
//! use qucp_circuit::{library, schedule};
//!
//! let adder = library::by_name("adder").unwrap().circuit();
//! assert_eq!(adder.gate_count(), 23);
//! assert_eq!(adder.cx_count(), 10);
//!
//! let duration = |_, g: &qucp_circuit::Gate| if g.is_two_qubit() { 300.0 } else { 35.0 };
//! let timing = schedule::alap_schedule_with(&adder, duration);
//! assert!(timing.makespan() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod error;
mod gate;
pub mod library;
mod qasm;
pub mod schedule;

pub use circuit::Circuit;
pub use error::CircuitError;
pub use gate::{Gate, Qubits};
pub use qasm::{parse_qasm, QasmError};
pub use schedule::{Schedule, ScheduledGate};
