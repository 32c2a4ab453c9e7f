//! Error types of the parallel execution pipeline.

use std::error::Error;
use std::fmt;

use qucp_sim::SimError;

/// Errors produced by partitioning, mapping and parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// No connected region of the required size is free on the device.
    PartitionUnavailable {
        /// Index of the program that could not be placed.
        program: usize,
        /// Requested partition size.
        size: usize,
    },
    /// A program is wider than the whole device.
    ProgramTooWide {
        /// Index of the offending program.
        program: usize,
        /// Its width.
        width: usize,
        /// Device size.
        device: usize,
    },
    /// The simulator rejected a mapped job (indicates a mapping bug).
    Sim(SimError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::PartitionUnavailable { program, size } => {
                write!(
                    f,
                    "no free connected partition of size {size} for program {program}"
                )
            }
            CoreError::ProgramTooWide {
                program,
                width,
                device,
            } => {
                write!(
                    f,
                    "program {program} needs {width} qubits but the device has {device}"
                )
            }
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::PartitionUnavailable {
            program: 2,
            size: 5,
        };
        assert!(e.to_string().contains("size 5"));
        let e = CoreError::ProgramTooWide {
            program: 0,
            width: 70,
            device: 65,
        };
        assert!(e.to_string().contains("70 qubits"));
    }

    #[test]
    fn source_chain() {
        let e = CoreError::Sim(SimError::LayoutMismatch {
            circuit: 2,
            layout: 1,
        });
        assert!(e.source().is_some());
        let e = CoreError::PartitionUnavailable {
            program: 0,
            size: 1,
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions() {
        let s: CoreError = SimError::LayoutNotInjective { physical: 3 }.into();
        assert!(matches!(s, CoreError::Sim(_)));
    }
}
