//! Facade crate for the FTOA reproduction workspace.
//!
//! Re-exports the public API of every subsystem crate so that downstream
//! users (and the examples/integration tests in this repository) can depend
//! on a single `ftoa` crate.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use experiments;
pub use flow;
pub use ftoa_core as core_algorithms;
pub use ftoa_runtime as runtime;
pub use ftoa_types as types;
pub use prediction;
pub use workload;
