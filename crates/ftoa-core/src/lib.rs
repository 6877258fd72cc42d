//! FTOA online task assignment: the paper's primary contribution.
//!
//! This crate contains the two-step framework of the paper on top of the
//! `flow` and `prediction` substrates:
//!
//! * [`guide`] — offline guide generation (Algorithm 1): predicted counts →
//!   bipartite graph → maximum matching (max-flow).
//! * [`algorithms`] — the online algorithms evaluated in Section 6:
//!   [`algorithms::SimpleGreedy`] (nearest feasible neighbour, wait in
//!   place), [`algorithms::BatchGreedy`] (the GR baseline: windowed
//!   batch matching), [`algorithms::Polar`] (Algorithm 2, occupy-once guide
//!   nodes, CR ≈ 0.40), [`algorithms::PolarOp`] (Algorithm 3, reusable guide
//!   nodes, CR ≈ 0.47) and [`algorithms::Opt`] (the offline optimum with full
//!   knowledge and free worker movement).
//! * [`engine`] — the unified streaming simulation engine, decomposed into
//!   one module per responsibility (`item` / `arena` / `kernels` / `index` /
//!   `context` / `driver`): every algorithm is an incremental
//!   [`engine::driver::OnlinePolicy`] driven by [`engine::driver::SimulationEngine`]. Live
//!   objects sit in generational struct-of-arrays [`engine::arena::ItemArena`]s,
//!   linear and kd scans run through the batched distance kernel, and candidate
//!   generation sits behind the [`engine::index::CandidateIndex`] trait (linear-scan
//!   reference, grid-index, epoch-rebuild KD-tree, and an adaptive hybrid
//!   that routes queries by local density). Each run is serial: one event
//!   at a time on one thread, so output never depends on a thread count.
//! * [`movement`] — the worker movement model used when the platform guides a
//!   worker to another grid area.
//! * [`instance`] / [`result`] — the common input/output types of all
//!   algorithms, including runtime, memory and per-event engine accounting.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod algorithms;
pub mod engine;
pub mod guide;
pub mod instance;
mod kdtree;
pub mod memory;
pub mod movement;
pub mod result;

pub use algorithms::{
    BatchGreedy, BatchHungarian, BatchMaxFlow, OnlineAlgorithm, Opt, Polar, PolarOp, SimpleGreedy,
};
pub use engine::arena::ItemArena;
pub use engine::clock::Stopwatch;
pub use engine::context::{AssignmentDecision, EngineContext, MatchOutcome, PoolView};
pub use engine::driver::{OnlinePolicy, SimulationEngine};
pub use engine::index::{
    CandidateIndex, EngineIndex, GridCandidateIndex, HybridCandidateIndex, IndexBackend,
    KdCandidateIndex, LinearScanIndex,
};
pub use engine::item::SpatialItem;
pub use guide::{GuideNode, GuideObjective, OfflineGuide};
pub use instance::Instance;
pub use result::{AlgorithmResult, EngineStats};
