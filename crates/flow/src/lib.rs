//! Flow-network and bipartite-matching substrate.
//!
//! The FTOA paper builds its offline guide (Algorithm 1) by instantiating the
//! predicted per-slot/per-cell counts of workers and tasks as the two sides of
//! a bipartite graph and computing a maximum-cardinality matching via max-flow
//! (Ford–Fulkerson in the paper; "any other max-flow algorithm is applicable").
//! The offline optimum `OPT` used as the evaluation yardstick is computed the
//! same way over the *actual* arrivals. The proof of Lemma 2 additionally uses
//! the canonical min-cut extracted from the residual network.
//!
//! This crate provides all of those building blocks, implemented from
//! scratch:
//!
//! * [`FlowNetwork`] — a residual flow network with integer capacities,
//!   stored in compressed sparse row form: the arcs leaving a node are
//!   contiguous, in the order its edges were added, with a `u32` head, a
//!   `u32` twin index and an `i64` residual capacity each (32 bytes per
//!   edge, plus a 4-byte edge-to-arc map). A forward edge's flow is its
//!   twin's residual, so no copy of the original capacities is kept. Edges
//!   are appended to a pending list (16 bytes each) and laid out in one
//!   counting-sort pass when a solver runs.
//! * [`edmonds_karp`][mod@edmonds_karp] — BFS-based Ford–Fulkerson (the paper's reference
//!   implementation).
//! * [`dinic`][mod@dinic] — the asymptotically faster algorithm used by default for the
//!   large guide/OPT instances.
//! * [`hopcroft_karp`][mod@hopcroft_karp] — a dedicated maximum bipartite matching algorithm:
//!   OPT's solver, the solver of [`BipartiteGraph::max_matching`], and an
//!   independent cross-check in tests. It runs on a CSR graph with `u32`
//!   match and distance arrays and one queue per solve.
//! * [`min_cost_max_flow`] — min-cost max-flow, for the paper's remark that a
//!   travel-cost-weighted guide can be derived with a mincost-maxflow solver
//!   (the guide's `MinCostMaxCardinality` ablation). Through
//!   [`BipartiteGraph::min_cost_max_matching`] it also serves the
//!   benchmark's flow probe, the tests and the debug-build check of the
//!   payoff-ordered batch rounds. Its network,
//!   [`McmfNetwork`][min_cost::McmfNetwork], only records its edges; a
//!   solve lays them out in CSR form, in add order per node, and reuses its
//!   search buffers across augmenting paths.
//! * [`min_cut_from_residual`] — the reachability cut of the residual network.
//! * [`BipartiteGraph`] — a convenience wrapper that hides the source/sink
//!   plumbing and returns matchings as `(left, right)` index pairs. It
//!   stores edges as added, 16 bytes each, and lays them out per left vertex
//!   with one stable counting-sort pass when a solve starts, so a caller
//!   may add them in any order across left vertices.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod bipartite;
pub mod dinic;
pub mod edmonds_karp;
pub mod hopcroft_karp;
pub mod min_cost;
pub mod min_cut;
pub mod network;

pub use bipartite::{BipartiteGraph, Matching, MaxFlowEngine};
pub use dinic::dinic;
pub use edmonds_karp::edmonds_karp;
pub use hopcroft_karp::hopcroft_karp;
pub use min_cost::{min_cost_max_flow, McmfResult};
pub use min_cut::{min_cut_from_residual, MinCut};
pub use network::{EdgeId, FlowNetwork, NodeId};
