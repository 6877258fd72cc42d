//! Offline guide generation (Algorithm 1 of the paper).
//!
//! The guide instantiates the predicted per-slot/per-cell counts of workers
//! (`a_ij`) and tasks (`b_ij`) as nodes of a bipartite graph, adds an edge
//! between a predicted worker node and a predicted task node whenever the
//! pair satisfies the deadline constraint of Definition 4 (evaluated at the
//! slot midpoints and cell centres), and computes a maximum-cardinality
//! bipartite matching via max-flow. The matched pairs are the "pseudo
//! assignments" that POLAR / POLAR-OP consult online.
//!
//! Implementation note: predicted nodes of the same `(slot, cell)` type are
//! interchangeable, so the matching is computed on a *type-level* network
//! whose node capacities are the predicted counts (this is exactly the same
//! maximum matching, but the network has `O(#types)` nodes instead of
//! `O(m + n)`), and the result is then expanded back into individual guide
//! nodes, which is the granularity the online algorithms need.
//!
//! Pair enumeration visits, for each worker type and each task slot it can
//! meet, only the task types whose cell lies in the row and column band the
//! travel budget `v · (s_r + D_r − s_w)` spans, plus one cell of slack; the
//! task types of one `(slot, row)` are a contiguous run of the sorted type
//! list. `type_pair_feasible` stays the only accept test, so the pairs and
//! their order are those of a full scan (a proptest checks this against the
//! full double loop). On the Table 4 configuration at 500k + 500k with
//! perfect prediction this cuts 61M feasibility checks to 17M for the same
//! 5.5M edges.
//!
//! The pairs stream straight into a [`FlowNetwork`], whose compressed
//! adjacency costs 36 bytes per edge once laid out, plus 16 per edge of
//! pending list while it is built; no other per-edge copy is kept. Travel
//! costs are computed only for the min-cost objective. Nodes of one type
//! are created contiguously and partners are filled front to back, so a
//! type's nodes are one index range, its matched nodes a prefix of it, and
//! the online policies keep their per-type state in dense tables indexed by
//! [`OfflineGuide::type_index`].

use flow::min_cost::{min_cost_max_flow, McmfNetwork};
use flow::{dinic, FlowNetwork};
use ftoa_types::{CellId, ProblemConfig, SlotId, TimeStamp, TypeKey};
use prediction::SpatioTemporalMatrix;
use std::ops::Range;

/// Objective used when computing the guide matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuideObjective {
    /// Maximum cardinality only (the paper's Algorithm 1).
    #[default]
    MaxCardinality,
    /// Maximum cardinality with minimum total travel time as a tie-breaker
    /// (the paper's remark about using a mincost-maxflow solver).
    MinCostMaxCardinality,
}

/// One predicted node of the guide (either side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuideNode {
    /// The `(slot, cell)` type of the node.
    pub key: TypeKey,
    /// Index of the matched node on the *other* side, if the node is matched
    /// in the offline guide.
    pub partner: Option<usize>,
}

/// The offline guide: predicted worker/task nodes plus their pseudo matching.
///
/// Types are addressed by their dense index `slot · num_cells + cell` (see
/// [`OfflineGuide::type_index`]). The nodes of one type are one contiguous
/// range, and its matched nodes are a prefix of that range.
#[derive(Debug, Clone, Default)]
pub struct OfflineGuide {
    worker_nodes: Vec<GuideNode>,
    task_nodes: Vec<GuideNode>,
    /// The worker nodes of type `t` are
    /// `worker_type_start[t]..worker_type_start[t + 1]`.
    worker_type_start: Vec<usize>,
    /// The same for task nodes.
    task_type_start: Vec<usize>,
    num_cells: usize,
    matching_size: usize,
}

impl OfflineGuide {
    /// Build the guide with the default objective.
    pub fn build(
        config: &ProblemConfig,
        predicted_workers: &SpatioTemporalMatrix,
        predicted_tasks: &SpatioTemporalMatrix,
    ) -> Self {
        Self::build_with(config, predicted_workers, predicted_tasks, GuideObjective::MaxCardinality)
    }

    /// Build the guide with an explicit objective.
    pub fn build_with(
        config: &ProblemConfig,
        predicted_workers: &SpatioTemporalMatrix,
        predicted_tasks: &SpatioTemporalMatrix,
        objective: GuideObjective,
    ) -> Self {
        let worker_counts = predicted_workers.round_preserving_total();
        let task_counts = predicted_tasks.round_preserving_total();

        // Dense per-type lists of (type index, count) with count > 0.
        let left = nonzero_types(&worker_counts);
        let right = nonzero_types(&task_counts);

        // Solve the type-level matching.
        let pair_flows = match objective {
            GuideObjective::MaxCardinality => solve_cardinality(config, &left, &right),
            GuideObjective::MinCostMaxCardinality => solve_min_cost(config, &left, &right),
        };

        // Expand back into individual nodes.
        let num_cells = config.grid.num_cells();
        let num_types =
            (config.slots.num_slots() * num_cells).max(worker_counts.len()).max(task_counts.len());
        let (worker_nodes, worker_type_start) = expand_side(&worker_counts, num_types, num_cells);
        let (task_nodes, task_type_start) = expand_side(&task_counts, num_types, num_cells);
        let mut guide = Self {
            worker_nodes,
            task_nodes,
            worker_type_start,
            task_type_start,
            num_cells,
            matching_size: 0,
        };
        guide.pair_up(&left, &right, &pair_flows);
        guide
    }

    /// Pair up individual nodes according to the type-level flow, filling each
    /// type's nodes front to back.
    fn pair_up(
        &mut self,
        left: &[(usize, usize)],
        right: &[(usize, usize)],
        pair_flows: &[(usize, usize, usize)],
    ) {
        let mut left_next: Vec<usize> =
            left.iter().map(|&(t, _)| self.worker_type_start[t]).collect();
        let mut right_next: Vec<usize> =
            right.iter().map(|&(t, _)| self.task_type_start[t]).collect();
        for &(li, ri, flow) in pair_flows {
            for _ in 0..flow {
                let (w_idx, r_idx) = (left_next[li], right_next[ri]);
                debug_assert!(w_idx < self.worker_type_start[left[li].0 + 1], "over-allocated");
                debug_assert!(r_idx < self.task_type_start[right[ri].0 + 1], "over-allocated");
                self.worker_nodes[w_idx].partner = Some(r_idx);
                self.task_nodes[r_idx].partner = Some(w_idx);
                left_next[li] += 1;
                right_next[ri] += 1;
                self.matching_size += 1;
            }
        }
    }

    /// The size of the pseudo matching (`|E*|` in the paper's analysis).
    pub fn matching_size(&self) -> usize {
        self.matching_size
    }

    /// Number of predicted worker nodes (`m` after rounding).
    pub fn num_worker_nodes(&self) -> usize {
        self.worker_nodes.len()
    }

    /// Number of predicted task nodes (`n` after rounding).
    pub fn num_task_nodes(&self) -> usize {
        self.task_nodes.len()
    }

    /// All worker nodes.
    pub fn worker_nodes(&self) -> &[GuideNode] {
        &self.worker_nodes
    }

    /// All task nodes.
    pub fn task_nodes(&self) -> &[GuideNode] {
        &self.task_nodes
    }

    /// Number of dense type indices (`slots · cells`); per-type tables of the
    /// online policies have this length.
    pub fn num_types(&self) -> usize {
        self.worker_type_start.len().saturating_sub(1)
    }

    /// The dense index `slot · num_cells + cell` of a type.
    pub fn type_index(&self, key: TypeKey) -> usize {
        key.slot.index() * self.num_cells + key.cell.index()
    }

    /// Indices of the worker nodes of a given type (empty for an unknown
    /// type).
    pub fn worker_nodes_of_type(&self, key: TypeKey) -> Range<usize> {
        type_range(&self.worker_type_start, self.type_index(key))
    }

    /// Indices of the task nodes of a given type (empty for an unknown type).
    pub fn task_nodes_of_type(&self, key: TypeKey) -> Range<usize> {
        type_range(&self.task_type_start, self.type_index(key))
    }

    /// Rough estimate of the resident size of the guide in bytes (used for
    /// the memory plots).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.worker_nodes.len() + self.task_nodes.len()) * size_of::<GuideNode>()
            + (self.worker_type_start.len() + self.task_type_start.len()) * size_of::<usize>()
    }
}

fn type_key(t: usize, num_cells: usize) -> TypeKey {
    TypeKey::new(SlotId(t / num_cells), CellId(t % num_cells))
}

fn type_range(starts: &[usize], t: usize) -> Range<usize> {
    match (starts.get(t), starts.get(t + 1)) {
        (Some(&lo), Some(&hi)) => lo..hi,
        _ => 0..0,
    }
}

/// One side's nodes, created type by type, and the per-type start offsets
/// (`num_types + 1` entries).
fn expand_side(
    counts: &[usize],
    num_types: usize,
    num_cells: usize,
) -> (Vec<GuideNode>, Vec<usize>) {
    let mut nodes = Vec::with_capacity(counts.iter().sum());
    let mut starts = Vec::with_capacity(num_types + 1);
    for t in 0..num_types {
        starts.push(nodes.len());
        let key = type_key(t, num_cells);
        let count = counts.get(t).copied().unwrap_or(0);
        nodes.extend(std::iter::repeat_n(GuideNode { key, partner: None }, count));
    }
    starts.push(nodes.len());
    (nodes, starts)
}

fn nonzero_types(counts: &[usize]) -> Vec<(usize, usize)> {
    counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(t, &c)| (t, c)).collect()
}

/// The inclusive range of task slots that can possibly be feasible for a
/// worker appearing at time `sw`: the task must be released before the worker
/// leaves (`sr < sw + D_w`) and, when released before the worker appears, it
/// must still be alive when the worker can reach it (`sr + D_r >= sw`).
fn feasible_task_slot_range(config: &ProblemConfig, sw: TimeStamp) -> (usize, usize) {
    let earliest = sw - config.default_task_patience;
    let latest = sw + config.default_worker_wait;
    let lo = config.slots.slot_of(earliest).index();
    let hi = config.slots.slot_of(latest).index();
    (lo, hi)
}

/// Deadline feasibility of a (predicted worker, predicted task) type pair,
/// evaluated at slot midpoints and cell centres. This is exactly line 8 of
/// Algorithm 1: `D_r − (S_w − S_r) − d(L_w, L_r) ≥ 0 ∧ S_r < S_w + D_w`,
/// i.e. a worker that starts travelling when it appears (possibly *before*
/// the task is released — the flexible pre-movement the FTOA model allows)
/// reaches the task's area before the task's deadline.
fn type_pair_feasible(
    config: &ProblemConfig,
    sw: TimeStamp,
    lw: &ftoa_types::Location,
    sr: TimeStamp,
    lr: &ftoa_types::Location,
) -> bool {
    if sr >= sw + config.default_worker_wait {
        return false;
    }
    let travel = lw.travel_time(lr, config.velocity);
    sw + travel <= sr + config.default_task_patience
}

/// Call `visit(left index, right index)` for every type pair that passes
/// [`type_pair_feasible`], in full-scan order: worker types ascending, then
/// task types ascending by `(slot, cell)`.
///
/// Only task types a worker type can reach are tested: the slots of
/// [`feasible_task_slot_range`], and within each slot the rows and columns
/// that the travel budget `v · (s_r + D_r − s_w)` spans from the worker's
/// cell, plus one cell of slack for rounding. A negative budget rules the
/// whole slot out, since travel time is never negative.
fn for_each_feasible_pair(
    config: &ProblemConfig,
    left: &[(usize, usize)],
    right: &[(usize, usize)],
    mut visit: impl FnMut(usize, usize),
) {
    let grid = &config.grid;
    let (nx, ny) = (grid.nx(), grid.ny());
    let num_cells = grid.num_cells();
    // `right` is sorted by type index `(slot · ny + row) · nx + col`, so the
    // types of one (slot, row) are the run `row_start[b]..row_start[b + 1]`
    // with `b = type / nx`, sorted by column.
    let num_rows = right.last().map_or(0, |&(t, _)| t / nx + 1);
    let mut row_start = vec![0usize; num_rows + 1];
    for &(t, _) in right {
        row_start[t / nx + 1] += 1;
    }
    for b in 0..num_rows {
        row_start[b + 1] += row_start[b];
    }
    for (li, &(wt, _)) in left.iter().enumerate() {
        let wkey = type_key(wt, num_cells);
        let sw = config.slots.slot_mid(wkey.slot);
        let lw = grid.cell_center(wkey.cell);
        let (cx, cy) = grid.cell_coords(wkey.cell);
        let (lo_slot, hi_slot) = feasible_task_slot_range(config, sw);
        for slot in lo_slot..=hi_slot {
            let sr = config.slots.slot_mid(SlotId(slot));
            let slack = ((sr + config.default_task_patience) - sw).as_minutes();
            if slack < 0.0 {
                continue;
            }
            let budget = slack * config.velocity;
            let cols = band(cx, budget / grid.cell_width(), nx);
            for row in band(cy, budget / grid.cell_height(), ny) {
                let b = slot * ny + row;
                if b >= num_rows {
                    break;
                }
                let run = &right[row_start[b]..row_start[b + 1]];
                let skip = run.partition_point(|&(t, _)| t % nx < cols.start);
                for (ri, &(rt, _)) in run.iter().enumerate().skip(skip) {
                    if rt % nx >= cols.end {
                        break;
                    }
                    let lr = grid.cell_center(CellId(rt % num_cells));
                    if type_pair_feasible(config, sw, &lw, sr, &lr) {
                        visit(li, row_start[b] + ri);
                    }
                }
            }
        }
    }
}

/// The cells within `span` cells of `c`, plus one of slack, clamped to
/// `0..n`. A span that is not a finite number covers every cell.
fn band(c: usize, span: f64, n: usize) -> Range<usize> {
    let reach = span.floor() + 1.0;
    if reach.is_nan() || reach >= n as f64 {
        return 0..n;
    }
    let reach = reach as usize;
    c.saturating_sub(reach)..(c + reach + 1).min(n)
}

/// Solve the type-level maximum-cardinality matching with Dinic's max-flow.
/// The feasible pairs stream straight into the network. Returns
/// `(left index, right index, matched pairs)` triples in enumeration order.
fn solve_cardinality(
    config: &ProblemConfig,
    left: &[(usize, usize)],
    right: &[(usize, usize)],
) -> Vec<(usize, usize, usize)> {
    let source = 0usize;
    let left_base = 1usize;
    let right_base = 1 + left.len();
    let sink = 1 + left.len() + right.len();
    let mut net = FlowNetwork::with_nodes(sink + 1);
    for (i, &(_, cap)) in left.iter().enumerate() {
        net.add_edge(source, left_base + i, cap as i64);
    }
    for (i, &(_, cap)) in right.iter().enumerate() {
        net.add_edge(right_base + i, sink, cap as i64);
    }
    for_each_feasible_pair(config, left, right, |li, ri| {
        let cap = left[li].1.min(right[ri].1) as i64;
        net.add_edge(left_base + li, right_base + ri, cap);
    });
    dinic(&mut net, source, sink);
    net.iter_forward_edges()
        .skip(left.len() + right.len())
        .filter(|&(_, _, _, f)| f > 0)
        .map(|(from, to, _, f)| (from - left_base, to - right_base, f as usize))
        .collect()
}

/// Solve the type-level matching with the min-cost max-flow objective; edge
/// costs are travel times between cell centres in milliseconds.
fn solve_min_cost(
    config: &ProblemConfig,
    left: &[(usize, usize)],
    right: &[(usize, usize)],
) -> Vec<(usize, usize, usize)> {
    let source = 0usize;
    let left_base = 1usize;
    let right_base = 1 + left.len();
    let sink = 1 + left.len() + right.len();
    let mut net = McmfNetwork::with_nodes(sink + 1);
    for (i, &(_, cap)) in left.iter().enumerate() {
        net.add_edge(source, left_base + i, cap as i64, 0);
    }
    for (i, &(_, cap)) in right.iter().enumerate() {
        net.add_edge(right_base + i, sink, cap as i64, 0);
    }
    let num_cells = config.grid.num_cells();
    let center = |t: usize| config.grid.cell_center(CellId(t % num_cells));
    let mut edge_ids = Vec::new();
    for_each_feasible_pair(config, left, right, |li, ri| {
        let (lw, lr) = (center(left[li].0), center(right[ri].0));
        let cost_ms = (lw.travel_time(&lr, config.velocity).as_minutes() * 1000.0).round() as i64;
        let cap = left[li].1.min(right[ri].1) as i64;
        let id = net.add_edge(left_base + li, right_base + ri, cap, cost_ms.max(0));
        edge_ids.push((id, li, ri));
    });
    let result = min_cost_max_flow(&net, source, sink);
    edge_ids
        .into_iter()
        .filter_map(|(id, li, ri)| {
            let f = result.edge_flows[id];
            if f > 0 {
                Some((li, ri, f as usize))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_types::{BoundingBox, GridPartition, SlotPartition, TimeDelta};
    use proptest::prelude::*;

    /// The paper's Example 3/4 configuration: an 8×8 region split into four
    /// areas and two 5-minute slots; velocity 1 unit/min; `D_w` = 30 min,
    /// `D_r` = 2 min.
    fn example_config() -> ProblemConfig {
        ProblemConfig::new(
            GridPartition::square(8.0, 2).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(10.0), 2).unwrap(),
            1.0,
            TimeDelta::minutes(30.0),
            TimeDelta::minutes(2.0),
        )
    }

    /// The predicted counts of Figure 1d: a_00=2, b_00=1, a_03=3, a_12=0,
    /// b_12=1, b_11=3 (slot-major, areas 0..3).
    fn example_prediction() -> (SpatioTemporalMatrix, SpatioTemporalMatrix) {
        let mut workers = SpatioTemporalMatrix::zeros(2, 4);
        let mut tasks = SpatioTemporalMatrix::zeros(2, 4);
        workers.set(0, 0, 2.0);
        workers.set(0, 3, 3.0);
        tasks.set(0, 0, 1.0);
        tasks.set(1, 1, 3.0);
        tasks.set(1, 2, 1.0);
        (workers, tasks)
    }

    #[test]
    fn paper_example_guide_has_matching_size_five() {
        // Figure 2: the max-flow on the example prediction matches
        // Ŵ001–R̂001, Ŵ002–R̂111, Ŵ031–R̂112, Ŵ032–R̂113, Ŵ033–R̂121 => 5 edges.
        let config = example_config();
        let (pw, pt) = example_prediction();
        let guide = OfflineGuide::build(&config, &pw, &pt);
        assert_eq!(guide.num_worker_nodes(), 5);
        assert_eq!(guide.num_task_nodes(), 5);
        assert_eq!(guide.matching_size(), 5);
        // Both workers of type (slot0, area0) are matched.
        let t00 = TypeKey::new(SlotId(0), CellId(0));
        assert_eq!(guide.worker_nodes_of_type(t00).len(), 2);
        assert!(guide.worker_nodes_of_type(t00).all(|i| guide.worker_nodes()[i].partner.is_some()));
    }

    #[test]
    fn engines_and_objectives_agree_on_cardinality() {
        // Dinic (the cardinality objective) and min-cost max-flow (the
        // min-cost objective) must find the same maximum.
        let config = example_config();
        let (pw, pt) = example_prediction();
        let dinic_guide = OfflineGuide::build(&config, &pw, &pt);
        let mc_guide =
            OfflineGuide::build_with(&config, &pw, &pt, GuideObjective::MinCostMaxCardinality);
        assert_eq!(dinic_guide.matching_size(), mc_guide.matching_size());
    }

    #[test]
    fn partner_links_are_symmetric() {
        let config = example_config();
        let (pw, pt) = example_prediction();
        let guide = OfflineGuide::build(&config, &pw, &pt);
        for (w_idx, w) in guide.worker_nodes().iter().enumerate() {
            if let Some(r_idx) = w.partner {
                assert_eq!(guide.task_nodes()[r_idx].partner, Some(w_idx));
            }
        }
        for (r_idx, r) in guide.task_nodes().iter().enumerate() {
            if let Some(w_idx) = r.partner {
                assert_eq!(guide.worker_nodes()[w_idx].partner, Some(r_idx));
            }
        }
    }

    #[test]
    fn empty_prediction_yields_empty_guide() {
        let config = example_config();
        let zero = SpatioTemporalMatrix::zeros(2, 4);
        let guide = OfflineGuide::build(&config, &zero, &zero);
        assert_eq!(guide.matching_size(), 0);
        assert_eq!(guide.num_worker_nodes(), 0);
        assert_eq!(guide.num_task_nodes(), 0);
        assert!(guide.worker_nodes_of_type(TypeKey::new(SlotId(0), CellId(0))).is_empty());
        assert!(guide.memory_bytes() < 1024);
    }

    #[test]
    fn infeasible_pairs_are_not_matched() {
        // Tasks in the last slot of a long horizon, workers in the first:
        // the worker deadline (30 min) rules the pairs out.
        let config = ProblemConfig::new(
            GridPartition::square(8.0, 2).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(480.0), 8).unwrap(),
            1.0,
            TimeDelta::minutes(30.0),
            TimeDelta::minutes(2.0),
        );
        let mut workers = SpatioTemporalMatrix::zeros(8, 4);
        let mut tasks = SpatioTemporalMatrix::zeros(8, 4);
        workers.set(0, 0, 5.0);
        tasks.set(7, 0, 5.0);
        let guide = OfflineGuide::build(&config, &workers, &tasks);
        assert_eq!(guide.matching_size(), 0);
        assert_eq!(guide.num_worker_nodes(), 5);
        assert_eq!(guide.num_task_nodes(), 5);
    }

    /// The full double loop over every task type of the feasible slots: the
    /// oracle for the banded enumeration.
    fn full_scan_pairs(
        config: &ProblemConfig,
        left: &[(usize, usize)],
        right: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        let num_cells = config.grid.num_cells();
        let mut right_by_slot: Vec<Vec<usize>> = vec![Vec::new(); config.slots.num_slots()];
        for (ri, &(t, _)) in right.iter().enumerate() {
            right_by_slot[t / num_cells].push(ri);
        }
        let mut pairs = Vec::new();
        for (li, &(wt, _)) in left.iter().enumerate() {
            let wkey = type_key(wt, num_cells);
            let sw = config.slots.slot_mid(wkey.slot);
            let lw = config.grid.cell_center(wkey.cell);
            let (lo_slot, hi_slot) = feasible_task_slot_range(config, sw);
            for by_slot in &right_by_slot[lo_slot..=hi_slot] {
                for &ri in by_slot {
                    let rkey = type_key(right[ri].0, num_cells);
                    let sr = config.slots.slot_mid(rkey.slot);
                    let lr = config.grid.cell_center(rkey.cell);
                    if type_pair_feasible(config, sw, &lw, sr, &lr) {
                        pairs.push((li, ri));
                    }
                }
            }
        }
        pairs
    }

    fn banded_pairs(
        config: &ProblemConfig,
        left: &[(usize, usize)],
        right: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for_each_feasible_pair(config, left, right, |li, ri| pairs.push((li, ri)));
        pairs
    }

    /// A random subset of `0..num_types` with counts 1..=3, sorted by type.
    fn random_types(num_types: usize, state: &mut u64) -> Vec<(usize, usize)> {
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let density = next() % 4 + 1;
        let mut types = Vec::new();
        for t in 0..num_types {
            if next() % 4 < density {
                types.push((t, (next() % 3 + 1) as usize));
            }
        }
        types
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row/column band visits a subset of the task types, so it must
        /// accept exactly the pairs the full scan accepts, in the same order,
        /// on any grid shape, origin, cell aspect, velocity and deadline.
        #[test]
        fn banded_enumeration_equals_the_full_scan(
            (nx, ny, num_slots) in (1usize..11, 1usize..11, 1usize..7),
            (min_x, min_y, cell_w, cell_h) in
                (-500.0f64..500.0, -500.0f64..500.0, 0.05f64..40.0, 0.05f64..40.0),
            (slot_start, slot_len, log10_velocity) in
                (-100.0f64..100.0, 0.5f64..60.0, -5.0f64..5.0),
            (wait, patience, seed) in (0.0f64..120.0, 0.0f64..120.0, 1u64..u64::MAX),
        ) {
            let bounds = BoundingBox::new(
                min_x,
                min_y,
                min_x + nx as f64 * cell_w,
                min_y + ny as f64 * cell_h,
            );
            let config = ProblemConfig::new(
                GridPartition::new(bounds, nx, ny).unwrap(),
                SlotPartition::new(
                    TimeStamp::minutes(slot_start),
                    TimeDelta::minutes(slot_len),
                    num_slots,
                )
                .unwrap(),
                10f64.powf(log10_velocity),
                TimeDelta::minutes(wait),
                TimeDelta::minutes(patience),
            );
            let num_types = num_slots * nx * ny;
            let mut state = seed;
            let left = random_types(num_types, &mut state);
            let right = random_types(num_types, &mut state);
            let expected = full_scan_pairs(&config, &left, &right);
            prop_assert_eq!(banded_pairs(&config, &left, &right), expected);
        }
    }

    #[test]
    fn band_slack_covers_budgets_that_round_below_a_whole_row() {
        // The budget is exactly the computed distance between two cell
        // centres `k` rows apart, so the pair is feasible with no margin,
        // while `budget / cell_height` often rounds to just below `k`.
        let slots = SlotPartition::new(TimeStamp::minutes(-5.0), TimeDelta::minutes(10.0), 1);
        let mut below = 0;
        for h in [0.1, 0.3, 0.7, 1.1, 2.3, 0.01, 0.07] {
            for k in 1..8 {
                let bounds = BoundingBox::new(0.0, 0.37, 1.0, 0.37 + 8.0 * h);
                let grid = GridPartition::new(bounds, 1, 8).unwrap();
                let dy = grid.cell_center(CellId(k)).distance(&grid.cell_center(CellId(0)));
                let config = ProblemConfig::new(
                    grid.clone(),
                    slots.clone().unwrap(),
                    1.0,
                    TimeDelta::minutes(60.0),
                    TimeDelta::minutes(dy),
                );
                let (left, right) = ([(0, 1)], [(k, 1)]);
                assert_eq!(full_scan_pairs(&config, &left, &right), vec![(0, 0)]);
                assert_eq!(banded_pairs(&config, &left, &right), vec![(0, 0)]);
                below += usize::from(dy / grid.cell_height() < k as f64);
            }
        }
        assert!(below > 0, "no budget rounded below a whole row");
    }

    #[test]
    fn banded_enumeration_covers_one_cell_and_the_whole_grid() {
        // A slow worker reaches only its own cell; a fast one reaches all.
        let grid = GridPartition::new(BoundingBox::new(-7.0, 3.0, 23.0, 13.0), 6, 4).unwrap();
        let slots = SlotPartition::over_horizon(TimeDelta::minutes(60.0), 1).unwrap();
        let all: Vec<(usize, usize)> = (0..24).map(|t| (t, 1)).collect();
        for (velocity, per_worker) in [(1e-6, 1), (1e6, 24)] {
            let config = ProblemConfig::new(
                grid.clone(),
                slots.clone(),
                velocity,
                TimeDelta::minutes(60.0),
                TimeDelta::minutes(10.0),
            );
            let pairs = banded_pairs(&config, &all, &all);
            assert_eq!(pairs.len(), 24 * per_worker);
            assert_eq!(pairs, full_scan_pairs(&config, &all, &all));
        }
    }

    #[test]
    fn matching_never_exceeds_side_sizes() {
        let config = example_config();
        let mut workers = SpatioTemporalMatrix::zeros(2, 4);
        let mut tasks = SpatioTemporalMatrix::zeros(2, 4);
        workers.set(0, 0, 2.0);
        tasks.set(0, 0, 7.0);
        let guide = OfflineGuide::build(&config, &workers, &tasks);
        assert_eq!(guide.matching_size(), 2);
        // Exactly two of the seven task nodes are matched.
        let matched = guide.task_nodes().iter().filter(|n| n.partner.is_some()).count();
        assert_eq!(matched, 2);
    }
}
