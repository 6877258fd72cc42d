//! The adaptive hybrid backend: grid where it's dense, KD-tree where it's
//! sparse.
//!
//! The two indexed backends have complementary failure modes. The uniform
//! grid shines on dense queries (the searched buckets are contiguous kernel
//! sweeps full of real candidates) but degrades on sparse ones, where the
//! ring/range expansion walks many empty buckets before it finds anyone.
//! The KD-tree prunes sparse space geometrically but pays pointer-chasing
//! overhead per node that dense bucket sweeps do not.
//!
//! The hybrid keeps **both** sub-indexes fully maintained (every insert and
//! remove goes to both — both are exact, so correctness is choice-
//! independent) and routes each *query* by the observed density of the disk
//! it is about to search: the bounded world is covered by a coarse
//! `REGIONS`×`REGIONS` occupancy grid of plain counters bumped on
//! insert/remove, and a query whose radius-`r` disk overlaps regions holding
//! at least [`DENSE_REGION_THRESHOLD`] live objects in total goes to the
//! grid, anything sparser to the KD-tree. Summing over the disk rather than
//! reading the query point's own region matters: under skewed workloads
//! (e.g. the hotspot scenarios) workers and tasks cluster in *different*
//! places, so the point a query originates from says nothing about how many
//! candidates the search will actually wade through. The threshold is a
//! compile-time constant compared against deterministic counters — no
//! clocks, no sampling — so replays stay byte-identical.

use crate::engine::arena::ItemArena;
use crate::engine::index::grid::GridCandidateIndex;
use crate::engine::index::kd::KdCandidateIndex;
use crate::engine::index::CandidateIndex;
use crate::engine::item::SpatialItem;
use ftoa_types::{BoundingBox, Candidate, Location, PoolHandle, ProblemConfig};

/// Occupancy-counter resolution per axis (coarser than the bucket grid: the
/// counters estimate neighbourhood density, not bucket membership).
const REGIONS: usize = 8;

/// A query whose search disk overlaps coarse regions holding at least this
/// many live objects in total is routed to the grid; occupied-but-sparser
/// disks go to the KD-tree, and provably empty disks short-circuit without
/// searching at all. The value was picked by a threshold sweep on the
/// 100k-event scalability scenario: at `1`, every disk that provably holds
/// a candidate goes to the grid's bucket sweeps and the win over the pure
/// grid backend comes entirely from the emptiness short-circuit. Widening
/// the KD-tree band costs more than it saves on that scenario — each tree
/// query pays the fresh-buffer scan and its share of epoch rebuilds to
/// recover at most a handful of candidates.
pub const DENSE_REGION_THRESHOLD: u32 = 1;

/// Adaptive backend: a fully-maintained grid and KD-tree pair with per-query
/// routing by coarse-region occupancy summed over the query disk.
pub struct HybridCandidateIndex<T> {
    grid: GridCandidateIndex<T>,
    kd: KdCandidateIndex<T>,
    bounds: BoundingBox,
    /// Live-object counts per coarse region, row-major `REGIONS`×`REGIONS`.
    region_counts: [u32; REGIONS * REGIONS],
}

impl<T: SpatialItem> HybridCandidateIndex<T> {
    /// Create a pool over the problem's grid bounds.
    pub fn for_config(config: &ProblemConfig) -> Self {
        Self {
            grid: GridCandidateIndex::for_config(config),
            kd: KdCandidateIndex::new(),
            bounds: *config.grid.bounds(),
            region_counts: [0; REGIONS * REGIONS],
        }
    }

    /// The coarse region containing `(x, y)`, clamped into bounds exactly
    /// like bucket coordinates are.
    fn region_of(&self, x: f64, y: f64) -> usize {
        let (rx, ry) = self.region_coords(x, y);
        ry * REGIONS + rx
    }

    /// Clamped per-axis region coordinates of `(x, y)`.
    fn region_coords(&self, x: f64, y: f64) -> (usize, usize) {
        let rw = self.bounds.width() / REGIONS as f64;
        let rh = self.bounds.height() / REGIONS as f64;
        let rx = (((x - self.bounds.min_x) / rw).floor() as isize).clamp(0, REGIONS as isize - 1);
        let ry = (((y - self.bounds.min_y) / rh).floor() as isize).clamp(0, REGIONS as isize - 1);
        (rx as usize, ry as usize)
    }

    /// Route a query searching the radius-`radius` disk around `point`.
    /// Sums the live counts of every coarse region the disk's bounding
    /// square overlaps — the candidates the search will actually encounter —
    /// and routes dense disks to the grid, sparse-but-occupied ones to the
    /// KD-tree. The query point's own region is deliberately *not*
    /// special-cased: under skewed workloads queries originate far from the
    /// objects they search for. An infinite radius clamps to the full
    /// counter table, i.e. compares the total live count.
    ///
    /// A zero sum is a *proof of emptiness*, not merely a routing hint: the
    /// clamp in [`Self::region_coords`] is monotone and applied identically
    /// to item coordinates and disk corners, so every live item inside the
    /// disk is counted in one of the summed regions. Such queries return
    /// empty without touching either sub-index — in particular without
    /// forcing the KD-tree to absorb its buffered mutations for a search
    /// that cannot find anything.
    fn route(&self, point: &Location, radius: f64) -> Route {
        // A NaN radius admits nothing (`d² <= NaN²` is false for every
        // candidate), but NaN disk corners would collapse to region (0, 0)
        // under the clamp and mis-route the query into a sub-index sweep.
        // Short-circuit instead, matching the grid/kd/linear backends'
        // empty answer.
        if radius.is_nan() {
            return Route::Empty;
        }
        let (rx0, ry0) = self.region_coords(point.x - radius, point.y - radius);
        let (rx1, ry1) = self.region_coords(point.x + radius, point.y + radius);
        let mut live = 0u32;
        for ry in ry0..=ry1 {
            for rx in rx0..=rx1 {
                live += self.region_counts[ry * REGIONS + rx];
                if live >= DENSE_REGION_THRESHOLD {
                    return Route::Grid;
                }
            }
        }
        if live == 0 {
            Route::Empty
        } else {
            Route::Kd
        }
    }
}

/// Where [`HybridCandidateIndex::route`] sends a query.
enum Route {
    /// The disk provably holds no live object: answer empty immediately.
    Empty,
    /// Dense disk: bucket sweeps beat tree traversal.
    Grid,
    /// Sparse but occupied disk: geometric pruning beats empty-bucket walks.
    Kd,
}

impl<T: SpatialItem> CandidateIndex<T> for HybridCandidateIndex<T> {
    fn insert(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        let slot = handle.slot() as usize;
        self.region_counts[self.region_of(arena.xs()[slot], arena.ys()[slot])] += 1;
        self.grid.insert(arena, handle);
        self.kd.insert(arena, handle);
    }

    fn remove(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        // Called while the arena still holds the item, so the coordinates
        // are readable here.
        let slot = handle.slot() as usize;
        let region = self.region_of(arena.xs()[slot], arena.ys()[slot]);
        debug_assert!(self.region_counts[region] > 0, "region counter underflow");
        self.region_counts[region] -= 1;
        self.grid.remove(arena, handle);
        self.kd.remove(arena, handle);
    }

    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        match self.route(query, max_radius) {
            Route::Empty => None,
            Route::Grid => self.grid.nearest_within(arena, query, max_radius, feasible),
            Route::Kd => self.kd.nearest_within(arena, query, max_radius, feasible),
        }
    }

    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        match self.route(center, radius) {
            Route::Empty => {}
            Route::Grid => self.grid.for_each_within(arena, center, radius, visit),
            Route::Kd => self.kd.for_each_within(arena, center, radius, visit),
        }
    }

    fn candidates_examined(&self) -> u64 {
        self.grid.candidates_examined() + self.kd.candidates_examined()
    }

    fn structure_bytes(&self) -> usize {
        self.grid.structure_bytes()
            + self.kd.structure_bytes()
            + std::mem::size_of::<[u32; REGIONS * REGIONS]>()
    }
}
