//! The uniform-grid bucket backend, with interleaved per-bucket members.
//!
//! Each bucket keeps its members as one contiguous `Vec<Member>` — the
//! coordinates interleaved with the arena slot. Buckets are small (the grid
//! is sized so the expected occupancy is a handful of members), so the hot
//! cost of a query is *visiting* buckets, not scanning within them: one
//! interleaved allocation per bucket touches half the cache lines the
//! earlier parallel-`Vec` layout did. Per-row and per-column occupancy
//! bitmaps let both queries walk only the non-empty buckets of their span,
//! and a bounding box of each bucket's members lets them pass over a bucket
//! that cannot hold an answer without reading it. (The dense-slice
//! [`crate::engine::kernels`] loops stay the inner loop of the linear, kd
//! and hybrid backends, where candidates *are* contiguous.) Removal is
//! O(1): a per-arena-slot back-pointer records each member's `(bucket,
//! position)` and members are swap-removed with the back-pointer of the
//! displaced tail entry patched up.
//!
//! The scan semantics are fixed: the ring order, the bounding-box bucket
//! selection, and what counts as an *examined* candidate, which is every
//! member of every bucket a query *opens*. A query opens a non-empty bucket
//! of its span unless the bucket's box lies beyond the radius or, for the
//! nearest query, no closer than the best candidate so far. The box distance
//! never exceeds any member's computed distance, so a member of a skipped
//! bucket could neither be reported nor reach the feasibility filter: the
//! skips change no answer, tie-break or `feasible` call, only the examined
//! count, which the golden replay metrics pin byte for byte.

use crate::engine::arena::ItemArena;
use crate::engine::index::CandidateIndex;
use crate::engine::item::SpatialItem;
use crate::memory::vec_bytes;
use ftoa_types::{BoundingBox, Candidate, Location, PoolHandle, ProblemConfig};
use std::marker::PhantomData;

/// `slot_pos` sentinel: the arena slot is not a member of any bucket.
const NOT_MEMBER: (u32, u32) = (u32::MAX, u32::MAX);

/// The box of an empty bucket, `[min_x, min_y, max_x, max_y]`: the first
/// insert's `min`/`max` replaces every entry with that member's coordinates.
const EMPTY_BOX: [f64; 4] = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];

/// Squared distance from `(qx, qy)` to the box `[min_x, min_y, max_x,
/// max_y]`, in the members' own arithmetic: per axis the gap is zero inside
/// the box, else the difference to the nearer edge, which (IEEE subtraction
/// being monotone and sign-symmetric) is at most that member's `|dx|` or
/// `|dy|`. So the result never exceeds a member's computed `d2`.
fn box_dist_sq(b: &[f64; 4], qx: f64, qy: f64) -> f64 {
    let dx = (b[0] - qx).max(qx - b[2]).max(0.0);
    let dy = (b[1] - qy).max(qy - b[3]).max(0.0);
    dx * dx + dy * dy
}

/// Bits `lo..=hi` clipped to `0..n` (`n <= 64`); zero when the clipped
/// range is empty.
fn span_mask(lo: isize, hi: isize, n: usize) -> u64 {
    let (lo, hi) = (lo.max(0), hi.min(n as isize - 1));
    if lo > hi {
        return 0;
    }
    (u64::MAX >> (63 - (hi - lo))) << lo
}

/// `masks[i]`, or no bits when `i` lies outside the grid.
fn mask_at(masks: &[u64], i: isize) -> u64 {
    usize::try_from(i).ok().and_then(|i| masks.get(i)).copied().unwrap_or(0)
}

/// The set bits of `first | second` in ascending order; at each,
/// `visit(bit, false)` if `first` holds it, then `visit(bit, true)` if
/// `second` does.
fn for_each_bit_of_pair(first: u64, second: u64, mut visit: impl FnMut(usize, bool)) {
    let mut bits = first | second;
    while bits != 0 {
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if first & (1 << bit) != 0 {
            visit(bit, false);
        }
        if second & (1 << bit) != 0 {
            visit(bit, true);
        }
    }
}

/// One bucket member: coordinates interleaved with the arena slot so a
/// bucket visit touches a single contiguous run of memory.
#[derive(Debug, Clone, Copy)]
struct Member {
    x: f64,
    y: f64,
    slot: u32,
}

impl Member {
    /// Placeholder for unused inline capacity; never iterated (scans stop
    /// at the bucket length).
    const VACANT: Self = Self { x: f64::NAN, y: f64::NAN, slot: u32::MAX };
}

/// Members stored inline in the bucket table itself; the grid is sized for
/// an expected occupancy of a couple of members, so the spill vector is the
/// rare case and a bucket visit usually stays inside the contiguous
/// `Vec<Bucket>` — no per-bucket heap hop.
const INLINE_MEMBERS: usize = 4;

/// One bucket's members, in insertion order perturbed only by swap-removes —
/// the same logical order evolution a plain `Vec<Member>` would have, split
/// into an inline prefix and a heap spill tail.
#[derive(Debug, Clone)]
struct Bucket {
    len: u32,
    inline: [Member; INLINE_MEMBERS],
    spill: Vec<Member>,
}

impl Default for Bucket {
    fn default() -> Self {
        Self { len: 0, inline: [Member::VACANT; INLINE_MEMBERS], spill: Vec::new() }
    }
}

impl Bucket {
    fn len(&self) -> usize {
        self.len as usize
    }

    fn push(&mut self, m: Member) {
        let n = self.len();
        if n < INLINE_MEMBERS {
            self.inline[n] = m;
        } else {
            self.spill.push(m);
        }
        self.len += 1;
    }

    fn get(&self, i: usize) -> Member {
        if i < INLINE_MEMBERS {
            self.inline[i]
        } else {
            self.spill[i - INLINE_MEMBERS]
        }
    }

    fn set(&mut self, i: usize, m: Member) {
        if i < INLINE_MEMBERS {
            self.inline[i] = m;
        } else {
            self.spill[i - INLINE_MEMBERS] = m;
        }
    }

    /// Remove the member at `pos`, moving the last member into its place —
    /// the same permutation `Vec::swap_remove` produces on the logical
    /// sequence.
    fn swap_remove(&mut self, pos: usize) {
        let last_pos = self.len() - 1;
        let last = if last_pos >= INLINE_MEMBERS {
            self.spill.pop().expect("spill holds members past the inline prefix")
        } else {
            self.inline[last_pos]
        };
        if pos != last_pos {
            self.set(pos, last);
        }
        self.len -= 1;
    }

    /// Members in logical (insertion-then-swap) order.
    fn iter(&self) -> impl Iterator<Item = &Member> {
        let n = self.len();
        self.inline[..n.min(INLINE_MEMBERS)]
            .iter()
            .chain(&self.spill[..n.saturating_sub(INLINE_MEMBERS)])
    }
}

/// Indexed backend: arena slots bucketed by location on a uniform grid, so
/// nearest-feasible queries expand ring by ring and reachable-disk range
/// queries touch only the overlapping buckets.
#[derive(Debug, Clone)]
pub struct GridCandidateIndex<T> {
    bounds: BoundingBox,
    nx: usize,
    ny: usize,
    buckets: Vec<Bucket>,
    /// Arena slot → (bucket, position within bucket); `NOT_MEMBER` if absent.
    slot_pos: Vec<(u32, u32)>,
    /// Bit `bx` of `row_masks[by]` is set iff bucket `(bx, by)` is
    /// non-empty (`nx` is clamped to 64, so one word covers a row). Range
    /// queries and the rows of a nearest query's ring walk set bits instead
    /// of probing every bucket: most of a span is empty buckets, which hold
    /// nothing to scan or count.
    row_masks: Vec<u64>,
    /// The transpose of `row_masks`: bit `by` of `col_masks[bx]` is set iff
    /// bucket `(bx, by)` is non-empty (`ny` is clamped to 64). The columns
    /// of a nearest query's ring walk these bits.
    col_masks: Vec<u64>,
    /// Per bucket, `[min_x, min_y, max_x, max_y]` over the members inserted
    /// since it was last empty ([`EMPTY_BOX`] while empty). A removal that
    /// leaves members behind keeps the box, which then still covers every
    /// live member, so a query that skips a bucket by its box skips nothing
    /// it could have reported.
    boxes: Vec<[f64; 4]>,
    len: usize,
    examined: u64,
    _items: PhantomData<T>,
}

impl<T: SpatialItem> GridCandidateIndex<T> {
    /// Create a pool over the problem's grid bounds. The bucket resolution
    /// reuses the problem grid but is capped at 64×64 so tiny instances do
    /// not pay for thousands of empty buckets.
    pub fn for_config(config: &ProblemConfig) -> Self {
        let nx = config.grid.nx().clamp(1, 64);
        let ny = config.grid.ny().clamp(1, 64);
        Self {
            bounds: *config.grid.bounds(),
            nx,
            ny,
            buckets: vec![Bucket::default(); nx * ny],
            slot_pos: Vec::new(),
            row_masks: vec![0; ny],
            col_masks: vec![0; nx],
            boxes: vec![EMPTY_BOX; nx * ny],
            len: 0,
            examined: 0,
            _items: PhantomData,
        }
    }

    fn bucket_coords(&self, x: f64, y: f64) -> (usize, usize) {
        let cw = self.bounds.width() / self.nx as f64;
        let ch = self.bounds.height() / self.ny as f64;
        let cx = (((x - self.bounds.min_x) / cw).floor() as isize).clamp(0, self.nx as isize - 1);
        let cy = (((y - self.bounds.min_y) / ch).floor() as isize).clamp(0, self.ny as isize - 1);
        (cx as usize, cy as usize)
    }

    /// Open one non-empty bucket for the nearest query, unless its box lies
    /// beyond `max_r2` or no closer than `best`, where every member would
    /// fail the test below. An opened bucket counts every member and keeps
    /// the nearest in-radius feasible one (squared-distance domain, earliest
    /// member wins exact ties — the strict `<` improvement test below).
    #[allow(clippy::too_many_arguments, reason = "private hot-loop helper of the ring walk")]
    fn scan_bucket_nearest(
        &self,
        arena: &ItemArena<T>,
        bucket: usize,
        qx: f64,
        qy: f64,
        max_r2: f64,
        best: &mut Option<(usize, f64)>,
        scanned: &mut u64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) {
        let box_d2 = box_dist_sq(&self.boxes[bucket], qx, qy);
        if box_d2 > max_r2 || best.is_some_and(|(_, best_d2)| box_d2 >= best_d2) {
            return;
        }
        let b = &self.buckets[bucket];
        *scanned += b.len() as u64;
        for m in b.iter() {
            let dx = m.x - qx;
            let dy = m.y - qy;
            let d2 = dx * dx + dy * dy;
            if d2 > max_r2 || best.is_some_and(|(_, best_d2)| d2 >= best_d2) {
                continue;
            }
            let slot = m.slot as usize;
            let item = arena.slot_item(slot).expect("bucket members are live");
            if feasible(item) {
                *best = Some((slot, d2));
            }
        }
    }
}

impl<T: SpatialItem> CandidateIndex<T> for GridCandidateIndex<T> {
    fn insert(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        let slot = handle.slot() as usize;
        if slot >= self.slot_pos.len() {
            self.slot_pos.resize(slot + 1, NOT_MEMBER);
        }
        debug_assert_eq!(self.slot_pos[slot], NOT_MEMBER, "slot inserted twice");
        let (x, y) = (arena.xs()[slot], arena.ys()[slot]);
        let (bx, by) = self.bucket_coords(x, y);
        let bucket = by * self.nx + bx;
        let b = &mut self.buckets[bucket];
        self.slot_pos[slot] = (bucket as u32, b.len() as u32);
        b.push(Member { x, y, slot: slot as u32 });
        self.row_masks[by] |= 1 << bx;
        self.col_masks[bx] |= 1 << by;
        let [min_x, min_y, max_x, max_y] = self.boxes[bucket];
        self.boxes[bucket] = [min_x.min(x), min_y.min(y), max_x.max(x), max_y.max(y)];
        self.len += 1;
    }

    fn remove(&mut self, _arena: &ItemArena<T>, handle: PoolHandle) {
        let slot = handle.slot() as usize;
        let (bucket, pos) = match self.slot_pos.get(slot) {
            Some(&entry) if entry != NOT_MEMBER => (entry.0 as usize, entry.1 as usize),
            _ => return,
        };
        let b = &mut self.buckets[bucket];
        b.swap_remove(pos);
        if pos < b.len() {
            // The displaced tail member now lives at `pos`.
            self.slot_pos[b.get(pos).slot as usize].1 = pos as u32;
        } else if b.len() == 0 {
            let (bx, by) = (bucket % self.nx, bucket / self.nx);
            self.row_masks[by] &= !(1 << bx);
            self.col_masks[bx] &= !(1 << by);
            self.boxes[bucket] = EMPTY_BOX;
        }
        self.slot_pos[slot] = NOT_MEMBER;
        self.len -= 1;
    }

    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        if self.len == 0 || max_radius.is_nan() || max_radius < 0.0 {
            return None;
        }
        let cw = self.bounds.width() / self.nx as f64;
        let ch = self.bounds.height() / self.ny as f64;
        let min_cell = cw.min(ch);
        let (qbx, qby) = self.bucket_coords(query.x, query.y);
        // The widest ring that still reaches a bucket of the grid.
        let last_ring = qbx.max(qby).max(self.nx - 1 - qbx).max(self.ny - 1 - qby);
        let max_r2 = max_radius * max_radius;
        let mut best: Option<(usize, f64)> = None;
        let mut scanned = 0u64;

        for ring in 0..=last_ring {
            // A point in ring `ring` is at least `(ring - 1) * min_cell` away
            // from the query. Once we have a candidate closer than that — or
            // the whole ring lies beyond `max_radius` — we are done.
            if ring >= 1 {
                let ring_min_dist = (ring as f64 - 1.0) * min_cell;
                if ring_min_dist > max_radius {
                    break;
                }
                if let Some((_, best_d2)) = best {
                    if best_d2.sqrt() <= ring_min_dist {
                        break;
                    }
                }
            }
            // The square ring at Chebyshev distance `ring`, clipped to the
            // grid and visited without materialising the coordinate list:
            // for each column from `qx - r` to `qx + r`, its bucket in row
            // `qy - r` and then its bucket in row `qy + r`; then for each
            // row from `qy - r + 1` to `qy + r - 1`, its bucket in column
            // `qx - r` and then its bucket in column `qx + r`. The occupancy
            // masks of those two rows and two columns yield the non-empty
            // buckets in that order; empty ones hold nothing to scan.
            let (qx, qy, r) = (qbx as isize, qby as isize, ring as isize);
            let mut open = |this: &Self, bx: usize, by: usize| {
                this.scan_bucket_nearest(
                    arena,
                    by * this.nx + bx,
                    query.x,
                    query.y,
                    max_r2,
                    &mut best,
                    &mut scanned,
                    feasible,
                );
            };
            if ring == 0 {
                if self.row_masks[qby] & (1 << qbx) != 0 {
                    open(self, qbx, qby);
                }
            } else {
                let cols = span_mask(qx - r, qx + r, self.nx);
                let below = mask_at(&self.row_masks, qy - r) & cols;
                let above = mask_at(&self.row_masks, qy + r) & cols;
                for_each_bit_of_pair(below, above, |bx, upper| {
                    open(self, bx, if upper { qby + ring } else { qby - ring })
                });
                let rows = span_mask(qy - r + 1, qy + r - 1, self.ny);
                let left = mask_at(&self.col_masks, qx - r) & rows;
                let right = mask_at(&self.col_masks, qx + r) & rows;
                for_each_bit_of_pair(left, right, |by, rightward| {
                    open(self, if rightward { qbx + ring } else { qbx - ring }, by)
                });
            }
        }
        self.examined += scanned;
        best.map(|(slot, d2)| arena.candidate_at_slot(slot, d2))
    }

    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        if self.len == 0 || radius.is_nan() || radius < 0.0 {
            return;
        }
        let (min_bx, min_by) = self.bucket_coords(center.x - radius, center.y - radius);
        let (max_bx, max_by) = self.bucket_coords(center.x + radius, center.y + radius);
        let r2 = radius * radius;
        let mut scanned = 0u64;
        let span = span_mask(min_bx as isize, max_bx as isize, self.nx);
        for by in min_by..=max_by {
            // Walk only the non-empty buckets of the row, and of those open
            // only the ones whose box reaches the disk: the box distance
            // never exceeds a member's, so a skipped bucket holds nobody
            // within `radius`.
            let mut row = self.row_masks[by] & span;
            while row != 0 {
                let bx = row.trailing_zeros() as usize;
                row &= row - 1;
                let bucket = by * self.nx + bx;
                if box_dist_sq(&self.boxes[bucket], center.x, center.y) > r2 {
                    continue;
                }
                let b = &self.buckets[bucket];
                scanned += b.len() as u64;
                for m in b.iter() {
                    let dx = m.x - center.x;
                    let dy = m.y - center.y;
                    let d2 = dx * dx + dy * dy;
                    if d2 <= r2 {
                        let slot = m.slot as usize;
                        visit(
                            arena.candidate_at_slot(slot, d2),
                            arena.slot_item(slot).expect("bucket members are live"),
                        );
                    }
                }
            }
        }
        self.examined += scanned;
    }

    fn candidates_examined(&self) -> u64 {
        self.examined
    }

    fn structure_bytes(&self) -> usize {
        let mut bytes = vec_bytes::<Bucket>(self.buckets.capacity())
            + vec_bytes::<(u32, u32)>(self.slot_pos.capacity())
            + vec_bytes::<u64>(self.row_masks.capacity() + self.col_masks.capacity())
            + vec_bytes::<[f64; 4]>(self.boxes.capacity());
        for b in &self.buckets {
            bytes += vec_bytes::<Member>(b.spill.capacity());
        }
        bytes
    }
}
