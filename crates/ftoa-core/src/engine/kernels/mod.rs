//! Batched squared-distance kernels over struct-of-arrays coordinate
//! slices.
//!
//! The candidate indexes used to compute one `Location::distance` per stored
//! object through a `Box<dyn>`-dispatched visitor, which hides the loop from
//! the auto-vectoriser. These kernels instead take the arena's (or the kd
//! backend's fresh-buffer) parallel `&[f64]` coordinate slices and sweep
//! them in [`LANES`]-wide chunks: straight-line distance arithmetic over a
//! whole chunk first, which the compiler can vectorise, then a pass over the
//! radius test. The linear oracle and the kd backend call them; the grid
//! backend walks its buckets with its own inline loops.
//!
//! Everything is done on *squared* distances — callers take a single square
//! root per query when they need the metric value, instead of one per
//! candidate. Arithmetic is plain `dx * dx + dy * dy` (two roundings, no
//! FMA), so every squared distance is bit-identical to a naive per-point
//! loop. Dead arena slots carry NaN coordinates, and `NaN <= r²` is false,
//! so vacant slots are excluded by the same comparison that applies the
//! radius filter: no per-slot liveness branch in the hot loop.
//!
//! **Length contract** (both entry points): the parallel slices must have
//! equal lengths. Debug builds assert this; release builds truncate to the
//! shortest slice.
//!
//! [`KernelKind`], [`active_kernel`] and the `_in` entry points remain only
//! for the benchmark package under `bench/`, which names its kernel in its
//! report; they go with the next benchmark change.

/// Chunk width of the batched loops. Eight f64 lanes cover one AVX-512
/// register or two AVX2 registers; scalar targets simply unroll by eight.
pub const LANES: usize = 8;

/// The one distance kernel, by name. Kept only so the benchmark package
/// under `bench/` builds unchanged; it goes with the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The portable chunked loop.
    Scalar,
}

impl KernelKind {
    /// The name reported in bench JSON.
    pub const fn name(self) -> &'static str {
        "scalar"
    }

    /// The fastest kernel on this CPU: always [`KernelKind::Scalar`].
    pub fn best_supported() -> KernelKind {
        KernelKind::Scalar
    }
}

/// The kernel every query runs: always [`KernelKind::Scalar`]. Kept for
/// `bench/`, like [`KernelKind`].
pub fn active_kernel() -> KernelKind {
    KernelKind::Scalar
}

/// Visit every position `i` with `(xs[i] - qx)² + (ys[i] - qy)² <= r2`,
/// in ascending position order, passing the squared distance along.
///
/// NaN coordinates (vacant arena slots) never satisfy the comparison and
/// are skipped. `r2` may be `f64::INFINITY` for unbounded queries; NaN
/// entries are still excluded because `NaN <= INFINITY` is false.
#[inline]
pub fn for_each_within_sq(
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    r2: f64,
    visit: &mut impl FnMut(usize, f64),
) {
    debug_assert_eq!(xs.len(), ys.len(), "coordinate slices must be parallel");
    let n = xs.len().min(ys.len());
    let mut x_chunks = xs[..n].chunks_exact(LANES);
    let mut y_chunks = ys[..n].chunks_exact(LANES);
    let mut base = 0usize;
    let mut d2 = [0.0f64; LANES];
    for (xc, yc) in (&mut x_chunks).zip(&mut y_chunks) {
        // Straight-line distance arithmetic over the whole chunk first
        // (vectorisable), then a scalar pass over the radius test.
        for lane in 0..LANES {
            let dx = xc[lane] - qx;
            let dy = yc[lane] - qy;
            d2[lane] = dx * dx + dy * dy;
        }
        for (lane, &d2) in d2.iter().enumerate() {
            if d2 <= r2 {
                visit(base + lane, d2);
            }
        }
        base += LANES;
    }
    for (offset, (x, y)) in x_chunks.remainder().iter().zip(y_chunks.remainder()).enumerate() {
        let dx = x - qx;
        let dy = y - qy;
        let d2 = dx * dx + dy * dy;
        if d2 <= r2 {
            visit(base + offset, d2);
        }
    }
}

/// [`for_each_within_sq`]; `kind` is ignored. Kept for `bench/`, like
/// [`KernelKind`].
#[inline]
pub fn for_each_within_sq_in(
    _kind: KernelKind,
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    r2: f64,
    visit: &mut impl FnMut(usize, f64),
) {
    for_each_within_sq(xs, ys, qx, qy, r2, visit);
}

/// The position of the nearest accepted point within `max_r2` (squared
/// radius, inclusive) of `(qx, qy)`, together with its squared distance.
///
/// `accept` is only consulted for candidates that would improve on the
/// current best (it is a pure feasibility predicate); exact ties keep the
/// earliest position, matching the scan order the linear backend always had.
#[inline]
pub fn nearest_within_sq(
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    max_r2: f64,
    accept: &mut impl FnMut(usize) -> bool,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for_each_within_sq(xs, ys, qx, qy, max_r2, &mut |i, d2| {
        if best.is_some_and(|(_, best_d2)| d2 >= best_d2) {
            return;
        }
        if accept(i) {
            best = Some((i, d2));
        }
    });
    best
}

/// [`nearest_within_sq`]; `kind` is ignored. Kept for `bench/`, like
/// [`KernelKind`].
#[inline]
pub fn nearest_within_sq_in(
    _kind: KernelKind,
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    max_r2: f64,
    accept: &mut impl FnMut(usize) -> bool,
) -> Option<(usize, f64)> {
    nearest_within_sq(xs, ys, qx, qy, max_r2, accept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic scatter with no exact distance ties from (0, 0).
        let xs: Vec<f64> = (0..n).map(|i| (i as f64) * 1.25 + 0.1).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.75).collect();
        (xs, ys)
    }

    #[test]
    fn within_matches_scalar_reference_across_chunk_boundaries() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let (xs, ys) = coords(n);
            let (qx, qy, r2) = (3.0, 2.0, 30.0);
            let mut got = Vec::new();
            for_each_within_sq(&xs, &ys, qx, qy, r2, &mut |i, d2| got.push((i, d2)));
            let want: Vec<(usize, f64)> = (0..n)
                .filter_map(|i| {
                    let d2 = (xs[i] - qx).powi(2) + (ys[i] - qy).powi(2);
                    (d2 <= r2).then_some((i, d2))
                })
                .collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn nan_entries_are_never_visited() {
        let xs = [1.0, f64::NAN, 2.0, f64::NAN, 3.0];
        let ys = [1.0, f64::NAN, 2.0, 5.0, f64::NAN];
        let mut seen = Vec::new();
        for_each_within_sq(&xs, &ys, 0.0, 0.0, f64::INFINITY, &mut |i, _| seen.push(i));
        assert_eq!(seen, vec![0, 2], "NaN slots must fail the radius test");
    }

    #[test]
    fn masked_tails_do_not_fabricate_origin_hits() {
        // A query at the origin with every real point out of radius. The
        // chunk loop's lane buffer starts zeroed, and a zero distance lies
        // *inside* the radius, so a lane past the real points must never be
        // reported, whatever the remainder after the last full chunk.
        for n in 1..=16 {
            let xs = vec![100.0; n];
            let ys = vec![100.0; n];
            let mut seen = Vec::new();
            for_each_within_sq(&xs, &ys, 0.0, 0.0, 1.0, &mut |i, _| seen.push(i));
            assert!(seen.is_empty(), "n = {n}: {seen:?}");
        }
    }

    #[test]
    fn nearest_picks_the_minimum_and_respects_accept() {
        let (xs, ys) = coords(20);
        let all = nearest_within_sq(&xs, &ys, 4.0, 3.0, f64::INFINITY, &mut |_| true).unwrap();
        let brute = (0..20)
            .map(|i| (i, (xs[i] - 4.0).powi(2) + (ys[i] - 3.0).powi(2)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(all, brute);
        let filtered =
            nearest_within_sq(&xs, &ys, 4.0, 3.0, f64::INFINITY, &mut |i| i != brute.0).unwrap();
        assert_ne!(filtered.0, brute.0);
        assert!(filtered.1 >= brute.1);
    }

    #[test]
    fn nearest_honours_the_radius_bound() {
        let xs = [0.0, 10.0];
        let ys = [0.0, 0.0];
        assert_eq!(nearest_within_sq(&xs, &ys, 6.0, 0.0, 9.0, &mut |_| true), None);
        let hit = nearest_within_sq(&xs, &ys, 6.0, 0.0, 16.0, &mut |_| true).unwrap();
        assert_eq!(hit.0, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_truncate_mismatched_slices() {
        // The documented release-mode contract: the longer slice is
        // truncated to the shorter, instead of panicking or reading past it.
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0];
        let mut seen = Vec::new();
        for_each_within_sq(&xs, &ys, 0.0, 0.0, f64::INFINITY, &mut |i, _| seen.push(i));
        assert_eq!(seen, vec![0, 1]);
    }
}
