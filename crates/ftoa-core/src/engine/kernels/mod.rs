//! Batched squared-distance kernels over struct-of-arrays coordinate
//! slices, with explicit SIMD implementations behind runtime dispatch.
//!
//! The candidate indexes used to compute one `Location::distance` per stored
//! object through a `Box<dyn>`-dispatched visitor, which hides the loop from
//! the auto-vectoriser. These kernels instead take the arena's (or the kd
//! backend's fresh-buffer) parallel `&[f64]` coordinate slices and evaluate
//! squared distances a register at a time. Three implementations share one
//! contract:
//!
//! * `scalar` — portable chunked loops ([`LANES`]-wide); the fallback and
//!   the bit-exactness oracle;
//! * `avx2` (`x86_64`) — 4 × f64 lanes, `is_x86_feature_detected!`-gated,
//!   masked tail loads instead of a scalar remainder loop;
//! * `neon` (`aarch64`) — 2 × f64 lanes; NEON is baseline on aarch64.
//!
//! [`KernelKind`] names the implementations; the active one is resolved
//! once from the `FTOA_KERNEL` environment variable
//! (`auto|scalar|avx2|neon`, unset ≡ `auto`) and cached. Requesting a
//! kernel the CPU cannot run fails with a clear error instead of silently
//! falling back, and [`force_kernel`] lets the bench harness and the
//! dispatch-equivalence tests switch kernels mid-process. Every SIMD path
//! is proptested to be **bit-identical** to the scalar oracle — same
//! positions, same squared distances, same tie order — so kernel selection
//! can never perturb the golden replay metrics.
//!
//! Everything is done on *squared* distances — callers take a single square
//! root per query when they need the metric value, instead of one per
//! candidate. Dead arena slots carry NaN coordinates, and `NaN <= r²` is
//! false, so vacant slots are excluded by the same comparison that applies
//! the radius filter: no per-slot liveness branch in the hot loop.
//!
//! **Length contract** (all entry points): the parallel slices must have
//! equal lengths. Debug builds assert this; release builds truncate to the
//! shortest slice. The check lives here in the dispatcher, so the per-kind
//! implementations assume equalised lengths.

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Chunk width of the batched scalar loops. Eight f64 lanes cover one
/// AVX-512 register or two AVX2 registers; scalar targets simply unroll by
/// eight. (The explicit SIMD kernels use their native register widths.)
pub const LANES: usize = 8;

/// One distance-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable chunked loops — always available, the exactness oracle.
    Scalar,
    /// Explicit AVX2 (`x86_64`, runtime-detected): 4 × f64 lanes.
    Avx2,
    /// Explicit NEON (`aarch64`, baseline feature): 2 × f64 lanes.
    Neon,
}

impl KernelKind {
    /// Every kind, in display order.
    pub const ALL: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Avx2, KernelKind::Neon];

    /// The name used by `FTOA_KERNEL` and reported in bench JSON.
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
        }
    }

    /// Can this kernel run on the current CPU and target?
    pub fn is_supported(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            KernelKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelKind::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest supported kernel (what `FTOA_KERNEL=auto` resolves to).
    pub fn best_supported() -> KernelKind {
        if KernelKind::Avx2.is_supported() {
            KernelKind::Avx2
        } else if KernelKind::Neon.is_supported() {
            KernelKind::Neon
        } else {
            KernelKind::Scalar
        }
    }

    /// Resolve the `FTOA_KERNEL` environment variable (unset ≡ `auto`).
    /// An explicitly requested kernel the CPU cannot run is an error —
    /// benchmarks must never silently measure a different kernel than the
    /// one asked for.
    pub fn from_env() -> Result<KernelKind, String> {
        KernelKind::select(std::env::var("FTOA_KERNEL").ok().as_deref())
    }

    /// [`Self::from_env`] with the request threaded explicitly (testable
    /// without mutating process environment).
    fn select(request: Option<&str>) -> Result<KernelKind, String> {
        let request = request.unwrap_or("auto");
        let requested = match request {
            "" | "auto" => return Ok(KernelKind::best_supported()),
            "scalar" => KernelKind::Scalar,
            "avx2" => KernelKind::Avx2,
            "neon" => KernelKind::Neon,
            other => {
                return Err(format!(
                    "unknown FTOA_KERNEL value {other:?}: expected auto, scalar, avx2 or neon"
                ))
            }
        };
        if requested.is_supported() {
            Ok(requested)
        } else {
            Err(format!(
                "FTOA_KERNEL={request} requested, but this CPU/target does not support the \
                 {} kernel; unset FTOA_KERNEL or use FTOA_KERNEL=auto",
                requested.name()
            ))
        }
    }
}

/// The `FTOA_KERNEL` selection, resolved on first use and cached for the
/// life of the process.
static SELECTED: OnceLock<KernelKind> = OnceLock::new();

/// Process-wide kernel override (0 = none, otherwise 1 + discriminant).
/// One relaxed load per *query* — not per candidate — so the hook costs
/// nothing on the hot path.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The kernel every non-`_in` entry point currently dispatches to: the
/// [`force_kernel`] override if one is set, else the cached `FTOA_KERNEL`
/// selection. Panics (once, with the parse error) if `FTOA_KERNEL` is set
/// to an unknown value or to a kernel this CPU cannot run.
pub fn active_kernel() -> KernelKind {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelKind::Scalar,
        2 => KernelKind::Avx2,
        3 => KernelKind::Neon,
        _ => *SELECTED.get_or_init(|| match KernelKind::from_env() {
            Ok(kind) => kind,
            Err(message) => panic!("{message}"),
        }),
    }
}

/// Override (or with `None`, restore) the kernel used by subsequent
/// queries, bypassing the cached `FTOA_KERNEL` selection. For benches and
/// dispatch-equivalence tests; panics if the kernel is unsupported here, so
/// an unsupported kind can never reach the unsafe entry points. Safe to
/// race (it is one atomic), but concurrent tests observing each other's
/// overrides is benign *only because* every kernel is bit-identical.
pub fn force_kernel(kind: Option<KernelKind>) {
    if let Some(kind) = kind {
        assert!(
            kind.is_supported(),
            "cannot force the {} kernel: unsupported on this CPU/target",
            kind.name()
        );
    }
    let encoded = match kind {
        None => 0,
        Some(KernelKind::Scalar) => 1,
        Some(KernelKind::Avx2) => 2,
        Some(KernelKind::Neon) => 3,
    };
    OVERRIDE.store(encoded, Ordering::Relaxed);
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
    for_each_within_sq_in(active_kernel(), xs, ys, qx, qy, r2, visit);
}

/// [`for_each_within_sq`] on an explicitly chosen kernel (bench and
/// exactness-test entry point). `kind` must be supported on this CPU; the
/// public selection paths ([`KernelKind::from_env`], [`force_kernel`])
/// guarantee that.
#[allow(unsafe_code, reason = "the single place the target-feature kernels are entered")]
#[inline]
pub fn for_each_within_sq_in(
    kind: KernelKind,
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    r2: f64,
    visit: &mut impl FnMut(usize, f64),
) {
    // The module-level length contract: assert in debug, truncate in
    // release, exactly once, here in the dispatcher.
    debug_assert_eq!(xs.len(), ys.len(), "coordinate slices must be parallel");
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    match kind {
        KernelKind::Scalar => scalar::for_each_within_sq(xs, ys, qx, qy, r2, visit),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => {
            // SAFETY: `Avx2` is only selected by `KernelKind::from_env` or
            // `force_kernel`, both of which check `is_supported` (runtime
            // `is_x86_feature_detected!("avx2")`) first, so the callee's
            // target-feature contract holds.
            unsafe { avx2::for_each_within_sq(xs, ys, qx, qy, r2, visit) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            // SAFETY: NEON is a baseline feature of every aarch64 target;
            // the feature the callee enables is statically present.
            unsafe { neon::for_each_within_sq(xs, ys, qx, qy, r2, visit) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx2 => unreachable!("AVX2 kernel selected on a non-x86_64 target"),
        #[cfg(not(target_arch = "aarch64"))]
        KernelKind::Neon => unreachable!("NEON kernel selected on a non-aarch64 target"),
    }
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
    nearest_within_sq_in(active_kernel(), xs, ys, qx, qy, max_r2, accept)
}

/// [`nearest_within_sq`] on an explicitly chosen kernel.
#[inline]
pub fn nearest_within_sq_in(
    kind: KernelKind,
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    max_r2: f64,
    accept: &mut impl FnMut(usize) -> bool,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for_each_within_sq_in(kind, xs, ys, qx, qy, max_r2, &mut |i, d2| {
        if best.is_some_and(|(_, best_d2)| d2 >= best_d2) {
            return;
        }
        if accept(i) {
            best = Some((i, d2));
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kinds that can actually run here (scalar always; avx2/neon per
    /// target) — every test sweeps all of them.
    fn supported_kinds() -> Vec<KernelKind> {
        KernelKind::ALL.iter().copied().filter(|k| k.is_supported()).collect()
    }

    fn coords(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic scatter with no exact distance ties from (0, 0).
        let xs: Vec<f64> = (0..n).map(|i| (i as f64) * 1.25 + 0.1).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.75).collect();
        (xs, ys)
    }

    #[test]
    fn within_matches_scalar_reference_across_chunk_boundaries() {
        for kind in supported_kinds() {
            for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
                let (xs, ys) = coords(n);
                let (qx, qy, r2) = (3.0, 2.0, 30.0);
                let mut got = Vec::new();
                for_each_within_sq_in(kind, &xs, &ys, qx, qy, r2, &mut |i, d2| got.push((i, d2)));
                let want: Vec<(usize, f64)> = (0..n)
                    .filter_map(|i| {
                        let d2 = (xs[i] - qx).powi(2) + (ys[i] - qy).powi(2);
                        (d2 <= r2).then_some((i, d2))
                    })
                    .collect();
                assert_eq!(got, want, "kind = {}, n = {n}", kind.name());
            }
        }
    }

    #[test]
    fn nan_entries_are_never_visited() {
        for kind in supported_kinds() {
            let xs = [1.0, f64::NAN, 2.0, f64::NAN, 3.0];
            let ys = [1.0, f64::NAN, 2.0, 5.0, f64::NAN];
            let mut seen = Vec::new();
            for_each_within_sq_in(kind, &xs, &ys, 0.0, 0.0, f64::INFINITY, &mut |i, _| {
                seen.push(i)
            });
            assert_eq!(seen, vec![0, 2], "kind = {}: NaN lanes must fail", kind.name());
        }
    }

    #[test]
    fn masked_tails_do_not_fabricate_origin_hits() {
        // A query at the origin with every real point out of radius: the
        // masked-off lanes of a SIMD tail read as (0, 0), which lies *inside*
        // the radius — the validity mask must discard them for every tail
        // width.
        for kind in supported_kinds() {
            for n in 1..=16 {
                let xs = vec![100.0; n];
                let ys = vec![100.0; n];
                let mut seen = Vec::new();
                for_each_within_sq_in(kind, &xs, &ys, 0.0, 0.0, 1.0, &mut |i, _| seen.push(i));
                assert!(seen.is_empty(), "kind = {}, n = {n}: {seen:?}", kind.name());
            }
        }
    }

    #[test]
    fn nearest_picks_the_minimum_and_respects_accept() {
        for kind in supported_kinds() {
            let (xs, ys) = coords(20);
            let all = nearest_within_sq_in(kind, &xs, &ys, 4.0, 3.0, f64::INFINITY, &mut |_| true)
                .unwrap();
            let brute = (0..20)
                .map(|i| (i, (xs[i] - 4.0).powi(2) + (ys[i] - 3.0).powi(2)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(all, brute, "kind = {}", kind.name());
            let filtered =
                nearest_within_sq_in(kind, &xs, &ys, 4.0, 3.0, f64::INFINITY, &mut |i| {
                    i != brute.0
                })
                .unwrap();
            assert_ne!(filtered.0, brute.0);
            assert!(filtered.1 >= brute.1);
        }
    }

    #[test]
    fn nearest_honours_the_radius_bound() {
        for kind in supported_kinds() {
            let xs = [0.0, 10.0];
            let ys = [0.0, 0.0];
            assert_eq!(nearest_within_sq_in(kind, &xs, &ys, 6.0, 0.0, 9.0, &mut |_| true), None);
            let hit = nearest_within_sq_in(kind, &xs, &ys, 6.0, 0.0, 16.0, &mut |_| true).unwrap();
            assert_eq!(hit.0, 1, "kind = {}", kind.name());
        }
    }

    #[test]
    fn kernel_selection_resolves_names_and_rejects_unknowns() {
        assert_eq!(KernelKind::select(None), Ok(KernelKind::best_supported()));
        assert_eq!(KernelKind::select(Some("auto")), Ok(KernelKind::best_supported()));
        assert_eq!(KernelKind::select(Some("")), Ok(KernelKind::best_supported()));
        assert_eq!(KernelKind::select(Some("scalar")), Ok(KernelKind::Scalar));
        let err = KernelKind::select(Some("sse9")).unwrap_err();
        assert!(err.contains("unknown FTOA_KERNEL"), "{err}");
        for kind in KernelKind::ALL {
            let selected = KernelKind::select(Some(kind.name()));
            if kind.is_supported() {
                assert_eq!(selected, Ok(kind));
            } else {
                let err = selected.unwrap_err();
                assert!(err.contains("does not support"), "{err}");
                assert!(err.contains(kind.name()), "{err}");
            }
        }
    }

    #[test]
    fn forced_kernels_drive_the_default_entry_points() {
        for kind in supported_kinds() {
            force_kernel(Some(kind));
            assert_eq!(active_kernel(), kind);
            let (xs, ys) = coords(13);
            let mut got = Vec::new();
            for_each_within_sq(&xs, &ys, 3.0, 2.0, 30.0, &mut |i, d2| got.push((i, d2)));
            let mut want = Vec::new();
            for_each_within_sq_in(KernelKind::Scalar, &xs, &ys, 3.0, 2.0, 30.0, &mut |i, d2| {
                want.push((i, d2))
            });
            assert_eq!(got, want, "kind = {}", kind.name());
        }
        force_kernel(None);
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
