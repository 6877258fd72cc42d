//! Kernel-exactness property tests: every explicit SIMD distance kernel is
//! **bit-identical** to the portable scalar oracle.
//!
//! The dispatch contract (see `ftoa_core::engine::kernels`) is that choosing
//! a kernel — by CPU detection, `FTOA_KERNEL`, or `force_kernel` — can never
//! change a single output bit: same visited positions in the same ascending
//! order, same squared distances to the last ulp, same NaN-vacancy
//! exclusions, same tie-breaks. These properties drive every supported
//! kernel on this machine against the scalar reference across random point
//! sets (lengths spanning the 4-wide AVX2 / 2-wide NEON chunk boundaries,
//! NaN-poisoned vacant slots, degenerate and unbounded radii).

use ftoa::core_algorithms::engine::kernels::{self, KernelKind};
use proptest::collection::vec;
use proptest::prelude::*;

/// `(x, y)` columns the way the arena stores them: parallel slices with
/// vacant slots poisoned to NaN in both columns.
fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((-50.0f64..50.0, -50.0f64..50.0, 0u32..5), 0..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, occupancy)| if occupancy == 0 { (f64::NAN, f64::NAN) } else { (x, y) })
            .collect()
    })
}

/// A squared radius spanning the degenerate cases: empty disk, point disk,
/// finite disks and the unbounded query.
fn radius_strategy() -> impl Strategy<Value = f64> {
    (0u32..8, 1.0f64..10_000.0).prop_map(|(sel, r2)| match sel {
        0 => f64::NEG_INFINITY,
        1 => 0.0,
        2 => f64::INFINITY,
        _ => r2,
    })
}

fn split(points: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
    points.iter().copied().unzip()
}

/// The kernels available on this CPU (always at least the scalar oracle).
fn supported_kinds() -> Vec<KernelKind> {
    KernelKind::ALL.into_iter().filter(|k| k.is_supported()).collect()
}

/// Every visit a kernel makes, with the distance captured bit-for-bit.
fn visits(
    kind: KernelKind,
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    r2: f64,
) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    kernels::for_each_within_sq_in(kind, xs, ys, qx, qy, r2, &mut |pos, d2| {
        out.push((pos, d2.to_bits()));
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-identity of the sweep itself: every supported SIMD kernel visits
    /// exactly the positions the scalar oracle visits, in the same ascending
    /// order, with bit-identical squared distances.
    #[test]
    fn simd_sweeps_are_bit_identical_to_scalar(
        points in points_strategy(),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        r2 in radius_strategy(),
    ) {
        let (xs, ys) = split(&points);
        let oracle = visits(KernelKind::Scalar, &xs, &ys, qx, qy, r2);
        prop_assert!(
            oracle.windows(2).all(|w| w[0].0 < w[1].0),
            "scalar sweep must visit ascending positions"
        );
        for kind in supported_kinds() {
            let got = visits(kind, &xs, &ys, qx, qy, r2);
            prop_assert_eq!(
                &got, &oracle,
                "{} kernel diverged from scalar on n={} r2={}", kind.name(), xs.len(), r2
            );
        }
    }

    /// The nearest-neighbour reduction inherits bit-identity, including the
    /// accept-only-on-improvement contract and earliest-position tie-break.
    #[test]
    fn nearest_is_kernel_invariant(
        points in points_strategy(),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        r2 in radius_strategy(),
        modulus in 1usize..5,
    ) {
        let (xs, ys) = split(&points);
        let oracle = kernels::nearest_within_sq_in(
            KernelKind::Scalar, &xs, &ys, qx, qy, r2, &mut |pos| !pos.is_multiple_of(modulus),
        );
        for kind in supported_kinds() {
            let got = kernels::nearest_within_sq_in(
                kind, &xs, &ys, qx, qy, r2, &mut |pos| !pos.is_multiple_of(modulus),
            );
            prop_assert_eq!(
                got.map(|(p, d2)| (p, d2.to_bits())),
                oracle.map(|(p, d2)| (p, d2.to_bits())),
                "{} nearest diverged from scalar", kind.name()
            );
        }
    }
}
