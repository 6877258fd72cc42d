//! Kernel-exactness property tests: the chunked distance kernel agrees
//! **bit for bit** with a naive per-point loop.
//!
//! The kernel sweeps its slices in 8-wide chunks so the compiler can
//! vectorise the arithmetic; these properties check that the chunking never
//! changes an output bit: the same visited positions in ascending order, the
//! same squared distances to the last ulp, the same NaN-vacancy exclusions
//! and the same tie-breaks. They run across random point sets (lengths
//! spanning the chunk boundaries, NaN-poisoned vacant slots, degenerate and
//! unbounded radii).

use ftoa::core_algorithms::engine::kernels;
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

/// The squared distance the kernel must reproduce: two roundings, no FMA.
fn naive_d2(x: f64, y: f64, qx: f64, qy: f64) -> f64 {
    let (dx, dy) = (x - qx, y - qy);
    dx * dx + dy * dy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunked sweep visits exactly the positions a per-point filter
    /// keeps, in ascending order, with bit-identical squared distances.
    #[test]
    fn simd_sweeps_are_bit_identical_to_scalar(
        points in points_strategy(),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        r2 in radius_strategy(),
    ) {
        let (xs, ys) = split(&points);
        let mut got = Vec::new();
        kernels::for_each_within_sq(&xs, &ys, qx, qy, r2, &mut |pos, d2| {
            got.push((pos, d2.to_bits()));
        });
        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "positions must ascend");
        let want: Vec<(usize, u64)> = points
            .iter()
            .enumerate()
            .map(|(pos, &(x, y))| (pos, naive_d2(x, y, qx, qy)))
            .filter(|&(_, d2)| d2 <= r2)
            .map(|(pos, d2)| (pos, d2.to_bits()))
            .collect();
        prop_assert_eq!(got, want, "n={} r2={}", xs.len(), r2);
    }

    /// The nearest-neighbour reduction equals a naive argmin: the earliest
    /// position wins ties, and `accept` is consulted only on an improvement,
    /// so both consult it on the same positions in the same order.
    #[test]
    fn nearest_is_kernel_invariant(
        points in points_strategy(),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        r2 in radius_strategy(),
        modulus in 1usize..5,
    ) {
        let (xs, ys) = split(&points);
        let accept = |pos: usize| !pos.is_multiple_of(modulus);
        let mut consulted = Vec::new();
        let got = kernels::nearest_within_sq(&xs, &ys, qx, qy, r2, &mut |pos| {
            consulted.push(pos);
            accept(pos)
        });

        let mut want: Option<(usize, f64)> = None;
        let mut want_consulted = Vec::new();
        for (pos, &(x, y)) in points.iter().enumerate() {
            let d2 = naive_d2(x, y, qx, qy);
            let improves = d2 <= r2 && want.is_none_or(|(_, best)| d2 < best);
            if improves {
                want_consulted.push(pos);
                if accept(pos) {
                    want = Some((pos, d2));
                }
            }
        }
        prop_assert_eq!(
            got.map(|(p, d2)| (p, d2.to_bits())),
            want.map(|(p, d2)| (p, d2.to_bits()))
        );
        prop_assert_eq!(consulted, want_consulted);
    }
}
