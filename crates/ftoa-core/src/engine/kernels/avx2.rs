//! Explicit AVX2 kernel: four f64 lanes per iteration with a masked tail.
//!
//! The scalar chunk loop pays one radius branch per lane; this kernel folds
//! the whole chunk's radius test into a single `_CMP_LE_OQ` compare plus a
//! `movemask`, so the common all-miss chunk costs one well-predicted branch.
//! The tail is handled with `maskload` instead of a scalar remainder loop:
//! masked-off lanes read as `0.0`, which *could* spuriously pass the radius
//! test, so the hit mask is ANDed with the lane-validity mask before any
//! visit fires.
//!
//! Bit-identity contract with `scalar.rs` (gated by proptests):
//! * distances are `dx * dx + dy * dy` with two roundings — **no FMA**, even
//!   though AVX2-era CPUs have it, because fusing changes the rounding;
//! * `_CMP_LE_OQ` is the *ordered* `<=`: false when either operand is NaN,
//!   exactly like the scalar `d2 <= r2`, so NaN-poisoned vacant arena slots
//!   are excluded by the same lane comparison;
//! * hits are visited in ascending position order within and across chunks.
//!
//! This module opts back into `unsafe` (the workspace denies it elsewhere);
//! `unsafe_op_in_unsafe_fn` is denied so every pointer intrinsic sits in a
//! scoped block with a `// SAFETY:` comment, as
//! `clippy::undocumented_unsafe_blocks` requires.
#![allow(unsafe_code, reason = "explicit SIMD intrinsics; every block states its preconditions")]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256i, _mm256_add_pd, _mm256_castsi256_pd, _mm256_cmp_pd, _mm256_loadu_pd,
    _mm256_maskload_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setr_epi64x,
    _mm256_storeu_pd, _mm256_sub_pd, _CMP_LE_OQ,
};

/// AVX2 register width in f64 lanes.
const WIDTH: usize = 4;

/// AVX2 implementation of [`super::for_each_within_sq`]. The dispatcher in
/// `mod.rs` has already equalised the slice lengths.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2 (the dispatcher
/// only selects this kernel after `is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn for_each_within_sq(
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    r2: f64,
    visit: &mut impl FnMut(usize, f64),
) {
    debug_assert_eq!(xs.len(), ys.len(), "dispatcher equalises the slice lengths");
    let n = xs.len();
    let qxv = _mm256_set1_pd(qx);
    let qyv = _mm256_set1_pd(qy);
    let r2v = _mm256_set1_pd(r2);
    let mut d2 = [0.0f64; WIDTH];
    let mut base = 0usize;
    while base + WIDTH <= n {
        // SAFETY: `base + WIDTH <= n` and both slices hold `n` elements, so
        // the unaligned loads read `WIDTH` in-bounds f64s from each slice.
        let (xv, yv) = unsafe {
            (_mm256_loadu_pd(xs.as_ptr().add(base)), _mm256_loadu_pd(ys.as_ptr().add(base)))
        };
        let dx = _mm256_sub_pd(xv, qxv);
        let dy = _mm256_sub_pd(yv, qyv);
        let d2v = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
        let hits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2v, r2v));
        if hits != 0 {
            // SAFETY: `d2` is a properly-aligned-for-f64 local of `WIDTH`
            // elements; `_mm256_storeu_pd` tolerates its (8-byte) alignment.
            unsafe { _mm256_storeu_pd(d2.as_mut_ptr(), d2v) };
            for (lane, &lane_d2) in d2.iter().enumerate() {
                if hits & (1 << lane) != 0 {
                    visit(base + lane, lane_d2);
                }
            }
        }
        base += WIDTH;
    }
    let tail = n - base;
    if tail > 0 {
        let valid = tail_mask(tail);
        // SAFETY: `valid` has its all-ones 64-bit lanes exactly on the first
        // `tail` positions and `base + tail == n`, so `maskload` only
        // dereferences the in-bounds prefix; masked-off lanes are never read
        // and materialise as 0.0.
        let (xv, yv) = unsafe {
            (
                _mm256_maskload_pd(xs.as_ptr().add(base), valid),
                _mm256_maskload_pd(ys.as_ptr().add(base), valid),
            )
        };
        let dx = _mm256_sub_pd(xv, qxv);
        let dy = _mm256_sub_pd(yv, qyv);
        let d2v = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
        // Masked-off lanes computed a distance from the fabricated (0, 0)
        // point, which may lie inside the radius: discard them by ANDing
        // with the validity mask before looking at the hit bits.
        let hits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2v, r2v))
            & _mm256_movemask_pd(_mm256_castsi256_pd(valid));
        if hits != 0 {
            // SAFETY: as above — `d2` is a local array of `WIDTH` f64s.
            unsafe { _mm256_storeu_pd(d2.as_mut_ptr(), d2v) };
            for (lane, &lane_d2) in d2.iter().enumerate() {
                if hits & (1 << lane) != 0 {
                    visit(base + lane, lane_d2);
                }
            }
        }
    }
}

/// Lane-validity mask selecting the first `tail` (1..=3) of four f64 lanes:
/// all-ones in valid lanes (the sign bit drives both `maskload` and
/// `movemask`), zero elsewhere.
#[inline]
#[target_feature(enable = "avx2")]
fn tail_mask(tail: usize) -> __m256i {
    let lane = |i: usize| if i < tail { -1i64 } else { 0 };
    _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
}
