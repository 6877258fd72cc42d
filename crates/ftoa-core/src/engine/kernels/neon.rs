//! Explicit NEON kernel: two f64 lanes per iteration, single-lane tail.
//!
//! NEON is a baseline feature of every aarch64 target the workspace builds
//! for, so unlike AVX2 there is no runtime detection — the dispatcher may
//! always select this kernel on aarch64. The structure mirrors `avx2.rs`:
//! one `vcleq_f64` compare covers a whole chunk's radius test, and the lane
//! results are read back as all-ones/zero 64-bit masks. With only two f64
//! lanes per `float64x2_t`, the tail is at most one element and is handled
//! in the 64-bit `float64x1_t` half-register forms — still NEON lane
//! arithmetic, not a scalar remainder loop.
//!
//! Bit-identity contract with `scalar.rs` (same as the AVX2 kernel):
//! `dx * dx + dy * dy` with two roundings (no FMA), ordered `<=` compares
//! that reject NaN-poisoned vacant slots, hits visited in ascending
//! position order.
//!
//! This module opts back into `unsafe` (the workspace denies it elsewhere);
//! `unsafe_op_in_unsafe_fn` is denied so every pointer intrinsic sits in a
//! scoped block with a `// SAFETY:` comment, as
//! `clippy::undocumented_unsafe_blocks` requires.
#![allow(unsafe_code, reason = "explicit SIMD intrinsics; every block states its preconditions")]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::{
    vadd_f64, vaddq_f64, vcle_f64, vcleq_f64, vdup_n_f64, vdupq_n_f64, vget_lane_f64,
    vget_lane_u64, vgetq_lane_f64, vgetq_lane_u64, vld1_f64, vld1q_f64, vmul_f64, vmulq_f64,
    vsub_f64, vsubq_f64,
};

/// NEON register width in f64 lanes.
const WIDTH: usize = 2;

/// NEON implementation of [`super::for_each_within_sq`]. The dispatcher in
/// `mod.rs` has already equalised the slice lengths.
///
/// # Safety
///
/// NEON must be available; every aarch64 target enables it statically, and
/// the dispatcher only selects this kernel on aarch64.
#[target_feature(enable = "neon")]
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
    let qxv = vdupq_n_f64(qx);
    let qyv = vdupq_n_f64(qy);
    let r2v = vdupq_n_f64(r2);
    let mut base = 0usize;
    while base + WIDTH <= n {
        // SAFETY: `base + WIDTH <= n` and both slices hold `n` elements, so
        // the loads read `WIDTH` in-bounds f64s from each slice.
        let xv = unsafe { vld1q_f64(xs.as_ptr().add(base)) };
        // SAFETY: same bound as the `xs` load; `ys` also holds `n` elements.
        let yv = unsafe { vld1q_f64(ys.as_ptr().add(base)) };
        let dx = vsubq_f64(xv, qxv);
        let dy = vsubq_f64(yv, qyv);
        // mul + add (not vfmaq): bit-identical to the scalar oracle.
        let d2v = vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy));
        // Ordered <=: NaN lanes (vacant slots) compare to all-zeros.
        let le = vcleq_f64(d2v, r2v);
        if vgetq_lane_u64::<0>(le) != 0 {
            visit(base, vgetq_lane_f64::<0>(d2v));
        }
        if vgetq_lane_u64::<1>(le) != 0 {
            visit(base + 1, vgetq_lane_f64::<1>(d2v));
        }
        base += WIDTH;
    }
    if base < n {
        // SAFETY: `base < n`, so the single-lane load reads one in-bounds f64.
        let xv = unsafe { vld1_f64(xs.as_ptr().add(base)) };
        // SAFETY: same bound as the `xs` load; `ys` also holds `n` elements.
        let yv = unsafe { vld1_f64(ys.as_ptr().add(base)) };
        let dx = vsub_f64(xv, vdup_n_f64(qx));
        let dy = vsub_f64(yv, vdup_n_f64(qy));
        let d2v = vadd_f64(vmul_f64(dx, dx), vmul_f64(dy, dy));
        if vget_lane_u64::<0>(vcle_f64(d2v, vdup_n_f64(r2))) != 0 {
            visit(base, vget_lane_f64::<0>(d2v));
        }
    }
}
