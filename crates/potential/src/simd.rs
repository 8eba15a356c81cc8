//! The slice kernels behind every table primitive.
//!
//! The [`KernelPlan`](crate::KernelPlan) interpreter and the walker
//! kernels in [`raw`](crate::raw) spend essentially all of their time in
//! a handful of slice loops: elementwise add/max/multiply/divide over
//! contiguous segments, and the broadcast sum/max reductions that
//! collapse a block of scan entries onto one separator slot. This module
//! holds those loops, once, as plain scalar Rust written so the compiler
//! can vectorise the elementwise ones on the target's baseline
//! instruction set.
//!
//! # Determinism contract
//!
//! The repo asserts bitwise-identical marginals across thread counts,
//! δ-grains at a fixed δ, shard layouts, and in golden serve smoke
//! files. Floating-point addition and `max`-with-tie-breaking are not
//! associative at the bit level, so every path must perform the same
//! IEEE-754 operations in the same order:
//!
//! * **Reductions** follow the canonical 4-lane tree defined by
//!   [`raw::sum_canonical`](crate::raw::sum_canonical) and
//!   [`raw::fold_max_canonical`](crate::raw::fold_max_canonical).
//! * **Max** is everywhere the select `if x > acc { acc = x }`: on ties
//!   (including `+0.0` vs `-0.0`) and NaNs the accumulator is kept.
//! * **Elementwise** kernels perform one independent IEEE operation per
//!   entry. Division keeps the Hugin `x/0 = +0.0` convention.
//!
//! The walker and planned paths both run these kernels, which is what
//! lets the walkers serve as the bitwise oracle in `tests/prop_plans.rs`.
//!
//! [`active`] names the implementation for host reports; there is only
//! the scalar one.

use crate::plan::Segment;
use crate::primitives::safe_div;
use crate::raw::{reduce_add_into, reduce_max_into};

/// The kernel implementation that executes the potential-table inner
/// loops. There is one; the type remains so host reports can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Canonical-order scalar loops.
    Scalar,
}

impl KernelBackend {
    /// Stable lower-case name (`scalar`) for host reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
        }
    }
}

/// The kernel implementation this process runs: always
/// [`KernelBackend::Scalar`].
pub fn active() -> KernelBackend {
    KernelBackend::Scalar
}

/// Elementwise `dst[i] += src[i]`.
#[inline]
pub(crate) fn add_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Elementwise `dst[i] = if src[i] > dst[i] { src[i] } else { dst[i] }`.
#[inline]
pub(crate) fn max_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        if b > *a {
            *a = b;
        }
    }
}

/// Elementwise `dst[i] *= src[i]`.
#[inline]
fn mul_assign(dst: &mut [f64], src: &[f64]) {
    for (a, &b) in dst.iter_mut().zip(src) {
        *a *= b;
    }
}

/// Broadcast `dst[i] *= m`.
#[inline]
fn mul_scalar(dst: &mut [f64], m: f64) {
    for a in dst {
        *a *= m;
    }
}

/// Elementwise `out[i] = safe_div(num[i], den[i])` (`x/0 = 0`).
#[inline]
pub(crate) fn div_into(num: &[f64], den: &[f64], out: &mut [f64]) {
    debug_assert_eq!(num.len(), out.len());
    debug_assert_eq!(den.len(), out.len());
    for ((slot, &n), &d) in out.iter_mut().zip(num).zip(den) {
        *slot = safe_div(n, d);
    }
}

/// Elementwise `dst[i] = safe_div(dst[i], den[i])`.
#[inline]
pub(crate) fn div_assign(dst: &mut [f64], den: &[f64]) {
    debug_assert_eq!(dst.len(), den.len());
    for (a, &d) in dst.iter_mut().zip(den) {
        *a = safe_div(*a, d);
    }
}

// Fused plan loops: each runs the per-segment single-block kernel above
// over a plan's segment list. `src`/`out` on the scan side is the
// plan's range window; the target side is the full target table.

/// Contig sum-marginalization: `dst[tb..tb+len] += src[pos..]` per
/// segment.
pub(crate) fn marg_sum_contig(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        add_assign(
            &mut dst[seg.target_base..seg.target_base + seg.len],
            &src[pos..pos + seg.len],
        );
        pos += seg.len;
    }
}

/// Broadcast sum-marginalization: `dst[tb] +=` canonical-order sum of
/// each segment's block.
pub(crate) fn marg_sum_broadcast(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        reduce_add_into(&mut dst[seg.target_base], &src[pos..pos + seg.len]);
        pos += seg.len;
    }
}

/// Contig max-marginalization: elementwise select per segment.
pub(crate) fn marg_max_contig(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        max_assign(
            &mut dst[seg.target_base..seg.target_base + seg.len],
            &src[pos..pos + seg.len],
        );
        pos += seg.len;
    }
}

/// Broadcast max-marginalization: canonical-order max fold of each
/// segment's block into its slot.
pub(crate) fn marg_max_broadcast(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        reduce_max_into(&mut dst[seg.target_base], &src[pos..pos + seg.len]);
        pos += seg.len;
    }
}

/// Contig multiplication: `out[pos..] *= src[tb..tb+len]` per segment.
pub(crate) fn mul_contig(segs: &[Segment], src: &[f64], out: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        mul_assign(
            &mut out[pos..pos + seg.len],
            &src[seg.target_base..seg.target_base + seg.len],
        );
        pos += seg.len;
    }
}

/// Broadcast multiplication: `out[pos..pos+len] *= src[tb]` per segment.
pub(crate) fn mul_broadcast(segs: &[Segment], src: &[f64], out: &mut [f64]) {
    let mut pos = 0;
    for seg in segs {
        mul_scalar(&mut out[pos..pos + seg.len], src[seg.target_base]);
        pos += seg.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::fold_max_canonical;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn active_is_scalar() {
        assert_eq!(active(), KernelBackend::Scalar);
        assert_eq!(active().name(), "scalar");
    }

    #[test]
    fn max_keeps_the_accumulator_on_ties_signed_zero_and_nan() {
        // Tie between +0.0 and -0.0: the accumulator's sign survives.
        assert_eq!(
            fold_max_canonical(-0.0, &[0.0]).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            fold_max_canonical(0.0, &[-0.0; 5]).to_bits(),
            0.0f64.to_bits()
        );
        // A NaN entry never replaces the accumulator…
        assert_eq!(fold_max_canonical(1.5, &[f64::NAN, 1.0]), 1.5);
        assert_eq!(fold_max_canonical(1.5, &[f64::NAN; 9]), 1.5);
        // …and a NaN accumulator is never replaced.
        assert!(fold_max_canonical(f64::NAN, &[3.0, 4.0]).is_nan());
        let mut dst = [-0.0, 2.0, f64::NAN];
        max_assign(&mut dst, &[0.0, f64::NAN, 7.0]);
        assert_eq!(dst[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(dst[1], 2.0);
        assert!(dst[2].is_nan());
    }

    #[test]
    fn one_entry_broadcast_block_is_a_plain_add() {
        let mut slot = -0.0;
        reduce_add_into(&mut slot, &[-0.0]);
        assert_eq!(slot.to_bits(), (-0.0f64).to_bits());
        let segs = [Segment {
            target_base: 0,
            len: 1,
        }];
        let mut dst = [-0.0];
        marg_sum_broadcast(&segs, &[-0.0], &mut dst);
        assert_eq!(dst[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn fused_plan_loops_equal_their_per_segment_ops() {
        // Mixed-length segments, including a one-entry block and a
        // shared target slot.
        let segs = [(0, 1), (2, 5), (1, 16), (2, 3), (3, 9)]
            .map(|(target_base, len)| Segment { target_base, len });
        let total: usize = segs.iter().map(|s| s.len).sum();
        let src: Vec<f64> = (0..total).map(|i| (i as f64 * 0.37).sin()).collect();
        let big: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).cos()).collect();
        let init: Vec<f64> = (0..64).map(|i| (i as f64 * 0.23).sin()).collect();

        let (mut sum_c, mut max_c, mut sum_b, mut max_b) =
            (init.clone(), init.clone(), init.clone(), init.clone());
        let (mut mul_c, mut mul_b) = (src.clone(), src.clone());
        let mut pos = 0;
        for s in &segs {
            let (tb, len) = (s.target_base, s.len);
            let xs = &src[pos..pos + len];
            add_assign(&mut sum_c[tb..tb + len], xs);
            max_assign(&mut max_c[tb..tb + len], xs);
            reduce_add_into(&mut sum_b[tb], xs);
            reduce_max_into(&mut max_b[tb], xs);
            mul_assign(&mut mul_c[pos..pos + len], &big[tb..tb + len]);
            mul_scalar(&mut mul_b[pos..pos + len], big[tb]);
            pos += len;
        }

        let mut got = init.clone();
        marg_sum_contig(&segs, &src, &mut got);
        assert_eq!(bits(&got), bits(&sum_c), "sum/contig");
        let mut got = init.clone();
        marg_max_contig(&segs, &src, &mut got);
        assert_eq!(bits(&got), bits(&max_c), "max/contig");
        let mut got = init.clone();
        marg_sum_broadcast(&segs, &src, &mut got);
        assert_eq!(bits(&got), bits(&sum_b), "sum/broadcast");
        let mut got = init;
        marg_max_broadcast(&segs, &src, &mut got);
        assert_eq!(bits(&got), bits(&max_b), "max/broadcast");
        let mut got = src.clone();
        mul_contig(&segs, &big, &mut got);
        assert_eq!(bits(&got), bits(&mul_c), "mul/contig");
        let mut got = src;
        mul_broadcast(&segs, &big, &mut got);
        assert_eq!(bits(&got), bits(&mul_b), "mul/broadcast");
    }
}
