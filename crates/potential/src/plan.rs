//! Compiled kernel plans: precomputed index-map programs for the
//! cross-domain primitives.
//!
//! The walker kernels in [`raw`](crate::raw) re-derive the mixed-radix
//! mapping between a clique domain and a separator domain on **every
//! call** via [`AxisWalker`](crate::AxisWalker), even though the
//! domains — and, for the partitioned scheduler, the δ-ranges — are
//! fixed once the junction tree is compiled. A [`KernelPlan`] hoists
//! that address computation out of the hot loop: it is compiled once
//! per (scan-domain, target-domain, entry-range) triple and then
//! interpreted with plain slice arithmetic.
//!
//! # Shape of a plan
//!
//! Every cross-domain primitive walks one table linearly (the **scan**
//! side: the source for marginalization, the destination for extension
//! and multiplication) while projecting each entry onto a subdomain
//! table (the **target** side). Because domains are sorted by
//! [`VarId`](crate::VarId) and the target is a subdomain of the scan
//! domain, the maximal suffix of scan axes is either
//!
//! * entirely **inside** the target — then it is exactly the target's
//!   own trailing axes, its innermost stride is 1, and consecutive scan
//!   entries map to *consecutive* target entries
//!   ([`PlanKind::Contig`]); or
//! * entirely **absent** from the target — then the target index is
//!   *constant* across the whole block ([`PlanKind::Broadcast`]).
//!
//! Either way the scan side decomposes into fixed-size blocks, and a
//! plan is just the flattened run-length list of `(target_base, len)`
//! segments covering its entry range, with partial head/tail segments
//! where the range cuts a block. The interpreter's inner loop is
//! `for i in 0..len { dst[d + i] op= src[s + i] }` (or a `fill`/
//! reduction for broadcast blocks) — no per-entry odometer, and a shape
//! the compiler autovectorizes.
//!
//! # Determinism
//!
//! Plan interpretation performs bit-for-bit the same floating-point
//! operations in the same order as the walker kernels: both execute
//! their inner loops through the slice kernels in [`simd`](crate::simd),
//! and every broadcast reduction follows the **canonical reduction-tree
//! order** defined by
//! [`raw::sum_canonical`](crate::raw::sum_canonical) /
//! [`raw::fold_max_canonical`](crate::raw::fold_max_canonical) — a
//! fixed 4-lane tree plus sequential tail. The block sum is accumulated
//! from `0.0` and then added onto the destination slot, so results are
//! a function of the plan's segment geometry (hence of δ) but of
//! *nothing else*: not the thread count, not the schedule. The property
//! tests in `tests/prop_plans.rs` and the unit suite below assert
//! bitwise equality against the walker path.

use crate::simd;
use crate::{AxisWalker, Domain, EntryRange, PotentialError, Result};

/// How consecutive scan entries within a block map onto the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// The scan domain's trailing axes are inside the target: a block
    /// of consecutive scan entries maps to consecutive target entries.
    Contig,
    /// The scan domain's trailing axes are absent from the target: a
    /// block of consecutive scan entries maps to one target entry.
    Broadcast,
}

/// One run-length segment of a plan: `len` consecutive scan entries
/// whose target indices start at `target_base` (and either advance by
/// one per entry or stay fixed, per [`PlanKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Target index of the segment's first scan entry.
    pub target_base: usize,
    /// Number of scan entries the segment covers.
    pub len: usize,
}

/// A compiled index-map program for one (scan-domain, target-domain,
/// entry-range) triple. See the [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    kind: PlanKind,
    range: EntryRange,
    scan_len: usize,
    target_len: usize,
    segs: Vec<Segment>,
}

/// Computes the canonical block decomposition of `scan` relative to
/// `tstrides` (its per-axis strides in the target domain, zero for
/// absent axes): the maximal uniform suffix — all-present (contiguous
/// target) or all-absent (constant target) — as a block length plus
/// the [`PlanKind`]. An empty scan domain (size 1) degenerates to a
/// single contiguous block.
///
/// Shared by [`KernelPlan::compile`] and the walker kernels in
/// [`raw`](crate::raw), so both paths cut ranges into *identical*
/// blocks and hand identical slices to the reduction kernels — a
/// precondition of the bitwise walker-vs-plan oracle tests.
pub(crate) fn uniform_suffix_block(scan: &Domain, tstrides: &[usize]) -> (usize, PlanKind) {
    let width = scan.width();
    let last_present = width > 0 && tstrides[width - 1] != 0;
    let kind = if width == 0 || last_present {
        PlanKind::Contig
    } else {
        PlanKind::Broadcast
    };
    let mut block = 1usize;
    for pos in (0..width).rev() {
        let present = tstrides[pos] != 0;
        if present != last_present {
            break;
        }
        block *= scan.vars()[pos].cardinality();
    }
    (block, kind)
}

impl KernelPlan {
    /// Compiles the plan mapping `range` of a table over `scan` onto a
    /// table over `target`.
    ///
    /// `scan` is the linearly-walked superdomain (marginalization
    /// source; extension/multiplication destination) and `target` the
    /// projected subdomain. Compilation is `O(width · range.len() /
    /// block)` — segments, not entries.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `target` ⊄ `scan`;
    /// [`PotentialError::BadRange`] if `range` exceeds `scan.size()`.
    pub fn compile(scan: &Domain, target: &Domain, range: EntryRange) -> Result<Self> {
        for v in target.vars() {
            if !scan.contains(v.id()) {
                return Err(PotentialError::NotSubdomain { missing: v.id() });
            }
        }
        if range.start > range.end || range.end > scan.size() {
            return Err(PotentialError::BadRange {
                start: range.start,
                end: range.end,
                len: scan.size(),
            });
        }

        let tstrides = scan.strides_in(target);
        let (block, kind) = uniform_suffix_block(scan, &tstrides);

        let mut segs: Vec<Segment> = Vec::new();
        if !range.is_empty() {
            let mut w = AxisWalker::new(scan, tstrides);
            let mut pos = range.start;
            while pos < range.end {
                let boundary = pos - pos % block + block;
                let len = boundary.min(range.end) - pos;
                w.seek(scan, pos);
                let base = w.target_index();
                match segs.last_mut() {
                    // Contiguous runs that continue across a block
                    // boundary fuse into one longer segment.
                    Some(prev)
                        if kind == PlanKind::Contig && prev.target_base + prev.len == base =>
                    {
                        prev.len += len;
                    }
                    _ => segs.push(Segment {
                        target_base: base,
                        len,
                    }),
                }
                pos += len;
            }
        }

        Ok(Self {
            kind,
            range,
            scan_len: scan.size(),
            target_len: target.size(),
            segs,
        })
    }

    /// The block mapping kind.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// The scan-side entry range this plan covers.
    pub fn range(&self) -> EntryRange {
        self.range
    }

    /// The run-length segments, in scan order.
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Inner-loop operation count: one op per scan entry in the range.
    ///
    /// This is what the scheduler uses as a subtask's weight — derived
    /// from the plan rather than re-proxied from table sizes, and equal
    /// to the partitionable table's range length so that cost-model
    /// calibrations (and the simulator's figures) are unchanged.
    pub fn ops(&self) -> u64 {
        self.range.len() as u64
    }

    /// Memory footprint of this compiled program in bytes: the struct
    /// itself plus its heap-allocated segment list. Backs the model
    /// registry's resident-byte accounting.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.segs.len() * std::mem::size_of::<Segment>()
    }

    fn check_scan(&self, len: usize) -> Result<()> {
        if len != self.scan_len {
            return Err(PotentialError::DataSizeMismatch {
                expected: self.scan_len,
                found: len,
            });
        }
        Ok(())
    }

    fn check_target(&self, len: usize) -> Result<()> {
        if len != self.target_len {
            return Err(PotentialError::DataSizeMismatch {
                expected: self.target_len,
                found: len,
            });
        }
        Ok(())
    }

    fn check_window(&self, len: usize) -> Result<()> {
        if len != self.range.len() {
            return Err(PotentialError::DataSizeMismatch {
                expected: self.range.len(),
                found: len,
            });
        }
        Ok(())
    }

    /// Sum-marginalization: accumulates `src[range]` (full scan-domain
    /// slice) into the full target table `dst` (the caller zeroes `dst`
    /// before the first partial). Contiguous segments do one `+=` per
    /// entry; broadcast segments reduce in the canonical order (see the
    /// [module docs](self)) and add the block sum onto the slot.
    ///
    /// # Errors
    ///
    /// [`PotentialError::DataSizeMismatch`] if `src` is not the scan
    /// table or `dst` not the target table.
    pub fn marginalize_sum_into(&self, src: &[f64], dst: &mut [f64]) -> Result<()> {
        self.check_scan(src.len())?;
        self.check_target(dst.len())?;
        let win = &src[self.range.start..self.range.end];
        match self.kind {
            PlanKind::Contig => simd::marg_sum_contig(&self.segs, win, dst),
            PlanKind::Broadcast => simd::marg_sum_broadcast(&self.segs, win, dst),
        }
        Ok(())
    }

    /// Max-marginalization: like [`marginalize_sum_into`]
    /// (Self::marginalize_sum_into) but folding with elementwise `max`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::marginalize_sum_into`].
    pub fn marginalize_max_into(&self, src: &[f64], dst: &mut [f64]) -> Result<()> {
        self.check_scan(src.len())?;
        self.check_target(dst.len())?;
        let win = &src[self.range.start..self.range.end];
        match self.kind {
            PlanKind::Contig => simd::marg_max_contig(&self.segs, win, dst),
            PlanKind::Broadcast => simd::marg_max_broadcast(&self.segs, win, dst),
        }
        Ok(())
    }

    /// Extension: fills `out` (window aliasing `range` of the
    /// scan-domain destination) with the replicated target-domain
    /// source `src`.
    ///
    /// # Errors
    ///
    /// [`PotentialError::DataSizeMismatch`] if `src` is not the target
    /// table or `out` is not exactly `range.len()` entries.
    pub fn extend_into(&self, src: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_target(src.len())?;
        self.check_window(out.len())?;
        let mut pos = 0usize;
        match self.kind {
            PlanKind::Contig => {
                for seg in &self.segs {
                    out[pos..pos + seg.len]
                        .copy_from_slice(&src[seg.target_base..seg.target_base + seg.len]);
                    pos += seg.len;
                }
            }
            PlanKind::Broadcast => {
                for seg in &self.segs {
                    out[pos..pos + seg.len].fill(src[seg.target_base]);
                    pos += seg.len;
                }
            }
        }
        Ok(())
    }

    /// Multiplication: `out[i] *= src[project(range.start + i)]` where
    /// `out` aliases `range` of the scan-domain destination and `src`
    /// is the full target-domain factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::extend_into`].
    pub fn multiply_into(&self, src: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_target(src.len())?;
        self.check_window(out.len())?;
        match self.kind {
            PlanKind::Contig => simd::mul_contig(&self.segs, src, out),
            PlanKind::Broadcast => simd::mul_broadcast(&self.segs, src, out),
        }
        Ok(())
    }
}

/// Division over a destination window. Division never crosses domains
/// (numerator, denominator and destination share one separator domain),
/// so its "plan" is the identity map and the planned form is
/// [`raw::divide_range_into`](crate::raw::divide_range_into) itself.
pub use crate::raw::divide_range_into as divide_planned;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw;
    use crate::{VarId, Variable};

    fn dom(spec: &[(u32, usize)]) -> Domain {
        Domain::new(
            spec.iter()
                .map(|&(id, c)| Variable::new(VarId(id), c))
                .collect(),
        )
        .unwrap()
    }

    /// Deterministic pseudo-random fill (no RNG dep in the lib tests).
    fn fill(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                ((x >> 33) % 997) as f64 / 31.0
            })
            .collect()
    }

    /// The (scan, target) pairs the junction-tree builder actually
    /// produces: sorted domains with target ⊆ scan, including the
    /// degenerate all/none/empty projections.
    fn cases() -> Vec<(Domain, Domain)> {
        let scan = dom(&[(0, 2), (1, 3), (2, 2), (3, 4)]);
        let subsets: &[&[u32]] = &[
            &[],
            &[0],
            &[3],
            &[0, 1],
            &[0, 3],
            &[1, 2],
            &[2, 3],
            &[0, 1, 2],
            &[1, 2, 3],
            &[0, 1, 2, 3],
        ];
        let mut out: Vec<(Domain, Domain)> = subsets
            .iter()
            .map(|ids| {
                (
                    scan.clone(),
                    scan.project(ids.iter().map(|&i| VarId(i)).collect::<Vec<_>>().as_slice()),
                )
            })
            .collect();
        let tiny = dom(&[(7, 2)]);
        out.push((tiny.clone(), tiny.clone()));
        out.push((tiny.clone(), dom(&[])));
        out.push((dom(&[]), dom(&[])));
        out
    }

    fn ranges(len: usize) -> Vec<EntryRange> {
        let mut rs = vec![EntryRange::full(len)];
        for chunk in [1usize, 3, 7] {
            rs.extend(EntryRange::split(len, chunk));
        }
        if len > 2 {
            rs.push(EntryRange {
                start: 1,
                end: len - 1,
            });
        }
        rs.push(EntryRange { start: 0, end: 0 });
        rs
    }

    #[test]
    fn whole_domain_projection_is_one_contig_segment() {
        let d = dom(&[(0, 2), (1, 3)]);
        let p = KernelPlan::compile(&d, &d, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Contig);
        assert_eq!(
            p.segments(),
            &[Segment {
                target_base: 0,
                len: 6
            }]
        );
        assert_eq!(p.ops(), 6);
    }

    #[test]
    fn empty_target_is_one_broadcast_block() {
        let d = dom(&[(0, 2), (1, 3)]);
        let p = KernelPlan::compile(&d, &dom(&[]), EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Broadcast);
        assert_eq!(
            p.segments(),
            &[Segment {
                target_base: 0,
                len: 6
            }]
        );
    }

    #[test]
    fn trailing_axis_present_gives_contig_blocks() {
        // scan [a, b], target [b]: every a-slice is one contiguous run
        // over the whole target, so the runs fuse per a-value but reset
        // at each (they all start at base 0 — no fusing across).
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(1, 3)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Contig);
        assert_eq!(
            p.segments(),
            &[
                Segment {
                    target_base: 0,
                    len: 3
                },
                Segment {
                    target_base: 0,
                    len: 3
                }
            ]
        );
    }

    #[test]
    fn trailing_axis_absent_gives_broadcast_blocks() {
        // scan [a, b], target [a]: each a-value's b-run collapses onto
        // one target slot.
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(0, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Broadcast);
        assert_eq!(
            p.segments(),
            &[
                Segment {
                    target_base: 0,
                    len: 3
                },
                Segment {
                    target_base: 1,
                    len: 3
                }
            ]
        );
    }

    #[test]
    fn partial_ranges_cut_blocks() {
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(0, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange { start: 2, end: 4 }).unwrap();
        assert_eq!(
            p.segments(),
            &[
                Segment {
                    target_base: 0,
                    len: 1
                },
                Segment {
                    target_base: 1,
                    len: 1
                }
            ]
        );
        assert_eq!(p.ops(), 2);
    }

    #[test]
    fn compile_rejects_bad_inputs() {
        let scan = dom(&[(0, 2)]);
        let err = KernelPlan::compile(&scan, &dom(&[(9, 2)]), EntryRange::full(2));
        assert!(matches!(err, Err(PotentialError::NotSubdomain { .. })));
        let err = KernelPlan::compile(&scan, &scan, EntryRange { start: 0, end: 3 });
        assert!(matches!(err, Err(PotentialError::BadRange { .. })));
    }

    #[test]
    fn apply_rejects_wrong_lengths() {
        let scan = dom(&[(0, 2), (1, 2)]);
        let target = dom(&[(1, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(4)).unwrap();
        let src = fill(4, 1);
        let mut short = vec![0.0; 1];
        assert!(matches!(
            p.marginalize_sum_into(&src, &mut short),
            Err(PotentialError::DataSizeMismatch { .. })
        ));
        let mut out = vec![0.0; 3]; // window must be exactly range.len()
        assert!(matches!(
            p.extend_into(&fill(2, 2), &mut out),
            Err(PotentialError::DataSizeMismatch { .. })
        ));
    }

    #[test]
    fn marginalize_matches_walker_bitwise() {
        for (scan, target) in cases() {
            let src = fill(scan.size(), 0xA5);
            for range in ranges(scan.size()) {
                let plan = KernelPlan::compile(&scan, &target, range).unwrap();
                for max in [false, true] {
                    let mut want = fill(target.size(), 0x17);
                    let mut got = want.clone();
                    if max {
                        raw::max_marginalize_range_into_walker(
                            &scan, &src, range, &target, &mut want,
                        )
                        .unwrap();
                        plan.marginalize_max_into(&src, &mut got).unwrap();
                    } else {
                        raw::marginalize_range_into_walker(&scan, &src, range, &target, &mut want)
                            .unwrap();
                        plan.marginalize_sum_into(&src, &mut got).unwrap();
                    }
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "scan {:?} target {:?} range {:?} max {}",
                        scan.var_ids(),
                        target.var_ids(),
                        range,
                        max
                    );
                }
            }
        }
    }

    #[test]
    fn extend_and_multiply_match_walker_bitwise() {
        for (scan, target) in cases() {
            let src = fill(target.size(), 0xB7);
            for range in ranges(scan.size()) {
                let plan = KernelPlan::compile(&scan, &target, range).unwrap();
                let mut want = fill(range.len(), 0x29);
                let mut got = want.clone();
                raw::extend_range_into_walker(&target, &src, &scan, range, &mut want).unwrap();
                plan.extend_into(&src, &mut got).unwrap();
                assert_eq!(want, got, "extend mismatch");

                let mut want = fill(range.len(), 0x31);
                let mut got = want.clone();
                raw::multiply_range_into_walker(&target, &src, &scan, range, &mut want).unwrap();
                plan.multiply_into(&src, &mut got).unwrap();
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "multiply mismatch"
                );
            }
        }
    }

    #[test]
    fn partials_over_split_ranges_compose() {
        // δ-partitioned plans over disjoint subranges must compose to
        // the full-range result — the invariant the scheduler leans on.
        // Since the canonical reduction order groups each plan's blocks
        // through a 4-lane tree, different δ cuts round differently in
        // the last ulps: sums compose to within tight tolerance (and
        // the engines only ever mix partials at one fixed δ, where
        // determinism is bitwise — asserted by tests/prop_plans.rs);
        // max is order-insensitive on this data, so it composes
        // exactly.
        let scan = dom(&[(0, 2), (1, 3), (2, 2)]);
        let target = dom(&[(1, 3)]);
        let src = fill(scan.size(), 0xC3);
        let full = KernelPlan::compile(&scan, &target, EntryRange::full(scan.size())).unwrap();
        let mut want_sum = vec![0.0; target.size()];
        full.marginalize_sum_into(&src, &mut want_sum).unwrap();
        let mut want_max = vec![0.0; target.size()];
        full.marginalize_max_into(&src, &mut want_max).unwrap();
        for chunk in [1usize, 2, 5] {
            let mut acc = vec![0.0; target.size()];
            let mut acc_max = vec![0.0; target.size()];
            for r in EntryRange::split(scan.size(), chunk) {
                let p = KernelPlan::compile(&scan, &target, r).unwrap();
                p.marginalize_sum_into(&src, &mut acc).unwrap();
                p.marginalize_max_into(&src, &mut acc_max).unwrap();
            }
            for (w, a) in want_sum.iter().zip(&acc) {
                assert!((w - a).abs() <= 1e-12 * w.abs().max(1.0), "chunk {chunk}");
            }
            assert_eq!(want_max, acc_max, "chunk {chunk}");
        }
    }
}
