//! The four node-level primitives and their range-partitioned variants.
//!
//! Following the paper (§5.1) and its companion "node level primitives"
//! work, evidence propagation decomposes into four table operations:
//!
//! * **marginalization** — sum a clique table onto a separator domain;
//! * **division** — elementwise ratio of updated vs original separator;
//! * **extension** — replicate a separator table over a clique domain;
//! * **multiplication** — elementwise product into a clique table.
//!
//! Each primitive also exists in a `*_range*` form operating on a slice of
//! entries, which is what the collaborative scheduler's Partition module
//! hands to subtasks. For marginalization the *source* is partitioned and
//! partial sums are **added** by the combining subtask; for the other
//! three the *destination* is partitioned so subtask writes are disjoint
//! and the results simply **concatenate** — exactly the paper's
//! "combined (for extension, multiplication and division) or added (for
//! marginalization)" rule.

use crate::{Domain, PotentialError, PotentialTable, Result};

/// Which node-level primitive a task performs (§5.1, Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// Sum a clique potential onto a separator domain.
    Marginalize,
    /// Elementwise ratio of updated separator over original separator.
    Divide,
    /// Replicate a separator potential over a clique domain.
    Extend,
    /// Elementwise product into a clique potential.
    Multiply,
}

impl PrimitiveKind {
    /// Stable short name used in traces and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveKind::Marginalize => "marg",
            PrimitiveKind::Divide => "div",
            PrimitiveKind::Extend => "ext",
            PrimitiveKind::Multiply => "mul",
        }
    }
}

impl std::fmt::Display for PrimitiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A half-open range of flat table indices processed by one (sub)task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EntryRange {
    /// First entry (inclusive).
    pub start: usize,
    /// One past the last entry.
    pub end: usize,
}

impl EntryRange {
    /// The whole table of length `len`.
    #[inline]
    pub fn full(len: usize) -> Self {
        EntryRange { start: 0, end: len }
    }

    /// Number of entries covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the range covers nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Splits `0..len` into chunks of at most `chunk` entries; the paper's
    /// Partition module uses this with `chunk = δ`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn split(len: usize, chunk: usize) -> Vec<EntryRange> {
        assert!(chunk > 0, "chunk size must be positive");
        if len == 0 {
            return vec![EntryRange { start: 0, end: 0 }];
        }
        let mut out = Vec::with_capacity(len.div_ceil(chunk));
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            out.push(EntryRange { start, end });
            start = end;
        }
        out
    }

    fn validate(&self, len: usize) -> Result<()> {
        if self.start > self.end || self.end > len {
            return Err(PotentialError::BadRange {
                start: self.start,
                end: self.end,
                len,
            });
        }
        Ok(())
    }
}

/// Hugin-convention division: `0/0 = 0`; any `x/0` is also mapped to 0
/// (such entries are unreachable in a consistent propagation — a zero in
/// an original separator forces zeros in the updated one).
#[inline]
pub(crate) fn safe_div(num: f64, den: f64) -> f64 {
    // Divide first, then select: the loop bodies become branch-free and
    // vectorise (a compare-and-mask per lane) with the same bits.
    let q = num / den;
    if den == 0.0 {
        0.0
    } else {
        q
    }
}

impl PotentialTable {
    // ----------------------------------------------------------------
    // marginalization
    // ----------------------------------------------------------------

    /// **Marginalization** primitive: sums this table onto `target`
    /// (a subdomain), producing ψ_S = Σ_{C \ S} ψ_C.
    ///
    /// ```
    /// use evprop_potential::{Domain, PotentialTable, Variable, VarId};
    /// let d = Domain::new(vec![Variable::binary(VarId(0)), Variable::binary(VarId(1))])?;
    /// let t = PotentialTable::from_data(d.clone(), vec![1.0, 2.0, 3.0, 4.0])?;
    /// let onto_v1 = t.marginalize(&d.project(&[VarId(1)]))?;
    /// assert_eq!(onto_v1.data(), &[4.0, 6.0]); // summed over V0
    /// # Ok::<(), evprop_potential::PotentialError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `target` ⊄ this domain.
    pub fn marginalize(&self, target: &Domain) -> Result<PotentialTable> {
        let mut out = PotentialTable::zeros(target.clone());
        self.marginalize_range_into(EntryRange::full(self.len()), &mut out)?;
        Ok(out)
    }

    /// Range-partitioned marginalization: accumulates the source entries
    /// in `range` into `out` (which the caller zeroes beforehand). Partial
    /// results from disjoint ranges **add** to the full marginal.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `out`'s domain ⊄ this domain;
    /// [`PotentialError::BadRange`] for an out-of-bounds range.
    pub fn marginalize_range_into(
        &self,
        range: EntryRange,
        out: &mut PotentialTable,
    ) -> Result<()> {
        let (dst_domain, dst) = out.parts_mut();
        crate::raw::marginalize_range_into_raw(self.domain(), self.data(), range, dst_domain, dst)
    }

    // ----------------------------------------------------------------
    // extension
    // ----------------------------------------------------------------

    /// **Extension** primitive: replicates this (separator) table over the
    /// larger `target` domain; every entry of the result equals the source
    /// entry of the projected assignment.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if this domain ⊄ `target`.
    pub fn extend(&self, target: &Domain) -> Result<PotentialTable> {
        let mut out = PotentialTable::zeros(target.clone());
        self.extend_range_into(EntryRange::full(out.len()), &mut out)?;
        Ok(out)
    }

    /// Range-partitioned extension: fills `range` of the *destination*
    /// `out`. Disjoint destination ranges concatenate to the full result.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if this domain ⊄ `out`'s domain;
    /// [`PotentialError::BadRange`] for an out-of-bounds range.
    pub fn extend_range_into(&self, range: EntryRange, out: &mut PotentialTable) -> Result<()> {
        let (dst_domain, dst) = out.parts_mut();
        range.validate(dst.len())?;
        let window = &mut dst[range.start..range.end];
        crate::raw::extend_range_into_raw(self.domain(), self.data(), dst_domain, range, window)
    }

    // ----------------------------------------------------------------
    // multiplication
    // ----------------------------------------------------------------

    /// **Multiplication** primitive: `self[i] *= other[project(i)]`, where
    /// `other`'s domain is a subdomain of this table's. Fuses the
    /// extension of `other` with the product, the form used when a clique
    /// absorbs a separator ratio.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `other`'s domain ⊄ this domain.
    pub fn multiply_assign(&mut self, other: &PotentialTable) -> Result<()> {
        self.multiply_assign_range(EntryRange::full(self.len()), other)
    }

    /// Range-partitioned multiplication over destination `range`.
    ///
    /// # Errors
    ///
    /// See [`PotentialTable::multiply_assign`]; additionally
    /// [`PotentialError::BadRange`] for an out-of-bounds range.
    pub fn multiply_assign_range(
        &mut self,
        range: EntryRange,
        other: &PotentialTable,
    ) -> Result<()> {
        let (dst_domain, dst) = self.parts_mut();
        range.validate(dst.len())?;
        let window = &mut dst[range.start..range.end];
        crate::raw::multiply_range_into(other.domain(), other.data(), dst_domain, range, window)
    }

    /// General product over the union domain, used when assembling initial
    /// clique potentials from CPTs (whose domains need not nest).
    ///
    /// # Errors
    ///
    /// [`PotentialError::CardinalityMismatch`] if a shared variable
    /// disagrees on cardinality.
    pub fn product(&self, other: &PotentialTable) -> Result<PotentialTable> {
        let dom = self.domain().union(other.domain())?;
        let mut out = PotentialTable::ones(dom);
        out.multiply_assign(self)?;
        out.multiply_assign(other)?;
        Ok(out)
    }

    // ----------------------------------------------------------------
    // division
    // ----------------------------------------------------------------

    /// **Division** primitive: elementwise `self[i] = self[i] / other[i]`
    /// over identical domains, with the Hugin convention `0/0 = 0`.
    /// Computes the separator ratio ψ*_S / ψ_S of Eq. (1).
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if the domains differ.
    pub fn divide_assign(&mut self, other: &PotentialTable) -> Result<()> {
        self.divide_assign_range(EntryRange::full(self.len()), other)
    }

    /// Range-partitioned division over destination `range`.
    ///
    /// # Errors
    ///
    /// See [`PotentialTable::divide_assign`]; additionally
    /// [`PotentialError::BadRange`] for an out-of-bounds range.
    pub fn divide_assign_range(&mut self, range: EntryRange, other: &PotentialTable) -> Result<()> {
        if self.domain() != other.domain() {
            // report the first variable that differs
            let missing = other
                .domain()
                .vars()
                .iter()
                .find(|v| !self.domain().contains(v.id()))
                .or_else(|| {
                    self.domain()
                        .vars()
                        .iter()
                        .find(|v| !other.domain().contains(v.id()))
                })
                .map(|v| v.id())
                .unwrap_or(crate::VarId(u32::MAX));
            return Err(PotentialError::NotSubdomain { missing });
        }
        range.validate(self.len())?;
        let src = &other.data()[range.start..range.end];
        crate::simd::div_assign(&mut self.data_mut()[range.start..range.end], src);
        Ok(())
    }

    // ----------------------------------------------------------------
    // addition (combining marginalization partials)
    // ----------------------------------------------------------------

    /// Entrywise addition over identical domains; the combining step for
    /// partitioned marginalization subtasks.
    ///
    /// # Errors
    ///
    /// [`PotentialError::DataSizeMismatch`] if lengths differ.
    pub fn add_assign(&mut self, other: &PotentialTable) -> Result<()> {
        if self.len() != other.len() {
            return Err(PotentialError::DataSizeMismatch {
                expected: self.len(),
                found: other.len(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += *b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VarId, Variable};

    fn dom(spec: &[(u32, usize)]) -> Domain {
        Domain::new(
            spec.iter()
                .map(|&(id, c)| Variable::new(VarId(id), c))
                .collect(),
        )
        .unwrap()
    }

    fn table(spec: &[(u32, usize)], data: Vec<f64>) -> PotentialTable {
        PotentialTable::from_data(dom(spec), data).unwrap()
    }

    #[test]
    fn marginalize_small() {
        // P(A,B): rows A, cols B
        let t = table(&[(0, 2), (1, 3)], vec![1., 2., 3., 4., 5., 6.]);
        let onto_b = t.marginalize(&dom(&[(1, 3)])).unwrap();
        assert_eq!(onto_b.data(), &[5., 7., 9.]);
        let onto_a = t.marginalize(&dom(&[(0, 2)])).unwrap();
        assert_eq!(onto_a.data(), &[6., 15.]);
        let scalar = t.marginalize(&Domain::empty()).unwrap();
        assert_eq!(scalar.data(), &[21.]);
    }

    #[test]
    fn marginalize_onto_self_is_identity() {
        let t = table(&[(0, 2), (1, 2)], vec![1., 2., 3., 4.]);
        let m = t.marginalize(t.domain()).unwrap();
        assert_eq!(m.data(), t.data());
    }

    #[test]
    fn marginalize_not_subdomain_errors() {
        let t = table(&[(0, 2)], vec![1., 2.]);
        assert!(matches!(
            t.marginalize(&dom(&[(5, 2)])),
            Err(PotentialError::NotSubdomain { .. })
        ));
    }

    #[test]
    fn marginalize_partials_add_to_whole() {
        let t = table(&[(0, 2), (1, 2), (2, 2)], (1..=8).map(f64::from).collect());
        let target = dom(&[(1, 2)]);
        let whole = t.marginalize(&target).unwrap();
        let mut acc = PotentialTable::zeros(target.clone());
        for r in EntryRange::split(t.len(), 3) {
            let mut part = PotentialTable::zeros(target.clone());
            t.marginalize_range_into(r, &mut part).unwrap();
            acc.add_assign(&part).unwrap();
        }
        assert_eq!(acc.data(), whole.data());
    }

    #[test]
    fn extend_replicates() {
        let sep = table(&[(1, 3)], vec![10., 20., 30.]);
        let big = sep.extend(&dom(&[(0, 2), (1, 3)])).unwrap();
        assert_eq!(big.data(), &[10., 20., 30., 10., 20., 30.]);
    }

    #[test]
    fn extend_scalar_broadcasts() {
        let s = PotentialTable::scalar(2.5);
        let big = s.extend(&dom(&[(0, 2)])).unwrap();
        assert_eq!(big.data(), &[2.5, 2.5]);
    }

    #[test]
    fn extend_ranges_concatenate() {
        let sep = table(&[(2, 2)], vec![7., 9.]);
        let target = dom(&[(0, 2), (2, 2)]);
        let whole = sep.extend(&target).unwrap();
        let mut pieced = PotentialTable::zeros(target.clone());
        for r in EntryRange::split(target.size(), 3) {
            sep.extend_range_into(r, &mut pieced).unwrap();
        }
        assert_eq!(pieced.data(), whole.data());
    }

    #[test]
    fn multiply_with_projection() {
        let mut clique = table(&[(0, 2), (1, 2)], vec![1., 2., 3., 4.]);
        let sep = table(&[(1, 2)], vec![10., 100.]);
        clique.multiply_assign(&sep).unwrap();
        assert_eq!(clique.data(), &[10., 200., 30., 400.]);
    }

    #[test]
    fn multiply_ranges_match_whole() {
        let base = table(&[(0, 2), (1, 2), (2, 2)], (1..=8).map(f64::from).collect());
        let factor = table(&[(0, 2), (2, 2)], vec![2., 3., 5., 7.]);
        let mut whole = base.clone();
        whole.multiply_assign(&factor).unwrap();
        let mut pieced = base.clone();
        for r in EntryRange::split(base.len(), 3) {
            pieced.multiply_assign_range(r, &factor).unwrap();
        }
        assert_eq!(pieced.data(), whole.data());
    }

    #[test]
    fn product_over_union() {
        let a = table(&[(0, 2)], vec![1., 2.]);
        let b = table(&[(1, 2)], vec![3., 5.]);
        let p = a.product(&b).unwrap();
        assert_eq!(p.domain().var_ids(), vec![VarId(0), VarId(1)]);
        assert_eq!(p.data(), &[3., 5., 6., 10.]);
    }

    #[test]
    fn product_with_overlap() {
        let a = table(&[(0, 2), (1, 2)], vec![1., 2., 3., 4.]);
        let b = table(&[(1, 2), (2, 2)], vec![1., 10., 100., 1000.]);
        let p = a.product(&b).unwrap();
        // P(v0,v1,v2) = a(v0,v1) * b(v1,v2)
        assert_eq!(p.get(&[0, 0, 0]), 1.0);
        assert_eq!(p.get(&[0, 1, 1]), 2.0 * 1000.0);
        assert_eq!(p.get(&[1, 0, 1]), 3.0 * 10.0);
        assert_eq!(p.get(&[1, 1, 0]), 4.0 * 100.0);
    }

    #[test]
    fn divide_elementwise_with_hugin_convention() {
        let mut num = table(&[(0, 2), (1, 2)], vec![1., 4., 0., 9.]);
        let den = table(&[(0, 2), (1, 2)], vec![2., 2., 0., 3.]);
        num.divide_assign(&den).unwrap();
        assert_eq!(num.data(), &[0.5, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn divide_requires_same_domain() {
        let mut num = table(&[(0, 2)], vec![1., 2.]);
        let den = table(&[(1, 2)], vec![1., 2.]);
        assert!(num.divide_assign(&den).is_err());
    }

    #[test]
    fn divide_ranges_match_whole() {
        let num = table(&[(0, 2), (1, 2)], vec![1., 4., 0., 9.]);
        let den = table(&[(0, 2), (1, 2)], vec![2., 2., 0., 3.]);
        let mut whole = num.clone();
        whole.divide_assign(&den).unwrap();
        let mut pieced = num.clone();
        for r in EntryRange::split(num.len(), 3) {
            pieced.divide_assign_range(r, &den).unwrap();
        }
        assert_eq!(pieced.data(), whole.data());
    }

    #[test]
    fn range_split_covers_exactly() {
        let rs = EntryRange::split(10, 4);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0], EntryRange { start: 0, end: 4 });
        assert_eq!(rs[2], EntryRange { start: 8, end: 10 });
        assert_eq!(rs.iter().map(EntryRange::len).sum::<usize>(), 10);
        assert!(!rs[0].is_empty());
    }

    #[test]
    fn bad_range_rejected() {
        let t = table(&[(0, 2)], vec![1., 2.]);
        let mut out = PotentialTable::zeros(Domain::empty());
        let err = t
            .marginalize_range_into(EntryRange { start: 0, end: 5 }, &mut out)
            .unwrap_err();
        assert!(matches!(err, PotentialError::BadRange { .. }));
    }

    #[test]
    fn hugin_propagation_identity() {
        // ψ_X · (marg(ψ_Y → S) / ψ_S) with ψ_S = ones: the classic first
        // message. Check against direct computation.
        let psi_y = table(&[(1, 2), (2, 2)], vec![0.2, 0.3, 0.1, 0.4]);
        let sep_dom = dom(&[(1, 2)]);
        let new_sep = psi_y.marginalize(&sep_dom).unwrap();
        let mut ratio = new_sep.clone();
        ratio.divide_assign(&PotentialTable::ones(sep_dom)).unwrap();
        let mut psi_x = table(&[(0, 2), (1, 2)], vec![1., 1., 1., 1.]);
        psi_x.multiply_assign(&ratio).unwrap();
        assert!((psi_x.get(&[0, 0]) - 0.5).abs() < 1e-12);
        assert!((psi_x.get(&[1, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn primitive_kind_names() {
        assert_eq!(PrimitiveKind::Marginalize.name(), "marg");
        assert_eq!(format!("{}", PrimitiveKind::Divide), "div");
        assert_eq!(format!("{}", PrimitiveKind::Extend), "ext");
        assert_eq!(format!("{}", PrimitiveKind::Multiply), "mul");
    }
}
