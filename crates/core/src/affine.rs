//! Affine index-expression inference — Algorithm 3 of the paper.
//!
//! For each static memory reference (identified by instruction address ×
//! loop-tree position), the analyzer incrementally fits
//!
//! ```text
//! index = CONST + C1*iter1 + C2*iter2 + … + CN*iterN      (iter1 innermost)
//! ```
//!
//! against the observed access addresses. Coefficients start `UNKNOWN`; when
//! exactly one unknown-coefficient iterator changed between consecutive
//! executions, its coefficient is solved from the address delta. When more
//! than one changed simultaneously the reference is marked non-analyzable
//! (the paper reports such references are rare). When the fitted expression
//! mispredicts, the constant term is re-based and the *partial window* `M`
//! shrinks so the expression only spans the innermost iterators whose
//! behaviour is predictable — the paper's partial affine index expressions
//! (its Fig. 7 scenarios: stack-reallocated local arrays and data-dependent
//! offsets).
//!
//! ## Two deliberate deviations from the paper's pseudo-code
//!
//! * Step 3 prints `ADJ = Σ IT_i·C_i`; deriving from the affine model gives
//!   `ADJ = Σ C_i·(IT_i − ITP_i)`, which is what reproduces the paper's own
//!   Fig. 4 result (`C2 = 103`, `CONST = 2147440948`). We implement the
//!   derived form.
//! * A solved coefficient must be integral; a non-integral quotient marks
//!   the reference non-analyzable (the paper is silent on this case).
//!
//! ## A faithful quirk
//!
//! A reference first observed at a non-zero iterator vector (e.g. inside
//! `if (i == 5)`) gets its constant re-based on the next execution, which
//! the paper's Step 6 also counts as a misprediction — collapsing `M` and
//! usually excluding the reference. We preserve that behaviour; see
//! `rebase_collapses_window_for_late_first_observation` below.

use crate::footprint::Footprint;

/// A coefficient: `None` is the paper's `UNKNOWN`.
pub type Coeff = Option<i64>;

/// The current execution's iterator values, as the shared Step 3 and
/// Step 6 code reads them.
#[derive(Debug, Clone, Copy)]
enum Iters<'a> {
    /// The whole vector, innermost first.
    All(&'a [i64]),
    /// The innermost iterator; every outer one still equals its `ITP`.
    Inner(i64),
}

impl Iters<'_> {
    /// Iterator `i`'s current value, given the previous values `itp`.
    #[inline]
    fn lane(self, i: usize, itp: &[i64]) -> i64 {
        match self {
            Iters::All(v) => v[i],
            Iters::Inner(it) if i == 0 => it,
            Iters::Inner(_) => itp[i],
        }
    }
}

/// Incremental affine model of one static memory reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineState {
    /// Loop nest level `N` at the reference's tree position.
    n: u32,
    /// Constant term `CONST`.
    konst: i64,
    /// Coefficients `C1..CN`, innermost first.
    coeffs: Vec<Coeff>,
    /// Iterator values at the previous execution (`ITP1..ITPN`).
    itp: Vec<i64>,
    /// Partial window `M`: iterators `1..=M` participate in the expression.
    m: u32,
    /// `S` vector: `true` once the iterator was unchanged during a
    /// misprediction.
    s: Vec<bool>,
    /// Previous access address (`INDP`).
    indp: i64,
    /// Set when the reference cannot be described (Step 4 of Algorithm 3).
    non_analyzable: bool,
    /// Executions observed.
    execs: u64,
    /// Mispredictions (Step 6 firings).
    mispredictions: u64,
    /// Distinct addresses touched (footprint).
    footprint: Footprint,
}

impl AffineState {
    /// Creates the state at the first execution of a reference with nest
    /// level `n`, accessing address `addr` under iterator values `iters`
    /// (innermost first, length `n`).
    ///
    /// # Panics
    ///
    /// Panics if `iters.len() != n`.
    pub fn first(n: u32, iters: &[i64], addr: u32) -> Self {
        assert_eq!(iters.len(), n as usize, "iterator vector must match nest level");
        let mut footprint = Footprint::new();
        footprint.insert(addr);
        AffineState {
            n,
            konst: addr as i64,
            coeffs: vec![None; n as usize],
            itp: iters.to_vec(),
            m: n,
            s: vec![false; n as usize],
            indp: addr as i64,
            non_analyzable: false,
            execs: 1,
            mispredictions: 0,
            footprint,
        }
    }

    /// Feeds the next execution (Steps 2–6 of Algorithm 3).
    ///
    /// (Index-based loops below mirror the paper's `i = 1..N` subscripts
    /// over four parallel arrays; iterator chains would obscure that.)
    ///
    /// # Panics
    ///
    /// Panics if `iters.len()` differs from the nest level given at
    /// construction.
    #[allow(clippy::needless_range_loop)]
    pub fn observe(&mut self, iters: &[i64], addr: u32) {
        assert_eq!(iters.len(), self.n as usize, "iterator vector must match nest level");
        self.count(addr);
        let ind = addr as i64;
        if !self.non_analyzable {
            // Step 2 fused with an incremental Step 5: one pass counts the
            // unknown-coefficient iterators that changed (`h`, Step 2) while
            // accumulating the known-coefficient prediction delta. Invariant:
            // whenever the reference is analyzable, the previous Step 5/6 left
            // `KONST + Σ_known C_i·ITP_i == INDP` (a correct prediction ends
            // there by definition; a misprediction re-bases KONST to restore
            // it), so the paper's `INDC = KONST + Σ C_i·IT_i` equals
            // `INDP + Σ_known C_i·(IT_i − ITP_i)` exactly.
            let mut h = 0u32;
            let mut k = usize::MAX;
            let mut dpred = 0i64;
            for i in 0..self.n as usize {
                let d = iters[i] - self.itp[i];
                if d != 0 {
                    match self.coeffs[i] {
                        Some(c) => dpred += c * d,
                        None => {
                            h += 1;
                            k = i;
                        }
                    }
                }
            }
            match h {
                0 => {
                    // No unknowns changed: predict incrementally (Step 5)
                    // and re-base on a miss (Step 6).
                    let indc = self.indp + dpred;
                    if indc != ind {
                        self.mispredict(Iters::All(iters), ind, indc);
                    }
                }
                1 => self.solve(Iters::All(iters), k, dpred, ind),
                // Step 4: several unknowns changed at once — give up.
                _ => self.non_analyzable = true,
            }
        }
        self.itp.copy_from_slice(iters);
        self.indp = ind;
    }

    /// [`AffineState::observe`] for an execution whose outer iterators all
    /// equal their `ITP`: only the innermost iterator, `it`, may have
    /// changed, so Steps 2–6 run on lane 0 alone. This is the analyzer's
    /// per-access hot path.
    // Forced inline into `Analyzer::on_access`: left to the compiler it
    // stayed out of line once that function lost a branch, and dense
    // analysis of fftc read about 4% slower (`analyzer_hot`, 2-core x86-64
    // host).
    #[inline(always)]
    pub(crate) fn observe_inner(&mut self, it: i64, addr: u32) {
        debug_assert!(self.n > 0, "the innermost iterator needs a loop");
        self.count(addr);
        let ind = addr as i64;
        if !self.non_analyzable {
            let d = it - self.itp[0];
            match self.coeffs[0] {
                Some(c) => self.predict_inner(it, ind, self.indp + c * d),
                None if d == 0 => self.predict_inner(it, ind, self.indp),
                None => self.solve(Iters::Inner(it), 0, 0, ind),
            }
        }
        self.itp[0] = it;
        self.indp = ind;
    }

    /// Step 5's check and Step 6 for an innermost-only execution predicted
    /// at `indc`. A collapsed window (`M == 0`) is repaired here: `M` only
    /// falls in Step 6 (from `N ≥ 1` on this path) and `S` only gains bits,
    /// so `M == 0` means `S_2..S_N` are set, and Step 6 then only counts,
    /// re-bases `CONST` and may set `S_1`, leaving `M` at 0.
    #[inline(always)]
    fn predict_inner(&mut self, it: i64, ind: i64, indc: i64) {
        if indc == ind {
            return;
        }
        if self.m == 0 {
            self.mispredictions += 1;
            self.konst += ind - indc;
            self.s[0] |= it == self.itp[0];
        } else {
            self.mispredict(Iters::Inner(it), ind, indc);
        }
    }

    /// Counts one execution and its address.
    #[inline]
    fn count(&mut self, addr: u32) {
        self.execs += 1;
        self.footprint.insert(addr);
    }

    /// Step 3: solves `C_k`, the one unknown coefficient whose iterator
    /// changed, from the address delta; `dpred` is the compensation term
    /// ADJ (changed iterators with known coefficients — unknowns contribute
    /// nothing to it). Then Step 5 in full: the just-solved coefficient was
    /// not part of the invariant sum, so the incremental form does not
    /// apply on this execution. Runs at most once per coefficient.
    #[cold]
    fn solve(&mut self, iters: Iters<'_>, k: usize, dpred: i64, ind: i64) {
        let num = ind - dpred - self.indp;
        let den = iters.lane(k, &self.itp) - self.itp[k];
        debug_assert_ne!(den, 0);
        if num % den != 0 {
            self.non_analyzable = true;
            return;
        }
        self.coeffs[k] = Some(num / den);
        let mut indc = self.konst;
        for (i, c) in self.coeffs.iter().enumerate() {
            if let Some(c) = c {
                indc += c * iters.lane(i, &self.itp);
            }
        }
        if indc != ind {
            self.mispredict(iters, ind, indc);
        }
    }

    /// Step 6: re-base CONST and shrink the partial window to the
    /// iterators that changed in *every* misprediction so far. An
    /// innermost-only execution whose window has already collapsed takes
    /// the inline repair in `predict_inner` instead.
    #[cold]
    fn mispredict(&mut self, iters: Iters<'_>, ind: i64, indc: i64) {
        self.mispredictions += 1;
        for i in 0..self.n as usize {
            if iters.lane(i, &self.itp) == self.itp[i] {
                self.s[i] = true;
            }
        }
        self.konst += ind - indc;
        let mut m = 0u32;
        for i in 0..self.n as usize {
            if !self.s[i] {
                m = i as u32; // M = i-1 with 1-based i.
            }
        }
        self.m = m;
    }

    /// Nest level `N`.
    pub fn nest_level(&self) -> u32 {
        self.n
    }

    /// Constant term of the (possibly partial) expression.
    pub fn constant(&self) -> i64 {
        self.konst
    }

    /// Coefficients `C1..CN`, innermost first (`None` = never observed
    /// changing independently; behaviourally 0 over the profiled run).
    pub fn coefficients(&self) -> &[Coeff] {
        &self.coeffs
    }

    /// Partial window `M`: the expression is valid over iterators `1..=M`.
    /// `M == N` means the expression is a full affine function.
    pub fn window(&self) -> u32 {
        self.m
    }

    /// Whether the expression covers the whole nest.
    pub fn is_full(&self) -> bool {
        self.m == self.n
    }

    /// Whether the reference was marked non-analyzable.
    pub fn is_non_analyzable(&self) -> bool {
        self.non_analyzable
    }

    /// Executions observed (the paper's `Nexec` filter input).
    pub fn executions(&self) -> u64 {
        self.execs
    }

    /// Mispredictions encountered (Step 6 firings).
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Distinct addresses touched (the paper's `Nloc` filter input).
    pub fn footprint(&self) -> u64 {
        self.footprint.len()
    }

    /// The footprint address set itself (used to union footprints per
    /// reference class for Table III).
    pub fn footprint_addrs(&self) -> &Footprint {
        &self.footprint
    }

    /// Whether the expression, restricted to its window, involves at least
    /// one iterator with a known non-zero coefficient — Step 4 of
    /// Algorithm 1's "includes at least one iterator" condition.
    pub fn has_iterator(&self) -> bool {
        self.coeffs[..self.m as usize].iter().any(|c| matches!(c, Some(v) if *v != 0))
    }

    /// Evaluates the fitted expression at an iterator vector (unknown
    /// coefficients contribute nothing, like the paper's Step 5).
    pub fn predict(&self, iters: &[i64]) -> i64 {
        let mut v = self.konst;
        for (i, c) in self.coeffs.iter().enumerate() {
            if let Some(c) = c {
                v += c * iters[i];
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a state through `(iters, addr)` observations.
    fn drive(n: u32, obs: &[(&[i64], u32)]) -> AffineState {
        let mut st = AffineState::first(n, obs[0].0, obs[0].1);
        for (iters, addr) in &obs[1..] {
            st.observe(iters, *addr);
        }
        st
    }

    #[test]
    fn figure4_exact_reproduction() {
        // The paper's worked example: addresses 0x7fff5934..36 in entry one
        // of the inner loop, 0x7fff599b..9d in entry two. Expected model:
        // A[2147440948 + 1*i_inner + 103*i_outer].
        let st = drive(
            2,
            &[
                (&[0, 0], 0x7fff5934),
                (&[1, 0], 0x7fff5935),
                (&[2, 0], 0x7fff5936),
                (&[0, 1], 0x7fff599b),
                (&[1, 1], 0x7fff599c),
                (&[2, 1], 0x7fff599d),
            ],
        );
        assert!(!st.is_non_analyzable());
        assert_eq!(st.constant(), 2147440948);
        assert_eq!(st.coefficients(), &[Some(1), Some(103)]);
        assert!(st.is_full());
        assert_eq!(st.window(), 2);
        assert_eq!(st.executions(), 6);
        assert_eq!(st.mispredictions(), 0);
        assert_eq!(st.footprint(), 6);
        assert!(st.has_iterator());
    }

    #[test]
    fn single_loop_unit_stride() {
        let obs: Vec<(Vec<i64>, u32)> = (0..10).map(|i| (vec![i], 0x1000 + 4 * i as u32)).collect();
        let refs: Vec<(&[i64], u32)> = obs.iter().map(|(v, a)| (v.as_slice(), *a)).collect();
        let st = drive(1, &refs);
        assert_eq!(st.constant(), 0x1000);
        assert_eq!(st.coefficients(), &[Some(4)]);
        assert_eq!(st.predict(&[7]), 0x1000 + 28);
    }

    #[test]
    fn constant_reference_has_no_iterator() {
        let st = drive(1, &[(&[0], 0x500), (&[1], 0x500), (&[2], 0x500)]);
        assert!(!st.is_non_analyzable());
        // Coefficient solved as 0 — known, but not a usable iterator.
        assert_eq!(st.coefficients(), &[Some(0)]);
        assert!(!st.has_iterator());
    }

    #[test]
    fn data_dependent_offset_yields_partial_window() {
        // Fig 7, second case: inner loop i walks stride 4; each outer entry
        // x jumps by a data-dependent offset. The window must shrink to the
        // inner iterator only.
        let mut obs: Vec<(Vec<i64>, u32)> = Vec::new();
        let bases = [0x1000u32, 0x1790, 0x2004]; // irregular bases
        for (x, base) in bases.iter().enumerate() {
            for i in 0..5i64 {
                obs.push((vec![i, x as i64], base + 4 * i as u32));
            }
        }
        let refs: Vec<(&[i64], u32)> = obs.iter().map(|(v, a)| (v.as_slice(), *a)).collect();
        let st = drive(2, &refs);
        assert!(!st.is_non_analyzable());
        assert_eq!(st.window(), 1, "only the innermost iterator is predictable");
        assert!(!st.is_full());
        assert_eq!(st.coefficients()[0], Some(4));
        assert!(st.has_iterator());
        // The first base jump is absorbed by solving C2; only the second
        // jump contradicts it and fires Step 6.
        assert_eq!(st.mispredictions(), 1);
    }

    #[test]
    fn simultaneous_unknown_changes_are_non_analyzable() {
        // Both iterators change between the first two executions while both
        // coefficients are unknown (H = 2).
        let st = drive(2, &[(&[0, 0], 0x100), (&[1, 1], 0x200)]);
        assert!(st.is_non_analyzable());
    }

    #[test]
    fn non_integral_coefficient_is_non_analyzable() {
        // Delta 3 over iterator delta 2.
        let st = drive(1, &[(&[0], 100), (&[2], 103)]);
        assert!(st.is_non_analyzable());
    }

    #[test]
    fn random_walk_is_rejected_or_windowless() {
        // Same iterator vector, different addresses: pure data dependence.
        let st = drive(1, &[(&[0], 100), (&[0], 250), (&[0], 90)]);
        // No iterator changed, so coefficients stay unknown; mispredictions
        // collapse the window to zero.
        assert_eq!(st.window(), 0);
        assert!(!st.has_iterator());
    }

    #[test]
    fn rebase_collapses_window_for_late_first_observation() {
        // Documented faithful quirk: first seen at iter 5, regular stride 4.
        let st = drive(1, &[(&[5], 0x1000), (&[6], 0x1004), (&[7], 0x1008)]);
        // C solved exactly, one rebase misprediction, window collapsed.
        assert_eq!(st.coefficients(), &[Some(4)]);
        assert_eq!(st.mispredictions(), 1);
        assert_eq!(st.window(), 0);
    }

    #[test]
    fn negative_stride() {
        let obs: Vec<(Vec<i64>, u32)> = (0..8).map(|i| (vec![i], 0x2000 - 8 * i as u32)).collect();
        let refs: Vec<(&[i64], u32)> = obs.iter().map(|(v, a)| (v.as_slice(), *a)).collect();
        let st = drive(1, &refs);
        assert_eq!(st.coefficients(), &[Some(-8)]);
        assert!(st.is_full());
    }

    #[test]
    fn three_level_nest() {
        // A[i + 16*j + 256*k] over a 4×4×4 space, element size 4.
        let mut obs: Vec<(Vec<i64>, u32)> = Vec::new();
        for k in 0..4i64 {
            for j in 0..4i64 {
                for i in 0..4i64 {
                    obs.push((vec![i, j, k], (0x8000 + 4 * (i + 16 * j + 256 * k)) as u32));
                }
            }
        }
        let refs: Vec<(&[i64], u32)> = obs.iter().map(|(v, a)| (v.as_slice(), *a)).collect();
        let st = drive(3, &refs);
        assert_eq!(st.coefficients(), &[Some(4), Some(64), Some(1024)]);
        assert!(st.is_full());
        assert_eq!(st.mispredictions(), 0);
        assert_eq!(st.footprint(), 64);
    }

    /// Feeds `steps` (innermost iterator, address; the outer iterators stay
    /// at `outer`) through `observe_inner` and through `observe`, and
    /// checks the two states stay equal, `S` included.
    fn inner_matches_full(outer: &[i64], first: (i64, u32), steps: &[(i64, u32)]) -> AffineState {
        let iters = |it: i64| [&[it][..], outer].concat();
        let n = 1 + outer.len() as u32;
        let mut full = AffineState::first(n, &iters(first.0), first.1);
        let mut inner = full.clone();
        for &(it, addr) in steps {
            full.observe(&iters(it), addr);
            inner.observe_inner(it, addr);
            assert_eq!(inner, full, "diverged at iterator {it}, address {addr:#x}");
        }
        inner
    }

    #[test]
    fn collapsed_window_repair_matches_the_full_step_6() {
        // C1 = 4 is solved, then a jump with the innermost iterator moving
        // collapses M to 0 with S_1 unset; the same iterator re-executing
        // at a new address must set S_1, as the full Step 6 does.
        let st = inner_matches_full(&[7], (0, 100), &[(1, 104), (2, 500), (2, 900), (3, 1000)]);
        assert_eq!(st.window(), 0);
        assert_eq!(st.mispredictions(), 3);
        // With C1 unknown, a repeated iterator at new addresses takes the
        // `d == 0` arm: once through the cold Step 6, then the repair.
        let st = inner_matches_full(&[0, 3], (0, 100), &[(0, 200), (0, 300), (0, 300), (0, 40)]);
        assert_eq!(st.window(), 0);
        assert_eq!(st.mispredictions(), 3);
        assert_eq!(st.coefficients(), &[None, None, None]);
    }

    #[test]
    fn iterator_reset_between_entries_is_handled() {
        // Inner loop re-entered: iterator drops 2 → 0 while the outer
        // iterator advances; the outer coefficient absorbs the jump
        // (exactly Fig 4's C2 = 103 situation, smaller numbers).
        let st = drive(
            2,
            &[
                (&[0, 0], 100),
                (&[1, 0], 101),
                (&[2, 0], 102),
                (&[0, 1], 110), // delta = +8 while inner fell by 2: C2 = 10
                (&[1, 1], 111),
                (&[2, 1], 112),
            ],
        );
        assert_eq!(st.coefficients(), &[Some(1), Some(10)]);
        assert_eq!(st.constant(), 100);
        assert!(st.is_full());
    }
}
