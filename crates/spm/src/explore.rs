//! Design-space exploration: which buffers go into the scratch pad —
//! step 3 of the paper's Phase II call-out ("explore and select buffers to
//! be placed in SPM").
//!
//! Selecting at most one buffering level per reference under a capacity
//! budget is a multiple-choice knapsack, solved exactly by one dynamic
//! program ([`CapacityPlan`]).

use crate::candidate::BufferCandidate;
use crate::energy::EnergyModel;
use std::collections::BTreeMap;

/// A chosen configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Indices into the candidate slice, at most one per reference.
    pub chosen: Vec<usize>,
    /// Bytes of SPM used.
    pub used_bytes: u32,
    /// Energy saved vs an all-main-memory baseline, in nJ.
    pub savings_nj: f64,
}

/// The multiple-choice knapsack dynamic program, solved **once** up to a
/// byte budget and reusable for every capacity at or below it.
///
/// `dp[w]` depends only on the previous group's `dp[w']` for `w' ≤ w`, so a
/// single table built at the budget answers *all* smaller capacities by
/// backtracking from a different column — the cached core of the
/// design-space-exploration capacity axis ([`crate::dse`]). Per-candidate
/// savings under the plan's energy model are evaluated once at build time
/// instead of once per DP cell.
///
/// Complexity: `O(budget × candidates)` to build, `O(groups)` per
/// [`CapacityPlan::select`].
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// Largest capacity (bytes) the table covers.
    budget: u32,
    /// Candidate sizes, indexed like the source slice.
    sizes: Vec<u32>,
    /// Per-candidate savings under the plan's energy model.
    savings: Vec<f64>,
    /// Per reference group: the candidate picked at each capacity column
    /// (`-1` = skip the group), in ascending `ref_idx` order.
    picks: Vec<Vec<i32>>,
}

impl CapacityPlan {
    /// Solves the DP for `candidates` under `energy`, up to `budget` bytes.
    pub fn build(
        candidates: &[BufferCandidate],
        energy: &EnergyModel,
        budget: u32,
    ) -> CapacityPlan {
        let cap = budget as usize;
        let sizes: Vec<u32> = candidates.iter().map(|c| c.size_bytes).collect();
        let savings: Vec<f64> = candidates.iter().map(|c| c.savings_nj(energy)).collect();
        // Group candidate indices by reference (choose ≤ 1 per group).
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, c) in candidates.iter().enumerate() {
            groups.entry(c.ref_idx).or_default().push(i);
        }
        // dp[w] = best savings using ≤ w bytes; picks[g][w] = candidate
        // chosen for group g at that column.
        let mut dp = vec![0.0f64; cap + 1];
        let mut picks: Vec<Vec<i32>> = Vec::with_capacity(groups.len());
        for group in groups.values() {
            let prev = dp.clone();
            let mut pick_row = vec![-1i32; cap + 1];
            for w in 0..=cap {
                // Default: skip this group.
                dp[w] = prev[w];
                for &ci in group {
                    let size = sizes[ci] as usize;
                    if size <= w {
                        let v = prev[w - size] + savings[ci];
                        if v > dp[w] {
                            dp[w] = v;
                            pick_row[w] = ci as i32;
                        }
                    }
                }
            }
            picks.push(pick_row);
        }
        CapacityPlan { budget, sizes, savings, picks }
    }

    /// The byte budget the plan was built for.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Backtracks the optimal selection for `capacity` bytes (clamped to
    /// the plan's budget) — identical to solving the DP at that capacity
    /// directly.
    pub fn select(&self, capacity: u32) -> Selection {
        let mut w = capacity.min(self.budget) as usize;
        let mut chosen = Vec::new();
        for row in self.picks.iter().rev() {
            let ci = row[w];
            if ci >= 0 {
                chosen.push(ci as usize);
                w -= self.sizes[ci as usize] as usize;
            }
        }
        chosen.reverse();
        let used_bytes = chosen.iter().map(|&i| self.sizes[i]).sum();
        // `Sum for f64` has identity -0.0; `+ 0.0` keeps empty selections
        // from reporting "-0" savings.
        let savings_nj = chosen.iter().map(|&i| self.savings[i]).sum::<f64>() + 0.0;
        Selection { chosen, used_bytes, savings_nj }
    }
}

/// Exact multiple-choice knapsack via dynamic programming over capacity.
///
/// Complexity `O(capacity × candidates)`; capacities are SPM-sized
/// (≤ 64 KiB), so this is fast in practice. Sweeping several capacities?
/// Build one [`CapacityPlan`] at the largest and [`CapacityPlan::select`]
/// each — that is what [`crate::SpmDesignSpace::explore`] does.
pub fn select_exact(
    candidates: &[BufferCandidate],
    energy: &EnergyModel,
    capacity: u32,
) -> Selection {
    CapacityPlan::build(candidates, energy, capacity).select(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(
        ref_idx: usize,
        level: u32,
        size: u32,
        accesses: u64,
        fills: u64,
    ) -> BufferCandidate {
        BufferCandidate {
            ref_idx,
            array: format!("A{ref_idx}"),
            level,
            size_bytes: size,
            spm_accesses: accesses,
            fill_elems: fills,
            writeback_elems: 0,
            activations: 1,
            elem_bytes: 4,
        }
    }

    #[test]
    fn exact_respects_capacity_and_groups() {
        let energy = EnergyModel::default();
        let cands = vec![
            candidate(0, 1, 100, 10_000, 100), // ref 0, small
            candidate(0, 2, 400, 10_000, 25),  // ref 0, bigger, better
            candidate(1, 1, 300, 5_000, 50),
        ];
        let sel = select_exact(&cands, &energy, 700);
        // Can take ref0/level2 (400) + ref1 (300) = 700.
        assert_eq!(sel.chosen, vec![1, 2]);
        assert_eq!(sel.used_bytes, 700);
        // Tight capacity: must pick the best combination that fits.
        let sel = select_exact(&cands, &energy, 450);
        assert!(sel.used_bytes <= 450);
        let per_ref: std::collections::HashSet<usize> =
            sel.chosen.iter().map(|&i| cands[i].ref_idx).collect();
        assert_eq!(per_ref.len(), sel.chosen.len(), "at most one level per reference");
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let energy = EnergyModel::default();
        let cands = vec![candidate(0, 1, 100, 1_000, 10)];
        let sel = select_exact(&cands, &energy, 0);
        assert!(sel.chosen.is_empty());
        assert_eq!(sel.savings_nj, 0.0);
    }

    #[test]
    fn empty_selection_savings_are_positive_zero() {
        // `Sum for f64` folds from -0.0; an empty selection must still
        // report "0", not "-0", in every rendered report.
        let sel = select_exact(&[], &EnergyModel::default(), 256);
        assert!(sel.chosen.is_empty());
        assert_eq!(sel.savings_nj.to_bits(), 0.0f64.to_bits(), "got -0.0");
    }

    #[test]
    fn negative_savings_candidates_are_never_chosen() {
        let energy = EnergyModel::default();
        // Moves more data than it serves.
        let cands = vec![candidate(0, 1, 100, 10, 1_000)];
        assert!(cands[0].savings_nj(&energy) < 0.0);
        let sel = select_exact(&cands, &energy, 1_000);
        assert!(sel.chosen.is_empty());
    }

    #[test]
    fn one_plan_answers_every_capacity_exactly() {
        // Backtracking a shared budget-sized table must equal re-solving
        // the DP at each capacity — the cached-sweep correctness contract.
        let energy = EnergyModel::default();
        let cands = vec![
            candidate(0, 1, 60, 3_000, 30),
            candidate(0, 2, 240, 3_600, 9),
            candidate(1, 1, 60, 3_000, 30),
            candidate(2, 1, 100, 4_600, 46),
            candidate(3, 1, 500, 9_000, 125),
        ];
        let plan = CapacityPlan::build(&cands, &energy, 1024);
        assert_eq!(plan.budget(), 1024);
        for cap in [0u32, 59, 60, 100, 120, 160, 220, 400, 640, 1024] {
            let direct = select_exact(&cands, &energy, cap);
            let cached = plan.select(cap);
            assert_eq!(cached, direct, "capacity {cap}");
        }
        // Above-budget capacities clamp to the budget column.
        assert_eq!(plan.select(4096), plan.select(1024));
    }
}
