//! Parallel SPM design-space exploration: capacities × energy models ×
//! workloads.
//!
//! The paper's Phase II ends with "several buffer configurations are
//! suggested and one of them is selected during design space exploration".
//! This module scales that step into a full DSE sweep (the ImaGen-style
//! direction from `PAPERS.md`): an [`SpmDesignSpace`] names the three axes,
//! [`SpmDesignSpace::explore`] fans the work across the deterministic batch
//! pool ([`foray::map_ordered`]), and the resulting [`DseResult`] carries
//! every design point plus its (capacity, savings) Pareto front, rendered
//! as an aligned text table or machine-readable JSON (`foray-dse/v1`).
//!
//! Work sharing across the axes:
//!
//! * each **workload** is profiled and model-extracted once
//!   ([`foray::analyze_batch`]);
//! * buffer candidates are enumerated **once per workload** and shared by
//!   every energy model and capacity ([`DseStats::enumerations`] proves
//!   it);
//! * each **(workload, model)** pair solves one knapsack table
//!   ([`CapacityPlan`]) at the largest capacity; every grid point is a
//!   backtrack, not a re-solve.
//!
//! Results are **deterministic in the worker count**: the pool returns
//! job-order results, so `explore(1)` and `explore(N)` render byte-identical
//! reports.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), foray_spm::dse::DseError> {
//! use foray::BatchJob;
//! use foray_spm::dse::SpmDesignSpace;
//!
//! let space = SpmDesignSpace::new()
//!     .capacities(&[256, 1024, 4096])
//!     .preset_models()
//!     .workload(BatchJob::new(
//!         "rescan",
//!         "int table[256]; int acc[1024];
//!          void main() {
//!              int i; int j;
//!              for (i = 0; i < 128; i++) {
//!                  for (j = 0; j < 256; j++) { acc[j] = table[j]; }
//!              }
//!          }",
//!     ));
//! let result = space.explore(2)?;
//! assert_eq!(result.stats.enumerations, 1); // one workload, one enumeration
//! assert!(result.front().iter().any(|p| p.selection.savings_nj > 0.0));
//! result.check().expect("front is non-empty and monotone");
//! # Ok(())
//! # }
//! ```

use crate::candidate::{enumerate, BufferCandidate};
use crate::energy::EnergyModel;
use crate::explore::{CapacityPlan, Selection};
use foray::{BatchJob, ForayModel, PipelineError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The three axes of an SPM design-space exploration.
#[derive(Debug, Clone, Default)]
pub struct SpmDesignSpace {
    /// SPM capacity grid in bytes (normalized to ascending unique values
    /// by [`SpmDesignSpace::explore`]).
    pub capacities: Vec<u32>,
    /// Named energy models — presets ([`EnergyModel::presets`]) and/or
    /// user-supplied models.
    pub models: Vec<(String, EnergyModel)>,
    /// Workload programs, as batch jobs for the shared pool.
    pub workloads: Vec<BatchJob>,
}

impl SpmDesignSpace {
    /// An empty design space; populate it with the builder methods.
    pub fn new() -> SpmDesignSpace {
        SpmDesignSpace::default()
    }

    /// Sets the capacity grid (bytes).
    pub fn capacities(mut self, capacities: &[u32]) -> SpmDesignSpace {
        self.capacities = capacities.to_vec();
        self
    }

    /// Adds one named energy model (e.g. a user-calibrated technology
    /// point).
    pub fn model(mut self, name: impl Into<String>, model: EnergyModel) -> SpmDesignSpace {
        self.models.push((name.into(), model));
        self
    }

    /// Adds every built-in preset ([`EnergyModel::presets`]).
    pub fn preset_models(mut self) -> SpmDesignSpace {
        self.models.extend(EnergyModel::presets());
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, job: BatchJob) -> SpmDesignSpace {
        self.workloads.push(job);
        self
    }

    /// Adds many workloads.
    pub fn workloads(mut self, jobs: impl IntoIterator<Item = BatchJob>) -> SpmDesignSpace {
        self.workloads.extend(jobs);
        self
    }

    /// Explores the full space on `workers` pool threads (`0` =
    /// auto-detect, see [`foray::resolve_workers`]).
    ///
    /// Points come back workload-major, then model, then ascending
    /// capacity, and are identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`DseError::EmptyAxis`] if an axis has no entries;
    /// [`DseError::Workload`] if a workload fails to compile or run.
    pub fn explore(&self, workers: usize) -> Result<DseResult, DseError> {
        if self.capacities.is_empty() {
            return Err(DseError::EmptyAxis("capacities"));
        }
        if self.models.is_empty() {
            return Err(DseError::EmptyAxis("models"));
        }
        if self.workloads.is_empty() {
            return Err(DseError::EmptyAxis("workloads"));
        }
        let mut capacities = self.capacities.clone();
        capacities.sort_unstable();
        capacities.dedup();
        let budget = *capacities.last().expect("grid is non-empty");

        // Stage 1: profile and extract one FORAY model per workload, across
        // the shared batch pool.
        let outputs = foray::analyze_batch(&self.workloads, workers);
        let mut models: Vec<ForayModel> = Vec::with_capacity(outputs.len());
        for (job, out) in self.workloads.iter().zip(outputs) {
            match out {
                Ok(o) => models.push(o.model),
                Err(error) => return Err(DseError::Workload { name: job.name.clone(), error }),
            }
        }

        // Stage 2: enumerate buffer candidates once per workload. The
        // model and capacity axes reuse these sets; the counter feeds
        // `DseStats::enumerations` so tests can pin the sharing.
        let enumerations = AtomicU64::new(0);
        let candidate_sets: Vec<Vec<BufferCandidate>> =
            foray::map_ordered(&models, workers, |_, model| {
                enumerations.fetch_add(1, Ordering::Relaxed);
                enumerate(model)
            });

        // Stage 3: one (workload, model) job per pair — solve the knapsack
        // table once at the budget, backtrack every capacity.
        let pairs: Vec<(usize, usize)> = (0..self.workloads.len())
            .flat_map(|w| (0..self.models.len()).map(move |m| (w, m)))
            .collect();
        let plans = AtomicU64::new(0);
        let per_pair: Vec<Vec<DsePoint>> = foray::map_ordered(&pairs, workers, |_, &(w, m)| {
            let (model_name, energy) = &self.models[m];
            plans.fetch_add(1, Ordering::Relaxed);
            let plan = CapacityPlan::build(&candidate_sets[w], energy, budget);
            let baseline_nj = energy.main_nj(models[w].covered_accesses());
            capacities
                .iter()
                .map(|&capacity| DsePoint {
                    workload: self.workloads[w].name.clone(),
                    model: model_name.clone(),
                    capacity,
                    selection: plan.select(capacity),
                    baseline_nj,
                    candidates: candidate_sets[w].len(),
                    pareto: false,
                })
                .collect()
        });
        let mut points: Vec<DsePoint> = per_pair.into_iter().flatten().collect();

        // Mark each (workload, model) curve's Pareto members.
        for chunk in points.chunks_mut(capacities.len()) {
            for i in pareto_front(chunk) {
                chunk[i].pareto = true;
            }
        }

        let stats = DseStats {
            workloads: self.workloads.len(),
            models: self.models.len(),
            capacities: capacities.len(),
            enumerations: enumerations.load(Ordering::Relaxed),
            plans: plans.load(Ordering::Relaxed),
        };
        Ok(DseResult {
            capacities,
            models: self.models.iter().map(|(n, _)| n.clone()).collect(),
            workloads: self.workloads.iter().map(|j| j.name.clone()).collect(),
            points,
            stats,
        })
    }
}

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Workload name (the batch job's label).
    pub workload: String,
    /// Energy-model name.
    pub model: String,
    /// SPM capacity in bytes.
    pub capacity: u32,
    /// The optimal buffer configuration at this point.
    pub selection: Selection,
    /// All-main-memory energy of the workload's model under this energy
    /// model, in nJ.
    pub baseline_nj: f64,
    /// Number of buffer candidates enumerated for the workload.
    pub candidates: usize,
    /// Whether the point is on its (workload, model) Pareto front.
    pub pareto: bool,
}

impl DsePoint {
    /// Savings as a percentage of the all-main-memory baseline.
    pub fn saved_pct(&self) -> f64 {
        if self.baseline_nj <= 0.0 {
            0.0
        } else {
            100.0 * self.selection.savings_nj / self.baseline_nj
        }
    }
}

/// Work counters proving what the exploration shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseStats {
    /// Workloads explored.
    pub workloads: usize,
    /// Energy models explored.
    pub models: usize,
    /// Capacity grid points (after normalization).
    pub capacities: usize,
    /// Candidate enumerations executed — equals `workloads`, never
    /// `workloads × models × capacities`.
    pub enumerations: u64,
    /// Knapsack tables solved — equals `workloads × models`, never
    /// `× capacities`.
    pub plans: u64,
}

/// Everything [`SpmDesignSpace::explore`] produces.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Normalized (ascending, unique) capacity grid.
    pub capacities: Vec<u32>,
    /// Energy-model names, in exploration order.
    pub models: Vec<String>,
    /// Workload names, in exploration order.
    pub workloads: Vec<String>,
    /// All design points: workload-major, then model, then ascending
    /// capacity.
    pub points: Vec<DsePoint>,
    /// Work counters.
    pub stats: DseStats,
}

/// Indices of the (capacity, savings) Pareto front of one curve.
///
/// A point is dominated when another point has capacity ≤ and savings ≥
/// with at least one strict; dominated points are pruned. Exact duplicates
/// keep their first occurrence.
pub fn pareto_front(points: &[DsePoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .capacity
            .cmp(&points[b].capacity)
            .then_with(|| {
                points[b]
                    .selection
                    .savings_nj
                    .partial_cmp(&points[a].selection.savings_nj)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then(a.cmp(&b))
    });
    let mut front = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for i in order {
        let s = points[i].selection.savings_nj;
        if s > best {
            front.push(i);
            best = s;
        }
    }
    front.sort_unstable();
    front
}

impl DseResult {
    /// The combined Pareto front, ranked by savings (descending; ties go to
    /// the smaller capacity, then exploration order).
    pub fn front(&self) -> Vec<&DsePoint> {
        let mut f: Vec<&DsePoint> = self.points.iter().filter(|p| p.pareto).collect();
        f.sort_by(|a, b| {
            b.selection
                .savings_nj
                .partial_cmp(&a.selection.savings_nj)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.capacity.cmp(&b.capacity))
        });
        f
    }

    /// The points of one (workload, model) capacity curve.
    pub fn curve(&self, workload: &str, model: &str) -> Vec<&DsePoint> {
        self.points.iter().filter(|p| p.workload == workload && p.model == model).collect()
    }

    /// CI invariants: every (workload, model) curve has a non-empty Pareto
    /// front and savings non-decreasing in capacity.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("exploration produced no design points".to_owned());
        }
        for chunk in self.points.chunks(self.capacities.len()) {
            let ctx = format!("{}/{}", chunk[0].workload, chunk[0].model);
            if !chunk.iter().any(|p| p.pareto) {
                return Err(format!("{ctx}: empty Pareto front"));
            }
            for pair in chunk.windows(2) {
                if pair[1].selection.savings_nj < pair[0].selection.savings_nj - 1e-9 {
                    return Err(format!(
                        "{ctx}: savings not monotone in capacity ({} B -> {:.3} nJ, {} B -> {:.3} nJ)",
                        pair[0].capacity,
                        pair[0].selection.savings_nj,
                        pair[1].capacity,
                        pair[1].selection.savings_nj,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Renders the full report as an aligned text table (the
    /// `foray-bench` table style) plus the ranked Pareto front.
    pub fn render_text(&self) -> String {
        let headers = ["workload", "model", "capacity", "buffers", "used", "savings nJ", "saved"];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}{}", if p.pareto { "*" } else { " " }, p.workload),
                    p.model.clone(),
                    p.capacity.to_string(),
                    p.selection.chosen.len().to_string(),
                    p.selection.used_bytes.to_string(),
                    format!("{:.1}", p.selection.savings_nj),
                    format!("{:.1}%", p.saved_pct()),
                ]
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!(
            "SPM design-space exploration: {} workloads x {} models x {} capacities ({} points, {} enumerations, {} plans)\n\n",
            self.stats.workloads,
            self.stats.models,
            self.stats.capacities,
            self.points.len(),
            self.stats.enumerations,
            self.stats.plans,
        ));
        out.push_str(&foray::report::render_table(&headers, &rows));
        out.push_str("\nPareto front (* above; ranked by savings):\n");
        for (rank, p) in self.front().iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {}/{} @ {} B -> {:.1} nJ saved ({:.1}% of baseline, {} buffers)\n",
                rank + 1,
                p.workload,
                p.model,
                p.capacity,
                p.selection.savings_nj,
                p.saved_pct(),
                p.selection.chosen.len(),
            ));
        }
        out
    }

    /// Serializes the result as `foray-dse/v1` JSON (hand-rolled — the
    /// workspace builds offline, without serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"foray-dse/v1\",\n");
        out.push_str(&format!(
            "  \"capacities\": [{}],\n",
            self.capacities.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!("  \"models\": [{}],\n", json_str_list(&self.models)));
        out.push_str(&format!("  \"workloads\": [{}],\n", json_str_list(&self.workloads)));
        out.push_str(&format!(
            "  \"stats\": {{\"workloads\": {}, \"models\": {}, \"capacities\": {}, \"enumerations\": {}, \"plans\": {}}},\n",
            self.stats.workloads,
            self.stats.models,
            self.stats.capacities,
            self.stats.enumerations,
            self.stats.plans,
        ));
        let point_json = |p: &DsePoint| {
            format!(
                "{{\"workload\": {}, \"model\": {}, \"capacity\": {}, \"buffers\": {}, \"used_bytes\": {}, \"savings_nj\": {}, \"baseline_nj\": {}, \"candidates\": {}, \"pareto\": {}}}",
                json_str(&p.workload),
                json_str(&p.model),
                p.capacity,
                p.selection.chosen.len(),
                p.selection.used_bytes,
                json_f64(p.selection.savings_nj),
                json_f64(p.baseline_nj),
                p.candidates,
                p.pareto,
            )
        };
        out.push_str("  \"points\": [\n");
        let body: Vec<String> =
            self.points.iter().map(|p| format!("    {}", point_json(p))).collect();
        out.push_str(&body.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"front\": [\n");
        let front: Vec<String> =
            self.front().iter().map(|p| format!("    {}", point_json(p))).collect();
        out.push_str(&front.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_list(items: &[String]) -> String {
    items.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
}

/// JSON has no NaN/Infinity; energy sums are finite by construction, but
/// clamp defensively rather than emit invalid JSON.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Design-space exploration failure.
#[derive(Debug)]
pub enum DseError {
    /// An axis of the design space has no entries.
    EmptyAxis(&'static str),
    /// A workload failed to compile or run; carries the job's name.
    Workload {
        /// The failing batch job's label.
        name: String,
        /// The underlying pipeline failure.
        error: PipelineError,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::EmptyAxis(axis) => write!(f, "design space has no {axis}"),
            DseError::Workload { name, error } => write!(f, "workload `{name}`: {error}"),
        }
    }
}

impl std::error::Error for DseError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heavy inner reuse: a good SPM customer.
    const RESCAN: &str = "int table[256]; int acc[1024];
        void main() {
            int i; int j;
            for (i = 0; i < 96; i++) {
                for (j = 0; j < 256; j++) { acc[j] = table[j]; }
            }
        }";

    /// Pure streaming: no reuse, no candidates, zero-savings points.
    const STREAM: &str = "int a[2048];
        void main() {
            int i;
            for (i = 0; i < 2048; i++) { a[i] = i; }
        }";

    fn space() -> SpmDesignSpace {
        SpmDesignSpace::new()
            .capacities(&[4096, 256, 1024, 256]) // unsorted + duplicate on purpose
            .model("small-spm", EnergyModel::preset("small-spm").unwrap())
            .model("large-spm", EnergyModel::preset("large-spm").unwrap())
            .workloads([BatchJob::new("rescan", RESCAN), BatchJob::new("stream", STREAM)])
    }

    #[test]
    fn explore_shares_enumeration_and_plans_across_the_grid() {
        let result = space().explore(2).expect("explores");
        assert_eq!(result.capacities, vec![256, 1024, 4096], "grid is normalized");
        assert_eq!(result.points.len(), 2 * 2 * 3);
        assert_eq!(result.stats.enumerations, 2, "once per workload, not per (model, capacity)");
        assert_eq!(result.stats.plans, 4, "once per (workload, model), not per capacity");
        result.check().expect("invariants hold");
        // Point order: workload-major, model, ascending capacity.
        assert_eq!(result.points[0].workload, "rescan");
        assert_eq!(result.points[0].model, "small-spm");
        assert_eq!(result.points[0].capacity, 256);
        assert_eq!(result.points[3].model, "large-spm");
        assert_eq!(result.points[6].workload, "stream");
        // The reuse-heavy workload saves energy; the stream saves nothing.
        assert!(result.curve("rescan", "small-spm").last().unwrap().selection.savings_nj > 0.0);
        for p in result.curve("stream", "small-spm") {
            assert_eq!(p.selection.savings_nj, 0.0);
            assert_eq!(p.candidates, 0);
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let err = SpmDesignSpace::new().explore(1).unwrap_err();
        assert!(matches!(err, DseError::EmptyAxis("capacities")), "{err}");
        let err = SpmDesignSpace::new().capacities(&[256]).explore(1).unwrap_err();
        assert!(matches!(err, DseError::EmptyAxis("models")), "{err}");
        let err = SpmDesignSpace::new().capacities(&[256]).preset_models().explore(1).unwrap_err();
        assert!(matches!(err, DseError::EmptyAxis("workloads")), "{err}");
    }

    #[test]
    fn workload_failures_carry_the_job_name() {
        let err = SpmDesignSpace::new()
            .capacities(&[256])
            .preset_models()
            .workload(BatchJob::new("broken", "void main() {"))
            .explore(1)
            .unwrap_err();
        match err {
            DseError::Workload { name, .. } => assert_eq!(name, "broken"),
            other => panic!("wrong error: {other}"),
        }
    }

    fn fixture_point(capacity: u32, savings_nj: f64) -> DsePoint {
        DsePoint {
            workload: "w".to_owned(),
            model: "m".to_owned(),
            capacity,
            selection: Selection { chosen: Vec::new(), used_bytes: 0, savings_nj },
            baseline_nj: 100.0,
            candidates: 0,
            pareto: false,
        }
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        // (512, 5.0) dominates (512, 3.0) [same capacity, less savings] and
        // (1024, 5.0) [more capacity, same savings]; (256, 1.0) and
        // (2048, 9.0) survive as the cheap and rich ends of the front.
        let points = vec![
            fixture_point(256, 1.0),
            fixture_point(512, 3.0),
            fixture_point(512, 5.0),
            fixture_point(1024, 5.0),
            fixture_point(2048, 9.0),
        ];
        assert_eq!(pareto_front(&points), vec![0, 2, 4]);
        // A flat curve keeps only its cheapest point.
        let flat = vec![fixture_point(256, 0.0), fixture_point(512, 0.0)];
        assert_eq!(pareto_front(&flat), vec![0]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn json_report_is_wellformed_enough_to_grep() {
        let result = space().explore(0).expect("explores");
        let json = result.to_json();
        assert!(json.contains("\"schema\": \"foray-dse/v1\""));
        assert!(json.contains("\"capacities\": [256, 1024, 4096]"));
        assert!(json.contains("\"pareto\": true"));
        assert_eq!(
            json.matches("\"workload\":").count(),
            result.points.len() + result.front().len()
        );
        // Balanced braces/brackets (cheap structural sanity without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn text_report_lists_every_point_and_the_ranked_front() {
        let result = space().explore(1).expect("explores");
        let text = result.render_text();
        assert!(text.contains("2 workloads x 2 models x 3 capacities"));
        assert!(text.contains("workload"));
        assert!(text.contains("Pareto front"));
        assert!(text.contains("*rescan"), "front members are starred:\n{text}");
        let rank1 = text.lines().find(|l| l.trim_start().starts_with("1.")).expect("ranked list");
        assert!(rank1.contains("rescan"), "best point is the reuse-heavy workload: {rank1}");
    }
}
