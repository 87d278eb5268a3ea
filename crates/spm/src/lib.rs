//! # foray-spm — scratch-pad-memory optimization over FORAY models
//!
//! Phase II of the paper's design flow (its Fig. 3): take the FORAY model
//! produced by FORAY-GEN, analyze the data reuse of its affine references,
//! propose scratch-pad buffer configurations, explore the design space
//! under a capacity budget, and emit the transformed (buffered) model code.
//! The analysis style follows the paper's ref \[5\] (Issenin et al.,
//! DATE 2004); the energy assumptions follow its ref \[1\] (Banakar et al.,
//! CODES 2002).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), foray::PipelineError> {
//! // A tiled copy with heavy inner reuse.
//! let out = foray::ForayGen::new().run_source(
//!     "int table[64]; int big[4096];
//!      void main() {
//!          int i; int j;
//!          for (i = 0; i < 4096; i++) { big[i] = i; }
//!          for (i = 0; i < 256; i++) {
//!              for (j = 0; j < 64; j++) { big[j] += table[j]; }
//!          }
//!      }")?;
//! let flow = foray_spm::SpmFlow::new(foray_spm::EnergyModel::default());
//! let report = flow.run(&out.model, 1024);
//! assert!(report.selection.savings_nj > 0.0);
//! assert!(report.code.contains("spm_fill"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod candidate;
pub mod dse;
pub mod energy;
pub mod explore;
pub mod transform;

pub use candidate::{candidates_for, enumerate, BufferCandidate};
pub use dse::{DsePoint, DseResult, DseStats, SpmDesignSpace};
pub use energy::EnergyModel;
pub use explore::{select_exact, CapacityPlan, Selection, MAX_CAPACITY};
pub use transform::emit_buffered;

use foray::ForayModel;

/// End-to-end Phase II driver.
#[derive(Debug, Clone, Default)]
pub struct SpmFlow {
    energy: EnergyModel,
}

/// Everything Phase II produces for one model and capacity.
#[derive(Debug, Clone)]
pub struct SpmReport {
    /// All enumerated buffer candidates (reuse factor > 1).
    pub candidates: Vec<BufferCandidate>,
    /// The chosen configuration.
    pub selection: Selection,
    /// Transformed FORAY model code.
    pub code: String,
    /// Energy of the all-main-memory baseline over the model's accesses.
    pub baseline_nj: f64,
}

impl SpmFlow {
    /// Creates a flow with an energy model.
    pub fn new(energy: EnergyModel) -> Self {
        SpmFlow { energy }
    }

    /// The energy model in use.
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Runs candidate enumeration, exact selection, and code emission for
    /// one SPM capacity (bytes).
    pub fn run(&self, model: &ForayModel, capacity: u32) -> SpmReport {
        let candidates = enumerate(model);
        let selection = select_exact(&candidates, &self.energy, capacity);
        let code = emit_buffered(model, &candidates, &selection.chosen);
        let baseline_nj = self.energy.main_nj(model.covered_accesses());
        SpmReport { candidates, selection, code, baseline_nj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reuse_heavy_model() -> ForayModel {
        foray::ForayGen::new()
            .run_source(
                "int table[256]; int acc[1024];
                 void main() {
                     int i; int j;
                     for (i = 0; i < 128; i++) {
                         for (j = 0; j < 256; j++) { acc[j] = table[j]; }
                     }
                 }",
            )
            .expect("runs")
            .model
    }

    #[test]
    fn flow_produces_positive_savings_for_reuse() {
        let model = reuse_heavy_model();
        let report = SpmFlow::default().run(&model, 4096);
        assert!(!report.candidates.is_empty());
        assert!(report.selection.savings_nj > 0.0);
        assert!(report.selection.used_bytes <= 4096);
        assert!(report.baseline_nj > report.selection.savings_nj);
    }

    #[test]
    fn capacity_zero_changes_nothing() {
        let model = reuse_heavy_model();
        let report = SpmFlow::default().run(&model, 0);
        assert!(report.selection.chosen.is_empty());
        assert!(report.code.contains("references left in main memory"));
    }
}
