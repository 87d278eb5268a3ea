//! Energy model for scratch-pad vs main-memory accesses.
//!
//! Calibrated to the qualitative facts the paper's flow relies on (via its
//! ref \[1\], Banakar et al., CODES 2002): an on-chip SPM access costs a
//! fraction of a main-memory access, and SPM per-access energy grows
//! slowly (roughly logarithmically) with SPM size. Absolute numbers are
//! representative, not process-accurate — Phase II decisions depend only on
//! the ratios.

/// Per-access energy parameters, in nanojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Main-memory (off-chip) access energy.
    pub main_access_nj: f64,
    /// SPM access energy at the reference size.
    pub spm_base_nj: f64,
    /// SPM size at which `spm_base_nj` holds, in bytes.
    pub spm_base_bytes: u32,
    /// Additional energy per doubling of SPM size (fraction of base).
    pub spm_size_slope: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // ~16x main-memory vs small-SPM ratio, Banakar-flavoured.
        EnergyModel {
            main_access_nj: 3.2,
            spm_base_nj: 0.19,
            spm_base_bytes: 512,
            spm_size_slope: 0.18,
        }
    }
}

/// Names of the built-in presets, in [`EnergyModel::presets`] order.
pub const PRESET_NAMES: &[&str] = &["default", "small-spm", "medium-spm", "large-spm"];

impl EnergyModel {
    /// Looks up a built-in preset by name.
    ///
    /// Besides `"default"` (the [`Default`] parameters), three CACTI-style
    /// technology points are provided for design-space exploration. They
    /// share the off-chip access cost but differ in where the SPM
    /// access-energy curve is anchored: a small SPM macro is cheapest per
    /// access but its energy climbs steeply when oversized, while a large
    /// macro starts costlier and stays flat. Sweeping all three shows which
    /// capacity regime each workload's Pareto front lives in.
    ///
    /// # Examples
    ///
    /// ```
    /// use foray_spm::EnergyModel;
    /// let small = EnergyModel::preset("small-spm").unwrap();
    /// let large = EnergyModel::preset("large-spm").unwrap();
    /// assert!(small.spm_access_nj(256) < large.spm_access_nj(256));
    /// assert!(small.spm_access_nj(64 * 1024) > large.spm_access_nj(64 * 1024));
    /// assert!(EnergyModel::preset("nope").is_none());
    /// ```
    pub fn preset(name: &str) -> Option<EnergyModel> {
        match name {
            "default" => Some(EnergyModel::default()),
            "small-spm" => Some(EnergyModel {
                main_access_nj: 3.2,
                spm_base_nj: 0.11,
                spm_base_bytes: 256,
                spm_size_slope: 0.34,
            }),
            "medium-spm" => Some(EnergyModel {
                main_access_nj: 3.2,
                spm_base_nj: 0.19,
                spm_base_bytes: 1024,
                spm_size_slope: 0.16,
            }),
            "large-spm" => Some(EnergyModel {
                main_access_nj: 3.2,
                spm_base_nj: 0.27,
                spm_base_bytes: 4096,
                spm_size_slope: 0.07,
            }),
            _ => None,
        }
    }

    /// Every built-in preset as a named list — the standard model axis of
    /// an SPM design-space exploration.
    pub fn presets() -> Vec<(String, EnergyModel)> {
        PRESET_NAMES
            .iter()
            .map(|&n| (n.to_owned(), EnergyModel::preset(n).expect("preset names are built-in")))
            .collect()
    }

    /// Per-access SPM energy for an SPM of `size_bytes`.
    pub fn spm_access_nj(&self, size_bytes: u32) -> f64 {
        let size = size_bytes.max(1) as f64;
        let base = self.spm_base_bytes.max(1) as f64;
        let doublings = (size / base).log2().max(0.0);
        self.spm_base_nj * (1.0 + self.spm_size_slope * doublings)
    }

    /// Energy for `n` main-memory accesses.
    pub fn main_nj(&self, n: u64) -> f64 {
        self.main_access_nj * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spm_is_cheaper_and_grows_with_size() {
        let m = EnergyModel::default();
        assert!(m.spm_access_nj(512) < m.main_access_nj);
        assert!(m.spm_access_nj(16 * 1024) > m.spm_access_nj(512));
    }

    #[test]
    fn below_base_size_is_flat() {
        let m = EnergyModel::default();
        assert_eq!(m.spm_access_nj(64), m.spm_access_nj(512));
    }

    #[test]
    fn presets_cover_the_names_and_order_by_anchor_size() {
        let ps = EnergyModel::presets();
        assert_eq!(ps.len(), PRESET_NAMES.len());
        for ((name, model), &expect) in ps.iter().zip(PRESET_NAMES) {
            assert_eq!(name, expect);
            assert_eq!(model, &EnergyModel::preset(expect).unwrap());
            // Every preset keeps the SPM worthwhile at its anchor size.
            assert!(
                model.spm_access_nj(model.spm_base_bytes) < model.main_access_nj,
                "{name} never wins"
            );
        }
        assert_eq!(EnergyModel::preset("default").unwrap(), EnergyModel::default());
        let small = EnergyModel::preset("small-spm").unwrap();
        let medium = EnergyModel::preset("medium-spm").unwrap();
        let large = EnergyModel::preset("large-spm").unwrap();
        assert!(small.spm_base_bytes < medium.spm_base_bytes);
        assert!(medium.spm_base_bytes < large.spm_base_bytes);
        // The curves cross: small wins small, large wins large.
        assert!(small.spm_access_nj(256) < large.spm_access_nj(256));
        assert!(small.spm_access_nj(64 * 1024) > large.spm_access_nj(64 * 1024));
    }

    #[test]
    fn main_energy_is_linear() {
        let m = EnergyModel::default();
        assert!((m.main_nj(10) - 10.0 * m.main_access_nj).abs() < 1e-9);
    }
}
