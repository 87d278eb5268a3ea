//! # foray-suite — the FORAY-GEN reproduction, in one dependency
//!
//! Meta-crate re-exporting every component of the reproduction of
//! *FORAY-GEN: Automatic Generation of Affine Functions for Memory
//! Optimizations* (Issenin & Dutt, DATE 2005). Depend on this crate to get
//! the whole stack; depend on the individual crates ([`foray`], [`minic`],
//! [`minic_sim`], ...) to pick components.
//!
//! The `examples/` directory of this package holds short tours of the API
//! (the paper's figures are `foray-bench`'s `figures` bin), and `tests/`
//! holds the cross-crate integration and property tests.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), foray_suite::foray::PipelineError> {
//! use foray_suite::foray::ForayGen;
//!
//! let out = ForayGen::new().run_source(
//!     "int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }",
//! )?;
//! assert_eq!(out.model.ref_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use foray;
pub use foray_baseline;
pub use foray_serve;
pub use foray_spm;
pub use foray_workloads;
pub use minic;
pub use minic_sim;
pub use minic_trace;
