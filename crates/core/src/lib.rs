//! # foray — FORAY-GEN: automatic generation of affine functions
//!
//! A from-scratch reproduction of *FORAY-GEN: Automatic Generation of Affine
//! Functions for Memory Optimizations* (Ilya Issenin and Nikil Dutt,
//! DATE 2005). FORAY-GEN extracts, from an arbitrary C-like program, a
//! **FORAY model**: a program of pure `for` loops and array references whose
//! index expressions are affine functions of the loop iterators — the form
//! that static scratch-pad-memory (SPM) optimizers can analyze.
//!
//! The flow (the paper's Algorithm 1):
//!
//! 1. **Annotate** — `minic::instrument` brackets every loop with
//!    checkpoints;
//! 2. **Profile** — `minic-sim` executes the program, streaming memory
//!    accesses and checkpoints;
//! 3. **Analyze** — [`looptree`] rebuilds the loop structure (Algorithm 2)
//!    while [`affine`] fits a full or partial affine index expression per
//!    reference (Algorithm 3);
//! 4. **Purge** — [`FilterConfig`] drops references that are irregular,
//!    rarely executed, or touch few locations (Step 4);
//! 5. **Emit** — [`codegen`] renders the surviving references as the FORAY
//!    model C text of the paper's Fig. 2 / 4(d). [`hints`] additionally
//!    reports function-inlining opportunities (Fig. 9).
//!
//! # Examples
//!
//! The paper's Fig. 4 program, end to end:
//!
//! ```
//! # fn main() -> Result<(), foray::PipelineError> {
//! let out = foray::ForayGen::new()
//!     .filter(foray::FilterConfig { n_exec: 6, n_loc: 6 })
//!     .run_source(
//!         "char q[10000]; char *ptr;
//!          void main() {
//!              int i; int t1 = 98;
//!              ptr = q;
//!              while (t1 < 100) {
//!                  t1++;
//!                  ptr += 100;
//!                  for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
//!              }
//!          }",
//!     )?;
//! // The pointer walk was recovered as an affine array reference:
//! // A…[base + 1*i_inner + 103*i_outer], trips 3 and 2.
//! let r = &out.model.refs[0];
//! assert_eq!(r.terms[0].coeff, 1);
//! assert_eq!(r.terms[1].coeff, 103);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod affine;
pub mod analyzer;
pub mod batch;
pub mod codegen;
pub mod digest;
pub mod fasthash;
pub mod footprint;
pub mod hints;
pub mod looptree;
pub mod model;
pub mod pipeline;
pub mod report;
pub mod srcmap;

pub use affine::AffineState;
pub use analyzer::{
    analyze, analyze_source, analyze_source_with, analyze_with, Analysis, Analyzer, AnalyzerConfig,
    LookupStrategy, RefClass, RefRecord,
};
pub use batch::{
    analyze_batch, analyze_trace_files, map_ordered, parse_thread_override, resolve_workers,
    BatchJob,
};
pub use digest::StableHasher;
pub use hints::InlineHint;
pub use looptree::{LoopTree, NodeId, ROOT};
pub use minic_sim::Engine;
pub use minic_trace::SampleSpec;
pub use model::{AffineTerm, FilterConfig, ForayModel, ModelDiff, ModelLoop, ModelRef};
pub use pipeline::{ForayGen, ForayGenOutput, PipelineError};
pub use report::{CaptureComparison, LoopBreakdown, LoopKind, MemoryBehavior};
