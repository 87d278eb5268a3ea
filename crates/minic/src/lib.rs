//! # minic — a mini-C frontend for memory-behaviour research
//!
//! This crate is the language substrate of the FORAY-GEN reproduction
//! (Issenin & Dutt, *FORAY-GEN: Automatic Generation of Affine Functions for
//! Memory Optimizations*, DATE 2005). It models the C subset that matters
//! for the paper's profile-based analysis: `for`/`while`/`do` loops,
//! pointer arithmetic and `*p++` walks, one-dimensional arrays, functions
//! with data-dependent arguments, and a small "system library" of builtins.
//!
//! The pipeline stages offered here:
//!
//! * [`parse`] — source text → [`ast::Program`];
//! * [`check`] — semantic validation + canonical loop/site numbering;
//! * [`instrument()`] — Step 1 of the paper's Algorithm 1 (loop checkpoints);
//! * [`pretty()`] — AST → source text (round-trips);
//! * [`count_lines`] — Table I's line metrics.
//!
//! Execution and trace generation live in the `minic-sim` crate; the FORAY
//! model extraction itself lives in the `foray` crate.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), minic::Error> {
//! let src = r#"
//!     char q[10000];
//!     char *ptr;
//!     void main() {
//!         int i; int t1 = 98;
//!         ptr = q;
//!         while (t1 < 100) {
//!             t1++;
//!             ptr += 100;
//!             for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
//!         }
//!     }
//! "#;
//! let mut prog = minic::parse(src)?;
//! let info = minic::check(&mut prog)?;
//! assert_eq!(info.loops, 2);
//! minic::instrument(&mut prog);
//! assert!(minic::pretty(&prog).contains("CHECKPOINT"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
mod error;
pub mod instrument;
mod lexer;
pub mod loc;
mod parser;
pub mod pretty;
pub mod sema;
pub mod token;

pub use ast::{
    AssignOp, BinOp, Block, CheckpointKind, Expr, Function, GlobalDecl, IncDec, LoopId, Param,
    Program, SiteId, Stmt, Type, UnOp,
};
pub use error::{Diagnostic, Error, Result};
pub use instrument::instrument;
pub use lexer::lex;
pub use loc::{count_lines, LineCounts};
pub use parser::{parse, MAX_AST_DEPTH};
pub use pretty::{checkpoint_from_number, checkpoint_number, pretty};
pub use sema::{check, ProgramInfo};
pub use token::Loc;

/// Parses, checks, and instruments a program in one step — the usual
/// front-door for profiling flows.
///
/// # Errors
///
/// Propagates [`Error`] from [`parse`] or [`check`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let prog = minic::frontend("void main() { while (0) { } }")?;
/// assert!(minic::pretty(&prog).contains("CHECKPOINT(0);"));
/// # Ok(())
/// # }
/// ```
pub fn frontend(src: &str) -> Result<Program> {
    let mut prog = parse(src)?;
    check(&mut prog)?;
    instrument(&mut prog);
    Ok(prog)
}
