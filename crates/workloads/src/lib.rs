//! # foray-workloads — MiBench-style benchmarks for the FORAY-GEN
//! reproduction
//!
//! The paper evaluates on six MiBench programs (`jpeg`, `lame`, `susan`,
//! `fft`, `gsm`, `adpcm`). MiBench's C sources cannot be vendored into this
//! workspace, so this crate provides six mini-C programs implementing the
//! same algorithm families with the same *access-pattern character* — the
//! property the evaluation actually depends on:
//!
//! | Workload | Algorithm | Character |
//! |---|---|---|
//! | [`jpegc`] | blocked DCT + quantization | `while`/`do` block loops, pointer walks, Fig. 1 idioms |
//! | [`lamec`] | polyphase subband filterbank | `do` frame loop, two-context helper (Fig. 9), data-dependent psycho stage |
//! | [`susanc`] | 5×5 LUT-weighted smoothing | row-pointer stencil dominating accesses, `while` borders |
//! | [`fftc`] | fixed-point radix-2 FFT | pure canonical `for` loops; butterflies indexed through ROM schedule |
//! | [`gsmc`] | LPC speech encoder | argument-offset windows, partial affine LTP, small filtered arrays |
//! | [`adpcmc`] | IMA ADPCM coder | one `while` loop, one pointer-walk reference, data-dependent tables |
//!
//! A seventh program extends the corpus beyond the paper's set:
//!
//! | Workload | Algorithm | Character |
//! |---|---|---|
//! | [`histoc`] | histogram equalization | indirect `hist[image[i]]` updates — the data-dependent partial-affine probe |
//!
//! # Examples
//!
//! ```no_run
//! # fn main() -> Result<(), foray::PipelineError> {
//! for w in foray_workloads::all(foray_workloads::Params::default()) {
//!     let out = w.run()?;
//!     println!("{}: {} refs in FORAY model", w.name, out.model.ref_count());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod adpcmc;
pub mod fftc;
pub mod gsmc;
pub mod histoc;
pub mod input;
pub mod jpegc;
pub mod lamec;
pub mod susanc;

/// Workload sizing knob. `scale = 1` keeps every program small enough for
/// debug-mode test runs; benches use larger scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Linear size multiplier (see each workload's docs for what it
    /// scales).
    pub scale: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { scale: 1 }
    }
}

/// A ready-to-profile benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier (`jpegc`, `lamec`, ...).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// mini-C source text.
    pub source: String,
    /// Data served to the program's `input(i)` builtin.
    pub inputs: Vec<i64>,
}

impl Workload {
    /// Runs the full FORAY-GEN pipeline on this workload with paper-default
    /// filter thresholds.
    ///
    /// # Errors
    ///
    /// Propagates [`foray::PipelineError`] (a workload that fails here is a
    /// bug in this crate).
    pub fn run(&self) -> Result<foray::ForayGenOutput, foray::PipelineError> {
        self.run_with(foray::ForayGen::new())
    }

    /// Runs with a caller-configured pipeline (custom filter thresholds,
    /// simulator settings, ...). The workload's inputs are installed on top.
    ///
    /// # Errors
    ///
    /// Propagates [`foray::PipelineError`].
    pub fn run_with(
        &self,
        pipeline: foray::ForayGen,
    ) -> Result<foray::ForayGenOutput, foray::PipelineError> {
        pipeline.inputs(self.inputs.clone()).run_source(&self.source)
    }

    /// Parses, checks, and instruments the source.
    ///
    /// # Errors
    ///
    /// Propagates [`minic::Error`].
    pub fn frontend(&self) -> Result<minic::Program, minic::Error> {
        minic::frontend(&self.source)
    }

    /// Packages the workload as a [`foray::BatchJob`] for
    /// [`foray::analyze_batch`], installing this workload's inputs on top
    /// of the given pipeline configuration.
    pub fn batch_job(&self, pipeline: foray::ForayGen) -> foray::BatchJob {
        foray::BatchJob::new(self.name, self.source.clone())
            .pipeline(pipeline.inputs(self.inputs.clone()))
    }
}

/// The largest scale [`build`] accepts. `fftc`'s transform size doubles
/// per step: its source is about 4.9 MB at scale 8 and 24 MB at scale 10,
/// and at scale 40 its allocation aborts the process.
pub const MAX_SCALE: u32 = 8;

/// Builds one workload at the given size.
type Builder = fn(Params) -> Workload;

/// Every workload's name and builder, in registry order. [`all`] and
/// [`by_name`] both walk this one table.
const REGISTRY: &[(&str, Builder)] = &[
    ("jpegc", jpegc::workload),
    ("lamec", lamec::workload),
    ("susanc", susanc::workload),
    ("fftc", fftc::workload),
    ("gsmc", gsmc::workload),
    ("adpcmc", adpcmc::workload),
    ("histoc", histoc::workload),
];

/// All workloads at the given size: the six MiBench analogues plus the
/// data-dependent irregular probe (`histoc`).
pub fn all(params: Params) -> Vec<Workload> {
    REGISTRY.iter().map(|(_, build)| build(params)).collect()
}

/// Builds the workload called `name` at the given size, running only that
/// workload's builder; `None` for an unknown name.
pub fn by_name(name: &str, params: Params) -> Option<Workload> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|(_, build)| build(params))
}

/// Builds the workload called `name` at `scale`, or with `None` every
/// workload in registry order: the entry point for a scale that comes
/// from a command line or a request. A scale above [`MAX_SCALE`] is
/// refused before anything is built; [`all`] and [`by_name`] build at any
/// scale.
///
/// # Errors
///
/// The message for a scale above [`MAX_SCALE`], else for an unregistered
/// name; `forayd` and the command lines show it as it is.
pub fn build(name: Option<&str>, scale: u32) -> Result<Vec<Workload>, String> {
    if scale > MAX_SCALE {
        return Err(format!("scale {scale} is above the largest workload scale, {MAX_SCALE}"));
    }
    let params = Params { scale };
    match name {
        None => Ok(all(params)),
        Some(name) => by_name(name, params)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named_consistently() {
        let ws = all(Params::default());
        assert_eq!(ws.len(), 7);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["jpegc", "lamec", "susanc", "fftc", "gsmc", "adpcmc", "histoc"]);
        for scale in [1, 2] {
            let params = Params { scale };
            for w in all(params) {
                let b = by_name(w.name, params)
                    .unwrap_or_else(|| panic!("{} missing from by_name", w.name));
                assert_eq!(b.name, w.name, "the table's name and builder disagree");
                assert_eq!(b.source, w.source, "{} at scale {scale}", w.name);
                assert_eq!(b.inputs, w.inputs, "{} at scale {scale}", w.name);
            }
        }
        assert!(by_name("nope", Params::default()).is_none());
    }

    #[test]
    fn build_checks_the_scale_before_the_name() {
        let one = build(Some("adpcmc"), MAX_SCALE).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].source, by_name("adpcmc", Params { scale: MAX_SCALE }).unwrap().source);
        assert_eq!(build(None, 1).unwrap().len(), REGISTRY.len());
        let too_large = "scale 9 is above the largest workload scale, 8";
        assert_eq!(build(Some("nope"), MAX_SCALE + 1).unwrap_err(), too_large);
        assert!(build(None, u32::MAX).is_err());
        assert_eq!(build(Some("nope"), 1).unwrap_err(), "unknown workload `nope`");
    }

    #[test]
    fn all_workloads_pass_the_frontend() {
        for w in all(Params::default()) {
            w.frontend().unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
        }
    }

    #[test]
    fn sources_are_nontrivial() {
        for w in all(Params::default()) {
            let counts = minic::count_lines(&w.source);
            assert!(counts.code >= 30, "{} is suspiciously small", w.name);
            assert!(!w.inputs.is_empty(), "{} has no input data", w.name);
        }
    }
}
