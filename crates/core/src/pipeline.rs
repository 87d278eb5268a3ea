//! Algorithm 1 end to end: annotate → profile → analyze → purge → emit.
//!
//! [`ForayGen`] orchestrates the whole flow over the `minic` frontend and
//! the `minic-sim` profiler, running the analyzer *online* as the trace sink
//! (the paper's constant-space mode — no trace is materialized unless asked
//! for).

use crate::analyzer::{Analysis, Analyzer, AnalyzerConfig};
use crate::codegen;
use crate::hints::{inline_hints, InlineHint};
use crate::model::{FilterConfig, ForayModel};
use minic::Program;
use minic_sim::{Engine, RuntimeError, SimConfig, SimOutcome};
use minic_trace::{TeeSink, TraceStats};
use std::fmt;

/// Pipeline failure: either the frontend rejected the program or the
/// profiling run faulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Lex/parse/semantic failure.
    Frontend(minic::Error),
    /// Runtime failure during profiling.
    Runtime(RuntimeError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "frontend: {e}"),
            PipelineError::Runtime(e) => write!(f, "profiling run: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Frontend(e) => Some(e),
            PipelineError::Runtime(e) => Some(e),
        }
    }
}

impl From<minic::Error> for PipelineError {
    fn from(e: minic::Error) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<RuntimeError> for PipelineError {
    fn from(e: RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

/// Everything FORAY-GEN produces for one program.
#[derive(Debug, Clone)]
pub struct ForayGenOutput {
    /// The instrumented program that was profiled.
    pub program: Program,
    /// Raw analysis (loop tree + fitted references).
    pub analysis: Analysis,
    /// The extracted FORAY model.
    pub model: ForayModel,
    /// The model rendered as C text (Fig. 2 / 4(d) style).
    pub code: String,
    /// Simulator outcome (printed values, counters).
    pub sim: SimOutcome,
    /// Whole-trace statistics (Table III totals).
    pub trace_stats: TraceStats,
    /// Function-inlining hints (Section 4).
    pub hints: Vec<InlineHint>,
}

/// Builder for the FORAY-GEN flow.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), foray::PipelineError> {
/// let out = foray::ForayGen::new().run_source(
///     "char q[10000]; char *ptr;
///      void main() {
///          int i; int t1 = 98;
///          ptr = q;
///          while (t1 < 100) {
///              t1++;
///              ptr += 100;
///              for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
///          }
///      }",
/// )?;
/// // 2 outer × 3 inner writes, byte-strided inner, 103-strided outer —
/// // but only 6 executions over 6 locations, so the default Nexec=20
/// // filter drops it; Fig 4 uses the unfiltered view.
/// assert_eq!(out.model.ref_count(), 0);
/// let relaxed = foray::ForayGen::new().filter(foray::FilterConfig { n_exec: 6, n_loc: 6 });
/// let out = relaxed.run_source(
///     "char q[10000]; char *ptr;
///      void main() {
///          int i; int t1 = 98;
///          ptr = q;
///          while (t1 < 100) {
///              t1++;
///              ptr += 100;
///              for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
///          }
///      }",
/// )?;
/// assert_eq!(out.model.ref_count(), 1);
/// assert!(out.code.contains("103*"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ForayGen {
    filter: FilterConfig,
    analyzer: AnalyzerConfig,
    sim: SimConfig,
    inputs: Vec<i64>,
}

impl ForayGen {
    /// Creates a pipeline with paper-default settings (`Nexec=20`,
    /// `Nloc=10`).
    pub fn new() -> Self {
        ForayGen::default()
    }

    /// Sets the Step 4 filter thresholds.
    pub fn filter(mut self, filter: FilterConfig) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the analyzer configuration.
    pub fn analyzer(mut self, config: AnalyzerConfig) -> Self {
        self.analyzer = config;
        self
    }

    /// Sets the simulator configuration.
    pub fn sim(mut self, config: SimConfig) -> Self {
        self.sim = config;
        self
    }

    /// Selects the profiling engine (default: the compiled bytecode VM).
    /// Both engines emit byte-identical traces; [`Engine::Tree`] keeps the
    /// tree-walking oracle available for ablation (`--engine tree` in the
    /// CLI).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.sim.engine = engine;
        self
    }

    /// Sets the input data visible to the program's `input()` builtin.
    pub fn inputs(mut self, inputs: impl Into<Vec<i64>>) -> Self {
        self.inputs = inputs.into();
        self
    }

    /// Runs the full flow on source text (Step 1 annotation included).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Frontend`] if the source does not compile;
    /// [`PipelineError::Runtime`] if profiling faults.
    pub fn run_source(&self, src: &str) -> Result<ForayGenOutput, PipelineError> {
        let prog = minic::frontend(src)?;
        self.run_instrumented(prog)
    }

    /// Runs the flow on an already checked program, instrumenting it if
    /// needed.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Runtime`] if profiling faults.
    pub fn run_program(&self, mut prog: Program) -> Result<ForayGenOutput, PipelineError> {
        if !minic::is_instrumented(&prog) {
            minic::instrument(&mut prog);
        }
        self.run_instrumented(prog)
    }

    /// Profiles the program once with the online analyzer (and trace
    /// statistics) riding the simulation as sinks.
    fn profile_analysis(
        &self,
        prog: &Program,
    ) -> Result<(Analysis, SimOutcome, TraceStats), PipelineError> {
        let analyzer = Analyzer::with_config(self.analyzer.clone());
        let mut sink = TeeSink::new(analyzer, TraceStats::new());
        let sim = minic_sim::run_with_sink(prog, &self.sim, &self.inputs, &mut sink)?;
        let (analyzer, trace_stats) = sink.into_inner();
        Ok((analyzer.into_analysis(), sim, trace_stats))
    }

    fn run_instrumented(&self, prog: Program) -> Result<ForayGenOutput, PipelineError> {
        let (analysis, sim, trace_stats) = self.profile_analysis(&prog)?;
        let model = ForayModel::extract(&analysis, &self.filter);
        let code = codegen::emit(&model);
        let hints = inline_hints(&prog, analysis.tree());
        Ok(ForayGenOutput { program: prog, analysis, model, code, sim, trace_stats, hints })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG4: &str = "char q[10000]; char *ptr;
        void main() {
            int i; int t1 = 98;
            ptr = q;
            while (t1 < 100) {
                t1++;
                ptr += 100;
                for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
            }
        }";

    #[test]
    fn figure4_full_pipeline() {
        let out =
            ForayGen::new().filter(FilterConfig { n_exec: 6, n_loc: 6 }).run_source(FIG4).unwrap();
        assert_eq!(out.model.ref_count(), 1);
        let r = &out.model.refs[0];
        // Byte-strided inner loop, 103-byte outer stride: exactly the
        // paper's coefficients (the constant differs — our address space).
        assert_eq!(r.terms.len(), 2);
        assert_eq!(r.terms[0].coeff, 1);
        assert_eq!(r.terms[1].coeff, 103);
        assert!(!r.is_partial());
        // Trip counts 3 (inner) and 2 (outer), as in Fig 4(d).
        let loops: Vec<u64> = r.node_path.iter().map(|n| out.model.loops[n].trip).collect();
        assert_eq!(loops, vec![3, 2]);
        // Code shape (loop ids 0/1 → iterator names i0/i3).
        assert!(out.code.contains("for (int i0=0; i0<2; i0++)"), "{}", out.code);
        assert!(out.code.contains("for (int i3=0; i3<3; i3++)"), "{}", out.code);
        assert!(out.code.contains("+ 1*i3 + 103*i0]"), "{}", out.code);
        assert!(out.hints.is_empty());
    }

    #[test]
    fn figure9_pipeline_produces_hint() {
        let out = ForayGen::new()
            .run_source(
                "int A[1000];
                 int foo(int offset) {
                   int ret; int i;
                   ret = 0;
                   for (i = 0; i < 10; i++) { ret += A[i + offset]; }
                   return ret;
                 }
                 void main() {
                   int x; int y; int tmp;
                   tmp = 0;
                   for (x = 0; x < 10; x++) { tmp += foo(10 * x); }
                   for (y = 0; y < 20; y++) { tmp += foo(2 * y); }
                 }",
            )
            .unwrap();
        assert_eq!(out.hints.len(), 1);
        assert_eq!(out.hints[0].function, "foo");
        assert_eq!(out.hints[0].contexts.len(), 2);
        // foo's A[i+offset] is fully affine in each context (offset is
        // itself affine in the outer iterator): 2 model refs, full windows.
        let full_refs: Vec<_> = out.model.refs.iter().filter(|r| !r.is_partial()).collect();
        assert_eq!(full_refs.len(), 2);
    }

    #[test]
    fn data_dependent_offset_yields_partial_ref() {
        // Fig 7 second case: offsets from input data are unpredictable.
        let out = ForayGen::new()
            .inputs(vec![0, 700, 160, 2400, 1000, 40, 3333, 90, 2048, 512])
            .filter(FilterConfig { n_exec: 20, n_loc: 10 })
            .run_source(
                "int A[4000];
                 int foo(int offset) {
                   int ret; int i;
                   ret = 0;
                   for (i = 0; i < 10; i++) { ret += A[i + offset]; }
                   return ret;
                 }
                 void main() {
                   int x; int tmp;
                   tmp = 0;
                   for (x = 0; x < 10; x++) { tmp += foo(input(x)); }
                 }",
            )
            .unwrap();
        let partials: Vec<_> = out.model.refs.iter().filter(|r| r.is_partial()).collect();
        assert_eq!(partials.len(), 1, "model: {:#?}", out.model.refs);
        let r = partials[0];
        assert_eq!(r.window, 1);
        assert_eq!(r.nest, 2);
        assert_eq!(r.terms.len(), 1);
        assert_eq!(r.terms[0].coeff, 4); // int elements
    }

    #[test]
    fn frontend_errors_propagate() {
        assert!(matches!(
            ForayGen::new().run_source("void main() {"),
            Err(PipelineError::Frontend(_))
        ));
        let tight = ForayGen::new().sim(SimConfig { max_steps: 10_000, ..SimConfig::default() });
        assert!(matches!(
            tight.run_source("void main() { while (1) { } }"),
            Err(PipelineError::Runtime(RuntimeError::StepLimitExceeded))
        ));
    }

    #[test]
    fn online_and_offline_agree() {
        // Collect a trace, analyze offline, compare with the online result.
        let prog = minic::frontend(FIG4).unwrap();
        let (_, records) = minic_sim::run(&prog, &SimConfig::default(), &[]).unwrap();
        let offline = crate::analyzer::analyze(&records);
        let online = ForayGen::new().run_source(FIG4).unwrap();
        assert_eq!(offline.refs().len(), online.analysis.refs().len());
        assert_eq!(offline.accesses(), online.analysis.accesses());
        for (a, b) in offline.refs().iter().zip(online.analysis.refs()) {
            assert_eq!(a.state, b.state);
        }
    }

    #[test]
    fn sampled_pipeline_thins_the_analysis_not_the_trace() {
        use minic_trace::SampleSpec;
        let config =
            AnalyzerConfig { sample: SampleSpec::EveryNth { n: 2 }, ..AnalyzerConfig::default() };
        let full = ForayGen::new().run_source(FIG4).unwrap();
        let out = ForayGen::new().analyzer(config).run_source(FIG4).unwrap();
        // Sampling halves the analyzed accesses but not the trace itself.
        assert!(out.analysis.accesses() < out.trace_stats.accesses);
        assert_eq!(out.trace_stats, full.trace_stats);
    }

    #[test]
    fn tree_engine_ablation_matches_the_vm_default() {
        let vm = ForayGen::new().run_source(FIG4).unwrap();
        let tree = ForayGen::new().engine(Engine::Tree).run_source(FIG4).unwrap();
        assert_eq!(vm.analysis, tree.analysis);
        assert_eq!(vm.code, tree.code);
        assert_eq!(vm.trace_stats, tree.trace_stats);
        assert_eq!(vm.sim.accesses, tree.sim.accesses);
    }

    #[test]
    fn trace_stats_match_sim_counters() {
        let out = ForayGen::new().run_source(FIG4).unwrap();
        assert_eq!(out.trace_stats.accesses, out.sim.accesses);
        assert_eq!(out.trace_stats.checkpoints, out.sim.checkpoints);
    }
}
