//! `foray-gen` — command-line front door to the FORAY-GEN reproduction.
//!
//! ```text
//! foray-gen model <prog.mc> [--nexec N] [--nloc N] [--inputs v,v,...] [--executable]
//!     extract and print the FORAY model (Phase I); --executable emits it
//!     as a runnable mini-C program (re-profiling it is a fixpoint)
//! foray-gen report <prog.mc> [...]
//!     model + static comparison + memory-behaviour breakdown + hints
//! foray-gen trace <prog.mc> [--format text|binary] [-o FILE]
//!     profile and dump the raw trace (Fig. 4(c) format)
//! foray-gen trace record (<prog.mc> | --workload NAME) -o FILE.ftrace
//!         [--trace-format v1|v2]
//!     profile straight into a framed foray-trace file (v2 by default:
//!     delta-compressed blocks with CRC32s and a checkpoint index)
//!     — the trace is streamed block by block, never materialized in
//!     memory
//! foray-gen trace analyze <FILE.ftrace> [--from-loop N]
//!     re-analyze a recorded trace file; prints the same FORAY model the
//!     in-RAM `model` command prints, byte for byte. `--from-loop N`
//!     seeks to loop N via the v2 checkpoint index and analyzes the
//!     trace suffix from its first checkpoint on
//! foray-gen annotate <prog.mc>
//!     print the checkpoint-instrumented source (Fig. 4(b))
//! foray-gen spm <prog.mc> [--capacity BYTES]
//!     Phase II: buffer candidates, selection, transformed model
//! foray-gen dse [--workloads all|a,b] [--capacities LIST] [--models LIST]
//!     parallel SPM design-space exploration over the workload corpus,
//!     with Pareto-front reporting (text and --json)
//! foray-gen serve (--socket PATH | --tcp HOST:PORT) [--workers N] ...
//!     forayd: long-running analysis daemon with a content-addressed
//!     result cache, speaking line-delimited JSON
//! foray-gen client (--socket PATH | --tcp HOST:PORT) ACTION [...]
//!     talk to a running daemon: submit / wait / poll / stats / ping /
//!     shutdown
//! ```
//!
//! Exit codes: 0 success, 1 usage error, 2 compile error, 3 runtime error.

use foray::{AnalyzerConfig, Engine, FilterConfig, ForayGen, ForayModel, SampleSpec};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Compile(msg)) => {
            eprintln!("compile error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("runtime error: {msg}");
            ExitCode::from(3)
        }
        Err(CliError::Io(e)) => {
            eprintln!("i/o error: {e}");
            ExitCode::from(3)
        }
    }
}

const USAGE: &str = "usage:
  foray-gen model    <prog.mc> [--nexec N] [--nloc N] [--inputs v,v,..] [--executable]
  foray-gen report   <prog.mc> [--nexec N] [--nloc N] [--inputs v,v,..]
  foray-gen trace    <prog.mc> [--format text|binary] [-o FILE] [--inputs v,v,..]
  foray-gen trace record  (<prog.mc> | --workload NAME [--scale N]) -o FILE.ftrace
                          [--trace-format v1|v2]
  foray-gen trace analyze <FILE.ftrace> [--nexec N] [--nloc N] [--from-loop N]
  foray-gen annotate <prog.mc>
  foray-gen spm      <prog.mc> [--capacity BYTES] [--nexec N] [--nloc N] [--inputs v,v,..]
  foray-gen dse      [--workloads all|a,b,..] [--capacities n,n,..] [--models m,m,..]
                     [--jobs N] [--scale N] [--json PATH] [--check]
  foray-gen serve    (--socket PATH | --tcp HOST:PORT) [--workers N] [--queue N]
                     [--cache N] [--spill DIR]
  foray-gen client   (--socket PATH | --tcp HOST:PORT) ACTION [flags]
                     ACTION: submit (--workload NAME [--scale N] | <prog.mc> |
                             --trace FILE.ftrace) [--kind model|report|dse]
                             [--nexec N] [--nloc N] [--sample S] [--engine E]
                             [--inputs v,v,..] [--priority 0-9] [--no-wait]
                           | wait JOB [--timeout-ms N] | poll JOB
                           | stats | ping | shutdown

program sources (model/report/trace/spm):
  <prog.mc>        a mini-C source file, or
  --workload NAME  a built-in corpus workload (jpegc, lamec, susanc, fftc,
                   gsmc, adpcmc, histoc) with its canonical inputs;
                   --scale N sizes it

trace file flags:
  --trace-format v1|v2  container version for `trace record` (default: v2,
              compressed + checksummed + indexed; v1 is the frozen
              fixed-width format — both stay readable forever)
  --from-loop N  for `trace analyze`: seek to loop N via the v2 checkpoint
              index and analyze from its first checkpoint (needs a v2
              file written with the index)

sampling (model/report/spm/trace, trace record, trace analyze):
  --sample S  deterministic access sampling: every:N | warmup:N |
              reservoir:N[:SEED] | full (default); checkpoints always pass,
              and the same program + spec always yields the same model

profiling flags (model/report/trace/spm):
  --engine E  execution engine: `vm` (compiled bytecode, default) or `tree`
              (tree-walking oracle); both emit byte-identical traces

dse flags:
  --workloads  corpus subset by name, or `all` (default: all)
  --capacities SPM capacity grid in bytes (default: 256,512,1024,2048,4096,8192)
  --models     energy-model presets (default,small-spm,medium-spm,large-spm) or
               a user-supplied point as custom:MAIN_NJ:SPM_NJ:BASE_BYTES:SLOPE
  --jobs N     pool worker count (default: available parallelism)
  --scale N    workload size multiplier (default: 1)
  --json PATH  also write the machine-readable foray-dse/v1 report
  --check      fail (exit 3) unless every Pareto front is non-empty and monotone

serve flags:
  --workers N  compute threads (default 1); --queue N bounded queue depth
               (default 64, overflow is a typed queue_full rejection);
  --cache N    in-memory result-cache entries (default 128); --spill DIR
               spills evictions to disk

client notes:
  submit waits and prints the result payload verbatim (byte-comparable
  across runs: cached and cold responses are identical); --no-wait prints
  the job id instead; stats prints the raw counters JSON line";

#[derive(Debug)]
enum CliError {
    Usage(String),
    Compile(String),
    Runtime(String),
    Io(std::io::Error),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<foray::PipelineError> for CliError {
    fn from(e: foray::PipelineError) -> Self {
        match e {
            foray::PipelineError::Frontend(e) => CliError::Compile(e.to_string()),
            foray::PipelineError::Runtime(e) => CliError::Runtime(e.to_string()),
        }
    }
}

struct Options {
    file: String,
    workload: Option<String>,
    scale: u32,
    n_exec: u64,
    n_loc: u64,
    inputs: Vec<i64>,
    format: String,
    output: Option<String>,
    capacity: u32,
    executable: bool,
    engine: Engine,
    sample: SampleSpec,
    trace_format: minic_trace::FormatVersion,
    from_loop: Option<u32>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        file: String::new(),
        workload: None,
        scale: 1,
        n_exec: 20,
        n_loc: 10,
        inputs: Vec::new(),
        format: "text".to_owned(),
        output: None,
        capacity: 4096,
        executable: false,
        engine: Engine::default(),
        sample: SampleSpec::default(),
        trace_format: minic_trace::FormatVersion::default(),
        from_loop: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nexec" => opts.n_exec = parse_num(&need(&mut it, "--nexec")?)?,
            "--nloc" => opts.n_loc = parse_num(&need(&mut it, "--nloc")?)?,
            "--capacity" => opts.capacity = parse_num(&need(&mut it, "--capacity")?)? as u32,
            "--executable" => opts.executable = true,
            "--format" => opts.format = need(&mut it, "--format")?,
            "--engine" => {
                let name = need(&mut it, "--engine")?;
                opts.engine = Engine::parse(&name).ok_or_else(|| {
                    CliError::Usage(format!("unknown engine `{name}` (use `tree` or `vm`)"))
                })?;
            }
            "--sample" => {
                let spec = need(&mut it, "--sample")?;
                opts.sample = SampleSpec::parse(&spec)
                    .map_err(|e| CliError::Usage(format!("bad --sample: {e}")))?;
            }
            "--trace-format" => {
                let name = need(&mut it, "--trace-format")?;
                opts.trace_format = minic_trace::FormatVersion::parse(&name).ok_or_else(|| {
                    CliError::Usage(format!("unknown trace format `{name}` (use `v1` or `v2`)"))
                })?;
            }
            "--from-loop" => {
                let n = parse_num(&need(&mut it, "--from-loop")?)?;
                opts.from_loop = Some(u32::try_from(n).map_err(|_| {
                    CliError::Usage(format!("--from-loop {n} does not fit a loop id"))
                })?);
            }
            "--workload" => opts.workload = Some(need(&mut it, "--workload")?),
            "--scale" => opts.scale = parse_num(&need(&mut it, "--scale")?)?.max(1) as u32,
            "-o" | "--output" => opts.output = Some(need(&mut it, "-o")?),
            "--inputs" => {
                let list = need(&mut it, "--inputs")?;
                opts.inputs = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad input value `{s}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag `{other}`")));
            }
            file => {
                if opts.file.is_empty() {
                    opts.file = file.to_owned();
                } else {
                    return Err(CliError::Usage(format!("unexpected argument `{file}`")));
                }
            }
        }
    }
    Ok(opts)
}

/// Resolves the program to run: a source file, or a `--workload` from the
/// corpus (installing the workload's canonical inputs unless the user gave
/// `--inputs`). Mutates `opts.inputs` so [`pipeline`] sees the result.
fn resolve_source(opts: &mut Options) -> Result<String, CliError> {
    match &opts.workload {
        Some(name) => {
            if !opts.file.is_empty() {
                return Err(CliError::Usage(format!(
                    "give either a program file or --workload, not both (got `{}`)",
                    opts.file
                )));
            }
            let params = foray_workloads::Params { scale: opts.scale };
            let w = foray_workloads::by_name(name, params)
                .ok_or_else(|| CliError::Usage(format!("unknown workload `{name}`")))?;
            if opts.inputs.is_empty() {
                opts.inputs = w.inputs.clone();
            }
            Ok(w.source)
        }
        None => {
            if opts.file.is_empty() {
                return Err(CliError::Usage("missing program file (or --workload)".to_owned()));
            }
            read_source(&opts.file)
        }
    }
}

fn parse_num(s: &str) -> Result<u64, CliError> {
    s.parse().map_err(|_| CliError::Usage(format!("bad number `{s}`")))
}

fn read_source(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))
}

fn pipeline(opts: &Options) -> ForayGen {
    ForayGen::new()
        .filter(FilterConfig { n_exec: opts.n_exec, n_loc: opts.n_loc })
        .inputs(opts.inputs.clone())
        .analyzer(AnalyzerConfig { sample: opts.sample, ..AnalyzerConfig::default() })
        .engine(opts.engine)
}

fn sim_config(opts: &Options) -> minic_sim::SimConfig {
    minic_sim::SimConfig { engine: opts.engine, ..minic_sim::SimConfig::default() }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing command".to_owned()));
    };
    if cmd == "dse" {
        // Corpus-driven: no program file argument, own flag set.
        return cmd_dse(&parse_dse_options(&args[1..])?);
    }
    if cmd == "serve" {
        // The daemon: own flag set, no program file argument.
        return cmd_serve(&parse_serve_options(&args[1..])?);
    }
    if cmd == "client" {
        return cmd_client(&args[1..]);
    }
    if cmd == "trace" {
        // The file-pipeline sub-subcommands; bare `trace` keeps its legacy
        // dump behaviour below.
        match args.get(1).map(String::as_str) {
            Some("record") => {
                let mut opts = parse_options(&args[2..])?;
                let src = resolve_source(&mut opts)?;
                return cmd_trace_record(&src, &opts);
            }
            Some("analyze") => return cmd_trace_analyze(&parse_options(&args[2..])?),
            _ => {}
        }
    }
    let mut opts = parse_options(&args[1..])?;
    let src = resolve_source(&mut opts)?;
    match cmd.as_str() {
        "model" => cmd_model(&src, &opts),
        "report" => cmd_report(&src, &opts),
        "trace" => cmd_trace(&src, &opts),
        "annotate" => cmd_annotate(&src),
        "spm" => cmd_spm(&src, &opts),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn cmd_model(src: &str, opts: &Options) -> Result<(), CliError> {
    let out = pipeline(opts).run_source(src)?;
    if opts.executable {
        print!("{}", foray::codegen::emit_minic(&out.model));
    } else {
        print!("{}", out.code);
    }
    Ok(())
}

fn cmd_annotate(src: &str) -> Result<(), CliError> {
    let prog = minic::frontend(src).map_err(|e| CliError::Compile(e.to_string()))?;
    print!("{}", minic::pretty(&prog));
    Ok(())
}

/// Bare `trace`: dump the program's trace to `-o FILE` or stdout as it
/// runs, through the same [`profile_into`] as `trace record`, which is
/// the one command that writes a framed `foray-trace` file.
fn cmd_trace(src: &str, opts: &Options) -> Result<(), CliError> {
    use minic_trace::{binary::BinaryWriter, text::TextWriter};
    let format = opts.format.as_str();
    if !matches!(format, "text" | "binary") {
        return Err(CliError::Usage(format!("unknown trace format `{format}`")));
    }
    let prog = minic::frontend(src).map_err(|e| CliError::Compile(e.to_string()))?;
    let out: Box<dyn Write> = match &opts.output {
        Some(path) => Box::new(std::fs::File::create(path)?),
        None => Box::new(std::io::stdout().lock()),
    };
    let out = std::io::BufWriter::new(out);
    if format == "text" {
        latched(profile_into(&prog, opts, TextWriter::new(out))?.0.io_error())
    } else {
        latched(profile_into(&prog, opts, BinaryWriter::new(out))?.0.io_error())
    }
}

/// Profiles `prog` into `writer` behind the `--sample` filter — the one
/// way `trace` and `trace record` write a trace — and returns the writer
/// with the accesses seen and kept. On a runtime error the writer never
/// reaches `finish`, so the partial `-o` file is removed instead of left
/// for later readers to trip over.
fn profile_into<S: minic_trace::TraceSink>(
    prog: &minic::Program,
    opts: &Options,
    writer: S,
) -> Result<(S, u64, u64), CliError> {
    let mut sink = minic_trace::SampleSink::new(opts.sample, writer);
    if let Err(e) = minic_sim::run_with_sink(prog, &sim_config(opts), &opts.inputs, &mut sink) {
        drop(sink);
        if let Some(path) = &opts.output {
            std::fs::remove_file(path).ok();
        }
        return Err(CliError::Runtime(e.to_string()));
    }
    let (seen, kept) = (sink.seen(), sink.kept());
    Ok((sink.into_inner(), seen, kept))
}

/// A trace writer's latched I/O error, if any, as the CLI's error.
fn latched(error: Option<&std::io::Error>) -> Result<(), CliError> {
    match error {
        Some(e) => Err(CliError::Io(std::io::Error::new(e.kind(), e.to_string()))),
        None => Ok(()),
    }
}

/// `trace record`: profile the program with a [`minic_trace::TraceWriter`]
/// riding the simulation as the sink (behind a `--sample` filter), so the
/// `foray-trace` file (`--trace-format`, v2 by default) is written block
/// by block without ever materializing the record stream.
fn cmd_trace_record(src: &str, opts: &Options) -> Result<(), CliError> {
    let Some(path) = &opts.output else {
        return Err(CliError::Usage("trace record needs -o FILE.ftrace".to_owned()));
    };
    let prog = minic::frontend(src).map_err(|e| CliError::Compile(e.to_string()))?;
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let writer = minic_trace::TraceWriter::with_format(file, opts.trace_format);
    let (writer, seen, kept) = profile_into(&prog, opts, writer)?;
    latched(writer.io_error())?;
    let records = writer.records_written();
    let bytes = std::fs::metadata(path)?.len();
    println!(
        "recorded {records} records to {path} ({bytes} bytes, foray-trace/{})",
        opts.trace_format
    );
    if seen != kept {
        println!("sampled {kept} of {seen} accesses (--sample {})", opts.sample);
    }
    Ok(())
}

/// `trace analyze`: replay a recorded `foray-trace` file (either format
/// version) through the analyzer and print the extracted FORAY model —
/// byte-identical to what `model` prints for the same program and
/// thresholds.
///
/// Without `--from-loop` the file is streamed through
/// [`minic_trace::TraceReader`] (one block in memory at a time), so traces
/// bigger than RAM analyze fine — the sequential analyzer is
/// constant-space. With `--from-loop N` the file is opened as a
/// [`minic_trace::TraceFile`] and the v2 checkpoint index seeks straight
/// to loop `N`'s region; only the trace suffix from its first checkpoint
/// is decoded and analyzed.
fn cmd_trace_analyze(opts: &Options) -> Result<(), CliError> {
    if opts.workload.is_some() {
        return Err(CliError::Usage("trace analyze reads a FILE.ftrace, not --workload".into()));
    }
    if opts.file.is_empty() {
        return Err(CliError::Usage("trace analyze needs a FILE.ftrace argument".to_owned()));
    }
    let config = AnalyzerConfig { sample: opts.sample, ..AnalyzerConfig::default() };
    let analysis = if let Some(loop_id) = opts.from_loop {
        let file = minic_trace::TraceFile::open(&opts.file)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        if file.index().is_none() {
            return Err(CliError::Runtime(format!(
                "`{}` is a foray-trace/{} file without a checkpoint index; \
                 --from-loop needs a v2 file recorded with the index",
                opts.file,
                file.version()
            )));
        }
        let Some(records) = file.records_from_loop(minic::LoopId(loop_id)) else {
            return Err(CliError::Runtime(format!(
                "loop {loop_id} never runs in `{}` (not covered by the checkpoint index)",
                opts.file
            )));
        };
        foray::analyze_source_with(records, config)
    } else {
        let file = std::fs::File::open(&opts.file)
            .map_err(|e| CliError::Usage(format!("cannot read `{}`: {e}", opts.file)))?;
        let reader = minic_trace::TraceReader::new(std::io::BufReader::new(file))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        foray::analyze_source_with(reader, config)
    }
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    let model =
        ForayModel::extract(&analysis, &FilterConfig { n_exec: opts.n_exec, n_loc: opts.n_loc });
    print!("{}", foray::codegen::emit(&model));
    Ok(())
}

fn cmd_report(src: &str, opts: &Options) -> Result<(), CliError> {
    let out = pipeline(opts).run_source(src)?;
    let mut prog = minic::parse(src).map_err(|e| CliError::Compile(e.to_string()))?;
    minic::check(&mut prog).map_err(|e| CliError::Compile(e.to_string()))?;
    let st = foray_baseline::analyze_program(&prog);
    let loops: std::collections::HashSet<minic::LoopId> =
        st.canonical_loops.iter().copied().collect();
    let cmp = foray::CaptureComparison::compute(&out.model, &loops, &st.affine_instrs());
    let mem = foray::MemoryBehavior::compute(&out.analysis, &out.model);

    println!("== FORAY model ==");
    print!("{}", out.code);
    println!();
    println!("== reconstructed loop tree (Algorithm 2) ==");
    print!("{}", out.analysis.tree().render());
    println!();
    println!("== capture ==");
    println!(
        "model: {} loops, {} references; statically visible: {} loops, {} references",
        cmp.model_loops, cmp.model_refs, cmp.static_loops, cmp.static_refs
    );
    println!(
        "not in FORAY form in the source: {:.0}% of loops, {:.0}% of references",
        cmp.pct_loops_not_static(),
        cmp.pct_refs_not_static()
    );
    if let Some(g) = cmp.gain() {
        println!("analyzable-reference gain over static analysis: {g:.1}x");
    }
    println!();
    println!("== memory behaviour ==");
    println!(
        "accesses: {} total, {} in model ({:.0}%), {} in system library ({:.0}%)",
        mem.total_accesses,
        mem.model_accesses,
        foray::MemoryBehavior::pct(mem.model_accesses, mem.total_accesses),
        mem.lib_accesses,
        foray::MemoryBehavior::pct(mem.lib_accesses, mem.total_accesses),
    );
    println!(
        "footprint: {} addresses total, {} in model ({:.0}%)",
        mem.total_footprint,
        mem.model_footprint,
        foray::MemoryBehavior::pct(mem.model_footprint, mem.total_footprint),
    );
    println!();
    println!("== back-annotation (Phase III) ==");
    for note in foray::srcmap::annotate(&out.model, &out.program) {
        match note.site {
            Some(s) => println!(
                "{} -> {} in {}() at {} ({})",
                note.array,
                s.base.as_deref().unwrap_or("?"),
                s.function,
                s.loc,
                s.text
            ),
            None => println!("{} -> (synthetic traffic, no source site)", note.array),
        }
    }
    if !out.hints.is_empty() {
        println!();
        println!("== inlining hints ==");
        for h in &out.hints {
            println!(
                "duplicate `{}`: loop {} runs in {} contexts ({})",
                h.function,
                h.loop_id,
                h.contexts.len(),
                h.context_paths.join(" | ")
            );
        }
    }
    Ok(())
}

fn cmd_spm(src: &str, opts: &Options) -> Result<(), CliError> {
    let out = pipeline(opts).run_source(src)?;
    let flow = foray_spm::SpmFlow::default();
    let report = flow.run(&out.model, opts.capacity);
    println!("== buffer candidates ==");
    for c in &report.candidates {
        println!(
            "{} level {}: {} bytes, reuse x{:.1}, savings {:.1} nJ",
            c.array,
            c.level,
            c.size_bytes,
            c.reuse_factor(),
            c.savings_nj(flow.energy())
        );
    }
    println!();
    println!(
        "== selection (capacity {} bytes): {} buffers, {} bytes, {:.1} nJ saved ==",
        opts.capacity,
        report.selection.chosen.len(),
        report.selection.used_bytes,
        report.selection.savings_nj
    );
    println!();
    println!("== transformed FORAY model ==");
    print!("{}", report.code);
    Ok(())
}

struct DseOptions {
    workloads: Vec<String>,
    capacities: Vec<u32>,
    models: Vec<String>,
    jobs: usize,
    scale: u32,
    json: Option<String>,
    check: bool,
}

fn parse_dse_options(args: &[String]) -> Result<DseOptions, CliError> {
    let mut opts = DseOptions {
        workloads: vec!["all".to_owned()],
        capacities: vec![256, 512, 1024, 2048, 4096, 8192],
        models: foray_spm::energy::PRESET_NAMES.iter().map(|s| (*s).to_owned()).collect(),
        jobs: 0,
        scale: 1,
        json: None,
        check: false,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    let list = |s: &str| -> Vec<String> {
        s.split(',').map(str::trim).filter(|p| !p.is_empty()).map(str::to_owned).collect()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workloads" => opts.workloads = list(&need(&mut it, "--workloads")?),
            "--models" => opts.models = list(&need(&mut it, "--models")?),
            "--capacities" => {
                opts.capacities = list(&need(&mut it, "--capacities")?)
                    .iter()
                    .map(|s| parse_num(s).map(|n| n as u32))
                    .collect::<Result<_, _>>()?;
            }
            "--jobs" => opts.jobs = parse_num(&need(&mut it, "--jobs")?)? as usize,
            "--scale" => opts.scale = parse_num(&need(&mut it, "--scale")?)?.max(1) as u32,
            "--json" => opts.json = Some(need(&mut it, "--json")?),
            "--check" => opts.check = true,
            other => return Err(CliError::Usage(format!("unknown dse argument `{other}`"))),
        }
    }
    if opts.capacities.is_empty() {
        return Err(CliError::Usage("--capacities needs at least one value".to_owned()));
    }
    if opts.workloads.is_empty() {
        return Err(CliError::Usage("--workloads needs at least one name".to_owned()));
    }
    if opts.models.is_empty() {
        return Err(CliError::Usage("--models needs at least one name".to_owned()));
    }
    Ok(opts)
}

/// Resolves a `--models` entry: a preset name, or a user-supplied point as
/// `custom:MAIN_NJ:SPM_NJ:BASE_BYTES:SLOPE` (named `custom`).
fn parse_energy_model(spec: &str) -> Result<(String, foray_spm::EnergyModel), CliError> {
    if let Some(params) = spec.strip_prefix("custom:") {
        let parts: Vec<&str> = params.split(':').collect();
        let [main, spm, bytes, slope] = parts.as_slice() else {
            return Err(CliError::Usage(format!(
                "bad custom model `{spec}` (want custom:MAIN_NJ:SPM_NJ:BASE_BYTES:SLOPE)"
            )));
        };
        let f = |s: &str| {
            s.parse::<f64>().map_err(|_| CliError::Usage(format!("bad number `{s}` in `{spec}`")))
        };
        return Ok((
            "custom".to_owned(),
            foray_spm::EnergyModel {
                main_access_nj: f(main)?,
                spm_base_nj: f(spm)?,
                spm_base_bytes: parse_num(bytes)? as u32,
                spm_size_slope: f(slope)?,
            },
        ));
    }
    match foray_spm::EnergyModel::preset(spec) {
        Some(m) => Ok((spec.to_owned(), m)),
        None => Err(CliError::Usage(format!(
            "unknown energy model `{spec}` (presets: {})",
            foray_spm::energy::PRESET_NAMES.join(", ")
        ))),
    }
}

fn cmd_dse(opts: &DseOptions) -> Result<(), CliError> {
    let params = foray_workloads::Params { scale: opts.scale };
    let workloads: Vec<foray_workloads::Workload> = if opts.workloads.iter().any(|w| w == "all") {
        foray_workloads::all(params)
    } else {
        opts.workloads
            .iter()
            .map(|name| {
                foray_workloads::by_name(name, params)
                    .ok_or_else(|| CliError::Usage(format!("unknown workload `{name}`")))
            })
            .collect::<Result<_, _>>()?
    };
    let mut space = foray_spm::SpmDesignSpace::new()
        .capacities(&opts.capacities)
        .workloads(workloads.iter().map(|w| w.batch_job(ForayGen::new())));
    for spec in &opts.models {
        let (name, model) = parse_energy_model(spec)?;
        space = space.model(name, model);
    }
    let result = space.explore(opts.jobs).map_err(|e| CliError::Runtime(e.to_string()))?;
    print!("{}", result.render_text());
    if let Some(path) = &opts.json {
        std::fs::write(path, result.to_json())?;
    }
    if opts.check {
        result.check().map_err(CliError::Runtime)?;
    }
    Ok(())
}

struct ServeOptions {
    addr: foray_serve::ServeAddr,
    workers: usize,
    queue: usize,
    cache: usize,
    spill: Option<String>,
}

/// Parses `--socket PATH | --tcp HOST:PORT` into a serve address
/// (shared by `serve` and `client`).
fn parse_addr(
    socket: Option<String>,
    tcp: Option<String>,
) -> Result<foray_serve::ServeAddr, CliError> {
    match (socket, tcp) {
        (Some(p), None) => Ok(foray_serve::ServeAddr::Unix(p.into())),
        (None, Some(a)) => Ok(foray_serve::ServeAddr::Tcp(a)),
        _ => {
            Err(CliError::Usage("give exactly one of --socket PATH or --tcp HOST:PORT".to_owned()))
        }
    }
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let (mut socket, mut tcp, mut spill) = (None, None, None);
    let (mut workers, mut queue, mut cache) = (1usize, 64usize, 128usize);
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(need(&mut it, "--socket")?),
            "--tcp" => tcp = Some(need(&mut it, "--tcp")?),
            "--workers" => workers = parse_num(&need(&mut it, "--workers")?)?.max(1) as usize,
            "--queue" => queue = parse_num(&need(&mut it, "--queue")?)?.max(1) as usize,
            "--cache" => cache = parse_num(&need(&mut it, "--cache")?)? as usize,
            "--spill" => spill = Some(need(&mut it, "--spill")?),
            other => return Err(CliError::Usage(format!("unknown serve flag `{other}`"))),
        }
    }
    Ok(ServeOptions { addr: parse_addr(socket, tcp)?, workers, queue, cache, spill })
}

fn cmd_serve(opts: &ServeOptions) -> Result<(), CliError> {
    let server = foray_serve::Server::new(foray_serve::ServeConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache_entries: opts.cache,
        spill_dir: opts.spill.clone().map(Into::into),
        ..foray_serve::ServeConfig::default()
    });
    eprintln!("forayd listening on {}", opts.addr);
    foray_serve::serve(server, &opts.addr)?;
    eprintln!("forayd drained and exited");
    Ok(())
}

struct ClientOptions {
    addr: foray_serve::ServeAddr,
    action: String,
    /// Positional after the action: job id (wait/poll) or program file
    /// (submit).
    arg: Option<String>,
    workload: Option<String>,
    trace: Option<String>,
    kind: foray_serve::JobKind,
    scale: u32,
    n_exec: u64,
    n_loc: u64,
    sample: SampleSpec,
    engine: Engine,
    inputs: Option<Vec<i64>>,
    priority: u8,
    no_wait: bool,
    timeout_ms: Option<u64>,
}

fn parse_client_options(args: &[String]) -> Result<ClientOptions, CliError> {
    let (mut socket, mut tcp) = (None, None);
    let mut o = ClientOptions {
        addr: foray_serve::ServeAddr::Tcp(String::new()), // placeholder
        action: String::new(),
        arg: None,
        workload: None,
        trace: None,
        kind: foray_serve::JobKind::Model,
        scale: 1,
        n_exec: 20,
        n_loc: 10,
        sample: SampleSpec::default(),
        engine: Engine::default(),
        inputs: None,
        priority: 0,
        no_wait: false,
        timeout_ms: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(need(&mut it, "--socket")?),
            "--tcp" => tcp = Some(need(&mut it, "--tcp")?),
            "--workload" => o.workload = Some(need(&mut it, "--workload")?),
            "--trace" => o.trace = Some(need(&mut it, "--trace")?),
            "--kind" => {
                let name = need(&mut it, "--kind")?;
                o.kind = foray_serve::JobKind::parse(&name).ok_or_else(|| {
                    CliError::Usage(format!("unknown kind `{name}` (use model/report/dse)"))
                })?;
            }
            "--scale" => o.scale = parse_num(&need(&mut it, "--scale")?)?.max(1) as u32,
            "--nexec" => o.n_exec = parse_num(&need(&mut it, "--nexec")?)?,
            "--nloc" => o.n_loc = parse_num(&need(&mut it, "--nloc")?)?,
            "--sample" => {
                let spec = need(&mut it, "--sample")?;
                o.sample = SampleSpec::parse(&spec)
                    .map_err(|e| CliError::Usage(format!("bad --sample: {e}")))?;
            }
            "--engine" => {
                let name = need(&mut it, "--engine")?;
                o.engine = Engine::parse(&name).ok_or_else(|| {
                    CliError::Usage(format!("unknown engine `{name}` (use `tree` or `vm`)"))
                })?;
            }
            "--inputs" => {
                let list = need(&mut it, "--inputs")?;
                o.inputs = Some(
                    list.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            s.trim()
                                .parse()
                                .map_err(|_| CliError::Usage(format!("bad input value `{s}`")))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "--priority" => {
                let n = parse_num(&need(&mut it, "--priority")?)?;
                if n > u64::from(foray_serve::MAX_PRIORITY) {
                    return Err(CliError::Usage(format!("--priority {n} is out of range 0-9")));
                }
                o.priority = n as u8;
            }
            "--no-wait" => o.no_wait = true,
            "--timeout-ms" => o.timeout_ms = Some(parse_num(&need(&mut it, "--timeout-ms")?)?),
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown client flag `{other}`")));
            }
            word => {
                if o.action.is_empty() {
                    o.action = word.to_owned();
                } else if o.arg.is_none() {
                    o.arg = Some(word.to_owned());
                } else {
                    return Err(CliError::Usage(format!("unexpected argument `{word}`")));
                }
            }
        }
    }
    if o.action.is_empty() {
        return Err(CliError::Usage(
            "client needs an action: submit, wait, poll, stats, ping, shutdown".to_owned(),
        ));
    }
    o.addr = parse_addr(socket, tcp)?;
    Ok(o)
}

/// Builds the submit spec from client flags: exactly one input among
/// `--workload`, a program file, and `--trace`.
fn client_job_spec(o: &ClientOptions) -> Result<foray_serve::JobSpec, CliError> {
    let input = match (&o.workload, &o.arg, &o.trace) {
        (Some(w), None, None) => foray_serve::JobInput::Workload(w.clone()),
        (None, Some(file), None) => foray_serve::JobInput::Source(read_source(file)?),
        (None, None, Some(t)) => foray_serve::JobInput::Trace(t.clone()),
        _ => {
            return Err(CliError::Usage(
                "submit needs exactly one of --workload NAME, a program file, or --trace FILE"
                    .to_owned(),
            ))
        }
    };
    Ok(foray_serve::JobSpec {
        kind: o.kind,
        input,
        scale: o.scale,
        engine: o.engine,
        n_exec: o.n_exec,
        n_loc: o.n_loc,
        sample: o.sample,
        inputs: o.inputs.clone(),
        priority: o.priority,
    })
}

/// Maps a typed daemon failure to an exit-3 runtime error.
fn client_fail(e: foray_serve::ProtoError) -> CliError {
    CliError::Runtime(e.to_string())
}

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let o = parse_client_options(args)?;
    let mut client = foray_serve::Client::connect(&o.addr)?;
    use foray_serve::Response;
    match o.action.as_str() {
        "submit" => {
            let spec = client_job_spec(&o)?;
            if o.no_wait {
                match client.submit(&spec)? {
                    Response::Submitted { job, hit, key } => println!("{job} hit={hit} key={key}"),
                    Response::Error(e) => return Err(client_fail(e)),
                    other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
                }
            } else {
                // The payload goes to stdout *verbatim* so callers can
                // byte-compare runs (the serve-smoke CI job diffs these).
                match client.run(&spec)? {
                    Ok((_hit, payload)) => print!("{payload}"),
                    Err(e) => return Err(client_fail(e)),
                }
            }
        }
        "wait" => {
            let job =
                o.arg.clone().ok_or_else(|| CliError::Usage("wait needs a job id".to_owned()))?;
            match client.wait(&job, o.timeout_ms)? {
                Response::Result { result, .. } => print!("{result}"),
                Response::Error(e) => return Err(client_fail(e)),
                other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
            }
        }
        "poll" => {
            let job =
                o.arg.clone().ok_or_else(|| CliError::Usage("poll needs a job id".to_owned()))?;
            match client.poll(&job)? {
                Response::Status { state, .. } => println!("{state}"),
                Response::Error(e) => return Err(client_fail(e)),
                other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
            }
        }
        "stats" => match client.stats()? {
            // The raw stats line *is* the machine-readable output.
            r @ Response::Stats(_) => println!("{}", r.render()),
            Response::Error(e) => return Err(client_fail(e)),
            other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
        },
        "ping" => match client.ping()? {
            Response::Pong => println!("pong"),
            Response::Error(e) => return Err(client_fail(e)),
            other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
        },
        "shutdown" => match client.shutdown()? {
            Response::ShutdownStarted => println!("draining"),
            Response::Error(e) => return Err(client_fail(e)),
            other => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown client action `{other}` (use submit/wait/poll/stats/ping/shutdown)"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("foray_cli_test_{name}.mc"));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const PROG: &str = "int a[64];\nvoid main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }";

    #[test]
    fn model_command_runs() {
        let path = write_temp("model", PROG);
        let args = vec!["model".to_owned(), path];
        assert!(run(&args).is_ok());
    }

    #[test]
    fn options_parse() {
        let path = write_temp("opts", PROG);
        let args: Vec<String> =
            ["report", &path, "--nexec", "5", "--nloc", "5", "--inputs", "1,2,3"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert!(run(&args).is_ok());
    }

    #[test]
    fn removed_parallelism_flags_are_usage_errors() {
        let path = write_temp("removed_flags", PROG);
        let socket = std::env::temp_dir().join("foray_cli_test_removed_flags.sock");
        let socket = socket.to_string_lossy().into_owned();
        let sharded = format!("--{}", "sharded");
        for argv in [
            vec!["model", path.as_str(), sharded.as_str()],
            vec!["model", path.as_str(), "--jobs", "3"],
            vec!["trace", "analyze", path.as_str(), sharded.as_str()],
            vec!["serve", "--socket", socket.as_str(), "--jobs", "2"],
        ] {
            let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            assert!(matches!(run(&args), Err(CliError::Usage(_))), "{argv:?}");
        }
    }

    #[test]
    fn sample_flag_parses_and_runs() {
        let path = write_temp("sample", PROG);
        let args: Vec<String> =
            ["model", path.as_str(), "--sample", "every:2"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args).is_ok());
        let parsed = parse_options(&args[1..]).unwrap();
        assert_eq!(parsed.sample, SampleSpec::EveryNth { n: 2 });
        // Default is full analysis; malformed specs are usage errors.
        assert_eq!(parse_options(&["x.mc".to_owned()]).unwrap().sample, SampleSpec::Full);
        for bad in ["coinflip", "every:0", "every"] {
            assert!(
                matches!(
                    parse_options(&["x.mc".to_owned(), "--sample".to_owned(), bad.to_owned()]),
                    Err(CliError::Usage(_))
                ),
                "--sample {bad} should be rejected"
            );
        }
    }

    #[test]
    fn sampled_record_matches_embedded_sampling() {
        // Recording a thinned trace and analyzing it in full must equal
        // analyzing the full trace with the same spec embedded — the
        // decisions are per-reference, so thinning commutes with analysis.
        let prog = write_temp("sample_rec", PROG);
        let ftrace = std::env::temp_dir().join("foray_cli_test_sampled.ftrace");
        let ftrace_s = ftrace.to_string_lossy().into_owned();
        let record: Vec<String> =
            ["trace", "record", prog.as_str(), "-o", &ftrace_s, "--sample", "every:3"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert!(run(&record).is_ok());
        let file = minic_trace::TraceFile::open(&ftrace).unwrap();
        let thinned = foray::analyze_source(&file).unwrap();
        let embedded = ForayGen::new()
            .analyzer(AnalyzerConfig {
                sample: SampleSpec::EveryNth { n: 3 },
                ..AnalyzerConfig::default()
            })
            .run_source(PROG)
            .unwrap();
        assert_eq!(thinned, embedded.analysis);
        std::fs::remove_file(&ftrace).ok();
    }

    #[test]
    fn engine_flag_parses_and_both_engines_run() {
        let path = write_temp("engine", PROG);
        for engine in ["tree", "vm"] {
            let args: Vec<String> = ["model", path.as_str(), "--engine", engine]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args).is_ok(), "--engine {engine}");
            let parsed = parse_options(&args[1..]).unwrap();
            assert_eq!(parsed.engine.as_str(), engine);
        }
        assert!(matches!(
            parse_options(&["x.mc".to_owned(), "--engine".to_owned(), "jit".to_owned()]),
            Err(CliError::Usage(_))
        ));
        // Default is the VM.
        assert_eq!(parse_options(&["x.mc".to_owned()]).unwrap().engine, Engine::Vm);
    }

    #[test]
    fn trace_record_then_analyze_round_trips() {
        let prog = write_temp("record", PROG);
        let ftrace = std::env::temp_dir().join("foray_cli_test_record.ftrace");
        let ftrace_s = ftrace.to_string_lossy().into_owned();
        let record: Vec<String> = ["trace", "record", prog.as_str(), "-o", &ftrace_s]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&record).is_ok());
        let file = minic_trace::TraceFile::open(&ftrace).unwrap();
        assert!(file.record_count() > 0);
        // The file-backed analysis equals the in-RAM pipeline (stdout
        // capture is per-process, so compare models directly).
        let in_ram = ForayGen::new().run_source(PROG).unwrap();
        let analysis = foray::analyze_source(&file).unwrap();
        assert_eq!(analysis, in_ram.analysis);
        let model = ForayModel::extract(&analysis, &FilterConfig::default());
        assert_eq!(foray::codegen::emit(&model), in_ram.code);
        let analyze: Vec<String> =
            ["trace", "analyze", ftrace_s.as_str()].iter().map(|s| s.to_string()).collect();
        assert!(run(&analyze).is_ok());
        std::fs::remove_file(&ftrace).ok();
    }

    #[test]
    fn trace_format_flag_selects_the_container_version() {
        let prog = write_temp("format_flag", PROG);
        for (flag, want) in
            [("v1", minic_trace::FormatVersion::V1), ("v2", minic_trace::FormatVersion::V2)]
        {
            let ftrace = std::env::temp_dir().join(format!("foray_cli_test_fmt_{flag}.ftrace"));
            let ftrace_s = ftrace.to_string_lossy().into_owned();
            let args: Vec<String> =
                ["trace", "record", prog.as_str(), "-o", &ftrace_s, "--trace-format", flag]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            assert!(run(&args).is_ok(), "--trace-format {flag}");
            let file = minic_trace::TraceFile::open(&ftrace).unwrap();
            assert_eq!(file.version(), want, "--trace-format {flag}");
            // Both versions re-analyze to the same model.
            let in_ram = ForayGen::new().run_source(PROG).unwrap();
            assert_eq!(foray::analyze_source(&file).unwrap(), in_ram.analysis);
            std::fs::remove_file(&ftrace).ok();
        }
        // The default is v2; bad names are usage errors.
        assert_eq!(parse_options(&[]).unwrap().trace_format, minic_trace::FormatVersion::V2);
        assert!(matches!(
            parse_options(&["--trace-format".to_owned(), "v3".to_owned()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn failed_recording_removes_the_partial_file() {
        // A program that dies mid-run (division by zero) must not leave a
        // footer-less .ftrace stub or a truncated dump behind.
        let prog = write_temp(
            "record_crash",
            "int a[8];\nvoid main() { int i; int z; z = 0; for (i = 0; i < 8; i++) { a[i] = 1 / z; } }",
        );
        let ftrace = std::env::temp_dir().join("foray_cli_test_crash.ftrace");
        std::fs::remove_file(&ftrace).ok();
        let ftrace_s = ftrace.to_string_lossy().into_owned();
        for argv in [
            owned(&["trace", "record", &prog, "-o", &ftrace_s]),
            owned(&["trace", &prog, "--format", "text", "-o", &ftrace_s]),
        ] {
            assert!(matches!(run(&argv), Err(CliError::Runtime(_))), "{argv:?}");
            assert!(!ftrace.exists(), "{argv:?}: partial file must be removed on runtime error");
        }
    }

    #[test]
    fn from_loop_seeks_and_rejects_unseekable_files() {
        let prog = write_temp("from_loop", PROG);
        let ftrace = std::env::temp_dir().join("foray_cli_test_from_loop.ftrace");
        let ftrace_s = ftrace.to_string_lossy().into_owned();
        let record: Vec<String> = ["trace", "record", prog.as_str(), "-o", &ftrace_s]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&record).is_ok());
        // Seeking to the program's (only) loop works and sees the whole
        // loop: the analysis equals the full replay.
        let file = minic_trace::TraceFile::open(&ftrace).unwrap();
        let full = foray::analyze_source(&file).unwrap();
        let seeked =
            foray::analyze_source(file.records_from_loop(minic::LoopId(0)).unwrap()).unwrap();
        assert_eq!(seeked, full);
        let seek: Vec<String> = ["trace", "analyze", &ftrace_s, "--from-loop", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&seek).is_ok(), "--from-loop 0");
        // A loop the trace never runs is a runtime error, not silence.
        let absent: Vec<String> = ["trace", "analyze", &ftrace_s, "--from-loop", "999"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&absent), Err(CliError::Runtime(_))));
        std::fs::remove_file(&ftrace).ok();
        // v1 files have no index: --from-loop reports that, it does not scan.
        let v1: Vec<String> =
            ["trace", "record", prog.as_str(), "-o", &ftrace_s, "--trace-format", "v1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert!(run(&v1).is_ok());
        let seek_v1: Vec<String> = ["trace", "analyze", &ftrace_s, "--from-loop", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&seek_v1).unwrap_err();
        let CliError::Runtime(msg) = err else { panic!("want runtime error, got {err:?}") };
        assert!(msg.contains("checkpoint index"), "{msg}");
        std::fs::remove_file(&ftrace).ok();
    }

    #[test]
    fn workload_source_resolves() {
        let ftrace = std::env::temp_dir().join("foray_cli_test_workload.ftrace");
        let ftrace_s = ftrace.to_string_lossy().into_owned();
        let args: Vec<String> = ["trace", "record", "--workload", "adpcmc", "-o", &ftrace_s]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).is_ok());
        assert!(minic_trace::TraceFile::open(&ftrace).unwrap().record_count() > 0);
        std::fs::remove_file(&ftrace).ok();
        // model also accepts --workload; unknown names are usage errors.
        assert!(run(&["model".to_owned(), "--workload".to_owned(), "adpcmc".to_owned()]).is_ok());
        assert!(matches!(
            run(&["model".to_owned(), "--workload".to_owned(), "nope".to_owned()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_subcommand_usage_errors() {
        let prog = write_temp("record_noout", PROG);
        // record without -o
        assert!(matches!(
            run(&["trace".to_owned(), "record".to_owned(), prog.clone()]),
            Err(CliError::Usage(_))
        ));
        // analyze without a file / with --workload / on a non-trace file
        assert!(matches!(
            run(&["trace".to_owned(), "analyze".to_owned()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "trace".to_owned(),
                "analyze".to_owned(),
                "--workload".to_owned(),
                "fftc".to_owned()
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["trace".to_owned(), "analyze".to_owned(), prog]),
            Err(CliError::Runtime(_))
        ));
        // file + --workload together is ambiguous
        let prog2 = write_temp("ambiguous", PROG);
        assert!(matches!(
            run(&["model".to_owned(), prog2, "--workload".to_owned(), "fftc".to_owned()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_to_file_in_both_formats() {
        use minic_trace::TraceSink as _;
        // `trace` streams its dump, and `trace record` its framed file;
        // the bytes must equal the whole record vector, thinned, then
        // encoded.
        let path = write_temp("trace", PROG);
        let prog = minic::frontend(PROG).unwrap();
        let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
        for sample in ["full", "every:3"] {
            let spec = SampleSpec::parse(sample).unwrap();
            let mut thin = minic_trace::SampleSink::new(spec, minic_trace::VecSink::new());
            records.iter().for_each(|r| thin.record(r));
            let thinned = thin.into_inner().into_records();
            assert_eq!(thinned.len() < records.len(), sample != "full", "{sample}");
            let mut framed = Vec::new();
            minic_trace::file::write_to_with(&mut framed, &thinned, Default::default()).unwrap();
            for (fmt, want) in [
                ("text", minic_trace::text::to_text(&thinned).into_bytes()),
                ("binary", minic_trace::binary::to_bytes(&thinned)),
                ("framed", framed),
            ] {
                let out = std::env::temp_dir().join(format!("foray_cli_trace.{fmt}"));
                let out_s = out.to_string_lossy().into_owned();
                let args = if fmt == "framed" {
                    owned(&["trace", "record", &path, "-o", &out_s, "--sample", sample])
                } else {
                    owned(&["trace", &path, "--format", fmt, "-o", &out_s, "--sample", sample])
                };
                assert!(run(&args).is_ok(), "{args:?}");
                assert_eq!(std::fs::read(&out).unwrap(), want, "{args:?}");
                std::fs::remove_file(&out).ok();
            }
        }
        // An unknown format (`framed` included: `trace record` writes
        // those) is a usage error that creates no file.
        for fmt in ["xml", "framed"] {
            let out = std::env::temp_dir().join(format!("foray_cli_trace_bad.{fmt}"));
            std::fs::remove_file(&out).ok();
            let out_s = out.to_string_lossy().into_owned();
            let args = owned(&["trace", &path, "--format", fmt, "-o", &out_s]);
            assert!(matches!(run(&args), Err(CliError::Usage(_))), "{args:?}");
            assert!(!out.exists(), "a rejected --format must not create its -o file");
        }
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["model".to_owned()]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["bogus".to_owned(), "x".to_owned()]), Err(CliError::Usage(_))));
        let path = write_temp("badflag", PROG);
        assert!(matches!(
            run(&["model".to_owned(), path, "--wat".to_owned()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn compile_errors_are_reported() {
        let path = write_temp("broken", "void main() {");
        assert!(matches!(run(&["model".to_owned(), path]), Err(CliError::Compile(_))));
    }

    #[test]
    fn spm_command_runs() {
        let path = write_temp(
            "spm",
            "int t[64]; int big[4096];\nvoid main() {\n int i; int j;\n for (i = 0; i < 128; i++) {\n  for (j = 0; j < 64; j++) { big[j] += t[j]; }\n }\n}",
        );
        let args: Vec<String> =
            ["spm", path.as_str(), "--capacity", "1024"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args).is_ok());
    }

    #[test]
    fn executable_model_flag() {
        let path = write_temp("exec", PROG);
        let args: Vec<String> =
            ["model", path.as_str(), "--executable"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args).is_ok());
    }

    #[test]
    fn annotate_command_runs() {
        let path = write_temp("annotate", PROG);
        assert!(run(&["annotate".to_owned(), path]).is_ok());
    }

    #[test]
    fn dse_options_parse_with_defaults_and_overrides() {
        let defaults = parse_dse_options(&[]).unwrap();
        assert_eq!(defaults.workloads, vec!["all"]);
        assert_eq!(defaults.capacities, vec![256, 512, 1024, 2048, 4096, 8192]);
        assert_eq!(defaults.models.len(), foray_spm::energy::PRESET_NAMES.len());
        assert_eq!(defaults.jobs, 0);
        assert!(!defaults.check);
        let args: Vec<String> = [
            "--workloads",
            "fftc,adpcmc",
            "--capacities",
            "512,256",
            "--models",
            "small-spm",
            "--jobs",
            "3",
            "--check",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_dse_options(&args).unwrap();
        assert_eq!(opts.workloads, vec!["fftc", "adpcmc"]);
        assert_eq!(opts.capacities, vec![512, 256]);
        assert_eq!(opts.models, vec!["small-spm"]);
        assert_eq!(opts.jobs, 3);
        assert!(opts.check);
        assert!(matches!(
            parse_dse_options(&["--capacities".to_owned(), "abc".to_owned()]),
            Err(CliError::Usage(_))
        ));
        // dse takes no file argument.
        assert!(matches!(parse_dse_options(&["x.mc".to_owned()]), Err(CliError::Usage(_))));
    }

    #[test]
    fn energy_model_specs_resolve() {
        for name in foray_spm::energy::PRESET_NAMES {
            let (n, m) = parse_energy_model(name).unwrap();
            assert_eq!(&n, name);
            assert_eq!(m, foray_spm::EnergyModel::preset(name).unwrap());
        }
        let (n, m) = parse_energy_model("custom:3.0:0.2:512:0.15").unwrap();
        assert_eq!(n, "custom");
        assert_eq!(m.main_access_nj, 3.0);
        assert_eq!(m.spm_base_bytes, 512);
        assert!(matches!(parse_energy_model("nope"), Err(CliError::Usage(_))));
        assert!(matches!(parse_energy_model("custom:1:2"), Err(CliError::Usage(_))));
    }

    #[test]
    fn dse_command_runs_and_writes_json() {
        let json = std::env::temp_dir().join("foray_cli_test_dse.json");
        let json_s = json.to_string_lossy().into_owned();
        let args: Vec<String> = [
            "dse",
            "--workloads",
            "adpcmc",
            "--capacities",
            "256,1024",
            "--models",
            "small-spm,large-spm",
            "--jobs",
            "2",
            "--json",
            &json_s,
            "--check",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run(&args).is_ok());
        let written = std::fs::read_to_string(&json).unwrap();
        assert!(written.contains("\"schema\": \"foray-dse/v1\""));
        assert!(run(&["dse".to_owned(), "--workloads".to_owned(), "nope".to_owned()])
            .is_err_and(|e| matches!(e, CliError::Usage(_))));
    }

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn serve_options_parse() {
        let o = parse_serve_options(&owned(&[
            "--socket",
            "/tmp/f.sock",
            "--workers",
            "3",
            "--queue",
            "9",
            "--cache",
            "7",
            "--spill",
            "/tmp/spill",
        ]))
        .unwrap();
        assert_eq!(o.addr, foray_serve::ServeAddr::Unix("/tmp/f.sock".into()));
        assert_eq!((o.workers, o.queue, o.cache), (3, 9, 7));
        assert_eq!(o.spill.as_deref(), Some("/tmp/spill"));
        let o = parse_serve_options(&owned(&["--tcp", "127.0.0.1:0"])).unwrap();
        assert_eq!(o.addr, foray_serve::ServeAddr::Tcp("127.0.0.1:0".into()));
        assert_eq!((o.workers, o.queue, o.cache), (1, 64, 128), "defaults");
        // Address is mandatory and exclusive.
        assert!(parse_serve_options(&[]).is_err_and(|e| matches!(e, CliError::Usage(_))));
        assert!(parse_serve_options(&owned(&["--socket", "/tmp/a", "--tcp", "h:1",]))
            .is_err_and(|e| matches!(e, CliError::Usage(_))));
        assert!(parse_serve_options(&owned(&["--workers"]))
            .is_err_and(|e| matches!(e, CliError::Usage(_))));
    }

    #[test]
    fn client_options_parse_and_build_specs() {
        let o = parse_client_options(&owned(&[
            "--socket",
            "/tmp/f.sock",
            "submit",
            "--workload",
            "fftc",
            "--scale",
            "2",
            "--kind",
            "report",
            "--sample",
            "every:4",
            "--engine",
            "tree",
            "--priority",
            "5",
            "--no-wait",
        ]))
        .unwrap();
        assert_eq!(o.action, "submit");
        let spec = client_job_spec(&o).unwrap();
        assert_eq!(spec.input, foray_serve::JobInput::Workload("fftc".to_owned()));
        assert_eq!(spec.kind, foray_serve::JobKind::Report);
        assert_eq!(spec.scale, 2);
        assert_eq!(spec.engine, Engine::Tree);
        assert_eq!(spec.priority, 5);
        assert!(o.no_wait);

        let o = parse_client_options(&owned(&[
            "--socket",
            "/tmp/f.sock",
            "wait",
            "j3",
            "--timeout-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!((o.action.as_str(), o.arg.as_deref()), ("wait", Some("j3")));
        assert_eq!(o.timeout_ms, Some(250));

        // Exactly one input for submit.
        let o = parse_client_options(&owned(&[
            "--socket",
            "/tmp/f.sock",
            "submit",
            "--workload",
            "fftc",
            "--trace",
            "/t.ftrace",
        ]))
        .unwrap();
        assert!(client_job_spec(&o).is_err_and(|e| matches!(e, CliError::Usage(_))));
        let o = parse_client_options(&owned(&["--socket", "/tmp/f.sock", "submit"])).unwrap();
        assert!(client_job_spec(&o).is_err_and(|e| matches!(e, CliError::Usage(_))));

        // Missing action / out-of-range priority are usage errors.
        assert!(parse_client_options(&owned(&["--socket", "/tmp/f.sock"]))
            .is_err_and(|e| matches!(e, CliError::Usage(_))));
        assert!(parse_client_options(&owned(&[
            "--socket",
            "/tmp/f.sock",
            "submit",
            "--priority",
            "10",
        ]))
        .is_err_and(|e| matches!(e, CliError::Usage(_))));
    }

    #[test]
    fn client_end_to_end_over_unix_socket() {
        let sock = std::env::temp_dir()
            .join(format!("foray_cli_serve_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let addr = foray_serve::ServeAddr::Unix(sock.clone().into());
        let server = foray_serve::Server::new(foray_serve::ServeConfig {
            workers: 1,
            ..foray_serve::ServeConfig::default()
        });
        let srv_addr = addr.clone();
        let daemon = std::thread::spawn(move || foray_serve::serve(server, &srv_addr));
        // The listener needs a beat to bind before the client connects.
        let mut tries = 0;
        while !std::path::Path::new(&sock).exists() && tries < 100 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tries += 1;
        }
        let path = write_temp("client_e2e", PROG);
        let submit = owned(&["client", "--socket", &sock, "submit", &path]);
        run(&submit).unwrap();
        run(&submit).unwrap(); // warm: served from cache, same bytes
        run(&owned(&["client", "--socket", &sock, "ping"])).unwrap();
        run(&owned(&["client", "--socket", &sock, "stats"])).unwrap();
        run(&owned(&["client", "--socket", &sock, "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
        assert!(!std::path::Path::new(&sock).exists(), "socket file cleaned up");
    }
}
