//! `foray-gen` — command-line front door to the FORAY-GEN reproduction.
//!
//! Run it with no arguments for the commands and their flags ([`USAGE`]).
//! Every flag is one entry of [`FLAGS`], which parses its value and names
//! the commands that read it; a flag the command does not read is a usage
//! error.
//!
//! Exit codes: 0 success, 1 usage error, 2 compile error, 3 runtime error.
//! A reader that closes stdout early (`foray-gen report … | head -1`) ends
//! the command quietly with 0.

use foray::{Engine, FilterConfig, ForayGen, ForayModel};
use foray_serve::{JobKind, Response, ServeAddr, ServeConfig};
use foray_spm::{EnergyModel, SpmDesignSpace};
use minic_trace::FormatVersion;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Stdout { out: std::io::BufWriter::new(std::io::stdout().lock()), closed: false };
    let ran = run(&args, &mut out);
    // Flushed before any error line, so the two streams keep their order.
    let flushed = out.flush().map_err(CliError::Io);
    let (code, msg) = match ran.and(flushed) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Io(e)) if e.kind() == ErrorKind::BrokenPipe && out.closed => {
            return ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => (1, format!("error: {msg}\n\n{USAGE}")),
        Err(CliError::Compile(msg)) => (2, format!("compile error: {msg}")),
        Err(CliError::Runtime(msg)) => (3, format!("runtime error: {msg}")),
        Err(CliError::Io(e)) => (3, format!("i/o error: {e}")),
    };
    // A closed stderr must not turn the exit code into a panic.
    let _ = writeln!(std::io::stderr(), "{msg}");
    ExitCode::from(code)
}

/// Stdout, locked and buffered once for the whole command. It notes a
/// write that found the pipe closed, so `main` can tell a reader that
/// stopped early from a failed socket or file.
struct Stdout {
    out: std::io::BufWriter<std::io::StdoutLock<'static>>,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        self.closed |= result.as_ref().is_err_and(|e| e.kind() == ErrorKind::BrokenPipe);
        result
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.out.write(buf);
        self.note(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let flushed = self.out.flush();
        self.note(flushed)
    }
}

const USAGE: &str = "usage:
  foray-gen model    <prog.mc> [--nexec N] [--nloc N] [--inputs v,v,..] [--executable]
  foray-gen report   <prog.mc> [--nexec N] [--nloc N] [--inputs v,v,..]
  foray-gen trace    <prog.mc> [-o FILE] [--inputs v,v,..]
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
                             [--nexec N] [--nloc N] [--engine E]
                             [--inputs v,v,..] [--priority 0-9] [--no-wait]
                           | wait JOB [--timeout-ms N] | poll JOB
                           | stats | ping | shutdown

program sources (model/report/trace/annotate/spm):
  <prog.mc>        a mini-C source file, or
  --workload NAME  a built-in corpus workload (jpegc, lamec, susanc, fftc,
                   gsmc, adpcmc, histoc) with its canonical inputs;
                   --scale N sizes it (1 to 8)

trace file flags:
  --trace-format v1|v2  container version for `trace record` (default: v2,
              compressed + checksummed + indexed; v1 is the frozen
              fixed-width format — both stay readable forever)
  --from-loop N  for `trace analyze`: seek to loop N via the v2 checkpoint
              index and analyze from its first checkpoint (needs a v2
              file written with the index)

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

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A command. `trace record`, `trace analyze` and each `client` action
/// are commands of their own, since each reads its own flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Model,
    Report,
    Trace,
    Record,
    Analyze,
    Annotate,
    Spm,
    Dse,
    Serve,
    Submit,
    Wait,
    Poll,
    Stats,
    Ping,
    Shutdown,
}

impl Cmd {
    /// Every command, with its words on the command line.
    const NAMES: [(Cmd, &'static str); 15] = [
        (Cmd::Model, "model"),
        (Cmd::Report, "report"),
        (Cmd::Trace, "trace"),
        (Cmd::Record, "trace record"),
        (Cmd::Analyze, "trace analyze"),
        (Cmd::Annotate, "annotate"),
        (Cmd::Spm, "spm"),
        (Cmd::Dse, "dse"),
        (Cmd::Serve, "serve"),
        (Cmd::Submit, "client submit"),
        (Cmd::Wait, "client wait"),
        (Cmd::Poll, "client poll"),
        (Cmd::Stats, "client stats"),
        (Cmd::Ping, "client ping"),
        (Cmd::Shutdown, "client shutdown"),
    ];

    fn name(self) -> &'static str {
        Cmd::NAMES.iter().find(|(cmd, _)| *cmd == self).expect("every command is named").1
    }

    fn named(name: &str) -> Option<Cmd> {
        Cmd::NAMES.iter().find(|(_, n)| *n == name).map(|(cmd, _)| *cmd)
    }

    /// Whether the command takes a positional argument: a program file, a
    /// trace file or a job id.
    fn takes_arg(self) -> bool {
        !matches!(self, Cmd::Dse | Cmd::Serve | Cmd::Stats | Cmd::Ping | Cmd::Shutdown)
    }
}

/// Every command's options, as [`FLAGS`] sets them.
#[derive(Debug)]
struct Opts {
    /// The positional argument: a program or trace file, or a job id.
    arg: Option<String>,
    workload: Option<String>,
    scale: u32,
    filter: FilterConfig,
    inputs: Option<Vec<i64>>,
    engine: Engine,
    executable: bool,
    output: Option<String>,
    trace_format: FormatVersion,
    from_loop: Option<u32>,
    capacity: u32,
    workloads: Vec<String>,
    /// `dse`'s capacities and models; the workloads come from `workloads`.
    space: SpmDesignSpace,
    jobs: usize,
    json: Option<String>,
    check: bool,
    addr: Option<ServeAddr>,
    serve: ServeConfig,
    trace: Option<String>,
    kind: JobKind,
    priority: u8,
    no_wait: bool,
    timeout_ms: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            arg: None,
            workload: None,
            scale: 1,
            filter: FilterConfig::default(),
            inputs: None,
            engine: Engine::default(),
            executable: false,
            output: None,
            trace_format: FormatVersion::default(),
            from_loop: None,
            capacity: 4096,
            workloads: vec!["all".to_owned()],
            space: SpmDesignSpace::standard(),
            jobs: 0,
            json: None,
            check: false,
            addr: None,
            serve: ServeConfig::default(),
            trace: None,
            kind: JobKind::default(),
            priority: 0,
            no_wait: false,
            timeout_ms: None,
        }
    }
}

/// How a flag sets [`Opts`]: alone, or from the value that follows it
/// (an `Err` says what is wrong with the value).
enum Set {
    Switch(fn(&mut Opts)),
    Value(fn(&mut Opts, &str) -> Result<(), String>),
}
use Set::{Switch, Value};

/// One flag: its spellings, the commands that read it, and how it sets
/// [`Opts`].
struct Flag(&'static [&'static str], &'static [Cmd], Set);

/// Commands that build a program from a file or `--workload`.
const SOURCED: &[Cmd] =
    &[Cmd::Model, Cmd::Report, Cmd::Trace, Cmd::Record, Cmd::Annotate, Cmd::Spm, Cmd::Submit];
/// Commands that size a `--workload`, or `dse`'s corpus.
const SCALED: &[Cmd] = &[
    Cmd::Model,
    Cmd::Report,
    Cmd::Trace,
    Cmd::Record,
    Cmd::Annotate,
    Cmd::Spm,
    Cmd::Submit,
    Cmd::Dse,
];
/// Commands that also run the program.
const RUN: &[Cmd] = &[Cmd::Model, Cmd::Report, Cmd::Trace, Cmd::Record, Cmd::Spm, Cmd::Submit];
/// Commands that extract a model through the `--nexec`/`--nloc` filter.
const FILTERED: &[Cmd] = &[Cmd::Model, Cmd::Report, Cmd::Analyze, Cmd::Spm, Cmd::Submit];
/// Commands that write a trace.
const TRACE: &[Cmd] = &[Cmd::Trace, Cmd::Record];
const DSE: &[Cmd] = &[Cmd::Dse];
const SERVE: &[Cmd] = &[Cmd::Serve];
const SUBMIT: &[Cmd] = &[Cmd::Submit];
/// Commands that take a daemon address.
const DAEMON: &[Cmd] =
    &[Cmd::Serve, Cmd::Submit, Cmd::Wait, Cmd::Poll, Cmd::Stats, Cmd::Ping, Cmd::Shutdown];

/// Every flag of every command: the one place each flag's value is parsed
/// and checked.
const FLAGS: &[Flag] = &[
    Flag(&["--workload"], SOURCED, Value(|o, v| set(&mut o.workload, Some(v.into())))),
    Flag(&["--scale"], SCALED, Value(|o, v| set(&mut o.scale, num::<u32>(v)?.max(1)))),
    Flag(&["--inputs"], RUN, Value(|o, v| set(&mut o.inputs, Some(ints(v)?)))),
    Flag(&["--engine"], RUN, Value(|o, v| set(&mut o.engine, engine(v)?))),
    Flag(&["--nexec"], FILTERED, Value(|o, v| set(&mut o.filter.n_exec, num(v)?))),
    Flag(&["--nloc"], FILTERED, Value(|o, v| set(&mut o.filter.n_loc, num(v)?))),
    Flag(&["--executable"], &[Cmd::Model], Switch(|o| o.executable = true)),
    Flag(&["-o", "--output"], TRACE, Value(|o, v| set(&mut o.output, Some(v.into())))),
    Flag(&["--trace-format"], &[Cmd::Record], Value(|o, v| set(&mut o.trace_format, version(v)?))),
    Flag(&["--from-loop"], &[Cmd::Analyze], Value(|o, v| set(&mut o.from_loop, Some(num(v)?)))),
    Flag(&["--capacity"], &[Cmd::Spm], Value(|o, v| set(&mut o.capacity, num(v)?))),
    Flag(&["--workloads"], DSE, Value(|o, v| set(&mut o.workloads, list(v, |s| Ok(s.into()))?))),
    Flag(&["--capacities"], DSE, Value(|o, v| set(&mut o.space.capacities, list(v, num)?))),
    Flag(&["--models"], DSE, Value(|o, v| set(&mut o.space.models, list(v, energy_model)?))),
    Flag(&["--jobs"], DSE, Value(|o, v| set(&mut o.jobs, num(v)?))),
    Flag(&["--json"], DSE, Value(|o, v| set(&mut o.json, Some(v.into())))),
    Flag(&["--check"], DSE, Switch(|o| o.check = true)),
    Flag(&["--socket"], DAEMON, Value(|o, v| set_addr(o, ServeAddr::Unix(v.into())))),
    Flag(&["--tcp"], DAEMON, Value(|o, v| set_addr(o, ServeAddr::Tcp(v.into())))),
    Flag(&["--workers"], SERVE, Value(|o, v| set(&mut o.serve.workers, num::<usize>(v)?.max(1)))),
    Flag(
        &["--queue"],
        SERVE,
        Value(|o, v| set(&mut o.serve.queue_capacity, num::<usize>(v)?.max(1))),
    ),
    Flag(&["--cache"], SERVE, Value(|o, v| set(&mut o.serve.cache_entries, num(v)?))),
    Flag(&["--spill"], SERVE, Value(|o, v| set(&mut o.serve.spill_dir, Some(v.into())))),
    Flag(&["--trace"], SUBMIT, Value(|o, v| set(&mut o.trace, Some(v.into())))),
    Flag(&["--kind"], SUBMIT, Value(|o, v| set(&mut o.kind, kind(v)?))),
    Flag(&["--priority"], SUBMIT, Value(|o, v| set(&mut o.priority, priority(v)?))),
    Flag(&["--no-wait"], SUBMIT, Switch(|o| o.no_wait = true)),
    Flag(&["--timeout-ms"], &[Cmd::Wait], Value(|o, v| set(&mut o.timeout_ms, Some(num(v)?)))),
];

fn set<T>(field: &mut T, value: T) -> Result<(), String> {
    *field = value;
    Ok(())
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "not a number, or out of range".to_owned())
}

/// A comma-separated list of at least one item, each parsed by `item`.
fn list<T>(v: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Vec<T> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(item)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err("needs at least one value".to_owned());
    }
    Ok(items)
}

fn ints(v: &str) -> Result<Vec<i64>, String> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().map_err(|_| format!("bad input value `{s}`")))
        .collect()
}

fn engine(v: &str) -> Result<Engine, String> {
    Engine::parse(v).ok_or_else(|| "use `tree` or `vm`".to_owned())
}

fn version(v: &str) -> Result<FormatVersion, String> {
    FormatVersion::parse(v).ok_or_else(|| "use `v1` or `v2`".to_owned())
}

fn kind(v: &str) -> Result<JobKind, String> {
    JobKind::parse(v).ok_or_else(|| "use model/report/dse".to_owned())
}

fn priority(v: &str) -> Result<u8, String> {
    match num::<u8>(v)? {
        p if p <= foray_serve::MAX_PRIORITY => Ok(p),
        _ => Err(format!("out of range 0-{}", foray_serve::MAX_PRIORITY)),
    }
}

/// A `--models` entry: a preset name, or a user-supplied point as
/// `custom:MAIN_NJ:SPM_NJ:BASE_BYTES:SLOPE` (named `custom`).
fn energy_model(spec: &str) -> Result<(String, EnergyModel), String> {
    if let Some(params) = spec.strip_prefix("custom:") {
        let parts: Vec<&str> = params.split(':').collect();
        let [main, spm, bytes, slope] = parts.as_slice() else {
            return Err(format!(
                "bad custom model `{spec}` (want custom:MAIN_NJ:SPM_NJ:BASE_BYTES:SLOPE)"
            ));
        };
        let model = EnergyModel {
            main_access_nj: num(main)?,
            spm_base_nj: num(spm)?,
            spm_base_bytes: num(bytes)?,
            spm_size_slope: num(slope)?,
        };
        return Ok(("custom".to_owned(), model));
    }
    match EnergyModel::preset(spec) {
        Some(m) => Ok((spec.to_owned(), m)),
        None => Err(format!(
            "unknown energy model `{spec}` (presets: {})",
            foray_spm::energy::PRESET_NAMES.join(", ")
        )),
    }
}

const ONE_ADDR: &str = "give exactly one of --socket PATH or --tcp HOST:PORT";

fn set_addr(o: &mut Opts, addr: ServeAddr) -> Result<(), String> {
    match o.addr.replace(addr) {
        None => Ok(()),
        Some(_) => Err(ONE_ADDR.to_owned()),
    }
}

/// The daemon address `--socket` or `--tcp` gave.
fn addr(o: &Opts) -> Result<&ServeAddr, CliError> {
    o.addr.as_ref().ok_or_else(|| usage(ONE_ADDR))
}

/// Parses a command line: the command, then its options through the one
/// loop over [`FLAGS`]. A flag the command does not read is a usage
/// error, found before the command opens or writes anything.
fn parse(args: &[String]) -> Result<(Cmd, Opts), CliError> {
    let Some(first) = args.first() else { return Err(usage("missing command")) };
    let (mut o, mut seen, mut words) = (Opts::default(), Vec::new(), Vec::new());
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            words.push(arg.as_str());
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.0.contains(&arg.as_str())) else {
            return Err(usage(format!("unknown flag `{arg}`")));
        };
        match flag.2 {
            Switch(set) => set(&mut o),
            Value(set) => {
                let v = it.next().ok_or_else(|| usage(format!("{arg} needs a value")))?;
                set(&mut o, v).map_err(|e| usage(format!("bad {arg} `{v}`: {e}")))?;
            }
        }
        seen.push((arg, flag));
    }
    // Two-word commands (`trace record`, `client submit`) first.
    let cmd = if let Some(cmd) = words.first().and_then(|w| Cmd::named(&format!("{first} {w}"))) {
        words.remove(0);
        cmd
    } else if let Some(cmd) = Cmd::named(first) {
        cmd
    } else if first == "client" {
        let action = words.first().map_or("none".to_owned(), |w| format!("`{w}`"));
        return Err(usage(format!(
            "client action {action}: use submit, wait, poll, stats, ping or shutdown"
        )));
    } else {
        return Err(usage(format!("unknown command `{first}`")));
    };
    if let Some(extra) = words.get(usize::from(cmd.takes_arg())) {
        return Err(usage(format!("unexpected argument `{extra}`")));
    }
    o.arg = words.first().map(|w| (*w).to_owned());
    if let Some((arg, _)) = seen.iter().find(|(_, f)| !f.1.contains(&cmd)) {
        return Err(usage(format!("`{}` does not take {arg}", cmd.name())));
    }
    Ok((cmd, o))
}

/// Runs a command line, writing what it prints to `stdout`.
fn run(args: &[String], stdout: &mut dyn Write) -> Result<(), CliError> {
    let (cmd, o) = parse(args)?;
    match cmd {
        Cmd::Model => cmd_model(program(&o)?, &o, stdout),
        Cmd::Report => cmd_report(program(&o)?, &o, stdout),
        Cmd::Trace => cmd_trace(program(&o)?, &o, stdout),
        Cmd::Record => cmd_trace_record(program(&o)?, &o, stdout),
        Cmd::Annotate => cmd_annotate(&program(&o)?.0, stdout),
        Cmd::Spm => cmd_spm(program(&o)?, &o, stdout),
        Cmd::Analyze => cmd_trace_analyze(&o, stdout),
        Cmd::Dse => cmd_dse(&o, stdout),
        Cmd::Serve => cmd_serve(&o),
        _ => cmd_client(cmd, &o, stdout),
    }
}

/// Resolves the program to run and its `input()` data: a source file
/// with `--inputs`, or a `--workload` from the corpus with its canonical
/// inputs unless `--inputs` names some.
fn program(o: &Opts) -> Result<(String, Vec<i64>), CliError> {
    match (&o.workload, &o.arg) {
        (Some(_), Some(file)) => {
            Err(usage(format!("give either a program file or --workload, not both (got `{file}`)")))
        }
        (Some(name), None) => {
            let w = foray_workloads::build(Some(name), o.scale).map_err(usage)?.remove(0);
            Ok((w.source, o.inputs.clone().filter(|v| !v.is_empty()).unwrap_or(w.inputs)))
        }
        (None, Some(file)) => Ok((read_source(file)?, o.inputs.clone().unwrap_or_default())),
        (None, None) => Err(usage("missing program file (or --workload)")),
    }
}

fn read_source(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| usage(format!("cannot read `{path}`: {e}")))
}

fn frontend(src: &str) -> Result<minic::Program, CliError> {
    minic::frontend(src).map_err(|e| CliError::Compile(e.to_string()))
}

fn pipeline(o: &Opts, inputs: Vec<i64>) -> ForayGen {
    ForayGen::new().filter(o.filter).inputs(inputs).engine(o.engine)
}

fn cmd_model(
    (src, inputs): (String, Vec<i64>),
    o: &Opts,
    stdout: &mut dyn Write,
) -> Result<(), CliError> {
    let out = pipeline(o, inputs).run_source(&src)?;
    if o.executable {
        write!(stdout, "{}", foray::codegen::emit_minic(&out.model))?;
    } else {
        write!(stdout, "{}", out.code)?;
    }
    Ok(())
}

fn cmd_annotate(src: &str, stdout: &mut dyn Write) -> Result<(), CliError> {
    write!(stdout, "{}", minic::pretty(&frontend(src)?))?;
    Ok(())
}

/// Bare `trace`: dump the program's trace in the paper's Fig. 4(c) text
/// to `-o FILE` or stdout as it runs, through the same [`profile_into`]
/// as `trace record`, which writes the binary `foray-trace` file.
fn cmd_trace(
    (src, inputs): (String, Vec<i64>),
    o: &Opts,
    stdout: &mut dyn Write,
) -> Result<(), CliError> {
    let prog = frontend(&src)?;
    let out: Box<dyn Write + '_> = match &o.output {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(stdout),
    };
    let writer = minic_trace::text::TextWriter::new(out);
    latched(profile_into(&prog, inputs, o, writer)?.io_error())
}

/// Profiles `prog` into `writer` — the one way `trace` and `trace record`
/// write a trace — and returns the writer. On a runtime error the writer
/// never reaches `finish`, so the partial `-o` file is removed instead of
/// left for later readers to trip over.
fn profile_into<S: minic_trace::TraceSink>(
    prog: &minic::Program,
    inputs: Vec<i64>,
    o: &Opts,
    mut writer: S,
) -> Result<S, CliError> {
    let config = minic_sim::SimConfig { engine: o.engine, ..minic_sim::SimConfig::default() };
    if let Err(e) = minic_sim::run_with_sink(prog, &config, &inputs, &mut writer) {
        drop(writer);
        if let Some(path) = &o.output {
            std::fs::remove_file(path).ok();
        }
        return Err(CliError::Runtime(e.to_string()));
    }
    Ok(writer)
}

/// A trace writer's latched I/O error, if any, as the CLI's error.
fn latched(error: Option<&std::io::Error>) -> Result<(), CliError> {
    match error {
        Some(e) => Err(CliError::Io(std::io::Error::new(e.kind(), e.to_string()))),
        None => Ok(()),
    }
}

/// `trace record`: profile the program with a [`minic_trace::TraceWriter`]
/// riding the simulation as the sink, so the `foray-trace` file
/// (`--trace-format`, v2 by default) is written block by block without
/// ever materializing the record stream.
fn cmd_trace_record(
    (src, inputs): (String, Vec<i64>),
    o: &Opts,
    stdout: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(path) = &o.output else {
        return Err(usage("trace record needs -o FILE.ftrace"));
    };
    let prog = frontend(&src)?;
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let writer = minic_trace::TraceWriter::with_format(file, o.trace_format);
    let writer = profile_into(&prog, inputs, o, writer)?;
    latched(writer.io_error())?;
    let records = writer.records_written();
    let bytes = std::fs::metadata(path)?.len();
    writeln!(
        stdout,
        "recorded {records} records to {path} ({bytes} bytes, foray-trace/{})",
        o.trace_format
    )?;
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
fn cmd_trace_analyze(o: &Opts, stdout: &mut dyn Write) -> Result<(), CliError> {
    let Some(path) = &o.arg else {
        return Err(usage("trace analyze needs a FILE.ftrace argument"));
    };
    let runtime = |e: minic_trace::ReadError| CliError::Runtime(e.to_string());
    let mut file =
        std::fs::File::open(path).map_err(|e| usage(format!("cannot read `{path}`: {e}")))?;
    let analysis = if let Some(loop_id) = o.from_loop {
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut file, &mut bytes).map_err(|e| runtime(e.into()))?;
        let file = minic_trace::TraceFile::from_bytes(bytes).map_err(runtime)?;
        if file.index().is_none() {
            return Err(CliError::Runtime(format!(
                "`{path}` is a foray-trace/{} file without a checkpoint index; \
                 --from-loop needs a v2 file recorded with the index",
                file.version()
            )));
        }
        let Some(records) = file.records_from_loop(minic::LoopId(loop_id)) else {
            return Err(CliError::Runtime(format!(
                "loop {loop_id} never runs in `{path}` (not covered by the checkpoint index)"
            )));
        };
        foray::analyze_source(records)
    } else {
        let reader =
            minic_trace::TraceReader::new(std::io::BufReader::new(file)).map_err(runtime)?;
        foray::analyze_source(reader)
    }
    .map_err(runtime)?;
    write!(stdout, "{}", foray::codegen::emit(&ForayModel::extract(&analysis, &o.filter)))?;
    Ok(())
}

fn cmd_report(
    (src, inputs): (String, Vec<i64>),
    o: &Opts,
    stdout: &mut dyn Write,
) -> Result<(), CliError> {
    let out = pipeline(o, inputs).run_source(&src)?;
    let mut prog = minic::parse(&src).map_err(|e| CliError::Compile(e.to_string()))?;
    minic::check(&mut prog).map_err(|e| CliError::Compile(e.to_string()))?;
    let st = foray_baseline::analyze_program(&prog);
    let loops: std::collections::HashSet<minic::LoopId> =
        st.canonical_loops.iter().copied().collect();
    let cmp = foray::CaptureComparison::compute(&out.model, &loops, &st.affine_instrs());
    let mem = foray::MemoryBehavior::compute(&out.analysis, &out.model);

    writeln!(stdout, "== FORAY model ==")?;
    write!(stdout, "{}", out.code)?;
    writeln!(stdout)?;
    writeln!(stdout, "== reconstructed loop tree (Algorithm 2) ==")?;
    write!(stdout, "{}", out.analysis.tree().render())?;
    writeln!(stdout)?;
    writeln!(stdout, "== capture ==")?;
    writeln!(
        stdout,
        "model: {} loops, {} references; statically visible: {} loops, {} references",
        cmp.model_loops, cmp.model_refs, cmp.static_loops, cmp.static_refs
    )?;
    writeln!(
        stdout,
        "not in FORAY form in the source: {:.0}% of loops, {:.0}% of references",
        cmp.pct_loops_not_static(),
        cmp.pct_refs_not_static()
    )?;
    if let Some(g) = cmp.gain() {
        writeln!(stdout, "analyzable-reference gain over static analysis: {g:.1}x")?;
    }
    writeln!(stdout)?;
    writeln!(stdout, "== memory behaviour ==")?;
    writeln!(
        stdout,
        "accesses: {} total, {} in model ({:.0}%), {} in system library ({:.0}%)",
        mem.total_accesses,
        mem.model_accesses,
        foray::report::pct(mem.model_accesses, mem.total_accesses),
        mem.lib_accesses,
        foray::report::pct(mem.lib_accesses, mem.total_accesses),
    )?;
    writeln!(
        stdout,
        "footprint: {} addresses total, {} in model ({:.0}%)",
        mem.total_footprint,
        mem.model_footprint,
        foray::report::pct(mem.model_footprint, mem.total_footprint),
    )?;
    writeln!(stdout)?;
    writeln!(stdout, "== back-annotation (Phase III) ==")?;
    for note in foray::srcmap::annotate(&out.model, &out.program) {
        match note.site {
            Some(s) => writeln!(
                stdout,
                "{} -> {} in {}() at {} ({})",
                note.array,
                s.base.as_deref().unwrap_or("?"),
                s.function,
                s.loc,
                s.text
            )?,
            None => writeln!(stdout, "{} -> (synthetic traffic, no source site)", note.array)?,
        }
    }
    if !out.hints.is_empty() {
        writeln!(stdout)?;
        writeln!(stdout, "== inlining hints ==")?;
        for h in &out.hints {
            writeln!(
                stdout,
                "duplicate `{}`: loop {} runs in {} contexts ({})",
                h.function,
                h.loop_id,
                h.contexts.len(),
                h.context_paths.join(" | ")
            )?;
        }
    }
    Ok(())
}

fn cmd_spm(
    (src, inputs): (String, Vec<i64>),
    o: &Opts,
    stdout: &mut dyn Write,
) -> Result<(), CliError> {
    let out = pipeline(o, inputs).run_source(&src)?;
    let flow = foray_spm::SpmFlow::default();
    let report = flow.run(&out.model, o.capacity);
    writeln!(stdout, "== buffer candidates ==")?;
    for c in &report.candidates {
        writeln!(
            stdout,
            "{} level {}: {} bytes, reuse x{:.1}, savings {:.1} nJ",
            c.array,
            c.level,
            c.size_bytes,
            c.reuse_factor(),
            c.savings_nj(flow.energy())
        )?;
    }
    writeln!(stdout)?;
    writeln!(
        stdout,
        "== selection (capacity {} bytes): {} buffers, {} bytes, {:.1} nJ saved ==",
        o.capacity,
        report.selection.chosen.len(),
        report.selection.used_bytes,
        report.selection.savings_nj
    )?;
    writeln!(stdout)?;
    writeln!(stdout, "== transformed FORAY model ==")?;
    write!(stdout, "{}", report.code)?;
    Ok(())
}

fn cmd_dse(o: &Opts, stdout: &mut dyn Write) -> Result<(), CliError> {
    let workloads = if o.workloads.iter().any(|w| w == "all") {
        foray_workloads::build(None, o.scale).map_err(usage)?
    } else {
        let mut built = Vec::new();
        for name in &o.workloads {
            built.append(&mut foray_workloads::build(Some(name), o.scale).map_err(usage)?);
        }
        built
    };
    let space = o.space.clone().workloads(workloads.iter().map(|w| w.batch_job(ForayGen::new())));
    let result = space.explore(o.jobs).map_err(|e| CliError::Runtime(e.to_string()))?;
    // The JSON file and `--check` must not depend on a reader that keeps
    // stdout open to the end.
    let printed = write!(stdout, "{}", result.render_text());
    if let Some(path) = &o.json {
        std::fs::write(path, result.to_json())?;
    }
    if o.check {
        result.check().map_err(CliError::Runtime)?;
    }
    Ok(printed?)
}

fn cmd_serve(o: &Opts) -> Result<(), CliError> {
    let addr = addr(o)?;
    // A closed stderr must not stop the daemon from starting.
    let _ = writeln!(std::io::stderr(), "forayd listening on {addr}");
    foray_serve::serve(foray_serve::Server::new(o.serve.clone()), addr)?;
    let _ = writeln!(std::io::stderr(), "forayd drained and exited");
    Ok(())
}

/// Builds the submit spec: exactly one input among `--workload`, a
/// program file and `--trace`.
fn job_spec(o: &Opts) -> Result<foray_serve::JobSpec, CliError> {
    let input = match (&o.workload, &o.arg, &o.trace) {
        (Some(w), None, None) => foray_serve::JobInput::Workload(w.clone()),
        (None, Some(file), None) => foray_serve::JobInput::Source(read_source(file)?),
        (None, None, Some(t)) => foray_serve::JobInput::Trace(t.clone()),
        _ => {
            return Err(usage(
                "submit needs exactly one of --workload NAME, a program file, or --trace FILE",
            ))
        }
    };
    Ok(foray_serve::JobSpec {
        kind: o.kind,
        input,
        scale: o.scale,
        engine: o.engine,
        n_exec: o.filter.n_exec,
        n_loc: o.filter.n_loc,
        inputs: o.inputs.clone(),
        priority: o.priority,
    })
}

fn cmd_client(cmd: Cmd, o: &Opts, stdout: &mut dyn Write) -> Result<(), CliError> {
    let addr = addr(o)?;
    let mut client = foray_serve::Client::connect(addr)
        .map_err(|e| CliError::Runtime(format!("cannot connect to {addr}: {e}")))?;
    let job = || o.arg.as_deref().ok_or_else(|| usage(format!("{} needs a job id", cmd.name())));
    let reply = match cmd {
        Cmd::Submit if !o.no_wait => {
            // The payload goes to stdout *verbatim* so callers can
            // byte-compare runs (the serve-smoke CI job diffs these).
            let (_hit, payload) =
                client.run(&job_spec(o)?)?.map_err(|e| CliError::Runtime(e.to_string()))?;
            write!(stdout, "{payload}")?;
            return Ok(());
        }
        Cmd::Submit => client.submit(&job_spec(o)?)?,
        Cmd::Wait => client.wait(job()?, o.timeout_ms)?,
        Cmd::Poll => client.poll(job()?)?,
        Cmd::Stats => client.stats()?,
        Cmd::Ping => client.ping()?,
        _ => client.shutdown()?,
    };
    write!(stdout, "{}", reply_text(cmd, reply)?)?;
    Ok(())
}

/// What a client command prints for the daemon's reply: the reply the
/// command asked for, rendered. The daemon's typed error, or any other
/// reply, is a runtime error.
fn reply_text(cmd: Cmd, reply: Response) -> Result<String, CliError> {
    Ok(match (cmd, reply) {
        (Cmd::Submit, Response::Submitted { job, hit, key }) => {
            format!("{job} hit={hit} key={key}\n")
        }
        (Cmd::Wait, Response::Result { result, .. }) => result,
        (Cmd::Poll, Response::Status { state, .. }) => format!("{state}\n"),
        // The raw stats line *is* the machine-readable output.
        (Cmd::Stats, r @ Response::Stats(_)) => format!("{}\n", r.render()),
        (Cmd::Ping, Response::Pong) => "pong\n".to_owned(),
        (Cmd::Shutdown, Response::ShutdownStarted) => "draining\n".to_owned(),
        (_, Response::Error(e)) => return Err(CliError::Runtime(e.to_string())),
        (_, other) => return Err(CliError::Runtime(format!("unexpected reply: {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a command line with what it prints discarded.
    fn run(args: &[String]) -> Result<(), CliError> {
        super::run(args, &mut std::io::sink())
    }

    /// A stdout whose reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

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
    fn engine_flag_parses_and_both_engines_run() {
        let path = write_temp("engine", PROG);
        for engine in ["tree", "vm"] {
            let args: Vec<String> = ["model", path.as_str(), "--engine", engine]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args).is_ok(), "--engine {engine}");
            assert_eq!(parse(&args).unwrap().1.engine.as_str(), engine);
        }
        assert!(matches!(
            parse(&owned(&["model", "x.mc", "--engine", "jit"])),
            Err(CliError::Usage(_))
        ));
        // Default is the VM.
        assert_eq!(parse(&owned(&["model", "x.mc"])).unwrap().1.engine, Engine::Vm);
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
        let record = owned(&["trace", "record", "x.mc", "-o", "x.ftrace"]);
        assert_eq!(parse(&record).unwrap().1.trace_format, FormatVersion::V2);
        let v3 = owned(&["trace", "record", "x.mc", "-o", "x.ftrace", "--trace-format", "v3"]);
        assert!(matches!(parse(&v3), Err(CliError::Usage(_))));
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
            owned(&["trace", &prog, "-o", &ftrace_s]),
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
        // `trace` streams its text dump, and `trace record` its binary
        // `.ftrace` file; the bytes must equal the whole record vector,
        // encoded.
        let path = write_temp("trace", PROG);
        let prog = minic::frontend(PROG).unwrap();
        let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
        let mut framed = Vec::new();
        minic_trace::file::write_to_with(&mut framed, &records, Default::default()).unwrap();
        for (fmt, want) in
            [("text", minic_trace::text::to_text(&records).into_bytes()), ("framed", framed)]
        {
            let out = std::env::temp_dir().join(format!("foray_cli_trace.{fmt}"));
            let out_s = out.to_string_lossy().into_owned();
            let args = if fmt == "framed" {
                owned(&["trace", "record", &path, "-o", &out_s])
            } else {
                owned(&["trace", &path, "-o", &out_s])
            };
            assert!(run(&args).is_ok(), "{args:?}");
            assert_eq!(std::fs::read(&out).unwrap(), want, "{args:?}");
            std::fs::remove_file(&out).ok();
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
    fn energy_model_specs_resolve() {
        for name in foray_spm::energy::PRESET_NAMES {
            let (n, m) = energy_model(name).unwrap();
            assert_eq!(&n, name);
            assert_eq!(m, foray_spm::EnergyModel::preset(name).unwrap());
        }
        let (n, m) = energy_model("custom:3.0:0.2:512:0.15").unwrap();
        assert_eq!(n, "custom");
        assert_eq!(m.main_access_nj, 3.0);
        assert_eq!(m.spm_base_bytes, 512);
        assert!(energy_model("nope").is_err());
        assert!(energy_model("custom:1:2").is_err());
        assert!(energy_model("custom:1:2:x:4").is_err());
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
        // A reader that closed stdout still gets the JSON file written.
        std::fs::remove_file(&json).unwrap();
        let err = super::run(&args, &mut ClosedPipe).unwrap_err();
        assert!(matches!(&err, CliError::Io(e) if e.kind() == ErrorKind::BrokenPipe), "{err:?}");
        assert_eq!(std::fs::read_to_string(&json).unwrap(), written);
        assert!(run(&["dse".to_owned(), "--workloads".to_owned(), "nope".to_owned()])
            .is_err_and(|e| matches!(e, CliError::Usage(_))));
    }

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A value each value flag accepts.
    fn value_for(flag: &str) -> &'static str {
        match flag {
            "--engine" => "vm",
            "--kind" => "report",
            "--models" => "small-spm",
            _ => "1",
        }
    }

    #[test]
    fn every_flag_a_command_does_not_read_is_a_usage_error() {
        let out = std::env::temp_dir().join("foray_cli_test_flag_table.out");
        let out_s = out.to_string_lossy().into_owned();
        let prog = write_temp("flag_table", PROG);
        for (cmd, name) in Cmd::NAMES {
            for flag in FLAGS {
                let mut argv: Vec<String> = name.split(' ').map(str::to_owned).collect();
                if cmd.takes_arg() {
                    argv.push(prog.clone());
                }
                if matches!(cmd, Cmd::Trace | Cmd::Record) && !flag.0.contains(&"-o") {
                    argv.extend(owned(&["-o", &out_s]));
                }
                argv.push(flag.0[0].to_owned());
                if let Value(_) = flag.2 {
                    argv.push(value_for(flag.0[0]).to_owned());
                }
                if flag.1.contains(&cmd) {
                    assert!(parse(&argv).is_ok(), "{argv:?}");
                    continue;
                }
                std::fs::remove_file(&out).ok();
                let err = if matches!(cmd, Cmd::Trace | Cmd::Record) {
                    let err = run(&argv).unwrap_err();
                    assert!(!out.exists(), "{argv:?} created its -o file");
                    err
                } else {
                    parse(&argv).unwrap_err()
                };
                let CliError::Usage(msg) = err else { panic!("{argv:?}: {err:?}") };
                assert_eq!(msg, format!("`{name}` does not take {}", flag.0[0]), "{argv:?}");
            }
        }
        // Flags that no command reads, a retired flag (spelt in two parts,
        // so the tree holds no live use of it), stray arguments, and scales
        // above the largest: fftc at scale 40 would abort on its allocation
        // and the corpus at scale 9 would run for minutes, so a usage error
        // here also shows that nothing was built.
        let retired = format!("--{}", "sample");
        for argv in [
            &["model", "--workload", "fftc", "--scale", "40"][..],
            &["dse", "--scale", "9"],
            &["model", "examples/figure4.mc", "--capacity", "5", "--from-loop", "3"],
            &["model", "x.mc", "--trace-format", "v1", "--format", "binary"],
            &["model", "x.mc", retired.as_str(), "every:8"],
            &["annotate", "x.mc", "--engine", "tree"],
            &["trace", "x.mc", "--format", "binary", "-o", &out_s],
            &["trace", "x.mc", "-o", &out_s, "--jobs", "3"],
            &["trace", "record", "x.mc", "-o", &out_s, "--format", "text"],
            &["serve", "--socket", "/tmp/f.sock", "extra"],
            &["client", "--socket", "/tmp/f.sock", "bogus"],
            &["client", "--socket", "/tmp/f.sock", "ping", "extra"],
            &["model", "x.mc", "y.mc"],
            &["model", "x.mc", "--nexec"],
            &["model", "x.mc", "--scale", "4294967296"],
        ] {
            std::fs::remove_file(&out).ok();
            assert!(matches!(run(&owned(argv)), Err(CliError::Usage(_))), "{argv:?}");
            assert!(!out.exists(), "{argv:?} created its -o file");
        }
        let err = parse(&owned(&["model", "x.mc", &retired, "every:8"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if *m == format!("unknown flag `{retired}`")));
    }

    /// The spellings of a text's `-x` and `--word` flags, in order.
    fn flag_tokens(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| {
                t.starts_with('-') && t.trim_start_matches('-').starts_with(char::is_alphabetic)
            })
            .collect()
    }

    #[test]
    fn usage_names_every_flag_and_no_other() {
        let named = flag_tokens(USAGE);
        for flag in FLAGS {
            assert!(named.contains(&flag.0[0]), "USAGE does not name {}", flag.0[0]);
        }
        for token in named {
            assert!(FLAGS.iter().any(|f| f.0.contains(&token)), "USAGE names unknown {token}");
        }
    }

    /// Checks that `argv` parses to `cmd` with the options `want`.
    fn check(argv: &[&str], cmd: Cmd, want: Opts) {
        let (got_cmd, got) = parse(&owned(argv)).unwrap_or_else(|e| panic!("{argv:?}: {e:?}"));
        assert_eq!((got_cmd, format!("{got:?}")), (cmd, format!("{want:?}")), "{argv:?}");
    }

    /// `case!(line, Cmd, field: value, ..)`: `line`, split at spaces,
    /// parses to `Cmd` with those fields set and every other option at its
    /// default.
    macro_rules! case {
        ($line:expr, $cmd:ident $(, $($field:ident).+ : $value:expr)*) => {{
            let mut want = Opts::default();
            $(want.$($field).+ = $value;)*
            check(&$line.split(' ').collect::<Vec<_>>(), Cmd::$cmd, want);
        }};
    }

    fn models(names: &[&str]) -> Vec<(String, EnergyModel)> {
        names.iter().map(|m| (m.to_string(), EnergyModel::preset(m).unwrap())).collect()
    }

    #[test]
    fn documented_command_lines_parse_to_their_values() {
        // Every command line in README, CI and the verify skill, with the
        // options it set before the flag table; the rest keep their
        // defaults.
        let s = |v: &str| Some(v.to_owned());
        let fig4 = || s("examples/figure4.mc");
        let six = FilterConfig { n_exec: 6, n_loc: 6 };
        let sock = || Some(ServeAddr::Unix("/tmp/forayd.sock".into()));
        let grid = || vec![256, 512, 1024, 2048, 4096];
        case!("model examples/figure4.mc --nexec 6 --nloc 6", Model, arg: fig4(), filter: six);
        case!("report examples/figure4.mc --nexec 6 --nloc 6", Report, arg: fig4(), filter: six);
        case!("annotate examples/figure4.mc", Annotate, arg: fig4());
        case!("trace examples/figure4.mc", Trace, arg: fig4());
        case!("trace examples/figure4.mc -o F", Trace, arg: fig4(), output: s("F"));
        case!("spm examples/figure4.mc --capacity 1024 --nexec 6 --nloc 6", Spm,
            arg: fig4(), filter: six, capacity: 1024);
        case!("trace record examples/figure4.mc -o fig4.ftrace", Record,
            arg: fig4(), output: s("fig4.ftrace"));
        case!("trace analyze fig4.ftrace --nexec 6 --nloc 6", Analyze,
            arg: s("fig4.ftrace"), filter: six);
        case!("trace record --workload fftc -o fftc.ftrace", Record,
            workload: s("fftc"), output: s("fftc.ftrace"));
        case!("trace record --workload fftc --trace-format v2 -o fftc.ftrace", Record,
            workload: s("fftc"), output: s("fftc.ftrace"));
        case!("trace record --workload fftc --trace-format v1 -o fftc-v1.ftrace", Record,
            workload: s("fftc"), output: s("fftc-v1.ftrace"), trace_format: FormatVersion::V1);
        case!("trace record --workload histoc --scale 2 --engine vm -o histoc-vm.ftrace", Record,
            workload: s("histoc"), scale: 2, output: s("histoc-vm.ftrace"));
        case!("trace record --workload histoc --scale 2 --engine tree -o histoc-tree.ftrace",
            Record, workload: s("histoc"), scale: 2, output: s("histoc-tree.ftrace"),
            engine: Engine::Tree);
        case!("trace analyze fftc.ftrace", Analyze, arg: s("fftc.ftrace"));
        case!("trace analyze fftc-cut.ftrace --from-loop 0", Analyze,
            arg: s("fftc-cut.ftrace"), from_loop: Some(0));
        case!("model --workload fftc", Model, workload: s("fftc"));
        case!("report --workload gsmc --scale 2", Report, workload: s("gsmc"), scale: 2);
        case!("model --workload fftc --scale 0", Model, workload: s("fftc"));
        case!("model --workload histoc --engine vm", Model, workload: s("histoc"));
        case!("model --workload histoc --engine tree", Model,
            workload: s("histoc"), engine: Engine::Tree);
        case!("dse --workloads all --capacities 256,512,1024,2048,4096 --jobs 4 \
               --json dse-pareto.json --check", Dse,
            space.capacities: grid(), jobs: 4, json: s("dse-pareto.json"), check: true);
        case!("dse --workloads all --capacities 256,512,1024,2048,4096 --models \
               small-spm,large-spm --jobs 4 --json pareto.json --check", Dse,
            space.capacities: grid(), space.models: models(&["small-spm", "large-spm"]),
            jobs: 4, json: s("pareto.json"), check: true);
        case!("dse --scale 2 --jobs 2 --json PATH --check", Dse,
            scale: 2, jobs: 2, json: s("PATH"), check: true);
        case!("serve --socket /tmp/forayd.sock --workers 2", Serve,
            addr: sock(), serve.workers: 2);
        case!("client --socket /tmp/forayd.sock ping", Ping, addr: sock());
        case!("client --socket /tmp/forayd.sock stats", Stats, addr: sock());
        case!("client --socket /tmp/forayd.sock shutdown", Shutdown, addr: sock());
        case!("client --socket /tmp/forayd.sock submit --workload fftc", Submit,
            addr: sock(), workload: s("fftc"));
        case!("client --socket /tmp/forayd.sock submit --workload lamec --scale 40", Submit,
            addr: sock(), workload: s("lamec"), scale: 40);
    }

    /// Asserts that each command line is a usage error.
    fn usage_error(argvs: &[&[&str]]) {
        for argv in argvs {
            assert!(matches!(run(&owned(argv)), Err(CliError::Usage(_))), "{argv:?}");
        }
    }

    #[test]
    fn options_parse() {
        let path = write_temp("opts", PROG);
        let argv = ["report", &path, "--nexec", "5", "--nloc", "5", "--inputs", "1,2,3"];
        let want = Opts {
            arg: Some(path.clone()),
            filter: FilterConfig { n_exec: 5, n_loc: 5 },
            inputs: Some(vec![1, 2, 3]),
            ..Opts::default()
        };
        check(&argv, Cmd::Report, want);
        assert!(run(&owned(&argv)).is_ok());
    }

    #[test]
    fn dse_options_parse_with_defaults_and_overrides() {
        let (_, o) = parse(&owned(&["dse"])).unwrap();
        assert_eq!(o.workloads, vec!["all"]);
        assert_eq!(o.space.capacities, vec![256, 512, 1024, 2048, 4096, 8192]);
        assert_eq!(o.space.models, models(foray_spm::energy::PRESET_NAMES));
        assert_eq!((o.jobs, o.check), (0, false));
        case!("dse --workloads fftc,adpcmc --capacities 512,256 --models small-spm --jobs 3 \
               --check", Dse,
            workloads: vec!["fftc".into(), "adpcmc".into()], space.capacities: vec![512, 256],
            space.models: models(&["small-spm"]), jobs: 3, check: true);
        // Bad or empty lists are usage errors, and dse takes no file argument.
        usage_error(&[
            &["dse", "--capacities", "abc"],
            &["dse", "--capacities", ","],
            &["dse", "x.mc"],
        ]);
    }

    #[test]
    fn serve_options_parse() {
        case!("serve --socket /tmp/f.sock --workers 3 --queue 9 --cache 7 --spill /tmp/spill",
            Serve, addr: Some(ServeAddr::Unix("/tmp/f.sock".into())), serve.workers: 3,
            serve.queue_capacity: 9, serve.cache_entries: 7, serve.spill_dir: Some("/tmp/spill".into()));
        case!("serve --tcp 127.0.0.1:0", Serve, addr: Some(ServeAddr::Tcp("127.0.0.1:0".into())));
        let (_, o) = parse(&owned(&["serve", "--tcp", "127.0.0.1:0"])).unwrap();
        let ServeConfig { workers, queue_capacity, cache_entries, .. } = o.serve;
        assert_eq!((workers, queue_capacity, cache_entries), (1, 64, 128), "defaults");
        // The address is mandatory and exclusive, and a value flag needs its
        // value: each fails before the daemon starts.
        usage_error(&[
            &["serve"],
            &["serve", "--socket", "/tmp/a", "--tcp", "h:1"],
            &["serve", "--socket", "/tmp/a", "--workers"],
        ]);
    }

    #[test]
    fn client_options_parse_and_build_specs() {
        let s = |v: &str| Some(v.to_owned());
        let sock = || Some(ServeAddr::Unix("/tmp/f.sock".into()));
        let submit = "client --socket /tmp/f.sock submit --workload fftc --scale 2 --kind report \
                      --engine tree --priority 5 --no-wait";
        case!(submit, Submit,
            addr: sock(), workload: s("fftc"), scale: 2, kind: JobKind::Report,
            engine: Engine::Tree, priority: 5, no_wait: true);
        case!("client --socket /tmp/f.sock wait j3 --timeout-ms 250", Wait,
            addr: sock(), arg: s("j3"), timeout_ms: Some(250));
        // The spec carries the options, and needs exactly one input.
        let spec = |argv: &[&str]| job_spec(&parse(&owned(argv)).unwrap().1);
        let s = spec(&submit.split(' ').collect::<Vec<_>>()).unwrap();
        assert_eq!(s.input, foray_serve::JobInput::Workload("fftc".to_owned()));
        assert_eq!((s.kind, s.scale, s.engine, s.priority), (JobKind::Report, 2, Engine::Tree, 5));
        for argv in [
            &["client", "--tcp", "h:1", "submit", "--workload", "fftc", "--trace", "/t.ftrace"][..],
            &["client", "--tcp", "h:1", "submit"],
        ] {
            assert!(matches!(spec(argv), Err(CliError::Usage(_))), "{argv:?}");
        }
        // A missing action and an out-of-range priority are usage errors.
        usage_error(&[
            &["client", "--socket", "/tmp/f.sock"],
            &["client", "--socket", "/tmp/f.sock", "submit", "--priority", "10"],
        ]);
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
