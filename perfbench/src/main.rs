//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Three single-process workloads, each a closed loop of operations from
//! one thread at corpus scale 2:
//!
//! * `corpus` — source → FORAY model through [`foray::ForayGen::run_source`]
//!   (the `foray-gen model` path), one corpus program per operation;
//! * `trace_replay` — `.ftrace` → model through
//!   [`foray::analyze_trace_files`], extract and emit (the
//!   `foray-gen trace analyze` path), one corpus trace per operation;
//! * `serve_mix` — forayd request → reply over a Unix socket, one
//!   connection per request (the `foray-gen client` path).
//!
//! A run replays whole rounds of a seeded schedule; the number of rounds
//! is fixed by `--seconds` (about that long on a 2-core host), so every
//! run of a seed does exactly the same work. Expected payloads come first
//! from the tree-walking oracle in a child process, outside every timed
//! region and outside this process's memory peak; every operation's bytes
//! are compared with them after its timer stops.
//!
//! `--trace 0` reports the end-to-end metrics, with every time rescaled to
//! a reference host's speed by the gauge (see `gauge`). `--trace 1` alternates
//! untraced and traced rounds: a traced operation is recomposed from the
//! layer calls and timed span by span, and the run reports per-layer
//! metrics plus the tracing overhead. The last line of standard output is
//! always the result object; the line before it carries host metadata and
//! the sample count behind every percentile.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|trace_replay|serve_mix --seed N --seconds S --trace 0|1
//! ```

mod corpus;
mod gauge;
mod replay;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;

use gauge::Gauge;
use spans::Tracer;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Every workload runs the corpus at this scale.
pub const SCALE: u32 = 2;

/// Where runs keep their scratch files and span dumps, relative to the
/// working directory (the checkout root when run as documented).
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload corpus|trace_replay|serve_mix --seed N \
                     --seconds S [--trace 0|1]\n       perfbench --digests";

/// Committed digests of the corpus's expected models; a change to the
/// analyzer's output fails the check even though both engines share it.
const EXPECTED_MODELS: &str = include_str!("../expected_models.txt");

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Corpus,
    TraceReplay,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Corpus, Workload::TraceReplay, Workload::ServeMix];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::TraceReplay => "trace_replay",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Seconds one untraced round takes on the reference host (2 cores),
    /// gauge samples included; `--seconds` is turned into a fixed round
    /// count with it.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Corpus => 0.66,
            Workload::TraceReplay => 0.22,
            Workload::ServeMix => 0.74,
        }
    }

    fn oracle(self, ctx: &Ctx) -> Result<Vec<Expected>, String> {
        match self {
            Workload::Corpus | Workload::TraceReplay => corpus::oracle(),
            Workload::ServeMix => serve::oracle(ctx),
        }
    }

    fn run(self, ctx: &Ctx, expected: &[Expected]) -> Result<Run, String> {
        match self {
            Workload::Corpus => corpus::run(ctx, expected),
            Workload::TraceReplay => replay::run(ctx, expected),
            Workload::ServeMix => serve::run(ctx, expected),
        }
    }
}

/// What one run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub rounds: usize,
    pub traced: bool,
    /// Per-run scratch directory (traces, the daemon socket).
    pub tmp: PathBuf,
}

impl Ctx {
    /// With `--trace 1`, odd rounds are traced and even rounds are not.
    pub fn round_traced(&self, round: usize) -> bool {
        self.traced && round % 2 == 1
    }
}

/// The oracle's answer for one distinct operation.
pub struct Expected {
    /// Trace records (accesses plus checkpoints) behind the payload.
    pub records: u64,
    /// Set when the payload is the default-filter model of this corpus
    /// program, which has a committed digest.
    pub model_of: Option<String>,
    pub payload: String,
    /// Cleared when the payload disagrees with its committed digest, so
    /// every operation that expects it fails.
    pub trusted: bool,
}

impl Expected {
    pub fn matches(&self, payload: &str) -> bool {
        self.trusted && self.payload == payload
    }
}

/// One timed operation.
pub struct OpSample {
    /// Wall time.
    pub ms: f64,
    /// The gauge sample taken just before the operation.
    pub gauge: usize,
    pub traced: bool,
    /// Trace records the operation turned into a model (0 when it failed
    /// or was served from a cache).
    pub records: u64,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Run {
    /// Wall time of each set-up repetition, with the gauge sample taken
    /// just before it.
    pub setup_s: Vec<(f64, usize)>,
    pub ops: Vec<OpSample>,
    pub gauge: Gauge,
    pub failed: u64,
    /// Per-layer values the span tree cannot give (counts, ratios, medians
    /// over a subset); they override span-derived values of the same name.
    pub layers: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// Per-round mix of operation classes, identical for every seed.
    pub mix: String,
    /// Failed invariants and the first output mismatches.
    pub problems: Vec<String>,
}

impl Run {
    /// Records an operation that emits a corpus program's model, checked
    /// against the oracle's bytes (its timer has stopped).
    pub fn push_model(
        &mut self,
        program: &str,
        mut op: OpSample,
        out: Result<String, String>,
        expected: &Expected,
    ) {
        op.records = match out {
            Ok(code) if expected.matches(&code) => expected.records,
            Ok(_) => self.fail(format!("{program}: model bytes differ from the oracle's")),
            Err(e) => self.fail(format!("{program}: {e}")),
        };
        self.ops.push(op);
    }

    /// Counts a failed operation, keeping the first few reasons; it turned
    /// no records into a model.
    pub fn fail(&mut self, why: String) -> u64 {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
        0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Internal: compute the expected payloads into this directory and
    /// print them (the oracle child process).
    oracle_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut oracle_dir) = (None, None, false, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed".to_owned())?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "bad --seconds".to_owned())?);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--oracle" => oracle_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        traced,
        oracle_dir,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--digests"] {
        return match corpus::oracle() {
            Ok(expected) => {
                print!("{}", digest_table(&expected));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rounds = (args.seconds as f64 / args.workload.nominal_round_s()).round().max(2.0) as usize;
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        rounds,
        traced: args.traced,
        tmp: PathBuf::new(),
    };
    if let Some(dir) = &args.oracle_dir {
        ctx.tmp = dir.clone();
        return match oracle_main(&ctx) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench oracle: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let tmp = match TempDir::create(args.workload) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    ctx.tmp = tmp.0.clone();
    let outcome = measure(&ctx);
    drop(tmp);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints its result; `Ok(false)` when an operation
/// failed or an invariant broke.
fn measure(ctx: &Ctx) -> Result<bool, String> {
    let cpu_start = cpu_jiffies();
    let mut expected = spawn_oracle(ctx)?;
    let committed = committed_digests()?;
    let mut problems = Vec::new();
    for e in &mut expected {
        if let Some(name) = &e.model_of {
            let digest = payload_digest(&e.payload);
            if committed.get(name.as_str()) != Some(&digest) {
                e.trusted = false;
                problems.push(format!(
                    "the oracle's {name} model (digest {digest}) differs from expected_models.txt"
                ));
            }
        }
    }
    let mut run = ctx.workload.run(ctx, &expected)?;
    run.problems.splice(0..0, problems);
    let rss = peak_rss_mb();
    let steal_share = match (cpu_start, cpu_jiffies()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            (steal1 - steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    };
    if ctx.traced {
        let path = Path::new(WORK_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            ctx.workload.name(),
            ctx.seed
        ));
        std::fs::write(&path, run.tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report::print(ctx, &run, rss, steal_share))
}

/// The oracle child: computes and prints every distinct operation's
/// expected payload.
fn oracle_main(ctx: &Ctx) -> Result<(), String> {
    let expected = ctx.workload.oracle(ctx)?;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for e in &expected {
        let tag = e.model_of.as_deref().unwrap_or("-");
        writeln!(out, "{} {} {}", e.records, tag, e.payload.len())
            .and_then(|()| out.write_all(e.payload.as_bytes()))
            .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Runs the oracle in a child process (its memory never counts towards
/// this process's peak) and reads its answers.
fn spawn_oracle(ctx: &Ctx) -> Result<Vec<Expected>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = ctx.tmp.join("oracle");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--workload", ctx.workload.name()])
        .args(["--seed", &ctx.seed.to_string(), "--seconds", &ctx.seconds.to_string()])
        .arg("--oracle")
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the oracle: {e}"))?;
    let out = child.wait_with_output().map_err(|e| format!("oracle: {e}"))?;
    if !out.status.success() {
        return Err(format!("the oracle failed ({})", out.status));
    }
    let mut reader = &out.stdout[..];
    let mut expected = Vec::new();
    let mut header = String::new();
    while reader.read_line(&mut header).map_err(|e| e.to_string())? > 0 {
        let fields: Vec<&str> = header.split_whitespace().collect();
        let [records, tag, len] = fields[..] else {
            return Err(format!("bad oracle header `{}`", header.trim_end()));
        };
        let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad oracle number `{s}`"));
        let mut payload = vec![0u8; parse(len)? as usize];
        reader.read_exact(&mut payload).map_err(|e| format!("short oracle payload: {e}"))?;
        expected.push(Expected {
            records: parse(records)?,
            model_of: (tag != "-").then(|| tag.to_owned()),
            payload: String::from_utf8(payload).map_err(|e| e.to_string())?,
            trusted: true,
        });
        header.clear();
    }
    Ok(expected)
}

/// The 16-hex-digit stable digest the committed table records.
pub fn payload_digest(payload: &str) -> String {
    let mut h = foray::StableHasher::new();
    h.update(payload.as_bytes());
    h.finish_hex()
}

fn committed_digests() -> Result<std::collections::HashMap<&'static str, String>, String> {
    let mut map = std::collections::HashMap::new();
    for line in EXPECTED_MODELS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, digest] = fields[..] else {
            return Err(format!("bad expected_models.txt line `{line}`"));
        };
        map.insert(name, digest.to_owned());
    }
    Ok(map)
}

/// The `expected_models.txt` body for the current oracle output.
fn digest_table(expected: &[Expected]) -> String {
    let mut out = format!(
        "# FORAY models of the corpus at scale {SCALE} (Nexec=20, Nloc=10): StableHasher\n\
         # digests of the emitted C text. Regenerate with `perfbench --digests`.\n"
    );
    for e in expected {
        let name = e.model_of.as_deref().expect("corpus oracle tags every model");
        out.push_str(&format!("{name} {}\n", payload_digest(&e.payload)));
    }
    out
}

/// The machine's (steal, total) CPU time so far, in clock ticks, from the
/// aggregate line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-run scratch directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create(workload: Workload) -> std::io::Result<TempDir> {
        let dir = Path::new(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = args("--workload serve_mix --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.traced), (Workload::ServeMix, 3, 5, true));
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload corpus --seed 1 --seconds 0").is_err());
        assert!(args("--workload corpus --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload corpus --seconds 1").is_err());
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json: String =
            include_str!("../../BENCHMARK.json").split_whitespace().collect::<Vec<_>>().concat();
        let catalogue = report::END_TO_END.iter().chain(report::PER_LAYER.iter());
        for (name, unit) in catalogue {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
        }
        let listed = json.matches("{\"name\":").count();
        let catalogued = Workload::ALL.len() + report::END_TO_END.len() + report::PER_LAYER.len();
        assert_eq!(listed, catalogued);
    }

    #[test]
    fn committed_digests_cover_the_corpus() {
        let committed = committed_digests().unwrap();
        for w in foray_workloads::all(foray_workloads::Params { scale: SCALE }) {
            assert!(committed.contains_key(w.name), "{} has no committed digest", w.name);
        }
    }
}
