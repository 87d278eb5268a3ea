//! The command line, record and gate that the four gated bench bins
//! (`sim_exec`, `analyzer_hot`, `serve_rtt` and `trace_codec`) share, so
//! that each bin keeps only its measurement loop and its text table.
//!
//! Every bin takes its workload flag (`--workload NAME`, or
//! `--workloads all|a,b` for `trace_codec`), `--scale N`, `--iters N`,
//! `--quick` (the bin's own short best-of count), `--json PATH` and
//! `--check`, which applies the bin's gates: fixed bounds, named
//! constants in the bin, that hold for its default parameters. `--json
//! PATH` appends one line to PATH, always in one record shape:
//!
//! ```text
//! {"bench":"sim_exec","host":{"cpus":2,"commit":"80bc795"},
//!  "params":{"workload":"fftc","scale":2,"iters":20},"rows":[...]}
//! ```
//!
//! `commit` is `git rev-parse --short=12 HEAD` in the working directory,
//! with `-dirty` appended when `git status --porcelain
//! --untracked-files=no` lists a change (`unknown` when there is no HEAD),
//! and `cpus` is the available parallelism
//! (0 when unknown). Rows hold labels and integers only: nanoseconds,
//! bytes and record counts. No ratio is stored; the bin's table prints
//! each one and its gate computes it from the same values, so each number
//! has one source. The committed history of runs is `BENCH_history.jsonl`
//! at the repository root.

use foray_serve::json::{obj, Json};
use foray_workloads::Workload;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// A bench bin's command line: its name and its defaults.
pub struct Spec {
    /// The bin's name, recorded as `bench`.
    pub bench: &'static str,
    /// `--workload` (one name) or `--workloads` (`all` or a comma list).
    pub workload_flag: &'static str,
    /// The workload flag's default value.
    pub workload: &'static str,
    /// Default `--scale`.
    pub scale: u32,
    /// Default `--iters`.
    pub iters: u32,
    /// `--iters` under `--quick`.
    pub quick_iters: u32,
}

impl Spec {
    fn usage(&self) -> String {
        let value = if self.workload_flag == "--workloads" { "all|a,b" } else { "NAME" };
        format!(
            "usage: {} [{} {value}] [--scale N] [--iters N] [--quick] [--json PATH] [--check]",
            self.bench, self.workload_flag
        )
    }
}

/// A gate's bound, and which side of it passes.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The measured ratio must be at least this.
    AtLeast(f64),
    /// The measured ratio must be at most this.
    AtMost(f64),
}

/// A bench bin's parsed command line.
pub struct Args {
    spec: &'static Spec,
    /// The workload flag's value.
    pub workload: String,
    /// `--scale`.
    pub scale: u32,
    /// Best-of rounds: `--iters`, or the bin's `--quick` count.
    pub iters: u32,
    json: Option<String>,
    /// `--check`: apply the bin's gates.
    check: bool,
}

fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

impl Args {
    /// Parses the process's arguments. On a bad one it prints the error
    /// and the usage line and exits 1.
    pub fn parse(spec: &'static Spec) -> Args {
        Args::parse_from(spec, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", spec.usage());
            std::process::exit(1)
        })
    }

    fn parse_from(
        spec: &'static Spec,
        raw: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args {
            spec,
            workload: spec.workload.to_owned(),
            scale: spec.scale,
            iters: spec.iters,
            json: None,
            check: false,
        };
        let mut it = raw.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => args.iters = spec.quick_iters,
                "--check" => args.check = true,
                "--scale" => args.scale = number(&flag, value()?)?,
                "--iters" => args.iters = number(&flag, value()?)?,
                "--json" => args.json = Some(value()?),
                f if f == spec.workload_flag => args.workload = value()?,
                f => return Err(format!("unknown argument `{f}`")),
            }
        }
        if args.iters == 0 {
            return Err("--iters must be at least 1".to_owned());
        }
        Ok(args)
    }

    /// The workload `name` at `--scale`. An unknown name or a scale above
    /// [`foray_workloads::MAX_SCALE`] prints an error and exits 1.
    pub fn resolve(&self, name: &str) -> Workload {
        or_exit(self.build(Some(name))).remove(0)
    }

    /// Every workload at `--scale`, for `--workloads all`; a scale above
    /// [`foray_workloads::MAX_SCALE`] prints an error and exits 1.
    pub fn corpus(&self) -> Vec<Workload> {
        or_exit(self.build(None))
    }

    /// [`foray_workloads::build`] at `--scale`.
    fn build(&self, name: Option<&str>) -> Result<Vec<Workload>, String> {
        foray_workloads::build(name, self.scale)
    }

    /// This run's record: the bench, the host, the parameters and `rows`.
    fn record(&self, rows: Vec<Json>) -> Json {
        let host = obj([("cpus", int(cpus())), ("commit", Json::Str(commit()))]);
        // The workload flag's name is the key: `workload` or `workloads`.
        let params = obj([
            (&self.spec.workload_flag[2..], Json::Str(self.workload.clone())),
            ("scale", int(self.scale.into())),
            ("iters", int(self.iters.into())),
        ]);
        obj([
            ("bench", Json::Str(self.spec.bench.to_owned())),
            ("host", host),
            ("params", params),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// With `--json PATH`, appends this run's record to PATH as one line.
    /// If that fails it prints the error and exits 1.
    pub fn report(&self, rows: Vec<Json>) {
        let Some(path) = &self.json else { return };
        if let Err(e) = append(Path::new(path), &self.record(rows)) {
            eprintln!("error: cannot append to {path}: {e}");
            std::process::exit(1);
        }
        println!("appended one {} record to {path}", self.spec.bench);
    }

    /// With `--check`, applies each gate `(what, got, bound)`, where
    /// `what` names the ratio `got`: prints its pass or FAIL line, then
    /// exits 3 if any gate failed.
    pub fn check(&self, gates: &[(&str, f64, Bound)]) {
        if !self.check {
            return;
        }
        let mut failed = false;
        for &(what, got, bound) in gates {
            let (pass, side, beyond, bound) = match bound {
                Bound::AtLeast(b) => (got >= b, ">=", "below", b),
                Bound::AtMost(b) => (got <= b, "<=", "above", b),
            };
            if pass {
                println!("check passed: {what} {got:.2}x {side} {bound:.2}x");
            } else {
                eprintln!("FAIL: {what} {got:.2}x is {beyond} the {bound:.2}x gate");
                failed = true;
            }
        }
        if failed {
            std::process::exit(3);
        }
    }
}

/// The built workloads, or on an error the error printed and exit 1.
fn or_exit(built: Result<Vec<Workload>, String>) -> Vec<Workload> {
    built.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// The host's CPU count as the record gives it: the available
/// parallelism, or 0 when it is unknown.
pub fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// The stdout of a successful `git` run in the working directory.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
}

fn commit() -> String {
    let head = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_default();
    // Without `--no-optional-locks`, `status` refreshes `.git/index` and
    // takes its lock, which a concurrent git command would then fail on.
    let status = git(&["--no-optional-locks", "status", "--porcelain", "--untracked-files=no"])
        .unwrap_or_default();
    commit_label(head.trim(), &status)
}

/// The record's `commit`: HEAD, with `-dirty` when `git status
/// --porcelain` lists a changed tracked file, since the measured source
/// then differs from HEAD; `unknown` when there is no HEAD.
fn commit_label(head: &str, porcelain: &str) -> String {
    match (head.is_empty(), porcelain.trim().is_empty()) {
        (true, _) => "unknown".to_owned(),
        (false, true) => head.to_owned(),
        (false, false) => format!("{head}-dirty"),
    }
}

/// A row value in integer nanoseconds.
pub fn ns(d: Duration) -> Json {
    Json::Int(i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
}

/// An integer value: a count of records or bytes, a scale, an iteration
/// count.
pub fn int(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Appends `record` to `path` as one line, creating the file if needed.
fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut line = record.render();
    line.push('\n');
    std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: Spec = Spec {
        bench: "trace_codec",
        workload_flag: "--workloads",
        workload: "all",
        scale: 2,
        iters: 12,
        quick_iters: 5,
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(&SPEC, argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn flags_parse_over_the_spec_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.workload.as_str(), args.scale, args.iters), ("all", 2, 12));
        assert_eq!((args.json, args.check), (None, false));
        let args = parse(&["--workloads", "fftc,gsmc", "--iters", "7", "--quick"]).unwrap();
        assert_eq!((args.workload.as_str(), args.iters), ("fftc,gsmc", 5));
        let args = parse(&["--quick", "--iters", "7", "--check"]).unwrap();
        assert_eq!((args.iters, args.check), (7, true));
        for (argv, want) in [
            (&["--workload", "fftc"][..], "unknown argument `--workload`"),
            (&["--scale"], "--scale needs a value"),
            (&["--scale", "x"], "bad --scale"),
            (&["--check-ratio", "3.0"], "unknown argument `--check-ratio`"),
            (&["--iters", "0"], "--iters must be at least 1"),
        ] {
            assert_eq!(parse(argv).err().as_deref(), Some(want), "{argv:?}");
        }
    }

    #[test]
    fn a_scale_above_the_largest_is_refused_before_building() {
        let args = parse(&["--scale", "9"]).unwrap();
        let too_large = "scale 9 is above the largest workload scale, 8";
        assert_eq!(args.build(None).unwrap_err(), too_large);
        assert_eq!(args.build(Some("fftc")).unwrap_err(), too_large);
        let args = parse(&["--scale", "1"]).unwrap();
        assert_eq!(args.build(Some("adpcmc")).unwrap()[0].name, "adpcmc");
        assert_eq!(args.build(Some("nope")).unwrap_err(), "unknown workload `nope`");
    }

    #[test]
    fn each_committed_history_line_is_one_record() {
        let history = include_str!("../../../BENCH_history.jsonl");
        assert!(history.lines().count() >= 4, "the four folded snapshots open the history");
        for line in history.lines() {
            let record = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let bench = record.get("bench").and_then(Json::as_str);
            assert!(
                matches!(bench, Some("sim_exec" | "analyzer_hot" | "serve_rtt" | "trace_codec")),
                "{line}"
            );
            let host = record.get("host");
            assert!(host.and_then(|h| h.get("cpus")).and_then(Json::as_u64).is_some(), "{line}");
            let commit = host.and_then(|h| h.get("commit")).and_then(Json::as_str);
            assert!(commit.is_some_and(|c| !c.is_empty()), "{line}");
            assert!(matches!(record.get("params"), Some(Json::Obj(_))), "{line}");
            assert!(matches!(record.get("rows"), Some(Json::Arr(r)) if !r.is_empty()), "{line}");
        }
    }

    #[test]
    fn a_changed_tracked_file_marks_the_commit_dirty() {
        assert_eq!(commit_label("9d00eea2e71f", ""), "9d00eea2e71f");
        assert_eq!(commit_label("9d00eea2e71f", "\n"), "9d00eea2e71f");
        let porcelain = " M crates/trace/src/file.rs\nA  new.rs\n";
        assert_eq!(commit_label("9d00eea2e71f", porcelain), "9d00eea2e71f-dirty");
        assert_eq!(commit_label("", porcelain), "unknown");
    }

    #[test]
    fn a_record_appends_as_one_line() {
        let args = parse(&["--workloads", "fftc"]).unwrap();
        let record = args.record(vec![obj([
            ("workload", Json::Str("fftc".to_owned())),
            ("v1_decode_ns", ns(Duration::from_micros(116))),
        ])]);
        let path = std::env::temp_dir().join(format!("foray-bench-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        append(&path, &record).unwrap();
        append(&path, &record).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, [record.render(), record.render()]);
        assert_eq!(Json::parse(lines[1]).unwrap(), record);
        assert!(record.render().contains("\"params\":{\"workloads\":\"fftc\",\"scale\":2,"));
    }
}
