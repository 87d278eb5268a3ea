//! The command line, record and gate that the four gated bench bins
//! (`sim_exec`, `analyzer_hot`, `serve_rtt` and `trace_codec`) share, so
//! that each bin keeps only its measurement loop and its text table.
//!
//! Every bin takes its workload flag (`--workload NAME`, or
//! `--workloads all|a,b` for `trace_codec`), `--scale N`, `--iters N`,
//! `--quick` (the bin's own short best-of count), `--json PATH` and its
//! `--check-*` gates. `--json PATH` appends one line to PATH, always in
//! one record shape:
//!
//! ```text
//! {"bench":"sim_exec","host":{"cpus":2,"commit":"80bc795"},
//!  "params":{"workload":"fftc","scale":2,"iters":20},"rows":[...]}
//! ```
//!
//! `commit` is `git rev-parse --short=12 HEAD` in the working directory
//! (`unknown` when that fails) and `cpus` is the available parallelism
//! (0 when unknown). Rows hold labels and integers only: nanoseconds,
//! bytes and record counts. No ratio is stored; the bin's table prints
//! each one and its gate computes it from the same values, so each number
//! has one source. The committed history of runs is `BENCH_history.jsonl`
//! at the repository root.

use foray_serve::json::{obj, Json};
use foray_workloads::{Params, Workload};
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// A bench bin's command line: its name, its defaults and its gates.
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
    /// The `--check-*` flags; each takes a bound.
    pub checks: &'static [&'static str],
}

impl Spec {
    fn usage(&self) -> String {
        let value = if self.workload_flag == "--workloads" { "all|a,b" } else { "NAME" };
        let checks: String = self.checks.iter().map(|c| format!(" [{c} X]")).collect();
        format!(
            "usage: {} [{} {value}] [--scale N] [--iters N] [--quick] [--json PATH]{checks}",
            self.bench, self.workload_flag
        )
    }
}

/// Which side of a `--check-*` bound passes.
#[derive(Debug, Clone, Copy)]
pub enum Pass {
    /// The measured ratio must be at least the bound.
    AtLeast,
    /// The measured ratio must be at most the bound.
    AtMost,
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
    /// The bound given to each of `spec.checks`, in order.
    checks: Vec<Option<f64>>,
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
            checks: vec![None; spec.checks.len()],
        };
        let mut it = raw.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => args.iters = spec.quick_iters,
                "--scale" => args.scale = number(&flag, value()?)?,
                "--iters" => args.iters = number(&flag, value()?)?,
                "--json" => args.json = Some(value()?),
                f if f == spec.workload_flag => args.workload = value()?,
                f => {
                    let i = spec
                        .checks
                        .iter()
                        .position(|c| *c == f)
                        .ok_or_else(|| format!("unknown argument `{f}`"))?;
                    args.checks[i] = Some(number(f, value()?)?);
                }
            }
        }
        if args.iters == 0 {
            return Err("--iters must be at least 1".to_owned());
        }
        Ok(args)
    }

    /// The workload `name` at `--scale`. An unknown name prints an error
    /// and exits 1.
    pub fn resolve(&self, name: &str) -> Workload {
        foray_workloads::by_name(name, Params { scale: self.scale }).unwrap_or_else(|| {
            eprintln!("error: unknown workload `{name}`");
            std::process::exit(1)
        })
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

    /// Applies the gate `flag` if it was given: prints the pass line, or
    /// prints FAIL and exits 3. `what` names the ratio `got`.
    ///
    /// # Panics
    ///
    /// Panics if `flag` is not one of the spec's `checks`.
    pub fn gate(&self, flag: &str, what: &str, got: f64, pass: Pass) {
        let i = self.spec.checks.iter().position(|c| *c == flag).expect("gate is in the spec");
        let Some(bound) = self.checks[i] else { return };
        let (failed, side, beyond) = match pass {
            Pass::AtLeast => (got < bound, ">=", "below"),
            Pass::AtMost => (got > bound, "<=", "above"),
        };
        if failed {
            eprintln!("FAIL: {what} {got:.2}x is {beyond} the {bound:.2}x gate");
            std::process::exit(3);
        }
        println!("check passed: {what} {got:.2}x {side} {bound:.2}x");
    }
}

/// The host's CPU count as the record gives it: the available
/// parallelism, or 0 when it is unknown.
pub fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
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
        checks: &["--check-ratio", "--check-decode"],
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(&SPEC, argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn flags_parse_over_the_spec_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.workload.as_str(), args.scale, args.iters), ("all", 2, 12));
        assert_eq!((args.json, args.checks), (None, vec![None, None]));
        let args = parse(&["--workloads", "fftc,gsmc", "--iters", "7", "--quick"]).unwrap();
        assert_eq!((args.workload.as_str(), args.iters), ("fftc,gsmc", 5));
        let args = parse(&["--quick", "--iters", "7", "--check-decode", "0.6"]).unwrap();
        assert_eq!((args.iters, args.checks), (7, vec![None, Some(0.6)]));
        for (argv, want) in [
            (&["--workload", "fftc"][..], "unknown argument `--workload`"),
            (&["--scale"], "--scale needs a value"),
            (&["--scale", "x"], "bad --scale"),
            (&["--check-ratio", "x"], "bad --check-ratio"),
            (&["--iters", "0"], "--iters must be at least 1"),
        ] {
            assert_eq!(parse(argv).err().as_deref(), Some(want), "{argv:?}");
        }
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
