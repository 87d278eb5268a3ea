//! `trace_replay`: `.ftrace` → model through `foray::analyze_trace_files`,
//! then `ForayModel::extract` and `codegen::emit` — the path
//! `foray-gen trace analyze` runs, one corpus program per operation.
//!
//! Set-up records the seven corpus programs as v2 `.ftrace` files with the
//! checkpoint index (`TraceWriter` as the VM's sink), so the operations
//! skip the frontend, the VM and `TraceStats`: an operation is the
//! analyzer plus decode. The rounds are the corpus workload's: each a
//! seeded permutation of [`corpus::ROUND`]. The models must equal the
//! corpus models, so the corpus oracle and its committed digests check
//! them.

use crate::corpus;
use crate::spans::{SpanId, Tracer};
use crate::{stats, Ctx, Expected, OpSample, Run};
use foray::{codegen, AnalyzerConfig, FilterConfig, ForayModel};
use foray_workloads::Workload;
use minic_sim::{Engine, SimConfig};
use minic_trace::{CountingSink, RecordSource, TraceFile, TraceWriter};
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions (recording the seven traces); `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 15;

pub fn trace_path(dir: &Path, name: &str) -> String {
    dir.join(format!("{name}.ftrace")).to_string_lossy().into_owned()
}

/// Records `w` to `path` the way `foray-gen trace record` does: the
/// engine streams into a v2 `TraceWriter` (checkpoint index on).
pub fn record(w: &Workload, path: &Path, engine: Engine) -> Result<(), String> {
    let prog = minic::frontend(&w.source).map_err(|e| e.to_string())?;
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
    let config = SimConfig { engine, ..SimConfig::default() };
    minic_sim::run_with_sink(&prog, &config, &w.inputs, &mut writer).map_err(|e| e.to_string())?;
    match writer.io_error() {
        Some(e) => Err(format!("{}: {e}", path.display())),
        None => Ok(()),
    }
}

/// Encodes `w`'s recorded trace with a v2 `TraceWriter` (index on) into
/// memory: the encode share the fused recording run hides.
fn encode_probe(w: &Workload) -> Result<f64, String> {
    let prog = minic::frontend(&w.source).map_err(|e| e.to_string())?;
    let (_, records) =
        minic_sim::run(&prog, &SimConfig::default(), &w.inputs).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut writer = TraceWriter::new(Vec::with_capacity(1 << 20));
    records.as_slice().stream_into(&mut writer).expect("a slice never fails");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(writer.into_inner());
    Ok(ms)
}

/// One untraced operation: what `foray-gen trace analyze FILE` prints.
fn replay(path: &str) -> Result<String, String> {
    let analysis = foray::analyze_trace_files(&[path], 1, &AnalyzerConfig::default())
        .into_iter()
        .next()
        .expect("one path in, one result out")
        .map_err(|e| e.to_string())?;
    Ok(codegen::emit(&ForayModel::extract(&analysis, &FilterConfig::default())))
}

pub fn run(ctx: &Ctx, expected: &[Expected]) -> Result<Run, String> {
    let programs = corpus::programs();
    let paths: Vec<String> = programs.iter().map(|w| trace_path(&ctx.tmp, w.name)).collect();
    let mut run = Run { mix: corpus::mix(), ..Run::default() };

    for _ in 0..SETUP_REPEATS {
        let gauge = run.gauge.sample();
        let start = Instant::now();
        for (w, path) in programs.iter().zip(&paths) {
            record(w, Path::new(path), Engine::Vm)?;
        }
        run.setup_s.push((start.elapsed().as_secs_f64(), gauge));
    }
    let mut bytes = 0;
    for ((w, path), exp) in programs.iter().zip(&paths).zip(expected) {
        let file = TraceFile::open(path).map_err(|e| format!("{path}: {e}"))?;
        if file.record_count() != exp.records {
            run.problems.push(format!(
                "{}: the trace holds {} records, the oracle counted {}",
                w.name,
                file.record_count(),
                exp.records
            ));
        }
        bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    }

    let mut analyzer_ms = Vec::new();
    for (round, order) in corpus::schedule(ctx.seed, ctx.rounds).into_iter().enumerate() {
        let traced = ctx.round_traced(round);
        for p in order {
            let (name, path) = (programs[p].name, &paths[p]);
            let op = run.ops.len() as u64;
            let gauge = run.gauge.sample();
            let (ms, out) = if traced {
                traced_op(&mut run.tracer, op, name, path, &mut analyzer_ms)
            } else {
                let start = Instant::now();
                let out = replay(path);
                (start.elapsed().as_secs_f64() * 1e3, out)
            };
            run.push_model(name, OpSample { ms, gauge, traced, records: 0 }, out, &expected[p]);
        }
    }
    if ctx.traced {
        let mut encode_ms = Vec::new();
        for w in &programs {
            encode_ms.push(encode_probe(w)?);
        }
        let records: u64 = expected.iter().map(|e| e.records).sum();
        run.layers = vec![
            ("minic-trace.encode_ms", stats::median(&encode_ms)),
            ("minic-trace.bytes_per_record", bytes as f64 / records as f64),
            ("foray.analyzer_ms", stats::median(&analyzer_ms)),
        ];
    }
    Ok(run)
}

/// One operation recomposed from the calls `analyze_trace_files`, extract
/// and emit make, each in its own span, then a decode-only probe over the
/// same file. Pushes the analyzer's share (the analysis minus the decode
/// pass) to `analyzer_ms`; returns the operation's wall time and model.
fn traced_op(
    tr: &mut Tracer,
    op: u64,
    name: &'static str,
    path: &str,
    analyzer_ms: &mut Vec<f64>,
) -> (f64, Result<String, String>) {
    let top = tr.begin_labelled("trace_replay.op", name, op, None);
    let on_path = Some(top);
    let mut analyze_ms = 0.0;
    let recomposed = (|| {
        let file = tr.time("minic-trace.open", op, on_path, || TraceFile::open(path));
        let file = file.map_err(|e| e.to_string())?;
        let span: SpanId = tr.begin("foray.analyze_file", op, on_path);
        let analysis = foray::analyze_source_with(&file, AnalyzerConfig::default());
        analyze_ms = tr.end(span);
        let analysis = analysis.map_err(|e| e.to_string())?;
        let model = tr.time("foray.extract", op, on_path, || {
            ForayModel::extract(&analysis, &FilterConfig::default())
        });
        Ok::<_, String>((file, tr.time("foray.codegen", op, on_path, || codegen::emit(&model))))
    })();
    let ms = tr.end(top);
    let (file, text) = match recomposed {
        Ok(parts) => parts,
        Err(e) => return (ms, Err(e)),
    };
    let span = tr.begin("minic-trace.decode", op, None);
    let decoded = file.records().stream_into(&mut CountingSink::new());
    let decode_ms = tr.end(span);
    match decoded {
        Ok(n) if n == file.record_count() => {
            analyzer_ms.push(analyze_ms - decode_ms);
            (ms, Ok(text))
        }
        Ok(n) => (ms, Err(format!("decode probe saw {n} of {} records", file.record_count()))),
        Err(e) => (ms, Err(e.to_string())),
    }
}
