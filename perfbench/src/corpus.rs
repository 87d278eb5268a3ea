//! `corpus`: source → FORAY model through `ForayGen::run_source`, the path
//! `foray-gen model` runs — the paper's Algorithm 1, one corpus program
//! per operation.
//!
//! Each round is a seeded permutation of one fixed multiset that holds
//! every corpus program ([`ROUND`]), so every round and every seed has the
//! same mix. Set-up is a warm-up pass over the seven programs, repeated.

use crate::rng::Rng;
use crate::spans::Tracer;
use crate::{Ctx, Expected, OpSample, Run, SCALE};
use foray::{codegen, AnalyzerConfig, FilterConfig, ForayGen, ForayModel};
use foray_workloads::{Params, Workload};
use minic_sim::{Engine, SimConfig, Vm};
use minic_trace::{CountingSink, TeeSink, TraceStats, VecSink};
use std::time::Instant;

/// Warm-up passes in set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Operations per round for each program, in latency order on the
/// reference host: histoc and fftc 8-9 ms, adpcmc 13, susanc 26, lamec
/// 28, jpegc 33, gsmc 113. With one of each, `p50_ms` would fall in the
/// bottom sixth of the overlapping susanc/lamec/jpegc band and `p90_ms`
/// low in gsmc's: the host's bursts of spare speed move those lower tails
/// by 20-40% between runs, while each program's own median moves by
/// 3-4%. These counts put `p50_ms` about three quarters into the
/// histoc/fftc band, `p90_ms` near the middle of jpegc and `p99_ms` near
/// the middle of gsmc.
pub const ROUND: [(&str, usize); 7] = [
    ("histoc", 12),
    ("fftc", 12),
    ("adpcmc", 3),
    ("susanc", 1),
    ("lamec", 1),
    ("jpegc", 6),
    ("gsmc", 1),
];

pub fn programs() -> Vec<Workload> {
    foray_workloads::all(Params { scale: SCALE })
}

/// The expected model of every corpus program, from the tree-walking
/// oracle, in corpus order.
pub fn oracle() -> Result<Vec<Expected>, String> {
    programs()
        .iter()
        .map(|w| {
            let out = w
                .run_with(ForayGen::new().engine(Engine::Tree))
                .map_err(|e| format!("corpus program {} fails on the oracle: {e}", w.name))?;
            Ok(Expected {
                records: out.sim.accesses + out.sim.checkpoints,
                model_of: Some(w.name.to_owned()),
                payload: out.code,
                trusted: true,
            })
        })
        .collect()
}

/// The rounds of a run: each a seeded permutation of [`ROUND`], as
/// indices into [`programs`].
pub fn schedule(seed: u64, rounds: usize) -> Vec<Vec<usize>> {
    let names: Vec<&str> = programs().iter().map(|w| w.name).collect();
    let round: Vec<usize> = ROUND
        .iter()
        .flat_map(|&(name, n)| {
            let p = names.iter().position(|&w| w == name).expect("ROUND names corpus programs");
            std::iter::repeat_n(p, n)
        })
        .collect();
    let mut rng = Rng::new(seed);
    (0..rounds)
        .map(|_| {
            let mut order = round.clone();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

/// The per-round mix, for the report.
pub fn mix() -> String {
    let parts: Vec<String> = ROUND.iter().map(|(name, n)| format!("{n} {name}")).collect();
    format!(
        "{} operations per round ({})",
        ROUND.iter().map(|r| r.1).sum::<usize>(),
        parts.join(", ")
    )
}

pub fn run(ctx: &Ctx, expected: &[Expected]) -> Result<Run, String> {
    let programs = programs();
    let pipelines: Vec<ForayGen> =
        programs.iter().map(|w| ForayGen::new().inputs(w.inputs.clone())).collect();
    let mut run = Run { mix: mix(), ..Run::default() };

    // Set-up: warm-up passes in corpus order; their outputs are checked
    // too, after the clock stops.
    for _ in 0..SETUP_REPEATS {
        let gauge = run.gauge.sample();
        let start = Instant::now();
        let outs: Vec<_> = programs
            .iter()
            .zip(&pipelines)
            .map(|(w, p)| p.run_source(&w.source).map(|o| o.code))
            .collect();
        run.setup_s.push((start.elapsed().as_secs_f64(), gauge));
        for ((w, out), exp) in programs.iter().zip(outs).zip(expected) {
            if !out.as_ref().is_ok_and(|code| exp.matches(code)) {
                run.problems.push(format!("warm-up: {} missed its expected model", w.name));
            }
        }
    }

    let mut counts = Counts::default();
    for (round, order) in schedule(ctx.seed, ctx.rounds).into_iter().enumerate() {
        let traced = ctx.round_traced(round);
        for p in order {
            let (w, exp) = (&programs[p], &expected[p]);
            let op = run.ops.len() as u64;
            let gauge = run.gauge.sample();
            let (ms, out) = if traced {
                traced_op(&mut run.tracer, op, w, &mut counts)
            } else {
                let start = Instant::now();
                let out = pipelines[p].run_source(&w.source);
                (
                    start.elapsed().as_secs_f64() * 1e3,
                    out.map(|o| o.code).map_err(|e| e.to_string()),
                )
            };
            run.push_model(w.name, OpSample { ms, gauge, traced, records: 0 }, out, exp);
        }
    }
    if ctx.traced {
        run.layers = vec![
            ("minic-sim.records", counts.records as f64),
            ("minic-sim.steps", counts.steps as f64),
            ("foray.refs", counts.refs as f64),
            ("foray.model_refs", counts.model_refs as f64),
            ("foray.kept_ratio", counts.model_refs as f64 / counts.refs.max(1) as f64),
        ];
    }
    Ok(run)
}

#[derive(Default)]
struct Counts {
    records: u64,
    steps: u64,
    refs: u64,
    model_refs: u64,
}

/// One operation recomposed from the layer calls `run_source` makes, each
/// in its own span, followed by the probes that split the fused profiling
/// run. Returns the operation's wall time and its model text.
fn traced_op(
    tr: &mut Tracer,
    op: u64,
    w: &Workload,
    counts: &mut Counts,
) -> (f64, Result<String, String>) {
    let top = tr.begin_labelled("corpus.op", w.name, op, None);
    let path = Some(top);
    let recomposed = (|| {
        let mut prog = tr.time("minic.parse", op, path, || minic::parse(&w.source))?;
        tr.time("minic.check", op, path, || minic::check(&mut prog))?;
        tr.time("minic.instrument", op, path, || minic::instrument(&mut prog));
        let code = tr.time("minic-sim.lower", op, path, || minic_sim::compile(&prog));
        let (analysis, sim) = tr.time("foray.profile", op, path, || {
            let analyzer = foray::Analyzer::with_config(AnalyzerConfig::default());
            let mut sink = TeeSink::new(analyzer, TraceStats::new());
            let vm = Vm::new(&code, SimConfig::default(), w.inputs.clone(), &mut sink);
            let (sim, _) = vm.run()?;
            let (analyzer, _stats) = sink.into_inner();
            Ok::<_, minic_sim::RuntimeError>((analyzer.into_analysis(), sim))
        })?;
        let model = tr.time("foray.extract", op, path, || {
            ForayModel::extract(&analysis, &FilterConfig::default())
        });
        let text = tr.time("foray.codegen", op, path, || codegen::emit(&model));
        let hints =
            tr.time("foray.hints", op, path, || foray::hints::inline_hints(&prog, analysis.tree()));
        std::hint::black_box(hints);
        Ok::<_, Box<dyn std::error::Error>>((prog, code, analysis, model, sim, text))
    })();
    let ms = tr.end(top);
    let (_prog, code, analysis, model, sim, text) = match recomposed {
        Ok(parts) => parts,
        Err(e) => return (ms, Err(e.to_string())),
    };
    counts.records += sim.accesses + sim.checkpoints;
    counts.steps += sim.steps;
    counts.refs += analysis.refs().len() as u64;
    counts.model_refs += model.ref_count() as u64;

    // Probes, off the operation's path: the bare VM, then the layers the
    // fused sink hides, each over the same recorded trace.
    let probe = |tr: &mut Tracer| -> Result<(), String> {
        tr.time("minic-sim.vm", op, None, || {
            Vm::new(&code, SimConfig::default(), w.inputs.clone(), CountingSink::new()).run()
        })
        .map_err(|e| e.to_string())?;
        let (_, sink) = tr
            .time("probe.record", op, None, || {
                Vm::new(&code, SimConfig::default(), w.inputs.clone(), VecSink::new()).run()
            })
            .map_err(|e| e.to_string())?;
        let records = sink.into_records();
        let stats = tr.time("minic-trace.stats", op, None, || TraceStats::from_records(&records));
        let offline = tr.time("foray.analyzer", op, None, || foray::analyze(&records));
        if offline != analysis || stats.accesses != sim.accesses {
            return Err("a probe disagrees with the operation's own result".to_owned());
        }
        Ok(())
    };
    match probe(tr) {
        Ok(()) => (ms, Ok(text)),
        Err(e) => (ms, Err(format!("{}: {e}", w.name))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_is_a_permutation_of_the_same_multiset() {
        let mut sorted_round: Vec<usize> = schedule(1, 1)[0].clone();
        sorted_round.sort_unstable();
        assert_eq!(sorted_round.len(), ROUND.iter().map(|r| r.1).sum::<usize>());
        let programs = programs().len();
        assert!((0..programs).all(|p| sorted_round.contains(&p)), "a program is missing");
        for seed in [1, 2] {
            for round in schedule(seed, 3) {
                let mut r = round.clone();
                r.sort_unstable();
                assert_eq!(r, sorted_round);
            }
        }
        assert_ne!(schedule(1, 1), schedule(2, 1));
    }
}
