//! Execution-engine microbenchmarks: tree-walking oracle vs compiled VM.
//!
//! CI's `sim-vm-smoke` job gates the VM, via the `sim_exec` bin
//! (`--check-speedup 2.0`), at ≥2x the tree-walker's profiling throughput
//! on fftc at scale 2. This bench breaks the comparison down further:
//! end-to-end runs per engine, plus compile-once/run-many to isolate the
//! lowering cost the `run_with_sink` entry point pays per run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use foray_workloads::Params;
use minic_trace::CountingSink;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let w = foray_workloads::by_name("fftc", Params { scale: 1 }).expect("fftc exists");
    let prog = w.frontend().expect("compiles");
    let records = {
        let mut sink = CountingSink::new();
        let config = minic_sim::SimConfig::default();
        minic_sim::run_with_sink(&prog, &config, &w.inputs, &mut sink).expect("runs");
        sink.total()
    };

    let mut group = c.benchmark_group("sim_exec_fftc");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));

    group.bench_function("tree_walker", |b| {
        let config = minic_sim::SimConfig {
            engine: minic_sim::Engine::Tree,
            ..minic_sim::SimConfig::default()
        };
        b.iter(|| {
            let mut sink = CountingSink::new();
            minic_sim::run_with_sink(black_box(&prog), &config, &w.inputs, &mut sink).unwrap();
            black_box(sink.total())
        });
    });

    group.bench_function("vm_compile_and_run", |b| {
        let config = minic_sim::SimConfig::default();
        b.iter(|| {
            let mut sink = CountingSink::new();
            minic_sim::run_with_sink(black_box(&prog), &config, &w.inputs, &mut sink).unwrap();
            black_box(sink.total())
        });
    });

    group.bench_function("vm_precompiled", |b| {
        let compiled = minic_sim::compile(&prog);
        let config = minic_sim::SimConfig::default();
        b.iter(|| {
            let vm = minic_sim::Vm::new(
                black_box(&compiled),
                config.clone(),
                w.inputs.clone(),
                CountingSink::new(),
            );
            let (outcome, _) = vm.run().unwrap();
            black_box(outcome.accesses)
        });
    });
    group.finish();
}

fn bench_lowering(c: &mut Criterion) {
    // Compilation itself: the one-time cost per program.
    let w = foray_workloads::by_name("jpegc", Params { scale: 1 }).expect("jpegc exists");
    let prog = w.frontend().expect("compiles");
    c.bench_function("sim_exec_lowering/jpegc", |b| {
        b.iter(|| black_box(minic_sim::compile(black_box(&prog))).op_count());
    });
}

criterion_group!(benches, bench_engines, bench_lowering);
criterion_main!(benches);
