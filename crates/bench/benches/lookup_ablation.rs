//! Reference-lookup ablation: dense dispatch vs hash table.
//!
//! Section 4: "the complexity of the Algorithms 2 and 3 is constant on
//! average **if we use hash tables** for the searches". This bench puts
//! many distinct references into one loop node and compares the default
//! successor predictor and dense instruction-indexed tables against the
//! paper's hash-map lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foray::{analyze_with, AnalyzerConfig, LookupStrategy};
use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
use minic_trace::{AccessKind, Record};
use std::hint::black_box;

/// One loop whose body touches `refs` distinct references per iteration.
fn wide_body_trace(refs: u32, iterations: u32) -> Vec<Record> {
    let mut t = vec![Record::checkpoint(0, LoopBegin)];
    for i in 0..iterations {
        t.push(Record::checkpoint(0, BodyBegin));
        for r in 0..refs {
            t.push(Record::access(
                0x40_0000 + 4 * r,
                0x1000_0000 + 0x1_0000 * r + 4 * i,
                AccessKind::Read,
            ));
        }
        t.push(Record::checkpoint(0, BodyEnd));
    }
    t
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_ablation");
    group.sample_size(15);
    for refs in [4u32, 32, 256] {
        let trace = wide_body_trace(refs, 2048 / refs.max(1));
        let accesses = trace.iter().filter(|r| matches!(r, Record::Access(_))).count() as u64;
        group.throughput(Throughput::Elements(accesses));
        for (name, strategy) in [("dense", LookupStrategy::Dense), ("hash", LookupStrategy::Hash)] {
            group.bench_with_input(BenchmarkId::new(name, refs), &trace, |b, t| {
                let config = AnalyzerConfig {
                    lookup: strategy,
                    track_footprint: false,
                    ..AnalyzerConfig::default()
                };
                b.iter(|| {
                    let analysis = analyze_with(black_box(t), config.clone());
                    black_box(analysis.refs().len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
