//! Design-space-exploration lock-down.
//!
//! `foray_spm::dse` promises three things this suite pins:
//!
//! * **Determinism in the worker count** — `explore(N)` renders
//!   byte-identical text and JSON reports for N ∈ {1, 2, auto}, on random
//!   capacity grids and model subsets (property test) and on the corpus;
//! * **Equivalence with the sequential path** — every explored point
//!   equals enumerating the workload's model once and solving the knapsack
//!   at that capacity with `select_exact`;
//! * **Work sharing** — candidate enumeration runs once per workload and
//!   one knapsack plan per (workload, model), never per capacity;
//! * **Pareto semantics** — every pruned point is dominated by a front
//!   member, and every front is non-empty and monotone (`check()`).

use foray::ForayModel;
use foray_spm::dse::{pareto_front, DsePoint, SpmDesignSpace};
use foray_spm::{enumerate, select_exact, EnergyModel};
use foray_workloads::{all, by_name, Params, Workload};
use proptest::prelude::*;

/// Each workload's name and FORAY model, profiled across the shared pool.
fn profiled(workloads: &[Workload]) -> Vec<(String, ForayModel)> {
    foray::map_ordered(workloads, 0, |_, w| {
        (w.name.to_owned(), w.run().expect("workload runs").model)
    })
}

/// A small two-workload space to keep property-test cases cheap.
fn small_space(capacities: &[u32], models: &[(String, EnergyModel)]) -> SpmDesignSpace {
    let workloads: Vec<Workload> = ["fftc", "adpcmc"]
        .iter()
        .map(|n| by_name(n, Params::default()).expect("corpus workload exists"))
        .collect();
    let mut space = SpmDesignSpace::new().capacities(capacities).workloads(profiled(&workloads));
    for (name, model) in models {
        space = space.model(name.clone(), model.clone());
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The satellite property: `explore` with jobs N is byte-identical to
    /// the sequential sweep for all N ∈ {1, 2, auto}, whatever the
    /// capacity grid and model subset.
    #[test]
    fn explore_is_byte_identical_across_job_counts(
        capacities in proptest::collection::vec(64u32..16_384, 1..5),
        preset in 0usize..4,
    ) {
        let preset_name = foray_spm::energy::PRESET_NAMES[preset];
        let models = vec![
            (preset_name.to_owned(), EnergyModel::preset(preset_name).unwrap()),
            ("default".to_owned(), EnergyModel::default()),
        ];
        let space = small_space(&capacities, &models);
        let sequential = space.explore(1).expect("sequential explore");
        let seq_text = sequential.render_text();
        let seq_json = sequential.to_json();
        for jobs in [2usize, 0] {
            let parallel = space.explore(jobs).expect("parallel explore");
            prop_assert_eq!(&parallel.render_text(), &seq_text, "jobs={}", jobs);
            prop_assert_eq!(&parallel.to_json(), &seq_json, "jobs={}", jobs);
        }
    }
}

#[test]
fn explored_points_match_direct_sequential_solves() {
    let capacities = [256u32, 1024, 4096];
    let models = EnergyModel::presets();
    let result = small_space(&capacities, &models).explore(0).expect("explores");
    for name in ["fftc", "adpcmc"] {
        let w = by_name(name, Params::default()).unwrap();
        let model = w.run().expect("workload runs").model;
        let cands = enumerate(&model);
        for (model_name, energy) in &models {
            let curve = result.curve(name, model_name);
            assert_eq!(curve.len(), capacities.len());
            for (point, &cap) in curve.iter().zip(&capacities) {
                assert_eq!(point.capacity, cap);
                let direct = select_exact(&cands, energy, cap);
                assert_eq!(
                    point.selection, direct,
                    "{name}/{model_name} @ {cap} B diverges from the sequential path"
                );
                assert_eq!(point.candidates, cands.len());
            }
        }
    }
}

#[test]
fn corpus_exploration_shares_work_and_passes_the_ci_invariants() {
    let result = foray_bench::dse_space(Params::default()).explore(0).expect("corpus explores");
    assert_eq!(
        result.workloads,
        vec!["jpegc", "lamec", "susanc", "fftc", "gsmc", "adpcmc", "histoc"]
    );
    assert_eq!(
        result.stats.enumerations,
        result.workloads.len() as u64,
        "enumeration must run once per workload"
    );
    assert_eq!(
        result.stats.plans,
        (result.workloads.len() * result.models.len()) as u64,
        "one knapsack plan per (workload, model), never per capacity"
    );
    result.check().expect("non-empty monotone Pareto fronts");
    // The front is worth reporting: at least one corpus point saves energy.
    let front = result.front();
    assert!(!front.is_empty());
    assert!(front[0].selection.savings_nj > 0.0, "best corpus point saves nothing");
    // Ranked: savings never increase down the list.
    for pair in front.windows(2) {
        assert!(pair[0].selection.savings_nj >= pair[1].selection.savings_nj - 1e-9);
    }
}

#[test]
fn every_pruned_point_is_dominated_by_a_front_member() {
    let result = small_space(&[256, 512, 1024, 2048, 4096, 8192], &EnergyModel::presets())
        .explore(2)
        .expect("explores");
    let dominates = |a: &DsePoint, b: &DsePoint| {
        a.capacity <= b.capacity
            && a.selection.savings_nj >= b.selection.savings_nj
            && (a.capacity < b.capacity || a.selection.savings_nj > b.selection.savings_nj)
    };
    for chunk in result.points.chunks(result.capacities.len()) {
        let front = pareto_front(chunk);
        for (i, p) in chunk.iter().enumerate() {
            assert_eq!(p.pareto, front.contains(&i), "pareto flag disagrees with extraction");
            if !p.pareto {
                assert!(
                    chunk.iter().enumerate().any(|(j, q)| {
                        // Duplicates keep their first occurrence; a pruned
                        // twin counts as dominated by the kept one.
                        (dominates(q, p)
                            || (j < i
                                && q.capacity == p.capacity
                                && q.selection.savings_nj == p.selection.savings_nj))
                            && front.contains(&j)
                    }),
                    "{}/{} @ {} B was pruned but nothing on the front dominates it",
                    p.workload,
                    p.model,
                    p.capacity
                );
            }
        }
    }
}

#[test]
fn scaled_corpus_still_explores_deterministically() {
    // Scale 2 exercises bigger traces through the same parallel path; the
    // report must stay independent of the worker count there too.
    let space = SpmDesignSpace::new()
        .capacities(&[512, 2048])
        .model("small-spm", EnergyModel::preset("small-spm").unwrap())
        .workloads(profiled(&all(Params { scale: 2 })[..2]));
    let a = space.explore(1).expect("explores");
    let b = space.explore(0).expect("explores");
    assert_eq!(a.to_json(), b.to_json());
    a.check().expect("invariants hold at scale 2");
}
