//! End-to-end pinning of the paper's Fig. 4 worked example: annotation,
//! trace shape, loop-structure reconstruction, and the recovered affine
//! expression.

use foray::{FilterConfig, ForayGen};
use minic::CheckpointKind;
use minic_trace::{text, AccessKind, Record};

const FIGURE_4A: &str = "char q[10000];
char *ptr;
void main() {
    int i;
    int t1 = 98;
    ptr = q;
    while (t1 < 100) {
        t1++;
        ptr += 100;
        for (i = 40; i > 37; i--) {
            *ptr++ = i * i % 256;
        }
    }
}";

fn run() -> foray::ForayGenOutput {
    ForayGen::new()
        .filter(FilterConfig { n_exec: 6, n_loc: 6 })
        .run_source(FIGURE_4A)
        .expect("figure 4 program runs")
}

#[test]
fn annotated_source_has_all_six_checkpoints() {
    let prog = minic::frontend(FIGURE_4A).unwrap();
    let text = minic::pretty(&prog);
    // Two loops × three checkpoint kinds; flat ids 0..5 in our numbering
    // (the paper's example uses 12..17 — same three-per-loop scheme).
    for n in 0..6 {
        assert!(text.contains(&format!("CHECKPOINT({n});")), "missing checkpoint {n}:\n{text}");
    }
}

#[test]
fn trace_against_paper_sequence() {
    let prog = minic::frontend(FIGURE_4A).unwrap();
    let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
    // Project onto the record kinds of Fig 4(c): checkpoints and the
    // writes through `ptr` into q (ptr itself is a memory-resident global,
    // so the raw trace also contains its own read-modify-write traffic,
    // which the paper's register-allocated compile would fold away).
    let q_lo = minic_trace::layout::GLOBAL_BASE;
    let q_hi = q_lo + 10_000;
    let projected: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            Record::Checkpoint { loop_id, kind } => {
                Some(format!("C{}", minic::checkpoint_number(*loop_id, *kind)))
            }
            Record::Access(a)
                if a.kind == AccessKind::Write && (q_lo..q_hi).contains(&a.addr.0) =>
            {
                Some(format!("W{:+}", a.addr.0 - q_lo))
            }
            _ => None,
        })
        .collect();
    // The paper's sequence (its ids 12..17 map to ours 0..5):
    // LB(w) [BB(w) LB(f) (BB(f) wr BE(f))x3 BE(w)] x2.
    let expected = [
        "C0", "C1", "C3", "C4", "W+100", "C5", "C4", "W+101", "C5", "C4", "W+102", "C5", "C2",
        "C1", "C3", "C4", "W+203", "C5", "C4", "W+204", "C5", "C4", "W+205", "C5", "C2",
    ];
    assert_eq!(projected, expected);
}

#[test]
fn model_matches_figure_4d() {
    let out = run();
    assert_eq!(out.model.ref_count(), 1);
    let r = &out.model.refs[0];
    assert_eq!(r.terms.len(), 2);
    assert_eq!((r.terms[0].coeff, r.terms[0].level), (1, 1));
    assert_eq!((r.terms[1].coeff, r.terms[1].level), (103, 2));
    assert!(!r.is_partial());
    assert_eq!(r.execs, 6);
    assert_eq!(r.footprint, 6);
    assert_eq!(r.writes, 6);
    // Trip counts: inner 3, outer 2 (Fig 4(d)'s i15<3, i12<2).
    let trips: Vec<u64> = r.node_path.iter().map(|n| out.model.loops[n].trip).collect();
    assert_eq!(trips, vec![3, 2]);
    // The constant is the first q+100 write (our address space, not the
    // paper's 2147440948 — theirs was a SimpleScalar stack address).
    assert_eq!(r.constant, (minic_trace::layout::GLOBAL_BASE + 100) as i64);
}

#[test]
fn paper_format_trace_round_trips_through_offline_analysis() {
    // Serialize the trace in the paper's text format, parse it back, and
    // analyze offline: identical model to the online run.
    let prog = minic::frontend(FIGURE_4A).unwrap();
    let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
    let textual = text::to_text(&records);
    assert!(textual.contains("Checkpoint: 0"));
    assert!(textual.contains(" wr"));
    let parsed = text::from_text(&textual).unwrap();
    assert_eq!(parsed, records);
    let offline = foray::analyze(&parsed);
    let online = run();
    assert_eq!(offline.refs().len(), online.analysis.refs().len());
}

#[test]
fn binary_format_round_trips_too() {
    use minic_trace::file::{self, FormatVersion, TraceFile};
    let prog = minic::frontend(FIGURE_4A).unwrap();
    let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
    for format in [FormatVersion::V1, FormatVersion::V2] {
        let mut bytes = Vec::new();
        file::write_to_with(&mut bytes, &records, format).unwrap();
        let decoded: Result<Vec<_>, _> = TraceFile::from_bytes(bytes).unwrap().records().collect();
        assert_eq!(decoded.unwrap(), records, "{format}");
    }
}

#[test]
fn loop_tree_shape() {
    let out = run();
    let tree = out.analysis.tree();
    // root + while + for.
    assert_eq!(tree.len(), 3);
    let while_node = tree.node(foray::ROOT).child(minic::LoopId(0)).unwrap();
    let for_node = tree.node(while_node).child(minic::LoopId(1)).unwrap();
    assert_eq!(tree.node(while_node).entries, 1);
    assert_eq!(tree.node(while_node).max_trip, 2);
    assert_eq!(tree.node(for_node).entries, 2);
    assert_eq!(tree.node(for_node).max_trip, 3);
}

#[test]
fn default_thresholds_filter_the_small_example() {
    // With the paper's Nexec=20/Nloc=10 the 6-access example is purged —
    // exactly what Step 4 is for.
    let out = ForayGen::new().run_source(FIGURE_4A).expect("runs");
    assert_eq!(out.model.ref_count(), 0);
    let _ = CheckpointKind::LoopBegin; // silence unused import lint paths
}
