//! Cross-validation of the dynamic extraction against the static detector:
//! on purely canonical code both must find the same references; on
//! pointer/`while` code only FORAY-GEN does. This is the machinery behind
//! Table II and the 2x headline.

use foray::{CaptureComparison, FilterConfig, ForayGen};
use std::collections::HashSet;

fn compare(src: &str, filter: FilterConfig) -> (CaptureComparison, foray::ForayGenOutput) {
    let out = ForayGen::new().filter(filter).run_source(src).expect("program runs");
    let mut prog = minic::parse(src).unwrap();
    minic::check(&mut prog).unwrap();
    let st = foray_baseline::analyze_program(&prog);
    let loops: HashSet<minic::LoopId> = st.canonical_loops.iter().copied().collect();
    let cmp = CaptureComparison::compute(&out.model, &loops, &st.affine_instrs());
    (cmp, out)
}

#[test]
fn canonical_program_fully_agrees() {
    let (cmp, _) = compare(
        "int a[256]; int b[256];
         void main() {
             int i; int j;
             for (i = 0; i < 16; i++) {
                 for (j = 0; j < 16; j++) {
                     a[16 * i + j] = b[16 * j + i];
                 }
             }
         }",
        FilterConfig::default(),
    );
    assert_eq!(cmp.model_refs, 2);
    assert_eq!(cmp.static_refs, 2, "static analysis must see canonical code");
    assert_eq!(cmp.pct_refs_not_static(), 0.0);
    assert_eq!(cmp.gain(), Some(1.0));
    assert_eq!(cmp.model_loops, 2);
    assert_eq!(cmp.static_loops, 2);
}

#[test]
fn pointer_walk_is_dynamic_only() {
    let (cmp, _) = compare(
        "char q[1000]; char *p;
         void main() {
             int n;
             n = 0;
             p = q;
             while (n < 500) { *p++ = n; n++; }
         }",
        FilterConfig::default(),
    );
    assert_eq!(cmp.model_refs, 1);
    assert_eq!(cmp.static_refs, 0);
    assert_eq!(cmp.pct_refs_not_static(), 100.0);
    assert_eq!(cmp.gain(), None, "static analysis finds nothing to divide by");
}

#[test]
fn mixed_program_shows_the_gain() {
    // One canonical reference + two dynamic-only references → gain 3x.
    let (cmp, _) = compare(
        "int a[64]; char q[1000]; char *p; char *r;
         void main() {
             int i; int n;
             for (i = 0; i < 64; i++) { a[i] = i; }
             n = 0; p = q; r = q;
             while (n < 400) { *p++ = n; n++; }
             do { *r++ = n; n--; } while (n > 0);
         }",
        FilterConfig::default(),
    );
    assert_eq!(cmp.model_refs, 3);
    assert_eq!(cmp.static_refs, 1);
    assert_eq!(cmp.gain(), Some(3.0));
    assert!((cmp.pct_refs_not_static() - 66.66).abs() < 0.1);
}

#[test]
fn dynamic_and_static_coefficients_agree_on_canonical_code() {
    // Where both see a reference, the affine expressions must agree (up to
    // the base address, which only the dynamic side knows).
    let src = "int a[512];
         void main() {
             int i; int j;
             for (i = 0; i < 8; i++) {
                 for (j = 0; j < 32; j++) { a[64 * i + j * 2] = i + j; }
             }
         }";
    let out = ForayGen::new().run_source(src).expect("runs");
    assert_eq!(out.model.ref_count(), 1);
    let r = &out.model.refs[0];
    // Element size 4: dynamic coefficients are 4x the static index form.
    assert_eq!(r.terms[0].coeff, 8, "j*2 over ints");
    assert_eq!(r.terms[1].coeff, 256, "i*64 over ints");

    let mut prog = minic::parse(src).unwrap();
    minic::check(&mut prog).unwrap();
    let st = foray_baseline::analyze_program(&prog);
    assert_eq!(st.affine_sites.len(), 1);
}

#[test]
fn interprocedural_nesting_blinds_the_static_detector_not_foray() {
    // The canonical for sits inside a function called from a while loop:
    // per-function static analysis still accepts the for, but FORAY-GEN
    // additionally recovers the cross-frame stride.
    let (cmp, out) = compare(
        "int a[4096];
         void fill(int base) {
             int i;
             for (i = 0; i < 64; i++) { a[base + i] = i; }
         }
         void main() {
             int n;
             n = 0;
             while (n < 64) { fill(n * 64); n++; }
         }",
        FilterConfig::default(),
    );
    assert_eq!(cmp.model_refs, 1);
    // a[base + i]: `base` is not an iterator → statically invisible.
    assert_eq!(cmp.static_refs, 0);
    let r = &out.model.refs[0];
    assert!(!r.is_partial(), "base is affine in the while iterator");
    assert_eq!(r.terms.len(), 2);
    assert_eq!(r.terms[1].coeff, 256);
}

/// Coefficients (innermost first), trip counts (innermost first) and
/// writes of a model's only reference.
fn only_ref_shape(out: &foray::ForayGenOutput) -> (Vec<i64>, Vec<u64>, u64) {
    assert_eq!(out.model.ref_count(), 1, "{}", out.code);
    let r = &out.model.refs[0];
    assert!(!r.is_partial());
    let coeffs = r.terms.iter().map(|t| t.coeff).collect();
    let trips = r.node_path.iter().map(|n| out.model.loops[n].trip).collect();
    (coeffs, trips, r.writes)
}

#[test]
fn figure1_excerpts_become_figure2_models() {
    // The paper's motivating example: two jpeg excerpts no static
    // technique analyzes (Fig. 1), and the FORAY models FORAY-GEN
    // extracts for them (Fig. 2).
    let (cmp, out) = compare(
        "int last_bitpos[192]; int *last_bitpos_ptr;
         void main() {
             int ci; int coefi;
             last_bitpos_ptr = last_bitpos;
             for (ci = 0; ci < 3; ci++) {
                 for (coefi = 0; coefi < 64; coefi++) { *last_bitpos_ptr++ = -1; }
             }
         }",
        FilterConfig::default(),
    );
    assert_eq!((cmp.static_loops, cmp.static_refs), (2, 0), "the pointer walk hides the reference");
    assert_eq!((cmp.model_loops, cmp.model_refs), (2, 1));
    assert_eq!(only_ref_shape(&out), (vec![4, 256], vec![64, 3], 192));

    // 16 writes over 16 locations: Nexec is relaxed to 16, as the paper's
    // figures show the model before the Step 4 purge.
    let (cmp, out) = compare(
        "int workspace[1024]; int *result[16]; int currow;
         void main() {
             int i;
             currow = 0;
             while (currow < 16) {
                 for (i = 4; i > 0; i--) { result[currow] = workspace; currow++; }
             }
         }",
        FilterConfig { n_exec: 16, n_loc: 10 },
    );
    assert_eq!((cmp.static_loops, cmp.static_refs), (1, 0), "`currow` is no loop's iterator");
    assert_eq!((cmp.model_loops, cmp.model_refs), (2, 1));
    assert_eq!(only_ref_shape(&out), (vec![4, 16], vec![4, 4], 16));
}
