//! `lamec` — MP3-encoder-style subband filterbank (the paper's `lame`
//! analogue).
//!
//! Pattern mix modelled on what makes `lame` interesting in the paper:
//! a `do` loop over frames (lame is the only benchmark with a noticeable
//! `do`-loop share), a polyphase filterbank whose input window slides via a
//! pointer offset carried through a function argument, a band-energy helper
//! called from **two** contexts (the Fig. 9 inlining-hint scenario), and a
//! psychoacoustic stage whose band mapping is data-dependent (outside any
//! FORAY model).

use crate::{Params, Workload};

/// Builds the workload. `params.scale` multiplies the frame count
/// (scale 1 → 24 frames of 32 samples).
pub fn workload(params: Params) -> Workload {
    let frames = 24usize * params.scale as usize;
    let ns = frames * 32;
    let source = TEMPLATE
        .replace("@NS@", &ns.to_string())
        .replace("@SBN@", &(frames * 32).to_string())
        .replace("@FRAMES@", &frames.to_string());
    Workload {
        name: "lamec",
        description: "MP3-style polyphase subband filterbank + psychoacoustic model",
        source,
        inputs: crate::input::audio(0x1a3e_0002, ns),
    }
}

const TEMPLATE: &str = r#"
int samples[@NS@];
int win[512];
int z[512];
int sb[@SBN@];
int energy[32];
int bark[64];
int bandsum[32];
int q_out[@SBN@];

void make_window() {
    int i;
    for (i = 0; i < 512; i++) { win[i] = (i * 23) % 97 - 48; }
}

void load() {
    int i;
    for (i = 0; i < @NS@; i++) { samples[i] = input(i); }
}

void filterbank(int frame) {
    int s; int k; int acc; int i;
    int *in;
    in = samples;
    in = in + frame * 32;
    for (i = 511; i >= 32; i--) { z[i] = z[i - 32]; }
    for (i = 0; i < 32; i++) { z[i] = in[i] * win[i] / 64; }
    for (s = 0; s < 32; s++) {
        acc = 0;
        for (k = 0; k < 16; k++) {
            acc += z[s + 32 * k] * win[s + 32 * k] / 256;
        }
        sb[frame * 32 + s] = acc;
    }
}

int band_energy(int off) {
    int b; int e; int tot;
    tot = 0;
    for (b = 0; b < 32; b++) {
        e = sb[off + b];
        energy[b] = e;
        tot += e * e / 16;
    }
    return tot;
}

void psycho() {
    int i;
    for (i = 0; i < 64; i++) { bark[i] = (i * 13 + 3) % 32; }
    for (i = 0; i < 64; i++) { bandsum[bark[i]] += energy[i % 32]; }
}

void main() {
    int frame; int tot; int g;
    make_window();
    load();
    frame = 0;
    do {
        filterbank(frame);
        tot = band_energy(frame * 32);
        if (tot > 0) { psycho(); }
        frame++;
    } while (frame < @FRAMES@);
    g = 0;
    tot = 0;
    while (g < @FRAMES@) {
        tot += band_energy(g * 32);
        g += 2;
    }
    for (int f = 0; f < @FRAMES@; f++) {
        for (int s = 0; s < 32; s++) {
            q_out[f * 32 + s] = sb[f * 32 + s] / (1 + s % 8);
        }
    }
    print_int(tot);
    print_int(q_out[33]);
    print_int(bandsum[5]);
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_and_runs() {
        let w = workload(Params::default());
        let out = w.run().expect("lamec runs");
        assert_eq!(out.sim.printed.len(), 3);
    }

    #[test]
    fn band_energy_yields_inline_hint() {
        let out = workload(Params::default()).run().expect("lamec runs");
        let hints = foray::hints::inline_hints(&out.program, out.analysis.tree());
        assert!(
            hints.iter().any(|h| h.function == "band_energy" && h.contexts.len() == 2),
            "hints: {hints:?}"
        );
    }

    #[test]
    fn filterbank_references_are_model_worthy() {
        let out = workload(Params::default()).run().expect("lamec runs");
        // The sliding-window read in[i] spans frame and i — full affine.
        assert!(out.model.ref_count() >= 6, "{}", out.code);
        let full: usize = out.model.refs.iter().filter(|r| !r.is_partial()).count();
        assert!(full >= 5, "{}", out.code);
    }
}
