//! The offline analysis mode: profile to a trace *file*, then read it back
//! and analyze — the workflow the paper describes before noting that
//! online analysis makes the "typically large" trace file unnecessary.
//!
//! Two file flavours are shown: the paper's Fig. 4(c) text format (human
//! readable, self-describing lines) and the framed `foray-trace/v1` binary
//! container (compact, versioned, zero-copy to decode) — and the replayed
//! analyses are identical to each other and to the online run.
//!
//! ```text
//! cargo run --example offline_trace
//! ```

use foray::{Analyzer, FilterConfig, ForayModel};
use minic_trace::text::{TextReader, TextWriter};
use minic_trace::{RecordSource as _, TraceFile, TraceSink as _, TraceWriter};
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "int hist[128]; int data[512];
        void main() {
            int i; int pass;
            for (i = 0; i < 512; i++) { data[i] = input(i); }
            pass = 0;
            while (pass < 8) {
                for (i = 0; i < 512; i++) { hist[i % 128] += data[i]; }
                pass++;
            }
        }";
    let inputs: Vec<i64> = (0..512).map(|i| (i * 37) % 256).collect();
    let prog = minic::frontend(src)?;
    let dir = std::env::temp_dir();

    // Step 2 (offline flavour A): profile into a text trace file.
    let text_path = dir.join("foray_offline_demo.trace");
    {
        let file = std::fs::File::create(&text_path)?;
        let mut writer = TextWriter::new(BufWriter::new(file));
        minic_sim::run_with_sink(&prog, &minic_sim::SimConfig::default(), &inputs, &mut writer)?;
        if let Some(e) = writer.io_error() {
            return Err(format!("trace write failed: {e}").into());
        }
    }

    // Step 2 (offline flavour B): the same profiling run into a framed
    // foray-trace/v1 file — streamed block by block, never in memory.
    let framed_path = dir.join("foray_offline_demo.ftrace");
    {
        let file = std::fs::File::create(&framed_path)?;
        let mut writer = TraceWriter::new(BufWriter::new(file));
        minic_sim::run_with_sink(&prog, &minic_sim::SimConfig::default(), &inputs, &mut writer)?;
        if let Some(e) = writer.io_error() {
            return Err(format!("trace write failed: {e}").into());
        }
        println!("recorded {} records", writer.records_written());
    }
    let text_size = std::fs::metadata(&text_path)?.len();
    let framed_size = std::fs::metadata(&framed_path)?.len();
    println!("text trace:   {} ({text_size} bytes)", text_path.display());
    println!("framed trace: {} ({framed_size} bytes)", framed_path.display());

    // Step 3 (offline): stream the text file back through the analyzer
    // without materializing it in memory.
    let mut analyzer = Analyzer::new();
    let reader = TextReader::new(BufReader::new(std::fs::File::open(&text_path)?));
    for rec in reader {
        analyzer.record(&rec?);
    }
    let from_text = analyzer.into_analysis();

    // Same step via the framed file: one bulk read, zero-copy decode, and
    // any RecordSource-aware entry point.
    let file = TraceFile::open(&framed_path)?;
    println!("replayed {} records from the framed file", file.record_count());
    let mut analyzer = Analyzer::new();
    (&file).stream_into(&mut analyzer)?;
    let from_framed = analyzer.into_analysis();
    assert_eq!(from_text, from_framed, "both file formats replay identically");

    let model = ForayModel::extract(&from_framed, &FilterConfig::default());
    println!("\nFORAY model from the trace file:\n{}", foray::codegen::emit(&model));

    // The data[i] scan is affine; hist[i % 128] is not (and is excluded).
    assert!(model.refs.iter().any(|r| !r.terms.is_empty()));
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&framed_path).ok();
    Ok(())
}
