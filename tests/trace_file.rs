//! File-backed trace pipeline lock-down.
//!
//! The `foray-trace` container promises that a trace recorded to disk —
//! in either format version — and replayed through any reader produces
//! **byte-identical** analysis to the in-RAM record slice. This suite
//! pins that promise on three fronts:
//!
//! * property tests: arbitrary record streams → `TraceWriter` (random
//!   block sizes, both formats) → `TraceFile` / `TraceReader` / raw
//!   `RecordReader` → identical records and identical `Analysis`;
//! * corruption: truncation at every structural boundary, bad magic,
//!   future and unknown versions, flipped v1 payload bytes, and flipped
//!   v2 payload/CRC/index bytes are all rejected with typed errors,
//!   never mis-decoded;
//! * the workload corpus: profile once, write the trace file in *both*
//!   formats, re-analyze each and require equality with the online
//!   in-RAM analysis — model code included — plus the
//!   `analyze_trace_files` batch fan-out, and require the v2 file to be
//!   smaller than its v1 sibling.

use foray::{analyze, AnalyzerConfig, FilterConfig, ForayGen, ForayModel};
use minic::CheckpointKind::{BodyBegin, BodyEnd, LoopBegin};
use minic::LoopId;
use minic_trace::binary::RecordReader;
use minic_trace::file::{self, FormatVersion, TraceReader, TraceWriter, HEADER_BYTES};
use minic_trace::{AccessKind, ReadError, Record, RecordSource, TraceFile, TraceSink};
use proptest::prelude::*;

const FORMATS: [FormatVersion; 2] = [FormatVersion::V1, FormatVersion::V2];

/// Frames a record slice with an explicit format and block capacity.
fn frame_with(format: FormatVersion, records: &[Record], block_bytes: usize) -> Vec<u8> {
    let mut w = TraceWriter::with_options(Vec::new(), format, block_bytes);
    for r in records {
        w.record(r);
    }
    w.finish();
    assert!(w.io_error().is_none());
    w.into_inner()
}

/// Frames with the default (v2) format.
fn frame(records: &[Record], block_bytes: usize) -> Vec<u8> {
    frame_with(FormatVersion::default(), records, block_bytes)
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u32..64, 0usize..3).prop_map(|(l, k)| {
            let kind = [LoopBegin, BodyBegin, BodyEnd][k];
            Record::checkpoint(l, kind)
        }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(i, a, w)| {
            Record::access(i, a, if w { AccessKind::Write } else { AccessKind::Read })
        }),
    ]
}

fn arb_format() -> impl Strategy<Value = FormatVersion> {
    prop_oneof![Just(FormatVersion::V1), Just(FormatVersion::V2)]
}

/// A structured trace (real loop nesting) so the replayed analyses have
/// meaningful loop trees and affine fits, not just record counts.
fn nest_trace(bodies: u32, refs: u32) -> Vec<Record> {
    let mut t = vec![Record::checkpoint(0, LoopBegin)];
    for i in 0..bodies {
        t.push(Record::checkpoint(0, BodyBegin));
        for r in 0..refs {
            t.push(Record::access(
                0x40_0000 + 8 * r,
                0x1000_0000 + (r << 16) + 4 * i,
                AccessKind::Read,
            ));
        }
        t.push(Record::checkpoint(0, BodyEnd));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn framed_format_round_trips_arbitrary_streams(
        format in arb_format(),
        records in proptest::collection::vec(arb_record(), 0..300),
        block_bytes in 1usize..512,
    ) {
        let bytes = frame_with(format, &records, block_bytes);
        // Zero-copy whole-file path.
        let tf = TraceFile::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(tf.version(), format);
        prop_assert_eq!(tf.record_count(), records.len() as u64);
        let decoded: Result<Vec<Record>, ReadError> = tf.records().collect();
        prop_assert_eq!(decoded.unwrap(), records.clone());
        // Constant-memory streaming path.
        let streamed: Result<Vec<Record>, ReadError> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        prop_assert_eq!(streamed.unwrap(), records);
    }

    #[test]
    fn file_backed_analysis_equals_in_ram(
        format in arb_format(),
        bodies in 1u32..40,
        refs in 1u32..8,
        block_bytes in 1usize..256,
    ) {
        let records = nest_trace(bodies, refs);
        let in_ram = analyze(&records);
        let tf = TraceFile::from_bytes(frame_with(format, &records, block_bytes)).unwrap();
        let sequential = foray::analyze_source(&tf).unwrap();
        prop_assert_eq!(&sequential, &in_ram);
        // The raw zero-copy decoder (no framing) agrees too.
        let raw = minic_trace::binary::to_bytes(&records);
        let from_raw = foray::analyze_source(RecordReader::new(&raw)).unwrap();
        prop_assert_eq!(&from_raw, &in_ram);
    }

    #[test]
    fn truncation_is_always_rejected(
        format in arb_format(),
        records in proptest::collection::vec(arb_record(), 1..80),
        block_bytes in 1usize..128,
        cut_seed in 0usize..10_000,
    ) {
        let bytes = frame_with(format, &records, block_bytes);
        // Cut anywhere strictly inside the file: open must fail (the frame
        // walk covers every structure) and streaming must error too.
        let cut = 1 + (bytes.len() - 2) * cut_seed / 10_000;
        let truncated = bytes[..cut].to_vec();
        prop_assert!(TraceFile::from_bytes(truncated.clone()).is_err(), "cut={cut}");
        let streamed: Result<Vec<Record>, ReadError> = match TraceReader::new(truncated.as_slice()) {
            Ok(r) => r.collect(),
            Err(e) => Err(e),
        };
        prop_assert!(streamed.is_err(), "cut={cut}");
    }

    #[test]
    fn v2_bit_flips_are_always_rejected(
        records in proptest::collection::vec(arb_record(), 1..120),
        block_bytes in 1usize..128,
        byte_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere past the header: the file must either be
        // refused (open or decode) or still yield exactly the original
        // records — a flipped bit may never silently change the stream.
        // Payload flips trip the block CRC, index flips trip the index
        // CRC/audit, header-field flips trip the structural walk or the
        // footer count; only flips in ignored padding (e.g. the unused
        // bytes of the zero terminator) are absorbed, and those leave the
        // records untouched by construction.
        let bytes = frame(&records, block_bytes);
        let at = HEADER_BYTES + (bytes.len() - HEADER_BYTES - 1) * byte_seed / 10_000;
        let mut flipped = bytes;
        flipped[at] ^= 1 << bit;
        if let Ok(tf) = TraceFile::from_bytes(flipped) {
            let decoded: Result<Vec<Record>, ReadError> = tf.records().collect();
            if let Ok(got) = decoded {
                prop_assert_eq!(got, records, "flip at byte {} bit {}", at, bit);
            }
        }
    }

    #[test]
    fn v2_seek_matches_the_scanned_suffix(
        loops in 2u32..8,
        bodies in 1u32..20,
        block_bytes in 16usize..512,
    ) {
        let mut records = Vec::new();
        for l in 0..loops {
            records.push(Record::checkpoint(l, LoopBegin));
            for i in 0..bodies {
                records.push(Record::checkpoint(l, BodyBegin));
                records.push(Record::access(
                    0x40_0000 + 4 * l,
                    0x1000_0000 + (l << 16) + 4 * i,
                    AccessKind::Read,
                ));
                records.push(Record::checkpoint(l, BodyEnd));
            }
        }
        let tf = TraceFile::from_bytes(frame(&records, block_bytes)).unwrap();
        for l in 0..loops {
            let first = records
                .iter()
                .position(|r| matches!(r, Record::Checkpoint { loop_id, .. } if loop_id.0 == l))
                .unwrap();
            let got: Vec<Record> = tf
                .records_from_loop(LoopId(l))
                .expect("loop is in the trace, so the index must cover it")
                .map(Result::unwrap)
                .collect();
            prop_assert_eq!(&got[..], &records[first..], "loop {}", l);
        }
        prop_assert!(tf.records_from_loop(LoopId(loops)).is_none());
    }
}

#[test]
fn corrupt_headers_are_rejected_with_typed_errors() {
    let bytes = frame(&nest_trace(4, 2), 64);
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(TraceFile::from_bytes(bad_magic), Err(ReadError::BadMagic(_))));

    let mut future = bytes.clone();
    future[8] = 9;
    let err = TraceFile::from_bytes(future).unwrap_err();
    let ReadError::UnsupportedVersion(9) = err else {
        panic!("future versions must be refused, not guessed at");
    };
    assert!(err.to_string().contains("newer than this reader"), "{err}");

    // Version 0 was never assigned: "unknown", not "newer".
    let mut unknown = bytes.clone();
    unknown[8] = 0;
    let err = TraceFile::from_bytes(unknown).unwrap_err();
    assert!(matches!(err, ReadError::UnsupportedVersion(0)));
    assert!(err.to_string().contains("unknown"), "{err}");

    let mut reserved = bytes.clone();
    reserved[11] = 1;
    assert!(matches!(TraceFile::from_bytes(reserved), Err(ReadError::BadHeader)));

    // v2 payload corruption trips the block CRC at open time.
    let mut bad_payload = bytes;
    bad_payload[HEADER_BYTES + 12] ^= 0x7f;
    assert!(matches!(
        TraceFile::from_bytes(bad_payload),
        Err(ReadError::BadBlockCrc { offset: 16, .. })
    ));

    // v1 has no CRC: payload corruption surfaces as a typed decode error
    // with a file offset inside the corrupted block.
    let v1 = frame_with(FormatVersion::V1, &nest_trace(4, 2), 64);
    let mut bad_payload = v1;
    bad_payload[HEADER_BYTES + 8] = 0x7f;
    let tf = TraceFile::from_bytes(bad_payload).unwrap();
    let err = tf.records().find_map(Result::err).unwrap();
    let ReadError::Decode(d) = err else { panic!("want decode error, got {err}") };
    assert_eq!(d.offset, (HEADER_BYTES + 8) as u64);
}

#[test]
fn block_capacity_boundaries_round_trip_in_both_formats() {
    // The writer clamps any requested capacity into the readers' accepted
    // window; files written at the extremes (and just around the default)
    // must replay exactly in both formats.
    let records = nest_trace(12, 3);
    for format in FORMATS {
        for cap in [0usize, 1, file::DEFAULT_BLOCK_BYTES - 1, file::DEFAULT_BLOCK_BYTES, usize::MAX]
        {
            let bytes = frame_with(format, &records, cap);
            let tf = TraceFile::from_bytes(bytes.clone()).unwrap();
            assert!(tf.block_hint() <= 1 << 30, "{format} cap={cap}: hint must be clamped");
            let decoded: Vec<Record> = tf.records().map(Result::unwrap).collect();
            assert_eq!(decoded, records, "{format} cap={cap}");
            let streamed: Vec<Record> =
                TraceReader::new(bytes.as_slice()).unwrap().map(Result::unwrap).collect();
            assert_eq!(streamed, records, "{format} cap={cap}");
        }
    }
}

/// Profiles one workload, returning its trace and its online analysis.
fn profile(w: &foray_workloads::Workload) -> (Vec<Record>, foray::ForayGenOutput) {
    let prog = w.frontend().expect("workload compiles");
    let (_, records) =
        minic_sim::run(&prog, &minic_sim::SimConfig::default(), &w.inputs).expect("workload runs");
    let out = w.run().expect("pipeline runs");
    (records, out)
}

#[test]
fn workload_traces_replay_byte_identically_from_disk() {
    let dir = std::env::temp_dir().join("foray_trace_file_suite");
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    let mut expected = Vec::new();
    for w in foray_workloads::all(foray_workloads::Params::default()) {
        let (records, online) = profile(&w);
        let mut sizes = [0u64; 2];
        for (fi, format) in FORMATS.into_iter().enumerate() {
            let path = dir.join(format!("{}.{format}.ftrace", w.name));
            let written = file::write_file_with(&path, &records, format).unwrap();
            assert_eq!(written, records.len() as u64, "{} {format}", w.name);
            sizes[fi] = std::fs::metadata(&path).unwrap().len();

            let tf = TraceFile::open(&path).unwrap();
            assert_eq!(tf.version(), format, "{}", w.name);
            assert_eq!(tf.record_count(), records.len() as u64, "{}", w.name);
            let analysis = foray::analyze_source(&tf).unwrap();
            assert_eq!(analysis, online.analysis, "{} {format}", w.name);
            let model = ForayModel::extract(&analysis, &FilterConfig::default());
            assert_eq!(
                foray::codegen::emit(&model),
                online.code,
                "{} {format}: model code must be byte-identical",
                w.name
            );
            paths.push(path);
            expected.push(online.analysis.clone());
        }
        assert!(
            sizes[1] < sizes[0],
            "{}: v2 ({}) must be smaller than v1 ({})",
            w.name,
            sizes[1],
            sizes[0]
        );
    }

    // The batch fan-out sees the same analyses, in path order, for any
    // worker count — v1 and v2 files mixed in one batch.
    for workers in [1usize, 3, 0] {
        let results = foray::analyze_trace_files(&paths, workers, &AnalyzerConfig::default());
        assert_eq!(results.len(), expected.len());
        for ((result, want), path) in results.into_iter().zip(&expected).zip(&paths) {
            assert_eq!(&result.unwrap(), want, "workers={workers} path={}", path.display());
        }
    }

    // Missing files keep their slot as a typed error.
    let mut with_missing = paths.clone();
    with_missing.push(dir.join("missing.ftrace"));
    let results = foray::analyze_trace_files(&with_missing, 2, &AnalyzerConfig::default());
    assert!(results.last().unwrap().is_err());
    assert!(results[..results.len() - 1].iter().all(Result::is_ok));

    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn streaming_writer_on_a_profiling_run_matches_buffered_write() {
    // TraceWriter as the live simulation sink (the `trace record` path)
    // produces the same file a post-hoc write_file produces — in both
    // formats (v2 exercises the delta state and index bookkeeping under
    // record-at-a-time pressure).
    let w = foray_workloads::by_name("adpcmc", foray_workloads::Params::default()).unwrap();
    let prog = w.frontend().unwrap();
    let (_, records) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &w.inputs).unwrap();
    for format in FORMATS {
        let mut writer = TraceWriter::with_format(Vec::new(), format);
        minic_sim::run_with_sink(&prog, &minic_sim::SimConfig::default(), &w.inputs, &mut writer)
            .unwrap();
        assert!(writer.io_error().is_none());
        let live = writer.into_inner();

        let mut buffered = Vec::new();
        file::write_to_with(&mut buffered, &records, format).unwrap();
        assert_eq!(live, buffered, "{format}: live sink and buffered write must agree");
    }
}

#[test]
fn record_source_replay_counts_match() {
    let records = nest_trace(10, 3);
    let tf = TraceFile::from_bytes(frame(&records, 128)).unwrap();
    let mut sink = minic_trace::CountingSink::new();
    let n = (&tf).stream_into(&mut sink).unwrap();
    assert_eq!(n, records.len() as u64);
    assert_eq!(sink.total(), records.len() as u64);
    // ForayGen pipelines and file replays agree end to end on a tiny
    // program too (guards the CLI contract at the library level).
    let src = "int a[64]; void main() { int i; for (i = 0; i < 64; i++) { a[i] = i; } }";
    let out = ForayGen::new().run_source(src).unwrap();
    let prog = minic::frontend(src).unwrap();
    let (_, recs) = minic_sim::run(&prog, &minic_sim::SimConfig::default(), &[]).unwrap();
    let mut framed = Vec::new();
    file::write_to(&mut framed, &recs).unwrap();
    let tf = TraceFile::from_bytes(framed).unwrap();
    assert_eq!(foray::analyze_source(&tf).unwrap(), out.analysis);
}
