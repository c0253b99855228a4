//! Byte-level pin of the emitted VHDL.
//!
//! The schedule/binding fingerprints in `programs/fingerprints.txt` say
//! nothing about the text the emitter writes, so a change to
//! `spark_rtl::VhdlEmitter` could silently alter the deliverable. This test
//! hashes `SynthesisResult::vhdl()` (FNV-1a, 64 bit) for every corpus
//! program and for the builder-constructed ILD, under both the coordinated
//! single-cycle flow and the multi-state ASIC baseline, and compares against
//! committed values. If a change to the emitted text is intentional, update
//! the table from the `got` values in the failure message.

use spark_bench::corpus::corpus_paths;
use spark_core::{synthesize, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};

/// `(design, FNV-1a 64 of its VHDL)`.
const GOLDEN: &[(&str, u64)] = &[
    ("abs_diff", 0x55cc630b3388f28f),
    ("dot4", 0xee6d1ec000c74b62),
    ("guard_anti", 0x4248cd261e0507f3),
    ("ild_n8", 0xf772756ab5573ffc),
    ("ild_natural_n8", 0xdc760163c7d57d12),
    ("matmul2", 0xe7071f7d75d6eaf9),
    ("parity8", 0x307141d73393258e),
    ("quantize", 0x53e182ef4111d9f2),
    ("row_minmax", 0xa39854302f4c364f),
    ("running_max", 0x2be488853a1acfcb),
    ("sad4", 0xff39f3067ad0db71),
    ("while_accumulator", 0x58071f0c5342bd35),
    ("width_const", 0xeb53081ac16720a3),
    ("width_copy", 0x39fddd1a5820b2c8),
    ("width_cse", 0xe4b315e368789cda),
    ("window_mark", 0xdc188319f7bcae42),
    ("ild8", 0x745131dd5560f252),
    ("ild8_baseline", 0x136b299c38c344a4),
    ("ild16", 0x00777d2fede8a11c),
    ("ild16_baseline", 0x0173091611b9a9f3),
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes the VHDL of every pinned design, keyed as in [`GOLDEN`].
fn current_hashes() -> Vec<(String, u64)> {
    let mut hashes = Vec::new();
    let corpus_flow = FlowOptions::microprocessor_block(2000.0);
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).expect("corpus file readable");
        let compiled = spark_front::compile(&source).expect("corpus program compiles");
        let result = synthesize(&compiled.program, &compiled.top, &corpus_flow)
            .unwrap_or_else(|e| panic!("`{stem}` failed to synthesize: {e}"));
        hashes.push((stem, fnv64(result.vhdl().as_bytes())));
    }
    for n in [8, 16] {
        let program = build_ild_program(n);
        let spark = synthesize(&program, ILD_FUNCTION, &corpus_flow).unwrap();
        hashes.push((format!("ild{n}"), fnv64(spark.vhdl().as_bytes())));
        let baseline =
            synthesize(&program, ILD_FUNCTION, &FlowOptions::asic_baseline(20.0)).unwrap();
        hashes.push((
            format!("ild{n}_baseline"),
            fnv64(baseline.vhdl().as_bytes()),
        ));
    }
    hashes
}

#[test]
fn emitted_vhdl_is_byte_identical_to_the_pinned_hashes() {
    let got = current_hashes();
    let table: String = got
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(name, hash)| (name.to_string(), hash))
        .collect();
    assert_eq!(got, want, "emitted VHDL drifted; got:\n{table}");
}
