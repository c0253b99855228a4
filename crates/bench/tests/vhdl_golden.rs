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
    ("abs_diff", 0x49ded91ce3c3c0ef),
    ("cross_branch_guard", 0x308695bc58ec713c),
    ("dot4", 0xb27a3658b86ae444),
    ("guard_anti", 0x24da460ece1dc95b),
    ("ild_n8", 0xbcd84ae851414a36),
    ("ild_natural_n8", 0xbbbb5bb9a69d05f4),
    ("matmul2", 0x4ebbea87ce169475),
    ("parity8", 0x5664211441e2ad72),
    ("quantize", 0xb910c7889693b590),
    ("row_minmax", 0xd11706d31b7c588d),
    ("running_max", 0xc66f048d237b23cd),
    ("sad4", 0x58c7f3a1a4d61c4b),
    ("while_accumulator", 0xb9b229dbe678c69d),
    ("width_const", 0xeb53081ac16720a3),
    ("width_copy", 0xfcd9ca3e51f40d8e),
    ("width_cse", 0x84da02ff1e06f40c),
    ("window_mark", 0xae837f6c2032f042),
    ("ild8", 0xeace4977e7795fb2),
    ("ild8_baseline", 0x347c48f944d1de48),
    ("ild16", 0x7dc8664d812e8860),
    ("ild16_baseline", 0x4053b377dc47cf93),
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
