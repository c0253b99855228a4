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
    ("abs_diff", 0x8367d2fb7e7b5729),
    ("cross_branch_guard", 0x7823eb405492cc0d),
    ("dot4", 0x2e310077aab93a9b),
    ("guard_anti", 0x7300ad3c0866c812),
    ("ild_n8", 0x5862227e2899b72d),
    ("ild_natural_n8", 0x46144c7aac1bfca9),
    ("matmul2", 0x0b3c20d042a9fc4f),
    ("parity8", 0x9ee4ebd4a9debc3c),
    ("quantize", 0x0867c5c1faaf41a0),
    ("row_minmax", 0xcf7393051b959976),
    ("running_max", 0xa6ffde86aebd4c90),
    ("sad4", 0x391ed5628696f07c),
    ("self_guard", 0xd569b3949da35c50),
    ("while_accumulator", 0x654fccf2d940eea6),
    ("width_const", 0x968e0ff91a24598d),
    ("width_copy", 0x899607294f622d0a),
    ("width_cse", 0x84da02ff1e06f40c),
    ("window_mark", 0x554f00f72d6e1296),
    ("ild8", 0xe8da7e9c81756175),
    ("ild8_baseline", 0x856200b1a18d6f57),
    ("ild16", 0x92a546487692899e),
    ("ild16_baseline", 0xc5b75aa99e47599b),
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

/// The names a VHDL text declares as `signal`s and process `variable`s,
/// each with the number of times it is declared.
fn declaration_counts(vhdl: &str) -> std::collections::BTreeMap<&str, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for line in vhdl.lines() {
        let line = line.trim_start();
        let Some(rest) = line
            .strip_prefix("signal ")
            .or_else(|| line.strip_prefix("variable "))
        else {
            continue;
        };
        let name = rest.split(" :").next().unwrap_or(rest);
        *counts.entry(name).or_insert(0) += 1;
    }
    counts
}

/// Every corpus design, in both flows at 8, 40 and 2000 ns, declares each
/// signal and variable name once. Nested unrolling names every copy of an
/// inner loop index `{index}_{k}`, so two variables can share a name; the
/// copies are dead, and the transformed program keeps no dead variable.
#[test]
fn every_declared_name_is_unique() {
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).expect("corpus file readable");
        let compiled = spark_front::compile(&source).expect("corpus program compiles");
        for clock in [8.0, 40.0, 2000.0] {
            for options in [
                FlowOptions::microprocessor_block(clock),
                FlowOptions::asic_baseline(clock),
            ] {
                let result = synthesize(&compiled.program, &compiled.top, &options)
                    .unwrap_or_else(|e| panic!("`{stem}` failed to synthesize: {e}"));
                let vhdl = result.vhdl();
                let repeated: Vec<&str> = declaration_counts(&vhdl)
                    .into_iter()
                    .filter(|&(_, count)| count > 1)
                    .map(|(name, _)| name)
                    .collect();
                assert!(
                    repeated.is_empty(),
                    "`{stem}` ({:?} at {clock} ns) declares {repeated:?} more than once",
                    options.mode
                );
            }
        }
    }
}
