//! The SPARK-C program corpus: discovery, deterministic input generation,
//! end-to-end checking and design fingerprints.
//!
//! The `.spark` sources under `crates/bench/programs/` are the
//! parser-driven workloads of the benchmark suite — the first inputs to the
//! pipeline that are not baked into the binary. This module is shared by
//! the `sparkc` CLI (`--check`), the `frontend_corpus` integration test and
//! the experiment driver, so all three agree on what "the corpus passes"
//! means: every program compiles without diagnostics, synthesizes, and its
//! cycle-accurate RTL simulation matches the sequential interpreter on the
//! lowered program over seeded random inputs.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spark_core::SynthesisResult;
use spark_front::Compiled;
use spark_ir::{Env, Function, Interpreter, PortDirection, StorageClass};

/// The committed corpus directory (`crates/bench/programs`).
pub fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("programs")
}

/// All committed `.spark` corpus programs, sorted by file name.
pub fn corpus_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(programs_dir())
        .expect("crates/bench/programs exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().and_then(|e| e.to_str()) == Some("spark")).then_some(path)
        })
        .collect();
    paths.sort();
    paths
}

/// Builds a deterministic random input environment for `function`: every
/// input parameter (scalar or array) is bound to seeded random values of
/// its declared width.
pub fn random_env_for(function: &Function, seed: u64) -> Env {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = Env::new();
    for &param in &function.params {
        let var = &function.vars[param];
        match var.storage {
            StorageClass::Array { length } => {
                let contents = (0..length)
                    .map(|_| rng.gen::<u64>() & var.ty.mask())
                    .collect();
                env.set_array(&var.name, contents);
            }
            _ => env.set_scalar(&var.name, rng.gen::<u64>() & var.ty.mask()),
        }
    }
    env
}

/// Checks that the synthesized design's cycle-accurate RTL simulation
/// matches the sequential interpreter on the lowered (untransformed)
/// program, over one seeded random environment per element of `seeds`.
/// `top` names the function `result` was synthesized from (it may differ
/// from `compiled.top` when a driver overrides the top level). Primary
/// outputs and the frontend's own AST evaluator are all compared.
///
/// # Errors
/// Returns a human-readable description of the first divergence.
pub fn check_rtl_matches_interp(
    compiled: &Compiled,
    top: &str,
    result: &SynthesisResult,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<(), String> {
    let function = compiled
        .program
        .function(top)
        .ok_or_else(|| format!("`{top}` does not exist in the compiled program"))?;
    let inputs: Vec<(String, Env)> = seeds
        .into_iter()
        .map(|seed| (format!("seed {seed}"), random_env_for(function, seed)))
        .collect();
    check_oracles_agree(compiled, top, result, &inputs)
}

/// [`check_rtl_matches_interp`] over given input sets, each with the label
/// that names it in a report: the AST evaluator, the interpreter on the
/// lowered program and the RTL simulation must give every primary output
/// the same value.
///
/// # Errors
/// Returns a human-readable description of the first divergence.
pub fn check_oracles_agree(
    compiled: &Compiled,
    top: &str,
    result: &SynthesisResult,
    inputs: &[(String, Env)],
) -> Result<(), String> {
    let function = compiled
        .program
        .function(top)
        .ok_or_else(|| format!("`{top}` does not exist in the compiled program"))?;
    let outputs: Vec<(String, bool)> = function
        .vars
        .iter()
        .filter(|(_, v)| v.direction == PortDirection::Output)
        .map(|(_, v)| (v.name.clone(), v.is_array()))
        .collect();
    if outputs.is_empty() {
        return Err(format!(
            "`{top}` has no primary outputs to compare — corpus programs need at least one `out`"
        ));
    }
    let interpreter = Interpreter::new(&compiled.program);
    // One batch RTL simulation over the whole workload: the simulator
    // reuses its value tables across buffers instead of reallocating per run.
    let envs: Vec<Env> = inputs.iter().map(|(_, env)| env.clone()).collect();
    let outcomes = result.simulate_batch(&envs).map_err(|e| {
        // Cold path: re-identify the failing input for the report, since the
        // batch entry point only surfaces the first error.
        match inputs.iter().find(|(_, env)| result.simulate(env).is_err()) {
            Some((label, _)) => format!("RTL simulation failed ({label}): {e}"),
            None => format!("RTL simulation failed: {e}"),
        }
    })?;
    for ((label, env), rtl) in inputs.iter().zip(outcomes) {
        let interp = interpreter
            .run(top, env)
            .map_err(|e| format!("interpreter failed ({label}): {e}"))?;
        let direct = compiled
            .evaluate(top, env)
            .map_err(|e| format!("AST evaluator failed ({label}): {e}"))?;
        for (name, is_array) in &outputs {
            if *is_array {
                let want = interp.array(name).unwrap_or(&[]);
                let ast = direct.array(name).unwrap_or(&[]);
                let got = rtl.array(name).unwrap_or(&[]);
                if ast != want {
                    return Err(format!(
                        "AST evaluator disagrees with interpreter on `{name}` ({label}): {ast:?} vs {want:?}"
                    ));
                }
                if got != want {
                    return Err(format!(
                        "RTL disagrees with interpreter on `{name}` ({label}): {got:?} vs {want:?}"
                    ));
                }
            } else {
                let want = interp.scalar(name);
                let ast = direct.scalar(name);
                let got = rtl.scalar(name);
                if ast != want {
                    return Err(format!(
                        "AST evaluator disagrees with interpreter on `{name}` ({label}): {ast:?} vs {want:?}"
                    ));
                }
                if got != want {
                    return Err(format!(
                        "RTL disagrees with interpreter on `{name}` ({label}): {got:?} vs {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// FNV-1a over a canonical dump of the schedule, binding and datapath
/// report.
fn fnv64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Canonical fingerprint of everything scheduling and binding decided:
/// per-op control step, start/finish times and FU instance, the register
/// assignment, the FU packing and the rendered datapath report.
///
/// Operations are keyed by their position in program order
/// ([`Function::live_ops`]), not by arena id: how the arena numbers its
/// slots (dead ones included) is not part of the design. Registers are
/// keyed the same way, by the positions of the ops that write them, so
/// renumbering variables does not move the fingerprint.
///
/// Shared by the seed-equivalence test in `tests/ild_end_to_end.rs`, the
/// corpus drift gate in `tests/frontend_corpus.rs` and
/// `sparkc --emit fingerprint`.
pub fn synthesis_fingerprint(result: &SynthesisResult) -> u64 {
    use spark_ir::{OpId, SecondaryMap};
    use spark_sched::FuClass;
    let order = result.function.live_ops();
    let position: SecondaryMap<OpId, usize> =
        order.iter().enumerate().map(|(i, &op)| (op, i)).collect();
    let mut text = String::new();
    for (index, &op) in order.iter().enumerate() {
        let state = result
            .schedule
            .op_state
            .get(&op)
            .copied()
            .unwrap_or(usize::MAX);
        let start = result.schedule.op_start.get(&op).copied().unwrap_or(-1.0);
        let finish = result.schedule.op_finish.get(&op).copied().unwrap_or(-1.0);
        let instance = result
            .schedule
            .op_instance
            .get(&op)
            .copied()
            .unwrap_or(usize::MAX);
        text.push_str(&format!(
            "op{index}:{state}:{start:.3}:{finish:.3}:{instance}\n"
        ));
    }
    for (index, &op) in order.iter().enumerate() {
        let written = result.function.ops[op].def();
        if let Some(&reg) = written.and_then(|var| result.binding.register_of.get(&var)) {
            text.push_str(&format!("reg op{index}:{reg}\n"));
        }
    }
    for class in FuClass::ALL {
        if let Some(instances) = result.binding.fu_instances.get(&class) {
            for (i, fu) in instances.iter().enumerate() {
                let ops: Vec<String> = fu
                    .ops
                    .iter()
                    .map(|o| position.get(o).copied().unwrap_or(usize::MAX).to_string())
                    .collect();
                text.push_str(&format!("fu {class}/{i}: {}\n", ops.join(",")));
            }
        }
    }
    text.push_str(&result.report.to_string());
    fnv64(text.bytes())
}
