//! Property-based tests over the core invariants of the reproduction.

#[path = "support/deps_reference.rs"]
mod deps_reference;
#[path = "support/wires_reference.rs"]
mod wires_reference;

use std::sync::OnceLock;

use proptest::prelude::*;
use spark_core::{
    synthesize, synthesize_transformed, transform_program, FlowOptions, SynthesisResult,
    TransformedProgram,
};
use spark_ild::{buffer_env, build_ild_program, decode_marks, ILD_FUNCTION};
use spark_ir::{
    verify, DefUseGraph, Env, Function, FunctionBuilder, Interpreter, OpKind, Program, Type, Value,
};
use spark_sched::{insert_wire_variables, schedule, Constraints, DependenceGraph, ResourceLibrary};
use spark_transforms as xf;

// ---------------------------------------------------------------------------
// Random structured-program generation for the def-use / worklist properties.
// ---------------------------------------------------------------------------

/// Builds a deterministic random function from a byte script: a mix of
/// straight-line arithmetic over a growing variable pool, conditionals
/// (then- and else-branches), small counted loops (some with a branch on
/// the loop index, which is constant per iteration once unrolled), repeated
/// expressions (CSE fodder), constant and variable copies (propagation
/// fodder), selects whose arms may become equal,
/// ending in writes to primary outputs so not everything is dead. Two condition flags may be rewritten inside
/// a branch and guard later code, also in the opposite branch; a pool
/// variable may be redefined under a guard and then unconditionally.
fn build_scripted_function(script: &[u8]) -> Function {
    build_function(script, true)
}

/// [`build_scripted_function`] when `extended` is set. Without it, the
/// older, narrower shapes: every `if` is on `cond` and has an empty else
/// branch, and there are no flags, redefinitions or selects.
fn build_function(script: &[u8], extended: bool) -> Function {
    let mut b = FunctionBuilder::new("gen");
    let p0 = b.param("p0", Type::Bits(8));
    let p1 = b.param("p1", Type::Bits(8));
    let cond = b.param("cond", Type::Bool);
    let out0 = b.output("out0", Type::Bits(8));
    let out1 = b.output("out1", Type::Bits(8));
    let mut flags = [cond; 2];
    if extended {
        flags = [b.var("f0", Type::Bool), b.var("f1", Type::Bool)];
        b.assign(OpKind::Lt, flags[0], vec![Value::Var(p0), Value::Var(p1)]);
        b.copy(flags[1], Value::Var(cond));
    }
    let mut pool = vec![p0, p1];
    // One entry per open conditional: whether it is in its else-branch.
    let mut open: Vec<bool> = Vec::new();
    let mut loops = 0usize;

    let mut bytes = script.iter().copied();
    while let Some(choice) = bytes.next() {
        let a = bytes.next().unwrap_or(1);
        let c = bytes.next().unwrap_or(2);
        let pick = |sel: u8, pool: &[spark_ir::VarId]| pool[sel as usize % pool.len()];
        match choice % if extended { 13 } else { 10 } {
            // Fresh computation over the pool.
            0..=2 => {
                let kinds = [
                    OpKind::Add,
                    OpKind::Sub,
                    OpKind::Mul,
                    OpKind::And,
                    OpKind::Xor,
                ];
                let kind = kinds[c as usize % kinds.len()].clone();
                let dest = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                let lhs = Value::Var(pick(a, &pool));
                let rhs = if c % 3 == 0 {
                    Value::word(u64::from(c % 7))
                } else {
                    Value::Var(pick(c, &pool))
                };
                b.assign(kind, dest, vec![lhs, rhs]);
                pool.push(dest);
            }
            // A constant copy (propagation fodder).
            3 => {
                let dest = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                b.copy(dest, Value::word(u64::from(a % 16)));
                pool.push(dest);
            }
            // A variable copy (propagation fodder).
            4 => {
                let dest = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                b.copy(dest, Value::Var(pick(a, &pool)));
                pool.push(dest);
            }
            // A deliberately repeated expression (CSE fodder).
            5 => {
                let lhs = Value::Var(pick(a, &pool));
                let rhs = Value::Var(pick(c, &pool));
                let d1 = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                b.assign(OpKind::Add, d1, vec![lhs, rhs]);
                pool.push(d1);
                let d2 = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                b.assign(OpKind::Add, d2, vec![lhs, rhs]);
                pool.push(d2);
            }
            // Open a conditional on `cond` or a flag (bounded nesting).
            6 if open.len() < 2 => {
                let guard = if c % 3 == 0 {
                    flags[a as usize % 2]
                } else {
                    cond
                };
                b.if_begin(Value::Var(guard));
                open.push(false);
            }
            // Switch the innermost conditional to its else-branch, or close it.
            7 if !open.is_empty() => {
                let in_else = open.last_mut().expect("a conditional is open");
                if a % 2 == 0 && !*in_else {
                    b.else_begin();
                    *in_else = true;
                }
                if !extended || !*in_else {
                    b.if_end();
                    open.pop();
                }
            }
            // A small counted loop accumulating into a fresh variable.
            8 if open.is_empty() && loops < 2 => {
                let i = b.var(&format!("i{loops}"), Type::Bits(8));
                let acc = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                b.copy(acc, Value::Var(pick(a, &pool)));
                b.for_begin(i, 0, Value::word(u64::from(c % 3) + 1), 1);
                b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
                if c % 2 == 0 {
                    let t = b.var(&format!("t{loops}"), Type::Bool);
                    let k = Value::word(u64::from(a % 3));
                    b.assign(OpKind::Lt, t, vec![Value::Var(i), k]);
                    b.if_begin(Value::Var(t));
                    let other = Value::Var(pick(a, &pool));
                    b.assign(OpKind::Xor, acc, vec![Value::Var(acc), other]);
                    b.if_end();
                }
                b.loop_end();
                pool.push(acc);
                loops += 1;
            }
            // Rewrite a condition flag where the script stands, possibly
            // inside a branch.
            9 if extended => {
                let lhs = Value::Var(pick(a, &pool));
                let rhs = Value::Var(pick(c, &pool));
                b.assign(OpKind::Lt, flags[c as usize % 2], vec![lhs, rhs]);
            }
            // Redefine a pool variable under a guard, then unconditionally.
            10 if open.is_empty() && pool.len() > 2 => {
                let target = pool[2 + a as usize % (pool.len() - 2)];
                let guard = if c % 2 == 0 {
                    cond
                } else {
                    flags[a as usize % 2]
                };
                b.if_begin(Value::Var(guard));
                let step = Value::word(u64::from(c % 5) + 1);
                b.assign(OpKind::Add, target, vec![Value::Var(target), step]);
                b.if_end();
                let other = Value::Var(pick(c, &pool));
                b.assign(OpKind::Xor, target, vec![Value::Var(target), other]);
            }
            // A select on `cond` or a flag whose arms the clean-up may make
            // equal: an arm and its copy, two equal sums (equal once CSE and
            // copy propagation ran), or two pool values.
            11 if extended => {
                let guard = if c % 2 == 0 {
                    cond
                } else {
                    flags[a as usize % 2]
                };
                let arm = pick(a, &pool);
                let [lhs, rhs] = match c % 3 {
                    0 => {
                        let copy = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                        b.copy(copy, Value::Var(arm));
                        pool.push(copy);
                        [arm, copy]
                    }
                    1 => {
                        let other = Value::Var(pick(c, &pool));
                        [0, 1].map(|_| {
                            let sum = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                            b.assign(OpKind::Add, sum, vec![Value::Var(arm), other]);
                            pool.push(sum);
                            sum
                        })
                    }
                    _ => [arm, pick(c, &pool)],
                };
                let dest = b.var(&format!("v{}", pool.len()), Type::Bits(8));
                let args = vec![Value::Var(guard), Value::Var(lhs), Value::Var(rhs)];
                b.assign(OpKind::Select, dest, args);
                pool.push(dest);
            }
            // Write an output from the pool.
            _ => {
                let dest = if a % 2 == 0 { out0 } else { out1 };
                b.copy(dest, Value::Var(pick(c, &pool)));
            }
        }
    }
    for _ in open.drain(..) {
        b.if_end();
    }
    // Always observe the two most recent pool values.
    b.copy(out0, Value::Var(pool[pool.len() - 1]));
    b.copy(out1, Value::Var(pool[pool.len() - 2]));
    b.finish()
}

/// The fine-grain clean-up as two rounds of the stand-alone full-rescan
/// entry points (each pass builds fresh analyses and examines everything):
/// the reference the pipeline's one clean-up round must match op for op.
fn reference_cleanup(f: &mut Function) {
    xf::propagation(f);
    xf::common_subexpression_elimination(f);
    xf::dead_code_elimination(f);
    xf::propagation(f);
    xf::dead_code_elimination(f);
}

/// Options running only the fine-grain clean-up: speculation and unrolling
/// are off, and the generated programs hold no `while` loops or calls for
/// the always-on source-level passes to rewrite.
fn fine_only_options() -> FlowOptions {
    let mut options = FlowOptions::microprocessor_block(100.0);
    options.speculate = false;
    options.unroll = false;
    options
}

/// A generated program, unrolled and scheduled at 50 ns: the function and
/// its dependence graph before wire insertion, then after it (the graph
/// rebuilt from the rewritten function).
fn pre_and_post_wire_graphs(script: &[u8]) -> [(Function, DependenceGraph); 2] {
    let mut f = build_scripted_function(script);
    xf::unroll_all_loops(&mut f).unwrap();
    let graph = DependenceGraph::build(&f).unwrap();
    let mut sched = schedule(
        &f,
        &graph,
        &ResourceLibrary::new(),
        &Constraints::microprocessor_block(50.0),
    )
    .unwrap();
    let pre_wire = f.clone();
    insert_wire_variables(&mut f, &graph, &mut sched);
    let post_wire = DependenceGraph::build(&f).unwrap();
    [(pre_wire, graph), (f, post_wire)]
}

/// A generated program through the public coarse and fine passes (the
/// coordinated flow's recipe, without the pipeline's final compaction), so
/// its arenas still hold dead ops and detached structure.
fn uncompacted_transformed_function(script: &[u8]) -> Function {
    let mut f = build_scripted_function(script);
    xf::speculate(&mut f);
    xf::unroll_all_loops(&mut f).unwrap();
    xf::propagation(&mut f);
    xf::dead_code_elimination(&mut f);
    xf::speculate(&mut f);
    reference_cleanup(&mut f);
    xf::isolate_conditions(&mut f);
    f
}

/// A program through the recipe without the clean-up before the second
/// speculation: the unrolled code is speculated while the loop index is
/// still a variable.
fn speculated_before_cleanup(mut f: Function) -> Function {
    xf::speculate(&mut f);
    xf::unroll_all_loops(&mut f).unwrap();
    xf::speculate(&mut f);
    reference_cleanup(&mut f);
    xf::isolate_conditions(&mut f);
    f
}

/// A `TransformedProgram` whose top function is `function` exactly as
/// given. The pipeline compacts what it returns, so the function is swapped
/// in afterwards; the scheduling context is built on first use, from the
/// swapped-in program.
fn as_transformed(function: Function) -> TransformedProgram {
    let mut program = Program::new();
    program.add_function(function);
    let mut transformed = transform_program(&program, "gen", &fine_only_options()).unwrap();
    transformed.program = program;
    transformed
}

/// Whether `compacted` is the text `full` with some `signal` declarations
/// deleted and nothing else changed.
fn only_signals_deleted(full: &str, compacted: &str) -> bool {
    let mut kept = compacted.lines().peekable();
    for line in full.lines() {
        if kept.peek() == Some(&line) {
            kept.next();
        } else if !line.starts_with("  signal ") {
            return false;
        }
    }
    kept.next().is_none()
}

/// The program-order positions of the ops in each controller state, in the
/// order the state runs them.
fn state_order(result: &SynthesisResult) -> Vec<Vec<usize>> {
    let order = result.function.live_ops();
    let position = |op| order.iter().position(|&o| o == op).unwrap_or(usize::MAX);
    result
        .controller
        .steps
        .iter()
        .map(|step| step.ops.iter().map(|o| position(o.op)).collect())
        .collect()
}

/// Per-state op order, per-op schedule rows, registers and report.
type DesignKey = (Vec<Vec<usize>>, Vec<String>, Vec<String>, String);

/// What a design point decided, as `synthesis_fingerprint` sees it, but
/// with every variable named by the program-order positions of the ops that
/// define it (an input by its name) instead of by arena id: the per-state
/// op order; per op its kind, state, start, finish and unit instance; the
/// register of every variable; the report. Two clean-ups that keep
/// different ones of two equal temporaries give the same key.
fn design_key(result: &SynthesisResult) -> DesignKey {
    let f = &result.function;
    let s = &result.schedule;
    let order = f.live_ops();
    let ops = order
        .iter()
        .map(|&op| {
            let (state, start) = (s.op_state.get(&op), s.op_start.get(&op));
            let (finish, instance) = (s.op_finish.get(&op), s.op_instance.get(&op));
            format!(
                "{:?} {state:?} {start:?} {finish:?} {instance:?}",
                f.ops[op].kind
            )
        })
        .collect();
    let mut registers: Vec<String> = f
        .vars
        .iter()
        .filter_map(|(var, decl)| {
            let register = result.binding.register_of.get(&var)?;
            let defs: Vec<usize> = (0..order.len())
                .filter(|&i| f.ops[order[i]].def() == Some(var))
                .collect();
            Some(if defs.is_empty() {
                format!("{} {register}", decl.name)
            } else {
                format!("{defs:?} {register}")
            })
        })
        .collect();
    registers.sort();
    (
        state_order(result),
        ops,
        registers,
        result.report.to_string(),
    )
}

const ILD_N: usize = 8;

fn synthesized_ild() -> &'static SynthesisResult {
    static RESULT: OnceLock<SynthesisResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        let program = build_ild_program(ILD_N as u32);
        synthesize(
            &program,
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(500.0),
        )
        .expect("ILD synthesis succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synthesized single-cycle ILD equals the golden software decoder on
    /// arbitrary instruction buffers.
    #[test]
    fn synthesized_ild_equals_golden_on_arbitrary_buffers(bytes in proptest::collection::vec(any::<u8>(), ILD_N)) {
        let mut buffer = vec![0u8; ILD_N + 4];
        buffer[1..=ILD_N].copy_from_slice(&bytes);
        let golden = decode_marks(&buffer, ILD_N);
        let rtl = synthesized_ild().simulate(&buffer_env(&buffer)).expect("simulation succeeds");
        let marks = rtl.array("Mark").expect("Mark present");
        for i in 1..=ILD_N {
            prop_assert_eq!(marks[i] != 0, golden[i], "byte {}", i);
        }
    }

    /// The fine-grain clean-up passes preserve the observable behaviour of a
    /// small parameterised conditional accumulator, for arbitrary inputs and
    /// arbitrary constants baked into the code.
    #[test]
    fn cleanup_passes_preserve_semantics(a in 0u64..256, b in 0u64..256, k in 0u64..16, c in proptest::bool::ANY) {
        let mut builder = FunctionBuilder::new("prog");
        let av = builder.param("a", Type::Bits(8));
        let bv = builder.param("b", Type::Bits(8));
        let cv = builder.param("c", Type::Bool);
        let out = builder.output("out", Type::Bits(8));
        let t1 = builder.var("t1", Type::Bits(8));
        let t2 = builder.var("t2", Type::Bits(8));
        builder.assign(OpKind::Add, t1, vec![Value::Var(av), Value::word(k)]);
        builder.assign(OpKind::Add, t2, vec![Value::Var(av), Value::word(k)]);
        builder.if_begin(Value::Var(cv));
        builder.assign(OpKind::Add, out, vec![Value::Var(t1), Value::Var(bv)]);
        builder.else_begin();
        builder.assign(OpKind::Sub, out, vec![Value::Var(t2), Value::Var(bv)]);
        builder.if_end();
        let original = builder.finish();

        let mut transformed = original.clone();
        xf::propagation(&mut transformed);
        xf::common_subexpression_elimination(&mut transformed);
        xf::propagation(&mut transformed);
        xf::dead_code_elimination(&mut transformed);
        xf::speculate(&mut transformed);
        xf::propagation(&mut transformed);
        xf::dead_code_elimination(&mut transformed);
        prop_assert!(verify(&transformed).is_ok());

        let env = Env::new()
            .with_scalar("a", a)
            .with_scalar("b", b)
            .with_scalar("c", c as u64);
        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(transformed);
        let before = Interpreter::new(&p0).run("prog", &env).unwrap();
        let after = Interpreter::new(&p1).run("prog", &env).unwrap();
        prop_assert_eq!(before.scalar("out"), after.scalar("out"));
    }

    /// Loop unrolling followed by constant propagation preserves the value of
    /// an accumulation loop for arbitrary bounds and increments.
    #[test]
    fn unrolling_preserves_accumulation(n in 1u64..24, step in 1u64..5, init in 0u64..100) {
        let build = || {
            let mut b = FunctionBuilder::new("acc");
            let i = b.var("i", Type::Bits(32));
            let acc = b.output("acc", Type::Bits(32));
            b.copy(acc, Value::word(init));
            b.for_begin(i, 1, Value::word(n), step as i64);
            b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
            b.loop_end();
            b.finish()
        };
        let original = build();
        let mut transformed = build();
        xf::unroll_all_loops(&mut transformed).unwrap();
        xf::propagation(&mut transformed);
        xf::dead_code_elimination(&mut transformed);
        prop_assert_eq!(transformed.loop_count(), 0);
        prop_assert!(verify(&transformed).is_ok());

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(transformed);
        let before = Interpreter::new(&p0).run("acc", &Env::new()).unwrap();
        let after = Interpreter::new(&p1).run("acc", &Env::new()).unwrap();
        prop_assert_eq!(before.scalar("acc"), after.scalar("acc"));
    }

    /// The length encoding invariant the whole case study rests on: every
    /// instruction is 1..=11 bytes long.
    #[test]
    fn encoding_length_bounds(b1 in any::<u8>(), b2 in any::<u8>(), b3 in any::<u8>(), b4 in any::<u8>()) {
        let len = spark_ild::encoding::calculate_length(b1, b2, b3, b4);
        prop_assert!((1..=spark_ild::encoding::MAX_INSTRUCTION_LENGTH).contains(&len));
    }

    /// The incrementally-maintained `DefUseGraph` equals a from-scratch
    /// rebuild after every fine-grain pass, on arbitrary generated programs
    /// (conditionals, loops, copies, repeated expressions). The pass-internal
    /// debug check asserts the same thing mid-run; this property also pins it
    /// at the suite level, over the wrapper entry points.
    #[test]
    fn defuse_graph_stays_consistent_through_every_pass(
        script in proptest::collection::vec(any::<u8>(), 64),
    ) {
        let mut f = build_scripted_function(&script);
        xf::unroll_all_loops(&mut f).unwrap();
        let mut state = xf::FineState::new(&f);
        xf::propagation_with(&mut f, &mut state, true);
        prop_assert!(state.graph.consistency_errors(&f).is_empty());
        xf::common_subexpression_elimination_with(&mut f, &mut state);
        prop_assert!(state.graph.consistency_errors(&f).is_empty());
        xf::propagation_with(&mut f, &mut state, true);
        prop_assert!(state.graph.consistency_errors(&f).is_empty());
        xf::dead_code_elimination_with(&mut f, &mut state);
        prop_assert!(state.graph.consistency_errors(&f).is_empty());
        prop_assert!(verify(&f).is_ok());
        // And the maintained graph answers queries identically to a fresh one.
        let fresh = DefUseGraph::compute(&f);
        for op in f.live_ops() {
            prop_assert_eq!(state.graph.block_of(op), fresh.block_of(op));
        }
    }

    /// Each stand-alone fine pass (propagation with folding on and off, CSE,
    /// DCE) reaches its own fixed point in one run: run again on its own
    /// output, it changes nothing. Checked on generated
    /// programs of both shapes, with their loops kept and after unrolling,
    /// so a rewrite that a pass misses (a rewritten reader it does not
    /// revisit, say) shows up as a second run's change.
    #[test]
    fn every_fine_pass_reaches_its_fixed_point_in_one_run(
        script in proptest::collection::vec(any::<u8>(), 96),
        extended in proptest::bool::ANY,
    ) {
        let passes: [fn(&mut Function) -> xf::Report; 4] = [
            xf::propagation,
            |f| {
                let mut state = xf::FineState::new(f);
                xf::propagation_with(f, &mut state, false)
            },
            xf::common_subexpression_elimination,
            xf::dead_code_elimination,
        ];
        let looped = build_function(&script, extended);
        let mut unrolled = looped.clone();
        xf::unroll_all_loops(&mut unrolled).unwrap();
        for (shape, original) in [("with loops", looped), ("unrolled", unrolled)] {
            for pass in passes {
                let mut f = original.clone();
                pass(&mut f);
                let again = pass(&mut f);
                prop_assert!(
                    again.is_noop(),
                    "{} {}: a second run made {} change(s)\n{}",
                    again.pass, shape, again.changes, f
                );
            }
        }
    }

    /// The worklist-driven pipeline (one clean-up round over shared
    /// analyses, as driven by the `spark-core` pass manager) produces the
    /// same final IR as the full-rescan reference sequence, and preserves
    /// interpreter semantics, on arbitrary generated programs.
    #[test]
    fn worklist_pipeline_matches_full_rescan_reference(
        script in proptest::collection::vec(any::<u8>(), 96),
        p0 in 0u64..256, p1 in 0u64..256, cond in proptest::bool::ANY,
    ) {
        let original = build_scripted_function(&script);

        // Reference: stand-alone full-rescan passes in pipeline order.
        let mut reference = original.clone();
        xf::unroll_all_loops(&mut reference).unwrap();
        reference_cleanup(&mut reference);
        xf::isolate_conditions(&mut reference);

        // Worklist pipeline: the pass manager's fine-grain phase.
        let mut program = Program::new();
        program.add_function(original.clone());
        let mut options = fine_only_options();
        options.unroll = true;
        let transformed = transform_program(&program, "gen", &options).unwrap();
        let managed = transformed.program.function("gen").unwrap();

        // Identical final IR: same printed function, op for op.
        prop_assert_eq!(reference.to_string(), managed.to_string());

        // And unchanged observable semantics vs. the untransformed original.
        let env = Env::new()
            .with_scalar("p0", p0)
            .with_scalar("p1", p1)
            .with_scalar("cond", cond as u64);
        let mut p_before = Program::new();
        p_before.add_function(original);
        let before = Interpreter::new(&p_before).run("gen", &env).unwrap();
        let after = Interpreter::new(&transformed.program).run("gen", &env).unwrap();
        prop_assert_eq!(before.scalar("out0"), after.scalar("out0"));
        prop_assert_eq!(before.scalar("out1"), after.scalar("out1"));
    }

    /// The interned-guard mutual-exclusion bitset answers every operation
    /// pair exactly as the term-by-term `Guard::mutually_exclusive`
    /// reference, on arbitrary generated programs (nested conditionals
    /// included), on the pre-wire graph and on the graph rebuilt after wire
    /// insertion.
    #[test]
    fn interned_guard_exclusion_matches_reference(
        script in proptest::collection::vec(any::<u8>(), 64),
    ) {
        let [(_, graph), (_, post_wire)] = pre_and_post_wire_graphs(&script);
        for g in [&graph, &post_wire] {
            for &a in &g.order {
                for &b in &g.order {
                    prop_assert_eq!(
                        g.mutually_exclusive(a, b),
                        g.guard_of(a).mutually_exclusive(&g.guard_of(b)),
                        "ops {:?} / {:?}", a, b
                    );
                }
            }
        }
    }

    /// The dependence graph's flat def/use histories give every operation
    /// the same incoming edges, in the same order, as the per-variable
    /// history scan, on generated programs before and after wire insertion.
    /// No edge joins two mutually exclusive operations: every producer lies
    /// on a backward trail of its consumer, which the chaining check relies
    /// on.
    #[test]
    fn flat_dependence_histories_match_per_variable_reference(
        script in proptest::collection::vec(any::<u8>(), 96),
    ) {
        for (stage, (f, graph)) in ["pre-wire", "post-wire"]
            .into_iter()
            .zip(pre_and_post_wire_graphs(&script))
        {
            let check = deps_reference::check_preds_match_reference(&f, &graph);
            prop_assert!(check.is_ok(), "{}: {:?}", stage, check);
            for &op in &graph.order {
                for dep in graph.preds_of(op) {
                    prop_assert!(
                        !graph.mutually_exclusive(dep.from, op),
                        "{}: {:?} edge into {:?} from an exclusive op", stage, dep, op
                    );
                }
            }
        }
    }

    /// Generated programs, synthesized in both flows at three clocks,
    /// simulate as the interpreter runs them. The programs redefine
    /// variables under guards before unconditional redefinitions and guard
    /// code on conditions written in branches (also inside the `if` they
    /// guard), so this checks the dependence graph's kill rule and
    /// condition isolation on the designs they schedule.
    #[test]
    fn generated_designs_simulate_like_the_interpreter(
        script in proptest::collection::vec(any::<u8>(), 96),
        p0 in 0u64..256, p1 in 0u64..256, cond in proptest::bool::ANY,
    ) {
        let mut program = Program::new();
        program.add_function(build_scripted_function(&script));
        let env = Env::new()
            .with_scalar("p0", p0)
            .with_scalar("p1", p1)
            .with_scalar("cond", cond as u64);
        let want = Interpreter::new(&program).run("gen", &env).unwrap();
        let flow = FlowOptions::microprocessor_block(100.0);
        let transformed = transform_program(&program, "gen", &flow).unwrap();
        for clock in [7.0, 20.0, 100.0] {
            for options in [
                FlowOptions::microprocessor_block(clock),
                FlowOptions::asic_baseline(clock),
            ] {
                let result = synthesize_transformed(&transformed, &options).unwrap();
                let got = result.simulate(&env).unwrap();
                for port in ["out0", "out1"] {
                    prop_assert_eq!(
                        want.scalar(port),
                        got.scalar(port),
                        "{} in {:?} at {} ns", port, options.mode, clock
                    );
                }
            }
        }
    }

    /// Compacting a transformed function changes no design decision: a
    /// generated program taken through the public passes, scheduled in both
    /// flows at three clocks, gives the same `design_key` with and without
    /// `Function::compact`, and the same VHDL text except for the `signal`
    /// declarations of the variables compaction drops.
    #[test]
    fn compaction_preserves_every_design_point(
        script in proptest::collection::vec(any::<u8>(), 96),
    ) {
        let uncompacted = uncompacted_transformed_function(&script);
        let mut compacted = uncompacted.clone();
        compacted.compact();
        prop_assert_eq!(compacted.live_op_count(), compacted.ops.len());
        prop_assert!(verify(&compacted).is_ok());
        let uncompacted = as_transformed(uncompacted);
        let compacted = as_transformed(compacted);
        for clock in [7.0, 20.0, 100.0] {
            for options in [
                FlowOptions::microprocessor_block(clock),
                FlowOptions::asic_baseline(clock),
            ] {
                let want = synthesize_transformed(&uncompacted, &options);
                let got = synthesize_transformed(&compacted, &options);
                match (want, got) {
                    (Ok(want), Ok(got)) => {
                        prop_assert_eq!(
                            design_key(&want),
                            design_key(&got),
                            "{:?} at {} ns", options.mode, clock
                        );
                        prop_assert!(
                            only_signals_deleted(&want.vhdl(), &got.vhdl()),
                            "{:?} at {} ns", options.mode, clock
                        );
                    }
                    (want, got) => prop_assert_eq!(
                        want.err().map(|e| e.to_string()),
                        got.err().map(|e| e.to_string())
                    ),
                }
            }
        }
    }

    /// Cleaning up the unrolled code before the second speculation changes
    /// no design decision: generated programs give the same per-state op
    /// order and the same program-order schedule, binding and report, in
    /// both flows at three clocks, as when the unrolled code is speculated
    /// first. The variables may be numbered differently, so the design is
    /// compared by `design_key`, not by `synthesis_fingerprint`. It draws
    /// the generator's narrower shapes: on the extended ones the two
    /// recipes can keep different ones of two equal expressions, which
    /// changes an operand order or leaves one more copy.
    #[test]
    fn cleanup_before_second_speculation_preserves_every_design_point(
        script in proptest::collection::vec(any::<u8>(), 96),
    ) {
        let function = build_function(&script, false);
        let speculated_first = as_transformed(speculated_before_cleanup(function.clone()));
        let mut program = Program::new();
        program.add_function(function);
        let flow = FlowOptions::microprocessor_block(100.0);
        let cleaned_first = transform_program(&program, "gen", &flow).unwrap();
        for clock in [7.0, 20.0, 100.0] {
            for options in [
                FlowOptions::microprocessor_block(clock),
                FlowOptions::asic_baseline(clock),
            ] {
                let want = synthesize_transformed(&speculated_first, &options);
                let got = synthesize_transformed(&cleaned_first, &options);
                match (want, got) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(
                        design_key(&want),
                        design_key(&got),
                        "{:?} at {} ns", options.mode, clock
                    ),
                    (want, got) => prop_assert_eq!(
                        want.err().map(|e| e.to_string()),
                        got.err().map(|e| e.to_string())
                    ),
                }
            }
        }
    }

    /// One-pass wire insertion rewrites generated programs exactly as the
    /// nested-table reference does: same op ids and operands, block op
    /// lists, body node order, schedule entries and report, at clocks from
    /// several states down to one.
    #[test]
    fn one_pass_wires_match_nested_table_reference(
        script in proptest::collection::vec(any::<u8>(), 96),
    ) {
        let mut f = build_scripted_function(&script);
        xf::unroll_all_loops(&mut f).unwrap();
        let graph = DependenceGraph::build(&f).unwrap();
        for clock in [6.0, 12.0, 50.0] {
            let sched = schedule(
                &f,
                &graph,
                &ResourceLibrary::new(),
                &Constraints::microprocessor_block(clock),
            )
            .unwrap();
            let check = wires_reference::check_wires_match_reference(&f, &graph, &sched);
            prop_assert!(check.is_ok(), "{} ns: {:?}", clock, check.err());
        }
    }

    /// `SecondaryMap` round-trips an arbitrary insert/remove script against a
    /// `BTreeMap` model: same final contents, same `get` answers, same
    /// key-ordered iteration.
    #[test]
    fn secondary_map_matches_btreemap_model(
        keys in proptest::collection::vec(0usize..48, 64),
        values in proptest::collection::vec(any::<u64>(), 64),
        removes in proptest::collection::vec(proptest::bool::ANY, 64),
    ) {
        use std::collections::BTreeMap;
        use spark_ir::{Id, SecondaryMap};
        type Key = Id<u8>;

        let mut dense: SecondaryMap<Key, u64> = SecondaryMap::new();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();
        for ((&raw, &value), &remove) in keys.iter().zip(&values).zip(&removes) {
            let key = Key::from_raw(raw as u32);
            if remove {
                prop_assert_eq!(dense.remove(&key), model.remove(&key));
            } else {
                prop_assert_eq!(dense.insert(key, value), model.insert(key, value));
            }
            prop_assert_eq!(dense.len(), model.len());
        }
        for raw in 0..64u32 {
            let key = Key::from_raw(raw);
            prop_assert_eq!(dense.get(&key), model.get(&key));
            prop_assert_eq!(dense.contains_key(&key), model.contains_key(&key));
        }
        let dense_pairs: Vec<(Key, u64)> = dense.iter().map(|(k, &v)| (k, v)).collect();
        let model_pairs: Vec<(Key, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(dense_pairs, model_pairs, "iteration order and contents agree");
        let rebuilt: SecondaryMap<Key, u64> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(rebuilt, dense);
    }
}
