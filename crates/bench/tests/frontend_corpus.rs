//! End-to-end gate over the committed SPARK-C corpus
//! (`crates/bench/programs/*.spark`).
//!
//! Every corpus program must (1) compile without diagnostics, (2) lower to
//! IR that `spark_ir::verify` accepts, (3) synthesize under the coordinated
//! flow, (4) produce RTL whose cycle-accurate simulation matches both the
//! sequential interpreter on the lowered program and the frontend's own AST
//! evaluator on seeded random inputs, and (5) reproduce the schedule/binding
//! fingerprint committed in `programs/fingerprints.txt` — any drift in the
//! frontend, the transformations, the scheduler or the binder shows up here
//! as a named mismatch.
//!
//! The textual ILD is additionally pinned against its builder-constructed
//! twin: `ild_n8.spark` must fingerprint identically to
//! `spark_ild::build_ild_program(8)`.

use std::collections::BTreeMap;

use spark_bench::corpus::{
    check_oracles_agree, check_rtl_matches_interp, corpus_paths, programs_dir,
    synthesis_fingerprint,
};
use spark_core::{synthesize, synthesize_transformed, transform_program, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_ir::{verify, Constant, Env, FunctionBuilder, Interpreter, OpKind, Program, Type, Value};
use spark_transforms as xf;

/// The flow every corpus program is synthesized under (generous single-cycle
/// clock, the paper's microprocessor-block recipe).
fn corpus_flow() -> FlowOptions {
    FlowOptions::microprocessor_block(2000.0)
}

fn committed_fingerprints() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(programs_dir().join("fingerprints.txt"))
        .expect("programs/fingerprints.txt is committed");
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let (name, hex) = line
                .split_once(' ')
                .expect("fingerprint lines are `name hex`");
            (
                name.to_string(),
                u64::from_str_radix(hex.trim(), 16).expect("fingerprint is hex"),
            )
        })
        .collect()
}

#[test]
fn corpus_is_nonempty_and_fingerprint_file_covers_it() {
    let paths = corpus_paths();
    assert!(
        paths.len() >= 8,
        "expected at least 8 corpus programs, found {}",
        paths.len()
    );
    let fingerprints = committed_fingerprints();
    for path in &paths {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        assert!(
            fingerprints.contains_key(&stem),
            "`{stem}` missing from programs/fingerprints.txt — regenerate with \
             `sparkc {stem}.spark --emit fingerprint`"
        );
    }
    assert_eq!(
        fingerprints.len(),
        paths.len(),
        "fingerprints.txt lists programs that no longer exist"
    );
}

#[test]
fn every_corpus_program_compiles_synthesizes_and_simulates_correctly() {
    let fingerprints = committed_fingerprints();
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).expect("corpus file readable");
        let compiled = spark_front::compile(&source).unwrap_or_else(|diags| {
            panic!(
                "`{stem}` failed to compile: {}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        });
        for function in &compiled.program.functions {
            verify(function).unwrap_or_else(|e| panic!("`{stem}`/{}: {e:?}", function.name));
        }
        let result = synthesize(&compiled.program, &compiled.top, &corpus_flow())
            .unwrap_or_else(|e| panic!("`{stem}` failed to synthesize: {e}"));
        check_rtl_matches_interp(&compiled, &compiled.top, &result, 0..8)
            .unwrap_or_else(|e| panic!("`{stem}`: {e}"));
        let fingerprint = synthesis_fingerprint(&result);
        assert_eq!(
            fingerprint, fingerprints[&stem],
            "`{stem}` drifted from its committed fingerprint \
             ({fingerprint:016x} vs {:016x}) — if the change is intentional, \
             regenerate programs/fingerprints.txt",
            fingerprints[&stem]
        );
    }
}

/// Every corpus program in both flows at 10, 16 and 30 ns, clocks between
/// the ones the committed tables pin, where a state boundary falls inside
/// the designs' chains: the RTL simulation agrees with the interpreter and
/// the AST evaluator. Each program is transformed once per flow.
#[test]
fn every_corpus_program_simulates_correctly_at_intermediate_clocks() {
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        for options in [
            FlowOptions::microprocessor_block as fn(f64) -> FlowOptions,
            FlowOptions::asic_baseline,
        ] {
            let transformed =
                transform_program(&compiled.program, &compiled.top, &options(2000.0)).unwrap();
            for clock in [10.0, 16.0, 30.0] {
                let options = options(clock);
                let design = format!("`{stem}` {:?} at {clock} ns", options.mode);
                let result = synthesize_transformed(&transformed, &options)
                    .unwrap_or_else(|e| panic!("{design}: {e}"));
                check_rtl_matches_interp(&compiled, &compiled.top, &result, 0..8)
                    .unwrap_or_else(|e| panic!("{design}: {e}"));
            }
        }
    }
}

#[test]
fn textual_ild_fingerprints_identically_to_its_builder_twin() {
    // The acceptance bar for the frontend: the transliterated Figure 10
    // source must lower to a structurally identical function and hence an
    // identical schedule, binding and report.
    let source = std::fs::read_to_string(programs_dir().join("ild_n8.spark")).unwrap();
    let compiled = spark_front::compile(&source).expect("ild_n8 compiles");
    assert_eq!(compiled.top, "ild");
    let from_source = synthesize(&compiled.program, "ild", &corpus_flow()).unwrap();
    let from_builder = synthesize(&build_ild_program(8), ILD_FUNCTION, &corpus_flow()).unwrap();
    assert_eq!(
        synthesis_fingerprint(&from_source),
        synthesis_fingerprint(&from_builder),
        "parser-driven ILD diverged from the builder-constructed ILD"
    );
}

#[test]
fn multi_function_corpus_programs_exercise_inlining_end_to_end() {
    // The multi-function designs must actually flow through `inline_calls`:
    // more than one function in the compiled program, a non-noop inline
    // report, and no calls left in the transformed top level.
    for stem in ["ild_n8", "sad4", "row_minmax"] {
        let source = std::fs::read_to_string(programs_dir().join(format!("{stem}.spark"))).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        assert!(
            compiled.program.functions.len() >= 2,
            "`{stem}` should declare a callee next to its top level"
        );
        let result = synthesize(&compiled.program, &compiled.top, &corpus_flow()).unwrap();
        let inline = result
            .pass_log
            .iter()
            .find(|r| r.pass == "inline")
            .expect("inline pass ran");
        assert!(
            inline.changes > 0,
            "`{stem}` should inline at least one call, report: {inline}"
        );
        assert!(
            !result
                .function
                .live_ops()
                .iter()
                .any(|&op| matches!(result.function.ops[op].kind, spark_ir::OpKind::Call { .. })),
            "`{stem}` still contains calls after transformation"
        );
    }
    // The new designs exercise the array-aliasing and scalar-binding paths:
    // row_minmax inlines two array-taking callees per unrolled iteration.
    let source = std::fs::read_to_string(programs_dir().join("row_minmax.spark")).unwrap();
    let compiled = spark_front::compile(&source).unwrap();
    let result = synthesize(&compiled.program, &compiled.top, &corpus_flow()).unwrap();
    // Inlining precedes unrolling, so each of the two call sites (one per
    // callee) is folded into the caller exactly once.
    let inline = result.pass_log.iter().find(|r| r.pass == "inline").unwrap();
    assert_eq!(inline.changes, 2, "one inline per callee call site");
}

#[test]
fn corpus_programs_single_cycle_where_expected() {
    // The pure-dataflow kernels must reach the paper's single-cycle
    // architecture once fully unrolled and speculated.
    for stem in ["abs_diff", "dot4", "quantize", "running_max", "parity8"] {
        let source = std::fs::read_to_string(programs_dir().join(format!("{stem}.spark"))).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        let result = synthesize(&compiled.program, &compiled.top, &corpus_flow()).unwrap();
        assert!(
            result.is_single_cycle(),
            "`{stem}` should synthesize to a single cycle, took {} states",
            result.report.states
        );
    }
}

#[test]
fn guarded_stores_survive_the_multi_state_asic_flow() {
    // `guard_anti` reuses one condition temporary per unrolled iteration;
    // the baseline's multi-state schedules must keep each redefinition after
    // the store the previous value guards.
    let source = std::fs::read_to_string(programs_dir().join("guard_anti.spark")).unwrap();
    let compiled = spark_front::compile(&source).unwrap();
    for clock in [8.0, 40.0, 2000.0] {
        let result = synthesize(
            &compiled.program,
            &compiled.top,
            &FlowOptions::asic_baseline(clock),
        )
        .unwrap();
        check_rtl_matches_interp(&compiled, &compiled.top, &result, 0..8)
            .unwrap_or_else(|e| panic!("asic flow at {clock} ns: {e}"));
    }
}

#[test]
fn no_guard_reads_a_register_written_earlier_in_its_state() {
    // Section 3.1.2 for conditions: a register written in a state holds the
    // new value only from the next state on, so a later op of the same state
    // guarded by it must test the condition's wire-variable instead.
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        for clock in [8.0, 40.0, 2000.0] {
            for options in [
                FlowOptions::microprocessor_block(clock),
                FlowOptions::asic_baseline(clock),
            ] {
                let result = synthesize(&compiled.program, &compiled.top, &options)
                    .unwrap_or_else(|e| panic!("`{stem}` {:?} at {clock} ns: {e}", options.mode));
                let f = &result.function;
                for step in &result.controller.steps {
                    let mut written = Vec::new();
                    for scheduled in &step.ops {
                        for cond in scheduled.guard.terms.iter().filter_map(|(c, _)| c.as_var()) {
                            assert!(
                                f.vars[cond].is_wire() || !written.contains(&cond),
                                "`{stem}` {:?} at {clock} ns: state {} tests register `{}` \
                                 after writing it",
                                options.mode,
                                step.index,
                                f.vars[cond].name
                            );
                        }
                        written.extend(f.ops[scheduled.op].def());
                    }
                }
            }
        }
    }
}

#[test]
fn a_condition_tested_in_a_later_state_keeps_its_register() {
    // At 2 ns the baseline runs one adder per state: `gt` is computed in
    // state 0 and guards the write of `d` in state 3, so it needs a register
    // next to `d` (an output) and `s` (carried across states).
    let source = "void guardreg(u8 x, u8 y, out u8 d) {
        bool gt; u8 s;
        gt = x > y; s = x + y; s = s + x; s = s + y;
        if (gt) { d = s; } else { d = x; }
    }";
    let compiled = spark_front::compile(source).unwrap();
    let result = synthesize(
        &compiled.program,
        &compiled.top,
        &FlowOptions::asic_baseline(2.0),
    )
    .unwrap();
    assert_eq!(result.report.states, 4);
    let f = &result.function;
    let mut registered: Vec<&str> = (result.binding.registers.iter())
        .flat_map(|r| r.variables.iter().map(|&v| f.vars[v].name.as_str()))
        .collect();
    registered.sort_unstable();
    assert_eq!(registered, ["d", "gt", "s"]);
    assert_eq!(result.report.registers, 3);
    check_rtl_matches_interp(&compiled, &compiled.top, &result, 0..8).unwrap();
}

/// The edge shift amounts at width `w`: `w - 1`, `w`, 63, 64 and 200.
fn shift_amounts(w: u16) -> Vec<u64> {
    let mut amounts = vec![u64::from(w) - 1, u64::from(w), 63, 64, 200];
    amounts.sort_unstable();
    amounts.dedup();
    amounts
}

/// A SPARK-C program that applies every binary and unary operator, slices,
/// `?:` and shifts by variable and literal amounts to `u{w}` operands `a`
/// and `b`, a `u8` shift amount `k` and a condition `c`, one output each.
fn operator_table_source(w: u16) -> String {
    let mut params = vec![format!("u{w} a, u{w} b, u8 k, bool c")];
    let mut body = String::new();
    let mut row = |ty: &str, name: &str, expr: &str| {
        params.push(format!("out {ty} {name}"));
        body.push_str(&format!("  {name} = {expr};\n"));
    };
    let vector = format!("u{w}");
    for (name, op) in [("add", "+"), ("sub", "-"), ("mul", "*")] {
        row(&vector, name, &format!("a {op} b"));
    }
    for (name, op) in [("and", "&"), ("or", "|"), ("xor", "^")] {
        row(&vector, name, &format!("a {op} b"));
    }
    for (name, op) in [("shl", "<<"), ("shr", ">>")] {
        row(&vector, &format!("{name}_k"), &format!("a {op} k"));
        for n in shift_amounts(w).into_iter().filter(|&n| n < 200) {
            row(&vector, &format!("{name}_{n}"), &format!("a {op} {n}"));
        }
        row(&vector, &format!("one_{name}_k"), &format!("1 {op} k"));
        row(&vector, &format!("lit_{name}"), &format!("3 {op} 64"));
    }
    for (name, op) in [
        ("eq", "=="),
        ("ne", "!="),
        ("lt", "<"),
        ("le", "<="),
        ("gt", ">"),
        ("ge", ">="),
    ] {
        row("bool", name, &format!("a {op} b"));
    }
    row("bool", "land", "c && a < b");
    row("bool", "lor", "c || a == b");
    row("bool", "lnot", "!c");
    row(&vector, "inv", "~a");
    row("u1", "top", &format!("a[{}:{}]", w - 1, w - 1));
    row(&vector, "all", &format!("a[{}:0]", w - 1));
    if w > 1 {
        row(&format!("u{}", w - 1), "upper", &format!("a[{}:1]", w - 1));
    }
    row(&vector, "sel", "c ? a : b");
    row(&vector, "sel_mix", "a < b ? a - b : b << k");
    row(&vector, "mix", "(a + b) >> k");
    row(&vector, "mix_inv", "(a * b) ^ ~b");
    row("u64", "wide_add", "a + b");
    row("u64", "wide_shl", "a << k");
    row("u64", "wide_inv", "~a");
    row("u64", "wide_inv_sum", "~a + 0");
    row("u8", "byte_lnot", "!c");
    row("u8", "byte_lnot_lt", "!(a < b)");
    format!("void table({}) {{\n{body}}}\n", params.join(", "))
}

/// `~` and `!` complement within the operand's width in every spelling:
/// stored straight into a wider destination or through a sum, in the AST
/// evaluator, the interpreter and the RTL simulation of both flows.
#[test]
fn complements_keep_the_operand_width_in_a_wider_destination() {
    let source = "void inv(u8 a, bool c, out u64 direct, out u64 summed, out u8 lnot) {
        direct = ~a; summed = ~a + 0; lnot = !c;
    }";
    let compiled = spark_front::compile(source).unwrap();
    let interpreter = Interpreter::new(&compiled.program);
    for options in [
        FlowOptions::microprocessor_block(2000.0),
        FlowOptions::asic_baseline(2000.0),
    ] {
        let result = synthesize(&compiled.program, &compiled.top, &options).unwrap();
        for (a, c) in [(0u64, 0u64), (0x5a, 1), (0xff, 0)] {
            let env = Env::new().with_scalar("a", a).with_scalar("c", c);
            let ast = compiled.evaluate("inv", &env).unwrap();
            let interp = interpreter.run("inv", &env).unwrap();
            let rtl = result.simulate(&env).unwrap();
            let outputs = ["direct", "summed", "lnot"];
            let want = [!a & 0xff, !a & 0xff, 1 - c].map(Some);
            for (oracle, got) in [
                ("AST evaluator", outputs.map(|name| ast.scalar(name))),
                ("interpreter", outputs.map(|name| interp.scalar(name))),
                ("RTL", outputs.map(|name| rtl.scalar(name))),
            ] {
                assert_eq!(got, want, "{oracle}, {:?}, a={a} c={c}", options.mode);
            }
        }
    }
}

/// A builder-IR function (SPARK-C has no concatenation) whose outputs
/// concatenate a `u{w}` input `h` over a `u1` input, a 3-bit and a 32-bit
/// literal, a `u64` input (the high part shifts out) and, for constant
/// folding, two literals.
fn concat_table_program(w: u16) -> Program {
    let mut b = FunctionBuilder::new("cat");
    let h = b.param("h", Type::Bits(w));
    let bit = b.param("l1", Type::Bits(1));
    let wide = b.param("l64", Type::Bits(64));
    let lows = [
        (
            "cat_bit",
            Type::Bits((w + 1).min(64)),
            Value::Var(h),
            Value::Var(bit),
        ),
        (
            "cat_lit",
            Type::Bits(64),
            Value::Var(h),
            Value::Const(Constant::new(5, Type::Bits(3))),
        ),
        ("cat_word", Type::Bits(64), Value::Var(h), Value::word(7)),
        ("cat_wide", Type::Bits(64), Value::Var(h), Value::Var(wide)),
        ("cat_const", Type::Bits(64), Value::word(3), Value::word(9)),
    ];
    for (name, ty, high, low) in lows {
        let out = b.output(name, ty);
        b.assign(OpKind::Concat, out, vec![high, low]);
    }
    let mut program = Program::new();
    program.add_function(b.finish());
    program
}

/// Every operator at widths 1, 7, 8, 32 and 64 on the edge operands 0, 1
/// and the maximum, with shift amounts `w - 1`, `w`, 63, 64 and 200: the
/// AST evaluator, the interpreter and the RTL simulation agree in both
/// flows, on a single-cycle and a multi-state clock. Concatenation, which
/// only the IR has, is checked by the interpreter and the simulation.
#[test]
fn operator_width_table_agrees_across_the_oracles() {
    let flows = [
        FlowOptions::microprocessor_block(2000.0),
        FlowOptions::asic_baseline(2000.0),
        FlowOptions::microprocessor_block(8.0),
        FlowOptions::asic_baseline(8.0),
    ];
    // A bit, an odd width, a byte, a word and the widest vector.
    for w in [1, 7, 8, 32, 64] {
        let max = Type::Bits(w).mask();
        let operands = [0, 1, max];
        let source = operator_table_source(w);
        let compiled = spark_front::compile(&source)
            .unwrap_or_else(|d| panic!("u{w} table does not compile: {d:?}\n{source}"));
        let mut inputs = Vec::new();
        for a in operands {
            for b in operands {
                for k in shift_amounts(w) {
                    for c in [0, 1] {
                        let env = Env::new()
                            .with_scalar("a", a)
                            .with_scalar("b", b)
                            .with_scalar("k", k)
                            .with_scalar("c", c);
                        inputs.push((format!("u{w} a={a} b={b} k={k} c={c}"), env));
                    }
                }
            }
        }
        let cat = concat_table_program(w);
        let mut cat_inputs = Vec::new();
        for h in operands {
            for l1 in [0, 1] {
                for l64 in [0, u64::MAX] {
                    let env = Env::new()
                        .with_scalar("h", h)
                        .with_scalar("l1", l1)
                        .with_scalar("l64", l64);
                    cat_inputs.push((format!("u{w} h={h} l1={l1} l64={l64}"), env));
                }
            }
        }
        for options in &flows {
            let flow = format!("{:?} at {} ns", options.mode, options.clock_period_ns);
            let result = synthesize(&compiled.program, &compiled.top, options)
                .unwrap_or_else(|e| panic!("u{w} table, {flow}: {e}"));
            check_oracles_agree(&compiled, &compiled.top, &result, &inputs)
                .unwrap_or_else(|e| panic!("{flow}: {e}"));

            let result = synthesize(&cat, "cat", options).unwrap();
            let interpreter = Interpreter::new(&cat);
            for (label, env) in &cat_inputs {
                let want = interpreter.run("cat", env).unwrap();
                let got = result.simulate(env).unwrap();
                assert_eq!(want.scalars, got.scalars, "{label}, {flow}");
            }
        }
    }
}

/// The `DatapathReport` of every corpus design in both flows at 8, 40 and
/// 2000 ns, one line each: `program flow clock:` and then the report's
/// fields, `name value` joined by `; `.
fn current_reports() -> String {
    let mut table = String::new();
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        for (flow, options) in [
            (
                "spark",
                FlowOptions::microprocessor_block as fn(f64) -> FlowOptions,
            ),
            ("asic", FlowOptions::asic_baseline),
        ] {
            for clock in [8, 40, 2000] {
                let result = synthesize(&compiled.program, &compiled.top, &options(clock as f64))
                    .unwrap_or_else(|e| panic!("`{stem}` {flow} at {clock} ns: {e}"));
                let text = result.report.to_string();
                let fields: Vec<String> = text
                    .lines()
                    .skip(1)
                    .map(|line| {
                        let (name, value) = line
                            .split_once(':')
                            .expect("report lines are `name: value`");
                        format!("{} {}", name.trim(), value.trim())
                    })
                    .collect();
                table.push_str(&format!("{stem} {flow} {clock}: {}\n", fields.join("; ")));
            }
        }
    }
    table
}

/// Pins the quality of every corpus design, not just its hash: states,
/// critical path, FUs, registers, steering muxes and area. If a change to
/// the design is intentional, replace `programs/reports.txt` with the table
/// in the failure message.
#[test]
fn every_corpus_report_matches_the_committed_table() {
    let got = current_reports();
    let want = std::fs::read_to_string(programs_dir().join("reports.txt"))
        .expect("programs/reports.txt is committed");
    if got != want {
        let want_lines: Vec<&str> = want.lines().collect();
        let drifted: Vec<&str> = got
            .lines()
            .filter(|line| !want_lines.contains(line))
            .map(|line| line.split_once(':').map_or(line, |(key, _)| key))
            .collect();
        panic!("corpus reports drifted ({drifted:?}); the whole current table:\n{got}");
    }
}

/// Selects whose arms the clean-up makes equal: a forwarded copy in the
/// first, CSE and then a forwarded copy in the second (coordinated flow
/// only). Unless propagation reduces such a select to a copy of its arm, a
/// second propagation run still finds it.
const EQUAL_ARM_SELECTS: [(&str, &str); 2] = [
    (
        "equal_arms",
        "void equal_arms(bool c, u8 a, out u8 x) { u8 t; t = a; x = c ? a : t; }",
    ),
    (
        "cse_arms",
        "void cse_arms(bool c, u8 a, u8 b, out u8 x) { u8 s; s = a + b; x = c ? a + b : s; }",
    ),
];

/// The transformed top of the ILD at n=8 and n=16, of every corpus program
/// and of the [`EQUAL_ARM_SELECTS`], in both flows, is a fixed point of the
/// clean-up: no stand-alone full-rescan fine pass finds anything left to do
/// on these designs (CSE is checked only in the coordinated flow, the one
/// flow that runs it). The pass sequence of both flows on the ILD pins the
/// one-round recipe.
#[test]
fn transformed_tops_are_fixed_points_of_the_clean_up() {
    let mut designs: Vec<(String, Program, String)> = [8, 16]
        .into_iter()
        .map(|n| {
            (
                format!("ild n={n}"),
                build_ild_program(n),
                ILD_FUNCTION.to_string(),
            )
        })
        .collect();
    for path in corpus_paths() {
        let source = std::fs::read_to_string(&path).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        designs.push((stem, compiled.program, compiled.top));
    }
    for (name, source) in EQUAL_ARM_SELECTS {
        let compiled = spark_front::compile(source).unwrap();
        designs.push((name.to_string(), compiled.program, compiled.top));
    }
    for (name, program, top) in &designs {
        for options in [
            FlowOptions::microprocessor_block(2000.0),
            FlowOptions::asic_baseline(2000.0),
        ] {
            let transformed = transform_program(program, top, &options).unwrap();
            let mut function = transformed.program.function(top).unwrap().clone();
            let mut passes = vec![xf::propagation(&mut function)];
            if options.cse {
                passes.push(xf::common_subexpression_elimination(&mut function));
            }
            passes.push(xf::dead_code_elimination(&mut function));
            for report in passes {
                assert!(
                    report.is_noop(),
                    "`{name}` (cse {}): {} still changes {} op(s)",
                    options.cse,
                    report.pass,
                    report.changes
                );
            }
        }
    }

    let sequence = |options: &FlowOptions| -> Vec<String> {
        transform_program(&build_ild_program(8), ILD_FUNCTION, options)
            .unwrap()
            .pass_log
            .iter()
            .map(|report| report.pass.clone())
            .collect()
    };
    let clean_up = ["propagation", "dead-code-elimination"];
    let mut coordinated = vec!["while-to-for", "inline", "speculation", "loop-unroll-all"];
    coordinated.extend(clean_up);
    coordinated.extend([
        "speculation",
        "propagation",
        "cse",
        "propagation",
        "dead-code-elimination",
        "condition-isolation",
    ]);
    assert_eq!(
        sequence(&FlowOptions::microprocessor_block(2000.0)),
        coordinated
    );
    let mut baseline = vec!["while-to-for", "inline", "loop-unroll-all"];
    baseline.extend(clean_up);
    baseline.push("condition-isolation");
    assert_eq!(sequence(&FlowOptions::asic_baseline(2000.0)), baseline);
}
