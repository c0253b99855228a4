//! `insert_wire_variables` rewrites in one pass: a flat access list sorted
//! by `(variable, state)`, with commit copies and initializers spliced in at
//! the end. This pins it to the nested-table reference it replaced on the
//! transformed ILD, from a deep multi-state schedule to a single cycle, and
//! on every corpus design; and it checks on the corpus that every commit
//! copy writes a register that something reads.

#[path = "support/wires_reference.rs"]
mod wires_reference;

use std::collections::{BTreeMap, BTreeSet};

use spark_bench::corpus::corpus_paths;
use spark_core::{synthesize_transformed, transform_program, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_ir::{Function, PortDirection, VarId};
use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary, Schedule, WireReport};
use wires_reference::check_wires_match_reference;

#[test]
fn ild_wires_match_the_nested_table_reference() {
    let library = ResourceLibrary::new();
    for n in [8, 16] {
        let program = build_ild_program(n);
        let options = FlowOptions::microprocessor_block(2000.0);
        let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
        let top = transformed.program.function(ILD_FUNCTION).unwrap();
        let graph = transformed.dependence_graph().unwrap();
        let mut total = WireReport::default();
        for clock in [8.0, 30.0, 120.0, 2000.0] {
            let constraints = Constraints::microprocessor_block(clock);
            let schedule = schedule(top, graph, &library, &constraints)
                .unwrap_or_else(|e| panic!("n={n} at {clock} ns: {e}"));
            let report = check_wires_match_reference(top, graph, &schedule)
                .unwrap_or_else(|e| panic!("n={n} at {clock} ns: {e}"));
            total.commit_copies += report.commit_copies;
            total.initializers += report.initializers;
        }
        // The sweep splices both kinds of copy.
        assert!(
            total.commit_copies > 0 && total.initializers > 0,
            "n={n}: {total:?}"
        );
    }
}

/// The variables of `top` whose registers something reads under
/// `schedule`, by one program-order sweep: (a) the ports, (b) every operand
/// that no earlier op of its state writes (an op reads its operands before
/// it writes), (c) every guard condition, and (d) every operand or guard
/// read after a guarded first write of its state, whose wire is
/// pre-initialised from the register.
fn registers_read(top: &Function, graph: &DependenceGraph, schedule: &Schedule) -> BTreeSet<VarId> {
    let mut read: BTreeSet<VarId> = (top.vars.iter())
        .filter(|(_, v)| v.direction != PortDirection::Internal)
        .map(|(id, _)| id)
        .collect();
    // Per variable and state, whether its first write there is guarded.
    let mut first_write: BTreeMap<(VarId, usize), bool> = BTreeMap::new();
    for &op in &graph.order {
        let Some(&state) = schedule.op_state.get(&op) else {
            continue;
        };
        let guard = graph.guard_of(op);
        read.extend(guard.terms.iter().filter_map(|(c, _)| c.as_var()));
        let operation = &top.ops[op];
        read.extend(
            operation
                .uses_iter()
                .filter(|&v| first_write.get(&(v, state)) != Some(&false)),
        );
        if let Some(defined) = operation.def() {
            (first_write.entry((defined, state))).or_insert(!guard.is_unconditional());
        }
    }
    read
}

/// Every corpus design in both flows at 8, 16, 40 and 2000 ns: the one-pass
/// rewrite matches the reference, and every commit copy (`register = wire`)
/// of the synthesized design writes a register that [`registers_read`]
/// says is read.
#[test]
fn corpus_commit_copies_write_only_registers_that_are_read() {
    let library = ResourceLibrary::new();
    let mut total = WireReport::default();
    for path in corpus_paths() {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(&path).unwrap();
        let compiled = spark_front::compile(&source).unwrap();
        for (options, constraints) in [
            (
                FlowOptions::microprocessor_block as fn(f64) -> FlowOptions,
                Constraints::microprocessor_block as fn(f64) -> Constraints,
            ),
            (FlowOptions::asic_baseline, Constraints::asic_baseline),
        ] {
            let transformed =
                transform_program(&compiled.program, &compiled.top, &options(2000.0)).unwrap();
            let top = transformed.program.function(&compiled.top).unwrap();
            let graph = transformed.dependence_graph().unwrap();
            for clock in [8.0, 16.0, 40.0, 2000.0] {
                let options = options(clock);
                let design = format!("`{stem}` {:?} at {clock} ns", options.mode);
                let pre_wire = schedule(top, graph, &library, &constraints(clock))
                    .unwrap_or_else(|e| panic!("{design}: {e}"));
                check_wires_match_reference(top, graph, &pre_wire)
                    .unwrap_or_else(|e| panic!("{design}: {e}"));
                let read = registers_read(top, graph, &pre_wire);
                let result = synthesize_transformed(&transformed, &options).unwrap();
                let f = &result.function;
                // The pass appends its copies to the op arena; a commit
                // copy is one of them that writes a register.
                let added = f
                    .live_ops()
                    .into_iter()
                    .filter(|op| op.index() >= top.ops.len());
                for dest in added.filter_map(|op| f.ops[op].dest) {
                    assert!(
                        f.vars[dest].is_wire() || read.contains(&dest),
                        "{design}: nothing reads `{}`, yet a commit copy writes it",
                        f.vars[dest].name
                    );
                }
                total.commit_copies += result.wire_report.commit_copies;
                total.producers_rewritten += result.wire_report.producers_rewritten;
            }
        }
    }
    // The corpus both keeps commits and drops some.
    assert!(
        0 < total.commit_copies && total.commit_copies < total.producers_rewritten,
        "{total:?}"
    );
}
