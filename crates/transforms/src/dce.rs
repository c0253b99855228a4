//! Dead code elimination.
//!
//! The paper relies on a dead-code-elimination pass to remove the variable
//! copies left behind by constant propagation, copy propagation and the
//! wire-variable insertion of Section 3.1.2 ("a dead code elimination pass
//! later removes any unnecessary variables and variable copies").

use spark_ir::{Function, PortDirection, Rewriter};

use crate::fine::{FineState, OpQueue};
use crate::report::Report;

/// Removes operations whose results are never observed.
///
/// Stand-alone entry point: builds fresh analyses and runs
/// [`dead_code_elimination_with`].
///
/// An operation is dead when it has no side effects and either has no
/// destination or its destination is an internal variable with no live
/// readers. Array writes are removed only when the whole array is internal
/// and never read. Removal cascades through a worklist: erasing one
/// operation releases its operands, whose definitions are re-examined in
/// turn — the classic mark-and-cascade formulation, reaching the same fixed
/// point the round-based recompute implementation did.
pub fn dead_code_elimination(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    dead_code_elimination_with(function, &mut state)
}

/// Worklist-driven dead code elimination over an incrementally maintained
/// [`FineState`]: every live operation is examined once, in program order,
/// and each erasure requeues the definitions of the operands that lost
/// their last reader.
pub fn dead_code_elimination_with(function: &mut Function, state: &mut FineState) -> Report {
    let mut report = Report::new("dead-code-elimination", &function.name);
    let FineState { graph, .. } = state;
    let mut queue = OpQueue::of(function.live_ops());
    let mut rw = Rewriter::new(function, graph);

    while let Some(op_id) = queue.pop() {
        if rw.function().ops[op_id].dead {
            continue;
        }
        let op = &rw.function().ops[op_id];
        let victim = match &op.kind {
            kind if !kind.has_side_effects() => match op.dest {
                None => true,
                Some(dest) => rw.graph().is_dead(rw.function(), dest),
            },
            spark_ir::OpKind::ArrayWrite { array } => {
                rw.function().vars[*array].direction != PortDirection::Output
                    && rw.graph().uses_of(*array).is_empty()
            }
            _ => false,
        };
        if !victim {
            continue;
        }
        let released = rw.function().ops[op_id].uses();
        rw.erase_op(op_id);
        report.add(1);
        // Cascade: operands that lost their last reader may have dead
        // definitions now.
        for var in released {
            if rw.graph().uses_of(var).is_empty() {
                for &def in rw.graph().defs_of(var) {
                    queue.push(def);
                }
            }
        }
    }

    state.debug_check(function);
    // Remove structure (blocks, ifs, loops) that became empty. Region-list
    // pruning does not change the region chain or relative order of any
    // surviving operation, so the shared `Positions` stay valid.
    let pruned = function.prune_empty();
    if pruned > 0 {
        report.note(format!("pruned {pruned} empty node(s)"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    #[test]
    fn removes_unused_chain() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]); // feeds y only
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]); // unused
        b.copy(out, Value::Var(a));
        let mut f = b.finish();
        // x is examined first and survives while y reads it; erasing y
        // cascades back to it.
        let report = dead_code_elimination(&mut f);
        assert_eq!(report.changes, 2, "both x and y definitions removed");
        assert_eq!(f.live_op_count(), 1);
    }

    #[test]
    fn keeps_output_writes_and_side_effects() {
        let mut b = FunctionBuilder::new("f");
        let mark = b.output_array("Mark", Type::Bool, 4);
        let out = b.output("o", Type::Bits(8));
        b.array_write(mark, Value::word(0), Value::bool(true));
        b.copy(out, Value::word(3));
        b.ret(Value::word(0));
        let mut f = b.finish();
        let report = dead_code_elimination(&mut f);
        assert!(report.is_noop());
        assert_eq!(f.live_op_count(), 3);
    }

    #[test]
    fn removes_writes_to_internal_unread_array() {
        let mut b = FunctionBuilder::new("f");
        let scratch = b.array("scratch", Type::Bits(8), 4);
        b.array_write(scratch, Value::word(0), Value::word(1));
        let mut f = b.finish();
        dead_code_elimination(&mut f);
        assert_eq!(f.live_op_count(), 0);
    }

    #[test]
    fn empty_conditionals_are_pruned() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::word(1));
        b.if_end();
        let mut f = b.finish();
        assert_eq!(f.if_count(), 1);
        dead_code_elimination(&mut f);
        assert_eq!(f.live_op_count(), 0);
        assert_eq!(f.if_count(), 0, "the now-empty if node is pruned");
    }

    #[test]
    fn keeps_reads_feeding_outputs() {
        let mut b = FunctionBuilder::new("f");
        let buf = b.param_array("buf", Type::Bits(8), 4);
        let out = b.output("o", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        b.array_read(x, buf, Value::word(1));
        b.copy(out, Value::Var(x));
        let mut f = b.finish();
        dead_code_elimination(&mut f);
        assert_eq!(f.live_op_count(), 2);
    }

    #[test]
    fn seeded_run_cascades_from_released_definitions() {
        // out = y; y = x + 1; x = a + 1: the chain is live until an edit
        // on the shared state cuts its tail.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        let def_x = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        let def_y = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        let tail = b.copy(out, Value::Var(y));
        let mut f = b.finish();

        let mut state = FineState::new(&f);
        let report = dead_code_elimination_with(&mut f, &mut state);
        assert!(report.is_noop(), "everything feeds the output");

        // Cut the chain: out now copies `a` directly (as copy propagation
        // would), releasing y. DCE over the same state sees the edit and
        // cascades from y's definition back to x's.
        let mut rw = Rewriter::new(&mut f, &mut state.graph);
        rw.replace_operand(tail, 0, Value::Var(a));
        let report = dead_code_elimination_with(&mut f, &mut state);
        assert_eq!(report.changes, 2, "x and y cascade away");
        assert!(f.ops[def_x].dead && f.ops[def_y].dead);
        assert_eq!(f.live_op_count(), 1);
    }
}
