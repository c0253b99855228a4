//! Copy propagation.
//!
//! The speculation and wire-variable passes introduce a large number of
//! variable copies (`Length = TempLength1;`, `o1 = t1;`). Copy propagation
//! forwards the source of a copy to dominated uses of its destination so that
//! a following dead-code-elimination pass can delete the copy. The paper
//! lists it among the "standard compiler transformations" that support the
//! coarse-grain ones (Section 3).

use spark_ir::{Function, OpId, OpKind, Rewriter, Value, VarId};

use crate::const_prop::select_of_equal_arms;
use crate::fine::{push_to_readers, FineState, OpQueue};
use crate::report::Report;

/// Runs copy propagation to a fixed point on `function`.
///
/// Stand-alone entry point: builds fresh analyses and runs
/// [`copy_propagation_with`].
///
/// A copy `x = y` is forwarded to a use of `x` when:
/// * `x` has exactly one live definition (the copy itself),
/// * the copy structurally dominates the use,
/// * `y` is never redefined (it has a single definition that dominates the
///   copy, or it is only defined as a parameter/primary input), so its value
///   at the use site equals its value at the copy site, and
/// * the copy is lossless: `y` is a variable no wider than `x`, or a
///   constant whose value fits `x`'s width. A narrowing copy truncates, so
///   reading `y` in place of `x` would change the value. A concatenation's
///   low operand also needs `y` exactly as wide as `x`, because its width
///   sets the shift of the high operand.
///
/// A select whose arms a forwarding makes equal (`c ? a : a`) becomes a copy
/// of the arm, which is then forwarded in turn.
pub fn copy_propagation(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    copy_propagation_with(function, &mut state)
}

/// Worklist-driven copy propagation over an incrementally maintained
/// [`FineState`].
///
/// The worklist starts from the live `Copy` operations and the selects with
/// equal arms (which become copies): a copy is the only place a forwarding
/// can start. Examining a copy pushes its source into every dominated
/// reader (the def side), so a reader needs no visit of its own until it is
/// rewritten. Copy chains then resolve transitively by requeueing every
/// rewritten reader: a reader that is itself a copy, or a select that
/// became one, forwards its new source. A reader handed the source `y` of a copy never
/// looks up `y`'s definition itself: if that definition is a forwardable
/// copy, it has either already rewritten the copy that handed `y` on, or it
/// pushes into the reader when it is visited. Each replacement substitutes
/// the source of a strictly earlier dominating copy, so the process
/// terminates at the same fixed point as a full rescan.
pub fn copy_propagation_with(function: &mut Function, state: &mut FineState) -> Report {
    let mut report = Report::new("copy-propagation", &function.name);
    let FineState { graph, positions } = state;
    let starts = function.live_ops().into_iter().filter(|&op| {
        let op = &function.ops[op];
        op.kind == OpKind::Copy || select_of_equal_arms(&op.kind, &op.args).is_some()
    });
    let mut queue = OpQueue::of(starts);
    let mut rw = Rewriter::new(function, graph);

    // Source stability: a constant, or a variable with a single dominating
    // definition (or no definition at all, e.g. an input).
    let stable =
        |rw: &Rewriter<'_>, positions: &crate::Positions, source: Value, copy: OpId| match source {
            Value::Const(_) => true,
            Value::Var(src) => {
                let src_defs = rw.graph().defs_of(src);
                match src_defs.len() {
                    0 => true,
                    1 => positions.dominates(src_defs[0], copy),
                    _ => false,
                }
            }
        };

    let mut changed = 0usize;
    while let Some(op_id) = queue.pop() {
        if rw.function().ops[op_id].dead {
            continue;
        }

        // --- A select may have equal arms, most often because a forwarding
        // just rewrote it. Constant propagation, which runs before this pass,
        // reduces `c ? a : a` to a copy of `a`; do the same here, where the
        // case arises, so the copy is forwarded below and no later
        // const-prop run is needed.
        let op = &rw.function().ops[op_id];
        if let Some(arm) = select_of_equal_arms(&op.kind, &op.args) {
            rw.rewrite_op(op_id, OpKind::Copy, vec![arm]);
            changed += 1;
        }

        // --- If this op is a forwardable copy, push its source into every
        // dominated reader and requeue them for chain resolution.
        let op = &rw.function().ops[op_id];
        if op.kind != OpKind::Copy {
            continue;
        }
        let Some(dest) = op.dest else { continue };
        let source = op.args[0];
        if rw.graph().has_single_def(dest) && stable(&rw, positions, source, op_id) {
            changed += push_to_readers(
                &mut rw,
                positions,
                &mut queue,
                op_id,
                source,
                Some(lossless),
            );
        }
    }

    report.add(changed);
    state.debug_check(function);
    report
}

/// Returns `true` if operand `index` of `reader`, which reads the copy
/// `dest = source`, may read `source` instead: the copy keeps every bit of
/// `source`, and the reader sees the same value either way.
fn lossless(function: &Function, dest: VarId, source: Value, reader: OpId, index: usize) -> bool {
    let ty = function.vars[dest].ty;
    let source_width = match source {
        Value::Const(c) if c.value() & ty.mask() == c.value() => c.ty().width(),
        Value::Var(src) if function.vars[src].ty.width() <= ty.width() => {
            function.vars[src].ty.width()
        }
        _ => return false,
    };
    // A concatenation shifts its high operand by the width of its low one.
    function.ops[reader].kind != OpKind::Concat || index != 1 || source_width == ty.width()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, Type};

    #[test]
    fn forwards_simple_copy_chain() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.var("out", Type::Bits(8));
        b.copy(t1, Value::Var(a));
        b.copy(t2, Value::Var(t1));
        b.assign(OpKind::Add, out, vec![Value::Var(t2), Value::word(1)]);
        let mut f = b.finish();
        let report = copy_propagation(&mut f);
        assert!(report.changes >= 2);
        let ops = f.live_ops();
        let add = &f.ops[*ops.last().unwrap()];
        assert_eq!(add.args[0], Value::Var(a));
    }

    #[test]
    fn does_not_forward_unstable_source() {
        // x = y; y = y + 1; z = x  -- x must keep reading the old y.
        let mut b = FunctionBuilder::new("f");
        let y = b.var("y", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        b.copy(y, Value::word(1));
        b.copy(x, Value::Var(y));
        b.assign(OpKind::Add, y, vec![Value::Var(y), Value::word(1)]);
        b.copy(z, Value::Var(x));
        let mut f = b.finish();
        copy_propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        // z must still read x because y was redefined in between.
        assert_eq!(last.args[0], Value::Var(x));
    }

    #[test]
    fn does_not_forward_out_of_conditional() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::Var(a));
        b.if_end();
        b.copy(z, Value::Var(x));
        let mut f = b.finish();
        copy_propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        assert_eq!(last.args[0], Value::Var(x));
    }

    #[test]
    fn forwards_constants_through_copies() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.copy(x, Value::word(7));
        b.copy(y, Value::Var(x));
        let mut f = b.finish();
        copy_propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        assert_eq!(last.args[0], Value::word(7));
    }

    #[test]
    fn does_not_forward_through_a_narrowing_copy() {
        // u8 b = y (u16); r = b + 1 -- reading y would skip the truncation.
        let mut b = FunctionBuilder::new("f");
        let y = b.param("y", Type::Bits(16));
        let narrow = b.var("b", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(narrow, Value::Var(y));
        let add = b.assign(OpKind::Add, r, vec![Value::Var(narrow), Value::word(1)]);
        let mut f = b.finish();
        let report = copy_propagation(&mut f);
        assert_eq!(report.changes, 0);
        assert_eq!(f.ops[add].args[0], Value::Var(narrow));
    }

    #[test]
    fn forwards_widening_copies_and_fitting_constants_only() {
        let mut b = FunctionBuilder::new("f");
        let y = b.param("y", Type::Bits(8));
        let wide = b.var("wide", Type::Bits(16));
        let fits = b.var("fits", Type::Bits(8));
        let truncated = b.var("truncated", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(wide, Value::Var(y));
        b.copy(fits, Value::word(255));
        b.copy(truncated, Value::word(256));
        let sum = b.assign(OpKind::Add, r, vec![Value::Var(wide), Value::Var(fits)]);
        let again = b.assign(OpKind::Add, r, vec![Value::Var(r), Value::Var(truncated)]);
        let mut f = b.finish();
        copy_propagation(&mut f);
        assert_eq!(f.ops[sum].args, vec![Value::Var(y), Value::word(255)]);
        assert_eq!(f.ops[again].args[1], Value::Var(truncated));
    }

    #[test]
    fn concat_low_operand_needs_an_equal_width_source() {
        // {h, w} shifts h by the width of w, so a u4 source cannot stand in
        // for the u8 copy even though the copy is lossless.
        let mut b = FunctionBuilder::new("f");
        let h = b.param("h", Type::Bits(4));
        let n = b.param("n", Type::Bits(4));
        let w = b.var("w", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(w, Value::Var(n));
        let cat = b.assign(OpKind::Concat, r, vec![Value::Var(h), Value::Var(w)]);
        let mut f = b.finish();
        copy_propagation(&mut f);
        assert_eq!(f.ops[cat].args[1], Value::Var(w));
    }

    #[test]
    fn a_select_whose_arms_become_equal_is_forwarded_as_a_copy() {
        // t = a; x = c ? a : t; out = x + 1 -- forwarding t leaves
        // `c ? a : a`, which is a copy of a, and a then reaches the add.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.copy(t, Value::Var(a));
        let select = b.assign(
            OpKind::Select,
            x,
            vec![Value::Var(c), Value::Var(a), Value::Var(t)],
        );
        let add = b.assign(OpKind::Add, out, vec![Value::Var(x), Value::word(1)]);
        let mut f = b.finish();
        let report = copy_propagation(&mut f);
        assert_eq!(
            report.changes, 3,
            "t into the select, select to copy, a into the add"
        );
        assert_eq!(f.ops[select].kind, OpKind::Copy);
        assert_eq!(f.ops[select].args, vec![Value::Var(a)]);
        assert_eq!(f.ops[add].args[0], Value::Var(a));
    }

    #[test]
    fn copy_propagation_after_cse_forwards_its_copy() {
        // CSE turns the repeated `t2 = a + c` into `t2 = t1`; copy
        // propagation run after it forwards `t1` into `out = t2 + 1`, and
        // DCE then deletes the copy.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        let o1 = b.output("o1", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(c)]);
        b.copy(o1, Value::Var(t1));
        let repeat = b.assign(OpKind::Add, t2, vec![Value::Var(a), Value::Var(c)]);
        let last = b.assign(OpKind::Add, out, vec![Value::Var(t2), Value::word(1)]);
        let mut f = b.finish();

        let mut state = FineState::new(&f);
        assert!(copy_propagation_with(&mut f, &mut state).is_noop());
        let cse = crate::common_subexpression_elimination_with(&mut f, &mut state);
        assert_eq!(cse.changes, 1);
        assert_eq!(f.ops[repeat].kind, OpKind::Copy);
        let report = copy_propagation_with(&mut f, &mut state);
        assert_eq!(report.changes, 1);
        assert_eq!(f.ops[last].args[0], Value::Var(t1));
        crate::dead_code_elimination_with(&mut f, &mut state);
        assert!(f.ops[repeat].dead);
    }

    #[test]
    fn copy_propagation_after_cse_reduces_the_select_it_makes_equal() {
        // s = a + b; t = a + b; x = c ? t : s -- CSE makes t a copy of s,
        // forwarding it gives `c ? s : s`, and that is a copy of s.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let d = b.param("d", Type::Bits(8));
        let s = b.var("s", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let x = b.output("x", Type::Bits(8));
        b.assign(OpKind::Add, s, vec![Value::Var(a), Value::Var(d)]);
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::Var(d)]);
        let select = b.assign(
            OpKind::Select,
            x,
            vec![Value::Var(c), Value::Var(t), Value::Var(s)],
        );
        let mut f = b.finish();

        let mut state = FineState::new(&f);
        crate::common_subexpression_elimination_with(&mut f, &mut state);
        copy_propagation_with(&mut f, &mut state);
        assert_eq!(f.ops[select].kind, OpKind::Copy);
        assert_eq!(f.ops[select].args, vec![Value::Var(s)]);
    }
}
