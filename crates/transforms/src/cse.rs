//! Common subexpression elimination (block-local).
//!
//! After speculation the ILD's `CalculateLength` computes
//! `TempLength1 = lc1 + lc2 + lc3 + lc4`, `TempLength2 = lc1 + lc2 + lc3`
//! and `TempLength3 = lc1 + lc2` (Figure 11). When those sums are expanded
//! into two-operand additions the partial sums repeat; CSE shares them, which
//! directly reduces the number of adders the final single-cycle datapath
//! needs.

use std::collections::HashMap;

use spark_ir::{Function, OpKind, Rewriter, Type, Value, VarId};

use crate::fine::FineState;
use crate::report::Report;

/// Eliminates repeated pure computations within each basic block.
///
/// Stand-alone entry point: builds fresh analyses and runs
/// [`common_subexpression_elimination_with`].
///
/// Two operations are merged when they have the same kind and operands, the
/// earlier one's destination has not been overwritten in between, and none of
/// the shared operands has been redefined in between. The later operation is
/// rewritten into a copy of the earlier destination (and left for dead code
/// elimination / copy propagation to clean up).
pub fn common_subexpression_elimination(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    common_subexpression_elimination_with(function, &mut state)
}

/// Block-local CSE over an incrementally maintained [`FineState`].
///
/// CSE is a per-block linear scan over every block of the body, in body
/// traversal order. Rewrites go through the [`Rewriter`] so the shared
/// def–use graph stays consistent.
pub fn common_subexpression_elimination_with(
    function: &mut Function,
    state: &mut FineState,
) -> Report {
    let mut report = Report::new("cse", &function.name);
    let FineState { graph, .. } = state;
    let mut rw = Rewriter::new(function, graph);

    for block in rw.function().blocks_in_region(rw.function().body) {
        let ops: Vec<_> = rw.function().blocks[block].ops.clone();
        // Available expressions: key -> dest var of the defining op.
        let mut available: HashMap<ExprKey, VarId> = HashMap::new();
        for op_id in ops {
            let function = rw.function();
            let op = &function.ops[op_id];
            if op.dead {
                continue;
            }
            // Invalidate expressions that read or wrote the variable this op
            // defines.
            if let Some(defined) = op.def() {
                available.retain(|key, dest| *dest != defined && !key.reads(defined));
            }
            let pure = !op.kind.has_side_effects()
                && !matches!(op.kind, OpKind::Copy | OpKind::ArrayRead { .. });
            let Some(dest) = op.dest.filter(|_| pure) else {
                continue;
            };
            let Some(key) = ExprKey::of(&op.kind, &op.args, function.vars[dest].ty) else {
                continue;
            };
            if let Some(&prev_dest) = available.get(&key) {
                rw.rewrite_op(op_id, OpKind::Copy, vec![Value::Var(prev_dest)]);
                report.add(1);
            } else {
                available.insert(key, dest);
            }
        }
    }

    state.debug_check(function);
    report
}

/// One operand of an [`ExprKey`]. Constants are keyed by value alone, so
/// equal values of different literal widths still match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum KeyOperand {
    Absent,
    Var(VarId),
    Const(u64),
}

/// What makes two pure operations compute the same value: the kind (with
/// its parameters, e.g. a slice's `hi:lo`), the operands — sorted for
/// commutative kinds — and the destination type, since the result is
/// truncated to it (`u8 a = x + 200` and `u16 b = x + 200` differ).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ExprKey {
    kind: OpKind,
    operands: [KeyOperand; 3],
    ty: Type,
}

impl ExprKey {
    /// The key of `kind(args)` written to a destination of type `ty`, or
    /// `None` for an operand list longer than any pure kind takes.
    fn of(kind: &OpKind, args: &[Value], ty: Type) -> Option<Self> {
        let mut operands = [KeyOperand::Absent; 3];
        if args.len() > operands.len() {
            return None;
        }
        for (slot, arg) in operands.iter_mut().zip(args) {
            *slot = match *arg {
                Value::Var(v) => KeyOperand::Var(v),
                Value::Const(c) => KeyOperand::Const(c.value()),
            };
        }
        if kind.is_commutative() {
            operands[..args.len()].sort_unstable();
        }
        Some(ExprKey {
            kind: kind.clone(),
            operands,
            ty,
        })
    }

    /// Returns `true` if the expression reads `var`.
    fn reads(&self, var: VarId) -> bool {
        self.operands.contains(&KeyOperand::Var(var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{Constant, FunctionBuilder};

    #[test]
    fn shares_repeated_partial_sums() {
        // t1 = a + b; t2 = a + b; out = t1 + t2
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.var("out", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(bb)]);
        b.assign(OpKind::Add, t2, vec![Value::Var(a), Value::Var(bb)]);
        b.assign(OpKind::Add, out, vec![Value::Var(t1), Value::Var(t2)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert_eq!(report.changes, 1);
        let ops = f.live_ops();
        assert_eq!(f.ops[ops[1]].kind, OpKind::Copy);
        assert_eq!(f.ops[ops[1]].args[0], Value::Var(t1));
    }

    #[test]
    fn commutative_operands_match_in_any_order() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(bb)]);
        b.assign(OpKind::Add, t2, vec![Value::Var(bb), Value::Var(a)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert_eq!(report.changes, 1);
    }

    #[test]
    fn redefinition_blocks_reuse() {
        // t1 = a + b; a = 0; t2 = a + b  -- t2 must not reuse t1.
        let mut b = FunctionBuilder::new("f");
        let a = b.var("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(bb)]);
        b.copy(a, Value::word(0));
        b.assign(OpKind::Add, t2, vec![Value::Var(a), Value::Var(bb)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert!(report.is_noop());
    }

    #[test]
    fn slices_with_different_bounds_are_distinct() {
        // p = x[1:1] ^ x[0:0] — the two slices share their operand but
        // extract different bits; merging them folds the xor to zero.
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x", Type::Bits(8));
        let t1 = b.var("t1", Type::Bool);
        let t2 = b.var("t2", Type::Bool);
        let t3 = b.var("t3", Type::Bool);
        b.assign(OpKind::Slice { hi: 1, lo: 1 }, t1, vec![Value::Var(x)]);
        b.assign(OpKind::Slice { hi: 0, lo: 0 }, t2, vec![Value::Var(x)]);
        b.assign(OpKind::Slice { hi: 1, lo: 1 }, t3, vec![Value::Var(x)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        // Only the repeated [1:1] slice merges.
        assert_eq!(report.changes, 1);
        let ops = f.live_ops();
        assert_eq!(f.ops[ops[1]].kind, OpKind::Slice { hi: 0, lo: 0 });
        assert_eq!(f.ops[ops[2]].kind, OpKind::Copy);
        assert_eq!(f.ops[ops[2]].args[0], Value::Var(t1));
    }

    #[test]
    fn destination_width_separates_expressions() {
        // u8 a = x + 200; u16 b = x + 200 — `a` is truncated to 8 bits, so
        // `b` must not become a copy of it.
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x", Type::Bits(8));
        let a = b.var("a", Type::Bits(8));
        let wide = b.var("b", Type::Bits(16));
        let c200 = Value::Const(Constant::new(200, Type::Bits(8)));
        b.assign(OpKind::Add, a, vec![Value::Var(x), c200]);
        b.assign(OpKind::Add, wide, vec![Value::Var(x), c200]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert!(report.is_noop());
        let ops = f.live_ops();
        assert_eq!(f.ops[ops[1]].kind, OpKind::Add);
    }

    #[test]
    fn redefinition_invalidates_only_the_exact_variable() {
        // Eleven variables so that v1 and v10 both exist: redefining v1 must
        // not discard `v10 + a`, which does not read it.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let vars: Vec<_> = (1..=10)
            .map(|i| b.var(&format!("u{i}"), Type::Bits(8)))
            .collect();
        let (v1, v10) = (vars[0], vars[9]);
        assert_eq!((v1.raw(), v10.raw()), (1, 10));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(v10), Value::Var(a)]);
        b.copy(v1, Value::word(0));
        b.assign(OpKind::Add, t2, vec![Value::Var(v10), Value::Var(a)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert_eq!(report.changes, 1);
        let ops = f.live_ops();
        assert_eq!(f.ops[ops[2]].kind, OpKind::Copy);
        assert_eq!(f.ops[ops[2]].args[0], Value::Var(t1));
    }

    #[test]
    fn non_commutative_order_matters() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        b.assign(OpKind::Sub, t1, vec![Value::Var(a), Value::Var(bb)]);
        b.assign(OpKind::Sub, t2, vec![Value::Var(bb), Value::Var(a)]);
        let mut f = b.finish();
        let report = common_subexpression_elimination(&mut f);
        assert!(report.is_noop());
    }
}
