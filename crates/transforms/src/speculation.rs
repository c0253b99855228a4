//! Speculative code motion.
//!
//! In speculative execution "operations are executed before the conditions
//! they depend on have been evaluated" (Section 3). Applied to the ILD's
//! `CalculateLength`, speculation hoists all the length-contribution and
//! `Need_kth_Byte` computations, as well as the candidate `TempLength` sums,
//! above the conditional structure; the conditionals that remain contain only
//! variable copies and collapse into steering (mux) logic in hardware
//! (Figure 11).
//!
//! Mechanically, a pure operation inside a branch is hoisted to a *speculation
//! block* inserted immediately before the `if` node. Its destination is
//! renamed to a fresh variable and a copy back to the original destination is
//! left at the original position, so the architectural state is still updated
//! only on the paths where the original operation executed. Copy propagation
//! and dead code elimination then clean up the copies that turn out to be
//! unnecessary.

use std::collections::{BTreeMap, BTreeSet};

use spark_ir::{Function, HtgNode, OpKind, RegionId, Value, VarId};

use crate::report::Report;

/// Runs speculation over the whole function, hoisting every pure operation
/// whose operands are available above its `if` (unlimited resources, as in
/// the microprocessor-block scenario).
pub fn speculate(function: &mut Function) -> Report {
    let mut report = Report::new("speculation", &function.name);
    let body = function.body;
    let hoisted = speculate_region(function, body);
    report.add(hoisted);
    if hoisted > 0 {
        report.note(format!("hoisted {hoisted} operation(s) above conditionals"));
    }
    report
}

/// Recursively speculates inside `region`; returns the number of hoists.
fn speculate_region(function: &mut Function, region: RegionId) -> usize {
    let mut hoists = 0;
    // Work on one snapshot of the node ids: hoisting only inserts block
    // nodes (which need no visit), and the insertion point is re-resolved by
    // node id. `inserted` keeps the running shift so the generated block
    // names match the historical position-with-insertions numbering.
    let nodes = function.regions[region].nodes.clone();
    let mut inserted = 0usize;
    for (snapshot_index, &node) in nodes.iter().enumerate() {
        match function.nodes[node].clone() {
            HtgNode::Block(_) => {}
            HtgNode::Loop(l) => {
                hoists += speculate_region(function, l.body);
            }
            HtgNode::If(if_node) => {
                // Innermost first: flatten the branches.
                hoists += speculate_region(function, if_node.then_region);
                hoists += speculate_region(function, if_node.else_region);
                // Then hoist from both branches to just before this if.
                let mut spec_ops: Vec<(OpKind, VarId, Vec<Value>, VarId)> = Vec::new();
                for branch in [if_node.then_region, if_node.else_region] {
                    hoists += hoist_branch(function, branch, &mut spec_ops);
                }
                if !spec_ops.is_empty() {
                    let spec_block =
                        function.add_block(format!("spec_{}", snapshot_index + inserted));
                    for (kind, new_dest, args, _orig) in spec_ops.drain(..) {
                        let op = function.push_op(spec_block, kind, Some(new_dest), args);
                        function.ops[op].speculative = true;
                    }
                    let spec_node = function.add_block_node(spec_block);
                    // Insert before the if node; its position is re-resolved
                    // by id because earlier insertions shifted it.
                    let position = function.regions[region]
                        .nodes
                        .iter()
                        .position(|&n| n == node)
                        .expect("if node stays in its region");
                    function.regions[region].nodes.insert(position, spec_node);
                    inserted += 1;
                }
            }
        }
    }
    hoists
}

/// Hoists pure operations out of one branch region. The hoisted operation
/// descriptors are appended to `spec_ops` (kind, fresh destination, rewritten
/// operands, original destination); the original operations are rewritten
/// into copies from the fresh destinations.
fn hoist_branch(
    function: &mut Function,
    branch: RegionId,
    spec_ops: &mut Vec<(OpKind, VarId, Vec<Value>, VarId)>,
) -> usize {
    let mut hoists = 0;
    // Variables whose latest definition in this branch was hoisted, mapped to
    // the fresh speculative name.
    let mut renamed: BTreeMap<VarId, VarId> = BTreeMap::new();
    // Variables defined in this branch by operations that were *not* hoisted;
    // any operation reading them cannot be hoisted.
    let mut pinned: BTreeSet<VarId> = BTreeSet::new();

    let nodes = function.regions[branch].nodes.clone();
    for node in nodes {
        match function.nodes[node].clone() {
            HtgNode::Block(block) => {
                // Index-based iteration: rewriting an op in place never
                // changes the block's op list, so no snapshot (and no
                // per-operation clone) is needed.
                for position in 0..function.blocks[block].ops.len() {
                    let op_id = function.blocks[block].ops[position];
                    let op = &function.ops[op_id];
                    if op.dead {
                        continue;
                    }
                    let hoistable = !op.kind.has_side_effects()
                        && op.dest.is_some()
                        && op
                            .args
                            .iter()
                            .filter_map(|a| a.as_var())
                            .all(|v| !pinned.contains(&v))
                        // Reading an array element is pure in this IR (the
                        // instruction buffer is read-only), but reading an
                        // array that is *written* in this branch would not be.
                        && match &op.kind {
                            OpKind::ArrayRead { array } => !pinned.contains(array),
                            _ => true,
                        };
                    if hoistable {
                        let dest = op.dest.expect("hoistable op has a destination");
                        let kind = op.kind.clone();
                        // Rewrite operands through the rename map so hoisted
                        // ops read the speculative values of earlier hoisted
                        // definitions in the same branch.
                        let args: Vec<Value> = op
                            .args
                            .iter()
                            .map(|&a| match a {
                                Value::Var(v) => Value::Var(*renamed.get(&v).unwrap_or(&v)),
                                c => c,
                            })
                            .collect();
                        let ty = function.vars[dest].ty;
                        let fresh = function.fresh_temp_from("spec", dest, ty);
                        spec_ops.push((kind, fresh, args, dest));
                        // The original op becomes a commit copy.
                        let op_mut = &mut function.ops[op_id];
                        op_mut.kind = OpKind::Copy;
                        op_mut.args = vec![Value::Var(fresh)];
                        renamed.insert(dest, fresh);
                        hoists += 1;
                    } else if let Some(defined) = op.def() {
                        pinned.insert(defined);
                        renamed.remove(&defined);
                    }
                }
            }
            HtgNode::If(inner) => {
                // Anything defined inside a nested conditional is only
                // conditionally defined: pin those variables.
                for op in function.ops_in_region(inner.then_region) {
                    if let Some(d) = function.ops[op].def() {
                        pinned.insert(d);
                        renamed.remove(&d);
                    }
                }
                for op in function.ops_in_region(inner.else_region) {
                    if let Some(d) = function.ops[op].def() {
                        pinned.insert(d);
                        renamed.remove(&d);
                    }
                }
            }
            HtgNode::Loop(l) => {
                for op in function.ops_in_region(l.body) {
                    if let Some(d) = function.ops[op].def() {
                        pinned.insert(d);
                        renamed.remove(&d);
                    }
                }
            }
        }
    }
    hoists
}

/// Counts the live operations marked as speculative.
pub fn speculative_op_count(function: &Function) -> usize {
    function
        .live_ops()
        .into_iter()
        .filter(|&op| function.ops[op].speculative)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_prop::copy_propagation;
    use crate::dce::dead_code_elimination;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Program, Type};

    /// The nested-conditional length computation of Figure 10's
    /// `CalculateLength`, in miniature: three nested ifs computing a sum.
    fn nested_length_function() -> Function {
        let mut b = FunctionBuilder::new("calc");
        let b1 = b.param("b1", Type::Bits(8));
        let b2 = b.param("b2", Type::Bits(8));
        let b3 = b.param("b3", Type::Bits(8));
        let length = b.output("Length", Type::Bits(8));
        let lc1 = b.var("lc1", Type::Bits(8));
        let lc2 = b.var("lc2", Type::Bits(8));
        let lc3 = b.var("lc3", Type::Bits(8));
        b.assign(OpKind::And, lc1, vec![Value::Var(b1), Value::word(3)]);
        let need2 = b.compute(
            OpKind::Gt,
            Type::Bool,
            vec![Value::Var(b1), Value::word(127)],
        );
        b.if_begin(Value::Var(need2));
        {
            b.assign(OpKind::And, lc2, vec![Value::Var(b2), Value::word(3)]);
            let need3 = b.compute(
                OpKind::Gt,
                Type::Bool,
                vec![Value::Var(b2), Value::word(127)],
            );
            b.if_begin(Value::Var(need3));
            {
                b.assign(OpKind::And, lc3, vec![Value::Var(b3), Value::word(3)]);
                let t = b.compute(
                    OpKind::Add,
                    Type::Bits(8),
                    vec![Value::Var(lc1), Value::Var(lc2)],
                );
                b.assign(OpKind::Add, length, vec![Value::Var(t), Value::Var(lc3)]);
            }
            b.else_begin();
            {
                b.assign(OpKind::Add, length, vec![Value::Var(lc1), Value::Var(lc2)]);
            }
            b.if_end();
        }
        b.else_begin();
        b.copy(length, Value::Var(lc1));
        b.if_end();
        b.finish()
    }

    fn run(program: &Program, b1: u64, b2: u64, b3: u64) -> u64 {
        let env = Env::new()
            .with_scalar("b1", b1)
            .with_scalar("b2", b2)
            .with_scalar("b3", b3);
        Interpreter::new(program)
            .run("calc", &env)
            .unwrap()
            .scalar("Length")
            .unwrap()
    }

    #[test]
    fn speculation_preserves_semantics() {
        let original = nested_length_function();
        let mut transformed = original.clone();
        let report = speculate(&mut transformed);
        assert!(report.changes > 0);
        verify(&transformed).expect("well formed after speculation");

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(transformed);
        for b1 in [0u64, 130, 255] {
            for b2 in [0u64, 200] {
                for b3 in [1u64, 7] {
                    assert_eq!(
                        run(&p0, b1, b2, b3),
                        run(&p1, b1, b2, b3),
                        "b1={b1} b2={b2} b3={b3}"
                    );
                }
            }
        }
    }

    #[test]
    fn branches_contain_only_copies_after_speculation() {
        let mut f = nested_length_function();
        speculate(&mut f);
        // Figure 11: after speculation all data computation is up front and
        // the conditional structure only selects results via copies.
        for (_, node) in f.nodes.iter() {
            if let HtgNode::If(if_node) = node {
                for branch in [if_node.then_region, if_node.else_region] {
                    for op in f.ops_in_region(branch) {
                        assert_eq!(
                            f.ops[op].kind,
                            OpKind::Copy,
                            "branch op `{:?}` should be a copy after speculation",
                            f.ops[op].kind
                        );
                    }
                }
            }
        }
        assert!(speculative_op_count(&f) > 0);
    }

    #[test]
    fn cleanup_after_speculation_keeps_semantics() {
        let original = nested_length_function();
        let mut f = original.clone();
        speculate(&mut f);
        copy_propagation(&mut f);
        dead_code_elimination(&mut f);
        verify(&f).expect("well formed after cleanup");
        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(f);
        for b1 in [5u64, 129, 255] {
            for b2 in [3u64, 180] {
                assert_eq!(run(&p0, b1, b2, 2), run(&p1, b1, b2, 2));
            }
        }
    }

    #[test]
    fn side_effecting_ops_are_not_hoisted() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let mark = b.output_array("Mark", Type::Bool, 4);
        b.if_begin(Value::Var(c));
        b.array_write(mark, Value::word(1), Value::bool(true));
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        let report = speculate(&mut f);
        assert!(
            report.is_noop(),
            "array writes must stay under their condition"
        );

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(f);
        for c in [0u64, 1] {
            let env = Env::new().with_scalar("c", c);
            let a = Interpreter::new(&p0).run("f", &env).unwrap();
            let b_ = Interpreter::new(&p1).run("f", &env).unwrap();
            assert_eq!(a.array("Mark"), b_.array("Mark"));
        }
    }

    #[test]
    fn ops_depending_on_pinned_values_stay() {
        // y is written by an array write dependent op chain: x = buf[c]; the
        // read itself is hoistable but a later op reading a pinned var is not.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let out = b.output("out", Type::Bits(8));
        let scratch = b.array("scratch", Type::Bits(8), 2);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.array_write(scratch, Value::word(0), Value::word(5));
        b.array_read(x, scratch, Value::word(0));
        b.assign(OpKind::Add, out, vec![Value::Var(x), Value::word(1)]);
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        speculate(&mut f);
        verify(&f).expect("well formed");
        // Semantics preserved: when c=0 nothing observable happens; when c=1
        // out becomes 6.
        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(f);
        for c in [0u64, 1] {
            let env = Env::new().with_scalar("c", c);
            let a = Interpreter::new(&p0).run("f", &env).unwrap();
            let b_ = Interpreter::new(&p1).run("f", &env).unwrap();
            assert_eq!(a.scalar("out"), b_.scalar("out"), "c={c}");
        }
    }
}
