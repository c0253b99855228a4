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
//!
//! Nested conditionals are flattened innermost first, so an operation `k`
//! levels deep is hoisted `k` times. Only the first hoist renames: the fresh
//! variable has one definition, read only by its commit copy and by later
//! hoisted operations of the same branch, so each enclosing level moves that
//! definition up unchanged. Every hoisted operation leaves exactly one copy,
//! whatever its depth.

use std::collections::{BTreeMap, BTreeSet};

use spark_ir::{Function, HtgNode, OpId, OpKind, RegionId, Value, VarId};

use crate::report::Report;

/// Runs speculation over the whole function, hoisting every pure operation
/// whose operands are available above its `if` (unlimited resources, as in
/// the microprocessor-block scenario).
pub fn speculate(function: &mut Function) -> Report {
    let mut report = Report::new("speculation", &function.name);
    let body = function.body;
    let hoisted = speculate_region(function, body, &mut BTreeSet::new());
    report.add(hoisted);
    if hoisted > 0 {
        report.note(format!("hoisted {hoisted} operation(s) above conditionals"));
    }
    report
}

/// Recursively speculates inside `region`; returns the number of hoists.
/// `fresh` holds the temporaries this speculation has created so far.
fn speculate_region(
    function: &mut Function,
    region: RegionId,
    fresh: &mut BTreeSet<VarId>,
) -> usize {
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
                hoists += speculate_region(function, l.body, fresh);
            }
            HtgNode::If(if_node) => {
                // Innermost first: flatten the branches.
                hoists += speculate_region(function, if_node.then_region, fresh);
                hoists += speculate_region(function, if_node.else_region, fresh);
                // Then hoist from both branches to just before this if.
                let mut spec_ops = Vec::new();
                for branch in [if_node.then_region, if_node.else_region] {
                    hoists += hoist_branch(function, branch, fresh, &mut spec_ops);
                }
                if !spec_ops.is_empty() {
                    let spec_block =
                        function.add_block(format!("spec_{}", snapshot_index + inserted));
                    function.blocks[spec_block].ops = spec_ops;
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

/// Hoists pure operations out of one branch region, appending them to
/// `spec_ops` in program order. An operation that defines a temporary in
/// `fresh` is moved there whole. Any other gets a fresh destination, added to
/// `fresh`, and the original becomes a copy from it.
fn hoist_branch(
    function: &mut Function,
    branch: RegionId,
    fresh: &mut BTreeSet<VarId>,
    spec_ops: &mut Vec<OpId>,
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
                // The block keeps, in order, every op that is not moved out.
                let mut ops = std::mem::take(&mut function.blocks[block].ops);
                ops.retain(|&op_id| {
                    let op = &function.ops[op_id];
                    if op.dead {
                        return true;
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
                    if !hoistable {
                        if let Some(defined) = op.def() {
                            pinned.insert(defined);
                            renamed.remove(&defined);
                        }
                        return true;
                    }
                    hoists += 1;
                    let dest = op.dest.expect("hoistable op has a destination");
                    // Rewrite operands through the rename map so hoisted ops
                    // read the speculative values of earlier hoisted
                    // definitions in the same branch.
                    let args: Vec<Value> = op
                        .args
                        .iter()
                        .map(|&a| match a {
                            Value::Var(v) => Value::Var(*renamed.get(&v).unwrap_or(&v)),
                            c => c,
                        })
                        .collect();
                    if fresh.contains(&dest) {
                        // Its only definition, read only after it in this
                        // branch: moving it above the `if` changes no read.
                        function.ops[op_id].args = args;
                        spec_ops.push(op_id);
                        return false;
                    }
                    let kind = op.kind.clone();
                    let ty = function.vars[dest].ty;
                    let temp = function.fresh_temp_from("spec", dest, ty);
                    fresh.insert(temp);
                    let spec_op = function.add_op(kind, Some(temp), args);
                    function.ops[spec_op].speculative = true;
                    spec_ops.push(spec_op);
                    // The original op becomes a commit copy.
                    let op_mut = &mut function.ops[op_id];
                    op_mut.kind = OpKind::Copy;
                    op_mut.args = vec![Value::Var(temp)];
                    renamed.insert(dest, temp);
                    true
                });
                function.blocks[block].ops = ops;
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
    use crate::dce::dead_code_elimination;
    use crate::propagation::propagation;
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
                let need4 = b.compute(
                    OpKind::Gt,
                    Type::Bool,
                    vec![Value::Var(b3), Value::word(127)],
                );
                b.if_begin(Value::Var(need4));
                {
                    let lc4 = b.compute(
                        OpKind::And,
                        Type::Bits(8),
                        vec![Value::Var(b3), Value::word(12)],
                    );
                    let u = b.compute(
                        OpKind::Add,
                        Type::Bits(8),
                        vec![Value::Var(t), Value::Var(lc3)],
                    );
                    b.assign(OpKind::Add, length, vec![Value::Var(u), Value::Var(lc4)]);
                }
                b.else_begin();
                b.assign(OpKind::Add, length, vec![Value::Var(t), Value::Var(lc3)]);
                b.if_end();
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
                for b3 in [1u64, 7, 200] {
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
    fn nested_hoists_leave_one_copy_per_hoisted_op() {
        let original = nested_length_function();
        assert!(original.nesting_depth() >= 3);
        let mut f = original.clone();
        speculate(&mut f);
        verify(&f).expect("well formed after speculation");
        // A definition hoisted through several levels moves whole: no
        // speculative op copies the result of another.
        let live = f.live_ops();
        let spec_dests: BTreeSet<VarId> = live
            .iter()
            .filter(|&&op| f.ops[op].speculative)
            .filter_map(|&op| f.ops[op].def())
            .collect();
        for &op in &live {
            let op = &f.ops[op];
            if op.speculative && op.kind == OpKind::Copy {
                let source = op.args[0].as_var();
                assert!(
                    source.is_none_or(|v| !spec_dests.contains(&v)),
                    "speculative copy chain through `{}`",
                    f.vars[source.unwrap()].name
                );
            }
        }
        // Each hoisted op adds its speculative twin and nothing else.
        assert_eq!(
            f.live_op_count(),
            original.live_op_count() + speculative_op_count(&f)
        );
        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(f);
        for b1 in [0u64, 130, 255] {
            for b2 in [0u64, 200] {
                for b3 in [1u64, 7, 200] {
                    assert_eq!(run(&p0, b1, b2, b3), run(&p1, b1, b2, b3));
                }
            }
        }
    }

    #[test]
    fn cleanup_after_speculation_keeps_semantics() {
        let original = nested_length_function();
        let mut f = original.clone();
        speculate(&mut f);
        propagation(&mut f);
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
