//! Source-level transformation of "natural" pointer-chasing loops into
//! bounded, synthesizable `for` loops.
//!
//! Figure 16 of the paper shows the most natural ILD description:
//!
//! ```c
//! while (1) {
//!     Mark[NextStartByte] = 1;
//!     len = CalculateLength(NextStartByte);
//!     NextStartByte += len;
//! }
//! ```
//!
//! The paper identifies turning such descriptions into the synthesizable
//! form of Figure 10 as future work. We implement the transformation for this
//! shape: a `while` loop with a designer-supplied trip bound `n` whose body
//! advances a single monotonically increasing *cursor* variable. The result
//! is the Figure 10 form:
//!
//! ```c
//! for (i = start; i <= n; i++) {
//!     if (i == NextStartByte) { ...body with the cursor read as i... }
//! }
//! ```
//!
//! The rewrite is valid because the cursor increases by at least one each
//! iteration, so each `i` matches the cursor at most once, and iterations
//! with `i != cursor` have no effect.

use spark_ir::{Function, HtgNode, LoopKind, NodeId, OpKind, RegionId, Type, Value, Var, VarId};

use crate::report::Report;

/// Describes the cursor pattern found in a while-loop body.
#[derive(Debug)]
struct CursorPattern {
    /// The loop node.
    loop_node: NodeId,
    /// The cursor variable (e.g. `NextStartByte`).
    cursor: VarId,
    /// The designer-supplied trip bound (buffer size `n`).
    bound: u64,
}

/// Converts natural `while (1)` cursor loops into bounded `for` loops
/// (Figure 16 → Figure 10). Loops that do not match the pattern are left
/// untouched and noted in the report.
pub fn while_to_for(function: &mut Function) -> Report {
    let mut report = Report::new("while-to-for", &function.name);
    let mut examined = Vec::new();
    while let Some(pattern) = find_pattern(function, &mut examined, &mut report) {
        rewrite(function, &pattern);
        report.add(1);
        report.note(format!(
            "converted while(1) over cursor `{}` into a for loop of {} iterations",
            function.vars[pattern.cursor].name, pattern.bound
        ));
    }
    if report.is_noop() {
        report.note("no convertible while loops found");
    }
    report
}

/// Returns the first bounded, reachable `while (1)` loop not in `examined`
/// that has exactly one cursor. Every loop looked at is added to
/// `examined`; a loop with several cursor candidates is noted in `report`.
fn find_pattern(
    function: &Function,
    examined: &mut Vec<NodeId>,
    report: &mut Report,
) -> Option<CursorPattern> {
    for (node_id, node) in function.nodes.iter() {
        let HtgNode::Loop(l) = node else { continue };
        let LoopKind::While { cond } = &l.kind else {
            continue;
        };
        // Must be an (effectively) infinite loop with a designer bound.
        let infinite = match cond {
            Value::Const(c) => c.as_bool(),
            Value::Var(_) => false,
        };
        let Some(bound) = l.trip_bound else { continue };
        if !infinite || examined.contains(&node_id) || !is_reachable(function, node_id) {
            continue;
        }
        examined.push(node_id);
        match cursor_candidates(function, l.body).as_slice() {
            [] => {}
            [cursor] => {
                return Some(CursorPattern {
                    loop_node: node_id,
                    cursor: *cursor,
                    bound,
                })
            }
            several => {
                let names: Vec<String> = several
                    .iter()
                    .map(|&v| format!("`{}`", function.vars[v].name))
                    .collect();
                report.note(format!(
                    "while loop left alone: the cursor is ambiguous between {}",
                    names.join(", ")
                ));
            }
        }
    }
    None
}

/// The variables that may be a loop's cursor: updated as `x = x + ...` in a
/// top-level block of `body` (so the update runs on every iteration) and
/// read by some other operation of the body. An update nested in an `if`
/// does not qualify: it need not advance on every iteration, so the guard
/// `i == x` could miss it.
fn cursor_candidates(function: &Function, body: RegionId) -> Vec<VarId> {
    let body_ops = function.ops_in_region(body);
    let mut candidates = Vec::new();
    for &node in &function.regions[body].nodes {
        let HtgNode::Block(block) = function.nodes[node] else {
            continue;
        };
        for &op_id in &function.blocks[block].ops {
            let op = &function.ops[op_id];
            if op.dead || op.kind != OpKind::Add {
                continue;
            }
            let Some(dest) = op.dest else { continue };
            if !op.args.contains(&Value::Var(dest)) || candidates.contains(&dest) {
                continue;
            }
            let used_elsewhere = body_ops
                .iter()
                .any(|&other| other != op_id && function.ops[other].uses().contains(&dest));
            if used_elsewhere {
                candidates.push(dest);
            }
        }
    }
    candidates
}

fn is_reachable(function: &Function, node: NodeId) -> bool {
    fn walk(function: &Function, region: RegionId, target: NodeId) -> bool {
        function.regions[region].nodes.iter().any(|&n| {
            n == target
                || match &function.nodes[n] {
                    HtgNode::Block(_) => false,
                    HtgNode::If(i) => {
                        walk(function, i.then_region, target)
                            || walk(function, i.else_region, target)
                    }
                    HtgNode::Loop(l) => walk(function, l.body, target),
                }
        })
    }
    walk(function, function.body, node)
}

/// Performs the rewrite.
fn rewrite(function: &mut Function, pattern: &CursorPattern) {
    let HtgNode::Loop(loop_data) = function.nodes[pattern.loop_node].clone() else {
        return;
    };
    let cursor_ty = function.vars[pattern.cursor].ty;

    // Fresh loop index.
    let index = function.add_var(Var::register("i", cursor_ty));

    // Replace reads of the cursor inside the body with the index (the guard
    // `i == cursor` makes them equal on executed iterations). Writes keep the
    // cursor as destination.
    for op_id in function.ops_in_region(loop_data.body) {
        for arg in &mut function.ops[op_id].args {
            if *arg == Value::Var(pattern.cursor) {
                *arg = Value::Var(index);
            }
        }
    }

    // Guard block: eq = (i == cursor)
    let guard_var = function.fresh_temp("is_start", Type::Bool);
    let guard_block = function.add_block("guard");
    function.push_op(
        guard_block,
        OpKind::Eq,
        Some(guard_var),
        vec![Value::Var(index), Value::Var(pattern.cursor)],
    );
    let guard_node = function.add_block_node(guard_block);

    // if (eq) { original body }
    let empty_else = function.add_region();
    let if_node = function.add_if_node(Value::Var(guard_var), loop_data.body, empty_else);

    // for (i = start; i <= bound; i += 1) { guard; if ... }
    let for_body = function.add_region();
    function.region_push(for_body, guard_node);
    function.region_push(for_body, if_node);
    let start = spark_ir::Constant::new(1, cursor_ty);
    let for_node = function.add_loop_node(
        LoopKind::For {
            index,
            start,
            end: Value::Const(spark_ir::Constant::new(pattern.bound, cursor_ty)),
            step: 1,
        },
        for_body,
        Some(pattern.bound),
    );

    // Swap the while node for the for node in its parent region.
    for region_id in function.regions.ids().collect::<Vec<_>>() {
        let nodes = &mut function.regions[region_id].nodes;
        if let Some(position) = nodes.iter().position(|&n| n == pattern.loop_node) {
            nodes[position] = for_node;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Program};

    /// Figure 16 in miniature: mark every "instruction start" in a buffer of
    /// synthetic lengths. Each element of `len_in` holds the length of the
    /// instruction starting at that byte (1..=3).
    fn natural_description(n: u64) -> Function {
        // Arrays are sized generously: the natural while(1) form executes a
        // fixed number of iterations and may step the cursor past the window
        // of interest; only Mark[1..=n] is compared.
        let mut b = FunctionBuilder::new("ild_natural");
        let len_in = b.param_array("len_in", Type::Bits(8), 4 * n as u32 + 8);
        let mark = b.output_array("Mark", Type::Bool, 4 * n as u32 + 8);
        let cursor = b.var("NextStartByte", Type::Bits(16));
        let len = b.var("len", Type::Bits(8));
        b.copy(cursor, Value::word(1));
        b.while_begin(Value::bool(true), Some(n));
        b.array_write(mark, Value::Var(cursor), Value::bool(true));
        b.array_read(len, len_in, Value::Var(cursor));
        b.assign(
            OpKind::Add,
            cursor,
            vec![Value::Var(cursor), Value::Var(len)],
        );
        b.loop_end();
        b.finish()
    }

    fn run_marks(program: &Program, name: &str, lengths: &[u64], n: u64) -> Vec<u64> {
        let env = Env::new().with_array("len_in", lengths.to_vec());
        let out = Interpreter::new(program).run(name, &env).unwrap();
        out.array("Mark").unwrap()[1..=n as usize].to_vec()
    }

    #[test]
    fn natural_and_converted_forms_agree() {
        let n = 8u64;
        let original = natural_description(n);
        let mut converted = original.clone();
        let report = while_to_for(&mut converted);
        assert_eq!(report.changes, 1);
        verify(&converted).expect("well formed after conversion");
        assert_eq!(converted.loop_count(), 1);
        // It is now a for loop, not a while loop.
        let is_for = converted.nodes.iter().any(
            |(_, node)| matches!(node, HtgNode::Loop(l) if matches!(l.kind, LoopKind::For { .. })),
        );
        assert!(is_for);

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(converted);
        // Lengths: instruction at byte 1 is 2 long, at 3 is 1, at 4 is 3, at 7 is 2.
        let lengths = vec![0, 2, 9, 1, 3, 9, 9, 2, 9, 9, 9, 9];
        let before = run_marks(&p0, "ild_natural", &lengths, n);
        let after = run_marks(&p1, "ild_natural", &lengths, n);
        assert_eq!(before, after);
        assert_eq!(after, vec![1, 0, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn unbounded_while_is_left_alone() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        b.while_begin(Value::bool(true), None);
        b.assign(OpKind::Add, x, vec![Value::Var(x), Value::word(1)]);
        b.loop_end();
        let mut f = b.finish();
        let report = while_to_for(&mut f);
        assert!(report.is_noop());
    }

    #[test]
    fn while_without_cursor_is_left_alone() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.while_begin(Value::bool(true), Some(4));
        b.copy(y, Value::Var(x));
        b.loop_end();
        let mut f = b.finish();
        let report = while_to_for(&mut f);
        assert!(report.is_noop());
        assert!(report.notes.iter().any(|n| n.contains("no convertible")));
    }

    /// A window-guarded accumulator next to the cursor:
    /// `while (1) bound(4) { if (cur <= 4) { acc = acc + a; m[cur] = acc; }
    /// cur = cur + 1; }`. `acc` also reads itself and is read elsewhere, but
    /// it only advances inside the `if`, so it must not become the cursor.
    fn accumulator_loop() -> Function {
        let mut b = FunctionBuilder::new("acc_loop");
        let a = b.param("a", Type::Bits(8));
        let m = b.output_array("m", Type::Bits(8), 8);
        let cur = b.var("cur", Type::Bits(8));
        let acc = b.var("acc", Type::Bits(8));
        let in_window = b.var("in_window", Type::Bool);
        b.copy(acc, Value::word(0));
        b.copy(cur, Value::word(1));
        b.while_begin(Value::bool(true), Some(4));
        b.assign(OpKind::Le, in_window, vec![Value::Var(cur), Value::word(4)]);
        b.if_begin(Value::Var(in_window));
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(a)]);
        b.array_write(m, Value::Var(cur), Value::Var(acc));
        b.if_end();
        b.assign(OpKind::Add, cur, vec![Value::Var(cur), Value::word(1)]);
        b.loop_end();
        b.finish()
    }

    #[test]
    fn cursor_is_taken_from_the_top_level_of_the_body() {
        let original = accumulator_loop();
        let mut converted = original.clone();
        let report = while_to_for(&mut converted);
        assert_eq!(report.changes, 1);
        assert!(report.notes[0].contains("cursor `cur`"), "{report}");
        verify(&converted).expect("well formed after conversion");

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(converted);
        let env = Env::new().with_scalar("a", 7);
        let before = Interpreter::new(&p0).run("acc_loop", &env).unwrap();
        let after = Interpreter::new(&p1).run("acc_loop", &env).unwrap();
        assert_eq!(before.array("m"), after.array("m"));
        assert_eq!(after.array("m").unwrap()[1..=4], [7, 14, 21, 28]);
    }

    #[test]
    fn ambiguous_cursor_is_left_alone() {
        let mut b = FunctionBuilder::new("f");
        let m = b.output_array("m", Type::Bits(8), 16);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.while_begin(Value::bool(true), Some(4));
        b.array_write(m, Value::Var(x), Value::Var(y));
        b.assign(OpKind::Add, x, vec![Value::Var(x), Value::word(1)]);
        b.assign(OpKind::Add, y, vec![Value::Var(y), Value::word(2)]);
        b.loop_end();
        let mut f = b.finish();
        let report = while_to_for(&mut f);
        assert!(report.is_noop());
        assert!(
            report.notes.iter().any(|n| n.contains("ambiguous")),
            "{report}"
        );
    }

    #[test]
    fn converted_loop_can_then_be_unrolled() {
        use crate::unroll::unroll_all_loops;
        let n = 4u64;
        let original = natural_description(n);
        let mut f = original.clone();
        while_to_for(&mut f);
        let unrolled = unroll_all_loops(&mut f).unwrap();
        assert!(unrolled.changes >= n as usize);
        assert_eq!(f.loop_count(), 0);

        let mut p0 = Program::new();
        p0.add_function(original);
        let mut p1 = Program::new();
        p1.add_function(f);
        let lengths = vec![0, 1, 1, 2, 9, 9, 9, 9];
        assert_eq!(
            run_marks(&p0, "ild_natural", &lengths, n),
            run_marks(&p1, "ild_natural", &lengths, n)
        );
    }
}
