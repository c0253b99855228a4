//! Wire-variable insertion (Section 3.1.2 of the paper).
//!
//! Registers can only be read in the cycle after they are written. To chain
//! an operation with the producer of one of its operands *within* a cycle,
//! the producer must drive a **wire-variable**: the producer is rewritten to
//! write a fresh variable marked as a wire, and same-cycle readers are
//! redirected to the wire. A commit copy back into the original variable is
//! inserted after the producer only when something reads that variable's
//! register: a port, a read in a later state, a guard, or an initializer.
//! When producers sit in conditional branches, the wire is pre-initialised
//! with the register value before the conditional so that every chaining
//! trail supplies a value (the situation of Figures 6 and 7).
//!
//! A guard condition counts as a read, by each op it guards, so it gets its
//! wire exactly as a data operand does, and always keeps its commit copy:
//! the controller reads a guard through its wire only via that copy.
//!
//! The rewrites add copies only under guards the
//! [`DependenceGraph`](crate::DependenceGraph) the schedule was built from
//! already holds, and every scheduled operation keeps its basic block, so
//! callers keep that graph for the chaining check. Its edges do not cover
//! the new copies or the redirected operands; nothing after insertion
//! needs them.

use spark_ir::{
    BlockId, Function, HtgNode, NodeId, OpId, OpKind, PortDirection, RegionId, SecondaryMap, Value,
    VarId,
};

use crate::deps::DependenceGraph;
use crate::scheduler::Schedule;

/// Statistics of a wire-variable insertion run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Wire-variables created.
    pub wires_created: usize,
    /// Producer operations redirected to write a wire.
    pub producers_rewritten: usize,
    /// Commit copies (`register = wire`) inserted.
    pub commit_copies: usize,
    /// Pre-initialisation copies (`wire = register`) inserted in front of
    /// conditionals (the Figure 7 case).
    pub initializers: usize,
    /// Reader operands redirected from the register to the wire.
    pub readers_redirected: usize,
}

/// How an [`Access`] touches its variable.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// An operand read, redirected to the wire when a writer precedes it.
    Operand,
    /// A guard condition read. [`Controller::build`](crate::Controller::build)
    /// redirects it only through a commit copy, so it always reads the
    /// register.
    Guard,
    /// A definition.
    Write,
}

/// One scalar access by a scheduled live operation: `op`, at `position` in
/// program order, touches `var` in control step `state`.
#[derive(Clone, Copy)]
struct Access {
    var: VarId,
    state: usize,
    position: usize,
    op: OpId,
    touch: Touch,
}

/// Inserts wire-variables for every value that is produced and consumed in
/// the same control step, updating `schedule` with the new copy operations.
/// `graph`, the dependence graph of `function` that `schedule` was built
/// from, gives the program order, the guards and the blocks.
///
/// Returns a [`WireReport`] describing the rewrites. The transformation
/// preserves sequential semantics for every port and for every register
/// that some operation or guard still reads (checked by the
/// interpreter-equivalence tests). A variable whose register nothing reads
/// gets no commit copies at all, so its register may end holding another
/// value than before, and nothing observes it.
///
/// A variable's register is read, and each of its rewritten writers gets a
/// commit copy, when
/// - (a) it is a port;
/// - (b) some operand read of it is not redirected to a wire: no writer
///   precedes the read in its state, or the reader is that writer itself
///   (`v = v + 1`);
/// - (c) a guard term reads it (guards read the register unless a commit
///   copy in the same state hands them its wire);
/// - (d) an initializer `wire = register` reads it: in some state its first
///   writer is conditional and a read follows that writer.
///
/// The pass makes one walk over the graph's operations, collecting every
/// scalar access into one flat list, and a stable sort by
/// `(variable, state)` groups it: variable-major, state-ascending, program
/// order within a group. One scan of a variable's run decides whether its
/// register is read. Each group then creates its wire, initializer and
/// commit copies (ids allocated in group order) and redirects its readers.
/// The commits are spliced in after their writers, and the initializers in
/// front of their compound nodes, once per touched block and once for the
/// body region at the end.
pub fn insert_wire_variables(
    function: &mut Function,
    graph: &DependenceGraph,
    schedule: &mut Schedule,
) -> WireReport {
    let mut report = WireReport::default();

    // Per-block guard structure, in one walk: the outermost compound node a
    // block lives under (absent for top-level blocks).
    let outermost = outermost_compounds(function);
    let conditional = |op: OpId| {
        graph
            .block_of(op)
            .is_some_and(|b| outermost.contains_key(&b))
    };

    let mut accesses: Vec<Access> = Vec::with_capacity(graph.order.len() * 3);
    for (position, &op) in graph.order.iter().enumerate() {
        let Some(&state) = schedule.op_state.get(&op) else {
            continue;
        };
        let operation = &function.ops[op];
        let access = |var, touch| Access {
            var,
            state,
            position,
            op,
            touch,
        };
        for used in operation.uses_iter() {
            if !function.vars[used].is_array() {
                accesses.push(access(used, Touch::Operand));
            }
        }
        let guard = graph
            .guard_id_of(op)
            .map(|id| graph.guard_table().guard(id));
        for (cond, _) in guard.iter().flat_map(|g| &g.terms) {
            accesses.extend(cond.as_var().map(|c| access(c, Touch::Guard)));
        }
        if let Some(defined) = operation.def() {
            if !function.vars[defined].is_array() {
                accesses.push(access(defined, Touch::Write));
            }
        }
    }
    accesses.sort_by_key(|a| (a.var, a.state));

    // Writer -> its commit copy, and body compound -> the initializer nodes
    // to place in front of it (in creation order); spliced in at the end.
    let mut commits: SecondaryMap<OpId, OpId> = SecondaryMap::new();
    let mut touched_blocks: Vec<BlockId> = Vec::new();
    let mut initializers: SecondaryMap<NodeId, Vec<NodeId>> = SecondaryMap::new();

    let mut rest = accesses.as_slice();
    let mut run_var = None;
    let mut register_read = false;
    while let Some(first) = rest.first() {
        let key = (first.var, first.state);
        if run_var != Some(first.var) {
            // Entering the variable's run: decide for all its states at once.
            run_var = Some(first.var);
            let run = rest.iter().take_while(|a| a.var == first.var).count();
            register_read = function.vars[first.var].direction != PortDirection::Internal
                || reads_register(&rest[..run], conditional);
        }
        let len = rest
            .iter()
            .position(|a| (a.var, a.state) != key)
            .unwrap_or(rest.len());
        let (group, tail) = rest.split_at(len);
        rest = tail;
        let (var, state) = key;

        // A reader needs the wire only if some writer precedes it in program
        // order (otherwise it legitimately reads the register).
        let Some(first_writer) = group.iter().find(|a| a.touch == Touch::Write) else {
            continue;
        };
        let Some(last_chained_reader) = group
            .iter()
            .rev()
            .find(|a| a.touch != Touch::Write)
            .filter(|r| r.position > first_writer.position)
        else {
            continue;
        };
        if function.vars[var].is_wire() {
            continue; // already a wire; nothing to do
        }

        let ty = function.vars[var].ty;
        let wire_name = format!("w_{}_{}", function.vars[var].name, state);
        let wire = function.add_var(spark_ir::Var::wire(wire_name, ty));
        report.wires_created += 1;

        // Figure 7 case: if any writer is conditional, pre-initialise the
        // wire from the register before the outermost compound node that
        // contains the first writer.
        let needs_initializer = group
            .iter()
            .any(|a| a.touch == Touch::Write && conditional(a.op));
        if needs_initializer {
            if let Some(&compound) = graph
                .block_of(first_writer.op)
                .and_then(|b| outermost.get(&b))
            {
                let init_block = function.add_block(format!("winit_{}", function.vars[var].name));
                let init_op =
                    function.push_op(init_block, OpKind::Copy, Some(wire), vec![Value::Var(var)]);
                let node = function.add_block_node(init_block);
                initializers
                    .get_or_insert_with(compound, Vec::new)
                    .push(node);
                schedule.record(init_op, state, 0.0, 0.0, 0);
                report.initializers += 1;
            }
        }

        // Rewrite writers to write the wire and, if the register is read,
        // commit it right after. A writer after every chained reader does
        // not need rewriting.
        for writer in group
            .iter()
            .filter(|a| a.touch == Touch::Write && a.position <= last_chained_reader.position)
        {
            let Some(block) = graph.block_of(writer.op) else {
                continue;
            };
            function.ops[writer.op].dest = Some(wire);
            report.producers_rewritten += 1;
            if !register_read {
                continue;
            }
            let commit = function.add_op(OpKind::Copy, Some(var), vec![Value::Var(wire)]);
            commits.insert(writer.op, commit);
            touched_blocks.push(block);
            let finish = schedule.op_finish.get(&writer.op).copied().unwrap_or(0.0);
            schedule.record(commit, state, finish, finish, 0);
            report.commit_copies += 1;
        }

        // Redirect chained readers to the wire.
        for reader in group
            .iter()
            .filter(|a| a.touch == Touch::Operand && a.position > first_writer.position)
        {
            for arg in &mut function.ops[reader.op].args {
                if *arg == Value::Var(var) {
                    *arg = Value::Var(wire);
                    report.readers_redirected += 1;
                }
            }
        }
    }

    touched_blocks.sort_unstable();
    touched_blocks.dedup();
    for block in touched_blocks {
        let ops = std::mem::take(&mut function.blocks[block].ops);
        function.blocks[block].ops = ops
            .into_iter()
            .flat_map(|op| std::iter::once(op).chain(commits.get(&op).copied()))
            .collect();
    }
    if !initializers.is_empty() {
        let body = function.body;
        let nodes = std::mem::take(&mut function.regions[body].nodes);
        function.regions[body].nodes = nodes
            .into_iter()
            .flat_map(|node| {
                let inits = initializers.remove(&node).unwrap_or_default();
                inits.into_iter().chain(std::iter::once(node))
            })
            .collect();
    }
    report
}

/// Rules (b) to (d) of [`insert_wire_variables`] over one internal
/// variable's accesses, sorted by state and then program order (an op's
/// operand reads before its write). `conditional` tells whether a writer
/// sits under a compound node.
fn reads_register(run: &[Access], conditional: impl Fn(OpId) -> bool) -> bool {
    let mut state = run[0].state;
    // Whether the state's first writer so far is conditional.
    let mut first_writer: Option<bool> = None;
    for access in run {
        if access.state != state {
            state = access.state;
            first_writer = None;
        }
        match (access.touch, first_writer) {
            (Touch::Guard, _) | (Touch::Operand, None | Some(true)) => return true,
            (Touch::Operand, Some(false)) => {}
            (Touch::Write, None) => first_writer = Some(conditional(access.op)),
            (Touch::Write, Some(_)) => {}
        }
    }
    false
}

/// Maps every basic block nested under a top-level compound node of the body
/// to that node, in one HTG walk. Top-level blocks are absent: they are
/// unguarded, and an initializer has nothing to be hoisted in front of.
/// (A block's chain from the body descends only through compound nodes, so
/// the outermost compound containing it is always a direct body node.)
fn outermost_compounds(function: &Function) -> SecondaryMap<BlockId, NodeId> {
    fn mark(
        function: &Function,
        region: RegionId,
        root: NodeId,
        map: &mut SecondaryMap<BlockId, NodeId>,
    ) {
        for &node in &function.regions[region].nodes {
            match &function.nodes[node] {
                HtgNode::Block(b) => {
                    map.insert(*b, root);
                }
                HtgNode::If(i) => {
                    mark(function, i.then_region, root, map);
                    mark(function, i.else_region, root, map);
                }
                HtgNode::Loop(l) => mark(function, l.body, root, map),
            }
        }
    }
    let mut map = SecondaryMap::with_capacity(function.blocks.len());
    for &node in &function.regions[function.body].nodes {
        match &function.nodes[node] {
            HtgNode::Block(_) => {}
            HtgNode::If(i) => {
                mark(function, i.then_region, node, &mut map);
                mark(function, i.else_region, node, &mut map);
            }
            HtgNode::Loop(l) => mark(function, l.body, node, &mut map),
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{walk_guards, DepKind, DependenceGraph};
    use crate::resources::ResourceLibrary;
    use crate::scheduler::{schedule, Constraints};
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Program, StorageClass, Type};

    fn schedule_and_insert(f: &mut Function, period: f64) -> (Schedule, WireReport) {
        let graph = DependenceGraph::build(f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(f, &graph, &lib, &Constraints::microprocessor_block(period)).unwrap();
        let report = insert_wire_variables(f, &graph, &mut sched);
        (sched, report)
    }

    /// The registers `f` still reads: every non-wire scalar that a live
    /// op's operand or a guard term names.
    fn registers_read(f: &Function) -> Vec<VarId> {
        let mut read: Vec<VarId> = f
            .live_ops()
            .into_iter()
            .flat_map(|op| f.ops[op].uses_iter().collect::<Vec<_>>())
            .collect();
        walk_guards(f, |guard, _, _| {
            read.extend(guard.terms.iter().filter_map(|(c, _)| c.as_var()));
        })
        .unwrap();
        read.retain(|&v| !f.vars[v].is_wire() && !f.vars[v].is_array());
        read
    }

    /// Runs `original` and its rewrite `transformed` on each of `envs`.
    /// Every port, and every variable that an op or guard of `transformed`
    /// reads as a register, ends with the same value, and so do the arrays.
    /// A variable that ends with another value is no port, no op or guard
    /// of `transformed` reads it, and no commit copy writes it: the pass
    /// left its register uncommitted because nothing reads it.
    fn equivalent(original: &Function, transformed: &Function, envs: &[Env]) {
        let mut p0 = Program::new();
        p0.add_function(original.clone());
        let mut p1 = Program::new();
        p1.add_function(transformed.clone());
        let read = registers_read(transformed);
        let committed: Vec<VarId> = commits(transformed)
            .into_iter()
            .filter_map(|op| transformed.ops[op].dest)
            .collect();
        for env in envs {
            let a = Interpreter::new(&p0).run(&original.name, env).unwrap();
            let b = Interpreter::new(&p1).run(&transformed.name, env).unwrap();
            for (name, value) in &a.scalars {
                let (var, v) = transformed
                    .vars
                    .iter()
                    .find(|(_, v)| v.name == *name)
                    .expect("the rewrite keeps every variable");
                let port = v.direction != PortDirection::Internal;
                if port || read.contains(&var) {
                    assert_eq!(Some(value), b.scalars.get(name), "scalar `{name}`");
                } else if Some(value) != b.scalars.get(name) {
                    assert!(
                        !committed.contains(&var),
                        "`{name}` ends differently, yet a commit copy writes it"
                    );
                }
            }
            assert_eq!(a.arrays, b.arrays);
        }
    }

    #[test]
    fn straight_line_chain_gets_wires() {
        // r1 = a + 1; r2 = r1 + 2  (the Op1/Op2 situation of Section 3.1.2)
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let r1 = b.var("r1", Type::Bits(8));
        let r2 = b.var("r2", Type::Bits(8));
        b.assign(OpKind::Add, r1, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, r2, vec![Value::Var(r1), Value::word(2)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 10.0);
        assert_eq!(sched.num_states, 1);
        assert_eq!(report.wires_created, 1);
        assert_eq!(report.commit_copies, 0, "nothing reads r1's register");
        assert_eq!(report.readers_redirected, 1);
        verify(&f).expect("well formed");
        // r2's producer now reads a wire-variable.
        let reader = f
            .live_ops()
            .into_iter()
            .find(|&op| f.ops[op].dest == Some(r2))
            .unwrap();
        let src = f.ops[reader].args[0].as_var().unwrap();
        assert_eq!(f.vars[src].storage, StorageClass::Wire);
        equivalent(
            &original,
            &f,
            &[
                Env::new().with_scalar("a", 7),
                Env::new().with_scalar("a", 250),
            ],
        );
    }

    #[test]
    fn a_chain_within_one_state_gets_wires_and_no_commit() {
        // t = a + 1; u = t + 2; y = u + t: every read of t and u follows
        // its writer in the one state, so no register of theirs is read.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let u = b.var("u", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, u, vec![Value::Var(t), Value::word(2)]);
        b.assign(OpKind::Add, y, vec![Value::Var(u), Value::Var(t)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 10.0);
        assert_eq!(sched.num_states, 1);
        assert_eq!(
            report,
            WireReport {
                wires_created: 2,
                producers_rewritten: 2,
                commit_copies: 0,
                initializers: 0,
                readers_redirected: 3,
            }
        );
        verify(&f).expect("well formed");
        assert_eq!(registers_read(&f), [a], "only the input port is read");
        for op in f.live_ops() {
            let named: Vec<VarId> = f.ops[op].uses_iter().chain(f.ops[op].def()).collect();
            assert!(!named.contains(&t) && !named.contains(&u), "{op:?}");
        }
        equivalent(
            &original,
            &f,
            &[
                Env::new().with_scalar("a", 7),
                Env::new().with_scalar("a", 254),
            ],
        );
    }

    #[test]
    fn a_value_chained_in_one_state_and_read_in_the_next_keeps_its_commit() {
        // At 5 ns two adders fit a state: x and y chain in state 0, z and
        // out in state 1, where `out` reads x's register.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(2)]);
        b.assign(OpKind::Add, z, vec![Value::Var(y), Value::word(3)]);
        b.assign(OpKind::Add, out, vec![Value::Var(z), Value::Var(x)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 5.0);
        assert_eq!(sched.num_states, 2);
        assert_eq!(report.wires_created, 2, "x in state 0, z in state 1");
        assert_eq!(report.commit_copies, 1);
        let commit = commits(&f)[0];
        assert_eq!(f.ops[commit].dest, Some(x));
        assert_eq!(sched.op_state[&commit], 0);
        verify(&f).expect("well formed");
        equivalent(
            &original,
            &f,
            &[
                Env::new().with_scalar("a", 7),
                Env::new().with_scalar("a", 200),
            ],
        );
    }

    #[test]
    fn a_guarded_writer_in_a_later_state_keeps_the_earlier_commit() {
        // v = a + 1 chains into x in state 0; in state 1 a guarded write of
        // v chains into y, so its wire is pre-initialised from v's register.
        // No operand or guard reads that register, but the initializer
        // does: without the state-0 commit it would read a stale value.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let v = b.var("v", Type::Bits(8));
        let x = b.output("x", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, v, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, x, vec![Value::Var(v), Value::word(2)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, v, vec![Value::Var(x), Value::word(1)]);
        b.if_end();
        b.assign(OpKind::Add, y, vec![Value::Var(v), Value::word(3)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 5.0);
        assert_eq!(sched.num_states, 2);
        assert_eq!(report.initializers, 1);
        assert_eq!(report.commit_copies, 2, "one commit of v per state");
        verify(&f).expect("well formed");
        let envs: Vec<Env> = [0u64, 1]
            .into_iter()
            .map(|c| Env::new().with_scalar("a", 9).with_scalar("c", c))
            .collect();
        equivalent(&original, &f, &envs);
    }

    #[test]
    fn no_wires_needed_across_states() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let r1 = b.var("r1", Type::Bits(8));
        let r2 = b.var("r2", Type::Bits(8));
        b.assign(OpKind::Add, r1, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, r2, vec![Value::Var(r1), Value::word(2)]);
        let mut f = b.finish();
        // Clock fits only one adder: the two ops land in different states.
        let (sched, report) = schedule_and_insert(&mut f, 2.5);
        assert_eq!(sched.num_states, 2);
        assert_eq!(report.wires_created, 0);
    }

    #[test]
    fn conditional_writers_get_initializer_and_commit_copies() {
        // The Figure 6 situation: o1 written in both branches, read after.
        let mut b = FunctionBuilder::new("fig6");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let d = b.param("d", Type::Bits(8));
        let e = b.param("e", Type::Bits(8));
        let cond = b.param("cond", Type::Bool);
        let o1 = b.var("o1", Type::Bits(8));
        let o2 = b.output("o2", Type::Bits(8));
        b.if_begin(Value::Var(cond));
        b.assign(OpKind::Add, o1, vec![Value::Var(a), Value::Var(bb)]);
        b.else_begin();
        b.copy(o1, Value::Var(d));
        b.if_end();
        b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::Var(e)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 10.0);
        assert_eq!(sched.num_states, 1);
        assert_eq!(report.wires_created, 1);
        assert!(
            report.commit_copies >= 2,
            "a copy in each branch, as in Figure 6(b)"
        );
        assert_eq!(
            report.initializers, 1,
            "the wire is pre-initialised (Figure 7 situation)"
        );
        verify(&f).expect("well formed");
        let envs: Vec<Env> = [0u64, 1]
            .into_iter()
            .map(|c| {
                Env::new()
                    .with_scalar("a", 3)
                    .with_scalar("b", 4)
                    .with_scalar("d", 9)
                    .with_scalar("e", 1)
                    .with_scalar("cond", c)
            })
            .collect();
        equivalent(&original, &f, &envs);
    }

    #[test]
    fn single_branch_writer_is_covered_by_initializer() {
        // The Figure 7 situation: o1 written only in the true branch, read after.
        let mut b = FunctionBuilder::new("fig7");
        let d = b.param("d", Type::Bits(8));
        let init = b.param("o1_in", Type::Bits(8));
        let cond = b.param("cond", Type::Bool);
        let o1 = b.var("o1", Type::Bits(8));
        let o2 = b.output("o2", Type::Bits(8));
        b.copy(o1, Value::Var(init)); // a previous write of o1
        b.if_begin(Value::Var(cond));
        b.copy(o1, Value::Var(d));
        b.if_end();
        b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::word(1)]);
        let original = b.finish();
        let mut f = original.clone();
        let (_sched, report) = schedule_and_insert(&mut f, 10.0);
        assert_eq!(report.wires_created, 1);
        verify(&f).expect("well formed");
        let envs: Vec<Env> = [0u64, 1]
            .into_iter()
            .map(|c| {
                Env::new()
                    .with_scalar("d", 5)
                    .with_scalar("o1_in", 11)
                    .with_scalar("cond", c)
            })
            .collect();
        equivalent(&original, &f, &envs);
    }

    #[test]
    fn ripple_chain_of_register_updates_becomes_wires() {
        // NextStartByte += len repeated — the ILD ripple logic.
        let mut b = FunctionBuilder::new("ripple");
        let nsb = b.output("nsb", Type::Bits(16));
        let len1 = b.param("len1", Type::Bits(8));
        let len2 = b.param("len2", Type::Bits(8));
        let len3 = b.param("len3", Type::Bits(8));
        b.copy(nsb, Value::word(1));
        b.assign(OpKind::Add, nsb, vec![Value::Var(nsb), Value::Var(len1)]);
        b.assign(OpKind::Add, nsb, vec![Value::Var(nsb), Value::Var(len2)]);
        b.assign(OpKind::Add, nsb, vec![Value::Var(nsb), Value::Var(len3)]);
        let original = b.finish();
        let mut f = original.clone();
        let (sched, report) = schedule_and_insert(&mut f, 10.0);
        assert_eq!(sched.num_states, 1);
        assert!(report.wires_created >= 1);
        assert!(report.readers_redirected >= 2);
        verify(&f).expect("well formed");
        equivalent(
            &original,
            &f,
            &[Env::new()
                .with_scalar("len1", 2)
                .with_scalar("len2", 3)
                .with_scalar("len3", 4)],
        );
    }

    /// Schedules at `period`, inserts wires and rebuilds the dependence
    /// graph, returning the pre- and post-wire graphs. The post-wire graph
    /// must list every live op in program order with forward edges only.
    fn pre_and_post_wire_graphs(
        f: &mut Function,
        period: f64,
    ) -> (DependenceGraph, DependenceGraph, WireReport) {
        let pre = DependenceGraph::build(f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(f, &pre, &lib, &Constraints::microprocessor_block(period)).unwrap();
        let report = insert_wire_variables(f, &pre, &mut sched);
        let post = DependenceGraph::build(f).unwrap();
        assert_eq!(post.order, f.live_ops());
        let position: SecondaryMap<OpId, usize> = post
            .order
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i))
            .collect();
        for &op in &post.order {
            for dep in post.preds_of(op) {
                assert!(position[&dep.from] < position[&op], "edge into {op:?}");
            }
        }
        (pre, post, report)
    }

    /// The commit copies (`register = wire`) of a rewritten function.
    fn commits(f: &Function) -> Vec<OpId> {
        f.live_ops()
            .into_iter()
            .filter(|&op| {
                let op = &f.ops[op];
                op.kind == OpKind::Copy
                    && op.dest.is_some_and(|d| !f.vars[d].is_wire())
                    && op.args[0].as_var().is_some_and(|v| f.vars[v].is_wire())
            })
            .collect()
    }

    /// The op defining `var` immediately before `op` in program order.
    fn writer_before(f: &Function, graph: &DependenceGraph, op: OpId, var: VarId) -> OpId {
        let at = graph.order.iter().position(|&o| o == op).unwrap();
        *graph.order[..at]
            .iter()
            .rev()
            .find(|&&o| f.ops[o].dest == Some(var))
            .expect("a writer precedes the commit")
    }

    #[test]
    fn straight_line_chain_post_wire_graph_links_writer_commit_and_reader() {
        // r1 is an output, so its register is read and keeps its commit.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let r1 = b.output("r1", Type::Bits(8));
        let r2 = b.var("r2", Type::Bits(8));
        let writer = b.assign(OpKind::Add, r1, vec![Value::Var(a), Value::word(1)]);
        let reader = b.assign(OpKind::Add, r2, vec![Value::Var(r1), Value::word(2)]);
        let mut f = b.finish();
        let (_, post, report) = pre_and_post_wire_graphs(&mut f, 10.0);
        assert_eq!(report.wires_created, 1);
        let wire = f.ops[writer].dest.unwrap();
        assert!(f.vars[wire].is_wire());
        // The commit follows its writer, and both it and the redirected
        // reader depend on the writer through the wire.
        let commit = commits(&f)[0];
        assert_eq!(post.order, vec![writer, commit, reader]);
        for consumer in [commit, reader] {
            assert!(post
                .preds_of(consumer)
                .iter()
                .any(|d| d.from == writer && d.kind == DepKind::Flow && d.var == wire));
        }
    }

    #[test]
    fn conditional_writers_post_wire_graph_orders_initializer_and_commits() {
        // The Figure 6/7 shape: conditional writers force an initializer and
        // per-branch commits. The initializer (`wire = o1`) is unconditional
        // and precedes every writer of the wire (output edges) and every
        // commit back into `o1` (anti edges); each commit runs under its
        // writer's guard.
        let mut b = FunctionBuilder::new("fig6");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let d = b.param("d", Type::Bits(8));
        let e = b.param("e", Type::Bits(8));
        let cond = b.param("cond", Type::Bool);
        let o1 = b.var("o1", Type::Bits(8));
        let o2 = b.output("o2", Type::Bits(8));
        b.if_begin(Value::Var(cond));
        b.assign(OpKind::Add, o1, vec![Value::Var(a), Value::Var(bb)]);
        b.else_begin();
        b.copy(o1, Value::Var(d));
        b.if_end();
        b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::Var(e)]);
        let mut f = b.finish();
        let (_, post, report) = pre_and_post_wire_graphs(&mut f, 10.0);
        assert_eq!(report.initializers, 1);
        let initializer = post.order[0];
        let wire = f.ops[initializer].dest.unwrap();
        assert_eq!(f.ops[initializer].args, vec![Value::Var(o1)]);
        assert!(post.guard_of(initializer).is_unconditional());
        let commits = commits(&f);
        assert!(commits.len() >= 2);
        for commit in commits {
            let writer = writer_before(&f, &post, commit, wire);
            assert_eq!(post.guard_id_of(commit), post.guard_id_of(writer));
            assert!(post
                .preds_of(writer)
                .iter()
                .any(|d| d.from == initializer && d.kind == DepKind::Output && d.var == wire));
            assert!(post
                .preds_of(commit)
                .iter()
                .any(|d| d.from == initializer && d.kind == DepKind::Anti && d.var == o1));
        }
    }

    #[test]
    fn ripple_chain_post_wire_graph_chains_every_commit() {
        let mut b = FunctionBuilder::new("ripple");
        let nsb = b.output("nsb", Type::Bits(16));
        let len1 = b.param("len1", Type::Bits(8));
        let len2 = b.param("len2", Type::Bits(8));
        b.copy(nsb, Value::word(1));
        b.assign(OpKind::Add, nsb, vec![Value::Var(nsb), Value::Var(len1)]);
        b.assign(OpKind::Add, nsb, vec![Value::Var(nsb), Value::Var(len2)]);
        let mut f = b.finish();
        let (_, post, report) = pre_and_post_wire_graphs(&mut f, 10.0);
        assert_eq!(report.commit_copies, 3);
        for commit in commits(&f) {
            let wire = f.ops[commit].args[0].as_var().unwrap();
            let writer = writer_before(&f, &post, commit, wire);
            assert!(post
                .preds_of(commit)
                .iter()
                .any(|d| d.from == writer && d.kind == DepKind::Flow && d.var == wire));
        }
    }

    #[test]
    fn without_wires_post_wire_graph_equals_pre_wire() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let r1 = b.var("r1", Type::Bits(8));
        let r2 = b.var("r2", Type::Bits(8));
        b.assign(OpKind::Add, r1, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, r2, vec![Value::Var(r1), Value::word(2)]);
        let mut f = b.finish();
        // The clock fits one adder: the chain spans two states, no wires.
        let (pre, post, report) = pre_and_post_wire_graphs(&mut f, 2.5);
        assert_eq!(report.wires_created, 0);
        assert_eq!(pre.order, post.order);
        for &op in &pre.order {
            assert_eq!(pre.preds_of(op), post.preds_of(op));
            assert_eq!(pre.guard_id_of(op), post.guard_id_of(op));
        }
    }
}
