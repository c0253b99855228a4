//! A reference for `insert_wire_variables`'s one-pass rewrite: the nested
//! per-variable access tables and per-writer `Vec::insert` splicing it
//! replaced, written against the public IR and schedule API. Test files
//! include it with `#[path = "support/wires_reference.rs"] mod wires_reference;`.

use std::collections::BTreeSet;

use spark_ir::{
    BlockId, Function, HtgNode, NodeId, OpId, OpKind, PortDirection, RegionId, SecondaryMap, Value,
    Var, VarId,
};
use spark_sched::{DependenceGraph, Schedule, WireReport};

/// Wire-variable insertion with one `(writers, readers)` table per variable
/// and state, splicing each commit copy and initializer node into place as
/// it is created. Each condition of an op's guard in `graph` counts as a
/// read by that op. A rewritten writer gets its commit copy only if its
/// variable's register is read: the variable is a port, a guard reads it,
/// an operand reads it with no writer of the same state before it in
/// program order, or an initializer reads it.
pub fn reference_insert_wire_variables(
    function: &mut Function,
    graph: &DependenceGraph,
    schedule: &mut Schedule,
) -> WireReport {
    let mut report = WireReport::default();
    let order: Vec<OpId> = function.live_ops();
    let position: SecondaryMap<OpId, usize> = order
        .iter()
        .copied()
        .enumerate()
        .map(|(i, o)| (o, i))
        .collect();
    let outermost = outermost_compounds(function);

    type Accesses = (Vec<OpId>, Vec<OpId>);
    let mut accesses: SecondaryMap<VarId, Vec<(usize, Accesses)>> =
        SecondaryMap::with_capacity(function.vars.len());
    fn state_entry(
        accesses: &mut SecondaryMap<VarId, Vec<(usize, Accesses)>>,
        var: VarId,
        state: usize,
    ) -> &mut Accesses {
        let entries = accesses.get_or_insert_with(var, Vec::new);
        let index = match entries.binary_search_by_key(&state, |&(s, _)| s) {
            Ok(index) => index,
            Err(index) => {
                entries.insert(index, (state, Accesses::default()));
                index
            }
        };
        &mut entries[index].1
    }
    let conditional = |op: OpId| {
        graph
            .block_of(op)
            .is_some_and(|b| outermost.contains_key(&b))
    };
    let mut register_read: BTreeSet<VarId> = function
        .vars
        .iter()
        .filter(|(_, v)| v.direction != PortDirection::Internal)
        .map(|(id, _)| id)
        .collect();
    let mut operand_reads: Vec<(VarId, usize, OpId)> = Vec::new();
    for &op_id in &order {
        let Some(&state) = schedule.op_state.get(&op_id) else {
            continue;
        };
        let op = &function.ops[op_id];
        for used in op.uses_iter() {
            if !function.vars[used].is_array() {
                state_entry(&mut accesses, used, state).1.push(op_id);
                operand_reads.push((used, state, op_id));
            }
        }
        for (cond, _) in graph.guard_of(op_id).terms {
            if let Some(cond) = cond.as_var() {
                state_entry(&mut accesses, cond, state).1.push(op_id);
                register_read.insert(cond);
            }
        }
        if let Some(defined) = op.def() {
            if !function.vars[defined].is_array() {
                state_entry(&mut accesses, defined, state).0.push(op_id);
            }
        }
    }
    // A state whose first writer is conditional and has a read after it
    // gets an initializer, which reads the register.
    for (var, entries) in accesses.iter() {
        for (_, (writers, readers)) in entries {
            let first_writer = writers.iter().copied().min_by_key(|w| position[w]);
            if first_writer.is_some_and(|w| {
                conditional(w) && readers.iter().any(|r| position[r] > position[&w])
            }) {
                register_read.insert(var);
            }
        }
    }
    for (var, state, reader) in operand_reads {
        let redirected = accesses[&var]
            .iter()
            .filter(|&&(s, _)| s == state)
            .flat_map(|(_, (writers, _))| writers)
            .any(|w| position[w] < position[&reader]);
        if !redirected {
            register_read.insert(var);
        }
    }

    for (var, entries) in accesses.iter() {
        for &(state, (ref writers, ref readers)) in entries.iter() {
            if writers.is_empty() || readers.is_empty() {
                continue;
            }
            let first_writer = writers
                .iter()
                .copied()
                .min_by_key(|w| position[w])
                .expect("non-empty");
            let chained_readers: Vec<OpId> = readers
                .iter()
                .copied()
                .filter(|r| position[r] > position[&first_writer])
                .collect();
            if chained_readers.is_empty() || function.vars[var].is_wire() {
                continue;
            }

            let ty = function.vars[var].ty;
            let wire_name = format!("w_{}_{}", function.vars[var].name, state);
            let wire = function.add_var(Var::wire(wire_name, ty));
            report.wires_created += 1;

            let needs_initializer = writers.iter().any(|&w| {
                position[&w] >= position[&first_writer]
                    && graph
                        .block_of(w)
                        .is_some_and(|b| outermost.contains_key(&b))
            });
            if needs_initializer {
                if let Some(&conditional) =
                    graph.block_of(first_writer).and_then(|b| outermost.get(&b))
                {
                    let region = function.body;
                    let index = function.regions[region]
                        .nodes
                        .iter()
                        .position(|&n| n == conditional)
                        .expect("outermost compound sits in the body region");
                    let init_block =
                        function.add_block(format!("winit_{}", function.vars[var].name));
                    let init_op = function.push_op(
                        init_block,
                        OpKind::Copy,
                        Some(wire),
                        vec![Value::Var(var)],
                    );
                    let node = function.add_block_node(init_block);
                    function.regions[region].nodes.insert(index, node);
                    schedule.record(init_op, state, 0.0, 0.0, 0);
                    report.initializers += 1;
                }
            }

            for &writer in writers.iter() {
                if position[&writer] > position[chained_readers.last().expect("non-empty")] {
                    continue;
                }
                let Some(block) = graph.block_of(writer) else {
                    continue;
                };
                function.ops[writer].dest = Some(wire);
                report.producers_rewritten += 1;
                if !register_read.contains(&var) {
                    continue;
                }
                let commit = function.add_op(OpKind::Copy, Some(var), vec![Value::Var(wire)]);
                let at = function.blocks[block]
                    .ops
                    .iter()
                    .position(|&o| o == writer)
                    .expect("writer in block");
                function.blocks[block].insert(at + 1, commit);
                let finish = schedule.op_finish.get(&writer).copied().unwrap_or(0.0);
                schedule.record(commit, state, finish, finish, 0);
                report.commit_copies += 1;
            }

            for &reader in &chained_readers {
                for arg in &mut function.ops[reader].args {
                    if *arg == Value::Var(var) {
                        *arg = Value::Var(wire);
                        report.readers_redirected += 1;
                    }
                }
            }
        }
    }
    report
}

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

/// Runs `insert_wire_variables` and the reference on copies of the same
/// scheduled function (`graph` is its pre-wire dependence graph) and checks
/// that they agree exactly: every op (id, kind, destination, operands),
/// every variable, every block's op list, every HTG node and region (the
/// body's node order included), every schedule entry (including each
/// state's recording order) and the `WireReport`. Returns the report, or
/// the first difference.
pub fn check_wires_match_reference(
    function: &Function,
    graph: &DependenceGraph,
    schedule: &Schedule,
) -> Result<WireReport, String> {
    let (mut got_f, mut got_s) = (function.clone(), schedule.clone());
    let got_report = spark_sched::insert_wire_variables(&mut got_f, graph, &mut got_s);
    let (mut want_f, mut want_s) = (function.clone(), schedule.clone());
    let want_report = reference_insert_wire_variables(&mut want_f, graph, &mut want_s);

    if got_report != want_report {
        return Err(format!(
            "reports differ:\n  one pass:  {got_report:?}\n  reference: {want_report:?}"
        ));
    }
    same_arena("op", &got_f.ops, &want_f.ops)?;
    same_arena("var", &got_f.vars, &want_f.vars)?;
    same_arena("block", &got_f.blocks, &want_f.blocks)?;
    same_arena("node", &got_f.nodes, &want_f.nodes)?;
    same_arena("region", &got_f.regions, &want_f.regions)?;
    if got_f.body != want_f.body {
        return Err("body regions differ".to_string());
    }
    if got_s.num_states != want_s.num_states
        || got_s.op_state != want_s.op_state
        || got_s.op_start != want_s.op_start
        || got_s.op_finish != want_s.op_finish
        || got_s.op_instance != want_s.op_instance
        || got_s.fu_instances != want_s.fu_instances
    {
        return Err("schedule entries differ".to_string());
    }
    Ok(got_report)
}

fn same_arena<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &spark_ir::Arena<T>,
    want: &spark_ir::Arena<T>,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what} counts differ: {} vs {}",
            got.len(),
            want.len()
        ));
    }
    for ((id, a), (_, b)) in got.iter().zip(want.iter()) {
        if a != b {
            return Err(format!(
                "{what} {id:?} differs:\n  one pass:  {a:?}\n  reference: {b:?}"
            ));
        }
    }
    Ok(())
}
