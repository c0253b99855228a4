//! Operation chaining across conditional boundaries, step by step: the
//! Figure 4–7 examples. Shows the producers chained into one operation
//! along its trails (Section 3.1.1), the wire-variables and copies inserted
//! on every trail (Section 3.1.2), and the resulting single-cycle schedule.
//!
//! ```bash
//! cargo run --example chaining_demo
//! ```

use spark_ir::{FunctionBuilder, OpKind, Type, Value};
use spark_sched::{
    insert_wire_variables, schedule, validate_chaining, Constraints, DepKind, DependenceGraph,
    ResourceLibrary,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 5 structure: operation 4 (o2 = o1 + d) chained with the
    // writes of o1 sitting in the branches of two conditionals.
    let mut b = FunctionBuilder::new("fig5");
    let cond1 = b.param("cond1", Type::Bool);
    let cond2 = b.param("cond2", Type::Bool);
    let a = b.param("a", Type::Bits(8));
    let bb = b.param("b", Type::Bits(8));
    let c = b.param("c", Type::Bits(8));
    let d = b.param("d", Type::Bits(8));
    let o1 = b.var("o1", Type::Bits(8));
    let o2 = b.output("o2", Type::Bits(8));
    b.if_begin(Value::Var(cond1));
    b.if_begin(Value::Var(cond2));
    b.copy(o1, Value::Var(a));
    b.else_begin();
    b.copy(o1, Value::Var(bb));
    b.if_end();
    b.else_begin();
    b.copy(o1, Value::Var(c));
    b.if_end();
    let op4 = b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::Var(d)]);
    let mut f = b.finish();

    println!("== behavioral description (Figure 5 structure) ==\n{f}");

    // Schedule for a single cycle and insert wire-variables. The insertion
    // only adds copies under guards the graph already holds, so the graph
    // the schedule was built from also validates the chains.
    let graph = DependenceGraph::build(&f)?;
    let library = ResourceLibrary::new();
    let mut sched = schedule(
        &f,
        &graph,
        &library,
        &Constraints::microprocessor_block(10.0),
    )?;

    // One producer per trail into operation 4's block: every write of `o1`
    // that is not mutually exclusive with it, chained into its state.
    println!("== producers chained into operation 4, one per trail ==");
    for dep in graph.preds_of(op4) {
        if matches!(dep.kind, DepKind::Flow | DepKind::Control)
            && sched.op_state.get(&dep.from) == sched.op_state.get(&op4)
        {
            println!(
                "  op{} in {}: {}",
                dep.from.raw(),
                f.blocks[graph
                    .block_of(dep.from)
                    .expect("producers are in the graph")]
                .label,
                f.vars[dep.var].name
            );
        }
    }

    let wires = insert_wire_variables(&mut f, &graph, &mut sched);
    let chaining = validate_chaining(&f, &graph, &sched)?;

    println!("\n== after wire-variable insertion (Figures 6-7) ==\n{f}");
    println!("states: {}", sched.num_states);
    println!(
        "chained pairs: {} ({} across conditionals)",
        chaining.chained_pairs, chaining.cross_block_pairs
    );
    println!(
        "wire-variables: {}, commit copies: {}, initialisers: {}",
        wires.wires_created, wires.commit_copies, wires.initializers
    );
    println!("critical path: {:.2} ns", sched.critical_path_ns());
    Ok(())
}
