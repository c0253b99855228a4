//! Chaining-trail validation (Section 3.1.1 of the paper).
//!
//! When an operation is chained into the same cycle as operations in the
//! branches of preceding conditionals, the chaining heuristic "traverses all
//! the paths or trails backwards from the basic block that the operation is
//! in, looking for operations that are scheduled in the same cycle", checking
//! that every trail leaves enough time in the cycle. The scheduler in this
//! crate constructs schedules bottom-up from dependences; this module is the
//! independent checker that re-validates a finished schedule.
//!
//! The HTG is loop-free by the time it is scheduled, so "the producer lies
//! on a backward trail of the consumer" means "it comes earlier in program
//! order and its guard is not mutually exclusive with the consumer's". Every
//! edge of the [`DependenceGraph`] meets that condition by construction, so
//! its same-state Flow and Control edges are exactly the chained pairs, and
//! what is left to check is that every chain fits the clock: no operation of
//! the schedule, wire-insertion copies included, finishes after the clock
//! period.

use spark_ir::Function;

use crate::deps::{DepKind, DependenceGraph, SchedError};
use crate::scheduler::Schedule;

/// Summary of the chaining structure of a schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChainingReport {
    /// Flow/control dependences chained within one state.
    pub chained_pairs: usize,
    /// Chained pairs whose producer and consumer sit in different basic
    /// blocks (chaining across conditional boundaries).
    pub cross_block_pairs: usize,
}

/// Re-validates a schedule the way the paper's chaining heuristic does.
///
/// `graph` is the dependence graph `schedule` was built from; `function`
/// may have been rewritten by wire insertion since, which keeps every
/// scheduled operation in its basic block. The chained pairs are counted
/// from `graph`'s same-state Flow and Control edges, and every operation in
/// `schedule` must finish within the clock period.
///
/// # Errors
/// Returns [`SchedError::Unschedulable`] naming the first operation, in
/// arena order, that finishes after the clock period.
pub fn validate_chaining(
    function: &Function,
    graph: &DependenceGraph,
    schedule: &Schedule,
) -> Result<ChainingReport, SchedError> {
    for (op, &finish) in &schedule.op_finish {
        if finish > schedule.clock_period_ns + 1e-9 {
            return Err(SchedError::Unschedulable(format!(
                "{:?} finishes at {:.2} ns, after the clock period {:.2} ns",
                function.ops[op].kind, finish, schedule.clock_period_ns
            )));
        }
    }

    let mut report = ChainingReport::default();
    for &op in &graph.order {
        let Some(&state) = schedule.op_state.get(&op) else {
            continue;
        };
        for dep in graph.preds_of(op) {
            if matches!(dep.kind, DepKind::Flow | DepKind::Control)
                && schedule.op_state.get(&dep.from) == Some(&state)
            {
                report.chained_pairs += 1;
                if graph.block_of(dep.from) != graph.block_of(op) {
                    report.cross_block_pairs += 1;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceLibrary;
    use crate::scheduler::{schedule, Constraints};
    use spark_ir::{FunctionBuilder, OpId, OpKind, Type, Value};

    /// The Figure 5 shape: operation 4 chained with operations 1, 2, 3 that
    /// sit in the branches of two conditionals. Returns the function, the
    /// three writes of `o1` and operation 4.
    fn figure5() -> (Function, [OpId; 3], OpId) {
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
        let op1 = b.copy(o1, Value::Var(a));
        b.else_begin();
        let op2 = b.copy(o1, Value::Var(bb));
        b.if_end();
        b.else_begin();
        let op3 = b.copy(o1, Value::Var(c));
        b.if_end();
        let op4 = b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::Var(d)]);
        (b.finish(), [op1, op2, op3], op4)
    }

    #[test]
    fn figure5_chains_across_three_trails_in_one_state() {
        let (f, writes, op4) = figure5();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        assert_eq!(sched.num_states, 1);
        let report = validate_chaining(&f, &graph, &sched).unwrap();
        assert!(
            report.chained_pairs >= 3,
            "op 4 chains with the writes on all trails"
        );
        assert!(report.cross_block_pairs >= 3);
        // The paper lists three trails into BB8: op 4's same-state producers
        // are exactly the three writes, each in a block of its own.
        let mut producers: Vec<OpId> = graph
            .preds_of(op4)
            .iter()
            .filter(|d| matches!(d.kind, DepKind::Flow | DepKind::Control))
            .map(|d| d.from)
            .filter(|p| sched.op_state.get(p) == sched.op_state.get(&op4))
            .collect();
        producers.sort();
        assert_eq!(producers, writes);
        let block = |op| graph.block_of(op).unwrap();
        assert_ne!(block(writes[0]), block(writes[1]));
        assert_ne!(block(writes[0]), block(writes[2]));
        assert_ne!(block(writes[1]), block(writes[2]));
    }

    #[test]
    fn no_chaining_means_empty_report() {
        let (f, _, _) = figure5();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(
            &f,
            &graph,
            &lib,
            &Constraints::microprocessor_block(10.0).without_chaining(),
        )
        .unwrap();
        let report = validate_chaining(&f, &graph, &sched).unwrap();
        assert_eq!(report.chained_pairs, 0);
        assert_eq!(report.cross_block_pairs, 0);
    }

    #[test]
    fn corrupted_schedule_is_rejected() {
        let (f, _, _) = figure5();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        // Corrupt a finish time beyond the clock period.
        let victim = sched.op_finish.keys().last().unwrap();
        sched.op_finish.insert(victim, 99.0);
        let err = validate_chaining(&f, &graph, &sched).unwrap_err();
        assert!(matches!(err, SchedError::Unschedulable(_)));
    }

    #[test]
    fn an_unchained_op_past_the_clock_is_rejected() {
        // Op 1 reads only parameters, so nothing is chained into it; its
        // finish time is still checked against the clock.
        let (f, writes, _) = figure5();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        assert!(graph
            .preds_of(writes[0])
            .iter()
            .all(|d| !matches!(d.kind, DepKind::Flow | DepKind::Control)));
        sched.op_finish.insert(writes[0], 99.0);
        let err = validate_chaining(&f, &graph, &sched).unwrap_err();
        assert!(matches!(err, SchedError::Unschedulable(_)));
    }
}
