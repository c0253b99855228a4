//! Chaining-trail validation (Section 3.1.1 of the paper).
//!
//! When an operation is chained into the same cycle as operations in the
//! branches of preceding conditionals, the chaining heuristic "traverses all
//! the paths or trails backwards from the basic block that the operation is
//! in, looking for operations that are scheduled in the same cycle", checking
//! that every trail leaves enough time in the cycle. The scheduler in this
//! crate constructs schedules bottom-up from dependences; this module is the
//! independent checker that re-validates a finished schedule the way the
//! paper describes.

use spark_ir::{BlockId, Cfg, Function, OpId};

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
    /// The largest number of backward trails examined for any single
    /// operation.
    pub max_trails: usize,
    /// The largest accumulated delay found along any trail (ns).
    pub max_trail_delay_ns: f64,
}

/// Re-validates a schedule the way the paper's chaining heuristic does.
///
/// For every operation, all backward trails from its basic block are
/// enumerated; the accumulated delay of same-state operations on each trail
/// that transitively feed the operation must fit the clock period, and every
/// same-state producer the operation is chained to must be reachable on some
/// trail.
///
/// # Errors
/// Returns [`SchedError::Unschedulable`] describing the first violated trail.
pub fn validate_chaining(
    function: &Function,
    graph: &DependenceGraph,
    schedule: &Schedule,
) -> Result<ChainingReport, SchedError> {
    let mut report = ChainingReport::default();
    let cfg = Cfg::build(function);
    // Dense per-op and per-block side tables, built once: the op → block map
    // (instead of a full block scan per query), a memoized trail counter and
    // memoized backward-reachability rows (many operations share a block, so
    // each block is analysed at most once). Trail populations are *counted*
    // (saturating DP over the DAG), never enumerated — the unrolled ILD has
    // exponentially many trails.
    let op_blocks = function.op_blocks();
    let mut trail_counter = cfg.trail_counter(64);
    let mut reachability = Reachability::new(function.blocks.len());
    let mut same_state_producers: Vec<OpId> = Vec::new();

    for &op_id in &graph.order {
        let Some(&state) = schedule.op_state.get(&op_id) else {
            continue;
        };
        same_state_producers.clear();
        same_state_producers.extend(
            graph
                .preds_of(op_id)
                .iter()
                .filter(|d| matches!(d.kind, DepKind::Flow | DepKind::Control))
                .map(|d| d.from)
                .filter(|p| schedule.op_state.get(p) == Some(&state)),
        );
        if same_state_producers.is_empty() {
            continue;
        }
        report.chained_pairs += same_state_producers.len();
        let own_block = op_blocks.get(&op_id).copied();
        for &producer in &same_state_producers {
            if op_blocks.get(&producer).copied() != own_block {
                report.cross_block_pairs += 1;
            }
        }

        // Count the backward trails (saturating at 64) for the report; the
        // fully unrolled ILD has exponentially many trails, so correctness is
        // checked with backward reachability below, not per trail.
        let Some(block) = own_block else { continue };
        report.max_trails = report.max_trails.max(trail_counter.count(block));

        // Every chained producer must lie on this op's own block or on some
        // block backward-reachable from it (otherwise the value could never
        // reach the consumer on any trail).
        let reachable_blocks = reachability.row(block, &cfg);
        for &producer in &same_state_producers {
            let producer_block = op_blocks.get(&producer).copied();
            let reachable = producer_block == own_block
                || producer_block
                    .map(|b| reachable_blocks[b.index() / 64] >> (b.index() % 64) & 1 != 0)
                    .unwrap_or(false);
            if !reachable {
                return Err(SchedError::Unschedulable(format!(
                    "operation chained to a producer that is on no backward trail ({:?})",
                    function.ops[op_id].kind
                )));
            }
        }

        // Accumulated delay along each trail: the chain into this op must fit
        // the clock period. The scheduler's per-op finish times already bound
        // this; re-derive it from finish times for the report.
        let finish = schedule.op_finish.get(&op_id).copied().unwrap_or(0.0);
        report.max_trail_delay_ns = report.max_trail_delay_ns.max(finish);
        if finish > schedule.clock_period_ns + 1e-9 {
            return Err(SchedError::Unschedulable(format!(
                "chained delay {:.2} ns exceeds the clock period {:.2} ns",
                finish, schedule.clock_period_ns
            )));
        }
    }
    Ok(report)
}

/// Memoized backward-reachability bitsets over the basic blocks of a
/// **loop-free** function: `row(b)` holds, one bit per block, every block on
/// some backward path from `b` (excluding `b` itself).
///
/// Each row is the union of its predecessors' rows plus the predecessor bits
/// and is computed once, so the whole table costs
/// O(blocks × preds × row-words) — instead of one dense-visited BFS per
/// queried block, which dominated `validate_chaining` on the unrolled ILD.
struct Reachability {
    rows: Vec<Option<Vec<u64>>>,
    pred_lists: Vec<Option<Vec<BlockId>>>,
    words: usize,
}

impl Reachability {
    fn new(block_capacity: usize) -> Self {
        Reachability {
            rows: vec![None; block_capacity],
            pred_lists: vec![None; block_capacity],
            words: block_capacity.div_ceil(64).max(1),
        }
    }

    /// The reachability bitset of `block`, building any missing ancestor rows
    /// first (iteratively — the unrolled ILD nests hundreds of blocks deep).
    fn row(&mut self, block: BlockId, cfg: &Cfg) -> &[u64] {
        if self.rows[block.index()].is_none() {
            let mut stack = vec![block];
            while let Some(&top) = stack.last() {
                if self.rows[top.index()].is_some() {
                    stack.pop();
                    continue;
                }
                let preds = self.pred_lists[top.index()]
                    .get_or_insert_with(|| cfg.pred_blocks(top))
                    .clone();
                let mut pending = false;
                for &pred in &preds {
                    if self.rows[pred.index()].is_none() {
                        stack.push(pred);
                        pending = true;
                    }
                }
                if pending {
                    continue;
                }
                let mut row = vec![0u64; self.words];
                for &pred in &preds {
                    let pred_row = self.rows[pred.index()].as_ref().expect("pred row built");
                    for (word, &bits) in pred_row.iter().enumerate() {
                        row[word] |= bits;
                    }
                    row[pred.index() / 64] |= 1 << (pred.index() % 64);
                }
                self.rows[top.index()] = Some(row);
                stack.pop();
            }
        }
        self.rows[block.index()].as_deref().expect("row just built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceLibrary;
    use crate::scheduler::{schedule, Constraints};
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    /// The Figure 5 shape: operation 4 chained with operations 1, 2, 3 that
    /// sit in the branches of two conditionals.
    fn figure5() -> Function {
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
        b.copy(o1, Value::Var(a)); // op 1
        b.else_begin();
        b.copy(o1, Value::Var(bb)); // op 2
        b.if_end();
        b.else_begin();
        b.copy(o1, Value::Var(c)); // op 3
        b.if_end();
        b.assign(OpKind::Add, o2, vec![Value::Var(o1), Value::Var(d)]); // op 4
        b.finish()
    }

    #[test]
    fn figure5_chains_across_three_trails_in_one_state() {
        let f = figure5();
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
        assert!(
            report.max_trails >= 3,
            "the paper lists three trails into BB8"
        );
        assert!(report.max_trail_delay_ns <= 10.0);
    }

    #[test]
    fn no_chaining_means_empty_report() {
        let f = figure5();
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
        let f = figure5();
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
}
