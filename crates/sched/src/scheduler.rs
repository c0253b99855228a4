//! Chaining-aware priority list scheduling.
//!
//! Spark schedules microprocessor blocks with an essentially unlimited
//! resource allocation and a hard bound on the cycle time, chaining
//! operations — across conditional boundaries when necessary — until the
//! clock period is full. The classical (baseline) formulation instead limits
//! resources and does not chain across basic blocks; both are expressed
//! through [`Constraints`].

use spark_ir::{BlockId, Function, OpId, SecondaryMap};

use crate::deps::{DepKind, DependenceGraph, SchedError};
use crate::resources::{Allocation, FuClass, ResourceLibrary};

/// Scheduling constraints.
#[derive(Clone, Debug)]
pub struct Constraints {
    /// Clock period (cycle time bound) in nanoseconds.
    pub clock_period_ns: f64,
    /// Functional-unit allocation.
    pub allocation: Allocation,
    /// Allow chaining of data-dependent operations within one state.
    pub allow_chaining: bool,
    /// Allow chaining across basic-block (conditional) boundaries
    /// (Section 3.1 of the paper). Ignored when `allow_chaining` is false.
    pub allow_cross_block_chaining: bool,
    /// Upper bound on the number of control steps the scheduler may create.
    pub max_states: usize,
}

impl Constraints {
    /// The microprocessor-block scenario: unlimited resources, full chaining
    /// across conditional boundaries, tight cycle time.
    pub fn microprocessor_block(clock_period_ns: f64) -> Self {
        Constraints {
            clock_period_ns,
            allocation: Allocation::unlimited(),
            allow_chaining: true,
            allow_cross_block_chaining: true,
            max_states: 4096,
        }
    }

    /// The classical ASIC-style baseline: a small allocation, chaining only
    /// within a basic block, many states allowed.
    pub fn asic_baseline(clock_period_ns: f64) -> Self {
        Constraints {
            clock_period_ns,
            allocation: Allocation::asic_default(),
            allow_chaining: true,
            allow_cross_block_chaining: false,
            max_states: 1 << 16,
        }
    }

    /// Disables chaining entirely (every dependence crosses a state
    /// boundary) — used by the ablation benchmarks.
    pub fn without_chaining(mut self) -> Self {
        self.allow_chaining = false;
        self
    }

    /// Replaces the allocation (builder style).
    pub fn with_allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = allocation;
        self
    }
}

/// The result of scheduling one function.
///
/// All per-operation facts live in dense [`SecondaryMap`]s keyed by the
/// arena id. The fields stay public for reading; new operations (such as the
/// copies inserted by wire-variable insertion) should be added through
/// [`Schedule::record`], which also maintains the precomputed state → ops
/// index behind [`Schedule::ops_in_state`].
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Number of control steps (FSM states).
    pub num_states: usize,
    /// Clock period the schedule was built for.
    pub clock_period_ns: f64,
    /// Control step of every operation.
    pub op_state: SecondaryMap<OpId, usize>,
    /// Start time of every operation within its state (ns).
    pub op_start: SecondaryMap<OpId, f64>,
    /// Finish time of every operation within its state (ns).
    pub op_finish: SecondaryMap<OpId, f64>,
    /// Functional-unit instances used, per class (the maximum over states,
    /// with mutually exclusive operations sharing instances).
    pub fu_instances: SecondaryMap<FuClass, usize>,
    /// For every operation, the functional-unit instance index it was packed
    /// onto (class taken from the operation kind).
    pub op_instance: SecondaryMap<OpId, usize>,
    /// Operations per state in recording (scheduling) order — the O(1) index
    /// behind [`Schedule::ops_in_state`].
    state_ops: Vec<Vec<OpId>>,
}

impl Schedule {
    /// Control step of `op`.
    ///
    /// # Panics
    /// Panics if the operation was not scheduled.
    pub fn state_of(&self, op: OpId) -> usize {
        self.op_state[&op]
    }

    /// Records the placement of `op`: control step, start/finish times within
    /// the state and functional-unit instance. Keeps the per-state op index
    /// and `num_states` consistent; use this instead of inserting into the
    /// component maps directly.
    pub fn record(&mut self, op: OpId, state: usize, start: f64, finish: f64, instance: usize) {
        let previous = self.op_state.insert(op, state);
        debug_assert!(previous.is_none(), "operation {op:?} scheduled twice");
        self.op_start.insert(op, start);
        self.op_finish.insert(op, finish);
        self.op_instance.insert(op, instance);
        if self.state_ops.len() <= state {
            self.state_ops.resize_with(state + 1, Vec::new);
        }
        self.state_ops[state].push(op);
        self.num_states = self.num_states.max(state + 1);
    }

    /// Operations assigned to `state`, in scheduling order — an O(1) slice
    /// borrow from the index precomputed at construction.
    pub fn ops_in_state(&self, state: usize) -> &[OpId] {
        self.state_ops.get(state).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The longest combinational path (ns) in `state`.
    pub fn state_critical_path(&self, state: usize) -> f64 {
        self.ops_in_state(state)
            .iter()
            .map(|op| self.op_finish.get(op).copied().unwrap_or(0.0))
            .fold(0.0, f64::max)
    }

    /// The longest combinational path (ns) over all states — the cycle time
    /// the design actually needs.
    pub fn critical_path_ns(&self) -> f64 {
        (0..self.num_states)
            .map(|s| self.state_critical_path(s))
            .fold(0.0, f64::max)
    }

    /// Total number of scheduled operations.
    pub fn len(&self) -> usize {
        self.op_state.len()
    }

    /// Returns `true` if nothing was scheduled.
    pub fn is_empty(&self) -> bool {
        self.op_state.is_empty()
    }
}

/// Schedules `function` under `constraints`.
///
/// The function must be loop-free and call-free (apply the coarse-grain
/// transformations first).
///
/// # Errors
/// Returns [`SchedError`] if the function cannot be scheduled (loops, calls,
/// an operation slower than the clock period, or the state limit is hit).
pub fn schedule(
    function: &Function,
    graph: &DependenceGraph,
    library: &ResourceLibrary,
    constraints: &Constraints,
) -> Result<Schedule, SchedError> {
    // Block of every op, for the cross-block chaining test — built in one
    // pass instead of a per-op block scan.
    let block_of: SecondaryMap<OpId, BlockId> = function.op_blocks();
    let mut result = Schedule {
        clock_period_ns: constraints.clock_period_ns,
        ..Schedule::default()
    };
    let guard_table = graph.guard_table();

    // Functional-unit instances: state -> class -> instances -> occupants
    // (occupants recorded with their interned guard for the exclusion test).
    let mut instances: Vec<SecondaryMap<FuClass, Vec<Vec<crate::deps::GuardId>>>> = Vec::new();

    // Per-op scratch: the data (flow/control) dependences with their
    // precomputed chainability, so the candidate-state retry loop below runs
    // over a flat slice instead of re-deciding chainability per retry.
    let mut data_deps: Vec<(OpId, bool)> = Vec::new();

    for &op_id in &graph.order {
        let op = &function.ops[op_id];
        let delay = library.op_delay(&op.kind, &op.args);
        if delay > constraints.clock_period_ns {
            return Err(SchedError::Unschedulable(format!(
                "operation `{}` needs {delay:.2} ns but the clock period is {:.2} ns",
                op.kind, constraints.clock_period_ns
            )));
        }
        let class = FuClass::for_op(&op.kind);
        let op_guard = graph
            .guard_id_of(op_id)
            .expect("ops in graph order carry guards");

        // Minimum state from dependences, assuming chaining wherever allowed;
        // data dependences and their chainability are cached for the retries.
        data_deps.clear();
        let mut state = 0usize;
        for dep in graph.preds_of(op_id) {
            let producer_state = result.op_state[&dep.from];
            let same_state_allowed = match dep.kind {
                DepKind::Anti | DepKind::Output => true,
                DepKind::Flow | DepKind::Control => {
                    let chainable = constraints.allow_chaining
                        && (constraints.allow_cross_block_chaining
                            || block_of.get(&dep.from) == block_of.get(&op_id));
                    data_deps.push((dep.from, chainable));
                    chainable
                }
            };
            let minimum = if same_state_allowed {
                producer_state
            } else {
                producer_state + 1
            };
            state = state.max(minimum);
        }

        // Find the first state >= `state` where timing and resources fit.
        loop {
            if state >= constraints.max_states {
                return Err(SchedError::Unschedulable(format!(
                    "state limit of {} exceeded",
                    constraints.max_states
                )));
            }
            // Arrival time: chained inputs produced in this same state.
            let mut arrival: f64 = 0.0;
            let mut timing_ok = true;
            for &(from, chainable) in &data_deps {
                if result.op_state[&from] == state {
                    if !chainable {
                        timing_ok = false;
                        break;
                    }
                    arrival = arrival.max(result.op_finish[&from]);
                }
            }
            if !timing_ok || arrival + delay > constraints.clock_period_ns {
                state += 1;
                continue;
            }

            // Resource check with mutual-exclusion sharing: an instance can
            // be reused when every occupant's guard excludes this op's —
            // each test one word of the precomputed exclusion bitset.
            while instances.len() <= state {
                instances.push(SecondaryMap::new());
            }
            let slot = if class.is_free() {
                Some(0)
            } else {
                let class_instances = instances[state].get_or_insert_with(class, Vec::new);
                let mut found = None;
                for (index, occupants) in class_instances.iter().enumerate() {
                    if occupants
                        .iter()
                        .all(|&other| guard_table.mutually_exclusive(other, op_guard))
                    {
                        found = Some(index);
                        break;
                    }
                }
                match found {
                    Some(index) => Some(index),
                    None if class_instances.len() < constraints.allocation.limit(class) => {
                        class_instances.push(Vec::new());
                        Some(class_instances.len() - 1)
                    }
                    None => None,
                }
            };
            let Some(instance) = slot else {
                state += 1;
                continue;
            };
            if !class.is_free() {
                instances[state]
                    .get_mut(&class)
                    .expect("class entry exists")[instance]
                    .push(op_guard);
            }

            result.record(op_id, state, arrival, arrival + delay, instance);
            break;
        }
    }

    // Functional units needed: per class, the maximum instance count over states.
    for state_instances in &instances {
        for (class, class_instances) in state_instances.iter() {
            let used = class_instances
                .iter()
                .filter(|occupants| !occupants.is_empty())
                .count();
            let entry = result.fu_instances.get_or_insert_with(class, || 0);
            *entry = (*entry).max(used);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    /// a chain of four dependent additions.
    fn adder_chain() -> Function {
        let mut b = FunctionBuilder::new("chain");
        let a = b.param("a", Type::Bits(16));
        let mut prev = a;
        for i in 0..4 {
            let next = b.var(&format!("x{i}"), Type::Bits(16));
            b.assign(OpKind::Add, next, vec![Value::Var(prev), Value::word(1)]);
            prev = next;
        }
        b.finish()
    }

    #[test]
    fn chaining_packs_dependent_ops_into_one_state() {
        let f = adder_chain();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        // 4 chained adders at 2.0 ns each fit a 10 ns clock.
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        assert_eq!(sched.num_states, 1);
        assert!((sched.critical_path_ns() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tight_clock_forces_multiple_states() {
        let f = adder_chain();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        // Only two 2.0 ns adders fit a 4.5 ns clock.
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(4.5)).unwrap();
        assert_eq!(sched.num_states, 2);
        assert!(sched.critical_path_ns() <= 4.5);
    }

    #[test]
    fn disabling_chaining_serializes_dependences() {
        let f = adder_chain();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(
            &f,
            &graph,
            &lib,
            &Constraints::microprocessor_block(10.0).without_chaining(),
        )
        .unwrap();
        assert_eq!(sched.num_states, 4);
    }

    #[test]
    fn resource_limits_serialize_independent_ops() {
        // Four independent additions.
        let mut b = FunctionBuilder::new("par");
        let a = b.param("a", Type::Bits(16));
        for i in 0..4 {
            let x = b.var(&format!("x{i}"), Type::Bits(16));
            b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(i)]);
        }
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();

        let unlimited =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        assert_eq!(unlimited.num_states, 1);
        assert_eq!(unlimited.fu_instances[&FuClass::Adder], 4);

        let constrained = Constraints::microprocessor_block(10.0)
            .with_allocation(Allocation::constrained().with_limit(FuClass::Adder, 1));
        let serial = schedule(&f, &graph, &lib, &constrained).unwrap();
        assert_eq!(serial.num_states, 4);
        assert_eq!(serial.fu_instances[&FuClass::Adder], 1);
    }

    #[test]
    fn mutually_exclusive_ops_share_a_unit() {
        // if (c) x = a + 1 else x = a + 2  -- both adds can share one adder
        // in the same state.
        let mut b = FunctionBuilder::new("mux");
        let a = b.param("a", Type::Bits(16));
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(16));
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.else_begin();
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(2)]);
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let constrained = Constraints::microprocessor_block(10.0)
            .with_allocation(Allocation::constrained().with_limit(FuClass::Adder, 1));
        let sched = schedule(&f, &graph, &lib, &constrained).unwrap();
        assert_eq!(
            sched.num_states, 1,
            "exclusive branches share the single adder"
        );
        assert_eq!(sched.fu_instances[&FuClass::Adder], 1);
    }

    #[test]
    fn cross_block_chaining_toggle_matters() {
        // cond = a > 3; if (cond) { x = a + 1 }  — with cross-block chaining
        // the guarded add fits in state 0; without it, it must wait a state.
        let mut b = FunctionBuilder::new("cross");
        let a = b.param("a", Type::Bits(16));
        let cond = b.var("cond", Type::Bool);
        let x = b.var("x", Type::Bits(16));
        b.assign(OpKind::Gt, cond, vec![Value::Var(a), Value::word(3)]);
        b.if_begin(Value::Var(cond));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();

        let with_cross =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        assert_eq!(with_cross.num_states, 1);

        let mut no_cross = Constraints::microprocessor_block(10.0);
        no_cross.allow_cross_block_chaining = false;
        let sched = schedule(&f, &graph, &lib, &no_cross).unwrap();
        assert_eq!(sched.num_states, 2);
    }

    #[test]
    fn impossible_clock_is_an_error() {
        let f = adder_chain();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let err = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(1.0)).unwrap_err();
        assert!(matches!(err, SchedError::Unschedulable(_)));
    }

    #[test]
    fn copies_are_free() {
        let mut b = FunctionBuilder::new("copies");
        let a = b.param("a", Type::Bits(16));
        let mut prev = a;
        for i in 0..10 {
            let next = b.var(&format!("c{i}"), Type::Bits(16));
            b.copy(next, Value::Var(prev));
            prev = next;
        }
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(5.0)).unwrap();
        assert_eq!(sched.num_states, 1);
        assert_eq!(sched.critical_path_ns(), 0.0);
        assert!(!sched.fu_instances.contains_key(&FuClass::Wire));
    }

    #[test]
    fn ops_in_state_index_matches_op_state_map() {
        let f = adder_chain();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(4.5)).unwrap();
        let mut indexed = 0usize;
        for state in 0..sched.num_states {
            for op in sched.ops_in_state(state) {
                assert_eq!(sched.op_state.get(op), Some(&state));
                indexed += 1;
            }
        }
        assert_eq!(indexed, sched.len());
        assert!(sched.ops_in_state(sched.num_states).is_empty());
    }
}
