//! Variable lifetime analysis over the controller's states.
//!
//! "The Spark synthesis tool initially assumes that each variable in the
//! input behavioral description is mapped to a virtual register. After
//! scheduling, during register binding, a variable life-time analysis pass
//! determines which variables are actually mapped to registers"
//! (Section 3.1.2). A variable needs a register only if it carries a value
//! across a state boundary or holds an architectural result (a primary
//! output); wire-variables never get registers.

use spark_ir::{Function, PortDirection, SecondaryMap, VarId};
use spark_sched::Controller;

/// The lifetime of one variable in terms of control steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lifetime {
    /// First state in which the variable is written.
    pub first_def: usize,
    /// Last state in which the variable is read (or written, for outputs).
    pub last_use: usize,
}

impl Lifetime {
    /// Returns `true` if this lifetime overlaps another (they cannot share a
    /// register).
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        self.first_def <= other.last_use && other.first_def <= self.last_use
    }
}

/// Result of lifetime analysis.
#[derive(Clone, Debug, Default)]
pub struct LifetimeAnalysis {
    /// Variables that must be stored in registers, with their lifetimes.
    pub registered: SecondaryMap<VarId, Lifetime>,
    /// Variables that turn into plain wires (written and consumed within a
    /// single state, or explicitly marked as wire-variables).
    pub wires: Vec<VarId>,
}

impl LifetimeAnalysis {
    /// Analyses `function` as `controller` runs it.
    ///
    /// A variable is read in a state by the operations there that take it
    /// as an operand and by those whose guard tests it: the RTL simulator
    /// and the VHDL emitter evaluate each guard term where its operation
    /// runs, so a condition computed in an earlier state must be held in a
    /// register until then.
    ///
    /// Arrays are excluded: input arrays are ports and output arrays are
    /// per-element registers counted by the datapath generator.
    pub fn compute(function: &Function, controller: &Controller) -> Self {
        let capacity = function.vars.len();
        let mut first_def: SecondaryMap<VarId, usize> = SecondaryMap::with_capacity(capacity);
        let mut last_def: SecondaryMap<VarId, usize> = SecondaryMap::with_capacity(capacity);
        let mut last_use: SecondaryMap<VarId, usize> = SecondaryMap::with_capacity(capacity);
        for step in &controller.steps {
            let state = step.index;
            for scheduled in &step.ops {
                let op = &function.ops[scheduled.op];
                // A guard term that reads a wire is read within the state
                // that wrote it; wires are never registered anyway.
                let guard_reads = scheduled.guard.terms.iter().filter_map(|(c, _)| c.as_var());
                for used in op.uses_iter().chain(guard_reads) {
                    let entry = last_use.get_or_insert_with(used, || state);
                    *entry = (*entry).max(state);
                }
                if let Some(defined) = op.def() {
                    // Steps come in state order: this is the earliest write.
                    first_def.get_or_insert_with(defined, || state);
                    let entry = last_def.get_or_insert_with(defined, || state);
                    *entry = (*entry).max(state);
                }
            }
        }

        let mut analysis = LifetimeAnalysis::default();
        for (var_id, var) in function.vars.iter() {
            if var.is_array() {
                continue;
            }
            if var.is_wire() {
                analysis.wires.push(var_id);
                continue;
            }
            let Some(&def_state) = first_def.get(&var_id) else {
                // Never written: an input port (or dead), not a register.
                continue;
            };
            let is_output = var.direction == PortDirection::Output;
            let read_state = last_use.get(&var_id).copied();
            let crosses_state = read_state.map(|r| r > def_state).unwrap_or(false);
            if is_output || crosses_state {
                let last = read_state
                    .unwrap_or(def_state)
                    .max(last_def.get(&var_id).copied().unwrap_or(def_state));
                analysis.registered.insert(
                    var_id,
                    Lifetime {
                        first_def: def_state,
                        last_use: last,
                    },
                );
            } else {
                analysis.wires.push(var_id);
            }
        }
        analysis
    }

    /// Number of variables that need registers.
    pub fn register_count(&self) -> usize {
        self.registered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};
    use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary, Schedule};

    fn analyse(f: &Function, period: f64) -> (Schedule, LifetimeAnalysis) {
        let graph = DependenceGraph::build(f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(f, &graph, &lib, &Constraints::microprocessor_block(period)).unwrap();
        let analysis = LifetimeAnalysis::compute(f, &Controller::build(f, &sched));
        (sched, analysis)
    }

    #[test]
    fn single_cycle_intermediates_become_wires() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, out, vec![Value::Var(t), Value::word(2)]);
        let f = b.finish();
        let (sched, analysis) = analyse(&f, 10.0);
        assert_eq!(sched.num_states, 1);
        assert!(analysis.wires.contains(&t), "t lives within one cycle");
        assert!(
            analysis.registered.contains_key(&out),
            "outputs are registered"
        );
        assert_eq!(analysis.register_count(), 1);
    }

    #[test]
    fn multi_cycle_values_need_registers() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, out, vec![Value::Var(t), Value::word(2)]);
        let f = b.finish();
        // A 2.5 ns clock fits only one 2.0 ns adder per state.
        let (sched, analysis) = analyse(&f, 2.5);
        assert_eq!(sched.num_states, 2);
        assert!(
            analysis.registered.contains_key(&t),
            "t crosses a state boundary"
        );
        let lifetime = analysis.registered[&t];
        assert_eq!(lifetime.first_def, 0);
        assert_eq!(lifetime.last_use, 1);
    }

    #[test]
    fn explicit_wire_variables_are_never_registered() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let w = b.wire("w", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, w, vec![Value::Var(a), Value::word(1)]);
        b.copy(out, Value::Var(w));
        let f = b.finish();
        let (_, analysis) = analyse(&f, 10.0);
        assert!(analysis.wires.contains(&w));
        assert!(!analysis.registered.contains_key(&w));
    }

    #[test]
    fn lifetime_overlap() {
        let a = Lifetime {
            first_def: 0,
            last_use: 2,
        };
        let b = Lifetime {
            first_def: 2,
            last_use: 3,
        };
        let c = Lifetime {
            first_def: 3,
            last_use: 4,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }
}
