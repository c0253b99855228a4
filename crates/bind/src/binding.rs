//! Register and functional-unit binding.
//!
//! Registers are allocated with the classical left-edge algorithm over the
//! variable lifetimes; functional units are shared between mutually exclusive
//! operations (Section 2 of the paper: "in synthesis, mutually exclusive
//! operations can be scheduled in the same clock cycle on the same
//! resource"), and the steering (multiplexer) cost of that sharing is
//! accounted for explicitly, since "mapping an operation to a resource can
//! lead to the generation of additional steering logic".

use spark_ir::{Function, OpId, PortDirection, SecondaryMap, VarId};
use spark_sched::{FuClass, ResourceLibrary, Schedule};

use crate::lifetime::LifetimeAnalysis;

/// A physical register produced by the left-edge allocator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhysicalRegister {
    /// Variables packed into this register (non-overlapping lifetimes).
    pub variables: Vec<VarId>,
    /// Width in bits (the widest packed variable).
    pub width: u16,
}

/// A bound functional-unit instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuInstance {
    /// Class of the unit.
    pub class: Option<FuClass>,
    /// Operations mapped onto it.
    pub ops: Vec<OpId>,
}

/// The complete binding of a scheduled function.
#[derive(Clone, Debug, Default)]
pub struct Binding {
    /// Physical registers after left-edge packing.
    pub registers: Vec<PhysicalRegister>,
    /// Register index per registered variable.
    pub register_of: SecondaryMap<VarId, usize>,
    /// Functional-unit instances per class.
    pub fu_instances: SecondaryMap<FuClass, Vec<FuInstance>>,
    /// Number of two-input multiplexers needed for operand steering.
    pub steering_muxes: usize,
    /// Estimated datapath area (gate-equivalents).
    pub area_estimate: f64,
}

impl Binding {
    /// Binds `function` given its schedule and lifetimes.
    pub fn compute(
        function: &Function,
        schedule: &Schedule,
        lifetimes: &LifetimeAnalysis,
        library: &ResourceLibrary,
    ) -> Self {
        let mut binding = Binding::default();

        // ---- Register binding: left-edge over lifetimes. Equal lifetimes
        // are taken in the program order of their first definitions, so
        // how the variables happen to be numbered decides no sharing.
        let order = function.live_ops();
        let mut first_def_at: SecondaryMap<VarId, usize> =
            SecondaryMap::with_capacity(function.vars.len());
        for (position, &op) in order.iter().enumerate() {
            if let Some(defined) = function.ops[op].def() {
                first_def_at.get_or_insert_with(defined, || position);
            }
        }
        let mut intervals: Vec<(VarId, crate::lifetime::Lifetime)> =
            lifetimes.registered.iter().map(|(v, &l)| (v, l)).collect();
        intervals.sort_by_key(|(v, l)| (l.first_def, l.last_use, first_def_at.get(v).copied(), *v));
        // Primary outputs keep dedicated registers (they are architectural
        // state visible at the ports); everything else may share.
        for (var, lifetime) in intervals {
            let width = function.vars[var].ty.width();
            let is_output = function.vars[var].direction == PortDirection::Output;
            let slot = if is_output {
                None
            } else {
                binding.registers.iter().position(|reg| {
                    reg.variables.iter().all(|&other| {
                        function.vars[other].direction != PortDirection::Output
                            && !lifetimes.registered[&other].overlaps(&lifetime)
                    })
                })
            };
            let index = match slot {
                Some(index) => index,
                None => {
                    binding.registers.push(PhysicalRegister::default());
                    binding.registers.len() - 1
                }
            };
            let register = &mut binding.registers[index];
            register.variables.push(var);
            register.width = register.width.max(width);
            binding.register_of.insert(var, index);
        }

        // ---- Functional-unit binding: reuse the scheduler's instance packing.
        for op_id in order {
            let Some(&instance) = schedule.op_instance.get(&op_id) else {
                continue;
            };
            let op = &function.ops[op_id];
            let class = FuClass::for_op(&op.kind);
            if class.is_free() || library.op_area(&op.kind, &op.args) == 0.0 {
                continue;
            }
            let instances = binding.fu_instances.get_or_insert_with(class, Vec::new);
            while instances.len() <= instance {
                instances.push(FuInstance {
                    class: Some(class),
                    ops: Vec::new(),
                });
            }
            instances[instance].ops.push(op_id);
        }

        // ---- Steering logic: a unit executing k > 1 operations needs a
        // (k-1)-deep 2:1 mux tree per operand port (2 ports assumed).
        binding.steering_muxes = binding
            .fu_instances
            .values()
            .flatten()
            .map(|fu| fu.ops.len().saturating_sub(1) * 2)
            .sum();

        // ---- Area estimate: units + registers + steering.
        let mut area = 0.0;
        for (class, instances) in &binding.fu_instances {
            area += library.spec(class).area
                * instances.iter().filter(|i| !i.ops.is_empty()).count() as f64;
        }
        for register in &binding.registers {
            area += library.register_bit_area * f64::from(register.width);
        }
        // Output arrays (e.g. Mark[]) are per-element registers.
        for (_, var) in function.vars.iter() {
            if var.direction == PortDirection::Output {
                if let Some(length) = var.array_length() {
                    area +=
                        library.register_bit_area * f64::from(var.ty.width()) * f64::from(length);
                }
            }
        }
        area += library.spec(FuClass::Mux).area * binding.steering_muxes as f64;
        binding.area_estimate = area;
        binding
    }

    /// Total number of physical registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeAnalysis;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};
    use spark_sched::{schedule, Allocation, Constraints, Controller, DependenceGraph};

    fn bind(f: &Function, constraints: &Constraints) -> (Schedule, Binding) {
        let graph = DependenceGraph::build(f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(f, &graph, &lib, constraints).unwrap();
        let lifetimes = LifetimeAnalysis::compute(f, &Controller::build(f, &sched));
        let binding = Binding::compute(f, &sched, &lifetimes, &lib);
        (sched, binding)
    }

    /// Sequential accumulations that are forced into separate states by a
    /// single-adder allocation.
    fn serial_design() -> Function {
        let mut b = FunctionBuilder::new("serial");
        let a = b.param("a", Type::Bits(8));
        let t0 = b.var("t0", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, t0, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, t1, vec![Value::Var(t0), Value::word(2)]);
        b.assign(OpKind::Add, t2, vec![Value::Var(t1), Value::word(3)]);
        b.assign(OpKind::Add, out, vec![Value::Var(t2), Value::word(4)]);
        b.finish()
    }

    #[test]
    fn left_edge_packs_disjoint_lifetimes() {
        let f = serial_design();
        // No chaining: each add in its own state, so t0..t2 have short,
        // staggered lifetimes that can share registers.
        let constraints = Constraints::microprocessor_block(10.0)
            .without_chaining()
            .with_allocation(Allocation::constrained().with_limit(FuClass::Adder, 1));
        let (sched, binding) = bind(&f, &constraints);
        assert_eq!(sched.num_states, 4);
        // t0 dies when t1 is born, etc.: left-edge shares one register for the
        // temporaries plus a dedicated register for the output.
        assert!(binding.register_count() <= 3);
        assert!(binding.register_of.len() >= 3);
        assert_eq!(binding.fu_instances[&FuClass::Adder].len(), 1);
        // One adder executing four ops needs steering muxes.
        assert!(binding.steering_muxes >= 6);
        assert!(binding.area_estimate > 0.0);
    }

    #[test]
    fn single_cycle_design_has_no_intermediate_registers() {
        let f = serial_design();
        let (sched, binding) = bind(&f, &Constraints::microprocessor_block(20.0));
        assert_eq!(sched.num_states, 1);
        // Only the primary output is registered.
        assert_eq!(binding.register_count(), 1);
        // Four adders, no sharing, no steering.
        assert_eq!(binding.fu_instances[&FuClass::Adder].len(), 4);
        assert_eq!(binding.steering_muxes, 0);
    }

    #[test]
    fn outputs_get_dedicated_registers() {
        let mut b = FunctionBuilder::new("two_outs");
        let a = b.param("a", Type::Bits(8));
        let x = b.output("x", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Sub, y, vec![Value::Var(a), Value::word(1)]);
        let f = b.finish();
        let (_, binding) = bind(&f, &Constraints::microprocessor_block(10.0));
        assert_eq!(binding.register_count(), 2);
        let rx = binding.register_of[&x];
        let ry = binding.register_of[&y];
        assert_ne!(rx, ry);
    }

    /// `a` dies in state 1; `x` and `y` are born together in state 2 and
    /// both read in state 3, so whichever is bound first takes `a`'s
    /// register. `declare_y_first` changes only the variables' numbering.
    fn tied_lifetimes(declare_y_first: bool) -> Function {
        let mut b = FunctionBuilder::new("tied");
        let p = b.param("p", Type::Bits(8));
        let q = b.param("q", Type::Bits(8));
        let a = b.var("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let (x, y) = if declare_y_first {
            let y = b.var("y", Type::Bits(4));
            (b.var("x", Type::Bits(16)), y)
        } else {
            let x = b.var("x", Type::Bits(16));
            (x, b.var("y", Type::Bits(4)))
        };
        let out = b.output("out", Type::Bits(16));
        b.assign(OpKind::Add, a, vec![Value::Var(p), Value::Var(q)]);
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, x, vec![Value::Var(t), Value::Var(p)]);
        b.assign(OpKind::Sub, y, vec![Value::Var(t), Value::word(1)]);
        b.assign(OpKind::Add, out, vec![Value::Var(x), Value::Var(y)]);
        b.finish()
    }

    #[test]
    fn variable_numbering_does_not_move_registers_or_area() {
        let constraints = Constraints::microprocessor_block(10.0)
            .without_chaining()
            .with_allocation(Allocation::constrained().with_limit(FuClass::Adder, 1));
        let registers = |f: &Function| {
            let (sched, binding) = bind(f, &constraints);
            assert_eq!(sched.num_states, 4);
            let by_name: Vec<(String, usize)> = ["a", "t", "x", "y", "out"]
                .iter()
                .map(|&name| {
                    let var = f.var_by_name(name).unwrap();
                    (name.to_string(), binding.register_of[&var])
                })
                .collect();
            (by_name, binding.area_estimate)
        };
        let (x_first, x_first_area) = registers(&tied_lifetimes(false));
        let (y_first, y_first_area) = registers(&tied_lifetimes(true));
        assert_eq!(x_first, y_first);
        assert_eq!(x_first_area, y_first_area);
    }

    #[test]
    fn output_arrays_contribute_register_area() {
        let mut b = FunctionBuilder::new("marks");
        let mark = b.output_array("Mark", Type::Bool, 16);
        b.array_write(mark, Value::word(0), Value::bool(true));
        let f = b.finish();
        let (_, binding) = bind(&f, &Constraints::microprocessor_block(10.0));
        let lib = ResourceLibrary::new();
        assert!(binding.area_estimate >= lib.register_bit_area * 16.0);
    }
}
