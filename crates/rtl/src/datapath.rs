//! Datapath summary and area/performance estimation.
//!
//! There is no commercial logic-synthesis flow behind this reproduction (the
//! paper itself could not compare against a hand design), so the generated
//! architecture is characterised structurally: functional units, registers,
//! steering logic, ports, the achieved number of control steps and the
//! chained critical path. The *shape* of these numbers across flows (baseline
//! vs. coordinated transformations) is what the benchmark harness reports.

use spark_bind::Binding;
use spark_ir::{Function, PortDirection, SecondaryMap, StorageClass};
use spark_sched::{Controller, FuClass, Schedule};

/// A structural and quantitative summary of a synthesized design.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DatapathReport {
    /// Design (function) name.
    pub name: String,
    /// Number of FSM states (control steps).
    pub states: usize,
    /// Longest chained combinational path in any state (ns).
    pub critical_path_ns: f64,
    /// Clock period the design was scheduled for (ns).
    pub clock_period_ns: f64,
    /// Functional units per class.
    pub functional_units: SecondaryMap<FuClass, usize>,
    /// Physical registers (after left-edge packing), excluding output arrays.
    pub registers: usize,
    /// Output-array register bits (e.g. the ILD `Mark[]` vector).
    pub output_array_bits: usize,
    /// Two-input steering multiplexers.
    pub steering_muxes: usize,
    /// Primary input bits.
    pub input_bits: usize,
    /// Primary output bits.
    pub output_bits: usize,
    /// Total scheduled operations.
    pub operations: usize,
    /// Estimated area in gate equivalents.
    pub area_estimate: f64,
}

impl DatapathReport {
    /// Builds the report for one synthesized function.
    pub fn build(
        function: &Function,
        schedule: &Schedule,
        binding: &Binding,
        controller: &Controller,
    ) -> Self {
        let mut report = DatapathReport {
            name: function.name.clone(),
            states: controller.num_states(),
            critical_path_ns: controller.critical_path_ns(),
            clock_period_ns: schedule.clock_period_ns,
            registers: binding.register_count(),
            steering_muxes: binding.steering_muxes,
            operations: schedule.len(),
            area_estimate: binding.area_estimate,
            ..DatapathReport::default()
        };
        for (class, instances) in &binding.fu_instances {
            let used = instances.iter().filter(|i| !i.ops.is_empty()).count();
            if used > 0 {
                report.functional_units.insert(class, used);
            }
        }
        for (_, var) in function.vars.iter() {
            let bits = |length: Option<u32>| u32::from(var.ty.width()) * length.unwrap_or(1);
            match var.direction {
                PortDirection::Input => {
                    report.input_bits += bits(var.array_length()) as usize;
                }
                PortDirection::Output => {
                    report.output_bits += bits(var.array_length()) as usize;
                    if let StorageClass::Array { length } = var.storage {
                        report.output_array_bits += (u32::from(var.ty.width()) * length) as usize;
                    }
                }
                PortDirection::Internal => {}
            }
        }
        report
    }

    /// Total functional units of all classes.
    pub fn total_functional_units(&self) -> usize {
        self.functional_units.values().sum()
    }

    /// Latency of one block evaluation in nanoseconds (states × clock period).
    pub fn latency_ns(&self) -> f64 {
        self.states as f64 * self.clock_period_ns
    }
}

impl std::fmt::Display for DatapathReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "design `{}`:", self.name)?;
        writeln!(f, "  states             : {}", self.states)?;
        writeln!(
            f,
            "  critical path      : {:.2} ns (clock {:.2} ns)",
            self.critical_path_ns, self.clock_period_ns
        )?;
        writeln!(f, "  operations         : {}", self.operations)?;
        write!(f, "  functional units   :")?;
        if self.functional_units.is_empty() {
            writeln!(f, " none")?;
        } else {
            let parts: Vec<String> = self
                .functional_units
                .iter()
                .map(|(class, count)| format!("{count} {class}"))
                .collect();
            writeln!(f, " {}", parts.join(", "))?;
        }
        writeln!(f, "  registers          : {}", self.registers)?;
        writeln!(f, "  output array bits  : {}", self.output_array_bits)?;
        writeln!(f, "  steering muxes     : {}", self.steering_muxes)?;
        writeln!(
            f,
            "  ports              : {} in / {} out bits",
            self.input_bits, self.output_bits
        )?;
        writeln!(f, "  estimated area     : {:.0} gates", self.area_estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_bind::LifetimeAnalysis;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};
    use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary};

    fn report_for(f: &Function, period: f64) -> DatapathReport {
        let graph = DependenceGraph::build(f).unwrap();
        let library = ResourceLibrary::new();
        let sched = schedule(
            f,
            &graph,
            &library,
            &Constraints::microprocessor_block(period),
        )
        .unwrap();
        let controller = Controller::build(f, &sched);
        let lifetimes = LifetimeAnalysis::compute(f, &controller);
        let binding = Binding::compute(f, &sched, &lifetimes, &library);
        DatapathReport::build(f, &sched, &binding, &controller)
    }

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("dp");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let mark = b.output_array("Mark", Type::Bool, 4);
        let out = b.output("out", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::Var(bb)]);
        b.assign(OpKind::Add, out, vec![Value::Var(t), Value::word(1)]);
        b.array_write(mark, Value::word(0), Value::bool(true));
        b.finish()
    }

    #[test]
    fn report_counts_structure() {
        let report = report_for(&sample(), 10.0);
        assert_eq!(report.states, 1);
        assert_eq!(report.functional_units[&FuClass::Adder], 2);
        assert_eq!(report.total_functional_units(), 2);
        assert_eq!(report.registers, 1, "only `out` needs a register");
        assert_eq!(report.output_array_bits, 4);
        assert_eq!(report.input_bits, 16);
        assert_eq!(report.output_bits, 8 + 4);
        assert!((report.critical_path_ns - 4.0).abs() < 1e-9);
        assert!((report.latency_ns() - 10.0).abs() < 1e-9);
        assert!(report.area_estimate > 0.0);
    }

    #[test]
    fn display_is_readable() {
        let report = report_for(&sample(), 10.0);
        let text = report.to_string();
        assert!(text.contains("design `dp`"));
        assert!(text.contains("states             : 1"));
        assert!(text.contains("adder"));
    }
}
