//! # spark-rtl — RTL generation, estimation and simulation
//!
//! The back end of the Spark HLS reproduction (Gupta et al., DAC 2002):
//!
//! * [`DatapathReport`] — structural summary and area/critical-path estimate
//!   of a scheduled, bound design (the quantity the benchmark harness
//!   reports for every figure of the paper);
//! * [`RtlSimulator`] — cycle-accurate simulation with register/wire
//!   semantics, used to check that the generated architecture behaves exactly
//!   like the golden behavioral description;
//! * [`VhdlEmitter`] — synthesizable register-transfer-level VHDL text, with
//!   the paper's mapping of registers to VHDL signals and wire-variables to
//!   VHDL variables (footnote 1).
//!
//! # Examples
//!
//! ```
//! use spark_bind::{Binding, LifetimeAnalysis};
//! use spark_ir::{FunctionBuilder, OpKind, Type, Value};
//! use spark_rtl::{DatapathReport, VhdlEmitter};
//! use spark_sched::{schedule, Constraints, Controller, DependenceGraph, ResourceLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("incr");
//! let a = b.param("a", Type::Bits(8));
//! let y = b.output("y", Type::Bits(8));
//! b.assign(OpKind::Add, y, vec![Value::Var(a), Value::word(1)]);
//! let f = b.finish();
//!
//! let graph = DependenceGraph::build(&f)?;
//! let library = ResourceLibrary::new();
//! let sched = schedule(&f, &graph, &library, &Constraints::microprocessor_block(10.0))?;
//! let controller = Controller::build(&f, &sched);
//! let lifetimes = LifetimeAnalysis::compute(&f, &controller);
//! let binding = Binding::compute(&f, &sched, &lifetimes, &library);
//! let report = DatapathReport::build(&f, &sched, &binding, &controller);
//! assert_eq!(report.states, 1);
//! let vhdl = VhdlEmitter::new(&f, &controller).emit();
//! assert!(vhdl.contains("entity incr"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod datapath;
mod sim;
mod vhdl;

pub use datapath::DatapathReport;
pub use sim::{RtlOutcome, RtlSimError, RtlSimulator};
pub use vhdl::VhdlEmitter;
