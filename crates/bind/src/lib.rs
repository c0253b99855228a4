//! # spark-bind — register and functional-unit binding
//!
//! Binding support for the Spark HLS reproduction (Gupta et al., DAC 2002):
//! variable [`LifetimeAnalysis`] over the controller's states (deciding which
//! variables become registers and which collapse into wires — Section 3.1.2),
//! left-edge register allocation, functional-unit sharing between mutually
//! exclusive operations, and a steering-logic/area estimate consumed by the
//! RTL generator and the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use spark_bind::{Binding, LifetimeAnalysis};
//! use spark_ir::{FunctionBuilder, OpKind, Type, Value};
//! use spark_sched::{schedule, Constraints, Controller, DependenceGraph, ResourceLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("f");
//! let a = b.param("a", Type::Bits(8));
//! let out = b.output("out", Type::Bits(8));
//! b.assign(OpKind::Add, out, vec![Value::Var(a), Value::word(1)]);
//! let f = b.finish();
//!
//! let graph = DependenceGraph::build(&f)?;
//! let library = ResourceLibrary::new();
//! let sched = schedule(&f, &graph, &library, &Constraints::microprocessor_block(10.0))?;
//! let lifetimes = LifetimeAnalysis::compute(&f, &Controller::build(&f, &sched));
//! let binding = Binding::compute(&f, &sched, &lifetimes, &library);
//! assert_eq!(binding.register_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod binding;
mod lifetime;

pub use binding::{Binding, FuInstance, PhysicalRegister};
pub use lifetime::{Lifetime, LifetimeAnalysis};
