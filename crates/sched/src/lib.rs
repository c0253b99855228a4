//! # spark-sched — chaining-aware scheduling for microprocessor blocks
//!
//! Scheduling support for the Spark HLS reproduction (Gupta et al., DAC 2002):
//!
//! * a functional-unit [`ResourceLibrary`] and per-flow [`Allocation`]s
//!   (unlimited for microprocessor blocks, constrained for the ASIC baseline);
//! * [`DependenceGraph`] with branch [`Guard`]s and mutual exclusion, the
//!   information needed to schedule and share resources across conditional
//!   boundaries (Section 3.1);
//! * a chaining-aware list [`schedule`]r driven by [`Constraints`];
//! * wire-variable insertion ([`insert_wire_variables`], Section 3.1.2);
//! * chaining-trail validation ([`validate_chaining`], Section 3.1.1);
//! * a sequential FSM [`Controller`] consumed by RTL generation.
//!
//! # Examples
//!
//! Chain four dependent additions into a single cycle:
//!
//! ```
//! use spark_ir::{FunctionBuilder, OpKind, Type, Value};
//! use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("chain");
//! let a = b.param("a", Type::Bits(16));
//! let mut prev = a;
//! for i in 0..4 {
//!     let x = b.var(&format!("x{i}"), Type::Bits(16));
//!     b.assign(OpKind::Add, x, vec![Value::Var(prev), Value::word(1)]);
//!     prev = x;
//! }
//! let f = b.finish();
//! let graph = DependenceGraph::build(&f)?;
//! let sched = schedule(&f, &graph, &ResourceLibrary::new(), &Constraints::microprocessor_block(10.0))?;
//! assert_eq!(sched.num_states, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod deps;
mod fsm;
mod resources;
mod scheduler;
mod trails;
mod wires;

pub use deps::{DepKind, Dependence, DependenceGraph, Guard, GuardId, GuardTable, SchedError};
pub use fsm::{ControlStep, Controller, ScheduledOp};
pub use resources::{Allocation, FuClass, FuSpec, ResourceLibrary};
pub use scheduler::{schedule, Constraints, Schedule};
pub use trails::{validate_chaining, ChainingReport};
pub use wires::{insert_wire_variables, WireReport};
