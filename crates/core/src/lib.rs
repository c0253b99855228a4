//! # spark-core — the coordinated transformation pipeline
//!
//! The primary contribution of *"Coordinated Transformations for High-Level
//! Synthesis of High Performance Microprocessor Blocks"* (Gupta et al.,
//! DAC 2002) is not any single optimisation but the coordination of
//! source-level, coarse-grain and fine-grain transformations with a
//! chaining-aware scheduler so that a natural behavioral description of a
//! microprocessor functional block becomes a maximally parallel, few-cycle
//! (typically single-cycle) architecture.
//!
//! This crate provides that coordination: [`synthesize`] runs the whole flow
//! under [`FlowOptions`] (the microprocessor-block recipe or the classical
//! ASIC baseline), returning a [`SynthesisResult`] with the transformed
//! design, its schedule, binding, datapath report, generated VHDL and a
//! per-stage log mirroring the paper's Figure 10 → Figure 15 walk-through.
//! Design-space exploration helpers ([`sweep_clock_period`],
//! [`ablation_study`]) cover the "exploration of several alternative designs"
//! use-case of Section 4.
//!
//! # Examples
//!
//! Synthesize the instruction length decoder into a single cycle and check
//! it against the golden software model:
//!
//! ```
//! use spark_core::{synthesize, FlowOptions};
//! use spark_ild::{buffer_env, build_ild_program, decode_marks, random_buffer, ILD_FUNCTION};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 8;
//! let program = build_ild_program(n as u32);
//! let result = synthesize(&program, ILD_FUNCTION, &FlowOptions::microprocessor_block(200.0))?;
//! assert!(result.is_single_cycle());
//!
//! let buffer = random_buffer(n, 7);
//! let rtl = result.simulate(&buffer_env(&buffer))?;
//! let golden = decode_marks(&buffer, n);
//! for i in 1..=n {
//!     assert_eq!(rtl.array("Mark").unwrap()[i] != 0, golden[i]);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dse;
mod par;
mod pipeline;
mod trace;

pub use dse::{
    ablation_study, explore_configurations, format_table, sweep_clock_period, DesignPoint,
};
pub use par::par_map;
pub use pipeline::{
    synthesize, synthesize_source, synthesize_transformed, transform_program, FlowMode,
    FlowOptions, SourceSynthesisError, StageSnapshot, SynthesisError, SynthesisResult,
    TransformedProgram,
};
pub use trace::{Span, Trace};
