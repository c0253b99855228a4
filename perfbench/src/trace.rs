//! Spans around the benchmark's calls into each layer of the flow.
//!
//! With tracing off a span runs its work untimed, so the end-to-end run
//! pays nothing for it; a separate traced run attributes request time to
//! the layers.

use std::time::Instant;

/// The layers a request passes through, named after the crates that
/// implement them.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `spark_front::parse`: lexing and recursive-descent parsing.
    FrontParse,
    /// `spark_front::analyze_with_source`: scopes, kinds and types.
    FrontSema,
    /// `spark_front::lower` plus `spark_ir::verify` of the lowered IR.
    FrontLower,
    /// `spark_core::transform_program`: coarse and fine transforms.
    Transform,
    /// `spark_core::synthesize_transformed`: scheduling, wire variables,
    /// chaining validation, controller, binding and the datapath report.
    Backend,
    /// `SynthesisResult::vhdl`: RTL emission.
    Vhdl,
    /// `spark_ir::Interpreter`: the reference oracle for the RTL checks.
    Interp,
}

const LAYERS: usize = 7;

pub struct Tracer {
    enabled: bool,
    /// Factor from wall time to reference-host time for the current request.
    scale: f64,
    seconds: [f64; LAYERS],
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            scale: 1.0,
            seconds: [0.0; LAYERS],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// Runs `work`, charging its scaled wall time to `layer` when tracing
    /// is on.
    pub fn span<T>(&mut self, layer: Layer, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let started = Instant::now();
        let out = work();
        self.seconds[layer as usize] += started.elapsed().as_secs_f64() * self.scale;
        out
    }

    /// Total seconds charged to `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.seconds[layer as usize]
    }

    /// Total seconds charged to the layers a request is made of (everything
    /// but the checking oracle).
    pub fn request_seconds(&self) -> f64 {
        self.seconds[..Layer::Interp as usize].iter().sum()
    }
}
