//! The coordinated synthesis pipeline — the paper's primary contribution.
//!
//! "A judicious balance of a number of these techniques driven by well
//! considered heuristics is likely to yield HLS results that compare in
//! quality to the manually designed functional blocks" (Section 1). The
//! [`synthesize`] function coordinates the whole tool-box in the order the
//! paper walks through for the ILD (Section 6): source-level rewriting,
//! inlining, speculation, full loop unrolling, constant and copy propagation,
//! CSE, dead-code elimination, condition isolation (an `if` whose branch
//! writes its own condition tests a copy), chaining-aware scheduling,
//! wire-variable insertion, binding and RTL generation — recording the
//! effect of every stage so the figure-by-figure evolution of the design
//! can be reproduced.
//! The unrolled code is cleaned up once before it is speculated again, so
//! the operations of branches that constant propagation resolves are never
//! speculated.

use std::sync::OnceLock;
use std::time::Instant;

use spark_bind::{Binding, LifetimeAnalysis};
use spark_ir::{Env, Function, FunctionStats, Program};
use spark_rtl::{DatapathReport, RtlOutcome, RtlSimError, RtlSimulator, VhdlEmitter};
use spark_sched::{
    insert_wire_variables, schedule, validate_chaining, ChainingReport, Constraints, Controller,
    DependenceGraph, ResourceLibrary, SchedError, Schedule, WireReport,
};
use spark_transforms as xf;

use crate::Trace;

/// Which of the two synthesis scenarios of Figure 1 the flow targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowMode {
    /// High-performance microprocessor block: unlimited resources, full
    /// chaining across conditional boundaries, aggressive transformations.
    MicroprocessorBlock,
    /// Classical ASIC-style HLS baseline: constrained resources, chaining
    /// only within basic blocks, no speculative code motions, no unrolling.
    AsicBaseline,
}

/// Options controlling the coordinated flow.
///
/// The source-level rewrite of natural `while(1)` cursor loops (Figure 16 →
/// Figure 10) and call inlining (Figure 12) always run; the switches below
/// select the rest of the recipe.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Target clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Overall scenario.
    pub mode: FlowMode,
    /// Speculate pure operations out of conditionals (Figure 11).
    pub speculate: bool,
    /// Fully unroll loops (Figure 13).
    pub unroll: bool,
    /// Run constant propagation (Figure 14): fold constant operations and
    /// algebraic identities. Copies, constant ones included, are forwarded
    /// either way.
    pub constant_propagation: bool,
    /// Run common-subexpression elimination on the flattened code.
    pub cse: bool,
    /// Run [`spark_ir::verify`] on the top-level function after every
    /// transformation pass, so malformed IR from any producer (builder,
    /// frontend or a buggy pass) fails fast with the pass named instead of
    /// panicking somewhere downstream. Defaults to on in debug builds.
    pub verify_ir: bool,
}

impl FlowOptions {
    /// The coordinated microprocessor-block recipe of the paper.
    pub fn microprocessor_block(clock_period_ns: f64) -> Self {
        FlowOptions {
            clock_period_ns,
            mode: FlowMode::MicroprocessorBlock,
            speculate: true,
            unroll: true,
            constant_propagation: true,
            cse: true,
            verify_ir: cfg!(debug_assertions),
        }
    }

    /// The classical baseline: inlining only (classical HLS also flattens
    /// calls), no speculation, no unrolling, constrained resources.
    pub fn asic_baseline(clock_period_ns: f64) -> Self {
        FlowOptions {
            clock_period_ns,
            mode: FlowMode::AsicBaseline,
            speculate: false,
            unroll: true,
            constant_propagation: true,
            cse: false,
            verify_ir: cfg!(debug_assertions),
        }
    }

    fn constraints(&self) -> Constraints {
        match self.mode {
            FlowMode::MicroprocessorBlock => {
                Constraints::microprocessor_block(self.clock_period_ns)
            }
            FlowMode::AsicBaseline => Constraints::asic_baseline(self.clock_period_ns),
        }
    }
}

/// Why synthesis failed.
#[derive(Debug)]
pub enum SynthesisError {
    /// The requested top-level function does not exist in the program.
    UnknownFunction(String),
    /// Scheduling failed.
    Scheduling(SchedError),
    /// A transformation pass left the IR structurally malformed
    /// (reported only when [`FlowOptions::verify_ir`] is set).
    MalformedIr {
        /// Name of the pass after which verification failed (`"input"` when
        /// the program was malformed before any pass ran).
        pass: String,
        /// The structural violations found.
        errors: Vec<spark_ir::VerifyError>,
    },
    /// Loop unrolling (`loop-unroll-all`) would pass one of its limits.
    Unroll(xf::UnrollError),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            SynthesisError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
            SynthesisError::Unroll(e) => write!(f, "pass `loop-unroll-all` failed: {e}"),
            SynthesisError::MalformedIr { pass, errors } => {
                write!(
                    f,
                    "IR malformed after pass `{pass}`: {}",
                    errors
                        .iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<SchedError> for SynthesisError {
    fn from(e: SchedError) -> Self {
        SynthesisError::Scheduling(e)
    }
}

/// Statistics captured after one named stage of the flow — the data behind
/// the paper's figure-by-figure walk-through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name (e.g. `"speculation"`).
    pub stage: String,
    /// Structural statistics after the stage.
    pub stats: FunctionStats,
}

/// The complete result of synthesizing one block.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The transformed, scheduled top-level function.
    pub function: Function,
    /// The schedule.
    pub schedule: Schedule,
    /// The FSM controller.
    pub controller: Controller,
    /// Register / functional-unit binding.
    pub binding: Binding,
    /// Structural and area/critical-path summary.
    pub report: DatapathReport,
    /// Per-pass change log.
    pub pass_log: Vec<xf::Report>,
    /// Per-stage structural snapshots (Figures 10–15 evolution).
    pub stages: Vec<StageSnapshot>,
    /// Wire-variable insertion summary (Section 3.1.2).
    pub wire_report: WireReport,
    /// Chaining-trail validation summary (Section 3.1.1).
    pub chaining: ChainingReport,
    /// Wall-clock spans of the run that produced this result: the
    /// transformation spans first (from [`synthesize`] only), then the
    /// back-end spans.
    pub trace: Trace,
}

impl SynthesisResult {
    /// Emits the register-transfer-level VHDL of the design.
    pub fn vhdl(&self) -> String {
        VhdlEmitter::new(&self.function, &self.controller).emit()
    }

    /// Simulates the generated design (RTL semantics) on one input set.
    ///
    /// # Errors
    /// Returns [`RtlSimError`] if the datapath hits an out-of-bounds access.
    pub fn simulate(&self, env: &Env) -> Result<RtlOutcome, RtlSimError> {
        RtlSimulator::new(&self.function, &self.controller).run(env)
    }

    /// Simulates the generated design on a whole workload of input sets,
    /// reusing the simulator's value tables across buffers — the batch entry
    /// point for corpus checks and workload sweeps.
    ///
    /// # Errors
    /// Returns [`RtlSimError`] on the first failing input set.
    pub fn simulate_batch(&self, envs: &[Env]) -> Result<Vec<RtlOutcome>, RtlSimError> {
        RtlSimulator::new(&self.function, &self.controller).run_batch(envs)
    }

    /// True when the design fits a single cycle — the architecture the
    /// paper's methodology targets (Figure 15).
    pub fn is_single_cycle(&self) -> bool {
        self.controller.is_single_cycle()
    }
}

/// A program after the source-level, coarse-grain and fine-grain
/// transformations, ready for scheduling.
///
/// Splitting the flow here lets clock-period sweeps run the (clock-agnostic)
/// transformation pipeline once and then schedule each period point against
/// the same transformed program — see
/// [`sweep_clock_period`](crate::sweep_clock_period).
#[derive(Clone, Debug)]
pub struct TransformedProgram {
    /// The transformed program.
    pub program: Program,
    /// Name of the top-level function the transformations targeted.
    pub top: String,
    /// Per-pass change log accumulated during transformation.
    pub pass_log: Vec<xf::Report>,
    /// Per-stage structural snapshots (Figures 10–15 evolution).
    pub stages: Vec<StageSnapshot>,
    /// Wall-clock spans of the transformation: one per pass and one
    /// `fine-analyses` per build of the fine-grain analyses, then
    /// `transform` around them all.
    pub trace: Trace,
    /// Lazily built dependence graph of the top function, shared by every
    /// point scheduled against this program. See
    /// [`TransformedProgram::dependence_graph`].
    graph: OnceLock<Result<DependenceGraph, SchedError>>,
}

impl TransformedProgram {
    /// The (clock-agnostic) dependence graph of the transformed top-level
    /// function, built on first use and shared by every subsequent
    /// [`synthesize_transformed`] call on this program — a clock sweep builds
    /// it **once**, not once per period point. The scheduler, wire insertion
    /// and the chaining check all read it; wire insertion does not
    /// invalidate it, since its copies sit under guards it already holds.
    ///
    /// # Errors
    /// Returns [`SchedError`] when the transformed function still contains
    /// loops or calls (e.g. unrolling was disabled on a looping program).
    pub fn dependence_graph(&self) -> Result<&DependenceGraph, SchedError> {
        self.graph
            .get_or_init(|| {
                DependenceGraph::build(self.program.function(&self.top).expect("top exists"))
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Drives the transformation half of the coordinated flow: the coarse-grain
/// passes in the paper's order, with one fine-grain round before the second
/// speculation, then one fine-grain clean-up round of worklist passes over
/// shared, incrementally-maintained analyses.
///
/// The manager owns the cached [`xf::FineState`] (def–use graph and
/// structural positions), built once per fine-grain phase and threaded
/// through every fine pass of it; each pass starts its worklist from the
/// function itself. A coarse pass restructures the function, so it drops
/// the cache.
pub(crate) struct PassManager<'a> {
    options: &'a FlowOptions,
    top: String,
    working: Program,
    pass_log: Vec<xf::Report>,
    stages: Vec<StageSnapshot>,
    /// One span per pass run so far.
    trace: Trace,
    /// Cached fine-grain analyses; `None` until built or after a coarse
    /// pass.
    analyses: Option<xf::FineState>,
}

impl<'a> PassManager<'a> {
    /// Clones `program` and prepares to transform function `top`.
    ///
    /// # Errors
    /// [`SynthesisError::UnknownFunction`] when `top` does not exist, and —
    /// with [`FlowOptions::verify_ir`] set — [`SynthesisError::MalformedIr`]
    /// (`pass: "input"`) when any input function is malformed.
    fn new(program: &Program, top: &str, options: &'a FlowOptions) -> Result<Self, SynthesisError> {
        let working = program.clone();
        if working.function(top).is_none() {
            return Err(SynthesisError::UnknownFunction(top.to_string()));
        }
        // Producers (builder-constructed workloads, the frontend, tests
        // poking the arenas directly) are checked before any pass touches
        // the program: every function is still present here, so all of them
        // are verified.
        if options.verify_ir {
            for function in &working.functions {
                spark_ir::verify(function).map_err(|errors| SynthesisError::MalformedIr {
                    pass: "input".to_string(),
                    errors,
                })?;
            }
        }
        let mut manager = PassManager {
            options,
            top: top.to_string(),
            working,
            pass_log: Vec::new(),
            stages: Vec::new(),
            trace: Trace::default(),
            analyses: None,
        };
        manager.snapshot("input");
        Ok(manager)
    }

    fn snapshot(&mut self, name: &str) {
        if let Some(f) = self.working.function(&self.top) {
            self.stages.push(StageSnapshot {
                stage: name.to_string(),
                stats: FunctionStats::of(f),
            });
        }
    }

    /// Ends the span of a pass that began at `started`, appends its report
    /// to the log and — when [`FlowOptions::verify_ir`] is set — re-verifies
    /// the top-level function, so a pass that corrupts the IR fails here
    /// with its name attached instead of panicking downstream.
    fn record(&mut self, report: xf::Report, started: Instant) -> Result<(), SynthesisError> {
        let pass = report.pass.clone();
        self.trace.push(pass.clone(), 1, started);
        self.pass_log.push(report);
        self.verify_top(pass)
    }

    /// With [`FlowOptions::verify_ir`] set, re-verifies the top-level
    /// function, naming `pass` in the error.
    fn verify_top(&self, pass: String) -> Result<(), SynthesisError> {
        if self.options.verify_ir {
            if let Some(function) = self.working.function(&self.top) {
                spark_ir::verify(function)
                    .map_err(|errors| SynthesisError::MalformedIr { pass, errors })?;
            }
        }
        Ok(())
    }

    /// Runs one coarse-grain pass over the working program. The pass may
    /// restructure the function anywhere, so the cached analyses are
    /// dropped.
    fn coarse(
        &mut self,
        run: impl FnOnce(&mut Program, &str) -> Result<xf::Report, SynthesisError>,
    ) -> Result<(), SynthesisError> {
        let started = Instant::now();
        let report = run(&mut self.working, &self.top)?;
        self.analyses = None;
        self.record(report, started)
    }

    /// Runs one fine-grain worklist pass over the shared analyses. When a
    /// coarse pass dropped them, they are built first, in a `fine-analyses`
    /// span of their own, so the pass's span times the pass alone.
    fn fine(
        &mut self,
        pass: impl FnOnce(&mut Function, &mut xf::FineState) -> xf::Report,
    ) -> Result<(), SynthesisError> {
        let function = self.working.function_mut(&self.top).expect("top exists");
        let state = self.analyses.get_or_insert_with(|| {
            self.trace
                .time("fine-analyses", 1, || xf::FineState::new(function))
        });
        let started = Instant::now();
        let report = pass(function, state);
        self.record(report, started)
    }

    /// Runs the whole transformation recipe and returns the transformed
    /// program, its top function compacted ([`spark_ir::Function::compact`]):
    /// it holds only live operations, reachable blocks, nodes and regions,
    /// and the variables they name besides the ports.
    fn run(mut self) -> Result<TransformedProgram, SynthesisError> {
        let options = self.options;
        let fold = options.constant_propagation;
        let propagation =
            move |f: &mut Function, s: &mut xf::FineState| xf::propagation_with(f, s, fold);

        // ---- Source-level and coarse-grain transformations ---------------
        self.coarse(|p, top| Ok(xf::while_to_for(p.function_mut(top).expect("top exists"))))?;
        self.snapshot("while-to-for");
        self.coarse(|p, top| Ok(xf::inline_calls(p, top)))?;
        self.snapshot("inline");
        if options.speculate {
            self.coarse(|p, top| Ok(xf::speculate(p.function_mut(top).expect("top exists"))))?;
            self.snapshot("speculation");
        }
        if options.unroll {
            self.coarse(|p, top| {
                xf::unroll_all_loops(p.function_mut(top).expect("top exists"))
                    .map_err(SynthesisError::Unroll)
            })?;
            self.snapshot("loop-unroll");
        }
        // Speculation opportunities often only appear after unrolling exposes
        // the per-byte conditionals; run it again in the aggressive flow.
        // Clean up first: until the unrolled loop index is propagated, every
        // per-iteration branch would be hoisted into temporaries that the
        // clean-up below deletes again.
        if options.speculate {
            self.fine(propagation)?;
            self.fine(xf::dead_code_elimination_with)?;
            self.coarse(|p, top| Ok(xf::speculate(p.function_mut(top).expect("top exists"))))?;
        }

        // ---- Fine-grain clean-up: one round over shared analyses ----------
        self.fine(propagation)?;
        if fold {
            self.snapshot("constant-propagation");
        }
        if options.cse {
            // CSE leaves each repeated expression as a copy of its first
            // result; forward those copies so DCE can delete them.
            self.fine(xf::common_subexpression_elimination_with)?;
            self.fine(propagation)?;
        }
        self.fine(xf::dead_code_elimination_with)?;

        // The backend tests each operation's guard where the operation
        // runs, so no branch may write the condition of its own `if`.
        self.coarse(|p, top| {
            Ok(xf::isolate_conditions(
                p.function_mut(top).expect("top exists"),
            ))
        })?;

        // Hand the backend only the live IR: every design point copies the
        // top function, sizes its per-op tables by its arenas, and binds,
        // simulates and declares its variables. The last snapshot counts
        // what the backend sees.
        self.working
            .function_mut(&self.top)
            .expect("top exists")
            .compact();
        self.verify_top("compact".to_string())?;
        self.snapshot("cleanup");

        Ok(TransformedProgram {
            program: self.working,
            top: self.top,
            pass_log: self.pass_log,
            stages: self.stages,
            trace: self.trace,
            graph: OnceLock::new(),
        })
    }
}

/// Runs the transformation half of the coordinated flow: source-level
/// rewriting, inlining, speculation, unrolling and the fine-grain clean-up,
/// under the transformation switches of `options`. The clock period in
/// `options` is not consulted — transformations are clock-agnostic, which is
/// what makes the result reusable across a clock sweep. The result's
/// [`trace`](TransformedProgram::trace) times every pass, every build of
/// the fine-grain analyses and the whole transformation.
///
/// # Errors
/// Returns [`SynthesisError::UnknownFunction`] when `top` does not exist,
/// and — with [`FlowOptions::verify_ir`] set — [`SynthesisError::MalformedIr`]
/// naming the pass after which structural verification first failed.
pub fn transform_program(
    program: &Program,
    top: &str,
    options: &FlowOptions,
) -> Result<TransformedProgram, SynthesisError> {
    let started = Instant::now();
    let mut transformed = PassManager::new(program, top, options)?.run()?;
    transformed.trace.push("transform", 0, started);
    Ok(transformed)
}

/// Runs the back half of the flow — scheduling, wire-variable insertion,
/// chaining validation, binding and RTL reporting — on an already
/// transformed program, under the constraints (clock period, mode) of
/// `options`. Every step reads the program's one dependence graph
/// ([`TransformedProgram::dependence_graph`]); none is built per point. The
/// result's [`trace`](SynthesisResult::trace) holds only the back-end spans:
/// `sched_deps`, `sched_list`, `sched_wires`, `sched_validate` and
/// `sched_controller` under `schedule`, then `bind` and `rtl`.
///
/// # Errors
/// Returns [`SynthesisError::Scheduling`] when the constraints cannot be met.
pub fn synthesize_transformed(
    transformed: &TransformedProgram,
    options: &FlowOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let mut trace = Trace::default();
    let library = ResourceLibrary::new();
    let top = transformed.top.as_str();
    let pass_log = transformed.pass_log.clone();
    let mut stages = transformed.stages.clone();
    let working = &transformed.program;

    // ---- Scheduling, chaining, binding, RTL --------------------------------
    // The dependence graph (with its interned guard table) is shared: built
    // at most once per transformed program, not once per clock point.
    let schedule_started = Instant::now();
    let graph = trace.time("sched_deps", 1, || transformed.dependence_graph())?;

    let (mut function, mut sched) = trace.time("sched_list", 1, || {
        let function = working.function(top).expect("top exists").clone();
        let sched = schedule(&function, graph, &library, &options.constraints())?;
        Ok::<_, SchedError>((function, sched))
    })?;

    // Wire insertion only adds copies under guards the scheduler already
    // saw, so the chaining check keeps reading the graph the schedule was
    // built from.
    let wire_report = trace.time("sched_wires", 1, || {
        insert_wire_variables(&mut function, graph, &mut sched)
    });

    let chaining = trace.time("sched_validate", 1, || {
        validate_chaining(&function, graph, &sched)
    })?;

    let controller = trace.time("sched_controller", 1, || {
        Controller::build(&function, &sched)
    });
    trace.push("schedule", 0, schedule_started);

    let binding = trace.time("bind", 0, || {
        let lifetimes = LifetimeAnalysis::compute(&function, &controller);
        Binding::compute(&function, &sched, &lifetimes, &library)
    });

    let report = trace.time("rtl", 0, || {
        DatapathReport::build(&function, &sched, &binding, &controller)
    });
    stages.push(StageSnapshot {
        stage: "scheduled".to_string(),
        stats: FunctionStats::of(&function),
    });

    Ok(SynthesisResult {
        function,
        schedule: sched,
        controller,
        binding,
        report,
        pass_log,
        stages,
        wire_report,
        chaining,
        trace,
    })
}

/// Runs the coordinated flow on `program`, synthesizing the function `top`.
///
/// Equivalent to [`transform_program`] followed by
/// [`synthesize_transformed`], with the transformation's spans put first in
/// the result's [`trace`](SynthesisResult::trace); sweeps that vary only the
/// clock period should call the two halves directly and reuse the
/// transformed program.
///
/// # Errors
/// Returns [`SynthesisError`] when the top function is missing or scheduling
/// fails under the given constraints.
pub fn synthesize(
    program: &Program,
    top: &str,
    options: &FlowOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let transformed = transform_program(program, top, options)?;
    let mut result = synthesize_transformed(&transformed, options)?;
    let back_end = std::mem::replace(&mut result.trace, transformed.trace);
    result.trace.spans.extend(back_end.spans);
    Ok(result)
}

/// Why source-level synthesis failed: either the frontend rejected the text
/// or the flow itself failed on the lowered program.
#[derive(Debug)]
pub enum SourceSynthesisError {
    /// The SPARK-C frontend reported diagnostics (source order).
    Frontend(Vec<spark_front::Diagnostic>),
    /// The coordinated flow failed on the lowered program.
    Synthesis(SynthesisError),
}

impl std::fmt::Display for SourceSynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceSynthesisError::Frontend(diags) => {
                write!(
                    f,
                    "{}",
                    diags
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                )
            }
            SourceSynthesisError::Synthesis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceSynthesisError {}

impl From<SynthesisError> for SourceSynthesisError {
    fn from(e: SynthesisError) -> Self {
        SourceSynthesisError::Synthesis(e)
    }
}

/// Runs the coordinated flow directly on SPARK-C source text, synthesizing
/// the first function of the file (the conventional top level).
///
/// This is the paper's entry point made literal: behavioral C text in,
/// synthesized design out. Equivalent to [`spark_front::compile`] followed
/// by [`synthesize`].
///
/// # Errors
/// Returns [`SourceSynthesisError::Frontend`] with source-located
/// diagnostics when the text does not compile, or
/// [`SourceSynthesisError::Synthesis`] when the flow fails on the lowered
/// program.
pub fn synthesize_source(
    source: &str,
    options: &FlowOptions,
) -> Result<SynthesisResult, SourceSynthesisError> {
    let compiled = spark_front::compile(source).map_err(SourceSynthesisError::Frontend)?;
    Ok(synthesize(&compiled.program, &compiled.top, options)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ild::{buffer_env, build_ild_program, decode_marks, random_buffer, ILD_FUNCTION};

    #[test]
    fn ild_synthesizes_to_a_single_cycle() {
        let n = 8u32;
        let program = build_ild_program(n);
        let result = synthesize(
            &program,
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(200.0),
        )
        .expect("synthesis succeeds");
        assert!(
            result.is_single_cycle(),
            "the coordinated flow reaches the Figure 15 architecture"
        );
        assert!(result.report.critical_path_ns <= 200.0);
        assert!(result
            .pass_log
            .iter()
            .any(|r| r.pass == "speculation" && r.changes > 0));
        assert!(result
            .pass_log
            .iter()
            .any(|r| r.pass == "loop-unroll-all" && r.changes > 0));
        assert!(result.stages.len() >= 5);
    }

    #[test]
    fn synthesized_ild_matches_golden_model() {
        let n = 8u32;
        let program = build_ild_program(n);
        let result = synthesize(
            &program,
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(200.0),
        )
        .unwrap();
        for seed in 0..6u64 {
            let buffer = random_buffer(n as usize, seed);
            let rtl = result.simulate(&buffer_env(&buffer)).unwrap();
            let marks = rtl.array("Mark").unwrap();
            let golden = decode_marks(&buffer, n as usize);
            for i in 1..=n as usize {
                assert_eq!(marks[i] != 0, golden[i], "byte {i}, seed {seed}");
            }
        }
    }

    #[test]
    fn baseline_takes_more_cycles_than_spark() {
        let n = 8u32;
        let program = build_ild_program(n);
        let spark = synthesize(
            &program,
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(200.0),
        )
        .unwrap();
        let baseline =
            synthesize(&program, ILD_FUNCTION, &FlowOptions::asic_baseline(20.0)).unwrap();
        assert!(spark.report.states < baseline.report.states);
        assert!(baseline.report.states > 1);
    }

    #[test]
    fn unknown_top_function_is_reported() {
        let program = build_ild_program(4);
        let err = synthesize(
            &program,
            "missing",
            &FlowOptions::microprocessor_block(100.0),
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::UnknownFunction(_)));
    }

    #[test]
    fn coarse_pass_after_fine_passes_rebuilds_the_analyses() {
        // Drive the manager out of recipe order: run a fine pass, then a
        // coarse unroll, then the fine clean-up again. The unroll must drop
        // the cached analyses, so the result equals the full-rescan
        // reference sequence.
        use spark_ir::{FunctionBuilder, OpKind, Type, Value};
        let build = || {
            let mut b = FunctionBuilder::new("f");
            let a = b.param("a", Type::Bits(8));
            let i = b.var("i", Type::Bits(8));
            let acc = b.output("acc", Type::Bits(8));
            let t = b.var("t", Type::Bits(8));
            // Foldable straight-line prefix plus a constant-bound loop.
            b.assign(OpKind::Add, t, vec![Value::word(2), Value::word(3)]);
            b.copy(acc, Value::Var(t));
            b.for_begin(i, 1, Value::word(3), 1);
            b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
            b.loop_end();
            let _ = a;
            b.finish()
        };

        let mut program = Program::new();
        program.add_function(build());
        let options = FlowOptions::microprocessor_block(100.0);
        let mut manager = PassManager::new(&program, "f", &options).unwrap();
        let propagation =
            |f: &mut Function, s: &mut xf::FineState| xf::propagation_with(f, s, true);
        manager.fine(propagation).unwrap();
        assert!(manager.analyses.is_some());
        let unrolled_before_fine = manager.working.function("f").unwrap().live_op_count();
        manager
            .coarse(|p, top| {
                xf::unroll_all_loops(p.function_mut(top).expect("top exists"))
                    .map_err(SynthesisError::Unroll)
            })
            .unwrap();
        assert!(manager.analyses.is_none(), "the analyses were dropped");
        manager.fine(propagation).unwrap();
        manager.fine(xf::dead_code_elimination_with).unwrap();
        let managed = manager.working.function("f").unwrap().clone();

        // Reference: the same sequence with stand-alone full-rescan passes.
        let mut reference = build();
        xf::propagation(&mut reference);
        xf::unroll_all_loops(&mut reference).unwrap();
        xf::propagation(&mut reference);
        xf::dead_code_elimination(&mut reference);
        assert_eq!(managed.to_string(), reference.to_string());
        assert!(managed.live_op_count() < unrolled_before_fine + 3 * 2);
    }

    #[test]
    fn transformed_top_holds_only_live_ir() {
        let program = build_ild_program(8);
        for mut options in [
            FlowOptions::microprocessor_block(100.0),
            FlowOptions::asic_baseline(100.0),
        ] {
            options.verify_ir = true;
            let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
            let top = transformed.program.function(ILD_FUNCTION).unwrap();
            assert_eq!(top.live_op_count(), top.ops.len());
            assert_eq!(top.block_count(), top.blocks.len());
            // Compaction is not a pass: it adds no log entry or snapshot.
            assert!(transformed.pass_log.iter().all(|r| r.pass != "compact"));
            let last = transformed.stages.last().unwrap();
            assert_eq!(last.stats, FunctionStats::of(top));
            // Every variable is a parameter, a port, or named by live IR
            // (the loops are unrolled, so nodes name only conditions).
            let mut named = vec![false; top.vars.len()];
            for (_, op) in top.ops.iter() {
                for var in op.uses_iter().chain(op.def()) {
                    named[var.index()] = true;
                }
            }
            for (_, node) in top.nodes.iter() {
                if let Some(cond) = match node {
                    spark_ir::HtgNode::If(i) => i.cond.as_var(),
                    _ => None,
                } {
                    named[cond.index()] = true;
                }
            }
            for (id, var) in top.vars.iter() {
                assert!(
                    named[id.index()]
                        || top.params.contains(&id)
                        || var.direction != spark_ir::PortDirection::Internal,
                    "`{}` is declared but nothing names it",
                    var.name
                );
            }
        }
    }

    #[test]
    fn verify_ir_names_the_offending_pass() {
        // A malformed input program (dangling destination variable) must be
        // rejected at the named "input" step, not panic downstream.
        let mut function = spark_ir::Function::new("bad");
        let bb = function.add_block("BB0");
        let node = function.add_block_node(bb);
        let body = function.body;
        function.region_push(body, node);
        let ghost = spark_ir::VarId::from_raw(99);
        function.push_op(
            bb,
            spark_ir::OpKind::Copy,
            Some(ghost),
            vec![spark_ir::Value::word(1)],
        );
        let mut program = Program::new();
        program.add_function(function);
        let mut options = FlowOptions::microprocessor_block(100.0);
        options.verify_ir = true;
        let err = transform_program(&program, "bad", &options).unwrap_err();
        match err {
            SynthesisError::MalformedIr { pass, errors } => {
                assert_eq!(pass, "input");
                assert!(!errors.is_empty());
            }
            other => panic!("expected MalformedIr, got {other}"),
        }
    }

    #[test]
    fn synthesize_source_compiles_and_synthesizes_text() {
        let source =
            "u8 clip(u8 a) {\n  u8 r;\n  if (a > 100) { r = 100; } else { r = a; }\n  return r;\n}";
        let result = synthesize_source(source, &FlowOptions::microprocessor_block(500.0))
            .expect("source synthesizes");
        assert!(result.is_single_cycle());
        let vhdl = result.vhdl();
        assert!(vhdl.contains("entity clip is"));
    }

    #[test]
    fn synthesize_source_reports_diagnostics() {
        let err = synthesize_source(
            "u8 f() { return x; }",
            &FlowOptions::microprocessor_block(500.0),
        )
        .unwrap_err();
        match err {
            SourceSynthesisError::Frontend(diags) => {
                assert!(diags[0].to_string().contains("unknown variable `x`"));
            }
            other => panic!("expected frontend diagnostics, got {other}"),
        }
    }

    #[test]
    fn results_carry_their_spans() {
        let program = build_ild_program(4);
        let options = FlowOptions::microprocessor_block(200.0);
        let back_end = [
            "sched_deps",
            "sched_list",
            "sched_wires",
            "sched_validate",
            "sched_controller",
            "schedule",
            "bind",
            "rtl",
        ];
        let names = |trace: &Trace| -> Vec<String> {
            trace.spans.iter().map(|span| span.name.clone()).collect()
        };

        // The passes in the order they ran — a `fine-analyses` build before
        // the first fine pass after a coarse one — then `transform`, then
        // the back end.
        let full = synthesize(&program, ILD_FUNCTION, &options).unwrap();
        let fine = ["propagation", "cse", "dead-code-elimination"];
        let mut expected = Vec::new();
        let mut analyses = false;
        for report in &full.pass_log {
            let is_fine = fine.contains(&report.pass.as_str());
            if is_fine && !analyses {
                expected.push("fine-analyses".to_string());
            }
            analyses = is_fine;
            expected.push(report.pass.clone());
        }
        let builds = full
            .trace
            .spans
            .iter()
            .filter(|s| s.name == "fine-analyses");
        assert!(builds.clone().all(|span| span.depth == 1));
        assert_eq!(builds.count(), 2, "one build per fine-grain phase");
        expected.push("transform".to_string());
        expected.extend(back_end.iter().map(|name| name.to_string()));
        assert_eq!(names(&full.trace), expected);

        let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
        let back_half = synthesize_transformed(&transformed, &options).unwrap();
        assert_eq!(names(&back_half.trace), back_end);

        for trace in [&full.trace, &back_half.trace] {
            let ms = |name: &str| trace.spans.iter().find(|s| s.name == name).unwrap().ms;
            assert!(ms("schedule") >= ms("sched_list"));
        }
    }

    #[test]
    fn vhdl_is_generated_for_the_ild() {
        let program = build_ild_program(4);
        let result = synthesize(
            &program,
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(200.0),
        )
        .unwrap();
        let vhdl = result.vhdl();
        assert!(vhdl.contains("entity ild is"));
        assert!(vhdl.contains("Mark_1 : out std_logic"));
    }
}
