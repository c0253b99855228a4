//! The coordinated synthesis pipeline — the paper's primary contribution.
//!
//! "A judicious balance of a number of these techniques driven by well
//! considered heuristics is likely to yield HLS results that compare in
//! quality to the manually designed functional blocks" (Section 1). The
//! [`synthesize`] function coordinates the whole tool-box in the order the
//! paper walks through for the ILD (Section 6): source-level rewriting,
//! inlining, speculation, full loop unrolling, constant and copy propagation,
//! CSE, dead-code elimination, chaining-aware scheduling, wire-variable
//! insertion, binding and RTL generation — recording the effect of every
//! stage so the figure-by-figure evolution of the design can be reproduced.

use std::sync::OnceLock;
use std::time::Instant;

use spark_bind::{Binding, LifetimeAnalysis};
use spark_ir::{Env, Function, FunctionStats, OpId, Program, RegionId};
use spark_rtl::{DatapathReport, RtlOutcome, RtlSimError, RtlSimulator, VhdlEmitter};
use spark_sched::{
    insert_wire_variables, schedule, validate_chaining, ChainingReport, Constraints, Controller,
    DependenceGraph, ResourceLibrary, SchedError, Schedule, WireReport,
};
use spark_transforms as xf;

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
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Target clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Overall scenario.
    pub mode: FlowMode,
    /// Rewrite natural `while(1)` cursor loops into bounded `for` loops
    /// (Figure 16 → Figure 10).
    pub while_to_for: bool,
    /// Inline calls (Figure 12).
    pub inline: bool,
    /// Speculate pure operations out of conditionals (Figure 11).
    pub speculate: bool,
    /// Fully unroll loops (Figure 13).
    pub unroll: bool,
    /// Run constant propagation (Figure 14).
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
            while_to_for: true,
            inline: true,
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
            while_to_for: true,
            inline: true,
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
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            SynthesisError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
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
    /// Dependence graph of the final function (guards included).
    pub graph: DependenceGraph,
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
    /// Wall time of each phase of the run that produced this result.
    pub phases: PhaseBreakdown,
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
        RtlSimulator::new(&self.function, &self.graph, &self.schedule).run(env)
    }

    /// Simulates the generated design on a whole workload of input sets,
    /// reusing the simulator's value tables across buffers — the batch entry
    /// point for corpus checks and workload sweeps.
    ///
    /// # Errors
    /// Returns [`RtlSimError`] on the first failing input set.
    pub fn simulate_batch(&self, envs: &[Env]) -> Result<Vec<RtlOutcome>, RtlSimError> {
        RtlSimulator::new(&self.function, &self.graph, &self.schedule).run_batch(envs)
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
    /// Lazily built pre-wire dependence graph of the top function, shared
    /// by every point scheduled against this program. See
    /// [`TransformedProgram::dependence_graph`].
    graph: OnceLock<Result<DependenceGraph, SchedError>>,
}

impl TransformedProgram {
    /// The (clock-agnostic) dependence graph of the transformed top-level
    /// function, built on first use and shared by every subsequent
    /// [`synthesize_transformed`] call on this program — a clock sweep builds
    /// it **once**, not once per period point.
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

/// The fine-grain worklist passes the pass manager schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FinePass {
    ConstProp = 0,
    CopyProp = 1,
    Cse = 2,
    Dce = 3,
}

const FINE_PASS_COUNT: usize = 4;

/// Pending worklist seed for one fine-grain pass.
#[derive(Clone, Debug)]
enum Seed {
    /// The pass has not run since the analyses were (re)built: examine every
    /// live operation / block.
    Everything,
    /// Operations touched by other passes since this pass last ran.
    Ops(Vec<OpId>),
}

/// Drives the transformation half of the coordinated flow: the coarse-grain
/// passes in the paper's order, then the fine-grain clean-up as a sequence
/// of worklist passes over shared, incrementally-maintained analyses.
///
/// The manager owns the cached [`xf::FineState`] (def–use graph and
/// structural positions), invalidates it from each pass's
/// [`Invalidation`](xf::Invalidation) report instead of rebuilding
/// unconditionally, and seeds every fine-grain pass with the operations the
/// previous passes touched — so the second constant-propagation /
/// copy-propagation / DCE round examines only what actually changed instead
/// of rescanning the whole function.
pub(crate) struct PassManager<'a> {
    options: &'a FlowOptions,
    top: String,
    working: Program,
    pass_log: Vec<xf::Report>,
    stages: Vec<StageSnapshot>,
    /// Cached fine-grain analyses; `None` until built or after a structural
    /// invalidation.
    analyses: Option<xf::FineState>,
    /// Per fine pass: what to examine on its next run.
    seeds: [Seed; FINE_PASS_COUNT],
    /// Regions invalidated by coarse passes since the analyses were built;
    /// folded into `Ops` seeds when the analyses are next rebuilt.
    dirty_regions: Vec<RegionId>,
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
            analyses: None,
            seeds: std::array::from_fn(|_| Seed::Everything),
            dirty_regions: Vec::new(),
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

    /// Appends a pass report to the log, applies its analysis invalidation,
    /// and — when [`FlowOptions::verify_ir`] is set — re-verifies the
    /// top-level function, so a pass that corrupts the IR fails here with
    /// its name attached instead of panicking downstream.
    fn record(&mut self, report: xf::Report) -> Result<(), SynthesisError> {
        match &report.invalidation {
            xf::Invalidation::None => {}
            xf::Invalidation::Region(region) => {
                // The cached graph cannot be partially rebuilt, but passes
                // that already consumed their full-function seed only need
                // re-examining under the invalidated region.
                self.analyses = None;
                self.dirty_regions.push(*region);
            }
            xf::Invalidation::Structure => {
                self.analyses = None;
                self.dirty_regions.clear();
                self.seeds = std::array::from_fn(|_| Seed::Everything);
            }
        }
        let pass = report.pass.clone();
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

    /// Runs one coarse-grain pass over the working program.
    fn coarse(
        &mut self,
        run: impl FnOnce(&mut Program, &str) -> xf::Report,
    ) -> Result<(), SynthesisError> {
        let report = run(&mut self.working, &self.top);
        self.record(report)
    }

    /// Runs one fine-grain worklist pass, seeded by whatever the previous
    /// passes touched, and distributes what it touched to the other passes'
    /// seeds.
    fn fine(&mut self, which: FinePass) -> Result<(), SynthesisError> {
        // (Re)build the shared analyses if a coarse pass invalidated them,
        // folding region invalidations into the pending seeds.
        if self.analyses.is_none() {
            let function = self.working.function(&self.top).expect("top exists");
            if !self.dirty_regions.is_empty() {
                for seed in &mut self.seeds {
                    if let Seed::Ops(ops) = seed {
                        for &region in &self.dirty_regions {
                            ops.extend(function.ops_in_region(region));
                        }
                    }
                }
                self.dirty_regions.clear();
            }
            self.analyses = Some(xf::FineState::new(function));
        }

        let index = which as usize;
        let seed = std::mem::replace(&mut self.seeds[index], Seed::Ops(Vec::new()));
        let state = self.analyses.as_mut().expect("analyses just built");
        let function = self.working.function_mut(&self.top).expect("top exists");
        let (report, effects) = match (which, &seed) {
            (FinePass::ConstProp, Seed::Everything) => {
                let all = function.live_ops();
                xf::constant_propagation_seeded(function, state, &all)
            }
            (FinePass::ConstProp, Seed::Ops(ops)) => {
                xf::constant_propagation_seeded(function, state, ops)
            }
            (FinePass::CopyProp, Seed::Everything) => {
                let all = function.live_ops();
                xf::copy_propagation_seeded(function, state, &all)
            }
            (FinePass::CopyProp, Seed::Ops(ops)) => {
                xf::copy_propagation_seeded(function, state, ops)
            }
            (FinePass::Cse, Seed::Everything) => {
                xf::common_subexpression_elimination_seeded(function, state, None)
            }
            (FinePass::Cse, Seed::Ops(ops)) => {
                xf::common_subexpression_elimination_seeded(function, state, Some(ops))
            }
            (FinePass::Dce, Seed::Everything) => {
                xf::dead_code_elimination_seeded(function, state, None)
            }
            (FinePass::Dce, Seed::Ops(ops)) => {
                xf::dead_code_elimination_seeded(function, state, Some(ops))
            }
        };

        // Every op this pass touched may hold new work for the others; DCE
        // additionally re-examines the definitions of variables that lost a
        // reader.
        let state = self.analyses.as_ref().expect("analyses alive");
        for (other, seed) in self.seeds.iter_mut().enumerate() {
            if other == index {
                continue;
            }
            if let Seed::Ops(ops) = seed {
                ops.extend(effects.touched.iter().copied());
                if other == FinePass::Dce as usize {
                    for &var in &effects.released {
                        ops.extend(state.graph.defs_of(var));
                    }
                }
            }
        }
        self.record(report)
    }

    /// Runs the whole transformation recipe and returns the transformed
    /// program, its top function compacted ([`spark_ir::Function::compact`]):
    /// it holds only live operations and reachable blocks, nodes and regions.
    fn run(mut self) -> Result<TransformedProgram, SynthesisError> {
        let options = self.options;

        // ---- Source-level and coarse-grain transformations ---------------
        if options.while_to_for {
            self.coarse(|p, top| xf::while_to_for(p.function_mut(top).expect("top exists")))?;
            self.snapshot("while-to-for");
        }
        if options.inline {
            self.coarse(xf::inline_calls)?;
            self.snapshot("inline");
        }
        if options.speculate {
            self.coarse(|p, top| xf::speculate(p.function_mut(top).expect("top exists")))?;
            self.snapshot("speculation");
        }
        if options.unroll {
            self.coarse(|p, top| xf::unroll_all_loops(p.function_mut(top).expect("top exists")))?;
            self.snapshot("loop-unroll");
        }
        // Speculation opportunities often only appear after unrolling exposes
        // the per-byte conditionals; run it again in the aggressive flow.
        if options.speculate {
            self.coarse(|p, top| xf::speculate(p.function_mut(top).expect("top exists")))?;
        }

        // ---- Fine-grain clean-up: worklist passes over shared analyses ----
        if options.constant_propagation {
            self.fine(FinePass::ConstProp)?;
            self.snapshot("constant-propagation");
        }
        self.fine(FinePass::CopyProp)?;
        if options.cse {
            self.fine(FinePass::Cse)?;
        }
        self.fine(FinePass::Dce)?;
        // A second round of constant propagation picks up constants exposed
        // by copy propagation; DCE then removes the dead copies. These runs
        // are seeded by the ops the passes above touched — on the ILD this
        // is a few hundred ops instead of the whole function.
        if options.constant_propagation {
            self.fine(FinePass::ConstProp)?;
        }
        self.fine(FinePass::CopyProp)?;
        self.fine(FinePass::Dce)?;
        self.snapshot("cleanup");

        // Hand the backend only the live IR: every design point copies the
        // top function and sizes its per-op tables by its arenas.
        self.working
            .function_mut(&self.top)
            .expect("top exists")
            .compact();
        self.verify_top("compact".to_string())?;

        Ok(TransformedProgram {
            program: self.working,
            top: self.top,
            pass_log: self.pass_log,
            stages: self.stages,
            graph: OnceLock::new(),
        })
    }
}

/// Runs the transformation half of the coordinated flow: source-level
/// rewriting, inlining, speculation, unrolling and the fine-grain clean-up,
/// under the transformation switches of `options`. The clock period in
/// `options` is not consulted — transformations are clock-agnostic, which is
/// what makes the result reusable across a clock sweep.
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
    PassManager::new(program, top, options)?.run()
}

/// Wall-clock time spent in each phase of one synthesis run, milliseconds.
///
/// Every [`SynthesisResult`] carries one. Emitted into
/// `BENCH_synthesize.json` by the benchmark harness so the per-phase
/// performance trajectory (transform vs. schedule vs. bind vs. RTL
/// reporting) is visible PR over PR.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Transformation pipeline ([`transform_program`]). Zero from
    /// [`synthesize_transformed`], whose program was transformed before the
    /// call.
    pub transform_ms: f64,
    /// Dependence graph, scheduling, wire-variable insertion, chaining
    /// validation and controller construction — the sum of the five
    /// `sched_*_ms` sub-phases below.
    pub schedule_ms: f64,
    /// Lifetime analysis and register/FU binding.
    pub bind_ms: f64,
    /// Datapath report construction (the RTL-level summary).
    pub rtl_ms: f64,
    /// Schedule sub-phase: pre-wire dependence-graph construction. Near zero
    /// when an earlier point already built the shared graph
    /// ([`TransformedProgram::dependence_graph`]).
    pub sched_deps_ms: f64,
    /// Schedule sub-phase: the chaining-aware list scheduler itself.
    pub sched_list_ms: f64,
    /// Schedule sub-phase: wire-variable insertion plus the post-wire
    /// dependence-graph build.
    pub sched_wires_ms: f64,
    /// Schedule sub-phase: chaining-trail validation.
    pub sched_validate_ms: f64,
    /// Schedule sub-phase: FSM controller construction.
    pub sched_controller_ms: f64,
}

impl PhaseBreakdown {
    /// Accumulates another run's phase times into this one.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.transform_ms += other.transform_ms;
        self.schedule_ms += other.schedule_ms;
        self.bind_ms += other.bind_ms;
        self.rtl_ms += other.rtl_ms;
        self.sched_deps_ms += other.sched_deps_ms;
        self.sched_list_ms += other.sched_list_ms;
        self.sched_wires_ms += other.sched_wires_ms;
        self.sched_validate_ms += other.sched_validate_ms;
        self.sched_controller_ms += other.sched_controller_ms;
    }

    /// Divides every phase time by `n` (for averaging over iterations).
    pub fn scale(&mut self, n: f64) {
        self.transform_ms /= n;
        self.schedule_ms /= n;
        self.bind_ms /= n;
        self.rtl_ms /= n;
        self.sched_deps_ms /= n;
        self.sched_list_ms /= n;
        self.sched_wires_ms /= n;
        self.sched_validate_ms /= n;
        self.sched_controller_ms /= n;
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the back half of the flow — scheduling, chaining validation,
/// wire-variable insertion, binding and RTL reporting — on an already
/// transformed program, under the constraints (clock period, mode) of
/// `options`. The result's [`phases`](SynthesisResult::phases) time every
/// back-half phase; its `transform_ms` is zero.
///
/// # Errors
/// Returns [`SynthesisError::Scheduling`] when the constraints cannot be met.
pub fn synthesize_transformed(
    transformed: &TransformedProgram,
    options: &FlowOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let mut phases = PhaseBreakdown::default();
    let library = ResourceLibrary::new();
    let top = transformed.top.as_str();
    let pass_log = transformed.pass_log.clone();
    let mut stages = transformed.stages.clone();
    let working = &transformed.program;

    // ---- Scheduling, chaining, binding, RTL --------------------------------
    // The pre-wire dependence graph (with its interned guard table) is
    // shared: built at most once per transformed program, not once per
    // clock point.
    let started = Instant::now();
    let pre_wire = transformed.dependence_graph()?;
    phases.sched_deps_ms = ms_since(started);

    let started = Instant::now();
    let mut function = working.function(top).expect("top exists").clone();
    let constraints = options.constraints();
    let mut sched = schedule(&function, pre_wire, &library, &constraints)?;
    phases.sched_list_ms = ms_since(started);

    // Wire insertion adds blocks/ops and redirects operands, so the
    // post-wire graph is built afresh for this point.
    let started = Instant::now();
    let wire_report = insert_wire_variables(&mut function, &mut sched);
    let graph = DependenceGraph::build(&function)?;
    phases.sched_wires_ms = ms_since(started);

    let started = Instant::now();
    let chaining = validate_chaining(&function, &graph, &sched, &library)?;
    phases.sched_validate_ms = ms_since(started);

    let started = Instant::now();
    let controller = Controller::build(&function, &graph, &sched);
    phases.sched_controller_ms = ms_since(started);

    phases.schedule_ms = phases.sched_deps_ms
        + phases.sched_list_ms
        + phases.sched_wires_ms
        + phases.sched_validate_ms
        + phases.sched_controller_ms;

    let started = Instant::now();
    let lifetimes = LifetimeAnalysis::compute(&function, &sched);
    let binding = Binding::compute(&function, &sched, &lifetimes, &library);
    phases.bind_ms = ms_since(started);

    let started = Instant::now();
    let report = DatapathReport::build(&function, &sched, &binding, &controller, &library);
    phases.rtl_ms = ms_since(started);
    stages.push(StageSnapshot {
        stage: "scheduled".to_string(),
        stats: FunctionStats::of(&function),
    });

    Ok(SynthesisResult {
        function,
        graph,
        schedule: sched,
        controller,
        binding,
        report,
        pass_log,
        stages,
        wire_report,
        chaining,
        phases,
    })
}

/// Runs the coordinated flow on `program`, synthesizing the function `top`.
///
/// Equivalent to [`transform_program`] followed by
/// [`synthesize_transformed`], with the transformation's wall time recorded
/// in [`PhaseBreakdown::transform_ms`]; sweeps that vary only the clock
/// period should call the two halves directly and reuse the transformed
/// program.
///
/// # Errors
/// Returns [`SynthesisError`] when the top function is missing or scheduling
/// fails under the given constraints.
pub fn synthesize(
    program: &Program,
    top: &str,
    options: &FlowOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let started = Instant::now();
    let transformed = transform_program(program, top, options)?;
    let transform_ms = ms_since(started);
    let mut result = synthesize_transformed(&transformed, options)?;
    result.phases.transform_ms = transform_ms;
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
    fn region_invalidation_reseeds_fine_passes_after_a_coarse_pass() {
        // Drive the manager out of recipe order: run a fine pass (consuming
        // its full-function seed), then a coarse unroll that reports a
        // `Region` invalidation, then the fine clean-up again. The second
        // const-prop run is reseeded from the invalidated region's ops —
        // this is the only path that exercises the `dirty_regions` fold —
        // and the result must equal the full-rescan reference sequence.
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
        let mut options = FlowOptions::microprocessor_block(100.0);
        options.while_to_for = false;
        options.inline = false;
        options.speculate = false;
        options.unroll = false;
        let mut manager = PassManager::new(&program, "f", &options).unwrap();
        manager.fine(FinePass::ConstProp).unwrap();
        let unrolled_before_fine = manager.working.function("f").unwrap().live_op_count();
        manager
            .coarse(|p, top| xf::unroll_all_loops(p.function_mut(top).expect("top exists")))
            .unwrap();
        assert!(matches!(
            manager.pass_log.last().unwrap().invalidation,
            xf::Invalidation::Region(_)
        ));
        assert!(manager.analyses.is_none(), "coarse pass dropped the cache");
        manager.fine(FinePass::ConstProp).unwrap();
        manager.fine(FinePass::CopyProp).unwrap();
        manager.fine(FinePass::Dce).unwrap();
        let managed = manager.working.function("f").unwrap().clone();

        // Reference: the same sequence with stand-alone full-rescan passes.
        let mut reference = build();
        xf::constant_propagation(&mut reference);
        xf::unroll_all_loops(&mut reference);
        xf::constant_propagation(&mut reference);
        xf::copy_propagation(&mut reference);
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
    fn results_carry_their_phase_times() {
        let program = build_ild_program(4);
        let options = FlowOptions::microprocessor_block(200.0);
        let full = synthesize(&program, ILD_FUNCTION, &options).unwrap();
        assert!(full.phases.transform_ms > 0.0);
        let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
        let back_half = synthesize_transformed(&transformed, &options).unwrap();
        assert_eq!(back_half.phases.transform_ms, 0.0);
        for phases in [full.phases, back_half.phases] {
            assert!(phases.schedule_ms > 0.0);
            let sub_total = phases.sched_deps_ms
                + phases.sched_list_ms
                + phases.sched_wires_ms
                + phases.sched_validate_ms
                + phases.sched_controller_ms;
            assert_eq!(sub_total, phases.schedule_ms);
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
