//! The workloads: what one request synthesizes, the inputs it is simulated
//! on, and the oracles its outputs are checked against.

use spark_core::{
    synthesize, synthesize_transformed, transform_program, FlowOptions, SynthesisResult,
};
use spark_front::Compiled;
use spark_ir::{Env, Interpreter, PortDirection, StorageClass};
use spark_rtl::RtlOutcome;

use crate::stats::Rng;
use crate::trace::{Layer, Tracer};

/// The clock the single-design workloads synthesize at (the `sparkc`
/// default): generous enough that the coordinated flow chains every ILD
/// byte into one cycle, as in the paper's Figure 15.
const SINGLE_CYCLE_CLOCK_NS: f64 = 2000.0;

/// ILD buffer size of the `ild` workload: the headline size of the
/// repository's synthesis timings.
const ILD_N: usize = 32;

/// ILD buffer size and number of clock points of one `sweep` request.
const SWEEP_N: usize = 16;
const SWEEP_POINTS: usize = 12;
/// The swept clock range, ns. Every point is feasible (the slowest single
/// operation fits), and the short end yields multi-state designs.
const SWEEP_CLOCK_NS: (f64, f64) = (8.0, 128.0);

/// The Figure 10 ILD at n = 8, the template of the ILD workloads' sources.
const ILD_N8: &str = include_str!("../programs/ild_n8.spark");

/// The SPARK-C corpus, fixed here so that programs added to or changed in
/// the repository's own corpus do not change what this benchmark measures.
const CORPUS: [(&str, &str); 11] = [
    ("abs_diff", include_str!("../programs/abs_diff.spark")),
    ("dot4", include_str!("../programs/dot4.spark")),
    ("ild_n8", ILD_N8),
    (
        "ild_natural_n8",
        include_str!("../programs/ild_natural_n8.spark"),
    ),
    ("matmul2", include_str!("../programs/matmul2.spark")),
    ("parity8", include_str!("../programs/parity8.spark")),
    ("quantize", include_str!("../programs/quantize.spark")),
    ("row_minmax", include_str!("../programs/row_minmax.spark")),
    ("running_max", include_str!("../programs/running_max.spark")),
    ("sad4", include_str!("../programs/sad4.spark")),
    ("window_mark", include_str!("../programs/window_mark.spark")),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ild,
    Sweep,
    Corpus,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ild" => Some(Kind::Ild),
            "sweep" => Some(Kind::Sweep),
            "corpus" => Some(Kind::Corpus),
            _ => None,
        }
    }
}

/// One SPARK-C program a request synthesizes.
struct Unit {
    source: String,
    /// ILD buffer size when the program is the ILD, whose `Mark` output is
    /// also checked against the golden software decoder.
    ild_n: Option<usize>,
    /// The design must fit one FSM state (the paper's Figure 15 result).
    single_cycle: bool,
}

/// What one request produced for one unit.
pub struct Output {
    unit: usize,
    pub compiled: Compiled,
    clocks: Vec<f64>,
    /// One design per clock point.
    pub designs: Vec<SynthesisResult>,
    pub ops_transformed: usize,
    pub pass_changes: usize,
    pub vhdl_bytes: usize,
}

pub struct Workload {
    kind: Kind,
    units: Vec<Unit>,
    vectors_per_design: usize,
    rng: Rng,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let ild = |n: usize, single_cycle| Unit {
            source: ild_source(n),
            ild_n: Some(n),
            single_cycle,
        };
        let (units, vectors_per_design) = match kind {
            Kind::Ild => (vec![ild(ILD_N, true)], 16),
            Kind::Sweep => (vec![ild(SWEEP_N, false)], 4),
            Kind::Corpus => (
                CORPUS
                    .iter()
                    .map(|(name, source)| Unit {
                        source: source.to_string(),
                        ild_n: name.strip_prefix("ild_n").and_then(|n| n.parse().ok()),
                        single_cycle: false,
                    })
                    .collect(),
                8,
            ),
        };
        Workload {
            kind,
            units,
            vectors_per_design,
            rng: Rng::new(seed),
        }
    }

    /// Serves one request: every unit (in seeded order) from source text to
    /// VHDL. A sweep request synthesizes its program at a seeded set of
    /// clock points against one transformed program, as a design-space
    /// exploration does, and emits the VHDL of the fastest point.
    pub fn request(&mut self, tracer: &mut Tracer) -> Result<Vec<Output>, String> {
        let mut order: Vec<usize> = (0..self.units.len()).collect();
        self.rng.shuffle(&mut order);
        let clocks = match self.kind {
            Kind::Sweep => self.sweep_clocks(),
            Kind::Ild | Kind::Corpus => vec![SINGLE_CYCLE_CLOCK_NS],
        };
        order
            .into_iter()
            .map(|unit| synthesize_unit(unit, &self.units[unit].source, &clocks, tracer))
            .collect()
    }

    /// Clock points stratified over the log of the sweep range: one uniform
    /// draw per stratum keeps every request's mix of short and long clocks
    /// alike while the points themselves vary with the seed.
    fn sweep_clocks(&mut self) -> Vec<f64> {
        let (lo, hi) = SWEEP_CLOCK_NS;
        (0..SWEEP_POINTS)
            .map(|k| {
                let fraction = (k as f64 + self.rng.unit()) / SWEEP_POINTS as f64;
                lo * (hi / lo).powf(fraction)
            })
            .collect()
    }

    /// Seeded random input sets for the top-level function of `output`:
    /// every input parameter bound to random values of its declared width.
    pub fn vectors(&mut self, output: &Output) -> Vec<Env> {
        let function = output
            .compiled
            .program
            .function(&output.compiled.top)
            .expect("the top-level function exists");
        (0..self.vectors_per_design)
            .map(|_| {
                let mut env = Env::new();
                for &param in &function.params {
                    let var = &function.vars[param];
                    match var.storage {
                        StorageClass::Array { length } => {
                            let contents = (0..length)
                                .map(|_| self.rng.next_u64() & var.ty.mask())
                                .collect();
                            env.set_array(&var.name, contents);
                        }
                        _ => env.set_scalar(&var.name, self.rng.next_u64() & var.ty.mask()),
                    }
                }
                env
            })
            .collect()
    }

    /// Checks one unit's designs: on every input set the RTL simulation of
    /// every design, the IR interpreter on the lowered program and the
    /// frontend's AST evaluator agree on every output, and the ILD's marks
    /// equal the golden software decoder's. A sweep also re-synthesizes one
    /// seeded point from scratch and requires the same datapath report.
    pub fn check(
        &mut self,
        output: &Output,
        envs: &[Env],
        rtl: &[Vec<RtlOutcome>],
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let unit = &self.units[output.unit];
        let compiled = &output.compiled;
        let top = compiled.top.as_str();
        if unit.single_cycle && !output.designs.iter().all(SynthesisResult::is_single_cycle) {
            return Err(format!("`{top}` did not synthesize to a single cycle"));
        }
        let function = compiled.program.function(top).expect("top exists");
        let outputs: Vec<&str> = function
            .vars
            .iter()
            .filter(|(_, v)| v.direction == PortDirection::Output)
            .map(|(_, v)| v.name.as_str())
            .collect();
        if outputs.is_empty() {
            return Err(format!("`{top}` has no outputs to check"));
        }
        let interpreter = Interpreter::new(&compiled.program);
        for (k, env) in envs.iter().enumerate() {
            let want = tracer
                .span(Layer::Interp, || interpreter.run(top, env))
                .map_err(|e| format!("`{top}`: interpreter failed: {e}"))?;
            let ast = compiled
                .evaluate(top, env)
                .map_err(|e| format!("`{top}`: AST evaluator failed: {e}"))?;
            for name in &outputs {
                let expected = (want.scalar(name), want.array(name));
                if (ast.scalar(name), ast.array(name)) != expected {
                    return Err(format!("`{top}`: AST evaluator disagrees on `{name}`"));
                }
                for (design, outcomes) in output.designs.iter().zip(rtl) {
                    let got = &outcomes[k];
                    if (got.scalar(name), got.array(name)) != expected {
                        return Err(format!(
                            "`{top}`: RTL at {:.3} ns disagrees with the interpreter on `{name}`",
                            design.report.clock_period_ns
                        ));
                    }
                }
            }
            if let Some(n) = unit.ild_n {
                let buffer: Vec<u8> = env
                    .array_bindings()
                    .get("buffer")
                    .ok_or("ILD input has no buffer")?
                    .iter()
                    .map(|&b| b as u8)
                    .collect();
                let golden = spark_ild::decode_marks(&buffer, n);
                let marks = want.array("Mark").ok_or("ILD produced no marks")?;
                if (1..=n).any(|i| (marks[i] != 0) != golden[i]) {
                    return Err(format!("`{top}`: marks disagree with the golden decoder"));
                }
            }
        }
        if self.kind == Kind::Sweep {
            let point = self.rng.below(output.clocks.len());
            let options = FlowOptions::microprocessor_block(output.clocks[point]);
            let fresh = synthesize(&compiled.program, top, &options)
                .map_err(|e| format!("`{top}`: fresh synthesis failed: {e}"))?;
            if fresh.report != output.designs[point].report {
                return Err(format!(
                    "`{top}`: sweep point at {:.3} ns differs from a fresh synthesis",
                    output.clocks[point]
                ));
            }
        }
        Ok(())
    }
}

/// Source text → lowered IR → transformed program → one design per clock
/// point → VHDL of the design with the shortest latency.
fn synthesize_unit(
    unit: usize,
    source: &str,
    clocks: &[f64],
    tracer: &mut Tracer,
) -> Result<Output, String> {
    let compiled = compile(source, tracer)?;
    let top = compiled.top.as_str();
    // Transforms never consult the clock, so one transformed program serves
    // every point.
    let transformed = tracer
        .span(Layer::Transform, || {
            transform_program(
                &compiled.program,
                top,
                &FlowOptions::microprocessor_block(clocks[0]),
            )
        })
        .map_err(|e| format!("`{top}`: {e}"))?;
    let mut designs = Vec::with_capacity(clocks.len());
    for &clock in clocks {
        let options = FlowOptions::microprocessor_block(clock);
        let design = tracer
            .span(Layer::Backend, || {
                synthesize_transformed(&transformed, &options)
            })
            .map_err(|e| format!("`{top}` at {clock:.3} ns: {e}"))?;
        designs.push(design);
    }
    let fastest = designs
        .iter()
        .map(|d| {
            (
                d.report.states as f64 * d.report.clock_period_ns,
                d.report.area_estimate,
            )
        })
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite reports"))
        .map(|(index, _)| index)
        .expect("at least one clock point");
    let vhdl_bytes = tracer.span(Layer::Vhdl, || designs[fastest].vhdl().len());
    let ops_transformed = transformed
        .program
        .function(top)
        .map_or(0, |f| f.live_op_count());
    let pass_changes = transformed.pass_log.iter().map(|r| r.changes).sum();
    Ok(Output {
        unit,
        compiled,
        clocks: clocks.to_vec(),
        designs,
        ops_transformed,
        pass_changes,
        vhdl_bytes,
    })
}

/// `spark_front::compile`, split into its stages when tracing so each is
/// charged to its own layer.
fn compile(source: &str, tracer: &mut Tracer) -> Result<Compiled, String> {
    let diagnostics = |diags: Vec<spark_front::Diagnostic>| {
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    if !tracer.enabled() {
        return spark_front::compile(source).map_err(diagnostics);
    }
    let ast = tracer
        .span(Layer::FrontParse, || spark_front::parse(source))
        .map_err(diagnostics)?;
    let analysis = tracer
        .span(Layer::FrontSema, || {
            spark_front::analyze_with_source(&ast, source)
        })
        .map_err(diagnostics)?;
    let program = tracer.span(Layer::FrontLower, || {
        let program = spark_front::lower(&ast, &analysis);
        let verified = program
            .functions
            .iter()
            .all(|f| spark_ir::verify(f).is_ok());
        verified.then_some(program)
    });
    let program = program.ok_or("lowering produced malformed IR")?;
    let top = ast
        .functions
        .first()
        .ok_or("source contains no functions")?
        .name
        .clone();
    Ok(Compiled {
        ast,
        analysis,
        program,
        top,
    })
}

/// The Figure 10 ILD in SPARK-C for a buffer of `n` bytes: the corpus's
/// `ild_n8.spark` with its sizes rewritten.
fn ild_source(n: usize) -> String {
    let source = ILD_N8
        .replace("[12]", &format!("[{}]", n + 4))
        .replace("Mark[9]", &format!("Mark[{}]", n + 1))
        .replace("i <= 8", &format!("i <= {n}"));
    assert_eq!(
        source.matches(&format!("[{}]", n + 4)).count(),
        2,
        "ild_n8.spark changed shape"
    );
    source
}
