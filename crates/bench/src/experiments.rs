//! The experiment driver behind the `reproduce` binary.
//!
//! Lives in the library (rather than in `src/bin/reproduce.rs`) so that the
//! paper-reproduction path is exercised by `cargo test` — see
//! `tests/reproduce_smoke.rs` — and not only by manual runs. The binary
//! calls [`run_all`] with [`ReproduceOptions::paper`]; the smoke test uses
//! [`ReproduceOptions::smoke`], the same code path on the smallest ILD.
//!
//! Every per-size sweep fans its points out over worker threads with
//! [`spark_core::par_map`] and prints the collected results in input order,
//! so the tables are byte-identical to the serial driver's output.

use crate::corpus::{corpus_paths, synthesis_fingerprint};
use crate::{
    figure2_loop, figure2_unrolled_schedule, figure4_fragment, synthesize_ild_baseline,
    synthesize_ild_natural, synthesize_ild_spark, ILD_SIZES, SINGLE_CYCLE_CLOCK_NS,
};
use spark_core::{ablation_study, format_table, par_map, synthesize, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary};

/// Which parameter points the experiments sweep.
#[derive(Debug, Clone)]
pub struct ReproduceOptions {
    /// Buffer sizes swept by the ILD experiments (E1, E5–E9).
    pub sizes: Vec<u32>,
    /// The single size used for stage-by-stage and wire-variable detail.
    pub detail_n: u32,
    /// Buffer sizes for the natural-description experiment (E10).
    pub natural_sizes: Vec<u32>,
    /// Upper bound on how many `.spark` corpus programs the frontend
    /// experiment synthesizes (`None` = all of them).
    pub corpus_limit: Option<usize>,
}

impl ReproduceOptions {
    /// The full sweep recorded in `docs/reproduce.txt` (the paper's figures).
    pub fn paper() -> Self {
        ReproduceOptions {
            sizes: ILD_SIZES.to_vec(),
            detail_n: 16,
            natural_sizes: vec![4, 8, 16],
            corpus_limit: None,
        }
    }

    /// A minimal sweep over the smallest ILD, cheap enough for `cargo test`.
    pub fn smoke() -> Self {
        ReproduceOptions {
            sizes: vec![4],
            detail_n: 4,
            natural_sizes: vec![4],
            corpus_limit: Some(3),
        }
    }
}

/// Runs every experiment, printing the figure-level tables to stdout.
pub fn run_all(opts: &ReproduceOptions) {
    experiment_e1(opts);
    experiment_e2_to_e4(opts);
    experiment_e5_to_e8(opts);
    experiment_e9(opts);
    experiment_e10(opts);
    experiment_ablation(opts);
    experiment_frontend_corpus(opts);
}

/// E1 — Figures 2–3: loop unrolling + constant propagation expose
/// cross-iteration parallelism.
fn experiment_e1(opts: &ReproduceOptions) {
    println!("== E1 (Figures 2-3): unrolling the Op1/Op2 loop ==");
    println!(
        "{:<6} {:>14} {:>16} {:>18}",
        "N", "states before", "states after", "ops after unroll"
    );
    let rows = par_map(&opts.sizes, |&n| {
        let n = n as u64;
        let sched = figure2_unrolled_schedule(n);
        let mut unrolled = figure2_loop(n);
        spark_transforms::unroll_all_loops(&mut unrolled).expect("the Figure 2 loop unrolls");
        spark_transforms::propagation(&mut unrolled);
        spark_transforms::dead_code_elimination(&mut unrolled);
        (n, sched.num_states, unrolled.live_op_count())
    });
    for (n, states_after, ops_after) in rows {
        let before = "loop (unschedulable)";
        println!("{n:<6} {before:>14} {states_after:>16} {ops_after:>18}");
    }
    println!();
}

/// E2–E4 — Figures 4–7: chaining across conditional boundaries, trails and
/// wire-variables.
fn experiment_e2_to_e4(opts: &ReproduceOptions) {
    println!("== E2-E4 (Figures 4-7): chaining across conditional boundaries ==");
    let f = figure4_fragment();
    let graph = DependenceGraph::build(&f).expect("loop free");
    let lib = ResourceLibrary::new();
    let chained = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
    let mut no_cross = Constraints::microprocessor_block(10.0);
    no_cross.allow_cross_block_chaining = false;
    let classical = schedule(&f, &graph, &lib, &no_cross).unwrap();
    let no_chain = schedule(
        &f,
        &graph,
        &lib,
        &Constraints::microprocessor_block(10.0).without_chaining(),
    )
    .unwrap();
    println!(
        "{:<44} {:>8} {:>14}",
        "configuration", "states", "crit.path ns"
    );
    println!(
        "{:<44} {:>8} {:>14.2}",
        "chaining across conditionals (paper)",
        chained.num_states,
        chained.critical_path_ns()
    );
    println!(
        "{:<44} {:>8} {:>14.2}",
        "chaining within basic blocks only",
        classical.num_states,
        classical.critical_path_ns()
    );
    println!(
        "{:<44} {:>8} {:>14.2}",
        "no chaining",
        no_chain.num_states,
        no_chain.critical_path_ns()
    );

    // Wire-variable statistics on the single-cycle ILD (Figures 6-7 at scale).
    let result = synthesize_ild_spark(opts.detail_n);
    println!(
        "ILD n={}: wire-variables {}, commit copies {}, initialisers {}, chained pairs {}, cross-conditional {}",
        opts.detail_n,
        result.wire_report.wires_created,
        result.wire_report.commit_copies,
        result.wire_report.initializers,
        result.chaining.chained_pairs,
        result.chaining.cross_block_pairs
    );
    println!();
}

/// E5–E8 — Figures 10–15: the ILD transformation stages and the final
/// single-cycle architecture across buffer sizes.
fn experiment_e5_to_e8(opts: &ReproduceOptions) {
    println!("== E5-E8 (Figures 10-15): ILD transformation stages ==");
    let result = synthesize_ild_spark(opts.detail_n);
    println!("stage progression (n = {}):", opts.detail_n);
    for stage in &result.stages {
        println!("  {:<24} {}", stage.stage, stage.stats);
    }
    println!();
    println!("final architecture across buffer sizes (coordinated flow):");
    println!(
        "{:<6} {:>8} {:>10} {:>14} {:>8} {:>8} {:>10}",
        "n", "states", "ops", "crit.path ns", "FUs", "regs", "area"
    );
    let reports = par_map(&opts.sizes, |&n| synthesize_ild_spark(n).report);
    for (&n, r) in opts.sizes.iter().zip(&reports) {
        println!(
            "{:<6} {:>8} {:>10} {:>14.2} {:>8} {:>8} {:>10.0}",
            n,
            r.states,
            r.operations,
            r.critical_path_ns,
            r.total_functional_units(),
            r.registers,
            r.area_estimate
        );
    }
    println!();
}

/// E9 — Figure 1 / Section 6: coordinated flow vs classical ASIC baseline.
fn experiment_e9(opts: &ReproduceOptions) {
    println!("== E9 (Figure 1): coordinated microprocessor-block flow vs ASIC baseline ==");
    println!(
        "{:<6} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "n", "spark states", "base states", "spark area", "base area", "spark FUs", "base FUs"
    );
    let rows = par_map(&opts.sizes, |&n| {
        (
            synthesize_ild_spark(n).report,
            synthesize_ild_baseline(n).report,
        )
    });
    for (&n, (spark, baseline)) in opts.sizes.iter().zip(&rows) {
        println!(
            "{:<6} {:>12} {:>12} {:>14.0} {:>14.0} {:>12} {:>12}",
            n,
            spark.states,
            baseline.states,
            spark.area_estimate,
            baseline.area_estimate,
            spark.total_functional_units(),
            baseline.total_functional_units()
        );
    }
    println!();
}

/// E10 — Figure 16: the natural while(1) description through the
/// source-level transformation.
fn experiment_e10(opts: &ReproduceOptions) {
    println!("== E10 (Figure 16): natural description through while-to-for ==");
    println!(
        "{:<6} {:>8} {:>14} {:>12}",
        "n", "states", "crit.path ns", "single cycle"
    );
    let rows = par_map(&opts.natural_sizes, |&n| {
        let r = synthesize_ild_natural(n);
        (
            r.report.states,
            r.report.critical_path_ns,
            r.is_single_cycle(),
        )
    });
    for (&n, &(states, crit, single)) in opts.natural_sizes.iter().zip(&rows) {
        println!("{n:<6} {states:>8} {crit:>14.2} {single:>12}");
    }
    println!();
}

/// Ablation (see `docs/ARCHITECTURE.md`, "Design-space exploration"): each
/// coordinated transformation switched off individually.
fn experiment_ablation(opts: &ReproduceOptions) {
    println!(
        "== Ablation (docs/ARCHITECTURE.md): switching off individual transformations (n = {}) ==",
        opts.detail_n
    );
    let program = build_ild_program(opts.detail_n);
    let points =
        ablation_study(&program, ILD_FUNCTION, SINGLE_CYCLE_CLOCK_NS).expect("ablation study runs");
    println!("{}", format_table(&points));
}

/// Parser-driven workloads: every committed `.spark` corpus program through
/// the textual frontend and the coordinated flow — the first experiments
/// whose inputs are not baked into the binary.
fn experiment_frontend_corpus(opts: &ReproduceOptions) {
    let mut paths = corpus_paths();
    let total = paths.len();
    if let Some(limit) = opts.corpus_limit {
        paths.truncate(limit);
    }
    if paths.len() < total {
        println!(
            "== Frontend corpus (first {} of {total} programs in crates/bench/programs, coordinated flow) ==",
            paths.len()
        );
    } else {
        println!("== Frontend corpus (crates/bench/programs/*.spark, coordinated flow) ==");
    }
    println!(
        "{:<18} {:>8} {:>8} {:>14} {:>8} {:>10} {:>18}",
        "program", "states", "ops", "crit.path ns", "FUs", "area", "fingerprint"
    );
    let rows = par_map(&paths, |path| {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(path).expect("corpus file readable");
        let compiled = spark_front::compile(&source).expect("corpus program compiles");
        let result = synthesize(
            &compiled.program,
            &compiled.top,
            &FlowOptions::microprocessor_block(SINGLE_CYCLE_CLOCK_NS),
        )
        .expect("corpus program synthesizes");
        let fingerprint = synthesis_fingerprint(&result);
        (stem, result.report, fingerprint)
    });
    for (stem, report, fingerprint) in &rows {
        println!(
            "{:<18} {:>8} {:>8} {:>14.2} {:>8} {:>10.0} {:>18}",
            stem,
            report.states,
            report.operations,
            report.critical_path_ns,
            report.total_functional_units(),
            report.area_estimate,
            format!("{fingerprint:016x}")
        );
    }
    println!();
}
