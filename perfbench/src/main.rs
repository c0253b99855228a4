//! Same-host benchmark of the SPARK high-level-synthesis flow.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ild|sweep|corpus> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A closed loop with one client: each request is a designer's tool
//! invocation — SPARK-C source text in, synthesized designs and VHDL out —
//! and the next starts when the previous one has been simulated and
//! checked. The synthesis crates are driven through their public API only.
//!
//! The workloads load the layers differently. In `ild`, one large design,
//! transforms take about 40% of a request, the backend (scheduling,
//! binding, datapath report) 30% and VHDL emission 25%. In `sweep` the
//! backend runs once per clock point and takes about 80%. In `corpus`,
//! eleven small programs, the frontend's share is largest (about 5%). A
//! change to one layer should move `latency_ms` where that layer's span is
//! large and leave the other workloads unchanged.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (median request latency, peak memory, set-up time);
//! with `--trace 1` they are per-layer times and counts, from spans the
//! benchmark records around its calls into each layer. Every time is
//! scaled to a reference host speed (see [`calibrate`]).

mod calibrate;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::Calibration;
use stats::median;
use trace::{Layer, Tracer};
use workload::{Kind, Workload};

const USAGE: &str =
    "usage: spark-perfbench --workload <ild|sweep|corpus> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up (input generation plus one warm request) is repeated this many
/// times per run and reported as the median.
const SETUP_REPEATS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run measured. Times are scaled to the reference host.
#[derive(Default)]
struct Measurement {
    attempted: usize,
    failed: usize,
    mismatches: usize,
    /// Time of each successful request, seconds.
    latencies: Vec<f64>,
    sim_seconds: f64,
    vectors: usize,
    sim_cycles: usize,
    // Per-layer work counts, summed over successful requests.
    ops_lowered: usize,
    ops_transformed: usize,
    pass_changes: usize,
    states: usize,
    vhdl_bytes: usize,
}

/// Serves, simulates and checks one request, recording it into `m` with
/// wall times multiplied by `scale` (see [`Calibration::scale`]).
fn serve(workload: &mut Workload, scale: f64, tracer: &mut Tracer, m: &mut Measurement) {
    m.attempted += 1;
    tracer.set_scale(scale);
    let started = Instant::now();
    let outputs = match workload.request(tracer) {
        Ok(outputs) => outputs,
        Err(error) => {
            eprintln!("request failed: {error}");
            m.failed += 1;
            return;
        }
    };
    m.latencies.push(started.elapsed().as_secs_f64() * scale);
    for output in &outputs {
        let envs = workload.vectors(output);
        let started = Instant::now();
        let simulated: Result<Vec<_>, _> = output
            .designs
            .iter()
            .map(|design| design.simulate_batch(&envs))
            .collect();
        m.sim_seconds += started.elapsed().as_secs_f64() * scale;
        let rtl = match simulated {
            Ok(rtl) => rtl,
            Err(error) => {
                eprintln!("simulation of `{}` failed: {error}", output.compiled.top);
                m.failed += 1;
                continue;
            }
        };
        m.vectors += envs.len() * rtl.len();
        m.sim_cycles += rtl.iter().flatten().map(|o| o.cycles).sum::<usize>();
        if let Err(error) = workload.check(output, &envs, &rtl, tracer) {
            eprintln!("incorrect output: {error}");
            m.mismatches += 1;
        }
        m.ops_lowered += output
            .compiled
            .program
            .functions
            .iter()
            .map(|f| f.live_op_count())
            .sum::<usize>();
        m.ops_transformed += output.ops_transformed;
        m.pass_changes += output.pass_changes;
        m.states += output
            .designs
            .iter()
            .map(|d| d.report.states)
            .sum::<usize>();
        m.vhdl_bytes += output.vhdl_bytes;
    }
}

/// Peak resident set size of this process, MiB (`VmHWM` on Linux).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spark-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set-up: build the inputs from the seed and serve one untimed request,
    // so lazy initialisation and allocator growth happen before measuring.
    let mut calibration = Calibration::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut warm = Measurement::default();
    let mut workload = Workload::new(args.kind, args.seed);
    for _ in 0..SETUP_REPEATS {
        let scale = calibration.scale();
        let started = Instant::now();
        workload = Workload::new(args.kind, args.seed);
        serve(&mut workload, scale, &mut Tracer::new(false), &mut warm);
        setup.push(started.elapsed().as_secs_f64() * scale);
    }

    let mut tracer = Tracer::new(args.trace);
    let mut m = Measurement::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while m.attempted == 0 || Instant::now() < deadline {
        serve(&mut workload, calibration.scale(), &mut tracer, &mut m);
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let requests = m.latencies.len().max(1) as f64;
        let per_request = |value: f64| value / requests;
        let layer_ms = |layer| per_request(tracer.seconds(layer) * 1e3);
        let request_ms = per_request(m.latencies.iter().sum::<f64>() * 1e3);
        let vectors = m.vectors.max(1) as f64;
        metrics.extend([
            ("request_traced_ms", request_ms, "ms"),
            ("front_parse_ms", layer_ms(Layer::FrontParse), "ms"),
            ("front_sema_ms", layer_ms(Layer::FrontSema), "ms"),
            ("front_lower_ms", layer_ms(Layer::FrontLower), "ms"),
            ("transform_ms", layer_ms(Layer::Transform), "ms"),
            ("backend_ms", layer_ms(Layer::Backend), "ms"),
            ("vhdl_ms", layer_ms(Layer::Vhdl), "ms"),
            (
                "unattributed_ms",
                request_ms - per_request(tracer.request_seconds() * 1e3),
                "ms",
            ),
            ("sim_us_per_vector", m.sim_seconds * 1e6 / vectors, "us"),
            (
                "interp_us_per_vector",
                tracer.seconds(Layer::Interp) * 1e6 / vectors,
                "us",
            ),
            ("calibration_ms", calibration.median_seconds() * 1e3, "ms"),
            (
                "sim_cycles_per_vector",
                m.sim_cycles as f64 / vectors,
                "count",
            ),
            ("ops_lowered", per_request(m.ops_lowered as f64), "count"),
            (
                "ops_transformed",
                per_request(m.ops_transformed as f64),
                "count",
            ),
            ("pass_changes", per_request(m.pass_changes as f64), "count"),
            ("fsm_states", per_request(m.states as f64), "count"),
            ("vhdl_bytes", per_request(m.vhdl_bytes as f64), "bytes"),
        ]);
    } else {
        let peak = match peak_rss_mib() {
            Ok(peak) => peak,
            Err(message) => {
                eprintln!("spark-perfbench: {message}");
                return ExitCode::FAILURE;
            }
        };
        metrics.extend([
            ("latency_ms", median(&m.latencies) * 1e3, "ms"),
            ("peak_rss_mib", peak, "MiB"),
            ("setup_s", median(&setup), "s"),
        ]);
    }

    let correct = warm.failed + warm.mismatches + m.mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    eprintln!(
        "{} requests, {} failed, {} incorrect; calibration kernel median {:.3} ms",
        m.attempted,
        m.failed,
        m.mismatches,
        calibration.median_seconds() * 1e3
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
