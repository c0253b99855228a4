//! Emits `BENCH_synthesize.json`: full-synthesis wall-times per ILD size and
//! flow mode, with the mean total of every span of the runs' traces (each
//! transformation pass, transform, the schedule sub-stages, schedule, bind
//! and RTL reporting) per point.
//!
//! Usage:
//!
//! ```text
//! bench_synthesize [--sizes 8,16,32] [--iters 5] [--out BENCH_synthesize.json]
//! ```
//!
//! With no `--out` the JSON goes to stdout only. CI runs the smoke sizes and
//! uploads the file as a workflow artifact; the repository root carries a
//! committed run from the full sizes so the perf trajectory is reviewable
//! diff by diff.

use spark_bench::perf::{bench_json, measure_synthesize};

const USAGE: &str = "\
usage: bench_synthesize [options]

Measures full-synthesis wall time per ILD buffer size and flow mode —
with a per-span breakdown (each pass, transform, schedule and its
sub-stages, bind, rtl) — and emits the series as JSON.

options:
  --sizes N,N,...  comma-separated ILD buffer sizes (default: 8,16,32)
  --iters N        timed iterations per point, after one warm-up (default: 5)
  --out FILE       also write the JSON to FILE
  -h, --help       print this help
";

/// Reports a usage error on stderr and exits with code 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("bench_synthesize: error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> (Vec<u32>, u32, Option<String>) {
    let mut sizes = vec![8u32, 16, 32];
    let mut iters = 5u32;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--sizes" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--sizes needs a comma-separated list"));
                sizes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage_error(format!("invalid size `{s}`")))
                    })
                    .collect();
                if sizes.is_empty() {
                    usage_error("--sizes needs at least one size");
                }
            }
            "--iters" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--iters needs a count"));
                iters = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(format!("invalid iteration count `{value}`")));
            }
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a path")),
                );
            }
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    (sizes, iters, out)
}

fn main() {
    let (sizes, iters, out) = parse_args();
    eprintln!("measuring synthesize over sizes {sizes:?} ({iters} iters per point)...");
    let records = measure_synthesize(&sizes, iters);
    let json = bench_json(&records);
    print!("{json}");
    if let Some(path) = out {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("bench_synthesize: error: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
        }
    }
}
