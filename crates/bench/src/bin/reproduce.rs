//! Regenerates every figure-level result of the paper and prints the tables
//! recorded in `docs/reproduce.txt`.
//!
//! ```bash
//! cargo run -p spark-bench --bin reproduce --release
//! ```
//!
//! The actual experiment driver lives in [`spark_bench::experiments`] so the
//! same code path is covered by `cargo test` (`tests/reproduce_smoke.rs`).

use spark_bench::experiments::{run_all, ReproduceOptions};

const USAGE: &str = "\
usage: reproduce [--smoke] [-h | --help]

Regenerates every figure-level table of the paper reproduction
(experiments E1-E10, the ablation study and the frontend corpus).

options:
  --smoke      run the minimal sweep (smallest ILD only, as `cargo test`)
  -h, --help   print this help
";

fn main() {
    let mut options = ReproduceOptions::paper();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--smoke" => options = ReproduceOptions::smoke(),
            other => {
                eprintln!("reproduce: error: unknown argument `{other}`");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    run_all(&options);
}
