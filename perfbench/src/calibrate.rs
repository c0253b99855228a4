//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed changes by half or more for
//! seconds at a time, as neighbours come and go; every wall time moves with
//! it. The benchmark therefore times a fixed kernel before every request
//! and reports times scaled to a reference host, on which the kernel takes
//! [`REFERENCE_SECONDS`]: a request that took 30 ms while the kernel took
//! 3 ms reports 15 ms. The kernel is part of the benchmark, not of the
//! program, so a change to the program cannot move it.
//!
//! The kernel mixes sorting and ordered-map inserts (branchy integer work)
//! with string formatting, hashing and allocation, in about equal time: on
//! the shared 2-vCPU host it was tuned on, the first slows down a little
//! less than the synthesis flow when the host is busy and the second a
//! little more, so together they track it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::stats::{median, Rng};

/// The kernel's wall time on the reference host.
pub const REFERENCE_SECONDS: f64 = 1.5e-3;

/// Kernel runs the current speed is estimated from. One run is noisy; the
/// host's phases last seconds, many requests long.
const WINDOW: usize = 5;

#[derive(Default)]
pub struct Calibration {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl Calibration {
    /// Runs the kernel and returns the factor that scales a wall time
    /// measured now to the reference host: `REFERENCE_SECONDS` over the
    /// median of the last few kernel times.
    pub fn scale(&mut self) -> f64 {
        let seconds = kernel_seconds();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(seconds);
        self.all.push(seconds);
        REFERENCE_SECONDS / median(self.recent.make_contiguous())
    }

    /// Median wall time of every kernel run so far, seconds.
    pub fn median_seconds(&self) -> f64 {
        median(&self.all)
    }
}

/// Wall time of one run of the fixed kernel, seconds.
fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut rng = Rng::new(1);
    let mut acc = 0u64;
    for _ in 0..8 {
        let mut keys: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        keys.sort_unstable();
        let tree: BTreeMap<u64, usize> = keys
            .iter()
            .step_by(4)
            .enumerate()
            .map(|(i, key)| (key >> 40, i))
            .collect();
        acc = acc.wrapping_add(tree.len() as u64 + keys[17]);
    }
    // A fixed-key SipHash so the work does not depend on the process.
    let mut table: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut names = Vec::with_capacity(3000);
    for i in 0..3000u64 {
        let name = format!("v{i}_{}", rng.next_u64() % 977);
        table.insert(name.clone(), i);
        names.push(name);
    }
    for name in &names {
        acc = acc.wrapping_add(table[name]);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}
