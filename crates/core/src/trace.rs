//! Wall-clock spans of one synthesis run.
//!
//! [`transform_program`](crate::transform_program) records one span per
//! transformation pass, and one `fine-analyses` span per build of the
//! fine-grain analyses, under a `transform` span;
//! [`synthesize_transformed`](crate::synthesize_transformed) records the five
//! `sched_*` sub-stages under `schedule`, then `bind` and `rtl`. The
//! benchmark harness writes the per-name totals into
//! `BENCH_synthesize.json`.

use std::time::Instant;

/// One timed stage of a synthesis run.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage name: a pass's
    /// [`Report::pass`](spark_transforms::Report::pass), `fine-analyses`,
    /// `transform`, `schedule`, a `sched_*` sub-stage, `bind` or `rtl`.
    pub name: String,
    /// Nesting depth: 0 for a top-level stage, 1 for a stage inside one.
    pub depth: usize,
    /// Wall time, milliseconds.
    pub ms: f64,
}

/// The spans of one synthesis run, each pushed when it ends — so the spans
/// nested in a stage come right before that stage's own span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The spans in the order they ended.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Ends a span named `name` at `depth` that began at `started`.
    pub(crate) fn push(&mut self, name: impl Into<String>, depth: usize, started: Instant) {
        self.spans.push(Span {
            name: name.into(),
            depth,
            ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }

    /// Runs `stage` inside a span named `name` at `depth`.
    pub(crate) fn time<T>(&mut self, name: &str, depth: usize, stage: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = stage();
        self.push(name, depth, started);
        value
    }

    /// Total milliseconds per distinct span name, in the order each name
    /// first ended: a pass that ran twice appears once, as the sum of both
    /// runs.
    pub fn totals(&self) -> Vec<(&str, f64)> {
        let mut totals: Vec<(&str, f64)> = Vec::new();
        for span in &self.spans {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, ms)) => *ms += span.ms,
                None => totals.push((&span.name, span.ms)),
            }
        }
        totals
    }
}
