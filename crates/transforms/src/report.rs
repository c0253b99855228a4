//! Transformation reports.
//!
//! Every pass returns a [`Report`] describing what it changed. The pass
//! manager in `spark-core` accumulates these into a synthesis log, and the
//! benchmark harness uses them to record the per-figure effect of each
//! transformation stage.

use std::fmt;

/// The outcome of running one transformation pass over one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Name of the pass (e.g. `"propagation"`).
    pub pass: String,
    /// Name of the function the pass ran on.
    pub function: String,
    /// Number of IR changes made (ops rewritten, removed, created, moved).
    pub changes: usize,
    /// Free-form notes (e.g. which loops were unrolled and by how much).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report for `pass` running on `function`.
    pub fn new(pass: &str, function: &str) -> Self {
        Report {
            pass: pass.to_string(),
            function: function.to_string(),
            changes: 0,
            notes: Vec::new(),
        }
    }

    /// Records `n` additional changes.
    pub fn add(&mut self, n: usize) {
        self.changes += n;
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Returns `true` if the pass changed nothing.
    pub fn is_noop(&self) -> bool {
        self.changes == 0
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} change(s)",
            self.pass, self.function, self.changes
        )?;
        for note in &self.notes {
            write!(f, "; {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("dce", "main");
        assert!(r.is_noop());
        r.add(3);
        r.note("removed 3 dead copies");
        assert_eq!(r.changes, 3);
        assert!(!r.is_noop());
        let text = r.to_string();
        assert!(text.contains("dce"));
        assert!(text.contains("3 change(s)"));
        assert!(text.contains("dead copies"));
    }
}
