//! `insert_wire_variables` rewrites in one pass: a flat access list sorted
//! by `(variable, state)`, with commit copies and initializers spliced in at
//! the end. This pins it to the nested-table reference it replaced on the
//! transformed ILD, from a deep multi-state schedule to a single cycle.

#[path = "support/wires_reference.rs"]
mod wires_reference;

use spark_core::{transform_program, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_sched::{schedule, Constraints, ResourceLibrary, WireReport};
use wires_reference::check_wires_match_reference;

#[test]
fn ild_wires_match_the_nested_table_reference() {
    let library = ResourceLibrary::new();
    for n in [8, 16] {
        let program = build_ild_program(n);
        let options = FlowOptions::microprocessor_block(2000.0);
        let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
        let top = transformed.program.function(ILD_FUNCTION).unwrap();
        let graph = transformed.dependence_graph().unwrap();
        let mut total = WireReport::default();
        for clock in [8.0, 30.0, 120.0, 2000.0] {
            let constraints = Constraints::microprocessor_block(clock);
            let schedule = schedule(top, graph, &library, &constraints)
                .unwrap_or_else(|e| panic!("n={n} at {clock} ns: {e}"));
            let report = check_wires_match_reference(top, &schedule)
                .unwrap_or_else(|e| panic!("n={n} at {clock} ns: {e}"));
            total.commit_copies += report.commit_copies;
            total.initializers += report.initializers;
        }
        // The sweep splices both kinds of copy.
        assert!(
            total.commit_copies > 0 && total.initializers > 0,
            "n={n}: {total:?}"
        );
    }
}
