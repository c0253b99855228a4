//! `DependenceGraph::build` keeps its def/use histories in two flat arrays.
//! This pins its edges to the per-variable-`Vec` reference scan on the
//! transformed ILD, before wire insertion and after it at clock points from
//! a deep multi-state schedule to a single cycle.

#[path = "support/deps_reference.rs"]
mod deps_reference;

use deps_reference::check_preds_match_reference;
use spark_core::{synthesize_transformed, transform_program, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_sched::DependenceGraph;

#[test]
fn ild_graphs_match_the_per_variable_history_reference() {
    for n in [8, 16] {
        let program = build_ild_program(n);
        let options = FlowOptions::microprocessor_block(2000.0);
        let transformed = transform_program(&program, ILD_FUNCTION, &options).unwrap();
        let top = transformed.program.function(ILD_FUNCTION).unwrap();
        let pre_wire = DependenceGraph::build(top).unwrap();
        check_preds_match_reference(top, &pre_wire)
            .unwrap_or_else(|e| panic!("n={n}, pre-wire: {e}"));
        for clock in [8.0, 30.0, 120.0, 2000.0] {
            let result =
                synthesize_transformed(&transformed, &FlowOptions::microprocessor_block(clock))
                    .unwrap_or_else(|e| panic!("n={n} at {clock} ns: {e}"));
            let post_wire = DependenceGraph::build(&result.function).unwrap();
            check_preds_match_reference(&result.function, &post_wire)
                .unwrap_or_else(|e| panic!("n={n} at {clock} ns, post-wire: {e}"));
        }
    }
}
