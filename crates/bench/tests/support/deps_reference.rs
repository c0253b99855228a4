//! A reference for `DependenceGraph::build`'s flat def/use histories: the
//! plain scan that keeps one growable history `Vec` per variable, written
//! against the graph's public accessors. Test files include it with
//! `#[path = "support/deps_reference.rs"] mod deps_reference;`.

use std::collections::HashMap;

use spark_ir::{Function, OpId, VarId};
use spark_sched::{DepKind, Dependence, DependenceGraph};

/// Incoming edges of every operation in `graph.order`, found by the
/// per-variable history scan, which an unconditional scalar definition
/// restarts. Guards and mutual exclusion come from the
/// graph's term-by-term [`spark_sched::Guard`]s, not from its bitset.
pub fn reference_preds(function: &Function, graph: &DependenceGraph) -> Vec<Vec<Dependence>> {
    let mut last_defs: HashMap<VarId, Vec<OpId>> = HashMap::new();
    let mut last_uses: HashMap<VarId, Vec<OpId>> = HashMap::new();
    let mut all = Vec::with_capacity(graph.order.len());
    for (position, &op_id) in graph.order.iter().enumerate() {
        let op = &function.ops[op_id];
        let guard = graph.guard_of(op_id);
        let exclusive = |other: OpId| graph.guard_of(other).mutually_exclusive(&guard);
        let mut preds = Vec::new();
        for &(cond, _) in &guard.terms {
            if let Some(cond_var) = cond.as_var() {
                for &producer in history(&last_defs, cond_var) {
                    if !exclusive(producer) {
                        preds.push(edge(producer, DepKind::Control, cond_var));
                    }
                }
            }
        }
        for used in op.uses_iter() {
            for &producer in history(&last_defs, used) {
                if !exclusive(producer) {
                    preds.push(edge(producer, DepKind::Flow, used));
                }
            }
        }
        if let Some(defined) = op.def() {
            for &producer in history(&last_defs, defined) {
                if !exclusive(producer) {
                    preds.push(edge(producer, DepKind::Output, defined));
                }
            }
            for &reader in history(&last_uses, defined) {
                if reader != op_id && !exclusive(reader) {
                    preds.push(edge(reader, DepKind::Anti, defined));
                }
            }
        }
        // An unconditional scalar definition starts the variable's
        // histories afresh.
        if let Some(defined) = op.def() {
            if guard.is_unconditional() && !function.vars[defined].is_array() {
                last_defs.remove(&defined);
                last_uses.remove(&defined);
            }
        }
        for used in op.uses_iter() {
            last_uses.entry(used).or_default().push(op_id);
        }
        // A guard condition counts as read when it is defined again later.
        for &(cond, _) in &guard.terms {
            if let Some(cond_var) = cond.as_var() {
                let defined_later = graph.order[position..]
                    .iter()
                    .any(|&later| function.ops[later].def() == Some(cond_var));
                if defined_later {
                    last_uses.entry(cond_var).or_default().push(op_id);
                }
            }
        }
        if let Some(defined) = op.def() {
            last_defs.entry(defined).or_default().push(op_id);
        }
        all.push(preds);
    }
    all
}

fn history(map: &HashMap<VarId, Vec<OpId>>, var: VarId) -> &[OpId] {
    map.get(&var).map_or(&[], Vec::as_slice)
}

fn edge(from: OpId, kind: DepKind, var: VarId) -> Dependence {
    Dependence { from, kind, var }
}

/// Checks that every `preds_of` slice of `graph` equals the reference scan's
/// edges, in the same order. Returns the first mismatch.
pub fn check_preds_match_reference(
    function: &Function,
    graph: &DependenceGraph,
) -> Result<(), String> {
    let reference = reference_preds(function, graph);
    for (&op, want) in graph.order.iter().zip(&reference) {
        let got = graph.preds_of(op);
        if got != want.as_slice() {
            return Err(format!(
                "preds of {op:?} differ:\n  flat:      {got:?}\n  reference: {want:?}"
            ));
        }
    }
    Ok(())
}
