//! Independent oracle for the task graph's fused extend-and-multiply.
//!
//! Every engine runs the same task graph, so engine agreement cannot
//! catch a mistake in how that graph is built. This test propagates
//! with a separate, test-only reference: the textbook two-phase Hugin
//! pass, which materializes every extended ratio in a clique-sized
//! scratch table (`extend_range_into`) and then multiplies it in
//! elementwise (`multiply_assign`). The graph's multiply tasks instead
//! project the separator ratio through the extension plan; the
//! calibrated cliques must agree bit for bit.

use evprop::core::{CollaborativeEngine, Engine, SequentialEngine};
use evprop::jtree::JunctionTree;
use evprop::potential::{Domain, EntryRange, EvidenceSet, PotentialTable};
use evprop::sched::SchedulerConfig;
use evprop::taskgraph::{PropagationMode, TaskGraph, TaskKind};
use evprop::workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;

/// The separator marginal of `clique` (sum or max out the rest).
fn marginal(clique: &PotentialTable, sep: &Domain, max: bool) -> PotentialTable {
    let mut out = PotentialTable::zeros(sep.clone());
    let range = EntryRange::full(clique.len());
    if max {
        clique.max_marginalize_range_into(range, &mut out)
    } else {
        clique.marginalize_range_into(range, &mut out)
    }
    .expect("separator nests in clique");
    out
}

/// `dst *= ratio` the textbook way: extend the ratio over `dst`'s
/// domain into a scratch table, then multiply elementwise.
fn extend_then_multiply(dst: &mut PotentialTable, ratio: &PotentialTable) {
    let mut extended = PotentialTable::zeros(dst.domain().clone());
    ratio
        .extend_range_into(EntryRange::full(extended.len()), &mut extended)
        .expect("separator nests in clique");
    dst.multiply_assign(&extended)
        .expect("extended table matches clique domain");
}

/// Two-phase Hugin propagation over `jt`'s current root, one message at
/// a time: collect in postorder (children's messages into a parent in
/// postorder), then distribute in preorder.
fn two_phase_reference(jt: &JunctionTree, ev: &EvidenceSet, max: bool) -> Vec<PotentialTable> {
    let shape = jt.shape();
    let mut cliques: Vec<PotentialTable> = jt
        .potentials()
        .iter()
        .map(|p| {
            let mut t = p.clone();
            ev.absorb_into(&mut t)
                .expect("evidence states are in range");
            t
        })
        .collect();
    let mut sep_up: Vec<Option<PotentialTable>> = vec![None; shape.num_cliques()];
    for &c in &shape.postorder() {
        let Some(p) = shape.parent(c) else { continue };
        let sep = marginal(&cliques[c.index()], shape.parent_separator(c), max);
        let mut ratio = sep.clone();
        ratio
            .divide_assign(&PotentialTable::ones(sep.domain().clone()))
            .expect("same domain");
        extend_then_multiply(&mut cliques[p.index()], &ratio);
        sep_up[c.index()] = Some(sep);
    }
    for &c in shape.preorder() {
        let Some(p) = shape.parent(c) else { continue };
        let mut ratio = marginal(&cliques[p.index()], shape.parent_separator(c), max);
        ratio
            .divide_assign(sep_up[c.index()].as_ref().expect("collected"))
            .expect("same domain");
        extend_then_multiply(&mut cliques[c.index()], &ratio);
    }
    cliques
}

fn bits(t: &PotentialTable) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random trees, random hard evidence, both algebras: the fused
    /// graph, run sequentially and on two unpartitioned threads,
    /// calibrates every clique to exactly the reference's bits.
    #[test]
    fn fused_graph_matches_two_phase_reference(
        seed in 0u64..5000,
        n in 2usize..30,
        w in 2usize..7,
        r in 2usize..4,
        k in 1usize..5,
        findings in proptest::collection::vec((0usize..1000, 0usize..1000, 0usize..8), 0..4),
        max in proptest::bool::ANY,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, r, k).with_seed(seed));
        let jt = materialize(&shape, seed);
        let mut ev = EvidenceSet::new();
        for (c, v, s) in findings {
            let vars = shape.domains()[c % n].vars();
            let var = &vars[v % vars.len()];
            ev.observe(var.id(), s % var.cardinality());
        }
        let mode = if max { PropagationMode::MaxProduct } else { PropagationMode::SumProduct };
        let graph = TaskGraph::from_shape_mode(jt.shape(), mode);
        prop_assert!(graph.tasks().iter().all(|t| !matches!(t.kind, TaskKind::Extend { .. })));

        let want = two_phase_reference(&jt, &ev, max);
        let pooled = CollaborativeEngine::new(SchedulerConfig::with_threads(2).without_partitioning());
        let engines: [&dyn Engine; 2] = [&SequentialEngine, &pooled];
        for engine in engines {
            let got = engine.propagate_graph(&jt, &graph, &ev).expect("propagates");
            for (c, reference) in want.iter().enumerate() {
                let clique = got.clique(evprop::jtree::CliqueId(c));
                prop_assert_eq!(
                    bits(clique),
                    bits(reference),
                    "{} engine, clique {}, {:?}",
                    engine.name(),
                    c,
                    mode
                );
            }
        }
    }
}
