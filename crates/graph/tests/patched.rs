//! Property suite for the mutable adjacency behind `arbcolor::dynamic`.
//!
//! `MutableGraph` edits an edge at a time and promises that `to_graph` is **bit-identical**
//! to throwing every surviving edge at a fresh `GraphBuilder` and re-attaching the
//! identifiers — same CSR arrays, same canonical edge order, same mirror-arc table.
//! Dynamic recoloring and the serving layer both lean on that equivalence, so it is
//! pinned here across the full generator suite with random sequences of insert/remove
//! batches (including overlapping, duplicated, and no-op edges).

use std::collections::BTreeSet;

use arbcolor_graph::generators::seeded_suite as generator_suite;
use arbcolor_graph::{Graph, GraphBuilder, GraphError, MutableGraph, Vertex};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type EdgeList = Vec<(Vertex, Vertex)>;

/// The oracle: a fresh builder over the model edge set, with the identifiers re-attached.
fn rebuilt(n: usize, model: &BTreeSet<(Vertex, Vertex)>, ids: &[u64]) -> Graph {
    let mut builder = GraphBuilder::new(n);
    builder.add_edges(model.iter().copied()).unwrap();
    builder.build().with_vertex_ids(ids.to_vec()).unwrap()
}

fn canon((u, v): (Vertex, Vertex)) -> (Vertex, Vertex) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

fn random_batch(
    rng: &mut ChaCha8Rng,
    g: &MutableGraph,
    inserts: usize,
    removes: usize,
) -> (EdgeList, EdgeList) {
    let n = g.n();
    let edges: EdgeList = g.edges().collect();
    let mut insert = Vec::new();
    for _ in 0..inserts {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            // Deliberately unordered and possibly already present or duplicated.
            insert.push((u, v));
        }
    }
    let mut remove = Vec::new();
    for _ in 0..removes {
        if !edges.is_empty() && rng.gen_bool(0.8) {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            remove.push(if rng.gen_bool(0.5) { (v, u) } else { (u, v) });
        } else {
            // Absent-edge removals must be no-ops.
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                remove.push((u, v));
            }
        }
    }
    (insert, remove)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn patched_graphs_match_full_rebuilds_on_the_generator_suite(
        n in 8usize..60,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9);
        for (family, g) in generator_suite(n, seed) {
            let g = g.with_shuffled_ids(seed);
            let mut mutable = MutableGraph::from_graph(&g);
            prop_assert_eq!(&mutable.to_graph(), &g, "round trip on {}", family);
            let mut model: BTreeSet<(Vertex, Vertex)> = g.edges().iter().copied().collect();
            for step in 0..4 {
                let (insert, remove) = random_batch(&mut rng, &mutable, n / 2, n / 3);
                if step % 2 == 0 {
                    mutable.patch(&insert, &remove).unwrap();
                } else {
                    // The same batch an edge at a time, with per-edge return values.
                    for &edge in &remove {
                        let was_present = model.contains(&canon(edge));
                        let removed = mutable.remove_edge(edge.0, edge.1).unwrap();
                        prop_assert_eq!(removed, was_present);
                        model.remove(&canon(edge));
                    }
                    for &edge in &insert {
                        let was_absent = !model.contains(&canon(edge));
                        let inserted = mutable.insert_edge(edge.0, edge.1).unwrap();
                        prop_assert_eq!(inserted, was_absent);
                        model.insert(canon(edge));
                    }
                }
                for &edge in &remove {
                    model.remove(&canon(edge));
                }
                model.extend(insert.iter().copied().map(canon));
                let oracle = rebuilt(g.n(), &model, g.ids());
                prop_assert_eq!(mutable.m(), model.len(), "edge count on {}", family);
                prop_assert_eq!(&mutable.to_graph(), &oracle, "to_graph != rebuilt on {}", family);
                prop_assert_eq!(mutable.ids(), g.ids(), "ids drifted on {}", family);
                prop_assert_eq!(mutable.max_degree(), oracle.max_degree());
            }
        }
    }
}

#[test]
fn patched_applies_removals_before_insertions() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let mut h = MutableGraph::from_graph(&g);
    // (1, 2) is both removed and (re-)inserted: insert wins.
    h.patch(&[(2, 1), (0, 3)], &[(1, 2), (2, 3), (0, 3)]).unwrap();
    assert_eq!(h.to_graph().edges(), &[(0, 1), (0, 3), (1, 2)]);
}

#[test]
fn patched_is_a_no_op_for_empty_batches() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap().with_shuffled_ids(7);
    let mut h = MutableGraph::from_graph(&g);
    h.patch(&[], &[]).unwrap();
    assert_eq!(h.to_graph(), g);
    // Inserting present edges and removing absent ones changes nothing either.
    h.patch(&[(1, 0), (3, 4)], &[(0, 4), (2, 3)]).unwrap();
    assert!(!h.insert_edge(2, 1).unwrap());
    assert!(!h.remove_edge(0, 2).unwrap());
    assert_eq!(h.to_graph(), g);
}

#[test]
fn patched_surfaces_typed_errors_from_both_lists() {
    let g = Graph::from_edges(3, [(0, 1)]).unwrap();
    let mut h = MutableGraph::from_graph(&g);
    // A valid edit ahead of the bad edge must not land: the batch is checked first.
    assert_eq!(
        h.patch(&[(1, 2), (0, 9)], &[(0, 1)]).unwrap_err(),
        GraphError::VertexOutOfRange { vertex: 9, n: 3 }
    );
    assert_eq!(h.patch(&[(1, 2)], &[(2, 2)]).unwrap_err(), GraphError::SelfLoop { vertex: 2 });
    assert_eq!(h.insert_edge(3, 0).unwrap_err(), GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    assert_eq!(h.remove_edge(1, 1).unwrap_err(), GraphError::SelfLoop { vertex: 1 });
    assert_eq!(h.to_graph(), g);
}

#[test]
fn patched_can_empty_and_refill_a_graph() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap().with_shuffled_ids(3);
    let mut h = MutableGraph::from_graph(&g);
    h.patch(&[], g.edges()).unwrap();
    assert_eq!(h.m(), 0);
    assert_eq!(h.max_degree(), 0);
    let empty = h.to_graph();
    assert_eq!(empty.m(), 0);
    assert_eq!(empty.num_arcs(), 0);
    assert_eq!(empty.ids(), g.ids());
    h.patch(g.edges(), &[]).unwrap();
    assert_eq!(h.to_graph(), g);
}
