//! Graph substrate for the `arbcolor` project.
//!
//! This crate provides everything the distributed-coloring algorithms and the experiment
//! harness need to know about graphs:
//!
//! * [`Graph`] — a compact, immutable undirected simple graph in CSR (compressed sparse row)
//!   form, with a canonical edge index and per-vertex unique identifiers (the LOCAL model
//!   assumes IDs from `{1, …, n}`).
//! * [`mutable`] — [`MutableGraph`], per-vertex sorted neighbor lists that change an edge
//!   at a time and materialize the CSR form on demand (how `arbcolor::dynamic` keeps its graph).
//! * [`subgraph`] — induced subgraphs with index mappings back to the parent graph, used by
//!   the recursive procedures of the paper (which recurse on color classes).
//! * [`orientation`] — complete and *partial* edge orientations together with their
//!   out-degree, *length* (longest consistently oriented path) and *deficit* parameters, the
//!   central combinatorial objects of Section 3 of the paper, plus the completion operation of
//!   Lemma 3.1 and acyclicity checks.
//! * [`coloring`] — coloring containers and independent validators: legality, defect
//!   (maximum number of same-colored neighbors), and arbdefect verification via witness
//!   orientations (Lemma 2.5 of the paper).
//! * [`degeneracy`] — degeneracy orderings and arboricity estimates (degeneracy `d` satisfies
//!   `a ≤ d ≤ 2a − 1`, and the Nash-Williams density `⌈m/(n−1)⌉` lower-bounds `a`).
//! * [`generators`] — deterministic and seeded-random graph families used by the test-suite
//!   and the experiments (bounded-arboricity unions of forests, star forests with huge `Δ`
//!   but tiny `a`, grids, rings, preferential attachment, …).
//! * [`io`] — streaming parsers and writers for the on-disk formats real datasets ship in
//!   (whitespace edge lists, DIMACS `.col`, METIS), feeding the CSR builder directly with
//!   typed errors for every malformed input.
//! * [`palette`] — the word-level bitset palette engine: epoch-stamped strike sets
//!   ([`PaletteSet`]), the CSR-shaped flat color-list arena ([`ColorPool`]), and the shared
//!   reuse counters ([`PaletteStats`]) every pick path of the coloring algorithms runs on.
//!
//! # Example
//!
//! ```
//! use arbcolor_graph::{generators, degeneracy};
//!
//! # fn main() -> Result<(), arbcolor_graph::GraphError> {
//! let g = generators::union_of_random_forests(200, 3, 7)?;
//! let d = degeneracy::degeneracy(&g);
//! assert!(d <= 2 * 3); // degeneracy is at most 2a - 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod degeneracy;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod mutable;
pub mod orientation;
pub mod palette;
pub mod properties;
pub mod subgraph;

pub use coloring::{Color, Coloring};
pub use error::GraphError;
pub use graph::{ArcIdx, EdgeIdx, Graph, GraphBuilder, Vertex};
pub use mutable::MutableGraph;
pub use orientation::{EdgeDirection, Orientation};
pub use palette::{ColorPool, PaletteSet, PaletteStats, PaletteStatsSnapshot};
pub use subgraph::{InducedSubgraph, PartitionScratch, VertexMap};
