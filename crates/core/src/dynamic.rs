//! Dynamic graphs: batched edge mutations with localized recoloring.
//!
//! A production coloring service rarely gets to re-color the world on every topology
//! change.  [`DynamicColoring`] maintains a legal `(deg+1)`-bounded coloring across batches
//! of [`GraphUpdate`]s — mixed edge insertions and removals — by repairing only the
//! **conflict frontier**, the vertices incident to a newly monochromatic edge:
//!
//! 1. the batch is folded into a last-write-wins overlay and its net effect is edited into
//!    a [`MutableGraph`] — per-vertex sorted neighbor lists, so an edge costs O(deg) at its
//!    two endpoints and nothing elsewhere.  The CSR [`Graph`] is built only on demand
//!    ([`DynamicColoring::graph`], full re-colorings) and is bit-identical to a
//!    from-scratch rebuild with the original identifiers;
//! 2. the frontier is collected by checking exactly the genuinely new edges — removals
//!    never create conflicts, so deletion-only batches are repair-free by construction;
//! 3. if the [`RepairPolicy`] selects a local repair, the induced subgraph on the frontier,
//!    read straight off the adjacency with no n-sized table, is re-colored with the
//!    Ghaffari–Kuhn `(deg+1)`-list algorithm under
//!    [`run_algorithm`](arbcolor_runtime::run_algorithm), where each frontier
//!    vertex lists `{0, …, deg(v)}` minus the colors held by its non-frontier neighbors —
//!    the list sizes stay ≥ subgraph-degree + 1, so the instance always has greedy slack,
//!    and any solution is legal against both repaired and untouched neighbors;
//! 4. if the policy escalates (by default: frontier above a threshold), the driver falls
//!    back to a full re-coloring of the new graph;
//! 5. legality is independently re-verified after every batch.  After a local repair the
//!    check covers the inserted edges and the edges at recolored vertices, which is
//!    exactly equivalent to a full check: the pre-batch coloring was legal and removals
//!    cannot create conflicts (debug builds assert the equivalence on every batch).  Full
//!    re-colorings and compactions keep the full O(n + m) scan.
//!
//! A batch that fails at any step leaves the graph and the coloring exactly as they were:
//! invalid edges are rejected before anything changes, and later errors undo the edit and
//! every journaled recoloring.  The journal of a successful call stays readable through
//! [`DynamicColoring::last_recolored`], which is what lets the service keep its epoch
//! history as per-epoch diffs.
//!
//! Deletions free palette slack without spending it: after edges vanish, the maintained
//! coloring may use far more colors than the shrunken maximum degree warrants.
//! [`DynamicColoring::compact`] re-tightens the palette with a deterministic greedy
//! descending-color sweep (every vertex ends at a color ≤ its degree, so the palette lands
//! within `Δ+1`) followed by a rank relabeling that removes holes; no vertex's color ever
//! increases.  [`DynamicColoring::with_auto_compact`] folds that sweep into `apply`
//! whenever a batch with removals leaves the palette looser than `Δ+1`.
//!
//! Every step is deterministic and runs on whatever executor the process-wide
//! [`ExecutorKind`](arbcolor_runtime::ExecutorKind) switch selects, so repair sequences are
//! bit-identical across the sequential, sharded, and reference simulators — experiment E20
//! asserts exactly that, and E25 replays mixed sustained-update workloads against the same
//! invariant.  When an [`obs`] collector is installed, every batch
//! decomposes into `dynamic-apply` / `csr-patch` (the adjacency edit) / repair phase spans
//! and feeds the `dynamic.*` metrics counters, including `dynamic.csr_builds`, one per CSR
//! materialization.
//!
//! ```
//! use arbcolor::dynamic::{DynamicColoring, GraphUpdate};
//! use arbcolor_graph::Graph;
//!
//! # fn main() -> Result<(), arbcolor::CoreError> {
//! let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)])?;
//! let mut dynamic = DynamicColoring::new(g)?;
//! let batch = dynamic.apply(&[
//!     GraphUpdate::InsertEdges(vec![(3, 4), (0, 4)]),
//!     GraphUpdate::RemoveEdges(vec![(1, 2)]),
//! ])?;
//! assert_eq!(batch.new_edges, 2);
//! assert_eq!(batch.removed_edges, 1);
//! assert!(dynamic.coloring().is_legal(dynamic.graph()));
//! let delta = dynamic.compact();
//! assert!(delta.colors_after <= delta.colors_before);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::CoreError;
use crate::ghaffari_kuhn::{ghaffari_kuhn_coloring, ghaffari_kuhn_list_coloring};
use crate::list_coloring::ColorLists;
use arbcolor_graph::{Color, Coloring, Graph, InducedSubgraph, MutableGraph, PaletteSet, Vertex};
use arbcolor_runtime::{obs, RoundReport};

/// One batched mutation of the maintained graph.
///
/// Batches are applied **in order** with last-write-wins semantics per edge: an edge
/// removed and later re-inserted in the same [`DynamicColoring::apply`] call ends up
/// present.  Inserting a present edge and removing an absent one are no-ops (they count
/// toward [`BatchOutcome::submitted_edges`] but not toward the new/removed tallies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the given undirected edges.  Endpoint order and duplicates are irrelevant.
    InsertEdges(Vec<(Vertex, Vertex)>),
    /// Remove the given undirected edges.  Endpoint order and duplicates are irrelevant.
    RemoveEdges(Vec<(Vertex, Vertex)>),
}

impl GraphUpdate {
    /// The edge list carried by this update.
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        match self {
            GraphUpdate::InsertEdges(edges) | GraphUpdate::RemoveEdges(edges) => edges,
        }
    }

    /// Whether this update inserts (rather than removes) its edges.
    pub fn is_insert(&self) -> bool {
        matches!(self, GraphUpdate::InsertEdges(_))
    }
}

/// How the driver decides between a frontier-local repair and a full re-coloring.
///
/// Selected explicitly via [`DynamicColoring::with_repair_policy`]; the default is
/// [`RepairPolicy::Auto`] with [`DynamicColoring::default_threshold`].  A batch whose
/// frontier is empty is always absorbed as [`RepairStrategy::NoConflict`], whatever the
/// policy says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Repair locally while the frontier has at most `frontier_threshold` vertices, fall
    /// back to a full re-coloring above it.
    Auto {
        /// Frontiers larger than this trigger a full re-coloring.
        frontier_threshold: usize,
    },
    /// Always repair the frontier locally, however large it grows.  The localized list
    /// instance always has greedy slack, so this is safe — just potentially slower than a
    /// full re-coloring once the frontier covers most of the graph.
    AlwaysLocal,
    /// Re-color the whole graph on every conflicting batch.
    AlwaysFull,
}

/// How a batch of mutations was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// No new edge was monochromatic; the old coloring is still legal.
    NoConflict,
    /// Only the conflict frontier was re-colored (list coloring on the induced subgraph).
    LocalRepair,
    /// The policy escalated; the whole graph was re-colored.
    FullRecolor,
}

/// The palette change produced by one [`DynamicColoring::compact`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionDelta {
    /// Distinct colors in use before the sweep.
    pub colors_before: usize,
    /// Distinct colors in use after the sweep (never more than `colors_before`).
    pub colors_after: usize,
    /// Vertices whose color changed during the sweep.
    pub recolored: usize,
}

/// Per-batch summary returned by [`DynamicColoring::apply`].
///
/// This is the stable observable surface of the dynamic driver: every field is
/// deterministic (bit-identical across executors and across replays of the same update
/// stream), so perf baselines and replay harnesses may diff outcomes directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Total edges submitted across the batch's updates, before de-duplication and
    /// overlay resolution.
    pub submitted_edges: usize,
    /// Distinct edges that were genuinely added to the graph.
    pub new_edges: usize,
    /// Distinct edges that were genuinely removed from the graph.
    pub removed_edges: usize,
    /// Vertices on the conflict frontier (incident to a newly monochromatic edge).
    pub frontier: usize,
    /// The vertices whose color changed during conflict repair, in ascending order.
    /// Compaction recolorings are reported separately in [`BatchOutcome::compaction`].
    pub repaired: Vec<Vertex>,
    /// The strategy the policy chose for this batch.
    pub strategy: RepairStrategy,
    /// The palette change of the auto-compaction sweep, when one ran (see
    /// [`DynamicColoring::with_auto_compact`]); `None` otherwise.
    pub compaction: Option<CompactionDelta>,
    /// Simulated LOCAL cost of the repair (zero for [`RepairStrategy::NoConflict`]).
    pub report: RoundReport,
}

impl BatchOutcome {
    /// Number of vertices whose color changed during conflict repair.
    pub fn repaired_vertices(&self) -> usize {
        self.repaired.len()
    }
}

/// A legal coloring maintained across batched edge insertions and removals.
#[derive(Debug, Clone)]
pub struct DynamicColoring {
    /// The maintained graph; every batch edits it in place.
    adjacency: MutableGraph,
    /// The CSR form of `adjacency`, built on first use by [`DynamicColoring::graph`] and
    /// dropped by every batch that changes an edge.
    csr: OnceLock<Graph>,
    coloring: Coloring,
    /// `(vertex, previous color)` for every color change of the last successful `apply`
    /// or `compact`, in the order the changes were made.
    recolored: Vec<(Vertex, Color)>,
    policy: RepairPolicy,
    auto_compact: bool,
}

/// What [`DynamicColoring::absorb`] hands back to `apply`: the repair result and the
/// auto-compaction delta.
type Absorbed = (Vec<Vertex>, RepairStrategy, RoundReport, Option<CompactionDelta>);

impl DynamicColoring {
    /// The default frontier threshold, as a fraction of `n`: above `n/4` frontier vertices
    /// the localized instance saves little over a full re-coloring.
    pub fn default_threshold(n: usize) -> usize {
        (n / 4).max(8)
    }

    /// Colors `graph` from scratch (Ghaffari–Kuhn `(deg+1)`-list coloring) and starts
    /// maintaining it.
    ///
    /// # Errors
    ///
    /// Propagates the initial coloring's errors.
    pub fn new(graph: Graph) -> Result<Self, CoreError> {
        let run = ghaffari_kuhn_coloring(&graph)?;
        Self::from_parts(graph, run.coloring)
    }

    /// Starts maintaining an existing coloring (e.g. one loaded alongside an ingested
    /// dataset).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvariantViolated`] if `coloring` is not legal on `graph`.
    pub fn from_parts(graph: Graph, coloring: Coloring) -> Result<Self, CoreError> {
        if !coloring.is_legal(&graph) {
            return Err(CoreError::InvariantViolated {
                reason: "dynamic driver seeded with an illegal coloring".to_string(),
            });
        }
        let policy = RepairPolicy::Auto { frontier_threshold: Self::default_threshold(graph.n()) };
        Ok(DynamicColoring {
            adjacency: MutableGraph::from_graph(&graph),
            csr: OnceLock::from(graph),
            coloring,
            recolored: Vec::new(),
            policy,
            auto_compact: false,
        })
    }

    /// Selects how conflicting batches are repaired (see [`RepairPolicy`]).
    #[must_use]
    pub fn with_repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active repair policy.
    pub fn repair_policy(&self) -> RepairPolicy {
        self.policy
    }

    /// Enables (or disables) automatic palette compaction: after any batch that removed
    /// edges and left the maximum color above the new maximum degree, `apply` runs a
    /// [`compact`](DynamicColoring::compact) sweep and reports its
    /// [`CompactionDelta`] in [`BatchOutcome::compaction`].
    #[must_use]
    pub fn with_auto_compact(mut self, enabled: bool) -> Self {
        self.auto_compact = enabled;
        self
    }

    /// The current graph in CSR form.
    ///
    /// Built on the first call after a batch changed an edge, in O(n + m), and cached
    /// until the next such batch; every build counts in the `dynamic.csr_builds` counter.
    /// The result equals `Graph::from_edges(n, edges).with_vertex_ids(ids)` over the
    /// current edge set and the identifiers of the starting graph.  Callers that need
    /// only sizes should use [`n`](DynamicColoring::n), [`m`](DynamicColoring::m) and
    /// [`max_degree`](DynamicColoring::max_degree), which never build.
    pub fn graph(&self) -> &Graph {
        self.csr.get_or_init(|| {
            obs::incr_counter("dynamic.csr_builds", 1);
            self.adjacency.to_graph()
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adjacency.n()
    }

    /// Number of edges of the current graph.
    pub fn m(&self) -> usize {
        self.adjacency.m()
    }

    /// Maximum degree of the current graph, in O(n).
    pub fn max_degree(&self) -> usize {
        self.adjacency.max_degree()
    }

    /// The maintained coloring (always legal on [`DynamicColoring::graph`]).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The color changes of the most recent successful [`apply`](DynamicColoring::apply)
    /// or [`compact`](DynamicColoring::compact), as `(vertex, previous color)` pairs in
    /// the order they were made: undoing them in reverse restores the coloring before that
    /// call.  A failed `apply` leaves this untouched, like the rest of the state.
    pub fn last_recolored(&self) -> &[(Vertex, Color)] {
        &self.recolored
    }

    /// The number of monochromatic edges, by a full O(n + m) scan of the current graph
    /// (0 whenever the maintained coloring is legal, which `apply` guarantees).
    pub fn conflicts(&self) -> usize {
        let colors = self.coloring.colors();
        self.adjacency.edges().filter(|&(u, v)| colors[u] == colors[v]).count()
    }

    /// Applies one batch of [`GraphUpdate`]s — mixed insertions and removals — and repairs
    /// the coloring.
    ///
    /// Updates resolve in order with last-write-wins semantics per edge; the net effect is
    /// edited into the adjacency in place, touching only the endpoints.  Removals never
    /// create conflicts, so only the genuinely new edges feed the conflict frontier.  The
    /// cost is O(batch + Σ deg(frontier)) unless the policy escalates to a full
    /// re-coloring.
    ///
    /// # Errors
    ///
    /// Returns the graph layer's typed errors for invalid edges (out-of-range endpoints,
    /// self-loops), propagates the repair coloring's errors, and returns
    /// [`CoreError::InvariantViolated`] if the post-repair legality check fails (which
    /// only a bug in this module can cause).  On every error the graph and the coloring
    /// are left exactly as they were.
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<BatchOutcome, CoreError> {
        let span = obs::phase("dynamic-apply");

        // Fold the batch into a last-write-wins overlay over canonical edges, validating
        // every submitted edge up front so invalid batches never touch the state.
        let mut submitted_edges = 0usize;
        let mut overlay: BTreeMap<(Vertex, Vertex), bool> = BTreeMap::new();
        for update in updates {
            for &(u, v) in update.edges() {
                submitted_edges += 1;
                let key = self.adjacency.canonical(u, v)?;
                overlay.insert(key, update.is_insert());
            }
        }

        // Resolve the overlay against the current graph into the net insert/remove sets.
        let mut to_insert: Vec<(Vertex, Vertex)> = Vec::new();
        let mut to_remove: Vec<(Vertex, Vertex)> = Vec::new();
        for (&(u, v), &present) in &overlay {
            match (present, self.adjacency.has_edge(u, v)) {
                (true, false) => to_insert.push((u, v)),
                (false, true) => to_remove.push((u, v)),
                _ => {}
            }
        }

        // The conflict frontier: endpoints of newly monochromatic edges.  Checking the new
        // edges (not the whole graph) is what makes small batches cheap; removals cannot
        // make a legal coloring illegal.
        let mut frontier: Vec<Vertex> = to_insert
            .iter()
            .filter(|&&(u, v)| self.coloring.color(u) == self.coloring.color(v))
            .flat_map(|&(u, v)| [u, v])
            .collect();
        frontier.sort_unstable();
        frontier.dedup();

        {
            let _patch = obs::phase("csr-patch");
            self.edit(&to_insert, &to_remove);
        }

        // From here on the state is changed; every recoloring is journaled so an error
        // can restore the coloring, and the edit is reversible because both sets are net.
        let mut journal = Vec::new();
        let absorbed = self.absorb(&to_insert, !to_remove.is_empty(), &frontier, &mut journal);
        let (repaired, strategy, report, compaction) = match absorbed {
            Ok(absorbed) => absorbed,
            Err(err) => {
                for &(v, old) in journal.iter().rev() {
                    self.coloring.set(v, old);
                }
                self.edit(&to_remove, &to_insert);
                return Err(err);
            }
        };
        span.charge(report);
        self.recolored = journal;

        let outcome = BatchOutcome {
            submitted_edges,
            new_edges: to_insert.len(),
            removed_edges: to_remove.len(),
            frontier: frontier.len(),
            repaired,
            strategy,
            compaction,
            report,
        };
        obs::incr_counter("dynamic.batches", 1);
        obs::incr_counter("dynamic.new_edges", outcome.new_edges as u64);
        obs::incr_counter("dynamic.removed_edges", outcome.removed_edges as u64);
        obs::incr_counter("dynamic.repaired", outcome.repaired.len() as u64);
        obs::observe_value("dynamic.frontier_per_batch", outcome.frontier as u64);
        Ok(outcome)
    }

    /// Edits the net `insert`/`remove` sets into the adjacency and drops the cached CSR.
    /// `edit(remove, insert)` undoes `edit(insert, remove)`.
    fn edit(&mut self, insert: &[(Vertex, Vertex)], remove: &[(Vertex, Vertex)]) {
        if insert.is_empty() && remove.is_empty() {
            return;
        }
        self.csr.take();
        self.adjacency.patch(insert, remove).expect("batch edges were validated up front");
    }

    /// Repairs the coloring after the edit, runs the auto-compaction sweep, and checks the
    /// post-condition.  Every color change is pushed to `journal` as
    /// `(vertex, previous color)` before the next fallible step.
    fn absorb(
        &mut self,
        inserted: &[(Vertex, Vertex)],
        removed_any: bool,
        frontier: &[Vertex],
        journal: &mut Vec<(Vertex, Color)>,
    ) -> Result<Absorbed, CoreError> {
        let escalate = match self.policy {
            RepairPolicy::Auto { frontier_threshold } => frontier.len() > frontier_threshold,
            RepairPolicy::AlwaysLocal => false,
            RepairPolicy::AlwaysFull => true,
        };
        let (repaired, strategy, report) = if frontier.is_empty() {
            (Vec::new(), RepairStrategy::NoConflict, RoundReport::zero())
        } else if escalate {
            let run = {
                let _full = obs::phase("full-recolor");
                ghaffari_kuhn_coloring(self.graph())?
            };
            let repaired: Vec<Vertex> = self
                .coloring
                .colors()
                .iter()
                .zip(run.coloring.colors())
                .enumerate()
                .filter(|(_, (old, new))| old != new)
                .map(|(v, _)| v)
                .collect();
            journal.extend(repaired.iter().map(|&v| (v, self.coloring.color(v))));
            self.coloring = run.coloring;
            #[cfg(test)]
            fault::trip(fault::Site::FullRecolor)?;
            (repaired, RepairStrategy::FullRecolor, run.report)
        } else {
            let _local = obs::phase("frontier-repair");
            let (repaired, report) = self.repair_frontier(frontier, journal)?;
            (repaired, RepairStrategy::LocalRepair, report)
        };

        let compaction = (self.auto_compact
            && removed_any
            && self.coloring.max_color() as usize > self.adjacency.max_degree())
        .then(|| self.compact_into(journal));

        // Independent post-condition.  The pre-batch coloring was legal and removals
        // cannot create conflicts, so after a local repair only the inserted edges and the
        // edges at recolored vertices can be monochromatic: checking those is exactly
        // equivalent to checking the whole graph.  Full re-colorings and compactions
        // recolor O(n) vertices anyway and keep the full scan.
        let legal = if strategy == RepairStrategy::FullRecolor || compaction.is_some() {
            self.conflicts() == 0
        } else {
            let colors = self.coloring.colors();
            inserted.iter().all(|&(u, v)| colors[u] != colors[v])
                && repaired
                    .iter()
                    .all(|&v| self.adjacency.neighbors(v).iter().all(|&u| colors[u] != colors[v]))
        };
        debug_assert_eq!(
            legal,
            self.coloring.is_legal(&self.adjacency.to_graph()),
            "the post-condition must agree with a full legality check"
        );
        #[cfg(test)]
        let legal = legal && fault::trip(fault::Site::PostCondition).is_ok();
        if !legal {
            return Err(CoreError::InvariantViolated {
                reason: format!("repair left {} monochromatic edges", self.conflicts()),
            });
        }
        Ok((repaired, strategy, report, compaction))
    }

    /// Re-tightens the palette after deletions freed slack: deterministic greedy sweeps
    /// in descending color order move every vertex to the smallest color its neighborhood
    /// permits (never a larger one) until a pass changes nothing, then a rank relabeling
    /// closes the remaining holes.  Idempotent: a second call is a no-op.
    ///
    /// Guarantees, unconditionally:
    ///
    /// * legality is preserved (each move avoids all current neighbor colors, and the
    ///   relabeling is injective);
    /// * no vertex's color increases, so the maximum color never grows;
    /// * after the sweep every vertex sits at a color ≤ its degree, so the palette ends
    ///   within `max_degree + 1` colors and is hole-free (`max_color == distinct - 1`).
    ///
    /// The sweep is centralized and executor-independent, so compaction is bit-identical
    /// across executors and replays by construction.
    pub fn compact(&mut self) -> CompactionDelta {
        let mut journal = Vec::new();
        let delta = self.compact_into(&mut journal);
        self.recolored = journal;
        delta
    }

    /// [`compact`](DynamicColoring::compact), journaling each vertex whose color changed
    /// as `(vertex, color before the sweep)`.
    fn compact_into(&mut self, journal: &mut Vec<(Vertex, Color)>) -> CompactionDelta {
        let _span = obs::phase("compaction");
        let colors_before = self.coloring.distinct_colors();
        let initial = self.coloring.colors().to_vec();
        let n = self.adjacency.n();

        // Sweep to a fixpoint: descending current color, ties by ascending vertex index,
        // so the loosest vertices move first, into the slack the tight ones never
        // occupied.  Each improving pass strictly decreases the (integer) sum of colors,
        // so the loop terminates; in practice two or three passes suffice.
        let mut palette = PaletteSet::new(self.adjacency.max_degree() as u64 + 1);
        loop {
            let mut order: Vec<Vertex> = (0..n).collect();
            order.sort_unstable_by_key(|&v| (std::cmp::Reverse(self.coloring.color(v)), v));
            let mut moved = false;
            for &v in &order {
                palette.clear();
                for &u in self.adjacency.neighbors(v) {
                    palette.strike(self.coloring.color(u));
                }
                let free = palette
                    .first_unstruck()
                    .expect("deg(v) neighbors cannot strike all deg(v)+1 candidates");
                if free < self.coloring.color(v) {
                    self.coloring.set(v, free);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        // Close the holes: relabel each used color by its rank.  rank(c) ≤ c, so this is
        // still a per-vertex weak decrease, and injectivity preserves legality.
        let max = self.coloring.max_color() as usize;
        let mut used = vec![false; max + 1];
        for &c in self.coloring.colors() {
            used[c as usize] = true;
        }
        let mut rank = vec![0 as Color; max + 1];
        let mut next = 0 as Color;
        for (c, &in_use) in used.iter().enumerate() {
            rank[c] = next;
            if in_use {
                next += 1;
            }
        }
        let mut recolored = 0usize;
        for (v, &old) in initial.iter().enumerate() {
            let relabeled = rank[self.coloring.color(v) as usize];
            if relabeled != self.coloring.color(v) {
                self.coloring.set(v, relabeled);
            }
            if relabeled != old {
                journal.push((v, old));
                recolored += 1;
            }
        }

        let delta = CompactionDelta {
            colors_before,
            colors_after: self.coloring.distinct_colors(),
            recolored,
        };
        obs::incr_counter("dynamic.compactions", 1);
        obs::incr_counter("dynamic.compaction_recolored", recolored as u64);
        delta
    }

    /// The local repair instance on the (ascending) `frontier`: its induced subgraph,
    /// read straight off the adjacency, and per-vertex lists compatible with every
    /// non-frontier neighbor.
    fn repair_instance(
        &self,
        frontier: &[Vertex],
    ) -> Result<(InducedSubgraph, ColorLists), CoreError> {
        let sub = self.adjacency.induced_subgraph(frontier);
        let lists: Vec<Vec<Color>> = frontier
            .iter()
            .map(|&v| {
                // {0, …, deg(v)} minus the colors of v's neighbors outside the frontier.
                // At most deg(v) − deg_sub(v) removals hit the base list, so at least
                // deg_sub(v) + 1 colors survive: the instance always has greedy slack.
                let neighbors = self.adjacency.neighbors(v);
                let mut list: Vec<Color> = (0..=neighbors.len() as Color).collect();
                let blocked: Vec<Color> = neighbors
                    .iter()
                    .filter(|&&u| sub.map.to_child(u).is_none())
                    .map(|&u| self.coloring.color(u))
                    .collect();
                list.retain(|c| !blocked.contains(c));
                list
            })
            .collect();
        let instance = ColorLists::new(&sub.graph, lists)?;
        Ok((sub, instance))
    }

    /// Re-colors the induced subgraph on `frontier` with a list-coloring instance that is
    /// compatible with every non-frontier neighbor.  Returns the ascending list of
    /// vertices that changed color and the simulated cost; each change is journaled.
    fn repair_frontier(
        &mut self,
        frontier: &[Vertex],
        journal: &mut Vec<(Vertex, Color)>,
    ) -> Result<(Vec<Vertex>, RoundReport), CoreError> {
        let (sub, instance) = self.repair_instance(frontier)?;
        let run = ghaffari_kuhn_list_coloring(&sub.graph, &instance)?;
        let mut repaired = Vec::new();
        for (child, &parent) in frontier.iter().enumerate() {
            let new_color = run.coloring.color(child);
            let old_color = self.coloring.color(parent);
            if old_color != new_color {
                journal.push((parent, old_color));
                self.coloring.set(parent, new_color);
                repaired.push(parent);
            }
        }
        #[cfg(test)]
        fault::trip(fault::Site::Repair)?;
        Ok((repaired, run.report))
    }
}

/// A test-only switch that makes one error path of `apply` fire, so the tests can check
/// that every failure leaves the state as it was.
#[cfg(test)]
mod fault {
    use std::cell::Cell;

    use crate::error::CoreError;

    /// A point in `apply` where an error can surface after the adjacency was edited.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Site {
        /// The local repair's list coloring.
        Repair,
        /// The full re-coloring.
        FullRecolor,
        /// The legality post-condition.
        PostCondition,
    }

    thread_local! {
        static ARMED: Cell<Option<Site>> = const { Cell::new(None) };
    }

    /// Makes the next pass through `site` on this thread fail.
    pub(super) fn arm(site: Site) {
        ARMED.with(|armed| armed.set(Some(site)));
    }

    /// Fails, once, if `site` is armed.
    pub(super) fn trip(site: Site) -> Result<(), CoreError> {
        if ARMED.with(|armed| armed.get()) != Some(site) {
            return Ok(());
        }
        ARMED.with(|armed| armed.set(None));
        Err(CoreError::InvariantViolated { reason: format!("injected fault at {site:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor_graph::generators;

    #[test]
    fn no_conflict_batches_change_nothing() {
        let g = generators::cycle(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let before = dynamic.coloring().clone();
        // Chords between vertices the cycle coloring already separates.
        let batch: Vec<(Vertex, Vertex)> = (0..4)
            .flat_map(|i| [(i, i + 3)])
            .filter(|&(u, v)| dynamic.coloring().color(u) != dynamic.coloring().color(v))
            .collect();
        assert!(!batch.is_empty());
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::NoConflict);
        assert_eq!(outcome.repaired_vertices(), 0);
        assert_eq!(dynamic.coloring(), &before);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn local_repair_touches_only_the_frontier() {
        let g = generators::union_of_random_forests(400, 3, 11).unwrap().with_shuffled_ids(5);
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let before = dynamic.coloring().clone();
        // Force conflicts: connect same-colored vertices.
        let colors = dynamic.coloring().colors().to_vec();
        let mut batch = Vec::new();
        for v in 1..dynamic.graph().n() {
            if batch.len() >= 6 {
                break;
            }
            if colors[v] == colors[0] && !dynamic.graph().has_edge(0, v) {
                batch.push((0usize, v));
            }
        }
        assert!(!batch.is_empty(), "no same-colored pair found");
        let batch_len = batch.len();
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::LocalRepair);
        assert!(outcome.frontier <= 2 * batch_len);
        assert!(outcome.repaired_vertices() >= 1);
        assert!(outcome.repaired_vertices() <= outcome.frontier);
        // The repaired set is exactly the vertices whose color changed.
        let changed: Vec<Vertex> = dynamic
            .coloring()
            .colors()
            .iter()
            .zip(before.colors())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(v, _)| v)
            .collect();
        assert_eq!(outcome.repaired, changed);
        assert!(changed.len() <= outcome.frontier);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn the_auto_policy_escalates_oversized_frontiers() {
        let g = generators::path(40).unwrap();
        let mut dynamic = DynamicColoring::new(g)
            .unwrap()
            .with_repair_policy(RepairPolicy::Auto { frontier_threshold: 1 });
        let colors = dynamic.coloring().colors().to_vec();
        let mut batch = Vec::new();
        for u in 0..dynamic.graph().n() {
            for v in (u + 1)..dynamic.graph().n() {
                if colors[u] == colors[v] && !dynamic.graph().has_edge(u, v) && batch.len() < 4 {
                    batch.push((u, v));
                }
            }
        }
        assert!(batch.len() >= 2);
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::FullRecolor);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn explicit_policies_override_the_threshold() {
        let build_batch = |dynamic: &DynamicColoring| {
            let colors = dynamic.coloring().colors().to_vec();
            let mut batch = Vec::new();
            for u in 0..dynamic.graph().n() {
                for v in (u + 1)..dynamic.graph().n() {
                    if colors[u] == colors[v] && !dynamic.graph().has_edge(u, v) && batch.len() < 4
                    {
                        batch.push((u, v));
                    }
                }
            }
            batch
        };

        let g = generators::path(40).unwrap();
        let mut local =
            DynamicColoring::new(g.clone()).unwrap().with_repair_policy(RepairPolicy::AlwaysLocal);
        let batch = build_batch(&local);
        assert!(batch.len() >= 2);
        let outcome = local.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::LocalRepair);
        assert!(local.coloring().is_legal(local.graph()));

        let mut full =
            DynamicColoring::new(g).unwrap().with_repair_policy(RepairPolicy::AlwaysFull);
        let batch = build_batch(&full);
        let outcome = full.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::FullRecolor);
        assert!(full.coloring().is_legal(full.graph()));
    }

    #[test]
    fn removals_never_conflict_and_are_counted() {
        let g = generators::complete(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let outcome =
            dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 1), (2, 3), (0, 1)])]).unwrap();
        assert_eq!(outcome.strategy, RepairStrategy::NoConflict);
        assert_eq!(outcome.submitted_edges, 3);
        assert_eq!(outcome.removed_edges, 2);
        assert_eq!(outcome.new_edges, 0);
        assert_eq!(dynamic.graph().m(), 13);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
        // Removing an absent edge is a no-op, not an error.
        let outcome = dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 1)])]).unwrap();
        assert_eq!(outcome.removed_edges, 0);
    }

    #[test]
    fn updates_resolve_in_order_with_last_write_wins() {
        let g = generators::cycle(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let outcome = dynamic
            .apply(&[
                GraphUpdate::InsertEdges(vec![(0, 2)]),
                GraphUpdate::RemoveEdges(vec![(0, 2), (3, 4)]),
                GraphUpdate::InsertEdges(vec![(3, 4)]),
            ])
            .unwrap();
        // (0, 2) inserted then removed: net nothing.  (3, 4) removed then re-inserted:
        // net nothing.  The graph is unchanged.
        assert_eq!(outcome.new_edges, 0);
        assert_eq!(outcome.removed_edges, 0);
        assert_eq!(dynamic.graph().m(), 6);
        assert!(dynamic.graph().has_edge(3, 4));
        assert!(!dynamic.graph().has_edge(0, 2));
    }

    #[test]
    fn compaction_reclaims_slack_after_deletions() {
        // A clique forces 8 colors; deleting most of it leaves a sparse graph that needs
        // far fewer.
        let g = generators::complete(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        assert_eq!(dynamic.coloring().distinct_colors(), 8);
        let doomed: Vec<(Vertex, Vertex)> = dynamic
            .graph()
            .edges()
            .iter()
            .copied()
            .filter(|&(u, v)| v != u + 1) // keep the path 0-1-2-…-7
            .collect();
        dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
        assert_eq!(dynamic.coloring().distinct_colors(), 8, "deletions alone free no colors");
        let delta = dynamic.compact();
        assert_eq!(delta.colors_before, 8);
        assert!(delta.colors_after <= dynamic.graph().max_degree() + 1);
        assert_eq!(delta.colors_after, dynamic.coloring().distinct_colors());
        // Hole-free palette: max color == distinct - 1.
        assert_eq!(dynamic.coloring().max_color() as usize + 1, delta.colors_after);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn compaction_never_increases_colors_or_any_vertex() {
        for seed in 0..4u64 {
            for (family, g) in arbcolor_graph::generators::seeded_suite(48, seed) {
                let mut dynamic = DynamicColoring::new(g).unwrap();
                // Delete every third edge to open slack, then compact repeatedly.
                let doomed: Vec<(Vertex, Vertex)> =
                    dynamic.graph().edges().iter().copied().step_by(3).collect();
                dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
                let before_colors = dynamic.coloring().colors().to_vec();
                let before_distinct = dynamic.coloring().distinct_colors();
                let delta = dynamic.compact();
                assert!(
                    delta.colors_after <= before_distinct,
                    "distinct colors grew on {family} (seed {seed})"
                );
                assert!(
                    dynamic
                        .coloring()
                        .colors()
                        .iter()
                        .zip(&before_colors)
                        .all(|(after, before)| after <= before),
                    "a vertex color grew on {family} (seed {seed})"
                );
                assert!(delta.colors_after <= dynamic.graph().max_degree() + 1);
                assert!(dynamic.coloring().is_legal(dynamic.graph()));
                // Idempotence: a second sweep has nothing left to reclaim.
                let again = dynamic.compact();
                assert_eq!(again.colors_after, delta.colors_after);
            }
        }
    }

    #[test]
    fn auto_compact_rides_along_with_deletion_batches() {
        let g = generators::complete(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap().with_auto_compact(true);
        let doomed: Vec<(Vertex, Vertex)> =
            dynamic.graph().edges().iter().copied().filter(|&(u, v)| v != u + 1).collect();
        let outcome = dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
        let delta = outcome.compaction.expect("deletions freed slack, so a sweep must run");
        assert!(delta.colors_after < delta.colors_before);
        assert!(dynamic.coloring().distinct_colors() <= dynamic.graph().max_degree() + 1);
        // Insert-only batches never auto-compact.
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(vec![(0, 2)])]).unwrap();
        assert!(outcome.compaction.is_none());
    }

    #[test]
    fn invalid_batches_surface_typed_errors() {
        let g = generators::cycle(6).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        assert!(dynamic.apply(&[GraphUpdate::InsertEdges(vec![(0, 99)])]).is_err());
        assert!(dynamic.apply(&[GraphUpdate::InsertEdges(vec![(2, 2)])]).is_err());
        // Invalid removals are rejected up front too, even for absent edges.
        assert!(dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(0, 99)])]).is_err());
        assert!(dynamic.apply(&[GraphUpdate::RemoveEdges(vec![(3, 3)])]).is_err());
        // The failed batches left the state untouched and legal.
        assert_eq!(dynamic.graph().n(), 6);
        assert_eq!(dynamic.graph().m(), 6);
        assert!(dynamic.coloring().is_legal(dynamic.graph()));
    }

    #[test]
    fn identifiers_survive_rebuilds() {
        let g = generators::cycle(10).unwrap().with_shuffled_ids(3);
        let ids = g.ids().to_vec();
        let mut dynamic = DynamicColoring::new(g).unwrap();
        dynamic
            .apply(&[
                GraphUpdate::InsertEdges(vec![(0, 5)]),
                GraphUpdate::RemoveEdges(vec![(1, 2)]),
            ])
            .unwrap();
        assert_eq!(dynamic.graph().ids(), &ids[..]);
    }

    /// Up to `limit` absent edges between same-colored vertices: a batch that must conflict.
    fn conflicting_edges(dynamic: &DynamicColoring, limit: usize) -> Vec<(Vertex, Vertex)> {
        let colors = dynamic.coloring().colors();
        let mut batch = Vec::new();
        for u in 0..dynamic.n() {
            for v in (u + 1)..dynamic.n() {
                if batch.len() < limit && colors[u] == colors[v] && !dynamic.graph().has_edge(u, v)
                {
                    batch.push((u, v));
                }
            }
        }
        batch
    }

    #[test]
    fn every_failed_apply_leaves_the_state_untouched() {
        let g = generators::union_of_random_forests(120, 3, 4).unwrap().with_shuffled_ids(2);
        let cases = [
            (fault::Site::Repair, RepairPolicy::AlwaysLocal, false),
            (fault::Site::FullRecolor, RepairPolicy::AlwaysFull, false),
            (fault::Site::PostCondition, RepairPolicy::AlwaysLocal, false),
            (fault::Site::PostCondition, RepairPolicy::AlwaysFull, false),
            // Removals with a loose palette: the batch also runs (and must undo) a sweep.
            (fault::Site::PostCondition, RepairPolicy::AlwaysLocal, true),
        ];
        for (site, policy, auto_compact) in cases {
            let mut dynamic = DynamicColoring::new(g.clone())
                .unwrap()
                .with_repair_policy(policy)
                .with_auto_compact(auto_compact);
            // One successful batch first, so there is a journal to preserve.
            let warmup = conflicting_edges(&dynamic, 2);
            dynamic.apply(&[GraphUpdate::InsertEdges(warmup)]).unwrap();
            if auto_compact {
                // Lift one vertex far above Δ + 1 so a removal batch must compact.
                let v = (0..dynamic.n()).find(|&v| dynamic.adjacency.degree(v) > 0).unwrap();
                dynamic.coloring.set(v, 10_000);
            }
            let graph = dynamic.graph().clone();
            let coloring = dynamic.coloring().clone();
            let journal = dynamic.last_recolored().to_vec();
            let mut batch = vec![GraphUpdate::InsertEdges(conflicting_edges(&dynamic, 3))];
            batch.push(GraphUpdate::RemoveEdges(graph.edges()[..4].to_vec()));
            fault::arm(site);
            let err = dynamic.apply(&batch).unwrap_err();
            assert!(matches!(err, CoreError::InvariantViolated { .. }), "{site:?}: {err}");
            assert_eq!(dynamic.graph(), &graph, "{site:?}: graph changed");
            assert_eq!(dynamic.coloring(), &coloring, "{site:?}: coloring changed");
            assert_eq!(dynamic.m(), graph.m(), "{site:?}: m changed");
            assert_eq!(dynamic.last_recolored(), &journal[..], "{site:?}: journal changed");
            // The same batch goes through once the fault is gone.
            let outcome = dynamic.apply(&batch).unwrap();
            assert_eq!(outcome.compaction.is_some(), auto_compact, "{site:?}");
            assert!(dynamic.coloring().is_legal(dynamic.graph()));
        }
    }

    #[test]
    fn the_repair_instance_matches_the_induced_subgraph_of_the_materialized_graph() {
        let g = generators::union_of_random_forests(300, 3, 8).unwrap().with_shuffled_ids(1);
        let mut dynamic = DynamicColoring::new(g).unwrap();
        let batch = conflicting_edges(&dynamic, 8);
        dynamic
            .apply(&[
                GraphUpdate::InsertEdges(batch.clone()),
                GraphUpdate::RemoveEdges(dynamic.graph().edges()[..5].to_vec()),
            ])
            .unwrap();
        let mut frontier: Vec<Vertex> = batch.iter().flat_map(|&(u, v)| [u, v]).collect();
        frontier.sort_unstable();
        frontier.dedup();
        let graph = dynamic.graph();
        let (sub, instance) = dynamic.repair_instance(&frontier).unwrap();
        let reference = InducedSubgraph::new(graph, &frontier);
        assert_eq!(sub.graph, reference.graph);
        assert_eq!(sub.map, reference.map);
        for (child, &v) in frontier.iter().enumerate() {
            let blocked: Vec<Color> = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| reference.map.to_child(u).is_none())
                .map(|&u| dynamic.coloring().color(u))
                .collect();
            let list: Vec<Color> =
                (0..=graph.degree(v) as Color).filter(|c| !blocked.contains(c)).collect();
            assert_eq!(instance.list(child), &list[..], "list of frontier vertex {v}");
        }
    }

    #[test]
    fn undoing_the_journal_restores_the_previous_coloring() {
        let g = generators::complete(8).unwrap();
        let mut dynamic = DynamicColoring::new(g).unwrap().with_auto_compact(true);
        let check = |dynamic: &DynamicColoring, before: &[Color]| {
            let mut colors = dynamic.coloring().colors().to_vec();
            for &(v, old) in dynamic.last_recolored().iter().rev() {
                colors[v] = old;
            }
            assert_eq!(colors, before);
        };
        // Deletions that auto-compact, a conflicting insertion, then an explicit sweep.
        let before = dynamic.coloring().colors().to_vec();
        let doomed: Vec<(Vertex, Vertex)> =
            dynamic.graph().edges().iter().copied().filter(|&(u, v)| v != u + 1).collect();
        let outcome = dynamic.apply(&[GraphUpdate::RemoveEdges(doomed)]).unwrap();
        assert!(outcome.compaction.is_some());
        assert!(!dynamic.last_recolored().is_empty());
        check(&dynamic, &before);
        let before = dynamic.coloring().colors().to_vec();
        let batch = conflicting_edges(&dynamic, 3);
        let outcome = dynamic.apply(&[GraphUpdate::InsertEdges(batch)]).unwrap();
        assert_eq!(dynamic.last_recolored().len(), outcome.repaired.len());
        check(&dynamic, &before);
        let before = dynamic.coloring().colors().to_vec();
        dynamic.compact();
        check(&dynamic, &before);
    }

    #[test]
    fn seeding_with_an_illegal_coloring_is_rejected() {
        let g = generators::cycle(4).unwrap();
        let illegal = Coloring::constant(&g);
        assert!(DynamicColoring::from_parts(g, illegal).is_err());
    }
}
