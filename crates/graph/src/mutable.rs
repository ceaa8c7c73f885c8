//! A graph that changes an edge at a time.
//!
//! [`Graph`] is an immutable CSR: changing one edge means rebuilding every array, O(n + m).
//! [`MutableGraph`] keeps one sorted neighbor list per vertex instead, so an edge edit
//! touches only its two endpoints, and it hands out the CSR form on demand through
//! [`MutableGraph::to_graph`].  `arbcolor::dynamic` keeps its graph in this form and
//! builds a CSR only when a caller needs one.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, Vertex};
use crate::subgraph::{InducedSubgraph, VertexMap};

/// An undirected simple graph stored as per-vertex sorted neighbor lists, with the
/// LOCAL-model identifiers of the [`Graph`] it was made from.
///
/// Inserting or removing an edge costs O(deg) at its two endpoints; [`has_edge`] is a
/// binary search.  [`to_graph`] is bit-identical to
/// `Graph::from_edges(n, edges).with_vertex_ids(ids)` over the current edge set.
///
/// [`has_edge`]: MutableGraph::has_edge
/// [`to_graph`]: MutableGraph::to_graph
///
/// ```
/// use arbcolor_graph::{Graph, MutableGraph};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let mut h = MutableGraph::from_graph(&g);
/// assert!(h.insert_edge(3, 0)?);
/// assert!(h.remove_edge(1, 2)?);
/// assert!(!h.remove_edge(1, 2)?); // already gone: a no-op
/// assert_eq!(h.to_graph(), Graph::from_edges(4, [(0, 1), (0, 3), (2, 3)])?);
/// # Ok::<(), arbcolor_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutableGraph {
    /// `neighbors[v]` is strictly ascending, like a CSR row.
    neighbors: Vec<Vec<Vertex>>,
    m: usize,
    ids: Vec<u64>,
}

impl MutableGraph {
    /// Copies the adjacency and identifiers of `graph`, in O(n + m).
    pub fn from_graph(graph: &Graph) -> Self {
        MutableGraph {
            neighbors: graph.vertices().map(|v| graph.neighbors(v).to_vec()).collect(),
            m: graph.m(),
            ids: graph.ids().to_vec(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.neighbors[v].len()
    }

    /// Maximum degree `Δ` (0 for the empty graph), in O(n).
    pub fn max_degree(&self) -> usize {
        self.neighbors.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The neighbors of `v` in ascending order (the port order of [`to_graph`]).
    ///
    /// [`to_graph`]: MutableGraph::to_graph
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.neighbors[v]
    }

    /// Whether `{u, v}` is an edge; false for out-of-range endpoints.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u >= self.n() || v >= self.n() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors[a].binary_search(&b).is_ok()
    }

    /// All vertex identifiers, indexed by vertex.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The edges in canonical order: ascending `(u, v)` pairs with `u < v`, the order of
    /// [`Graph::edges`].
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.neighbors.iter().enumerate().flat_map(|(u, list)| {
            list[list.partition_point(|&v| v < u)..].iter().map(move |&v| (u, v))
        })
    }

    /// Validates the edge `{u, v}` and returns it as `(min, max)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn canonical(&self, u: Vertex, v: Vertex) -> Result<(Vertex, Vertex), GraphError> {
        let n = self.n();
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok(if u < v { (u, v) } else { (v, u) })
    }

    /// Inserts the edge `{u, v}`; returns whether it was absent (inserting a present edge
    /// is a no-op).
    ///
    /// # Errors
    ///
    /// Returns the [`canonical`](MutableGraph::canonical) errors; the graph is untouched.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        let (a, b) = self.canonical(u, v)?;
        Ok(self.link(a, b))
    }

    /// Removes the edge `{u, v}`; returns whether it was present (removing an absent edge
    /// is a no-op).
    ///
    /// # Errors
    ///
    /// Returns the [`canonical`](MutableGraph::canonical) errors; the graph is untouched.
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        let (a, b) = self.canonical(u, v)?;
        Ok(self.unlink(a, b))
    }

    /// Inserts the canonical edge `(a, b)`, `a < b < n`; returns whether it was absent.
    fn link(&mut self, a: Vertex, b: Vertex) -> bool {
        let Err(at) = self.neighbors[a].binary_search(&b) else { return false };
        self.neighbors[a].insert(at, b);
        let at = self.neighbors[b].binary_search(&a).expect_err("adjacency is symmetric");
        self.neighbors[b].insert(at, a);
        self.m += 1;
        true
    }

    /// Removes the canonical edge `(a, b)`, `a < b < n`; returns whether it was present.
    fn unlink(&mut self, a: Vertex, b: Vertex) -> bool {
        let Ok(at) = self.neighbors[a].binary_search(&b) else { return false };
        self.neighbors[a].remove(at);
        let at = self.neighbors[b].binary_search(&a).expect("adjacency is symmetric");
        self.neighbors[b].remove(at);
        self.m -= 1;
        true
    }

    /// Applies a batch: takes out `remove`, then adds `insert`, in O(Σ deg) over the
    /// endpoints.  Removing an absent edge and inserting a present one are no-ops; an edge
    /// named in both lists ends up present.
    ///
    /// # Errors
    ///
    /// Returns the [`canonical`](MutableGraph::canonical) error of the first invalid edge
    /// in either list; every edge is checked before any changes, so the graph is untouched
    /// on error.
    ///
    /// ```
    /// use arbcolor_graph::{Graph, MutableGraph};
    /// let mut g = MutableGraph::from_graph(&Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?);
    /// g.patch(&[(0, 3)], &[(1, 2)])?;
    /// assert_eq!(g.m(), 3);
    /// assert!(g.has_edge(0, 3) && !g.has_edge(1, 2));
    /// # Ok::<(), arbcolor_graph::GraphError>(())
    /// ```
    pub fn patch(
        &mut self,
        insert: &[(Vertex, Vertex)],
        remove: &[(Vertex, Vertex)],
    ) -> Result<(), GraphError> {
        let canonical = |edges: &[(Vertex, Vertex)]| -> Result<Vec<_>, GraphError> {
            edges.iter().map(|&(u, v)| self.canonical(u, v)).collect()
        };
        let (insert, remove) = (canonical(insert)?, canonical(remove)?);
        for (a, b) in remove {
            self.unlink(a, b);
        }
        for (a, b) in insert {
            self.link(a, b);
        }
        Ok(())
    }

    /// Builds the CSR form, in O(n + m).  The result equals
    /// `Graph::from_edges(n, edges).with_vertex_ids(ids)` field for field: both assemble
    /// the arrays from the same sorted canonical edge list.
    pub fn to_graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        edges.extend(self.edges());
        let mut graph = Graph::from_sorted_edges(self.n(), edges);
        graph.set_ids(self.ids.clone());
        graph
    }

    /// The subgraph induced by `vertices`, which must be strictly ascending.  Equal to
    /// `InducedSubgraph::new(&self.to_graph(), vertices)`, but costs
    /// O(Σ deg · log |vertices|) with no n-sized table.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is not strictly ascending or holds an out-of-range vertex.
    pub fn induced_subgraph(&self, vertices: &[Vertex]) -> InducedSubgraph {
        assert!(vertices.windows(2).all(|w| w[0] < w[1]), "vertices must be strictly ascending");
        let mut builder = GraphBuilder::new(vertices.len());
        for (child_u, &parent_u) in vertices.iter().enumerate() {
            for &parent_v in self.neighbors(parent_u) {
                if let Ok(child_v) = vertices.binary_search(&parent_v) {
                    if child_u < child_v {
                        builder
                            .add_edge(child_u, child_v)
                            .expect("endpoints are valid by construction");
                    }
                }
            }
        }
        let mut graph = builder.build();
        graph.set_ids(vertices.iter().map(|&p| self.ids[p]).collect());
        InducedSubgraph { graph, map: VertexMap::from_ordered(vertices.to_vec()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edits_keep_lists_sorted_and_count_edges() {
        let g = Graph::from_edges(5, [(0, 4), (0, 1)]).unwrap();
        let mut h = MutableGraph::from_graph(&g);
        assert!(h.insert_edge(2, 0).unwrap());
        assert!(h.insert_edge(3, 0).unwrap());
        assert!(!h.insert_edge(0, 3).unwrap());
        assert_eq!(h.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(h.m(), 4);
        assert_eq!(h.max_degree(), 4);
        assert!(h.remove_edge(4, 0).unwrap());
        assert_eq!(h.neighbors(0), &[1, 2, 3]);
        assert!(h.neighbors(4).is_empty());
        assert_eq!(h.m(), 3);
        assert!(h.has_edge(3, 0) && !h.has_edge(0, 4) && !h.has_edge(0, 9));
        assert_eq!(h.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn induced_subgraphs_match_the_csr_construction() {
        let g = generators::gnp(60, 0.12, 4).unwrap().with_shuffled_ids(9);
        let h = MutableGraph::from_graph(&g);
        for vertices in [vec![], vec![7], vec![0, 3, 9, 10, 22, 41, 59], (0..60).collect()] {
            let fast = h.induced_subgraph(&vertices);
            let slow = InducedSubgraph::new(&g, &vertices);
            assert_eq!(fast.graph, slow.graph);
            assert_eq!(fast.map, slow.map);
        }
    }
}
