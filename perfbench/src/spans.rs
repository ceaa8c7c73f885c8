//! Self-time arithmetic over a recorded span tree.
//!
//! A span's self time is its wall time minus the wall time of its direct children.
//! Spans nest (the collector records them in open order, parents first), so the self
//! times of a span and all its descendants add up to the span's wall time; the
//! residual of that sum is reported as a check on the tree.  It is nonzero only where
//! children overrun their parent (their self time is clamped at 0): time no child
//! accounts for is the parent's self time, not a residual.

use arbcolor_runtime::{SpanKind, SpanRecord};

/// A recorded span tree with per-span self times.
pub struct Tree {
    spans: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
    self_ns: Vec<u64>,
    /// Sum of the self times of each span's subtree.
    subtree_self_ns: Vec<u64>,
}

impl Tree {
    /// Indexes `spans` (as returned by `SpanCollector::snapshot`).
    pub fn new(spans: Vec<SpanRecord>) -> Tree {
        let mut children = vec![Vec::new(); spans.len()];
        let mut child_ns = vec![0u64; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
                child_ns[parent] += span.wall_ns;
            }
        }
        let self_ns: Vec<u64> =
            spans.iter().zip(&child_ns).map(|(s, &c)| s.wall_ns.saturating_sub(c)).collect();
        // Parents precede their children, so one reverse pass folds every subtree.
        let mut subtree_self_ns = self_ns.clone();
        for i in (0..spans.len()).rev() {
            if let Some(parent) = spans[i].parent {
                subtree_self_ns[parent] += subtree_self_ns[i];
            }
        }
        Tree { spans, children, self_ns, subtree_self_ns }
    }

    /// All spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of span `i`, in nanoseconds.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.self_ns[i]
    }

    /// Indices of the spans without a parent (the benchmark's own wrapper spans).
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none())
    }

    /// Roots named `name`.
    pub fn roots_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.roots().filter(move |&i| self.spans[i].name == name)
    }

    /// Direct children of `parent` named `name`.
    pub fn children<'a>(
        &'a self,
        parent: usize,
        name: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        self.children[parent].iter().copied().filter(move |&i| self.spans[i].name == name)
    }

    /// Total wall time of the direct children of `parent` named `name`, in nanoseconds.
    pub fn child_wall(&self, parent: usize, name: &str) -> u64 {
        self.children(parent, name).map(|i| self.spans[i].wall_ns).sum()
    }

    /// Largest `|Σ self − wall| / wall` over the subtrees of all roots: 0 for a
    /// well-nested tree.
    pub fn worst_self_sum_error(&self) -> f64 {
        self.roots()
            .filter(|&r| self.spans[r].wall_ns > 0)
            .map(|r| {
                let wall = self.spans[r].wall_ns as f64;
                (self.subtree_self_ns[r] as f64 - wall).abs() / wall
            })
            .fold(0.0, f64::max)
    }

    /// Total self time, in nanoseconds, of the spans satisfying `pick`.
    pub fn self_total(&self, pick: impl Fn(&SpanRecord) -> bool) -> u64 {
        (0..self.spans.len()).filter(|&i| pick(&self.spans[i])).map(|i| self.self_ns[i]).sum()
    }

    /// Total wall time of the executor-run spans, and how many there are.
    pub fn exec_total(&self) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Exec)
            .fold((0, 0), |(ns, runs), s| (ns + s.wall_ns, runs + 1))
    }

    /// Indices of the spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Wall times (ns) of the spans named `name`.
    pub fn walls(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|i| self.spans[i].wall_ns).collect()
    }
}
