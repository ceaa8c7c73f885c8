//! Executor selection and the thread pool of the parallel phase drivers.
//!
//! * [`ExecutorKind`] — a value describing which executor configuration to use, plus a
//!   process-wide default ([`set_default_executor`]/[`default_executor`]) consulted by
//!   [`run_algorithm`], the entry point the algorithm drivers across the workspace go
//!   through.  Flipping the default reconfigures the whole stack.  `Sequential` and
//!   `Sharded` are the same [`Executor`] at one or more threads (see
//!   [`network`](crate::network) for why every thread count and chunk size gives
//!   bit-identical results); `Reference` is the [`ReferenceExecutor`] oracle.
//! * The process-wide chunk size and sequential cutoff new executors start from
//!   ([`set_default_chunk_size`], [`set_default_sequential_cutoff`]).
//! * [`WorkPool`] — a hand-rolled fixed-size work pool built from scoped `std::thread`s only
//!   (the build environment has no registry access, so no rayon).  [`WorkPool::map`] is a
//!   fork/join batch whose results come back in item order; the executor steps multi-chunk
//!   rounds on it, and the phase drivers color disjoint subgraphs on it.
//!
//! # Example
//!
//! ```
//! use arbcolor_graph::generators;
//! use arbcolor_runtime::{algorithms::FloodMaxId, ExecutorKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(64)?;
//! let algorithm = FloodMaxId { rounds: 8 };
//! let sequential = ExecutorKind::Sequential.run(&g, &algorithm)?;
//! let stolen = ExecutorKind::Sharded { threads: 2, chunk_size: 16 }.run(&g, &algorithm)?;
//! assert_eq!(sequential.outputs, stolen.outputs);
//! assert_eq!(sequential.report, stolen.report);
//! # Ok(())
//! # }
//! ```

use crate::network::{ExecutionResult, Executor, RuntimeError};
use crate::node::{Algorithm, NodeProgram};
use crate::reference::ReferenceExecutor;
use arbcolor_graph::Graph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Work pool
// ---------------------------------------------------------------------------

/// A hand-rolled fixed-size work pool: plain scoped `std::thread` workers, no external
/// crates.
///
/// The pool itself is just a thread count.  [`WorkPool::map`] spawns the helper threads
/// inside a [`std::thread::scope`] (so jobs may borrow local data), lets the caller's thread
/// work alongside them, and joins every helper before it returns.
#[derive(Debug, Clone)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// Creates a pool that will run jobs on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkPool { threads: threads.max(1) }
    }

    /// Number of worker threads this pool runs jobs on, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in item order, so the output is
    /// independent of scheduling.  Workers claim items one at a time off a shared iterator;
    /// with one worker, or one item, everything runs inline on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any worker.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let helpers = self.threads.min(items.len()).saturating_sub(1);
        let claim = Mutex::new(items.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                let next = claim.lock().expect("a pool worker panicked while claiming").next();
                let Some((index, item)) = next else { return done };
                done.push((index, f(index, item)));
            }
        };
        let mut results = std::thread::scope(|s| {
            let helpers: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            let mut results = work();
            for helper in helpers {
                results.extend(helper.join().expect("a pool worker panicked while running a job"));
            }
            results
        });
        results.sort_unstable_by_key(|&(index, _)| index);
        results.into_iter().map(|(_, result)| result).collect()
    }
}

// ---------------------------------------------------------------------------
// Executor selection
// ---------------------------------------------------------------------------

/// Which simulator implementation to run an algorithm on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The [`Executor`] on one thread.
    Sequential,
    /// The [`Executor`] with explicit thread count and chunk size.
    Sharded {
        /// Worker threads.
        threads: usize,
        /// Schedule entries per chunk; 0 means "use the process-wide default"
        /// (see [`set_default_chunk_size`]).
        chunk_size: usize,
    },
    /// The pre-fabric `Vec<Vec<…>>` [`ReferenceExecutor`] with linear-scan routing.  A test
    /// and bench oracle (the equivalence suites and experiment E18 race it against the flat
    /// executors); never faster, so not a production choice.
    Reference,
}

impl ExecutorKind {
    /// A multi-thread configuration with the given thread count and the process-wide
    /// default chunk size.
    pub fn sharded(threads: usize) -> Self {
        ExecutorKind::Sharded { threads: threads.max(1), chunk_size: 0 }
    }

    /// The worker-thread budget of this configuration (1 for [`ExecutorKind::Sequential`]).
    ///
    /// Phase drivers that parallelize *across* disjoint subgraphs (rather than across the
    /// vertices of one execution) use this as their pool size.
    pub fn threads(&self) -> usize {
        match self {
            ExecutorKind::Sequential | ExecutorKind::Reference => 1,
            ExecutorKind::Sharded { threads, .. } => (*threads).max(1),
        }
    }

    /// Runs `algorithm` on `graph` under this executor configuration.
    ///
    /// All configurations produce bit-identical results; only wall-clock time differs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate
    /// within the default round limit.
    pub fn run<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        match *self {
            ExecutorKind::Sequential => Executor::new(graph).run(algorithm),
            ExecutorKind::Sharded { threads, chunk_size } => {
                let mut executor = Executor::new(graph).with_threads(threads);
                if chunk_size > 0 {
                    executor = executor.with_chunk_size(chunk_size);
                }
                executor.run(algorithm)
            }
            ExecutorKind::Reference => ReferenceExecutor::new(graph).run(algorithm),
        }
    }
}

/// The process-wide default executor configuration (starts out sequential).
static DEFAULT_EXECUTOR: Mutex<ExecutorKind> = Mutex::new(ExecutorKind::Sequential);

/// Sets the process-wide default executor used by [`run_algorithm`].
///
/// All kinds produce bit-identical results, so flipping the default mid-run changes
/// wall-clock behaviour only; binaries typically set it once from a CLI flag.
pub fn set_default_executor(kind: ExecutorKind) {
    *DEFAULT_EXECUTOR.lock().expect("executor-kind lock") = kind;
}

/// The current process-wide default executor configuration.
pub fn default_executor() -> ExecutorKind {
    *DEFAULT_EXECUTOR.lock().expect("executor-kind lock")
}

/// The process-wide default for the executor's sequential cutoff (see
/// [`Executor::with_sequential_cutoff`]).
static SEQUENTIAL_CUTOFF: AtomicUsize = AtomicUsize::new(Executor::DEFAULT_SEQUENTIAL_CUTOFF);

/// Sets the process-wide default sequential cutoff picked up by new [`Executor`]s (and by
/// the parallel phase drivers that mirror its small-work fallback).
///
/// Results are identical at any cutoff; lowering it only forces the multi-thread code paths
/// on smaller graphs.  The CI cross-executor gate runs the smoke tier with cutoff 0 so even
/// tiny workloads execute on several threads and diff against the sequential rows.
pub fn set_default_sequential_cutoff(cutoff: usize) {
    SEQUENTIAL_CUTOFF.store(cutoff, Ordering::Relaxed);
}

/// The current process-wide default sequential cutoff.
pub fn default_sequential_cutoff() -> usize {
    SEQUENTIAL_CUTOFF.load(Ordering::Relaxed)
}

/// The process-wide default for the executor's chunk size (see
/// [`Executor::with_chunk_size`]).
static CHUNK_SIZE: AtomicUsize = AtomicUsize::new(Executor::DEFAULT_CHUNK_SIZE);

/// Sets the process-wide default chunk size picked up by new [`Executor`]s (clamped to at
/// least 1).
///
/// Results are identical at any chunk size — the chunking only decides claim granularity.
/// Binaries expose it as `--chunk-size` so CI can diff a non-default granularity against
/// the sequential rows.
pub fn set_default_chunk_size(chunk_size: usize) {
    CHUNK_SIZE.store(chunk_size.max(1), Ordering::Relaxed);
}

/// The current process-wide default chunk size.
pub fn default_chunk_size() -> usize {
    CHUNK_SIZE.load(Ordering::Relaxed)
}

/// Runs `algorithm` on `graph` under the process-wide default executor configuration.
///
/// This is the entry point the algorithm drivers across the workspace use, so a single
/// [`set_default_executor`] call switches the whole stack between thread counts and the
/// reference oracle.
///
/// # Errors
///
/// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate within
/// the default round limit.
pub fn run_algorithm<A>(
    graph: &Graph,
    algorithm: &A,
) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
where
    A: Algorithm + Sync,
    A::Node: Send,
    <A::Node as NodeProgram>::Msg: Send + Sync,
    <A::Node as NodeProgram>::Output: Send,
{
    default_executor().run(graph, algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use crate::metrics::RoundReport;
    use arbcolor_graph::generators;

    #[test]
    fn pool_map_returns_results_in_item_order() {
        for threads in [1usize, 2, 4, 7] {
            let pool = WorkPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let squares = pool.map((0..40usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(squares, (0..40usize).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_map_on_empty_input_is_empty() {
        let pool = WorkPool::new(4);
        let out: Vec<usize> = pool.map(Vec::<usize>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(WorkPool::new(0).threads(), 1);
        assert_eq!(ExecutorKind::sharded(0).threads(), 1);
    }

    #[test]
    fn work_stealing_matches_sequential_on_a_cycle() {
        let g = generators::cycle(30).unwrap().with_shuffled_ids(7);
        let sequential = Executor::new(&g).run(&ProposeMaxId).unwrap();
        for chunk_size in [1usize, 4, 64] {
            for threads in [1usize, 2, 4] {
                let stolen = Executor::new(&g)
                    .with_threads(threads)
                    .with_chunk_size(chunk_size)
                    .with_sequential_cutoff(0)
                    .run(&ProposeMaxId)
                    .unwrap();
                assert_eq!(stolen.outputs, sequential.outputs);
                assert_eq!(stolen.report, sequential.report);
            }
        }
    }

    #[test]
    fn work_stealing_round_limit_matches_sequential() {
        let g = generators::path(9).unwrap();
        let sequential =
            Executor::new(&g).with_max_rounds(3).run(&FloodMaxId { rounds: 100 }).unwrap_err();
        let stolen = Executor::new(&g)
            .with_threads(2)
            .with_chunk_size(2)
            .with_sequential_cutoff(0)
            .with_max_rounds(3)
            .run(&FloodMaxId { rounds: 100 })
            .unwrap_err();
        assert_eq!(stolen, sequential);
    }

    #[test]
    fn work_stealing_handles_isolated_vertices_and_empty_graphs() {
        for n in [0usize, 5] {
            let g = Graph::empty(n);
            let result = Executor::new(&g)
                .with_threads(2)
                .with_chunk_size(2)
                .with_sequential_cutoff(0)
                .run(&ProposeMaxId)
                .unwrap();
            assert_eq!(result.report, RoundReport::zero());
            assert_eq!(result.outputs.len(), n);
        }
    }

    #[test]
    fn default_executor_round_trips() {
        let before = default_executor();
        set_default_executor(ExecutorKind::sharded(3));
        assert_eq!(default_executor().threads(), 3);
        set_default_executor(before);
    }

    #[test]
    fn default_chunk_size_round_trips_and_clamps() {
        let before = default_chunk_size();
        set_default_chunk_size(64);
        assert_eq!(default_chunk_size(), 64);
        set_default_chunk_size(0);
        assert_eq!(default_chunk_size(), 1, "chunk size clamps to at least 1");
        set_default_chunk_size(before);
    }

    #[test]
    fn executor_kind_dispatch_agrees_across_kinds() {
        let g = generators::grid(5, 6).unwrap().with_shuffled_ids(3);
        let sequential = ExecutorKind::Sequential.run(&g, &FloodMaxId { rounds: 4 }).unwrap();
        let stolen = ExecutorKind::Sharded { threads: 2, chunk_size: 5 }
            .run(&g, &FloodMaxId { rounds: 4 })
            .unwrap();
        assert_eq!(sequential.outputs, stolen.outputs);
        assert_eq!(sequential.report, stolen.report);
    }
}
