//! The executor and the arc-indexed message fabric.
//!
//! # The message fabric
//!
//! The LOCAL model charges one round for all messages at once, so the simulator's delivery
//! path is the hot loop of every experiment.  Four structural facts keep it allocation- and
//! sort-free, so a round costs what its messages and its frontier cost:
//!
//! 1. **In-order commit.**  A stepped vertex emits each message with its *sender* arc
//!    `arc_range(sender).start + port`.  Senders are stepped in ascending order, so the
//!    commit reads the arc's receiver `arc_target(arc)`, its receiving slot
//!    `graph.mirror_arcs()[arc]` (one array read precomputed by the CSR build) and its
//!    bandwidth cell sequentially; only the slot write and the receiver's frontier mark
//!    land at random.
//! 2. **Bitmap mailboxes.**  Pending messages live in one arc-indexed slot buffer
//!    (`ArcMailboxes`) with an occupancy bitmap: slot `a` holds the first message delivered
//!    to arc `a` this round, and a slot whose bit is clear is stale and never read.  A
//!    shared spill vector absorbs the rare second message per port, and clearing resets only
//!    the bitmap words the round touched — so a round performs no per-vertex `Vec` pushes,
//!    no sort of the deliveries and, on the one-message-per-port fast path, no heap
//!    allocation at all.
//! 3. **Order preservation.**  A vertex reads its window by scanning its bits in port
//!    order, and the sealed spill is stably grouped by arc.  Adjacency lists are sorted, so
//!    port order equals the sender-index order the old `Vec<Vec<(port, msg)>>` mailboxes
//!    produced, and same-port messages keep their send order; outputs, rounds, and message
//!    counts are bit-identical to the [`reference`](crate::reference) executor (enforced by
//!    `tests/message_fabric.rs`).
//! 4. **Timed wake-ups.**  [`NodeCtx::wake_in`]`(k)` files the vertex under round `r + k` in
//!    a map from round to vertices, and the executor marks them into the frontier when that
//!    round opens.  A slot schedule — one color class per round — then steps each vertex in
//!    its slot and when mail arrives, not in every round it waits through.
//!
//! # Frontier-driven rounds
//!
//! On top of the fabric, the executor only steps the **frontier** (see
//! [`frontier`](crate::frontier)): delivering a message marks the receiver's frontier bit,
//! and [`NodeCtx::wake_next_round`] or a due [`NodeCtx::wake_in`] marks the caller, so a
//! round walks the sorted frontier instead of all of `0..n` — O(|frontier| + messages) per
//! round.  Halted vertices can still be marked by late mail; they are skipped at iteration
//! time (their mail is dropped unread, matching the previous semantics of messages to halted
//! nodes).  The loop condition, round accounting, and termination check are unchanged, so
//! rounds and message counts are bit-identical to the everyone-runs executor for any program
//! honoring the activation contract of [`NodeProgram`].
//!
//! # Chunked rounds and the thread count
//!
//! Every step — `init` over `0..n`, then each round over its sorted frontier — is cut into
//! fixed-size chunks of consecutive schedule entries.  A chunk covers a disjoint vertex
//! range, so it carries its own `&mut` window of the node programs, and the workers of a
//! [`WorkPool`] claim chunks off one shared iterator.  A worker buffers what a chunk
//! produces (outgoing `(sender arc, message)` pairs in vertex-then-port order, halts,
//! wake-ups), and the buffers are committed **in chunk order**: the pending mailboxes then
//! receive messages in ascending sender order, spill arrival included, whoever stepped which
//! chunk.  The join at the end of each step is the round barrier, so no message of round
//! `r` is observable before round `r + 1`.  Scheduling therefore decides *who* computes,
//! never *what* is computed: every thread count and chunk size yields the same outputs,
//! rounds, messages and bits (`tests/sharded_executor.rs` and the CI cross-executor diff
//! enforce this).
//!
//! With one worker — the default, and every graph at or below the
//! [sequential cutoff](Executor::with_sequential_cutoff) — the same loop runs inline on the
//! caller's thread and commits each chunk as soon as it is stepped.  More workers are scoped
//! threads spawned per step, and only for steps with more than one chunk; the executor runs
//! the same `step_chunk` code either way.
//!
//! ```
//! use arbcolor_graph::generators;
//! use arbcolor_runtime::{algorithms::FloodMaxId, Executor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(64)?;
//! let algorithm = FloodMaxId { rounds: 8 };
//! let one = Executor::new(&g).run(&algorithm)?;
//! let two = Executor::new(&g)
//!     .with_threads(2)
//!     .with_chunk_size(16)
//!     .with_sequential_cutoff(0)
//!     .run(&algorithm)?;
//! assert_eq!(one.outputs, two.outputs);
//! assert_eq!(one.report, two.report);
//! # Ok(())
//! # }
//! ```

use crate::cost::{default_cost_mode, BandwidthMeter, CostMode, MessageCost};
use crate::frontier::{ActiveSet, Frontier};
use crate::metrics::RoundReport;
use crate::node::{Algorithm, Inbox, NeighborIds, NodeCtx, NodeProgram, Outbox, Status};
use crate::obs;
use crate::shard::{default_chunk_size, default_sequential_cutoff, WorkPool};
use crate::trace::{RoundTrace, TraceConfig, TraceRecorder};
use arbcolor_graph::{ArcIdx, Graph, Vertex};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The algorithm did not terminate within the configured round limit.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// How many nodes were still active when the limit was hit.
        still_active: usize,
    },
    /// Under [`CostMode::Congest`], a single edge carried more bits in one round than the
    /// configured per-edge budget allows.
    CongestBudgetExceeded {
        /// The round whose deliveries exceeded the budget (1-based; round `r`'s deliveries
        /// are the messages sent in round `r - 1`, with round 1 carrying the `init` sends).
        round: usize,
        /// The vertex that sent over the overloaded edge.
        sender: Vertex,
        /// The vertex receiving over the overloaded edge.
        receiver: Vertex,
        /// The measured bit load of the edge in that round.
        bits: u64,
        /// The configured per-edge per-round budget.
        budget: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded { limit, still_active } => write!(
                f,
                "algorithm exceeded the round limit of {limit} with {still_active} nodes still active"
            ),
            RuntimeError::CongestBudgetExceeded { round, sender, receiver, bits, budget } => {
                write!(
                    f,
                    "round {round}: edge {sender} -> {receiver} carried {bits} bits, \
                     over the CONGEST budget of {budget} bits per edge per round"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

/// The result of running an algorithm to completion.
#[derive(Debug, Clone)]
pub struct ExecutionResult<O> {
    /// Per-vertex outputs, indexed by vertex.
    pub outputs: Vec<O>,
    /// Round and message accounting for this execution.
    pub report: RoundReport,
}

/// An execution result paired with the per-round activity trace that produced it — what
/// [`Executor::run_traced`] returns on success.
pub type TracedRun<O> = (ExecutionResult<O>, TraceRecorder);

/// Runs [`Algorithm`]s on a [`Graph`] until every node halts, stepping each round's
/// frontier in chunks on one or more worker threads (see the [module docs](self)); results
/// are bit-identical at every thread count and chunk size.
#[derive(Debug, Clone)]
pub struct Executor<'g> {
    graph: &'g Graph,
    max_rounds: usize,
    cost_mode: CostMode,
    threads: usize,
    chunk_size: usize,
    sequential_cutoff: usize,
}

impl<'g> Executor<'g> {
    /// Default safety limit on the number of rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 1_000_000;

    /// Graphs with at most this many vertices run on one worker whatever the thread count
    /// (results are identical; threads only pay off once chunks hold real work).
    pub const DEFAULT_SEQUENTIAL_CUTOFF: usize = 2048;

    /// Default number of schedule entries per chunk: small enough to balance a skewed
    /// frontier across workers, large enough to amortize the claim and the commit.
    pub const DEFAULT_CHUNK_SIZE: usize = 1024;

    /// Creates a one-thread executor for `graph` with the default round limit and the
    /// process-wide default cost mode, chunk size and sequential cutoff (see
    /// [`set_default_cost_mode`](crate::set_default_cost_mode),
    /// [`set_default_chunk_size`](crate::set_default_chunk_size),
    /// [`set_default_sequential_cutoff`](crate::set_default_sequential_cutoff)).
    pub fn new(graph: &'g Graph) -> Self {
        Executor {
            graph,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            cost_mode: default_cost_mode(),
            threads: 1,
            chunk_size: default_chunk_size(),
            sequential_cutoff: default_sequential_cutoff(),
        }
    }

    /// Overrides the round limit (useful for tests that expect termination within a bound).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Overrides the cost mode: under [`CostMode::Congest`] the run fails with
    /// [`RuntimeError::CongestBudgetExceeded`] as soon as a round overloads an edge.
    /// Bandwidth is recorded into the [`RoundReport`] in every mode.
    #[must_use]
    pub fn with_cost_mode(mut self, cost_mode: CostMode) -> Self {
        self.cost_mode = cost_mode;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the number of schedule entries per chunk (clamped to at least 1).  The chunk
    /// size never affects results — only how finely a step is dealt out to the workers.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Sets the vertex count at or below which the run uses one worker whatever the thread
    /// count.  Pass 0 to put even tiny graphs on every thread (the equivalence tests do).
    #[must_use]
    pub fn with_sequential_cutoff(mut self, cutoff: usize) -> Self {
        self.sequential_cutoff = cutoff;
        self
    }

    /// The graph this executor runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Runs `algorithm` until every node halts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate within
    /// the configured round limit.
    pub fn run<A>(
        &self,
        algorithm: &A,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        self.run_inner(algorithm, None)
    }

    /// Runs `algorithm` like [`run`](Self::run), additionally recording one
    /// [`RoundTrace`] per round (frontier size, messages, halts, wall-clock) — the
    /// instrumentation behind the per-round activity plots of experiment E21.  Every column
    /// but `wall_ns` is identical at every thread count and chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate within
    /// the configured round limit.
    pub fn run_traced<A>(
        &self,
        algorithm: &A,
    ) -> Result<TracedRun<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        self.run_traced_with(algorithm, TraceConfig::default())
    }

    /// Like [`run_traced`](Self::run_traced) with an explicit [`TraceConfig`] (e.g. to
    /// capture per-round halted-vertex identities, which are off by default).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate within
    /// the configured round limit.
    pub fn run_traced_with<A>(
        &self,
        algorithm: &A,
        config: TraceConfig,
    ) -> Result<TracedRun<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        let mut recorder = TraceRecorder::new();
        let result = self.run_inner(algorithm, Some((&mut recorder, config)))?;
        Ok((result, recorder))
    }

    fn run_inner<A>(
        &self,
        algorithm: &A,
        trace: Option<(&mut TraceRecorder, TraceConfig)>,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        let span = obs::exec_span(algorithm.name());
        let (mut trace, trace_config) = match trace {
            Some((recorder, config)) => (Some(recorder), config),
            None => (None, TraceConfig::default()),
        };
        let graph = self.graph;
        let n = graph.n();
        let id_space = id_space_of(graph);
        let id_table = neighbor_id_table(graph);
        let contexts: Vec<NodeCtx> =
            graph.vertices().map(|v| node_ctx(graph, v, id_space, &id_table)).collect();
        let mut nodes: Vec<A::Node> = contexts.iter().map(|ctx| algorithm.node(ctx)).collect();
        let mut active = ActiveSet::new(n);
        let mut report = RoundReport::zero();
        let stepper = Stepper {
            graph,
            contexts: &contexts,
            workers: if n <= self.sequential_cutoff { 1 } else { self.threads },
            chunk_size: self.chunk_size,
        };
        // The double-buffered bitmap mailboxes (one slot per arc): after the warm-up fills, a
        // round performs no heap allocation on the one-message-per-port fast path.
        let mut inboxes = ArcMailboxes::new(graph.num_arcs());
        let mut round = RoundSink {
            pending: ArcMailboxes::new(graph.num_arcs()),
            frontier: Frontier::new(n),
            timers: BTreeMap::new(),
            meter: BandwidthMeter::new(graph.num_arcs()),
            halted: Vec::new(),
            messages: 0,
            stepped: 0,
        };

        // Initialization (round 0): local computation plus the sends of the first round.
        // `init` runs for every vertex; from here on only the frontier is stepped.
        let mut schedule: Vec<Vertex> = (0..n).collect();
        stepper.step(&mut nodes, &schedule, &inboxes, 0, &mut active, &mut round);
        report.messages += round.messages;
        // Delivery-side trace attribution: round `r` records the messages and bits it
        // *delivers* (sent in round `r − 1`; round 1 carries the `init` sends), so the
        // per-round columns sum bit-exactly to the headline report.
        let mut carry_messages = round.messages;
        let mut carry_bits =
            round.meter.finish_round(graph, report.rounds + 1, self.cost_mode, &mut report)?;

        // Main loop: one iteration = one synchronous round.
        while active.count() > 0 || round.messages > 0 {
            if report.rounds >= self.max_rounds {
                return Err(RuntimeError::RoundLimitExceeded {
                    limit: self.max_rounds,
                    still_active: active.count(),
                });
            }
            report.rounds += 1;
            std::mem::swap(&mut round.pending, &mut inboxes);
            round.pending.clear();
            inboxes.seal();
            round.open(report.rounds, &mut schedule);

            let round_started = trace.as_ref().map(|_| std::time::Instant::now());
            let active_at_start = active.count();
            stepper.step(&mut nodes, &schedule, &inboxes, report.rounds, &mut active, &mut round);
            report.messages += round.messages;
            let round_bits =
                round.meter.finish_round(graph, report.rounds + 1, self.cost_mode, &mut report)?;
            if let Some(recorder) = trace.as_deref_mut() {
                recorder.record(RoundTrace {
                    round: report.rounds,
                    active_nodes: active_at_start,
                    frontier: round.stepped,
                    messages: carry_messages,
                    total_bits: carry_bits.total,
                    max_edge_bits: carry_bits.max_edge,
                    halts: round.halted.len(),
                    halted: if trace_config.capture_halted {
                        round.halted.clone()
                    } else {
                        Vec::new()
                    },
                    wall_ns: round_started
                        .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                        .unwrap_or(0),
                });
            }
            carry_messages = round.messages;
            carry_bits = round_bits;
            if active.count() == 0 {
                break;
            }
        }

        let outputs =
            nodes.iter().zip(contexts.iter()).map(|(node, ctx)| node.output(ctx)).collect();
        span.charge(report);
        if let Some(recorder) = trace {
            span.attach_trace(recorder);
        }
        obs::record_run(&report);
        Ok(ExecutionResult { outputs, report })
    }
}

/// Steps one schedule in chunks: the read-only half of a run, shared by every worker.
struct Stepper<'a> {
    graph: &'a Graph,
    contexts: &'a [NodeCtx],
    /// Worker threads for this run (1 at or below the sequential cutoff).
    workers: usize,
    chunk_size: usize,
}

/// A chunk: its run of schedule entries and the `&mut` node programs of the vertex range
/// `first..=last` those entries span.
struct Chunk<'a, N> {
    vertices: &'a [Vertex],
    first: Vertex,
    nodes: &'a mut [N],
}

/// Everything one chunk produced, buffered for an in-order commit: outgoing
/// `(sender arc, message)` pairs in vertex-then-port order (the arc pins both the sending
/// vertex and its port), plus the vertices that halted or requested a wake-up.
struct ChunkOut<M> {
    outgoing: Vec<(ArcIdx, M)>,
    halts: Vec<Vertex>,
    /// Vertices to step next round ([`NodeCtx::wake_next_round`]).
    wakeups: Vec<Vertex>,
    /// `(due round, vertex)` of the later wake-ups ([`NodeCtx::wake_in`] beyond one round).
    timers: Vec<(usize, Vertex)>,
    /// Vertices actually stepped (the chunk's share of the round frontier).
    stepped: usize,
}

impl<M> Default for ChunkOut<M> {
    fn default() -> Self {
        ChunkOut {
            outgoing: Vec::new(),
            halts: Vec::new(),
            wakeups: Vec::new(),
            timers: Vec::new(),
            stepped: 0,
        }
    }
}

impl Stepper<'_> {
    /// Runs `init` (round 0) or `round` for every active vertex of `schedule` (ascending,
    /// duplicate-free), commits the chunks to `sink` in chunk order, then applies the step's
    /// halts to `active` (each vertex is stepped at most once per step, so no vertex can
    /// observe a halt of the same step).
    fn step<N>(
        &self,
        nodes: &mut [N],
        schedule: &[Vertex],
        mail: &ArcMailboxes<N::Msg>,
        round: usize,
        active: &mut ActiveSet,
        sink: &mut RoundSink<N::Msg>,
    ) where
        N: NodeProgram + Send,
        N::Msg: Send + Sync,
    {
        sink.messages = 0;
        sink.stepped = 0;
        sink.halted.clear();
        let chunks = deal_chunks(schedule, nodes, self.chunk_size);
        let workers = self.workers.min(schedule.len().div_ceil(self.chunk_size));
        let alive = &*active;
        if workers <= 1 {
            let (mut outbox, mut out) = (Outbox::new(0), ChunkOut::default());
            for chunk in chunks {
                self.step_chunk(chunk, mail, round, alive, &mut outbox, &mut out);
                sink.commit(self.graph, &mut out);
            }
        } else {
            let outs = WorkPool::new(workers).map(chunks.collect(), |_, chunk| {
                let mut out = ChunkOut::default();
                self.step_chunk(chunk, mail, round, alive, &mut Outbox::new(0), &mut out);
                out
            });
            for mut out in outs {
                sink.commit(self.graph, &mut out);
            }
        }
        for &v in &sink.halted {
            active.halt(v);
        }
    }

    /// Steps one chunk of round `round` (0 = `init`) into `out`.
    fn step_chunk<N: NodeProgram>(
        &self,
        chunk: Chunk<'_, N>,
        mail: &ArcMailboxes<N::Msg>,
        round: usize,
        active: &ActiveSet,
        outbox: &mut Outbox<N::Msg>,
        out: &mut ChunkOut<N::Msg>,
    ) {
        for &v in chunk.vertices {
            if !active.is_active(v) {
                // Mail to a halted vertex is dropped unread (it was counted at send time).
                continue;
            }
            out.stepped += 1;
            let arcs = self.graph.arc_range(v);
            let first_arc = arcs.start;
            let ctx = &self.contexts[v];
            let node = &mut chunk.nodes[v - chunk.first];
            outbox.reset(ctx.degree);
            let status = if round == 0 {
                node.init(ctx, outbox)
            } else {
                node.round(ctx, &mail.read(arcs, round), outbox)
            };
            let wake = ctx.take_wake();
            if status == Status::Halted {
                out.halts.push(v);
            } else if let Some(rounds) = wake {
                if rounds == 1 {
                    out.wakeups.push(v);
                } else {
                    out.timers.push((round.saturating_add(rounds), v));
                }
            }
            for (port, message) in outbox.drain() {
                out.outgoing.push((first_arc + port, message));
            }
        }
    }
}

/// Deals `schedule` (ascending, duplicate-free) out in chunks of `size` entries, each paired
/// with the disjoint `&mut` window of `nodes` its vertices span.
fn deal_chunks<'a, N>(
    schedule: &'a [Vertex],
    mut nodes: &'a mut [N],
    size: usize,
) -> impl Iterator<Item = Chunk<'a, N>> {
    let mut offset = 0;
    schedule.chunks(size).map(move |vertices| {
        let (first, last) = (vertices[0], vertices[vertices.len() - 1]);
        let (_, rest) = std::mem::take(&mut nodes).split_at_mut(first - offset);
        let (window, rest) = rest.split_at_mut(last + 1 - first);
        nodes = rest;
        offset = last + 1;
        Chunk { vertices, first, nodes: window }
    })
}

/// The write-only half of a run: where committed chunks land, plus the current step's
/// tallies.
struct RoundSink<M> {
    /// The mailboxes the next round reads.
    pending: ArcMailboxes<M>,
    /// The next round's schedule: every receiver and every next-round wake-up.
    frontier: Frontier,
    /// Later wake-ups by due round; [`RoundSink::open`] moves a round's entry into the
    /// frontier when that round opens.
    timers: BTreeMap<usize, Vec<Vertex>>,
    meter: BandwidthMeter,
    /// Vertices that halted in the current step, ascending.
    halted: Vec<Vertex>,
    /// Messages committed in the current step.
    messages: usize,
    /// Vertices stepped in the current step.
    stepped: usize,
}

impl<M: MessageCost> RoundSink<M> {
    /// Commits one chunk and empties `out` for reuse: charges each message's measured width
    /// to its sender arc, marks the receiver (the arc's target) in the frontier and pushes
    /// the message into the receiver's mirror slot; then files the wake-ups and records the
    /// halts.  The arcs arrive in ascending order, so `mirror[arc]` and `arc_target(arc)`
    /// are sequential reads; only the slot push and the frontier mark scatter.
    fn commit(&mut self, graph: &Graph, out: &mut ChunkOut<M>) {
        let mirror = graph.mirror_arcs();
        self.messages += out.outgoing.len();
        self.stepped += std::mem::take(&mut out.stepped);
        for (arc, message) in out.outgoing.drain(..) {
            self.meter.add(arc, message.encoded_bits());
            self.frontier.mark(graph.arc_target(arc));
            self.pending.push(mirror[arc], message);
        }
        for v in out.wakeups.drain(..) {
            self.frontier.mark(v);
        }
        for (due, v) in out.timers.drain(..) {
            self.timers.entry(due).or_default().push(v);
        }
        self.halted.append(&mut out.halts);
    }

    /// Opens round `round`: marks the wake-ups due in it, then moves the frontier into
    /// `schedule` in ascending vertex order.
    fn open(&mut self, round: usize, schedule: &mut Vec<Vertex>) {
        if let Some(due) = self.timers.remove(&round) {
            for v in due {
                self.frontier.mark(v);
            }
        }
        self.frontier.take(schedule);
    }
}

/// Upper bound on the identifier space of `graph` as exposed through [`NodeCtx::id_space`].
pub(crate) fn id_space_of(graph: &Graph) -> u64 {
    graph.ids().iter().copied().max().unwrap_or(0).max(graph.n() as u64)
}

/// Builds the CSR-shaped neighbor-identifier table shared by every [`NodeCtx`] of an
/// execution: `table[a] = id(arc_target(a))`.  One allocation per run, borrowed by all
/// contexts, under the executor and the reference executor alike.
pub(crate) fn neighbor_id_table(graph: &Graph) -> Arc<[u64]> {
    (0..graph.num_arcs()).map(|a| graph.id(graph.arc_target(a))).collect()
}

/// Builds the [`NodeCtx`] of vertex `v` (shared with the reference executor so node programs
/// observe byte-identical contexts under either).
pub(crate) fn node_ctx(graph: &Graph, v: usize, id_space: u64, id_table: &Arc<[u64]>) -> NodeCtx {
    NodeCtx::new(
        v,
        graph.id(v),
        graph.n(),
        id_space,
        graph.degree(v),
        NeighborIds::from_table(Arc::clone(id_table), graph.arc_range(v)),
    )
}

/// The bitmap mailboxes of one executor side (pending or inbox).
///
/// `slots[a]` holds the first message delivered to arc `a` in the current round, and bit
/// `a % 64` of `bits[a / 64]` says whether it does: a slot whose bit is clear is stale and
/// is never read.  Further messages to the same arc overflow into `spill` in arrival order.
/// `touched` lists the bitmap words set since the last clear, so clearing costs
/// O(messages), not O(arcs).
pub(crate) struct ArcMailboxes<M> {
    /// First (usually only) message per arc this round; current only while its bit is set.
    slots: Vec<Option<M>>,
    /// Arc occupancy bitmap.
    bits: Vec<u64>,
    /// Indices of the nonzero words of `bits`.
    touched: Vec<usize>,
    /// Overflow messages as `(arc, message)`, arrival order; stably sorted by arc by
    /// [`ArcMailboxes::seal`].
    spill: Vec<(usize, M)>,
}

impl<M> ArcMailboxes<M> {
    /// An empty buffer over `num_arcs` arcs.
    pub(crate) fn new(num_arcs: usize) -> Self {
        ArcMailboxes {
            slots: (0..num_arcs).map(|_| None).collect(),
            bits: vec![0; num_arcs.div_ceil(64)],
            touched: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Delivers `message` to `arc`.
    #[inline]
    pub(crate) fn push(&mut self, arc: usize, message: M) {
        let word = &mut self.bits[arc / 64];
        let bit = 1u64 << (arc % 64);
        if *word & bit == 0 {
            if *word == 0 {
                self.touched.push(arc / 64);
            }
            *word |= bit;
            self.slots[arc] = Some(message);
        } else {
            self.spill.push((arc, message));
        }
    }

    /// Prepares the buffer for reading: stably groups the spill by arc, keeping send order
    /// within an arc.  The slots need no ordering: a vertex reads its bits in port order.
    pub(crate) fn seal(&mut self) {
        if self.spill.len() > 1 {
            self.spill.sort_by_key(|&(arc, _)| arc);
        }
    }

    /// Empties the buffer in O(messages), retaining all capacity.  Only the touched bitmap
    /// words are reset; the slots behind them go stale and are dropped here only if `M`
    /// needs dropping (otherwise the next push to the arc overwrites them).
    pub(crate) fn clear(&mut self) {
        for &w in &self.touched {
            if std::mem::needs_drop::<M>() {
                let mut word = self.bits[w];
                while word != 0 {
                    self.slots[w * 64 + word.trailing_zeros() as usize] = None;
                    word &= word - 1;
                }
            }
            self.bits[w] = 0;
        }
        self.touched.clear();
        self.spill.clear();
    }

    /// The inbox of round `round` for the vertex owning `arcs`.
    pub(crate) fn read(&self, arcs: std::ops::Range<usize>, round: usize) -> Inbox<'_, M> {
        let spill = if self.spill.is_empty() {
            &self.spill[..]
        } else {
            let from = self.spill.partition_point(|&(a, _)| a < arcs.start);
            let to = from + self.spill[from..].partition_point(|&(a, _)| a < arcs.end);
            &self.spill[from..to]
        };
        Inbox::from_bitmap(&self.slots, &self.bits, spill, arcs, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use arbcolor_graph::generators;

    #[test]
    fn propose_max_id_takes_one_round() {
        let g = generators::cycle(10).unwrap().with_shuffled_ids(3);
        let result = Executor::new(&g).run(&ProposeMaxId).unwrap();
        assert_eq!(result.report.rounds, 1);
        assert_eq!(result.report.messages, 2 * g.m());
        for v in g.vertices() {
            let expected = g
                .neighbors(v)
                .iter()
                .map(|&u| g.id(u))
                .chain(std::iter::once(g.id(v)))
                .max()
                .unwrap();
            assert_eq!(result.outputs[v], expected);
        }
    }

    #[test]
    fn flood_max_id_converges_to_global_max_within_diameter_rounds() {
        let g = generators::path(12).unwrap().with_shuffled_ids(8);
        let result = Executor::new(&g).run(&FloodMaxId { rounds: 11 }).unwrap();
        let global_max = g.ids().iter().copied().max().unwrap();
        assert!(result.outputs.iter().all(|&x| x == global_max));
        assert_eq!(result.report.rounds, 11);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = generators::path(4).unwrap();
        let err =
            Executor::new(&g).with_max_rounds(3).run(&FloodMaxId { rounds: 100 }).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn isolated_vertices_halt_immediately() {
        let g = arbcolor_graph::Graph::empty(5);
        let result = Executor::new(&g).run(&ProposeMaxId).unwrap();
        assert_eq!(result.report.rounds, 0);
        assert_eq!(result.report.messages, 0);
        for v in g.vertices() {
            assert_eq!(result.outputs[v], g.id(v));
        }
    }

    /// Sends two messages down the same port in one round: both must arrive, in send order
    /// (the spill path of the flat mailboxes).
    #[derive(Debug, Clone, Copy)]
    struct DoubleSend;

    #[derive(Debug, Clone)]
    struct DoubleSendNode {
        received: Vec<(usize, u64)>,
    }

    impl NodeProgram for DoubleSendNode {
        type Msg = u64;
        type Output = Vec<(usize, u64)>;

        fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
            for port in 0..ctx.degree {
                outbox.send(port, ctx.id * 10);
                outbox.send(port, ctx.id * 10 + 1);
            }
            Status::Active
        }

        fn round(
            &mut self,
            _ctx: &NodeCtx,
            inbox: &Inbox<'_, u64>,
            _outbox: &mut Outbox<u64>,
        ) -> Status {
            self.received = inbox.iter().map(|(p, &m)| (p, m)).collect();
            Status::Halted
        }

        fn output(&self, _ctx: &NodeCtx) -> Vec<(usize, u64)> {
            self.received.clone()
        }
    }

    impl Algorithm for DoubleSend {
        type Node = DoubleSendNode;

        fn node(&self, _ctx: &NodeCtx) -> DoubleSendNode {
            DoubleSendNode { received: Vec::new() }
        }
    }

    #[test]
    fn multiple_messages_per_port_take_the_spill_path_in_send_order() {
        let g = generators::path(3).unwrap(); // vertex 1 has ports to 0 and 2
        let id = |v: usize| g.id(v);
        let mut executors = vec![Executor::new(&g)];
        for threads in [1usize, 2, 4] {
            for chunk_size in [1usize, 4096] {
                executors.push(
                    Executor::new(&g)
                        .with_threads(threads)
                        .with_chunk_size(chunk_size)
                        .with_sequential_cutoff(0),
                );
            }
        }
        for executor in executors {
            let result = executor.run(&DoubleSend).unwrap();
            assert_eq!(result.report.messages, 2 * 2 * g.m());
            assert_eq!(
                result.outputs[1],
                vec![(0, id(0) * 10), (0, id(0) * 10 + 1), (1, id(2) * 10), (1, id(2) * 10 + 1),],
                "{executor:?}"
            );
            assert_eq!(result.outputs[0], vec![(0, id(1) * 10), (0, id(1) * 10 + 1)]);
        }
    }

    /// The reference executor plus the executor at threads {1, 2, 4} × chunk {1, 4096}.
    fn every_executor_agrees<A>(g: &Graph, algorithm: &A)
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send + PartialEq + fmt::Debug,
    {
        let expected = crate::ReferenceExecutor::new(g).run(algorithm).unwrap();
        for threads in [1usize, 2, 4] {
            for chunk_size in [1usize, 4096] {
                let executor = Executor::new(g)
                    .with_threads(threads)
                    .with_chunk_size(chunk_size)
                    .with_sequential_cutoff(0);
                let result = executor.run(algorithm).unwrap();
                assert_eq!(result.outputs, expected.outputs, "{executor:?}");
                assert_eq!(result.report, expected.report, "{executor:?}");
            }
        }
    }

    /// Mixes mail with timed wake-ups: every vertex sends on most ports, twice on its first
    /// and last port (the spill path), and wakes itself 1–4 rounds ahead; whenever it acts it
    /// logs its round, its inbox length, its port-0 message and the whole inbox.  Steps with
    /// an empty inbox before the due round are no-ops, as the activation contract requires.
    #[derive(Debug, Clone, Copy)]
    struct MixedMail;

    /// One logged step: round, inbox length, port-0 message, the whole inbox.
    type Step = (usize, usize, Option<u64>, Vec<(usize, u64)>);

    #[derive(Debug, Clone)]
    struct MixedMailNode {
        due: usize,
        log: Vec<Step>,
    }

    impl MixedMailNode {
        const STOP: usize = 7;

        fn send(ctx: &NodeCtx, round: usize, outbox: &mut Outbox<u64>) {
            for port in 0..ctx.degree {
                if (ctx.id as usize + round + port) % 3 != 0 {
                    outbox.send(port, ctx.id * 1000 + round as u64);
                }
            }
            if ctx.degree > 0 {
                outbox.send(0, ctx.id * 1000 + 999);
                outbox.send(ctx.degree - 1, ctx.id * 1000 + 998);
            }
        }
    }

    impl NodeProgram for MixedMailNode {
        type Msg = u64;
        type Output = Vec<Step>;

        fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
            self.due = 1 + ctx.id as usize % 4;
            ctx.wake_in(self.due);
            Self::send(ctx, 0, outbox);
            Status::Active
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<u64>,
        ) -> Status {
            let round = inbox.round();
            if inbox.is_empty() && round != self.due {
                return Status::Active;
            }
            let messages = inbox.iter().map(|(p, &m)| (p, m)).collect();
            self.log.push((round, inbox.len(), inbox.from_port(0).copied(), messages));
            if round >= Self::STOP {
                return Status::Halted;
            }
            if round == self.due {
                self.due = round + 1 + (ctx.id as usize + round) % 3;
                ctx.wake_in(self.due - round);
                Self::send(ctx, round, outbox);
            }
            Status::Active
        }

        fn output(&self, _ctx: &NodeCtx) -> Self::Output {
            self.log.clone()
        }
    }

    impl Algorithm for MixedMail {
        type Node = MixedMailNode;

        fn node(&self, _ctx: &NodeCtx) -> MixedMailNode {
            MixedMailNode { due: 0, log: Vec::new() }
        }
    }

    #[test]
    fn mail_mixed_with_timed_wake_ups_agrees_on_every_executor() {
        // A 130-leaf star puts a degree-130 window across three bitmap words; the random
        // graph's windows start and end at every offset within a word.
        let star = generators::star(131).unwrap().with_shuffled_ids(5);
        let hub = (0..star.n()).max_by_key(|&v| star.degree(v)).unwrap();
        assert_eq!(star.degree(hub), 130);
        let result = Executor::new(&star).run(&MixedMail).unwrap();
        assert!(result.outputs[hub].iter().any(|&(_, len, _, _)| len > 130), "spill past 64 ports");
        for g in [star, generators::gnp(120, 0.08, 3).unwrap().with_shuffled_ids(7)] {
            every_executor_agrees(&g, &MixedMail);
        }
    }

    #[test]
    fn timed_wake_ups_step_a_silent_vertex_only_when_due() {
        // Isolated vertices get no mail, so they act exactly on their wake-up rounds.
        let g = Graph::empty(4);
        let (result, trace) = Executor::new(&g).run_traced(&MixedMail).unwrap();
        for v in g.vertices() {
            let rounds: Vec<usize> = result.outputs[v].iter().map(|entry| entry.0).collect();
            let mut due = 1 + g.id(v) as usize % 4;
            let mut expected = Vec::new();
            while due < MixedMailNode::STOP {
                expected.push(due);
                due += 1 + (g.id(v) as usize + due) % 3;
            }
            expected.push(due);
            assert_eq!(rounds, expected, "vertex {v}");
        }
        let stepped: usize = trace.rounds().iter().map(|r| r.frontier).sum();
        assert_eq!(stepped, result.outputs.iter().map(Vec::len).sum::<usize>());
        every_executor_agrees(&g, &MixedMail);
    }

    #[test]
    fn bitmap_mailboxes_clear_touched_words_and_ignore_stale_slots() {
        let mut mail: ArcMailboxes<String> = ArcMailboxes::new(200);
        for (arc, text) in [(63, "a"), (64, "b"), (64, "c"), (199, "d"), (0, "e"), (63, "f")] {
            mail.push(arc, text.to_string());
        }
        mail.seal();
        let read = |mail: &ArcMailboxes<String>, arcs: std::ops::Range<usize>| {
            let inbox = mail.read(arcs, 1);
            (inbox.len(), inbox.iter().map(|(p, m)| (p, m.clone())).collect::<Vec<_>>())
        };
        let owned = |pairs: &[(usize, &str)]| {
            pairs.iter().map(|&(p, m)| (p, m.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(read(&mail, 60..70), (4, owned(&[(3, "a"), (3, "f"), (4, "b"), (4, "c")])));
        assert_eq!(read(&mail, 0..1), (1, owned(&[(0, "e")])));
        assert_eq!(read(&mail, 128..200), (1, owned(&[(71, "d")])));
        assert_eq!(mail.touched.len(), 3);
        mail.clear();
        assert!(mail.bits.iter().all(|&w| w == 0) && mail.touched.is_empty());
        assert!(mail.slots.iter().all(Option::is_none), "String slots are dropped on clear");
        assert_eq!(read(&mail, 0..200), (0, Vec::new()));

        // Copy messages leave stale slots behind, which the cleared bits hide.
        let mut mail: ArcMailboxes<u64> = ArcMailboxes::new(10);
        mail.push(5, 50);
        mail.clear();
        assert_eq!(mail.slots[5], Some(50), "a stale u64 slot is left for the next push");
        mail.push(6, 60);
        mail.seal();
        let inbox = mail.read(4..8, 2);
        assert_eq!(inbox.iter().collect::<Vec<_>>(), vec![(2, &60)]);
        assert_eq!((inbox.len(), inbox.from_port(1), inbox.from_port(2)), (1, None, Some(&60)));
    }
}
