//! The node-program interface of the LOCAL-model simulator.

use arbcolor_graph::Vertex;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The neighbor identifiers of one vertex, as a view into a graph-wide CSR-shaped table.
///
/// The executors build **one** `Arc<[u64]>` holding the identifier of every arc target
/// (`table[a] = id(arc_target(a))`) per execution; every [`NodeCtx`] then borrows its own
/// window of it, so constructing `n` contexts costs one allocation instead of `n` owned
/// `Vec<u64>`s.  Dereferences to `[u64]`, so indexing and iteration work as before.
#[derive(Clone)]
pub struct NeighborIds {
    /// Identifiers of every arc target of the whole graph, shared by all contexts.
    table: Arc<[u64]>,
    /// Start of this vertex's window (its first arc index).
    start: usize,
    /// Window length (the vertex degree).
    len: usize,
}

impl NeighborIds {
    /// A view over `table[range]`; `range` must be the arc range of the vertex.
    pub fn from_table(table: Arc<[u64]>, range: std::ops::Range<usize>) -> Self {
        assert!(range.end <= table.len(), "arc range out of bounds");
        NeighborIds { start: range.start, len: range.len(), table }
    }

    /// Builds a standalone view from an owned list (tests and hand-rolled contexts).
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let len = ids.len();
        NeighborIds { table: ids.into(), start: 0, len }
    }
}

impl From<Vec<u64>> for NeighborIds {
    fn from(ids: Vec<u64>) -> Self {
        NeighborIds::from_vec(ids)
    }
}

impl Deref for NeighborIds {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.table[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for NeighborIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for NeighborIds {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for NeighborIds {}

/// Everything a vertex is allowed to know at the start of an algorithm.
///
/// In the LOCAL model a vertex initially knows its own unique identifier, its degree, and the
/// global parameters of the problem (`n`, and for Linial-style algorithms the size of the
/// identifier space).  We additionally expose the identifiers of the neighbors (the `KT1`
/// assumption); algorithms that want to work under `KT0` can simply ignore
/// [`NodeCtx::neighbor_ids`] and learn them with one round of communication.
#[derive(Debug)]
pub struct NodeCtx {
    /// Simulator-internal vertex index (stable across phases of a multi-phase algorithm, but
    /// *not* to be used as an identifier by node programs — use [`NodeCtx::id`]).
    pub vertex: Vertex,
    /// The unique LOCAL-model identifier of this vertex (in `1..=id_space`).
    pub id: u64,
    /// Number of vertices of the network.
    pub n: usize,
    /// Upper bound on the identifier space (identifiers are in `1..=id_space`).
    pub id_space: u64,
    /// Degree of this vertex.
    pub degree: usize,
    /// Identifiers of the neighbors, indexed by port (position in the adjacency list).
    /// Backed by one table shared across all contexts of an execution.
    pub neighbor_ids: NeighborIds,
    /// The earliest wake-up offset requested by [`NodeCtx::wake_in`] during the current
    /// `init`/`round` call ([`NO_WAKE`] if none), drained by the executors after every call.
    /// Atomic (not `Cell`) so contexts can be shared across the executor's worker threads.
    wake: AtomicUsize,
}

/// The value of [`NodeCtx`]'s wake field when no wake-up is pending.
const NO_WAKE: usize = usize::MAX;

impl NodeCtx {
    /// Assembles a context from its public fields (the executors and hand-rolled test
    /// contexts go through this).
    pub fn new(
        vertex: Vertex,
        id: u64,
        n: usize,
        id_space: u64,
        degree: usize,
        neighbor_ids: NeighborIds,
    ) -> Self {
        NodeCtx { vertex, id, n, id_space, degree, neighbor_ids, wake: AtomicUsize::new(NO_WAKE) }
    }

    /// The port of the neighbor with identifier `id`, if any.
    pub fn port_of_neighbor_id(&self, id: u64) -> Option<usize> {
        self.neighbor_ids.iter().position(|&x| x == id)
    }

    /// Schedules this vertex to act in the next round even if no message arrives; the same
    /// as [`wake_in(1)`](Self::wake_in).
    ///
    /// The executors only invoke [`NodeProgram::round`] for vertices with pending mail or a
    /// due wake-up (see the trait docs for the activation contract).  Programs that progress
    /// on an internal counter or phase machine — anything that must act on an empty inbox —
    /// call this from every `init`/`round` invocation after which they still want to run.
    /// A wake-up covers exactly one round.  Calling it from a `round` that returns
    /// [`Status::Halted`] has no effect.
    pub fn wake_next_round(&self) {
        self.wake_in(1);
    }

    /// Schedules this vertex to act `rounds` rounds from now even if no message arrives:
    /// called during round `r` (`init` is round 0), it makes the vertex act in round
    /// `r + rounds`, whose [`Inbox::round`] reports that number.  Rounds in between only
    /// step the vertex if mail arrives.
    ///
    /// A slot schedule — act once, in round `slot` — is "`ctx.wake_in(slot)` in `init`,
    /// act when `inbox.round() == slot`", and costs the executor nothing for the rounds
    /// the vertex waits through.  If one invocation requests several wake-ups, only the
    /// earliest is kept; the vertex can request the next one when it runs.  A wake-up
    /// requested in an invocation that returns [`Status::Halted`] has no effect.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` (a vertex cannot act again in the round it is running).
    pub fn wake_in(&self, rounds: usize) {
        assert!(rounds >= 1, "a wake-up must lie at least one round ahead");
        self.wake.fetch_min(rounds, Ordering::Relaxed);
    }

    /// Consumes the wake-up offset requested during the preceding `init`/`round` call.
    pub(crate) fn take_wake(&self) -> Option<usize> {
        match self.wake.swap(NO_WAKE, Ordering::Relaxed) {
            NO_WAKE => None,
            rounds => Some(rounds),
        }
    }
}

impl Clone for NodeCtx {
    fn clone(&self) -> Self {
        NodeCtx {
            vertex: self.vertex,
            id: self.id,
            n: self.n,
            id_space: self.id_space,
            degree: self.degree,
            neighbor_ids: self.neighbor_ids.clone(),
            wake: AtomicUsize::new(self.wake.load(Ordering::Relaxed)),
        }
    }
}

/// Whether a node keeps participating after the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The node wants to receive the next round's messages.
    Active,
    /// The node's output is final; it sends the messages produced in this round and then
    /// stops participating.
    Halted,
}

/// Messages delivered to a node at the start of a round, plus the round's number.
///
/// Logically a sequence of `(port, message)` pairs, where `port` is the receiving vertex's
/// port towards the sender.  Two physical representations exist: a plain pair slice
/// ([`Inbox::new`], used by the reference executor and tests) and the vertex's window of the
/// executor's bitmap mailboxes (`Inbox::from_bitmap`).  Iteration order is identical in
/// both: ports ascending — which equals sender-index ascending, because adjacency lists are
/// sorted — with multiple messages from the same port kept in send order.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    repr: InboxRepr<'a, M>,
    round: usize,
}

/// Physical layout of an [`Inbox`].
#[derive(Debug)]
enum InboxRepr<'a, M> {
    /// `(port, message)` pairs in delivery order.
    Pairs(&'a [(usize, M)]),
    /// One vertex's window of the bitmap mailboxes.
    Bitmap {
        /// The fabric's slots, indexed by arc; a slot is current only while its bit is set.
        slots: &'a [Option<M>],
        /// The fabric's arc occupancy bitmap (bit `a % 64` of word `a / 64` ⇔ arc `a`).
        bits: &'a [u64],
        /// Overflow `(arc, message)` pairs of this vertex's arcs, sorted by arc with send
        /// order kept within an arc.
        spill: &'a [(usize, M)],
        /// This vertex's arcs are `start..end`; `port = arc - start`.
        start: usize,
        end: usize,
    },
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps a slice of `(port, message)` pairs, at round 0 until [`with_round`](Self::with_round)
    /// sets it.
    ///
    /// This representation is deliberately kept alive alongside the bitmap one: the
    /// [`ReferenceExecutor`](crate::ReferenceExecutor) oracle must share no fabric code with
    /// the executors it checks, so it builds its inboxes from plain per-vertex pair vectors
    /// through this constructor (as do hand-rolled node-program tests).
    pub fn new(messages: &'a [(usize, M)]) -> Self {
        Inbox { repr: InboxRepr::Pairs(messages), round: 0 }
    }

    /// Sets the round number [`round`](Self::round) reports.
    #[must_use]
    pub fn with_round(mut self, round: usize) -> Self {
        self.round = round;
        self
    }

    /// Wraps the window `arcs` of the bitmap mailboxes (`spill` is the window's share of the
    /// sorted spill) for round `round`.
    pub(crate) fn from_bitmap(
        slots: &'a [Option<M>],
        bits: &'a [u64],
        spill: &'a [(usize, M)],
        arcs: std::ops::Range<usize>,
        round: usize,
    ) -> Self {
        Inbox {
            repr: InboxRepr::Bitmap { slots, bits, spill, start: arcs.start, end: arcs.end },
            round,
        }
    }

    /// The number of the round being delivered, 1-based: `init` runs in round 0, and the
    /// messages it sends arrive in round 1.  Every executor reports the same number, so a
    /// slot-scheduled program can act "when `inbox.round() == slot`" (see
    /// [`NodeCtx::wake_in`]).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Iterates over `(port, &message)` pairs (ports ascending; same-port messages in send
    /// order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + '_ {
        match self.repr {
            InboxRepr::Pairs(messages) => InboxIter::Pairs(messages.iter()),
            InboxRepr::Bitmap { slots, bits, spill, start, end } => InboxIter::Bitmap {
                slots,
                bits,
                spill,
                spos: 0,
                start,
                end,
                word_index: start / 64,
                word: if start < end { window_word(bits, start / 64, start, end) } else { 0 },
                current: None,
            },
        }
    }

    /// The first message received from the neighbor at `port`, if any.
    ///
    /// O(1) on the bitmap representation (one bit test, one slot read), O(len) on the pair
    /// slice.
    pub fn from_port(&self, port: usize) -> Option<&'a M> {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.iter().find(|(p, _)| *p == port).map(|(_, m)| m),
            InboxRepr::Bitmap { slots, bits, start, end, .. } => {
                let arc = start + port;
                if arc < end && bits[arc / 64] >> (arc % 64) & 1 == 1 {
                    slots[arc].as_ref()
                } else {
                    None
                }
            }
        }
    }

    /// Number of messages received this round.
    pub fn len(&self) -> usize {
        match self.repr {
            InboxRepr::Pairs(messages) => messages.len(),
            InboxRepr::Bitmap { bits, spill, start, end, .. } => {
                if start == end {
                    return 0;
                }
                let slotted: u32 = (start / 64..=(end - 1) / 64)
                    .map(|w| window_word(bits, w, start, end).count_ones())
                    .sum();
                slotted as usize + spill.len()
            }
        }
    }

    /// Whether no messages were received this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Word `w` of `bits`, masked to the arcs `start..end` (which must be non-empty and overlap
/// the word).
#[inline]
fn window_word(bits: &[u64], w: usize, start: usize, end: usize) -> u64 {
    let mut word = bits[w];
    if w == start / 64 {
        word &= u64::MAX << (start % 64);
    }
    if w == (end - 1) / 64 && end % 64 != 0 {
        word &= (1u64 << (end % 64)) - 1;
    }
    word
}

/// Iterator behind [`Inbox::iter`], merging slots and spill in port order.
enum InboxIter<'a, M> {
    Pairs(std::slice::Iter<'a, (usize, M)>),
    Bitmap {
        slots: &'a [Option<M>],
        bits: &'a [u64],
        spill: &'a [(usize, M)],
        spos: usize,
        start: usize,
        end: usize,
        /// The bitmap word being scanned, and its not-yet-yielded window bits.
        word_index: usize,
        word: u64,
        /// Arc whose spill entries are being drained (its slot message was already
        /// yielded).
        current: Option<usize>,
    },
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<(usize, &'a M)> {
        match self {
            InboxIter::Pairs(iter) => iter.next().map(|(p, m)| (*p, m)),
            InboxIter::Bitmap {
                slots,
                bits,
                spill,
                spos,
                start,
                end,
                word_index,
                word,
                current,
            } => {
                if let Some(arc) = *current {
                    if let Some((a, m)) = spill.get(*spos) {
                        if *a == arc {
                            *spos += 1;
                            return Some((arc - *start, m));
                        }
                    }
                    *current = None;
                }
                while *word == 0 {
                    *word_index += 1;
                    if *start >= *end || *word_index * 64 >= *end {
                        return None;
                    }
                    *word = window_word(bits, *word_index, *start, *end);
                }
                let arc = *word_index * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                *current = Some(arc);
                let message = slots[arc].as_ref().expect("an occupied arc holds a message");
                Some((arc - *start, message))
            }
        }
    }
}

/// Messages a node wants delivered to its neighbors at the start of the next round.
#[derive(Debug)]
pub struct Outbox<M> {
    messages: Vec<(usize, M)>,
    degree: usize,
}

impl<M: Clone> Outbox<M> {
    /// Creates an empty outbox for a vertex of the given degree.
    pub fn new(degree: usize) -> Self {
        Outbox { messages: Vec::new(), degree }
    }

    /// Re-targets the outbox at a vertex of the given degree, clearing queued messages but
    /// keeping the buffer's capacity — the executors reuse one outbox across all vertices
    /// so steady-state rounds allocate nothing.
    pub fn reset(&mut self, degree: usize) {
        self.messages.clear();
        self.degree = degree;
    }

    /// Sends `message` to the neighbor at `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a valid port of this vertex.
    pub fn send(&mut self, port: usize, message: M) {
        assert!(port < self.degree, "port {port} out of range (degree {})", self.degree);
        self.messages.push((port, message));
    }

    /// Sends a copy of `message` to every neighbor.
    pub fn broadcast(&mut self, message: M) {
        for port in 0..self.degree {
            self.messages.push((port, message.clone()));
        }
    }

    /// Number of messages queued.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Removes and returns the queued `(port, message)` pairs, keeping the buffer capacity.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, M)> + '_ {
        self.messages.drain(..)
    }

    /// Consumes the outbox, returning the queued `(port, message)` pairs.
    pub fn into_messages(self) -> Vec<(usize, M)> {
        self.messages
    }
}

/// The per-vertex state machine of a distributed algorithm.
///
/// The executor drives it as follows: `init` runs before the first communication round (for
/// **every** vertex) and may queue messages; then, in every round, the messages queued in the
/// previous step are delivered and `round` is invoked.  When a node returns
/// [`Status::Halted`], the messages it queued in that invocation are still delivered, but it
/// takes no further part in the execution.  `output` is read once the whole network has
/// halted.
///
/// # Activation contract
///
/// A round only invokes `round` on the **frontier**: vertices that either received at least
/// one message in that round or have a wake-up due in it — requested with
/// [`NodeCtx::wake_next_round`] in their previous invocation, or with
/// [`NodeCtx::wake_in`]`(k)` in the invocation of round `r − k`.  Quiescent vertices are
/// free — a round costs O(|frontier| + messages), not O(n).  This puts one obligation on
/// node programs:
///
/// * A program that must act without incoming mail (an internal round counter, a phase
///   machine) calls `ctx.wake_next_round()` in every invocation after which it still wants
///   to run.  A wake-up covers exactly one round, so "wake while [`Status::Active`]" is the
///   usual idiom.
/// * A program that acts at a known round (a slot schedule) calls `ctx.wake_in(k)` once and
///   reads the round number from [`Inbox::round`] instead of counting invocations, so the
///   rounds it waits through cost nothing.  Mail can still step it early; it must then act
///   on the mail alone.
/// * A purely message-driven program (acts only when mail arrives, empty-inbox rounds would
///   be no-ops) needs no change — it is simply not invoked until mail shows up, which is
///   where the O(|frontier|) rounds come from.
///
/// An active vertex that is skipped in a round observes nothing: skipping a no-op invocation
/// is indistinguishable from running it.  The [`ReferenceExecutor`](crate::ReferenceExecutor)
/// oracle still invokes every active vertex every round (with the same
/// [`Inbox::round`]) and ignores wake-ups, so the bit-identity suites double as a check that
/// converted programs treat a skipped no-op round and an executed one identically.
pub trait NodeProgram {
    /// Message type exchanged by this algorithm.  The [`MessageCost`](crate::cost::MessageCost)
    /// bound is what lets the executors account CONGEST bandwidth for every algorithm.
    type Msg: Clone + crate::cost::MessageCost;
    /// Per-vertex output of the algorithm.
    type Output;

    /// Local initialization; may queue the messages of the first round.
    fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<Self::Msg>) -> Status;

    /// One synchronous round: consume the delivered messages, queue the next round's messages.
    fn round(
        &mut self,
        ctx: &NodeCtx,
        inbox: &Inbox<'_, Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
    ) -> Status;

    /// The final output of this vertex.
    fn output(&self, ctx: &NodeCtx) -> Self::Output;
}

/// A distributed algorithm: a factory of node programs plus a display name.
///
/// The factory receives the [`NodeCtx`] of the vertex, so per-vertex inputs computed by a
/// previous phase (an orientation, a defective coloring, …) can be embedded into the node
/// program at construction time — exactly as in the paper, where the output of one procedure
/// is locally known to each vertex when the next procedure starts.
pub trait Algorithm {
    /// The node program type.
    type Node: NodeProgram;

    /// Creates the node program for the vertex described by `ctx`.
    fn node(&self, ctx: &NodeCtx) -> Self::Node;

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str {
        "algorithm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        let mut out: Outbox<u32> = Outbox::new(3);
        assert!(out.is_empty());
        out.send(1, 7);
        out.broadcast(9);
        assert_eq!(out.len(), 4);
        let msgs = out.into_messages();
        assert_eq!(msgs[0], (1, 7));
        assert_eq!(msgs.len(), 4);
    }

    #[test]
    fn outbox_reset_retargets_and_clears() {
        let mut out: Outbox<u32> = Outbox::new(1);
        out.send(0, 3);
        out.reset(2);
        assert!(out.is_empty());
        out.send(1, 4); // port 1 is valid after the reset to degree 2
        assert_eq!(out.drain().collect::<Vec<_>>(), vec![(1, 4)]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outbox_rejects_bad_port() {
        let mut out: Outbox<u32> = Outbox::new(2);
        out.send(2, 1);
    }

    #[test]
    fn inbox_lookup() {
        let raw = vec![(0usize, 5u32), (2, 7)];
        let inbox = Inbox::new(&raw);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from_port(2), Some(&7));
        assert_eq!(inbox.from_port(1), None);
        let collected: Vec<_> = inbox.iter().collect();
        assert_eq!(collected, vec![(0, &5), (2, &7)]);
    }

    /// Slots, occupancy bits and spill of a hand-built bitmap fabric.
    type Fabric = (Vec<Option<u32>>, Vec<u64>, Vec<(usize, u32)>);

    /// Builds a bitmap fabric over `num_arcs` arcs holding `(arc, message)` deliveries in
    /// order: the first message per arc in its slot, the rest in the spill.
    fn fabric(num_arcs: usize, deliveries: &[(usize, u32)]) -> Fabric {
        let mut slots = vec![None; num_arcs];
        let mut bits = vec![0u64; num_arcs.div_ceil(64)];
        let mut spill = Vec::new();
        for &(arc, message) in deliveries {
            if bits[arc / 64] >> (arc % 64) & 1 == 0 {
                bits[arc / 64] |= 1 << (arc % 64);
                slots[arc] = Some(message);
            } else {
                spill.push((arc, message));
            }
        }
        (slots, bits, spill)
    }

    /// The same deliveries as a pair inbox of the vertex owning `arcs`.
    fn pairs(arcs: std::ops::Range<usize>, deliveries: &[(usize, u32)]) -> Vec<(usize, u32)> {
        let mut pairs: Vec<(usize, u32)> = deliveries
            .iter()
            .filter(|(arc, _)| arcs.contains(arc))
            .map(|&(arc, m)| (arc - arcs.start, m))
            .collect();
        pairs.sort_by_key(|&(port, _)| port); // stable: send order within a port
        pairs
    }

    fn assert_views_agree(
        num_arcs: usize,
        arcs: std::ops::Range<usize>,
        deliveries: &[(usize, u32)],
    ) {
        let (slots, bits, spill) = fabric(num_arcs, deliveries);
        let mut window: Vec<(usize, u32)> =
            spill.into_iter().filter(|(arc, _)| arcs.contains(arc)).collect();
        window.sort_by_key(|&(arc, _)| arc); // stable: send order within an arc
        let inbox = Inbox::from_bitmap(&slots, &bits, &window, arcs.clone(), 3);
        let expected = pairs(arcs.clone(), deliveries);
        let reference = Inbox::new(&expected).with_round(3);
        assert_eq!(inbox.round(), 3);
        assert_eq!(inbox.len(), reference.len(), "len on {arcs:?}");
        assert_eq!(inbox.is_empty(), reference.is_empty());
        assert_eq!(inbox.iter().collect::<Vec<_>>(), reference.iter().collect::<Vec<_>>());
        for port in 0..arcs.len() + 2 {
            assert_eq!(inbox.from_port(port), reference.from_port(port), "port {port} of {arcs:?}");
        }
    }

    #[test]
    fn slot_inbox_matches_pair_inbox() {
        // A degree-4 vertex whose arcs are 10..14; ports 0 and 2 received one message each,
        // port 3 received three (one slotted + two spilled).  Neighbors' arcs 9 and 14 are
        // occupied too and must stay out of the window.
        let deliveries = [(10, 5), (9, 1), (13, 9), (12, 7), (13, 11), (14, 2), (13, 13)];
        let (slots, bits, spill) = fabric(20, &deliveries);
        let inbox = Inbox::from_bitmap(&slots, &bits, &spill, 10..14, 1);
        assert_eq!(inbox.len(), 5);
        assert_eq!(inbox.from_port(0), Some(&5));
        assert_eq!(inbox.from_port(1), None);
        assert_eq!(inbox.from_port(3), Some(&9));
        assert_eq!(inbox.from_port(9), None);
        let collected: Vec<_> = inbox.iter().collect();
        assert_eq!(collected, vec![(0, &5), (2, &7), (3, &9), (3, &11), (3, &13)]);
        assert_views_agree(20, 10..14, &deliveries);

        let empty: Inbox<'_, u32> = Inbox::from_bitmap(&slots, &bits, &[], 11..12, 1);
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        let isolated: Inbox<'_, u32> = Inbox::from_bitmap(&slots, &bits, &[], 12..12, 1);
        assert!(isolated.is_empty());
        assert_eq!(isolated.iter().count(), 0);
        assert_eq!(isolated.from_port(0), None);
    }

    #[test]
    fn bitmap_windows_straddle_words_and_exceed_one_word() {
        // Windows that end exactly on, start exactly on, and straddle word boundaries, plus
        // a degree-150 window spanning three words, with every second arc occupied and a
        // spill on the first and last arc of each window.
        for arcs in [60..70, 64..128, 0..64, 63..65, 5..155, 127..128] {
            let mut deliveries: Vec<(usize, u32)> =
                arcs.clone().step_by(2).map(|a| (a, a as u32)).collect();
            deliveries.push((arcs.start, 1000));
            deliveries.push((arcs.end - 1, 2000));
            deliveries.push((arcs.end - 1, 2001));
            // Traffic just outside the window.
            deliveries.push((arcs.end, 3000));
            if arcs.start > 0 {
                deliveries.push((arcs.start - 1, 4000));
            }
            assert_views_agree(256, arcs, &deliveries);
        }
    }

    #[test]
    fn neighbor_ids_window_views_the_shared_table() {
        let table: Arc<[u64]> = vec![9, 4, 7, 2].into();
        let view = NeighborIds::from_table(Arc::clone(&table), 1..3);
        assert_eq!(&*view, &[4, 7]);
        assert_eq!(view, NeighborIds::from_vec(vec![4, 7]));
        assert_eq!(format!("{view:?}"), "[4, 7]");
    }

    #[test]
    fn ctx_port_lookup() {
        let ctx = NodeCtx::new(0, 3, 4, 4, 2, NeighborIds::from_vec(vec![9, 4]));
        assert_eq!(ctx.port_of_neighbor_id(4), Some(1));
        assert_eq!(ctx.port_of_neighbor_id(8), None);
    }

    #[test]
    fn wakeup_flag_is_consumed_once_and_survives_clone() {
        let ctx = NodeCtx::new(0, 1, 1, 1, 0, NeighborIds::from_vec(vec![]));
        assert_eq!(ctx.take_wake(), None);
        ctx.wake_next_round();
        ctx.wake_next_round(); // idempotent
        let copy = ctx.clone();
        assert_eq!(ctx.take_wake(), Some(1));
        assert_eq!(ctx.take_wake(), None, "the flag covers exactly one drain");
        assert_eq!(copy.take_wake(), Some(1), "a clone carries the pending wakeup");
    }

    #[test]
    fn the_earliest_requested_wake_up_wins() {
        let ctx = NodeCtx::new(0, 1, 1, 1, 0, NeighborIds::from_vec(vec![]));
        ctx.wake_in(5);
        ctx.wake_in(3);
        ctx.wake_in(9);
        assert_eq!(ctx.take_wake(), Some(3));
        ctx.wake_in(4);
        ctx.wake_next_round();
        assert_eq!(ctx.take_wake(), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one round ahead")]
    fn a_wake_up_in_the_current_round_is_rejected() {
        NodeCtx::new(0, 1, 1, 1, 0, NeighborIds::from_vec(vec![])).wake_in(0);
    }
}
