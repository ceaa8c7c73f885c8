//! The coloring service: a protocol-agnostic state machine and the TCP daemon around it.
//!
//! [`ColoringService`] owns a [`DynamicColoring`] plus an epoch counter and a bounded
//! snapshot history; [`ColoringService::handle`] maps every
//! [`Request`] to a [`Response`] with no I/O at all, which is what the unit and
//! integration tests drive.  [`ServiceServer`] wraps that state machine in a `std::net`
//! TCP accept loop — one thread per connection, a shared `Mutex` around the state with a
//! per-request acquisition deadline (expired deadlines become typed
//! [`ServiceError::Timeout`] replies instead of stalled sockets), and a cooperative
//! shutdown path that unblocks the accept loop with a self-connection.
//!
//! The snapshot history holds no copies of the coloring.  Each epoch stores its diff, the
//! `(vertex, previous color)` pairs of [`DynamicColoring::last_recolored`], so recording
//! an epoch costs O(recolored vertices) — a couple of entries for a typical local repair.
//! `Snapshot(e)` copies the current colors and undoes the diffs of the epochs after `e`,
//! newest first.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use arbcolor::dynamic::DynamicColoring;
use arbcolor::CoreError;
use arbcolor_graph::{Color, Graph, GraphError, Vertex};
use arbcolor_runtime::obs;

use crate::protocol::{read_frame, write_frame, Request, Response, ServiceError, ServiceStats};

/// Tunables of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// How long a request may wait for the service state before it is answered with
    /// [`ServiceError::Timeout`].
    pub request_timeout: Duration,
    /// How long a connection may sit idle between frames before it is closed.
    pub idle_timeout: Duration,
    /// How many epoch snapshots [`Request::Snapshot`] can reach back through.
    pub snapshot_history: usize,
    /// Whether deletion batches trigger automatic palette compaction (see
    /// [`DynamicColoring::with_auto_compact`]).
    pub auto_compact: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            request_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            snapshot_history: 8,
            auto_compact: false,
        }
    }
}

/// The protocol-agnostic service state machine.
///
/// Owns the dynamic coloring, stamps every successful mutation with a fresh epoch, and
/// can reconstruct the last [`ServiceConfig::snapshot_history`] colorings so clients can
/// read consistent snapshots slightly behind the write head.  All I/O lives in
/// [`ServiceServer`]; this type is driven directly in tests and benchmarks.
#[derive(Debug)]
pub struct ColoringService {
    dynamic: DynamicColoring,
    config: ServiceConfig,
    epoch: u64,
    /// The diffs of the newest retained epochs, oldest first: the last entry turns epoch
    /// `epoch - 1` into `epoch`.  Epochs `epoch - diffs.len() ..= epoch` can be served.
    diffs: VecDeque<Vec<(Vertex, Color)>>,
    shutdown_requested: bool,
    batches: u64,
    new_edges: u64,
    removed_edges: u64,
    repaired: u64,
    compactions: u64,
    queries: u64,
}

impl ColoringService {
    /// Starts a service over `graph`, computing the initial coloring (epoch 0).
    ///
    /// # Errors
    ///
    /// Propagates any failure of the initial coloring pass.
    pub fn new(graph: Graph, config: ServiceConfig) -> Result<Self, CoreError> {
        let dynamic = DynamicColoring::new(graph)?.with_auto_compact(config.auto_compact);
        Ok(ColoringService {
            dynamic,
            config,
            epoch: 0,
            diffs: VecDeque::new(),
            shutdown_requested: false,
            batches: 0,
            new_edges: 0,
            removed_edges: 0,
            repaired: 0,
            compactions: 0,
            queries: 0,
        })
    }

    /// Starts a service over an edgeless graph on `n` vertices.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction and initial-coloring failures.
    pub fn empty(n: usize, config: ServiceConfig) -> Result<Self, CoreError> {
        let graph = Graph::from_edges(n, Vec::new())?;
        ColoringService::new(graph, config)
    }

    /// The epoch of the most recent successful mutation (0 right after construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a [`Request::Shutdown`] has been absorbed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Read access to the maintained dynamic coloring.
    pub fn dynamic(&self) -> &DynamicColoring {
        &self.dynamic
    }

    /// The oldest epoch `Snapshot` can still serve.
    fn oldest_epoch(&self) -> u64 {
        self.epoch - self.diffs.len() as u64
    }

    /// Stamps the mutation just made with a fresh epoch and records its diff, evicting
    /// the diffs of epochs that fell out of the history.
    fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.diffs.push_back(self.dynamic.last_recolored().to_vec());
        while self.diffs.len() >= self.config.snapshot_history.max(1) {
            self.diffs.pop_front();
        }
    }

    /// The coloring at `epoch`, if the history still reaches it: the current colors with
    /// the diffs of every later epoch undone, newest first.
    fn colors_at(&self, epoch: u64) -> Option<Vec<Color>> {
        if epoch < self.oldest_epoch() || epoch > self.epoch {
            return None;
        }
        let mut colors = self.dynamic.coloring().colors().to_vec();
        for diff in self.diffs.iter().rev().take((self.epoch - epoch) as usize) {
            for &(v, old) in diff.iter().rev() {
                colors[v] = old;
            }
        }
        Some(colors)
    }

    /// Handles one request, mutating the state as needed.  Never panics on bad input —
    /// every failure mode is a typed [`Response::Error`].
    pub fn handle(&mut self, request: Request) -> Response {
        obs::incr_counter("service.requests", 1);
        let response = self.dispatch(request);
        if matches!(response, Response::Error(_)) {
            obs::incr_counter("service.errors", 1);
        }
        response
    }

    fn dispatch(&mut self, request: Request) -> Response {
        match request {
            Request::Apply(updates) => match self.dynamic.apply(&updates) {
                Ok(outcome) => {
                    self.batches += 1;
                    self.new_edges += outcome.new_edges as u64;
                    self.removed_edges += outcome.removed_edges as u64;
                    self.repaired += outcome.repaired.len() as u64;
                    if outcome.compaction.is_some() {
                        self.compactions += 1;
                    }
                    self.advance_epoch();
                    Response::Applied {
                        epoch: self.epoch,
                        submitted_edges: outcome.submitted_edges as u64,
                        new_edges: outcome.new_edges as u64,
                        removed_edges: outcome.removed_edges as u64,
                        frontier: outcome.frontier as u64,
                        repaired: outcome.repaired.len() as u64,
                        strategy: outcome.strategy,
                        compacted: outcome.compaction.map(|delta| {
                            (
                                delta.colors_before as u64,
                                delta.colors_after as u64,
                                delta.recolored as u64,
                            )
                        }),
                    }
                }
                Err(err) => Response::Error(core_error_to_service(&err)),
            },
            Request::QueryColors(vertices) => {
                let n = self.dynamic.n();
                let mut colors = Vec::with_capacity(vertices.len());
                for v in vertices {
                    if v >= n {
                        return Response::Error(ServiceError::VertexOutOfRange {
                            vertex: v as u64,
                            n: n as u64,
                        });
                    }
                    colors.push(self.dynamic.coloring().colors()[v]);
                }
                self.queries += colors.len() as u64;
                Response::Colors(colors)
            }
            Request::Snapshot(epoch) => {
                let requested = epoch.unwrap_or(self.epoch);
                match self.colors_at(requested) {
                    Some(colors) => Response::Snapshot { epoch: requested, colors },
                    None => Response::Error(ServiceError::EpochUnavailable {
                        requested,
                        oldest: self.oldest_epoch(),
                        newest: self.epoch,
                    }),
                }
            }
            Request::Stats => Response::Stats(ServiceStats {
                n: self.dynamic.n() as u64,
                m: self.dynamic.m() as u64,
                epoch: self.epoch,
                colors: self.dynamic.coloring().distinct_colors() as u64,
                max_degree: self.dynamic.max_degree() as u64,
                batches: self.batches,
                new_edges: self.new_edges,
                removed_edges: self.removed_edges,
                repaired: self.repaired,
                compactions: self.compactions,
                queries: self.queries,
            }),
            Request::Compact => {
                let delta = self.dynamic.compact();
                self.compactions += 1;
                self.advance_epoch();
                Response::Compacted {
                    epoch: self.epoch,
                    colors_before: delta.colors_before as u64,
                    colors_after: delta.colors_after as u64,
                    recolored: delta.recolored as u64,
                }
            }
            Request::Verify => {
                let conflicts = self.dynamic.conflicts() as u64;
                Response::Verified { legal: conflicts == 0, conflicts }
            }
            Request::Shutdown => {
                self.shutdown_requested = true;
                Response::ShuttingDown
            }
        }
    }
}

fn core_error_to_service(err: &CoreError) -> ServiceError {
    match err {
        CoreError::Graph(GraphError::VertexOutOfRange { vertex, n }) => {
            ServiceError::VertexOutOfRange { vertex: *vertex as u64, n: *n as u64 }
        }
        CoreError::Graph(GraphError::SelfLoop { vertex }) => {
            ServiceError::SelfLoop { vertex: *vertex as u64 }
        }
        other => ServiceError::Internal { reason: other.to_string() },
    }
}

/// The TCP daemon: an accept loop serving a shared [`ColoringService`].
///
/// One OS thread per connection; all connections funnel through a single `Mutex` around
/// the state machine, so the update stream the service absorbs is totally ordered (which
/// is what makes replayed workloads bit-identical).  A request that cannot take the lock
/// within [`ServiceConfig::request_timeout`] gets a typed timeout reply instead of
/// blocking its connection forever.
#[derive(Debug)]
pub struct ServiceServer {
    listener: TcpListener,
    state: Arc<Mutex<ColoringService>>,
    config: ServiceConfig,
    shutdown: Arc<AtomicBool>,
}

impl ServiceServer {
    /// Binds a listener (use port 0 for an ephemeral port) around `service`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: ColoringService) -> io::Result<Self> {
        let config = service.config;
        Ok(ServiceServer {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(Mutex::new(service)),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a client sends
    /// [`Request::Shutdown`]; joins every connection thread before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (a shutdown-triggered close is not a failure).
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(err) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(err);
                }
            };
            let state = Arc::clone(&self.state);
            let config = self.config;
            let shutdown = Arc::clone(&self.shutdown);
            workers.push(thread::spawn(move || {
                serve_connection(stream, &state, &config, &shutdown, addr);
            }));
            // Reap finished workers so a long-lived daemon does not accumulate handles.
            let mut live = Vec::with_capacity(workers.len());
            for worker in workers.drain(..) {
                if worker.is_finished() {
                    let _ = worker.join();
                } else {
                    live.push(worker);
                }
            }
            workers = live;
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a handle exposing the bound
    /// address and a join point — the shape in-process tests and examples want.
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Join handle for a server running on a background thread (see [`ServiceServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the background server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (i.e. for a client to send [`Request::Shutdown`]).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O result; a panicked server thread surfaces as
    /// [`io::ErrorKind::Other`].
    pub fn join(self) -> io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Locks `state` with a deadline; `None` means the deadline expired.
fn lock_with_deadline<'a>(
    state: &'a Mutex<ColoringService>,
    timeout: Duration,
) -> Option<std::sync::MutexGuard<'a, ColoringService>> {
    let deadline = Instant::now() + timeout;
    loop {
        match state.try_lock() {
            Ok(guard) => return Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => return Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    return None;
                }
                thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// A reader that replays one already-consumed byte before the underlying stream — lets
/// the connection loop poll for a frame's first byte in short slices (so it can observe
/// the shutdown flag) and still hand `read_frame` a stream positioned at the frame start.
struct Prefixed<'a> {
    first: Option<u8>,
    inner: &'a mut TcpStream,
}

impl Read for Prefixed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(byte) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(byte);
                return Ok(0);
            }
            buf[0] = byte;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

/// Polls for the first byte of the next frame in `slice`-sized steps, so a parked
/// connection notices `shutdown` within one slice instead of one idle timeout.  A read
/// interrupted by a signal is retried like a timed-out slice.
/// `None` = the connection should close (clean EOF, idle timeout, shutdown, or a
/// transport error); `Some(b)` = frame started.
fn await_frame_start(
    stream: &mut impl Read,
    config: &ServiceConfig,
    shutdown: &AtomicBool,
) -> Option<u8> {
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + config.idle_timeout;
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => return Some(byte[0]),
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // The socket's read timeout is the poll slice; between slices we only
                // check the shutdown flag and the connection's idle deadline.
                if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    state: &Mutex<ColoringService>,
    config: &ServiceConfig,
    shutdown: &AtomicBool,
    listener_addr: SocketAddr,
) {
    let slice = Duration::from_millis(100).min(config.idle_timeout.max(Duration::from_millis(1)));
    let _ = stream.set_nodelay(true);
    loop {
        // Phase 1: wait for the next frame to start, polling in short slices.
        let _ = stream.set_read_timeout(Some(slice));
        let Some(first) = await_frame_start(&mut stream, config, shutdown) else {
            break;
        };
        // Phase 2: the frame has started — read the rest of it under the idle timeout.
        let _ = stream.set_read_timeout(Some(config.idle_timeout));
        let mut reader = Prefixed { first: Some(first), inner: &mut stream };
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean close at a frame boundary
            Err(err) => {
                // Surface a typed reply when we still can (an oversized length prefix,
                // say), then drop the connection: the stream is no longer frame-aligned.
                if let Some(service_err) =
                    err.get_ref().and_then(|inner| inner.downcast_ref::<ServiceError>())
                {
                    let reply = Response::Error(service_err.clone());
                    let _ = write_frame(&mut stream, &reply.encode());
                }
                break;
            }
        };
        let reply = match Request::decode(&payload) {
            // A malformed payload inside a well-framed message is recoverable: reply
            // with the typed error and keep the connection open.
            Err(err) => Response::Error(err),
            Ok(request) => match lock_with_deadline(state, config.request_timeout) {
                None => Response::Error(ServiceError::Timeout {
                    millis: config.request_timeout.as_millis() as u64,
                }),
                Some(mut service) => service.handle(request),
            },
        };
        let shutting_down = matches!(reply, Response::ShuttingDown);
        if write_frame(&mut stream, &reply.encode()).is_err() {
            break;
        }
        if shutting_down {
            shutdown.store(true, Ordering::SeqCst);
            // The accept loop is parked in `accept`; poke it awake so it can observe the
            // flag and exit.  The connect target is our own listener, so this cannot
            // escape the process.
            let _ = TcpStream::connect_timeout(&listener_addr, Duration::from_secs(1));
            break;
        }
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor::dynamic::GraphUpdate;
    use arbcolor_graph::Vertex;

    fn service(n: usize) -> ColoringService {
        ColoringService::empty(n, ServiceConfig::default()).expect("empty service")
    }

    #[test]
    fn mutations_advance_epochs_and_snapshots_reach_back() {
        let mut svc = service(6);
        assert_eq!(svc.epoch(), 0);
        let reply =
            svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 1), (1, 2)])]));
        match reply {
            Response::Applied { epoch, new_edges, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(new_edges, 2);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(2, 3)])]));
        // The epoch-0 snapshot (all zeros on an edgeless graph) is still retained.
        match svc.handle(Request::Snapshot(Some(0))) {
            Response::Snapshot { epoch, colors } => {
                assert_eq!(epoch, 0);
                assert_eq!(colors, vec![0; 6]);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
        match svc.handle(Request::Snapshot(None)) {
            Response::Snapshot { epoch, colors } => {
                assert_eq!(epoch, 2);
                assert_eq!(colors.len(), 6);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn evicted_epochs_report_the_retained_range() {
        let config = ServiceConfig { snapshot_history: 2, ..ServiceConfig::default() };
        let mut svc = ColoringService::empty(4, config).unwrap();
        for edge in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![edge])]));
        }
        match svc.handle(Request::Snapshot(Some(0))) {
            Response::Error(ServiceError::EpochUnavailable { requested, oldest, newest }) => {
                assert_eq!(requested, 0);
                assert_eq!(newest, 4);
                assert!(oldest > 0 && oldest <= newest);
            }
            other => panic!("expected EpochUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn bad_edges_and_bad_queries_become_typed_errors() {
        let mut svc = service(4);
        match svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 9)])])) {
            Response::Error(ServiceError::VertexOutOfRange { vertex: 9, n: 4 }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        match svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(2, 2)])])) {
            Response::Error(ServiceError::SelfLoop { vertex: 2 }) => {}
            other => panic!("expected SelfLoop, got {other:?}"),
        }
        match svc.handle(Request::QueryColors(vec![0, 11])) {
            Response::Error(ServiceError::VertexOutOfRange { vertex: 11, n: 4 }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        // A failed batch leaves the epoch (and therefore the coloring) untouched.
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn verify_compact_stats_and_shutdown_round_out_the_protocol() {
        let mut svc = service(8);
        let clique: Vec<(Vertex, Vertex)> =
            (0..6).flat_map(|u| (u + 1..6).map(move |v| (u, v))).collect();
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(clique.clone())]));
        match svc.handle(Request::Verify) {
            Response::Verified { legal: true, conflicts: 0 } => {}
            other => panic!("expected a legal verification, got {other:?}"),
        }
        // Delete most of the clique, then compact: colors must not increase.
        let doomed: Vec<(Vertex, Vertex)> =
            clique.iter().copied().filter(|&(u, _)| u >= 1).collect();
        svc.handle(Request::Apply(vec![GraphUpdate::RemoveEdges(doomed)]));
        let (before, after) = match svc.handle(Request::Compact) {
            Response::Compacted { colors_before, colors_after, .. } => {
                (colors_before, colors_after)
            }
            other => panic!("expected Compacted, got {other:?}"),
        };
        assert!(after <= before);
        match svc.handle(Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!(stats.n, 8);
                assert_eq!(stats.batches, 2);
                assert_eq!(stats.compactions, 1);
                assert_eq!(stats.colors, after);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        assert!(!svc.shutdown_requested());
        assert!(matches!(svc.handle(Request::Shutdown), Response::ShuttingDown));
        assert!(svc.shutdown_requested());
    }

    fn snapshot(svc: &mut ColoringService, epoch: Option<u64>) -> (u64, Vec<u64>) {
        match svc.handle(Request::Snapshot(epoch)) {
            Response::Snapshot { epoch, colors } => (epoch, colors),
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    fn edge_count(svc: &mut ColoringService) -> u64 {
        match svc.handle(Request::Stats) {
            Response::Stats(stats) => stats.m,
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_apply_leaves_the_epoch_and_the_snapshot_untouched() {
        let mut svc = service(6);
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 1), (1, 2), (2, 3)])]));
        let epoch = svc.epoch();
        let head = snapshot(&mut svc, None);
        let m = edge_count(&mut svc);
        // Valid edits (one conflicting, one removal) ahead of the bad edge must not land.
        let conflicting = (0..6).find(|&v| v != 0 && head.1[v] == head.1[0]).unwrap();
        for bad in [(4, 99), (5, 5)] {
            let reply = svc.handle(Request::Apply(vec![
                GraphUpdate::InsertEdges(vec![(0, conflicting), (4, 5)]),
                GraphUpdate::RemoveEdges(vec![(1, 2)]),
                GraphUpdate::InsertEdges(vec![bad]),
            ]));
            assert!(matches!(reply, Response::Error(_)), "expected an error, got {reply:?}");
            assert_eq!(svc.epoch(), epoch);
            assert_eq!(snapshot(&mut svc, None), head);
            assert_eq!(edge_count(&mut svc), m);
        }
    }

    #[test]
    fn every_retained_snapshot_matches_a_full_copy_model() {
        use crate::workload::{generate, WorkloadConfig, WorkloadOp};
        let config = ServiceConfig { snapshot_history: 5, ..ServiceConfig::default() };
        let mut svc = ColoringService::empty(96, config).unwrap();
        let ops = generate(&WorkloadConfig {
            n: 96,
            ops: 240,
            batch_size: 8,
            compact_every: 25,
            seed: 11,
            ..WorkloadConfig::default()
        });
        // The naive model: a full copy of the coloring at every epoch.
        let mut model: Vec<Vec<u64>> = vec![svc.dynamic().coloring().colors().to_vec()];
        for op in ops {
            let reply = match op {
                WorkloadOp::Apply(updates) => svc.handle(Request::Apply(updates)),
                WorkloadOp::QueryColors(vertices) => svc.handle(Request::QueryColors(vertices)),
                WorkloadOp::Compact => svc.handle(Request::Compact),
            };
            assert!(!matches!(reply, Response::Error(_)), "{reply:?}");
            if svc.epoch() as usize == model.len() {
                model.push(svc.dynamic().coloring().colors().to_vec());
            }
            assert_eq!(svc.epoch() as usize + 1, model.len());
            let oldest = svc.epoch().saturating_sub(4);
            for e in oldest..=svc.epoch() {
                assert_eq!(snapshot(&mut svc, Some(e)), (e, model[e as usize].clone()), "{e}");
            }
            if oldest > 0 {
                match svc.handle(Request::Snapshot(Some(oldest - 1))) {
                    Response::Error(ServiceError::EpochUnavailable {
                        oldest: o, newest, ..
                    }) => {
                        assert_eq!((o, newest), (oldest, svc.epoch()));
                    }
                    other => panic!("expected EpochUnavailable, got {other:?}"),
                }
            }
        }
        assert!(svc.epoch() > 100);
        assert!(svc.compactions > 0);
    }

    #[test]
    fn a_churn_stream_builds_no_csr() {
        use crate::workload::{generate, WorkloadConfig, WorkloadOp};
        use arbcolor::dynamic::RepairStrategy;
        use arbcolor_runtime::SpanCollector;
        let collector = SpanCollector::new();
        let full_recolors = {
            let _recording = obs::install(&collector);
            let mut svc = service(512);
            let ops = generate(&WorkloadConfig {
                n: 512,
                ops: 400,
                batch_size: 8,
                insert_weight: 1,
                remove_weight: 1,
                compact_every: 50,
                seed: 3,
                ..WorkloadConfig::default()
            });
            let mut full_recolors = 0u64;
            for (i, op) in ops.into_iter().enumerate() {
                let request = match op {
                    WorkloadOp::Apply(updates) => Request::Apply(updates),
                    WorkloadOp::QueryColors(vertices) => Request::QueryColors(vertices),
                    WorkloadOp::Compact => Request::Compact,
                };
                match svc.handle(request) {
                    Response::Applied { strategy, .. } => {
                        full_recolors += u64::from(strategy == RepairStrategy::FullRecolor);
                    }
                    Response::Error(err) => panic!("{err:?}"),
                    _ => {}
                }
                let side = match i % 3 {
                    0 => Request::Stats,
                    1 => Request::Snapshot(None),
                    _ => Request::Snapshot(Some(svc.epoch().saturating_sub(3))),
                };
                assert!(!matches!(svc.handle(side), Response::Error(_)));
            }
            assert!(matches!(
                svc.handle(Request::Verify),
                Response::Verified { legal: true, conflicts: 0 }
            ));
            full_recolors
        };
        let builds = collector
            .metrics()
            .counters()
            .find(|(name, _)| *name == "dynamic.csr_builds")
            .map_or(0, |(_, count)| count);
        assert!(collector.metrics().counters().any(|(name, _)| name == "dynamic.batches"));
        assert_eq!(builds, full_recolors);
        assert_eq!(builds, 0);
    }

    /// Fails its first read with `Interrupted` (a signal landed mid-read), then yields one
    /// byte.
    struct InterruptedOnce {
        interrupted: bool,
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            buf[0] = 0x2a;
            Ok(1)
        }
    }

    #[test]
    fn an_interrupted_read_is_retried_not_a_dropped_connection() {
        let mut reader = InterruptedOnce { interrupted: false };
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            await_frame_start(&mut reader, &ServiceConfig::default(), &shutdown),
            Some(0x2a)
        );
        assert!(reader.interrupted);
    }
}
