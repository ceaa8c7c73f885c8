//! The serve workloads: the `serviced` daemon over real TCP, driven by two closed-loop
//! client connections.
//!
//! The daemon is preloaded with the batch-forests graph of the same seed.  Each
//! connection replays its own seeded `workload::generate` stream, mapped onto its own
//! vertex class (connection `c` owns the vertices `≡ c mod 2`), so each connection can
//! predict exactly how many edges every `Apply` adds and removes, and the final edge
//! count does not depend on how the two streams interleave.  Every reply is checked;
//! after the timed window a final `Compact`, `Verify` and `Stats` check legality, the
//! edge count and the Δ+1 palette bound.  Daemon start-ups and one-second segments of
//! the window run between host probes and are scaled to the reference host (see
//! [`crate::probe`]); the daemon must stay idle while the host is probed.
//!
//! The traced run replays the same streams in-process against a `ColoringService`,
//! wrapping every protocol step in its own span, after a shorter TCP loop that supplies
//! the wire latencies the in-process times are subtracted from.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use arbcolor::dynamic::{GraphUpdate, RepairStrategy};
use arbcolor_graph::{io, Graph, Vertex};
use arbcolor_runtime::{obs, SpanCollector};
use arbcolor_service::protocol::{Request, Response, ServiceError};
use arbcolor_service::workload::{generate, WorkloadConfig, WorkloadOp};
use arbcolor_service::{ClientError, ColoringService, ServiceClient, ServiceConfig};

use crate::batch::{self, Family};
use crate::probe::{Probe, REFERENCE_MS};
use crate::report::{Report, Tally, KINDS};
use crate::spans::Tree;
use crate::stats::{median, quantile, tail};
use crate::Args;

/// Traffic mix of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 8-edge insert/remove batches 1:1, one query per two batches, a rare `Compact`.
    Write,
    /// About 99% 8-vertex queries with a `Snapshot` every 100th request, 1% writes.
    Read,
}

/// Client connections (and client threads); the host has two CPUs.
const CONNECTIONS: usize = 2;
/// Daemon start-ups per timed run; `setup_s` is their median.
const SPAWNS: usize = 3;
/// Untimed requests at the start of each connection's loop.
const WARMUP: Duration = Duration::from_millis(1000);
/// Generated operations per stream chunk.
const CHUNK: usize = 1024;
/// Target length of one measured segment between host probes.
const SEGMENT_S: f64 = 1.0;
/// How long a client waits for one reply before counting a dropped connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

const APPLY: usize = 0;
const QUERY: usize = 1;
const SNAPSHOT: usize = 2;
const COMPACT: usize = 3;

/// One client operation.
#[derive(Debug, Clone)]
enum Op {
    Apply(Vec<GraphUpdate>),
    Query(Vec<Vertex>),
    Snapshot,
    Compact,
}

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Apply(_) => APPLY,
            Op::Query(_) => QUERY,
            Op::Snapshot => SNAPSHOT,
            Op::Compact => COMPACT,
        }
    }

    fn request(&self) -> Request {
        match self {
            Op::Apply(updates) => Request::Apply(updates.clone()),
            Op::Query(vertices) => Request::QueryColors(vertices.clone()),
            Op::Snapshot => Request::Snapshot(None),
            Op::Compact => Request::Compact,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One connection's endless operation stream, generated in seeded chunks.
struct Stream {
    mix: Mix,
    conn: usize,
    seed: u64,
    chunk: u64,
    pending: std::vec::IntoIter<WorkloadOp>,
    issued: u64,
}

impl Stream {
    fn new(mix: Mix, conn: usize, seed: u64) -> Stream {
        Stream { mix, conn, seed, chunk: 0, pending: Vec::new().into_iter(), issued: 0 }
    }

    fn map(&self, v: Vertex) -> Vertex {
        CONNECTIONS * v + self.conn
    }

    fn next(&mut self) -> Op {
        self.issued += 1;
        if self.mix == Mix::Read && self.issued.is_multiple_of(100) {
            return Op::Snapshot;
        }
        let op = loop {
            if let Some(op) = self.pending.next() {
                break op;
            }
            let (query_weight, compact_every) = match self.mix {
                Mix::Write => (1, 250),
                Mix::Read => (198, 0),
            };
            let config = WorkloadConfig {
                n: batch::N / CONNECTIONS,
                ops: CHUNK,
                batch_size: 8,
                insert_weight: 1,
                remove_weight: 1,
                query_weight,
                compact_every,
                skew: 1.5,
                seed: splitmix(self.seed ^ splitmix(((self.conn as u64) << 32) | self.chunk)),
            };
            self.chunk += 1;
            self.pending = generate(&config).into_iter();
        };
        match op {
            WorkloadOp::Apply(updates) => Op::Apply(
                updates
                    .into_iter()
                    .map(|update| {
                        let edges = update
                            .edges()
                            .iter()
                            .map(|&(u, v)| (self.map(u), self.map(v)))
                            .collect();
                        if update.is_insert() {
                            GraphUpdate::InsertEdges(edges)
                        } else {
                            GraphUpdate::RemoveEdges(edges)
                        }
                    })
                    .collect(),
            ),
            WorkloadOp::QueryColors(vertices) => {
                Op::Query(vertices.into_iter().map(|v| self.map(v)).collect())
            }
            WorkloadOp::Compact => Op::Compact,
        }
    }
}

/// The edges of one connection's vertex class, as the daemon must hold them.
struct Model {
    present: HashSet<(Vertex, Vertex)>,
}

impl Model {
    fn new(graph: &Graph, conn: usize) -> Model {
        let present = graph
            .edges()
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .filter(|&(u, v)| u % CONNECTIONS == conn && v % CONNECTIONS == conn)
            .collect();
        Model { present }
    }

    /// Edges the batch must add and remove.  Generated batches never repeat an edge.
    fn expect(&self, updates: &[GraphUpdate]) -> (u64, u64) {
        let (mut new, mut removed) = (0, 0);
        for update in updates {
            for &(u, v) in update.edges() {
                let here = self.present.contains(&(u.min(v), u.max(v)));
                match (update.is_insert(), here) {
                    (true, false) => new += 1,
                    (false, true) => removed += 1,
                    _ => {}
                }
            }
        }
        (new, removed)
    }

    fn commit(&mut self, updates: &[GraphUpdate]) {
        for update in updates {
            for &(u, v) in update.edges() {
                let edge = (u.min(v), u.max(v));
                if update.is_insert() {
                    self.present.insert(edge);
                } else {
                    self.present.remove(&edge);
                }
            }
        }
    }
}

/// Checks one reply against the model, committing a successful `Apply`.  Returns the
/// net edge change on success and a description of the failure otherwise.
fn check_reply(op: &Op, reply: &Response, model: &mut Model, n: usize) -> Result<i64, String> {
    match (op, reply) {
        (Op::Apply(updates), Response::Applied { new_edges, removed_edges, .. }) => {
            let expected = model.expect(updates);
            if (*new_edges, *removed_edges) != expected {
                return Err(format!(
                    "apply changed ({new_edges}, {removed_edges}) edges, expected {expected:?}"
                ));
            }
            model.commit(updates);
            Ok(*new_edges as i64 - *removed_edges as i64)
        }
        (Op::Query(vertices), Response::Colors(colors)) if colors.len() == vertices.len() => Ok(0),
        (Op::Snapshot, Response::Snapshot { colors, .. }) if colors.len() == n => Ok(0),
        (Op::Compact, Response::Compacted { .. }) => Ok(0),
        (op, reply) => Err(format!("{op:?} got {reply:?}")),
    }
}

/// The daemon process, killed and reaped if dropped while still running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `serviced --dataset` and waits for its `listening on ADDR` line.
    fn spawn(bin: &Path, dataset: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0", "--dataset"])
            .arg(dataset)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("serviced did not start listening (first line {line:?})"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU time of every daemon thread so far, in ns (`/proc/<pid>/task/*/schedstat`).
    fn cpu_ns(&self) -> Option<u64> {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.pid())).ok()?;
        tasks
            .flatten()
            .map(|task| {
                let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
                stat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    }

    /// Probes the host, returning the probe time and the daemon's CPU time during the
    /// probe as a share of it (`None` if that cannot be read).
    fn probe(&self, probe: &mut Probe) -> (f64, Option<f64>) {
        let before = self.cpu_ns();
        let ms = probe.measure();
        let after = self.cpu_ns();
        (ms, before.zip(after).map(|(b, a)| a.saturating_sub(b) as f64 / 1e6 / ms))
    }

    /// Sends `Shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = ServiceClient::connect(self.addr.as_str()).and_then(|mut c| c.shutdown());
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("serviced exited with {status}, shutdown reply {sent:?}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("serviced did not exit after Shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The largest share of a CPU the daemon may use while the host is probed: enough for
/// its connection threads' 100 ms poll wake-ups.
const IDLE_CPU_SHARE: f64 = 0.05;

/// Checks that the daemon stayed idle during a host probe (`busy` is its CPU time
/// during the probe as a share of the probe).  Work of the daemon between requests
/// would slow the probe and so shrink the daemon's own scaled times; a run where it
/// happens is counted as failed instead.
fn check_idle(busy: Option<f64>, report: &mut Report) {
    report.check(busy.is_some_and(|share| share <= IDLE_CPU_SHARE), || match busy {
        Some(share) => format!(
            "serviced used {:.1}% of a CPU during a host probe (at most {:.0}% allowed)",
            share * 1e2,
            IDLE_CPU_SHARE * 1e2
        ),
        None => "cannot read the CPU time of serviced".to_string(),
    });
}

/// What one TCP connection measured.
#[derive(Default)]
struct ConnResult {
    tally: Tally,
    /// Client-side latency in ms per measured segment and request kind.
    latency: Vec<[Vec<f64>; 4]>,
    net_edges: i64,
    timeouts: u64,
}

fn send(client: &mut ServiceClient, op: &Op) -> Result<Response, ClientError> {
    match op {
        Op::Apply(updates) => client.apply(updates.clone()).map(|b| Response::Applied {
            epoch: b.epoch,
            submitted_edges: b.submitted_edges,
            new_edges: b.new_edges,
            removed_edges: b.removed_edges,
            frontier: b.frontier,
            repaired: b.repaired,
            strategy: b.strategy,
            compacted: b.compacted,
        }),
        Op::Query(vertices) => client.query_colors(vertices.clone()).map(Response::Colors),
        Op::Snapshot => {
            client.snapshot(None).map(|(epoch, colors)| Response::Snapshot { epoch, colors })
        }
        Op::Compact => client.compact().map(|(epoch, colors_before, colors_after, recolored)| {
            Response::Compacted { epoch, colors_before, colors_after, recolored }
        }),
    }
}

fn connect(addr: &str) -> Result<ServiceClient, ClientError> {
    let mut client = ServiceClient::connect(addr)?;
    client.set_reply_timeout(Some(REPLY_TIMEOUT))?;
    Ok(client)
}

/// One closed-loop connection and its checks.
struct Connection<'a> {
    addr: &'a str,
    conn: usize,
    client: Option<ServiceClient>,
    stream: Stream,
    model: Model,
    n: usize,
    out: ConnResult,
}

impl<'a> Connection<'a> {
    /// Connects client `conn` (a failed connect counts as a failure, and the
    /// connection then sends nothing).
    fn open(addr: &'a str, graph: &Graph, mix: Mix, seed: u64, conn: usize) -> Connection<'a> {
        let mut c = Connection {
            addr,
            conn,
            client: None,
            stream: Stream::new(mix, conn, seed),
            model: Model::new(graph, conn),
            n: graph.n(),
            out: ConnResult::default(),
        };
        match connect(addr) {
            Ok(client) => c.client = Some(client),
            Err(e) => {
                c.out.tally.check(false, || format!("connection {conn}: connect failed: {e}"))
            }
        }
        c
    }

    /// An untimed warm-up of [`WARMUP`], then `segments` measured segments of `segment`
    /// each.  Before each segment and after the last one, both clients wait at `barrier`
    /// while the main thread probes the host.
    fn run_segments(mut self, barrier: &Barrier, segments: usize, segment: Duration) -> ConnResult {
        self.run_until(Instant::now() + WARMUP, None);
        for _ in 0..segments {
            barrier.wait(); // idle while the host is probed
            barrier.wait(); // the segment starts
            let mut samples: [Vec<f64>; 4] = Default::default();
            self.run_until(Instant::now() + segment, Some(&mut samples));
            self.out.latency.push(samples);
        }
        barrier.wait();
        barrier.wait();
        self.out
    }

    /// Sends requests until `end`; with `samples`, records each latency by kind.
    fn run_until(&mut self, end: Instant, mut samples: Option<&mut [Vec<f64>; 4]>) {
        let conn = self.conn;
        while let Some(client) = self.client.as_mut() {
            let op = self.stream.next();
            let start = Instant::now();
            if start >= end {
                return;
            }
            let reply = send(client, &op);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(reply) => match check_reply(&op, &reply, &mut self.model, self.n) {
                    Ok(net) => {
                        self.out.net_edges += net;
                        self.out.tally.check(true, String::new);
                        if let Some(samples) = samples.as_deref_mut() {
                            samples[op.kind()].push(ms);
                        }
                    }
                    Err(e) => self.out.tally.check(false, || format!("connection {conn}: {e}")),
                },
                Err(ClientError::Service(ServiceError::Timeout { millis })) => {
                    self.out.timeouts += 1;
                    self.out
                        .tally
                        .check(false, || format!("connection {conn}: timeout after {millis} ms"));
                }
                Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                    self.out.tally.check(false, || format!("connection {conn}: dropped: {e}"));
                    self.client = connect(self.addr).ok();
                }
                Err(e) => self.out.tally.check(false, || format!("connection {conn}: {e}")),
            }
        }
    }
}

/// TCP latencies per request kind (scaled to the reference host and raw) and
/// throughput of one timed window.
#[derive(Default)]
struct TcpRun {
    latency: [Vec<f64>; 4],
    raw_latency: [Vec<f64>; 4],
    ops: u64,
    busy_s: f64,
    raw_busy_s: f64,
    timeouts: u64,
    rss_mb: f64,
}

/// Runs the two closed-loop connections against a running daemon for `seconds`, in
/// segments between host probes, then the final checks; shuts the daemon down.
fn tcp_run(
    daemon: Daemon,
    graph: &Graph,
    mix: Mix,
    seed: u64,
    seconds: f64,
    probe: &mut Probe,
    report: &mut Report,
) -> Result<TcpRun, String> {
    let segments = ((seconds / SEGMENT_S).round() as usize).max(1);
    let segment = Duration::from_secs_f64(seconds / segments as f64);
    let addr = daemon.addr.clone();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut probes = Vec::new();
    let mut busy_shares = Vec::new();
    let mut durations = Vec::new();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (addr, barrier) = (&addr, &barrier);
                scope.spawn(move || {
                    Connection::open(addr, graph, mix, seed, conn)
                        .run_segments(barrier, segments, segment)
                })
            })
            .collect();
        let mut started: Option<Instant> = None;
        for _ in 0..=segments {
            barrier.wait();
            if let Some(start) = started {
                durations.push(start.elapsed().as_secs_f64());
            }
            let (ms, busy) = daemon.probe(probe);
            probes.push(ms);
            busy_shares.push(busy);
            barrier.wait();
            started = Some(Instant::now());
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for &busy in &busy_shares {
        check_idle(busy, report);
    }
    report.show(
        "host.daemon_cpu_in_probe",
        "frac",
        busy_shares.iter().flatten().fold(0.0, |a: f64, &b| a.max(b)),
        busy_shares.len(),
        format!("largest share of a CPU serviced used during a probe; at most {IDLE_CPU_SHARE}"),
    );
    let scales: Vec<f64> = probes.windows(2).map(|w| Probe::scale(w[0], w[1])).collect();
    let mut run = TcpRun {
        busy_s: durations.iter().zip(&scales).map(|(d, s)| d * s).sum(),
        raw_busy_s: durations.iter().sum(),
        ..TcpRun::default()
    };
    let mut expected_m = graph.m() as i64;
    for r in results {
        for (samples, scale) in r.latency.iter().zip(&scales) {
            for (kind, kind_samples) in samples.iter().enumerate() {
                run.ops += kind_samples.len() as u64;
                run.latency[kind].extend(kind_samples.iter().map(|ms| ms * scale));
                run.raw_latency[kind].extend(kind_samples);
            }
        }
        run.timeouts += r.timeouts;
        expected_m += r.net_edges;
        report.absorb(r.tally);
    }

    // Final checks: compaction, full legality, edge count and palette bound.
    let mut client = connect(&addr).map_err(|e| format!("final connect failed: {e}"))?;
    let compacted = client.compact();
    report.check(compacted.is_ok(), || format!("final compact: {compacted:?}"));
    let verified = client.verify();
    report.check(matches!(verified, Ok((true, 0))), || format!("final verify: {verified:?}"));
    let stats = client.stats();
    report.check(
        matches!(&stats, Ok(s) if s.m as i64 == expected_m && s.colors <= s.max_degree + 1),
        || format!("final stats {stats:?}, expected m = {expected_m}"),
    );
    if let Ok(s) = &stats {
        report.show("final.m", "count", s.m as f64, 1, "");
        report.show(
            "final.colors",
            "count",
            s.colors as f64,
            1,
            format!("Δ+1 = {}", s.max_degree + 1),
        );
        report.show("final.epoch", "count", s.epoch as f64, 1, "");
    }
    run.rss_mb = crate::peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    drop(client);
    let shutdown = daemon.shutdown();
    report.check(shutdown.is_ok(), || format!("shutdown: {shutdown:?}"));
    Ok(run)
}

fn write_dataset(graph: &Graph, args: &Args) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let path = args.work_dir.join(format!("forests-{}.edges", args.seed));
    let file = File::create(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    io::write_edge_list(graph, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn tail_note(samples: &[f64]) -> (f64, String) {
    match tail(samples) {
        Some(t) => (t.value, format!("p{:.3}, {} samples beyond", t.percentile, t.beyond)),
        None => (quantile(samples, 1.0), "max: fewer than 11 samples".to_string()),
    }
}

/// Runs a serve workload and fills `report`.
///
/// # Errors
///
/// Returns a message when the dataset cannot be written or the daemon cannot start.
pub fn run(args: &Args, mix: Mix, report: &mut Report) -> Result<(), String> {
    let graph = batch::generate(Family::Forests, args.seed)?;
    let dataset = write_dataset(&graph, args)?;
    if args.trace {
        return traced(args, mix, &graph, &dataset, report);
    }
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SPAWNS {
        if let Some(previous) = daemon.take() {
            let shutdown = previous.shutdown();
            report.check(shutdown.is_ok(), || format!("set-up shutdown: {shutdown:?}"));
        }
        let before = probe.last();
        let start = Instant::now();
        let spawned = Daemon::spawn(&args.serviced, &dataset)?;
        let raw_s = start.elapsed().as_secs_f64();
        let (after, busy) = spawned.probe(&mut probe);
        check_idle(busy, report);
        setups.push(raw_s * Probe::scale(before, after));
        raw_setups.push(raw_s);
        daemon = Some(spawned);
    }
    let daemon = daemon.expect("at least one spawn");
    let run = tcp_run(daemon, &graph, mix, args.seed, args.seconds, &mut probe, report)?;
    let [apply, query, snapshot, compact] = &run.latency;
    let raw = |kind: usize| median(&run.raw_latency[kind]);
    report.set(
        "setup_s",
        median(&setups),
        setups.len(),
        format!("spawn serviced --dataset until listening; raw {:.4} s", median(&raw_setups)),
    );
    report.set(
        "ops_per_s",
        run.ops as f64 / run.busy_s,
        run.ops as usize,
        format!("requests of all kinds; raw {:.4}/s", run.ops as f64 / run.raw_busy_s),
    );
    let (headline, what) = match mix {
        Mix::Write => (APPLY, "Apply"),
        Mix::Read => (QUERY, "QueryColors"),
    };
    let samples = &run.latency[headline];
    report.set(
        "p50_ms",
        median(samples),
        samples.len(),
        format!("{what}; raw {:.6} ms", raw(headline)),
    );
    report.set("rss_mb", run.rss_mb, 1, "serviced VmHWM");
    report.show(
        "write_p50_ms",
        "ms",
        median(apply),
        apply.len(),
        format!("Apply; raw {:.6} ms", raw(APPLY)),
    );
    let (value, note) = tail_note(apply);
    report.show("write_tail_ms", "ms", value, apply.len(), note);
    report.show(
        "read_p50_ms",
        "ms",
        median(query),
        query.len(),
        format!("QueryColors; raw {:.6} ms", raw(QUERY)),
    );
    let (value, note) = tail_note(query);
    report.show("read_tail_ms", "ms", value, query.len(), note);
    report.show(
        "snapshot_p50_ms",
        "ms",
        median(snapshot),
        snapshot.len(),
        format!("Snapshot; raw {:.6} ms", raw(SNAPSHOT)),
    );
    report.show("compact_p50_ms", "ms", median(compact), compact.len(), "Compact");
    report.show("daemon_rss_mb", "MB", run.rss_mb, 1, "serviced VmHWM");
    report.show("server.timeouts", "count", run.timeouts as f64, 1, "");
    report.show(
        "host.probe_ms",
        "ms",
        median(&probe.times),
        probe.times.len(),
        format!("reference {REFERENCE_MS} ms"),
    );
    Ok(())
}

/// Per-request measurements of one in-process replay.
#[derive(Default)]
struct Replay {
    /// Request-path time (encode, decode, handle, encode, decode) in µs, per kind.
    path_us: [Vec<f64>; 4],
    request_bytes: [Vec<f64>; 4],
    response_bytes: [Vec<f64>; 4],
    /// `(n + 1 + 2m) / net edges changed` per apply that changed an edge.
    words_per_edge: Vec<f64>,
    frontier: Vec<f64>,
    repaired: Vec<f64>,
    local: u64,
    conflicting: u64,
    legal_ms: Vec<f64>,
    wall_s: f64,
}

/// Replays `ops` in-process, checking every reply; with a collector installed, each
/// protocol step is its own span under a `request:<kind>` root.  With a `budget`, keeps
/// drawing operations from `streams` (appending them to `ops`) until it runs out;
/// without one, replays exactly `ops`.
fn replay(
    service: &mut ColoringService,
    ops: &mut Vec<(usize, Op)>,
    streams: &mut [Stream],
    graph: &Graph,
    budget: Option<Duration>,
    tally: &mut Tally,
) -> Replay {
    let mut out = Replay::default();
    let mut models: Vec<Model> = (0..CONNECTIONS).map(|c| Model::new(graph, c)).collect();
    let start = Instant::now();
    let mut i = 0;
    loop {
        match budget {
            Some(budget) if start.elapsed() >= budget => break,
            None if i >= ops.len() => break,
            _ => {}
        }
        if i == ops.len() {
            let conn = i % CONNECTIONS;
            ops.push((conn, streams[conn].next()));
        }
        let (conn, op) = &ops[i];
        i += 1;
        let kind = op.kind();
        let t = Instant::now();
        let (reply, request_len, response_len) = {
            let _root = obs::phase(format!("request:{}", KINDS[kind]));
            let bytes = {
                let _s = obs::phase("Request::encode");
                op.request().encode()
            };
            let request = {
                let _s = obs::phase("Request::decode");
                Request::decode(&bytes)
            };
            let response = match request {
                Ok(request) => {
                    let _s = obs::phase("ColoringService::handle");
                    service.handle(request)
                }
                Err(e) => Response::Error(e),
            };
            let encoded = {
                let _s = obs::phase("Response::encode");
                response.encode()
            };
            let reply = {
                let _s = obs::phase("Response::decode");
                Response::decode(&encoded)
            };
            (reply, bytes.len(), encoded.len())
        };
        out.path_us[kind].push(t.elapsed().as_secs_f64() * 1e6);
        out.request_bytes[kind].push(request_len as f64);
        out.response_bytes[kind].push(response_len as f64);
        let checked = reply
            .map_err(|e| e.to_string())
            .and_then(|r| check_reply(op, &r, &mut models[*conn], graph.n()).map(|net| (r, net)));
        match checked {
            Ok((
                Response::Applied {
                    new_edges, removed_edges, frontier, repaired, strategy, ..
                },
                _,
            )) => {
                let dynamic = service.dynamic();
                let words = (dynamic.graph().n() + 1 + 2 * dynamic.graph().m()) as f64;
                if new_edges + removed_edges > 0 {
                    out.words_per_edge.push(words / (new_edges + removed_edges) as f64);
                }
                out.frontier.push(frontier as f64);
                out.repaired.push(repaired as f64);
                if frontier > 0 {
                    out.conflicting += 1;
                    out.local += u64::from(strategy == RepairStrategy::LocalRepair);
                }
                let t = Instant::now();
                let legal = {
                    let _s = obs::phase("Coloring::is_legal");
                    dynamic.coloring().is_legal(dynamic.graph())
                };
                out.legal_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tally.check(legal, || "in-process apply left an illegal coloring".to_string());
            }
            Ok(_) => tally.check(true, String::new),
            Err(e) => tally.check(false, || format!("in-process replay: {e}")),
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The traced run: a short TCP loop for wire latencies, then the same streams replayed
/// in-process twice — untraced (for the overhead comparison) and traced.
fn traced(
    args: &Args,
    mix: Mix,
    graph: &Graph,
    dataset: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let build_ms = batch::build_ms(graph)?;
    report.set("graph.build_ms", median(&build_ms), build_ms.len(), "Graph::from_edges");

    let third = args.seconds / 3.0;
    let daemon = Daemon::spawn(&args.serviced, dataset)?;
    let tcp = tcp_run(daemon, graph, mix, args.seed, third, &mut Probe::new(), report)?;
    report.set("server.timeouts", tcp.timeouts as f64, 1, "");

    let config = ServiceConfig::default();
    let mut streams: Vec<Stream> =
        (0..CONNECTIONS).map(|c| Stream::new(mix, c, args.seed)).collect();
    let mut ops = Vec::new();
    let mut tally = Tally::default();
    let mut plain_service = ColoringService::new(graph.clone(), config)
        .map_err(|e| format!("service start failed: {e}"))?;
    let plain = replay(
        &mut plain_service,
        &mut ops,
        &mut streams,
        graph,
        Some(Duration::from_secs_f64(third)),
        &mut tally,
    );
    drop(plain_service);

    let mut service = ColoringService::new(graph.clone(), config)
        .map_err(|e| format!("service start failed: {e}"))?;
    let collector = SpanCollector::new();
    let traced = {
        let _recording = obs::install(&collector);
        replay(&mut service, &mut ops, &mut streams, graph, None, &mut tally)
    };
    let final_verify = service.handle(Request::Verify);
    tally.check(matches!(final_verify, Response::Verified { legal: true, conflicts: 0 }), || {
        format!("in-process final verify: {final_verify:?}")
    });
    report.absorb(tally);

    let tree = Tree::new(collector.snapshot());
    let ms = |ns: &[u64]| ns.iter().map(|&x| x as f64 / 1e6).collect::<Vec<f64>>();
    report.set(
        "trace.overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        ops.len(),
        "in-process replay, traced vs untraced",
    );
    report.set("trace.self_sum_error_frac", tree.worst_self_sum_error(), tree.roots().count(), "");
    report.set(
        "graph.is_legal_ms",
        median(&traced.legal_ms),
        traced.legal_ms.len(),
        "Coloring::is_legal after each apply",
    );

    let applies = tree.walls("dynamic-apply");
    if !applies.is_empty() {
        let patches = tree.walls("csr-patch");
        report.set("graph.patch_p50_ms", median(&ms(&patches)), patches.len(), "csr-patch");
        report.set("graph.patch_p99_ms", quantile(&ms(&patches), 0.99), patches.len(), "csr-patch");
        let share = patches.iter().sum::<u64>() as f64 / applies.iter().sum::<u64>().max(1) as f64;
        report.set("graph.patch_share", share, patches.len(), "csr-patch / dynamic-apply");
        report.set(
            "graph.patch_words_per_edge",
            median(&traced.words_per_edge),
            traced.words_per_edge.len(),
            "",
        );
        report.set("dynamic.apply_ms", median(&ms(&applies)), applies.len(), "dynamic-apply");
        let selfs: Vec<f64> =
            tree.named("dynamic-apply").map(|i| tree.self_ns(i) as f64 / 1e6).collect();
        report.set("dynamic.self_ms", median(&selfs), selfs.len(), "dynamic-apply self time");
        let repair_ns: u64 =
            tree.walls("frontier-repair").iter().chain(&tree.walls("full-recolor")).sum();
        report.set(
            "dynamic.repair_ms",
            repair_ns as f64 / 1e6 / applies.len() as f64,
            applies.len(),
            "per apply",
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        report.set(
            "dynamic.frontier_per_batch",
            mean(&traced.frontier),
            traced.frontier.len(),
            "mean",
        );
        report.set(
            "dynamic.repaired_per_batch",
            mean(&traced.repaired),
            traced.repaired.len(),
            "mean",
        );
        if traced.conflicting > 0 {
            report.set(
                "dynamic.local_repair_ratio",
                traced.local as f64 / traced.conflicting as f64,
                traced.conflicting as usize,
                "local / conflicting",
            );
        }
        // Handle time of an apply minus its dynamic-apply span: epoch and snapshot
        // recording.
        let mut record_us = Vec::new();
        for root in tree.roots_named("request:apply") {
            for handle in tree.children(root, "ColoringService::handle") {
                let inner = tree.child_wall(handle, "dynamic-apply");
                record_us.push(tree.spans()[handle].wall_ns.saturating_sub(inner) as f64 / 1e3);
            }
        }
        report.set(
            "server.epoch_record_us",
            median(&record_us),
            record_us.len(),
            "handle minus dynamic-apply",
        );
    }
    let compactions = tree.walls("compaction");
    if !compactions.is_empty() {
        report.set(
            "dynamic.compact_ms",
            median(&ms(&compactions)),
            compactions.len(),
            "compaction",
        );
    }

    for (kind, name) in KINDS.iter().enumerate() {
        let root_name = format!("request:{name}");
        let roots: Vec<usize> = tree.roots_named(&root_name).collect();
        if roots.is_empty() {
            continue;
        }
        let mut codec_us = Vec::new();
        let mut handle_us = Vec::new();
        for &root in &roots {
            let child_us = |step: &str| tree.child_wall(root, step) as f64 / 1e3;
            codec_us.push(
                child_us("Request::encode")
                    + child_us("Request::decode")
                    + child_us("Response::encode")
                    + child_us("Response::decode"),
            );
            handle_us.push(child_us("ColoringService::handle"));
        }
        report.set(
            &format!("protocol.request_bytes.{name}"),
            median(&traced.request_bytes[kind]),
            roots.len(),
            "",
        );
        report.set(
            &format!("protocol.response_bytes.{name}"),
            median(&traced.response_bytes[kind]),
            roots.len(),
            "",
        );
        report.set(&format!("protocol.codec_us.{name}"), median(&codec_us), roots.len(), "");
        report.set(&format!("server.handle_us.{name}"), median(&handle_us), roots.len(), "");
        if kind != COMPACT && !tcp.raw_latency[kind].is_empty() && !plain.path_us[kind].is_empty() {
            let tcp_us: Vec<f64> = tcp.raw_latency[kind].iter().map(|ms| ms * 1e3).collect();
            let local = &plain.path_us[kind];
            report.set(
                &format!("server.overhead_us.{name}_p50"),
                median(&tcp_us) - median(local),
                tcp_us.len(),
                "TCP p50 - in-process p50",
            );
            let (tcp_tail, note) = tail_note(&tcp_us);
            report.set(
                &format!("server.overhead_us.{name}_tail"),
                tcp_tail - tail_note(local).0,
                tcp_us.len(),
                note,
            );
        }
    }
    Ok(())
}
