//! The batch workloads: the three headliners, one after another, on one seeded graph.
//!
//! A lap runs Barenboim–Elkin, Ghaffari–Kuhn and HKMT once each.  An untimed warm-up
//! lap comes first; it faults in the pages the timed laps reuse and sets the reference
//! every later lap must match bit for bit (rounds, messages, bits and a fingerprint of
//! the colors).  One lap runs on the *other* executor and must match too: on
//! batch-powerlaw the sequential warm-up is that lap; on batch-forests a 2-thread lap
//! follows the timed laps, so its thread arenas stay out of `rss_mb`.  `rss_mb` is the
//! peak resident set of the warm-up and the first three timed laps above the resident
//! set after set-up, so neither the graph, the set-up repetitions nor the host probe
//! count in it.  Set-up and the timed laps run between host probes and are scaled to
//! the reference host (see [`crate::probe`]).

use std::time::{Duration, Instant};

use arbcolor_baselines::registry::{congest_headliners, BaselineOutcome, ColoringBaseline};
use arbcolor_graph::{generators, Graph};
use arbcolor_runtime::{obs, set_default_executor, ExecutorKind, SpanCollector, SpanKind};

use crate::host::Fnv;
use crate::probe::{Probe, REFERENCE_MS};
use crate::report::{Report, EXEC_PROGRAMS, HEADLINERS, PHASES};
use crate::spans::Tree;
use crate::stats::median;
use crate::Args;

/// Vertices of every workload graph.
pub const N: usize = 100_000;

/// Graph families of the batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `union_of_random_forests(N, 3)`: arboricity ≤ 3, Δ ≈ 25.
    Forests,
    /// `barabasi_albert(N, 4)`: arboricity ≤ 4, hubs with Δ ≈ 900.
    Powerlaw,
}

/// Generator seed of the batch-powerlaw degree structure.  The hub degree of a
/// Barabási–Albert graph swings by ±15% between generator seeds, and Ghaffari–Kuhn's
/// time with it, so the structure is fixed and the workload seed permutes the ids (and
/// seeds HKMT); forest unions are homogeneous enough to draw from the workload seed.
const POWERLAW_STRUCTURE_SEED: u64 = 1;

/// Generates the workload graph (generation includes the CSR build) with shuffled ids.
///
/// # Errors
///
/// Propagates generator errors.
pub fn generate(family: Family, seed: u64) -> Result<Graph, String> {
    let graph = match family {
        Family::Forests => generators::union_of_random_forests(N, 3, seed),
        Family::Powerlaw => generators::barabasi_albert(N, 4, POWERLAW_STRUCTURE_SEED),
    }
    .map_err(|e| format!("graph generation failed: {e}"))?;
    Ok(graph.with_shuffled_ids(seed ^ 0x5eed))
}

/// Set-up repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// Times `SETUP_REPS` generations, each between host probes, and returns the median
/// scaled and raw seconds and the graph.
pub fn setup(family: Family, seed: u64, probe: &mut Probe) -> Result<(f64, f64, Graph), String> {
    let mut scaled = Vec::new();
    let mut raw = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        let (g, segment) = probe.time(|| std::hint::black_box(generate(family, seed)));
        scaled.push(segment.scaled_s());
        raw.push(segment.raw_s);
        graph = Some(g?);
    }
    Ok((median(&scaled), median(&raw), graph.expect("at least one set-up")))
}

/// Times three CSR builds of `graph`'s edge list with `Graph::from_edges`, in ms.
///
/// # Errors
///
/// Returns a message when a build fails.
pub fn build_ms(graph: &Graph) -> Result<Vec<f64>, String> {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let g = Graph::from_edges(graph.n(), graph.edges().iter().copied())
                .map_err(|e| format!("CSR build failed: {e}"))?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(g);
            Ok(ms)
        })
        .collect()
}

/// The fewest timed laps of a run; more follow while the budget allows.
const MIN_LAPS: usize = 3;

/// What a correct run of one headliner must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    rounds: usize,
    messages: usize,
    total_bits: u64,
    fingerprint: u64,
}

fn signature(outcome: &BaselineOutcome) -> Signature {
    let mut fnv = Fnv::default();
    for &c in outcome.coloring.colors() {
        fnv.u64(c);
    }
    Signature {
        rounds: outcome.report.rounds,
        messages: outcome.report.messages,
        total_bits: outcome.report.total_bits,
        fingerprint: fnv.0,
    }
}

/// One headliner run of a lap.
struct Run {
    wall: Duration,
    /// Factor to the reference host (1 for unprobed laps).
    scale: f64,
    outcome: Option<BaselineOutcome>,
    /// The run's span tree and palette counters, when traced.
    trace: Option<(Tree, Vec<(String, u64)>)>,
}

struct Bench<'a> {
    graph: &'a Graph,
    headliners: Vec<Box<dyn ColoringBaseline>>,
    reference: Vec<Option<Signature>>,
    report: &'a mut Report,
    legal_ms: Vec<f64>,
    probe: Probe,
}

impl Bench<'_> {
    /// Runs every headliner once on `executor`, checking each result; a `probed` lap
    /// runs each headliner between host probes.
    fn lap(&mut self, executor: ExecutorKind, traced: bool, probed: bool) -> Vec<Run> {
        set_default_executor(executor);
        let delta = self.graph.max_degree();
        let mut runs = Vec::new();
        for (i, headliner) in self.headliners.iter().enumerate() {
            let collector = SpanCollector::new();
            let recording = traced.then(|| obs::install(&collector));
            let graph = self.graph;
            let run = || {
                let _span = obs::phase(format!("headliner:{}", headliner.name()));
                let start = Instant::now();
                (headliner.run(graph), start.elapsed())
            };
            let ((result, wall), scale) = if probed {
                let (out, segment) = self.probe.time(run);
                (out, segment.scale)
            } else {
                (run(), 1.0)
            };
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    let name = headliner.name();
                    self.report.check(false, || format!("{name} failed: {e}"));
                    runs.push(Run { wall, scale, outcome: None, trace: None });
                    continue;
                }
            };
            let legal_start = Instant::now();
            let legal = {
                let _span = obs::phase("Coloring::is_legal");
                outcome.coloring.is_legal(self.graph)
            };
            self.legal_ms.push(legal_start.elapsed().as_secs_f64() * 1e3);
            drop(recording);
            let sig = signature(&outcome);
            let reference = *self.reference[i].get_or_insert(sig);
            let bounded = headliner.name() == "barenboim_elkin" || outcome.colors <= delta + 1;
            let name = headliner.name();
            self.report.check(legal && bounded && sig == reference, || {
                format!(
                    "{name} on {executor:?}: legal={legal}, colors={} (Δ+1={}), signature {sig:?} vs reference {reference:?}",
                    outcome.colors,
                    delta + 1
                )
            });
            let trace = traced.then(|| {
                let counters =
                    collector.metrics().counters().map(|(k, v)| (k.to_string(), v)).collect();
                (Tree::new(collector.snapshot()), counters)
            });
            runs.push(Run { wall, scale, outcome: Some(outcome), trace });
        }
        runs
    }
}

/// Wall seconds of a lap, scaled to the reference host or raw.
fn lap_seconds(runs: &[Run], scaled: bool) -> f64 {
    runs.iter().map(|r| r.wall.as_secs_f64() * if scaled { r.scale } else { 1.0 }).sum()
}

/// Runs a batch workload and fills `report`.
///
/// # Errors
///
/// Returns a message when the workload graph cannot be built.
pub fn run(args: &Args, family: Family, report: &mut Report) -> Result<(), String> {
    let mut probe = Probe::new();
    let (setup_s, setup_raw_s, graph) = setup(family, args.seed, &mut probe)?;
    let (timed, cross) = match family {
        Family::Forests => (ExecutorKind::Sequential, ExecutorKind::sharded(2)),
        Family::Powerlaw => (ExecutorKind::sharded(2), ExecutorKind::Sequential),
    };
    let mut bench = Bench {
        graph: &graph,
        headliners: congest_headliners(args.seed.wrapping_mul(31).wrapping_add(7)),
        reference: vec![None; HEADLINERS.len()],
        report,
        legal_ms: Vec::new(),
        probe,
    };
    assert_eq!(
        bench.headliners.iter().map(|h| h.name()).collect::<Vec<_>>(),
        HEADLINERS.iter().map(|(_, name)| *name).collect::<Vec<_>>(),
        "headliner registry order"
    );
    bench.report.show("graph.n", "count", graph.n() as f64, 1, "");
    bench.report.show("graph.m", "count", graph.m() as f64, 1, "");
    bench.report.show("graph.max_degree", "count", graph.max_degree() as f64, 1, "");
    if args.trace {
        return traced(&graph, bench, timed, cross);
    }

    let baseline_mb = crate::reset_peak_rss()?;
    let cross_first = cross == ExecutorKind::Sequential;
    bench.lap(if cross_first { cross } else { timed }, false, false);
    bench.probe.measure();
    let mut laps: Vec<Vec<Run>> = Vec::new();
    let mut peak_mb = None;
    let window = Instant::now();
    // At least MIN_LAPS laps; another lap only if it is expected to end within the budget.
    while laps.len() < MIN_LAPS || {
        let typical = median(&laps.iter().map(|l| lap_seconds(l, false)).collect::<Vec<_>>());
        window.elapsed().as_secs_f64() + typical <= args.seconds
    } {
        laps.push(bench.lap(timed, false, true));
        // The heap grows a little with every lap, so the peak is read after a fixed
        // number of laps, not after as many as the host's speed allows.
        if laps.len() == MIN_LAPS {
            peak_mb = crate::peak_rss_mb("self");
        }
    }
    let peak_mb = peak_mb.ok_or("cannot read VmHWM")?;
    if !cross_first {
        bench.lap(cross, false, false);
    }

    let report = bench.report;
    let lap_ms = |scaled| laps.iter().map(|l| lap_seconds(l, scaled) * 1e3).collect::<Vec<f64>>();
    let runs = laps.len() * HEADLINERS.len();
    let busy_s = |scaled| lap_ms(scaled).iter().sum::<f64>() / 1e3;
    report.set(
        "setup_s",
        setup_s,
        SETUP_REPS,
        format!("graph generation + CSR build; raw {setup_raw_s:.4} s"),
    );
    report.set(
        "ops_per_s",
        runs as f64 / busy_s(true),
        runs,
        format!("headliner runs; raw {:.4}/s", runs as f64 / busy_s(false)),
    );
    report.set(
        "p50_ms",
        median(&lap_ms(true)),
        laps.len(),
        format!("BE+GK+HKMT lap; raw {:.1} ms", median(&lap_ms(false))),
    );
    report.set(
        "rss_mb",
        peak_mb - baseline_mb,
        1,
        format!(
            "VmHWM of the warm-up and {MIN_LAPS} timed laps above the {baseline_mb:.1} MB set-up baseline"
        ),
    );
    for (i, (short, _)) in HEADLINERS.iter().enumerate() {
        let scaled: Vec<f64> = laps.iter().map(|l| l[i].wall.as_secs_f64() * l[i].scale).collect();
        let raw: Vec<f64> = laps.iter().map(|l| l[i].wall.as_secs_f64()).collect();
        report.show(
            &format!("{short}_wall_s"),
            "s",
            median(&scaled),
            laps.len(),
            format!("{timed:?}; raw {:.4} s", median(&raw)),
        );
    }
    let probes = &bench.probe.times;
    report.show(
        "host.probe_ms",
        "ms",
        median(probes),
        probes.len(),
        format!("reference {REFERENCE_MS} ms"),
    );
    Ok(())
}

/// The traced run: an untraced warm-up lap and a traced lap on the other executor (the
/// base of `runtime.speedup_2t`), then an untraced and a traced lap on the workload
/// executor (their ratio is `trace.overhead_frac`).
fn traced(
    graph: &Graph,
    mut bench: Bench<'_>,
    timed: ExecutorKind,
    cross: ExecutorKind,
) -> Result<(), String> {
    let build_ms = build_ms(graph)?;
    bench.lap(cross, false, false);
    let cross_lap = bench.lap(cross, true, false);
    let plain = bench.lap(timed, false, false);
    let traced = bench.lap(timed, true, false);
    let legal_ms = &bench.legal_ms;
    let report = bench.report;
    report.set("graph.build_ms", median(&build_ms), build_ms.len(), "Graph::from_edges");
    report.set("graph.is_legal_ms", median(legal_ms), legal_ms.len(), "Coloring::is_legal");

    let exec_ns = |runs: &[Run]| -> u64 {
        runs.iter().filter_map(|r| r.trace.as_ref()).map(|(tree, _)| tree.exec_total().0).sum()
    };
    let (seq_lap, par_lap) = if timed == ExecutorKind::Sequential {
        (&traced, &cross_lap)
    } else {
        (&cross_lap, &traced)
    };
    let par_ns = exec_ns(par_lap);
    if par_ns > 0 {
        report.set(
            "runtime.speedup_2t",
            exec_ns(seq_lap) as f64 / par_ns as f64,
            2,
            "exec time 1 thread / 2 threads",
        );
    }
    let overhead = lap_seconds(&traced, false) / lap_seconds(&plain, false) - 1.0;
    report.set("trace.overhead_frac", overhead, 2, "traced lap vs untraced lap");

    let mut worst_residual = 0.0f64;
    let mut program_ns = vec![0u64; EXEC_PROGRAMS.len()];
    let mut phase_ns = vec![0u64; PHASES.len()];
    for ((short, _), run) in HEADLINERS.iter().zip(&traced) {
        let (Some((tree, counters)), Some(outcome)) = (&run.trace, &run.outcome) else { continue };
        worst_residual = worst_residual.max(tree.worst_self_sum_error());
        let (exec, exec_runs) = tree.exec_total();
        let wall_ns = run.wall.as_nanos() as f64;
        let counter = |name: &str| counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
        let r = &outcome.report;
        let set = |report: &mut Report, metric: &str, value: f64| {
            report.set(&metric.replace("{h}", short), value, 1, "");
        };
        set(report, "palette.{h}.picks_served", counter("palette.picks_served") as f64);
        set(report, "palette.{h}.colors_struck", counter("palette.colors_struck") as f64);
        set(report, "palette.{h}.words_cleared", counter("palette.words_cleared") as f64);
        set(report, "runtime.{h}.exec_ms", exec as f64 / 1e6);
        set(report, "runtime.{h}.exec_share", exec as f64 / wall_ns);
        set(report, "runtime.{h}.exec_runs", exec_runs as f64);
        set(report, "runtime.{h}.messages", r.messages as f64);
        set(report, "runtime.{h}.rounds", r.rounds as f64);
        set(report, "runtime.{h}.total_bits", r.total_bits as f64);
        set(report, "runtime.{h}.ns_per_message", exec as f64 / r.messages.max(1) as f64);
        set(report, "core.{h}.driver_self_ms", (wall_ns - exec as f64) / 1e6);
        for (slot, program) in program_ns.iter_mut().zip(EXEC_PROGRAMS) {
            *slot += tree.self_total(|s| s.kind == SpanKind::Exec && s.name == *program);
        }
        for (slot, phase) in phase_ns.iter_mut().zip(PHASES) {
            *slot += tree.self_total(|s| {
                s.kind == SpanKind::Phase
                    && (s.name == *phase || (*phase == "gk-level" && s.name.starts_with("level-")))
            });
        }
    }
    for (ns, program) in program_ns.iter().zip(EXEC_PROGRAMS) {
        report.set(&format!("exec.{program}_ms"), *ns as f64 / 1e6, 1, "");
    }
    for (ns, phase) in phase_ns.iter().zip(PHASES) {
        report.set(&format!("phase.{phase}_ms"), *ns as f64 / 1e6, 1, "");
    }
    report.set("trace.self_sum_error_frac", worst_residual, HEADLINERS.len(), "");
    Ok(())
}
