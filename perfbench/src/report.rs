//! The benchmark's metric catalogue, the per-run report, and its output: one line per
//! metric for people, then one JSON object as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, with the reason each one is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch-forests",
        "BE, GK and HKMT on a 1e5-vertex union of 3 random forests, sequential executor: the paper's bounded-arboricity regime and the single-thread baseline",
    ),
    (
        "batch-powerlaw",
        "The same headliners on a fixed 1e5-vertex Barabasi-Albert graph (hubs, Delta 883) with seeded ids, 2-thread work-stealing executor: wide palettes, skewed frontiers",
    ),
    (
        "serve-write",
        "serviced preloaded with the forest union, 2 closed-loop TCP clients sending 8-edge insert/remove batches and queries: the per-apply CSR rebuild and repair path",
    ),
    (
        "serve-read",
        "The same daemon with 2 closed-loop clients sending about 99% color queries and snapshots and 1% writes: codec, frames, connection threads and the state lock",
    ),
];

/// One metric of the catalogue.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the metric means on each workload, or which end-to-end metric a layer metric
    /// should move on which workload (and where it should read about 0).
    pub about: String,
}

fn spec(name: &str, unit: &'static str, better: &'static str, about: &str) -> MetricSpec {
    MetricSpec { name: name.to_string(), unit, better, bound: None, about: about.to_string() }
}

/// The end-to-end metrics, measured with tracing off on every workload.
pub fn end_to_end() -> Vec<MetricSpec> {
    let gated = |name, unit, better, bound, about| MetricSpec {
        bound: Some(bound),
        ..spec(name, unit, better, about)
    };
    vec![
        gated("setup_s", "s", "lower", 0.25,
            "median set-up, scaled to the reference host: batch-* graph generation plus CSR build; serve-* spawning serviced --dataset until it listens (load plus the initial GK coloring)"),
        gated("ops_per_s", "1/s", "higher", 0.25,
            "completed operations per second in a closed loop, scaled to the reference host: batch-* headliner runs, serve-* requests of every kind"),
        gated("p50_ms", "ms", "lower", 0.25,
            "median latency of the headline operation, scaled to the reference host: batch-* one BE+GK+HKMT lap, serve-write an Apply, serve-read a QueryColors (client side, TCP)"),
        gated("rss_mb", "MB", "lower", 0.2,
            "peak resident memory (VmHWM) of the work measured: batch-* what the warm-up and first three timed headliner laps add to the benchmark process above its resident set after set-up, serve-* the serviced daemon"),
    ]
}

/// The three headliners, with the short names the per-layer metrics use.
pub const HEADLINERS: &[(&str, &str)] =
    &[("be", "barenboim_elkin"), ("gk", "ghaffari_kuhn"), ("hkmt", "hkmt_random")];

/// Executor programs whose runs the traced batch laps attribute time to.
pub const EXEC_PROGRAMS: &[&str] = &[
    "h-partition",
    "iterative-recoloring",
    "greedy-sweep",
    "halving-split",
    "scheduled-list-color",
    "hkmt-random-trials",
];

/// Algorithm phases whose self time the traced batch laps report (`gk-level` sums the
/// `level-<k>` spans of every Ghaffari–Kuhn recursion).
pub const PHASES: &[&str] =
    &["legal-coloring", "gk-level", "deferred-cleanup", "random-trials", "gk-fallback"];

/// Request kinds the serve workloads send.
pub const KINDS: &[&str] = &["apply", "query", "snapshot", "compact"];

/// The per-layer metrics, reported by the traced run on every workload (0 where a layer
/// does not run).
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = vec![
        spec("graph.build_ms", "ms", "lower", "Graph::from_edges on the workload graph; moves setup_s on every workload"),
        spec("graph.patch_p50_ms", "ms", "lower", "median csr-patch span; moves p50_ms on serve-write; about 0 on batch-*"),
        spec("graph.patch_p99_ms", "ms", "lower", "99th-percentile csr-patch span; moves p50_ms on serve-write; about 0 on batch-*"),
        spec("graph.patch_share", "frac", "lower", "csr-patch time over dynamic-apply time; moves p50_ms on serve-write; 0 on batch-*"),
        spec("graph.patch_words_per_edge", "count", "lower", "(n+1+2m) CSR words rewritten per net edge changed; moves p50_ms on serve-write; 0 on batch-*"),
        spec("graph.is_legal_ms", "ms", "lower", "median Coloring::is_legal on the workload graph (the apply post-condition); moves p50_ms on serve-write"),
    ];
    for (short, _) in HEADLINERS {
        for (metric, unit, better, about) in [
            ("palette.{h}.picks_served", "count", "lower", "palette picks of the headliner; moves ops_per_s on batch-powerlaw; 0 on serve-*"),
            ("palette.{h}.colors_struck", "count", "lower", "colors struck from palettes; moves ops_per_s on batch-powerlaw; 0 on serve-*"),
            ("palette.{h}.words_cleared", "count", "lower", "palette words cleared; moves ops_per_s on batch-powerlaw; 0 on serve-*"),
            ("runtime.{h}.exec_ms", "ms", "lower", "wall time inside executor runs; moves p50_ms and ops_per_s on batch-*; 0 on serve-*"),
            ("runtime.{h}.exec_share", "frac", "lower", "executor time over headliner wall time; moves p50_ms on batch-*; 0 on serve-*"),
            ("runtime.{h}.exec_runs", "count", "lower", "executor runs of the headliner; moves p50_ms on batch-*; 0 on serve-*"),
            ("runtime.{h}.messages", "count", "lower", "messages delivered; moves p50_ms on batch-*; 0 on serve-*"),
            ("runtime.{h}.rounds", "count", "lower", "synchronous rounds; moves p50_ms on batch-*; 0 on serve-*"),
            ("runtime.{h}.total_bits", "count", "lower", "bits across all messages; moves p50_ms on batch-*; 0 on serve-*"),
            ("runtime.{h}.ns_per_message", "ns", "lower", "executor nanoseconds per message; moves p50_ms on batch-*; 0 on serve-*"),
            ("core.{h}.driver_self_ms", "ms", "lower", "headliner wall minus its executor runs; moves p50_ms on batch-*; 0 on serve-*"),
        ] {
            out.push(spec(&metric.replace("{h}", short), unit, better, about));
        }
    }
    out.push(spec("runtime.speedup_2t", "ratio", "higher",
        "1-thread over 2-thread executor time of one lap; moves p50_ms on batch-powerlaw; 0 on serve-*"));
    for program in EXEC_PROGRAMS {
        out.push(spec(
            &format!("exec.{program}_ms"),
            "ms",
            "lower",
            "time in this executor program per lap; moves p50_ms on batch-*; 0 on serve-*",
        ));
    }
    for phase in PHASES {
        out.push(spec(
            &format!("phase.{phase}_ms"),
            "ms",
            "lower",
            "self time of this algorithm phase per lap; moves p50_ms on batch-*; 0 on serve-*",
        ));
    }
    out.extend([
        spec("dynamic.apply_ms", "ms", "lower", "median dynamic-apply span; moves p50_ms on serve-write; 0 on batch-*"),
        spec("dynamic.self_ms", "ms", "lower", "median dynamic-apply self time (overlay, frontier, post-condition); moves p50_ms on serve-write; 0 on batch-*"),
        spec("dynamic.repair_ms", "ms", "lower", "mean frontier-repair plus full-recolor time per apply; moves p50_ms on serve-write; 0 on batch-*"),
        spec("dynamic.compact_ms", "ms", "lower", "median compaction span; moves ops_per_s on serve-write; 0 on batch-*"),
        spec("dynamic.frontier_per_batch", "count", "lower", "mean conflict-frontier size per apply; moves p50_ms on serve-write; 0 on batch-*"),
        spec("dynamic.repaired_per_batch", "count", "lower", "mean vertices recolored per apply; moves p50_ms on serve-write; 0 on batch-*"),
        spec("dynamic.local_repair_ratio", "frac", "higher", "local repairs over conflicting applies; moves p50_ms on serve-write; 0 on batch-*"),
    ]);
    for kind in KINDS {
        out.push(spec(
            &format!("protocol.request_bytes.{kind}"),
            "B",
            "lower",
            "median encoded request size; moves p50_ms on serve-read; 0 on batch-*",
        ));
        out.push(spec(
            &format!("protocol.response_bytes.{kind}"),
            "B",
            "lower",
            "median encoded response size; moves p50_ms on serve-read; 0 on batch-*",
        ));
        out.push(spec(&format!("protocol.codec_us.{kind}"), "us", "lower",
            "median encode+decode time of request and response; moves p50_ms on serve-read; 0 on batch-*"));
        out.push(spec(&format!("server.handle_us.{kind}"), "us", "lower",
            "median ColoringService::handle time; moves p50_ms on serve-write (apply) and serve-read (query); 0 on batch-*"));
    }
    out.push(spec("server.epoch_record_us", "us", "lower",
        "median handle time of an apply minus its dynamic-apply span; moves p50_ms on serve-write; 0 on batch-*"));
    for kind in ["apply", "query", "snapshot"] {
        out.push(spec(&format!("server.overhead_us.{kind}_p50"), "us", "lower",
            "median TCP latency minus median in-process codec+handle time (wire, wake-up, lock wait); moves p50_ms on serve-read; 0 on batch-*"));
        out.push(spec(&format!("server.overhead_us.{kind}_tail"), "us", "lower",
            "tail TCP latency minus tail in-process codec+handle time; moves p50_ms on serve-read; 0 on batch-*"));
    }
    out.extend([
        spec("server.timeouts", "count", "lower", "typed Timeout replies over TCP; moves the failed count on serve-*; 0 on batch-*"),
        spec("trace.overhead_frac", "frac", "lower", "traced wall over untraced wall of the same work, minus 1, on every workload"),
        spec("trace.self_sum_error_frac", "frac", "lower", "largest |sum of self times - wall| / wall over the benchmark's root spans; self time is wall minus children, so this only detects children that overrun their parent, never unattributed time (that is the parent's self time)"),
    ]);
    out
}

/// `BENCHMARK.json`, rendered from the catalogue above.
pub fn benchmark_json(run_seconds: u32) -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"perfbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(name), quote(why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The value in the catalogue's unit.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: usize,
    /// Extra context (e.g. the percentile of a tail).
    pub note: String,
}

/// Attempted and failed operations, with the first failures described.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: headliner runs, requests, final checks.
    pub attempted: u64,
    /// Operations that failed: errors, timeouts, dropped connections, failed checks.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure is described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    tally: Tally,
    values: BTreeMap<String, Value>,
    /// Metrics shown to people only (not in the contract's metric set).
    extra: Vec<(String, &'static str, Value)>,
}

impl Report {
    /// Counts one operation; a failure is described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.check(ok, what);
    }

    /// Merges another tally (e.g. one client connection's) into this report.
    pub fn absorb(&mut self, tally: Tally) {
        self.tally.attempted += tally.attempted;
        self.tally.failed += tally.failed;
        let room = 20usize.saturating_sub(self.tally.failures.len());
        self.tally.failures.extend(tally.failures.into_iter().take(room));
    }

    /// Records a catalogue metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        self.values.insert(name.to_string(), Value { value, samples, note: note.into() });
    }

    /// Records a metric that is printed for people but is not part of the contract set.
    pub fn show(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.extra.push((name.to_string(), unit, Value { value, samples, note: note.into() }));
    }

    /// Prints the human-readable lines and then the JSON result line for `catalogue`.
    /// Catalogue metrics the run did not produce read 0 (a layer that did not run);
    /// `required` names metrics that must have been produced.
    ///
    /// # Errors
    ///
    /// Returns a message when a required metric is missing or a value is not finite.
    pub fn emit(&self, catalogue: &[MetricSpec], required: bool) -> Result<(), String> {
        let mut json = String::new();
        for (i, m) in catalogue.iter().enumerate() {
            let value = match self.values.get(&m.name) {
                Some(v) => v.clone(),
                None if required => return Err(format!("metric {} was not measured", m.name)),
                None => Value { value: 0.0, samples: 0, note: "layer not exercised".to_string() },
            };
            if !value.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, value.value));
            }
            println!("{}  # {}", line(&m.name, m.unit, &value), m.about);
            let comma = if i + 1 < catalogue.len() { ", " } else { "" };
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{comma}",
                m.name, value.value, m.unit
            );
        }
        for (name, unit, value) in &self.extra {
            println!("{}", line(name, unit, value));
        }
        let Tally { attempted, failed, failures } = &self.tally;
        println!("error_frac {} frac (n={attempted})", *failed as f64 / (*attempted).max(1) as f64);
        for failure in failures {
            println!("FAILED: {failure}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            *failed == 0,
            (*attempted).max(1),
        );
        Ok(())
    }
}

fn line(name: &str, unit: &str, v: &Value) -> String {
    let note = if v.note.is_empty() { String::new() } else { format!(", {}", v.note) };
    format!("{name} {} {unit} (n={}{note})", v.value, v.samples)
}
