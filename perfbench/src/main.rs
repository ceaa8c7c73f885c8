//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           [--serviced PATH] [--work-dir DIR]
//! perfbench --spec            # prints BENCHMARK.json
//! ```
//!
//! One process runs one named workload (see [`report::WORKLOADS`]) with at most two
//! threads and two connections, checks every output, and prints one line per metric
//! (`name value unit (n=samples, note)`) followed by a JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the same seeded inputs with an
//! `obs::SpanCollector` installed and reports the per-layer metrics.  Layers are timed
//! from outside, by spans the benchmark opens around calls into their public functions;
//! the program's own spans nest underneath.
//!
//! `run.sh` builds the `serviced` daemon and this binary from source and runs it.

mod batch;
mod host;
mod probe;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// The daemon binary.
    pub serviced: PathBuf,
    /// Scratch directory for generated datasets.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--serviced PATH] [--work-dir DIR] | perfbench --spec";

/// The `run_seconds` written into `BENCHMARK.json`.
const RUN_SECONDS: u32 = 15;

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serviced = PathBuf::from("target/release/serviced");
    let mut work_dir = PathBuf::from("target/perfbench-work");
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} value {v:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(value == "1"),
            "--serviced" => serviced = PathBuf::from(value),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.ok_or("--trace is required")?,
        serviced,
        work_dir,
    }))
}

/// A kB field (such as `VmHWM:`) of `/proc/<pid>/status`, in MB.
fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 =
        status.lines().find(|l| l.starts_with(field))?.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `VmHWM` (peak resident set) of `/proc/<pid>/status`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Resets this process's `VmHWM` to its current resident set (writing `5` to
/// `/proc/self/clear_refs`) and returns that resident set, in MB: the baseline a later
/// `peak_rss_mb("self")` is measured against.
///
/// # Errors
///
/// Returns a message when the kernel refuses the reset or the status cannot be read.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    status_mb("self", "VmRSS:").ok_or_else(|| "cannot read VmRSS".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rev={} nproc={} cpu={:?} rustc={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.rev,
        host.nproc,
        host.cpu,
        host.rustc
    );
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "batch-forests" => batch::run(&args, batch::Family::Forests, &mut report),
        "batch-powerlaw" => batch::run(&args, batch::Family::Powerlaw, &mut report),
        "serve-write" => serve::run(&args, serve::Mix::Write, &mut report),
        "serve-read" => serve::run(&args, serve::Mix::Read, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    let emitted = result.and_then(|()| {
        if args.trace {
            report.emit(&report::per_layer(), false)
        } else {
            report.emit(&report::end_to_end(), true)
        }
    });
    match emitted {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
