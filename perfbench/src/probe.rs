//! Host-speed probe.
//!
//! On a shared host the speed of a core drifts by up to 2× over seconds, which swamps
//! the differences a benchmark exists to find.  The probe is a fixed amount of
//! graph-like work — a few passes of random-access gathers over a fixed random CSR —
//! that belongs to the benchmark alone, so no change to the repository can move it.
//! The benchmark runs it between the segments it measures — graph set-ups, headliner
//! runs, daemon start-ups, and one-second windows of daemon requests — and scales each
//! segment's times by `REFERENCE_MS / probe`, with the mean of the probes on both sides
//! of the segment: the times a host running the probe in `REFERENCE_MS` would have
//! shown.  Raw times are printed next to every scaled one.
//!
//! The probe runs on one thread, also around the 2-thread laps of batch-powerlaw: the
//! executor gains nothing from its second thread there (its 2-thread exec time is about
//! its 1-thread time), and over 16 seeds on a shared 2-vCPU Xeon host a one-thread probe
//! gave scaled lap times a spread (interquartile range over median) of 0.105, a
//! two-thread probe 0.141, and raw lap times 0.148.
//!
//! Nothing of the measured program may run during a probe, or its background work would
//! slow the probe and shrink its own scaled times: the executors join their threads
//! before a run returns, and a live daemon's CPU time is read around every probe, which
//! counts as a failure if the daemon was not idle.

use std::time::Instant;

/// The probe time of the reference host; scaled times are in its milliseconds.
pub const REFERENCE_MS: f64 = 30.0;

const VERTICES: usize = 1 << 19;
const DEGREE: usize = 4;
const PASSES: usize = 3;

/// The probe's fixed input and its measurements.
pub struct Probe {
    targets: Vec<u32>,
    /// The `(values, next)` buffers the passes ping-pong between.
    buffers: (Vec<u64>, Vec<u64>),
    /// Every probe time measured so far, in ms.
    pub times: Vec<f64>,
}

impl Probe {
    /// Builds the probe input from a fixed seed.
    pub fn new() -> Probe {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_random = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let targets =
            (0..VERTICES * DEGREE).map(|_| (next_random() % VERTICES as u64) as u32).collect();
        let values = (0..VERTICES).map(|_| next_random()).collect();
        Probe { targets, buffers: (values, vec![0; VERTICES]), times: Vec::new() }
    }

    /// Runs the probe once and returns its time in ms.
    pub fn measure(&mut self) -> f64 {
        let (values, next) = &mut self.buffers;
        let start = Instant::now();
        for _ in 0..PASSES {
            for (v, out) in next.iter_mut().enumerate() {
                let mut acc = values[v];
                for &u in &self.targets[v * DEGREE..(v + 1) * DEGREE] {
                    acc = acc.rotate_left(7) ^ values[u as usize];
                }
                *out = acc;
            }
            std::mem::swap(values, next);
        }
        std::hint::black_box(values);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.times.push(ms);
        ms
    }

    /// The factor that scales a segment between probes `before` and `after` to the
    /// reference host.
    pub fn scale(before: f64, after: f64) -> f64 {
        REFERENCE_MS / ((before + after) / 2.0)
    }

    /// The last probe time measured, measuring one if there is none yet.
    pub fn last(&mut self) -> f64 {
        match self.times.last() {
            Some(&ms) => ms,
            None => self.measure(),
        }
    }

    /// Runs `f` between two probes (the one before is the last one measured, if any)
    /// and returns its result with the segment's raw wall time and scale.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Segment) {
        let before = self.last();
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.measure();
        (out, Segment { raw_s, scale: Probe::scale(before, after) })
    }
}

/// One measured segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Wall time, in seconds.
    pub raw_s: f64,
    /// The segment's factor to the reference host.
    pub scale: f64,
}

impl Segment {
    /// The wall time scaled to the reference host, in seconds.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s * self.scale
    }
}
