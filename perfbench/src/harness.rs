//! The timed loop every workload shares, the host-speed reference and the
//! isolated-call timer.

use crate::report::{median, Outcome};
use crate::sys::{children_usage, peak_rss_mb, self_usage, Usage};
use crate::trace::{Span, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often set-up is repeated to report its median.
const SETUP_REPEATS: usize = 11;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

// ---- Host speed ----------------------------------------------------------

/// What [`reference_kernel`] takes on a quiet reference host (a 2-vCPU
/// Xeon VM), seconds.
const REFERENCE_NOMINAL_S: f64 = 0.5e-3;

/// A frozen floating-point kernel that calls no code of the repository: a
/// 48×48 matrix-vector product through `tanh`, iterated.  On a shared host
/// the speed of the benchmark's compute swings by up to half over seconds
/// to minutes while other tenants load the same cores, and a kernel like
/// this slows with it (measured side by side with robot-loop episodes and
/// 10k DES runs, correlation 0.93–0.98), whereas a pure integer chain
/// hardly moves.
fn reference_kernel() -> f64 {
    const N: usize = 48;
    let matrix: Vec<f64> = (0..N * N).map(|i| (i as f64 * 0.37).sin() * 0.2).collect();
    let mut v: Vec<f64> = (0..N).map(|i| i as f64 * 0.01).collect();
    let mut next = vec![0.0; N];
    let start = Instant::now();
    for _ in 0..400 {
        for (row, out) in matrix.chunks_exact(N).zip(next.iter_mut()) {
            let dot: f64 = row.iter().zip(&v).map(|(a, b)| a * b).sum();
            *out = dot.tanh();
        }
        std::mem::swap(&mut v, &mut next);
        black_box(&mut v);
    }
    start.elapsed().as_secs_f64()
}

/// The host-speed factor now: the reference kernel's time over its time
/// on a quiet host (about 1 quiet, 1.5 when the host runs a third slower).
/// Host compute times divided by it read as times on the quiet host.
pub fn host_speed() -> f64 {
    reference_kernel() / REFERENCE_NOMINAL_S
}

/// Passes are grouped into segments at least this long; the passes of a
/// segment share the mean of the host-speed readings before and after it.
const SPEED_SEGMENT: Duration = Duration::from_millis(20);

// ---- The timed loop ------------------------------------------------------

/// One timed pass.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// Host seconds of the pass's timed work.
    secs: f64,
    /// CPU seconds of the process and the children it reaped meanwhile.
    cpu_s: f64,
    /// The host-speed factor over the pass (see [`host_speed`]): the mean
    /// of the readings that open and close its segment.
    speed: f64,
    traced: bool,
}

/// The passes of one timed phase, in order.
#[derive(Debug, Default)]
pub struct Passes {
    all: Vec<Pass>,
    /// Peak resident set through set-up and the first pass, MiB: later
    /// passes add the benchmark's own sample buffers, not the program's.
    peak_rss_mb: f64,
}

impl Passes {
    fn select(&self, traced: bool, f: impl Fn(&Pass) -> f64) -> Vec<f64> {
        self.all.iter().filter(|p| p.traced == traced).map(f).collect()
    }

    pub fn traced_secs(&self) -> Vec<f64> {
        self.select(true, |p| p.secs)
    }

    pub fn untraced_secs(&self) -> Vec<f64> {
        self.select(false, |p| p.secs)
    }

    fn untraced_count(&self) -> usize {
        self.all.iter().filter(|p| !p.traced).count()
    }

    /// Median untraced pass time at the quiet host's speed, seconds.
    pub fn run_s(&self) -> f64 {
        median(&mut self.select(false, |p| p.secs / p.speed))
    }

    /// Host times taken in the passes, each tagged with its pass's index,
    /// at the quiet host's speed.
    pub fn at_quiet_speed(&self, samples: &[(usize, f64)]) -> Vec<f64> {
        samples.iter().map(|&(pass, value)| value / self.all[pass].speed).collect()
    }

    /// Median host-speed factor over the untraced passes.
    pub fn speed(&self) -> f64 {
        median(&mut self.select(false, |p| p.speed))
    }

    /// Sets the end-to-end `cpu_s` (median untraced pass CPU time, at the
    /// quiet host's speed when `at_quiet_speed`) and `peak_rss_mb`, and
    /// notes the raw host times beside the host-speed factor.
    pub fn report_host(&self, out: &mut Outcome, at_quiet_speed: bool) {
        let speed = |p: &Pass| if at_quiet_speed { p.speed } else { 1.0 };
        out.set("cpu_s", median(&mut self.select(false, |p| p.cpu_s / speed(p))));
        out.set("peak_rss_mb", self.peak_rss_mb);
        out.note(format!(
            "host speed: median factor {:.4} over {} untraced passes; raw medians: pass {:.6} s, CPU {:.6} s",
            self.speed(),
            self.untraced_count(),
            median(&mut self.untraced_secs()),
            median(&mut self.select(false, |p| p.cpu_s))
        ));
    }
}

fn usage_now() -> Usage {
    self_usage().plus(&children_usage())
}

/// Runs passes until `cfg.seconds` have elapsed (at least one; in a traced
/// run at least one traced and one untraced, alternating).  `pass` gets
/// the tracer, whether this pass is traced and the pass's index, opens the
/// root [`Span::Pass`] around its timed work itself, and returns that
/// work's host seconds; its output checks run outside the returned time.
/// Passes are grouped into segments of at least [`SPEED_SEGMENT`]; the
/// host speed is read before and after each segment.
pub fn drive(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer, bool, usize) -> f64,
) -> Passes {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_passes = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut passes = Passes::default();
    let mut opening = host_speed();
    let (mut segment_start, mut segment_s) = (0, 0.0);
    loop {
        let index = passes.all.len();
        let traced = cfg.trace && index % 2 == 0;
        tracer.set_enabled(traced);
        let before = usage_now();
        let secs = pass(tracer, traced, index);
        let cpu_s = usage_now().since(&before).cpu_s();
        passes.all.push(Pass { secs, cpu_s, speed: opening, traced });
        if index == 0 {
            passes.peak_rss_mb = peak_rss_mb();
        }
        segment_s += secs;
        let done = passes.all.len() >= min_passes && start.elapsed() >= budget;
        if segment_s >= SPEED_SEGMENT.as_secs_f64() || done {
            let closing = host_speed();
            for pass in &mut passes.all[segment_start..] {
                pass.speed = (opening + closing) / 2.0;
            }
            (opening, segment_start, segment_s) = (closing, passes.all.len(), 0.0);
        }
        if done {
            break;
        }
    }
    tracer.set_enabled(false);
    passes
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median set-up time at the quiet host's speed (each repeat divided by the
/// mean of the host-speed readings before and after it).
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    let mut opening = host_speed();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup());
        let secs = start.elapsed().as_secs_f64();
        let closing = host_speed();
        times.push(secs / ((opening + closing) / 2.0));
        opening = closing;
    }
    (last.expect("set-up runs at least once"), median(&mut times))
}

/// The span sum against the end-to-end pass time, and the tracing
/// overhead; `residual` names the workload's residual metric.
pub fn report_trace(out: &mut Outcome, tracer: &Tracer, passes: &Passes, residual: &str) {
    let root = tracer.stat(Span::Pass);
    let count = root.count.max(1) as f64;
    let pass_ns = root.total_ns as f64 / count;
    let residual_ns = root.self_ns as f64 / count;
    out.set("trace.pass_ns", pass_ns);
    out.set("trace.span_sum_ns", pass_ns - residual_ns);
    out.set(residual, residual_ns);
    let overhead = median(&mut passes.traced_secs()) / median(&mut passes.untraced_secs());
    out.set("trace.overhead", overhead);
    out.set("host.speed", passes.speed());
    out.note(format!(
        "trace: {} traced / {} untraced passes; per traced pass: e2e {:.0} ns = spans {:.0} ns + residual {:.0} ns ({:.2} %); overhead {:.4}x",
        passes.all.len() - passes.untraced_count(),
        passes.untraced_count(),
        pass_ns,
        pass_ns - residual_ns,
        residual_ns,
        100.0 * residual_ns / pass_ns.max(1.0),
        overhead
    ));
}

/// Median host ns per call of `f`, timed in batches of about a millisecond
/// over roughly `budget`.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let calibrate = Instant::now();
    let mut calls = 0_u64;
    while calibrate.elapsed() < Duration::from_millis(5) {
        f();
        calls += 1;
    }
    let per_call = calibrate.elapsed().as_nanos() as f64 / calls as f64;
    let batch = ((1e6 / per_call) as u64).max(1);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    black_box(&mut f);
    median(&mut samples)
}

/// Budget of one isolated-call measurement.
pub const MICRO_BUDGET: Duration = Duration::from_millis(150);
