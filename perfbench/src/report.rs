//! The metric catalogue, exact quantiles and the shape of one result.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.  Every workload reports every one
/// (with tracing off); what a pass and an operation are per workload is
/// documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("loop_steps_per_s", "frames/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Telemetry stage labels, in `corki_telemetry::Stage::ALL` order.
pub const STAGES: [&str; 6] =
    ["encode", "uplink_queue", "pool_queue", "batch_service", "downlink", "control_step"];

/// `EventRecord::kind` values of the fleet DES.
pub const EVENT_KINDS: [&str; 10] = [
    "capture",
    "upload_done",
    "scheduler_wake",
    "inference_done",
    "local_inference_done",
    "step_done",
    "request_timeout",
    "retry_upload",
    "server_crash",
    "server_recover",
];

/// Per-layer metrics: `(name, unit)`.  The traced run of every workload
/// reports every one; a layer the workload does not run reads 0.  Units:
/// `count` marks a deterministic count (identical on every run of a seed),
/// `sim_ms` simulated (not host) time.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        // robot_loop
        ("policy.plan_ns", "ns"),
        ("policy.plan_p50_ns", "ns"),
        ("policy.plan_p99_ns", "ns"),
        ("policy.plans", "count"),
        ("policy.inferences_per_step", "ratio"),
        ("nn.encode_ns", "ns"),
        ("nn.lstm_window_ns", "ns"),
        ("nn.heads_ns", "ns"),
        ("trajectory.fit_ns", "ns"),
        ("policy.plan_residual_ns", "ns"),
        ("trajectory.sample_ns", "ns"),
        ("robot.fk_ns", "ns"),
        ("robot.control_ns", "ns"),
        ("robot.torque_p50_ns", "ns"),
        ("robot.torque_p99_ns", "ns"),
        ("robot.ticks", "count"),
        ("robot.plant_ns", "ns"),
        ("robot_loop.residual_ns", "ns"),
        // fleet_10k and fleet_faults
        ("system.scenario_expand_ns", "ns"),
        ("system.fleet_new_ns", "ns"),
        ("system.fleet_run_ns", "ns"),
        ("system.des.events", "count"),
        ("system.des.host_ns_per_event", "ns"),
        ("system.des.queue_op_ns", "ns"),
        ("telemetry.records", "count"),
        ("telemetry.record_ns", "ns"),
        ("system.batch_size", "requests"),
        ("system.server_util", "fraction"),
        ("system.link_util", "fraction"),
        ("system.uplink_wait_ms", "sim_ms"),
        ("system.pool_queue_ms", "sim_ms"),
        ("faults.timeouts", "count"),
        ("faults.retries", "count"),
        ("faults.dropped", "count"),
        ("faults.fallbacks", "count"),
        ("faults.recovery_ms", "sim_ms"),
        ("system.residual_ns", "ns"),
        // live_serve
        ("serve.setup_ns", "ns"),
        ("ipc.rtt_p50_us", "us"),
        ("ipc.rtt_p99_us", "us"),
        ("ipc.request_p50_us", "us"),
        ("ipc.dispatch_p50_us", "us"),
        ("ipc.completion_p50_us", "us"),
        ("ipc.response_p50_us", "us"),
        ("serve.ipc_residual_ms", "ms"),
        ("serve.ctx_switches_vol", "switches"),
        ("serve.ctx_switches_invol", "switches"),
        ("serve.telemetry_drains", "drains"),
        ("telemetry.shm_record_ns", "ns"),
        ("ipc.ring_push_pop_ns", "ns"),
        ("ipc.cross_thread_rtt_ns", "ns"),
        ("serve.plans", "count"),
        ("serve.batch_size", "requests"),
        ("serve.server_util", "fraction"),
        ("serve.oracle_gap", "fraction"),
        ("serve.residual_ns", "ns"),
        // every workload: the span sum against the end-to-end pass time
        // (the remainder is the workload's `residual_ns` above), and the
        // host-speed factor end-to-end times are divided by
        ("trace.pass_ns", "ns"),
        ("trace.span_sum_ns", "ns"),
        ("trace.overhead", "ratio"),
        ("host.speed", "ratio"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect();
    for kind in EVENT_KINDS {
        all.push((format!("system.des.events.{kind}"), "count"));
    }
    for stage in STAGES {
        all.push((format!("telemetry.{stage}.samples"), "count"));
        all.push((format!("telemetry.{stage}.mean_ms"), "sim_ms"));
    }
    all
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed (wrong output or an error).
    pub failed: u64,
    /// Why each failure happened (first few).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; `failure` is `Some(why)` when it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// An exact nearest-rank quantile with the sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` of `samples`, sorted in place; the rank is
/// `ceil(q·n)`.
pub fn quantile(samples: &mut [f64], q: f64) -> Quantile {
    assert!(!samples.is_empty(), "a quantile needs at least one sample");
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile { value: samples[rank - 1], samples: n, beyond: n - rank }
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).value
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Note line for a reported quantile.
pub fn quantile_note(name: &str, q: &Quantile, unit: &str, what: &str) -> String {
    format!("{name} = {:.3} {unit} over {} {what} ({} beyond)", q.value, q.samples, q.beyond)
}

/// FNV-1a over 64-bit words: the checksum of outputs that must repeat
/// bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn push_u64(&mut self, word: u64) {
        self.push_bytes(&word.to_le_bytes());
    }

    pub fn push_f64s(&mut self, values: &[f64]) {
        for value in values {
            self.push_u64(value.to_bits());
        }
    }

    pub fn push_str(&mut self, text: &str) {
        self.push_bytes(text.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
