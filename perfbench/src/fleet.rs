//! `fleet_10k` and `fleet_faults`: single-threaded DES runs of frozen
//! scenario cells through `FleetSimulator::new(config).run()`.
//!
//! A pass runs every cell of the workload once (one 10,000-robot cell, or
//! the three fault cells back to back); the operation is one cell run.
//! The cells' `shards` and `threads` knobs are ignored: they never change
//! a result, and a later engine may drop them.

use crate::expected;
use crate::harness::{
    drive, ns_per_call, repeat_setup, report_trace, Passes, RunConfig, MICRO_BUDGET,
};
use crate::report::{median, quantile, quantile_note, Digest, Outcome, EVENT_KINDS, STAGES};
use crate::trace::{Span, Tracer};
use corki_system::des::EventQueue;
use corki_system::{
    scenario_fingerprint, ConcreteScenario, FleetOutcome, FleetSimulator, FleetSummary,
    ScenarioSpec,
};
use corki_telemetry::{Recorder, Stage, TelemetryReport};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub const FLEET_10K: &[&str] = &[include_str!("../workloads/fleet_10k_pool.json")];

pub const FLEET_FAULTS: &[&str] = &[
    include_str!("../workloads/crash_pool2_lqd_8robots_60frames.json"),
    include_str!("../workloads/degraded_uplink_retry_8robots_60frames.json"),
    include_str!("../workloads/churn_fallback_8robots_60frames.json"),
];

/// The `FleetSummary` fields the output digest covers (fields a later
/// engine adds do not change it).
const SUMMARY_FIELDS: [&str; 27] = [
    "robots",
    "servers",
    "frames_per_robot",
    "scheduler",
    "routing",
    "warmup_ms",
    "makespan_ms",
    "throughput_steps_per_s",
    "mean_frame_latency_ms",
    "p99_frame_latency_ms",
    "mean_plan_latency_ms",
    "p99_plan_latency_ms",
    "mean_queue_delay_ms",
    "p99_queue_delay_ms",
    "mean_link_wait_ms",
    "server_utilization",
    "per_server_utilization",
    "link_utilization",
    "inferences",
    "on_robot_inferences",
    "mean_batch_size",
    "slo_violation_fraction",
    "timed_out_requests",
    "retries",
    "dropped_requests",
    "fallback_inferences",
    "mean_recovery_ms",
];

/// Parses a frozen scenario with its seed replaced by `seed`.
pub fn parse_spec(json: &str, seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::from_json(json).or_else(|first| {
        // The shard and thread knobs never change a result; an engine
        // that no longer knows them must still run the same cell.
        let mut value: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if let Value::Object(map) = &mut value {
            map.remove("shards");
            map.remove("threads");
        }
        let stripped = serde_json::to_string(&value).map_err(|e| e.to_string())?;
        ScenarioSpec::from_json(&stripped).map_err(|_| first)
    })?;
    spec.seed = seed;
    Ok(spec)
}

/// Parses, validates and expands the workload's scenarios.
pub fn expand(sources: &[&str], seed: u64) -> Result<(Vec<ConcreteScenario>, Vec<String>), String> {
    let mut cells = Vec::new();
    let mut hashes = Vec::new();
    for json in sources {
        let spec = parse_spec(json, seed)?;
        let expanded = spec.expand().map_err(|e| format!("{}: {e}", spec.name))?;
        hashes.push(format!("{} scenario_hash={}", spec.name, scenario_fingerprint(&expanded)));
        cells.extend(expanded);
    }
    Ok((cells, hashes))
}

/// The checked outputs of one cell run.
#[derive(Clone, PartialEq)]
struct Checked {
    summary: FleetSummary,
    telemetry: TelemetryReport,
}

impl Checked {
    fn of(outcome: &FleetOutcome) -> Self {
        Checked { summary: outcome.summary.clone(), telemetry: outcome.telemetry.clone() }
    }
}

fn summary_fields(summary: &FleetSummary) -> BTreeMap<String, Value> {
    match serde_json::to_value(summary) {
        Ok(Value::Object(map)) => map,
        _ => unreachable!("a FleetSummary serialises to an object"),
    }
}

/// Digest of the covered summary fields and the exact part of the stage
/// telemetry (sample counts and means; the bucketed quantiles are not
/// covered).
fn digest(cells: &[Checked]) -> Result<String, String> {
    let mut digest = Digest::new();
    for cell in cells {
        let fields = summary_fields(&cell.summary);
        for name in SUMMARY_FIELDS {
            let value = fields.get(name).ok_or_else(|| format!("FleetSummary lost `{name}`"))?;
            digest.push_str(name);
            digest.push_str(&serde_json::to_string(value).map_err(|e| e.to_string())?);
        }
        for stage in &cell.telemetry.stages {
            digest.push_str(&stage.stage);
            digest.push_u64(stage.samples);
            digest.push_u64(stage.mean_ns.to_bits());
        }
    }
    Ok(format!("{:016x}", digest.value()))
}

/// Compares a default-seed summary with its committed bench row.
fn bench_row_mismatch(name: &str, summary: &FleetSummary) -> Option<String> {
    let row = expected::bench_row(name)?;
    let fields = summary_fields(summary);
    row.iter().find_map(|(key, want)| {
        let got = fields.get(key);
        (got != Some(want)).then(|| format!("{name}: {key} = {got:?}, committed row has {want:?}"))
    })
}

pub fn run(workload: &str, sources: &[&str], cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: scenario parse, validation and expansion.
    tracer.set_enabled(cfg.trace);
    let (expanded, setup_s) =
        repeat_setup(|| tracer.span(Span::ScenarioExpand, || expand(sources, cfg.seed)));
    tracer.set_enabled(false);
    let (cells, hashes) = match expanded {
        Ok(expanded) => expanded,
        Err(why) => {
            out.check(Some(why));
            return out;
        }
    };
    for hash in hashes {
        out.note(format!("cell {hash}"));
    }

    // One untimed warm-up pass (the allocator and caches reach their
    // steady state); its outputs are the reference every pass must repeat.
    let warm_up: Vec<FleetOutcome> =
        cells.iter().map(|cell| FleetSimulator::new(cell.config.clone()).run()).collect();
    let frames_per_pass: f64 =
        warm_up.iter().flat_map(|o| o.robots.iter().map(|r| r.frames as f64)).sum();
    let reference: Vec<Checked> = warm_up.iter().map(Checked::of).collect();
    drop(warm_up);

    let mut op_ns = Vec::new();
    let passes = drive(cfg, tracer, |tracer, traced, pass| {
        let mut outcomes = Vec::with_capacity(cells.len());
        let start = Instant::now();
        tracer.begin(Span::Pass);
        for cell in &cells {
            let cell_start = Instant::now();
            let sim = tracer.span(Span::FleetNew, || FleetSimulator::new(cell.config.clone()));
            outcomes.push(tracer.span(Span::FleetRun, || sim.run()));
            if !traced {
                op_ns.push((pass, cell_start.elapsed().as_nanos() as f64));
            }
        }
        tracer.end();
        let secs = start.elapsed().as_secs_f64();
        let repeats = outcomes.iter().zip(&reference).all(|(o, want)| &Checked::of(o) == want);
        out.check((!repeats).then(|| "a pass's outputs differ from the warm-up pass".to_owned()));
        secs
    });

    match digest(&reference) {
        Ok(digest) => {
            out.note(format!("output digest: {digest}"));
            if let Some(want) = expected::digest(workload, cfg.seed) {
                out.check((digest != want).then(|| format!("digest {digest} != recorded {want}")));
            }
        }
        Err(why) => out.check(Some(why)),
    }
    if cfg.seed == expected::DEFAULT_SEED {
        for (cell, checked) in cells.iter().zip(&reference) {
            out.check(bench_row_mismatch(&cell.scenario, &checked.summary));
        }
    }

    if cfg.trace {
        report_layers(&mut out, &cells, &reference, tracer, &passes);
        report_trace(&mut out, tracer, &passes, "system.residual_ns");
    } else {
        out.set("setup_s", setup_s);
        let run_s = passes.run_s();
        out.set("run_s", run_s);
        out.set("loop_steps_per_s", frames_per_pass / run_s);
        let mut op_ns = passes.at_quiet_speed(&op_ns);
        let p50 = quantile(&mut op_ns, 0.50);
        let p90 = quantile(&mut op_ns, 0.90);
        out.set("op_p50_us", p50.value / 1e3);
        out.set("op_p90_us", p90.value / 1e3);
        out.note(quantile_note("op_p50", &p50, "ns", "cell runs"));
        out.note(quantile_note("op_p90", &p90, "ns", "cell runs"));
        passes.report_host(&mut out, true);
    }
    out
}

fn report_layers(
    out: &mut Outcome,
    cells: &[ConcreteScenario],
    reference: &[Checked],
    tracer: &Tracer,
    passes: &Passes,
) {
    let traced = passes.traced_secs().len() as f64;
    out.set("system.scenario_expand_ns", tracer.stat(Span::ScenarioExpand).mean_self_ns());
    out.set("system.fleet_new_ns", tracer.stat(Span::FleetNew).self_ns as f64 / traced);
    out.set("system.fleet_run_ns", tracer.stat(Span::FleetRun).self_ns as f64 / traced);

    // Event census: one more pass with the event log on, in its own config
    // copy; it must not change a single output.
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for (cell, want) in cells.iter().zip(reference) {
        let mut config = cell.config.clone();
        config.record_event_log = true;
        let outcome = FleetSimulator::new(config).run();
        out.check(
            (&Checked::of(&outcome) != want)
                .then(|| format!("{}: recording the event log changed the outputs", cell.scenario)),
        );
        for event in &outcome.event_log {
            *kinds.entry(event.kind.clone()).or_default() += 1;
        }
    }
    let events: u64 = kinds.values().sum();
    out.set("system.des.events", events as f64);
    for kind in EVENT_KINDS {
        out.set(&format!("system.des.events.{kind}"), kinds.get(kind).copied().unwrap_or(0) as f64);
    }
    for kind in kinds.keys().filter(|k| !EVENT_KINDS.contains(&k.as_str())) {
        out.note(format!("event kind `{kind}` has no metric of its own"));
    }
    let untraced_pass_ns = median(&mut passes.untraced_secs()) * 1e9;
    out.set("system.des.host_ns_per_event", untraced_pass_ns / events.max(1) as f64);

    let depth = cells.iter().map(|c| c.config.robots.len()).max().unwrap_or(1);
    out.set("system.des.queue_op_ns", queue_op_ns(depth));
    out.note(format!("queue_op at a pending depth of {depth} events"));

    let mut records = 0_u64;
    let n = reference.len() as f64;
    let mut sums = [0.0; 5];
    let mut faults = [0.0; 5];
    for cell in reference {
        let s = &cell.summary;
        records += cell.telemetry.stages.iter().map(|stage| stage.samples).sum::<u64>();
        for (sum, v) in sums.iter_mut().zip([
            s.mean_batch_size,
            s.server_utilization,
            s.link_utilization,
            s.mean_link_wait_ms,
            s.mean_queue_delay_ms,
        ]) {
            *sum += v / n;
        }
        for (sum, v) in faults.iter_mut().zip([
            s.timed_out_requests as f64,
            s.retries as f64,
            s.dropped_requests as f64,
            s.fallback_inferences as f64,
            s.mean_recovery_ms / n,
        ]) {
            *sum += v;
        }
    }
    for (name, v) in [
        "system.batch_size",
        "system.server_util",
        "system.link_util",
        "system.uplink_wait_ms",
        "system.pool_queue_ms",
    ]
    .into_iter()
    .zip(sums)
    {
        out.set(name, v);
    }
    for (name, v) in [
        "faults.timeouts",
        "faults.retries",
        "faults.dropped",
        "faults.fallbacks",
        "faults.recovery_ms",
    ]
    .into_iter()
    .zip(faults)
    {
        out.set(name, v);
    }
    out.set("telemetry.records", records as f64);
    for (label, stage) in STAGES.into_iter().zip(Stage::ALL) {
        debug_assert_eq!(label, stage.label());
        let (mut samples, mut total_ns) = (0_u64, 0.0);
        for cell in reference {
            if let Some(summary) = cell.telemetry.stage(label) {
                samples += summary.samples;
                total_ns += summary.mean_ns * summary.samples as f64;
            }
        }
        out.set(&format!("telemetry.{label}.samples"), samples as f64);
        out.set(&format!("telemetry.{label}.mean_ms"), total_ns / samples.max(1) as f64 / 1e6);
    }
    let mut recorder = Recorder::new(8);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    out.set(
        "telemetry.record_ns",
        ns_per_call(MICRO_BUDGET, || {
            state = lcg(state);
            recorder.record(Stage::PoolQueue, black_box(state >> 40));
        }),
    );
}

fn lcg(state: u64) -> u64 {
    state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

/// One `EventQueue` schedule + pop with `depth` events pending.
fn queue_op_ns(depth: usize) -> f64 {
    let mut queue = EventQueue::new();
    let mut state = 0x853c_49e6_748f_ea9b_u64;
    for _ in 0..depth {
        state = lcg(state);
        queue.schedule(1.0 + (state >> 40) as f64 / 64.0, state);
    }
    ns_per_call(MICRO_BUDGET, || {
        state = lcg(state);
        queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
        black_box(queue.pop());
    })
}
