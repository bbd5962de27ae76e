//! `live_serve`: `corki_serve::run_live` of a frozen live cell — two
//! Corki-5 robot processes and one FIFO H100 int8 inference worker over
//! shared memory.
//!
//! A pass is one live run; its time is the serving phase (`wall_s`), and
//! the rest of the `run_live` call (spawn, attach, teardown) is set-up.
//! The operation is one offloaded plan as its robot sees it, frame capture
//! to trajectory received.  The IPC layer's share of it, the measured
//! shared-memory round trip (request, dispatch, completion and response
//! hops), is a layer metric: `LiveReport` exposes each run's exact p50 and
//! p99 of those round trips, not the raw samples, so the benchmark reports
//! the median over passes of each pass's exact quantile.  The benchmark
//! binary hosts the `__live-robot`/`__live-worker` child roles.
//!
//! Its end-to-end times are raw host times, not divided by the host-speed
//! factor: the serving phase is paced by the cell's modelled sleeps, and
//! set-up and CPU go to process start-up, wake-ups and system calls, which
//! the floating-point reference kernel does not track.

use crate::fleet::expand;
use crate::harness::{drive, ns_per_call, report_trace, RunConfig, MICRO_BUDGET};
use crate::report::{mean, median, quantile, quantile_note, Outcome};
use crate::sys::{children_usage, Usage};
use crate::trace::{Span, Tracer};
use corki_ipc::ShmSegment;
use corki_serve::{LiveError, LiveReport};
use corki_system::{ConcreteScenario, FleetSimulator, FleetSummary};
use corki_telemetry::{ShmTelemetry, Stage, PAGE_WORDS};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const LIVE_CELL: &[&str] = &[include_str!("../workloads/live_fifo_2robots_45frames.json")];

/// The live-vs-DES agreement the repository's oracle test demands.
const ORACLE_TOLERANCE: f64 = 0.30;

/// What one live run measured.
struct LivePass {
    report: LiveReport,
    setup_s: f64,
    children: Usage,
}

fn relative_gap(live: f64, sim: f64) -> f64 {
    (live - sim).abs() / sim.abs().max(1e-9)
}

/// The larger of the throughput and mean-plan-latency gaps to the DES.
fn oracle_gap(report: &LiveReport, sim: &FleetSummary) -> f64 {
    relative_gap(report.row.throughput_steps_per_s, sim.throughput_steps_per_s)
        .max(relative_gap(report.row.mean_plan_latency_ms, sim.mean_plan_latency_ms))
}

fn check(report: &LiveReport, cell: &ConcreteScenario, sim: &FleetSummary) -> Option<String> {
    let robots = cell.config.robots.len();
    let frames = robots * cell.config.frames_per_robot;
    let gap = oracle_gap(report, sim);
    if report.robots_completed != robots {
        Some(format!("{} of {robots} robots completed", report.robots_completed))
    } else if report.total_frames != frames {
        Some(format!("{} frames served, not {frames}", report.total_frames))
    } else if report.offloaded_plans != sim.inferences {
        Some(format!("{} plans served, the DES serves {}", report.offloaded_plans, sim.inferences))
    } else if plan_latencies_us(report).count() != report.offloaded_plans {
        Some("the robots' timelines do not hold every plan".to_owned())
    } else if gap >= ORACLE_TOLERANCE {
        Some(format!("live run is {:.1} % away from the DES", 100.0 * gap))
    } else {
        None
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (cells, hashes) = match expand(LIVE_CELL, cfg.seed) {
        Ok(expanded) => expanded,
        Err(why) => {
            out.check(Some(why));
            return out;
        }
    };
    for hash in hashes {
        out.note(format!("cell {hash}"));
    }
    let cell = &cells[0];
    // The oracle: the DES of the very same cell.
    let sim = FleetSimulator::new(cell.config.clone()).run().summary;
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.check(Some(format!("cannot locate the benchmark binary: {e}")));
            return out;
        }
    };

    let mut runs: Vec<LivePass> = Vec::new();
    let passes = drive(cfg, tracer, |tracer, _traced, _pass| {
        corki_serve::cleanup_stale_segments();
        let children_before = children_usage();
        let start = Instant::now();
        tracer.begin(Span::Pass);
        let result = tracer.span(Span::RunLive, || corki_serve::run_live(cell, &exe));
        tracer.end();
        let secs = start.elapsed().as_secs_f64();
        let children = children_usage().since(&children_before);
        match result {
            Ok(report) => {
                out.check(check(&report, cell, &sim));
                let setup_s = secs - report.wall_s;
                runs.push(LivePass { report, setup_s, children });
            }
            Err(e) => out.check(Some(format!("live run failed: {e}"))),
        }
        secs
    });
    if runs.is_empty() {
        return out;
    }
    let per_pass = |f: &dyn Fn(&LivePass) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    out.note(format!(
        "{} live runs of {} robots x {} frames; {} round trips per run",
        runs.len(),
        cell.config.robots.len(),
        cell.config.frames_per_robot,
        runs[0].report.transit.round_trip.samples
    ));
    // The round trip is the IPC layer's share of a plan (a layer metric in
    // the traced run); every run reports it.
    let mut rtt_p50s = per_pass(&|r| r.report.transit.round_trip.p50_ns / 1e3);
    let mut rtt_p99s = per_pass(&|r| r.report.transit.round_trip.p99_ns / 1e3);
    out.note(format!("round trip p50 per run (us): {rtt_p50s:.1?}"));
    out.note(format!("round trip p99 per run (us): {rtt_p99s:.1?}"));
    let (rtt_p50, rtt_p99) = (median(&mut rtt_p50s), median(&mut rtt_p99s));
    out.note(format!(
        "round trip: median over runs of the exact p50 {rtt_p50:.1} us, p99 {rtt_p99:.1} us"
    ));

    if cfg.trace {
        out.set("serve.setup_ns", mean(&per_pass(&|r| r.setup_s)) * 1e9);
        for (name, hop) in [
            ("ipc.request_p50_us", 0),
            ("ipc.dispatch_p50_us", 1),
            ("ipc.completion_p50_us", 2),
            ("ipc.response_p50_us", 3),
        ] {
            let mut p50s = per_pass(&|r| {
                let t = &r.report.transit;
                [&t.request, &t.dispatch, &t.completion, &t.response][hop].p50_ns / 1e3
            });
            out.set(name, median(&mut p50s));
        }
        out.set("ipc.rtt_p50_us", rtt_p50);
        out.set("ipc.rtt_p99_us", rtt_p99);
        out.set("serve.ipc_residual_ms", mean(&per_pass(&|r| r.report.ipc_overhead_ms)));
        out.set("serve.ctx_switches_vol", mean(&per_pass(&|r| r.children.vol_switches as f64)));
        out.set("serve.ctx_switches_invol", mean(&per_pass(&|r| r.children.invol_switches as f64)));
        out.set("serve.telemetry_drains", mean(&per_pass(&|r| r.report.telemetry_drains as f64)));
        out.set("serve.plans", runs[0].report.offloaded_plans as f64);
        out.set("serve.batch_size", mean(&per_pass(&|r| r.report.row.mean_batch_size)));
        out.set("serve.server_util", mean(&per_pass(&|r| r.report.row.server_utilization)));
        out.set("serve.oracle_gap", mean(&per_pass(&|r| oracle_gap(&r.report, &sim))));
        for (name, ns) in isolated_layers() {
            out.set(name, ns);
        }
        report_trace(&mut out, tracer, &passes, "serve.residual_ns");
    } else {
        out.set("setup_s", median(&mut per_pass(&|r| r.setup_s)));
        let run_s = median(&mut per_pass(&|r| r.report.wall_s));
        out.set("run_s", run_s);
        out.set("loop_steps_per_s", runs[0].report.total_frames as f64 / run_s);
        let mut plan_us: Vec<f64> =
            runs.iter().flat_map(|r| plan_latencies_us(&r.report)).collect();
        let p50 = quantile(&mut plan_us, 0.50);
        let p90 = quantile(&mut plan_us, 0.90);
        out.set("op_p50_us", p50.value);
        out.set("op_p90_us", p90.value);
        out.note(quantile_note("op_p50", &p50, "us", "offloaded plans"));
        out.note(quantile_note("op_p90", &p90, "us", "offloaded plans"));
        passes.report_host(&mut out, false);
    }
    out
}

/// Every offloaded plan's end-to-end latency (frame capture → trajectory
/// received, host wall clock), us, from the robots' telemetry timelines,
/// which keep each event's exact value.
fn plan_latencies_us(report: &LiveReport) -> impl Iterator<Item = f64> + '_ {
    report.telemetry.timelines.iter().flat_map(|timeline| {
        timeline.events.iter().filter(|e| e.kind == "plan").map(|e| e.value_ms * 1e3)
    })
}

/// The IPC and shared-memory telemetry floor under the live round trip.
fn isolated_layers() -> [(&'static str, f64); 3] {
    const MSG: usize = 64;
    let page: Vec<AtomicU64> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    let telemetry = ShmTelemetry::new(&page);
    let mut state = 0x853c_49e6_748f_ea9b_u64;
    let shm_record_ns = ns_per_call(MICRO_BUDGET, || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        telemetry.record(Stage::PoolQueue, black_box(state >> 40));
    });

    let seg = ShmSegment::anonymous(16 * 1024).expect("an anonymous segment maps");
    let local = seg.init_ring(0, 8, MSG);
    let mut buf = [0_u8; MSG];
    let ring_ns = ns_per_call(MICRO_BUDGET, || {
        black_box(local.try_push(&[0x5A; MSG]));
        black_box(local.try_pop(&mut buf));
    });

    let req = seg.init_ring(2048, 8, MSG);
    let resp = seg.init_ring(4096, 8, MSG);
    let echo_req = seg.ring(2048).expect("attach the echo request ring");
    let echo_resp = seg.ring(4096).expect("attach the echo response ring");
    let stop = AtomicBool::new(false);
    let rtt_ns = std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            let mut msg = [0_u8; MSG];
            while !stop.load(Ordering::Relaxed) {
                if echo_req.try_pop(&mut msg) {
                    while !echo_resp.try_push(&msg) {
                        std::thread::yield_now();
                    }
                } else {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
        });
        let mut out = [0_u8; MSG];
        let ns = ns_per_call(MICRO_BUDGET, || {
            assert!(req.try_push(&[0x7E; MSG]), "the echo thread drains every request");
            echo.thread().unpark();
            while !resp.try_pop(&mut out) {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::Relaxed);
        echo.thread().unpark();
        ns
    });

    [
        ("telemetry.shm_record_ns", shm_record_ns),
        ("ipc.ring_push_pop_ns", ring_ns),
        ("ipc.cross_thread_rtt_ns", rtt_ns),
    ]
}

/// Runs a hidden live child role (`__live-robot` / `__live-worker`) with
/// the argument shapes `run_live` spawns; returns the exit code.
pub fn child_role(args: &[String]) -> i32 {
    let role = args[1].as_str();
    let mut flags = std::collections::HashMap::new();
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        if let Some(value) = it.next() {
            flags.insert(flag.as_str(), value.as_str());
        }
    }
    let number = |flag: &str| flags.get(flag).and_then(|v| v.parse::<usize>().ok());
    let result = match (role, flags.get("--shm")) {
        ("__live-robot", Some(shm)) => match (number("--robot"), flags.get("--config")) {
            (Some(robot), Some(config)) => corki_serve::run_robot(shm, robot, config),
            _ => Err(LiveError::Protocol("__live-robot needs --robot and --config".into())),
        },
        ("__live-worker", Some(shm)) => {
            match (number("--server"), number("--robots"), number("--servers")) {
                (Some(server), Some(robots), Some(servers)) => {
                    corki_serve::run_worker(shm, server, robots, servers)
                }
                _ => Err(LiveError::Protocol(
                    "__live-worker needs --server, --robots and --servers".into(),
                )),
            }
        }
        _ => Err(LiveError::Protocol(format!("{role} needs --shm"))),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{role}: {e}");
            1
        }
    }
}
