//! `robot_loop`: one Panda arm under the real Corki-5 stack, on one thread.
//!
//! It mirrors the dynamic backend of `corki_sim::Environment::run_episode`:
//! every 5th 30 Hz frame plans a trajectory with
//! `CorkiTrajectoryPolicy::plan_into` (seeded weights, one seeded
//! close-loop frame per plan), and every frame tracks it with four 100 Hz
//! ticks of `Trajectory::sample_full` → `RobotModel::forward_kinematics` →
//! `TaskSpaceController::compute_torque` → `ArmSimulator::step`.  A pass
//! is one 120-frame episode from `PANDA_HOME` with a seeded object and
//! goal; the operation is one frame's Corki compute (the plan when due,
//! the four torque ticks and the end-of-frame pose read-out — everything
//! but the simulated arm).

use crate::expected;
use crate::harness::{drive, ns_per_call, repeat_setup, report_trace, RunConfig, MICRO_BUDGET};
use crate::report::{mean, quantile, quantile_note, Digest, Outcome};
use crate::trace::{Span, Tracer};
use corki_math::Vec3;
use corki_nn::{Activation, InferenceScratch, LstmCell, LstmState, Mlp};
use corki_policy::{
    CorkiTrajectoryPolicy, ManipulationPolicy, Observation, PlanRequest, TaskDescriptor,
    TokenEncoder, TOKEN_DIM, TOKEN_WINDOW,
};
use corki_robot::panda::{panda_model, PANDA_HOME};
use corki_robot::{
    ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference, TaskSpaceController,
};
use corki_trajectory::{EePose, GripperState, Trajectory, CONTROL_STEP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

// ---- Frozen workload parameters ------------------------------------------

/// Corki-5: a plan every 5th frame, executed for 5 frames.
const HORIZON: usize = 5;
const FRAMES_PER_EPISODE: usize = 120;
const PLANS_PER_EPISODE: usize = FRAMES_PER_EPISODE / HORIZON;
/// 100 Hz control under the 30 Hz camera.
const TICKS_PER_FRAME: usize = 4;
const CONTROL_DT: f64 = 0.01;
/// Episode inputs cycle through this many seeded variants, so every
/// episode's checksum must repeat each time its inputs come round again.
const DISTINCT_EPISODES: usize = 8;
/// Shapes of the policy's hidden state and close-loop feature (private to
/// `corki_policy`), for the isolated layer calls.
const HIDDEN_DIM: usize = 48;
const CLOSE_LOOP_DIM: usize = 8;

/// The seeded inputs of one episode.
struct EpisodeInput {
    object: Vec3,
    goal: Vec3,
    task: TaskDescriptor,
    /// Per plan: the executed step after which the close-loop frame is sent.
    feedback_step: [usize; PLANS_PER_EPISODE],
}

fn episode_input(seed: u64, index: usize) -> EpisodeInput {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let on_table =
        |rng: &mut StdRng| Vec3::new(rng.gen_range(0.35..0.6), rng.gen_range(-0.2..0.2), 0.02);
    let object = on_table(&mut rng);
    let goal = on_table(&mut rng);
    let mut feedback_step = [0; PLANS_PER_EPISODE];
    for step in &mut feedback_step {
        *step = rng.gen_range(0..HORIZON - 1);
    }
    EpisodeInput {
        object,
        goal,
        task: TaskDescriptor { task_id: index, category_id: index % 5, unseen: false },
        feedback_step,
    }
}

fn observation(end_effector: EePose, input: &EpisodeInput) -> Observation {
    Observation {
        end_effector,
        object_position: input.object,
        goal_position: input.goal,
        task: input.task,
        ..Observation::default()
    }
}

/// Per-operation host times, collected on untraced passes only.
#[derive(Default)]
struct Samples {
    plan_ns: Vec<f64>,
    torque_ns: Vec<f64>,
    /// Tagged with the pass index, to be put at the quiet host's speed.
    frame_ns: Vec<(usize, f64)>,
}

struct EpisodeResult {
    checksum: u64,
    plans: usize,
    ticks: usize,
    sane: bool,
}

struct Arm {
    sim: ArmSimulator,
    controller: TaskSpaceController,
    policy: CorkiTrajectoryPolicy,
    trajectory: Trajectory,
    request: PlanRequest,
}

impl Arm {
    fn new(seed: u64) -> Self {
        let mut sim = ArmSimulator::new(panda_model(), SimulatorConfig::default());
        sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
        let policy = CorkiTrajectoryPolicy::new(HORIZON, &mut StdRng::seed_from_u64(seed));
        let home = Observation::default();
        let mut request = PlanRequest::from_observation(home);
        request.close_loop_observations.reserve(1);
        Arm {
            sim,
            controller: TaskSpaceController::new(ControllerGains::default()),
            policy,
            trajectory: Trajectory::hold(&home.end_effector, 1),
            request,
        }
    }

    fn end_effector(&self, gripper: GripperState) -> EePose {
        let fk = self.sim.robot().forward_kinematics(&self.sim.state().positions);
        EePose::from_se3(&fk.end_effector, gripper)
    }

    fn episode(
        &mut self,
        input: &EpisodeInput,
        tracer: &mut Tracer,
        mut samples: Option<(&mut Samples, usize)>,
    ) -> EpisodeResult {
        self.sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
        self.policy.reset();
        let mut current = self.end_effector(GripperState::Open);
        let mut close_loop: Option<Observation> = None;
        let mut digest = Digest::new();
        let (mut plans, mut ticks, mut sane) = (0, 0, true);
        for frame in 0..FRAMES_PER_EPISODE {
            let step = frame % HORIZON;
            let mut compute_ns = 0.0;
            if step == 0 {
                self.request.observation = observation(current, input);
                self.request.close_loop_observations.clear();
                self.request.close_loop_observations.extend(close_loop.take());
                self.request.steps_since_last_plan = if frame == 0 { 1 } else { HORIZON };
                let start = Instant::now();
                tracer.span(Span::Plan, || {
                    self.policy.plan_into(&self.request, &mut self.trajectory)
                });
                let ns = start.elapsed().as_nanos() as f64;
                compute_ns += ns;
                if let Some((s, _)) = samples.as_mut() {
                    s.plan_ns.push(ns);
                }
                plans += 1;
                for i in 1..=HORIZON {
                    let waypoint = self.trajectory.sample(i as f64 * CONTROL_STEP);
                    digest.push_f64s(&waypoint.to_array6());
                }
            }
            for tick in 0..TICKS_PER_FRAME {
                let t = step as f64 * CONTROL_STEP + tick as f64 * CONTROL_DT;
                let start = Instant::now();
                let sample = tracer.span(Span::Sample, || self.trajectory.sample_full(t));
                let fk = tracer.span(Span::Fk, || {
                    self.sim.robot().forward_kinematics(&self.sim.state().positions)
                });
                let torque = tracer.span(Span::Control, || {
                    let mut pose = fk.end_effector;
                    pose.translation = sample.pose.position;
                    let reference = TaskReference {
                        pose,
                        linear_velocity: sample.linear_velocity,
                        angular_velocity: Vec3::ZERO,
                        linear_acceleration: sample.linear_acceleration,
                        angular_acceleration: Vec3::ZERO,
                    };
                    self.controller.compute_torque(self.sim.robot(), self.sim.state(), &reference)
                });
                let ns = start.elapsed().as_nanos() as f64;
                compute_ns += ns;
                if let Some((s, _)) = samples.as_mut() {
                    s.torque_ns.push(ns);
                }
                sane &= torque.iter().all(|tau| tau.is_finite());
                digest.push_f64s(&torque);
                tracer.span(Span::Plant, || {
                    self.sim.step(&torque, CONTROL_DT);
                });
                ticks += 1;
            }
            let start = Instant::now();
            let gripper = self.trajectory.sample((step + 1) as f64 * CONTROL_STEP).gripper;
            current = tracer.span(Span::Fk, || self.end_effector(gripper));
            compute_ns += start.elapsed().as_nanos() as f64;
            if let Some((s, pass)) = samples.as_mut() {
                s.frame_ns.push((*pass, compute_ns));
            }
            if input.feedback_step[frame / HORIZON] == step {
                close_loop = Some(observation(current, input));
            }
        }
        // The arm must stay a physical arm: finite torques and a tool point
        // within the Panda's reach.
        sane &= current.position.norm() < 1.5;
        EpisodeResult { checksum: digest.value(), plans, ticks, sane }
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs: Vec<EpisodeInput> =
        (0..DISTINCT_EPISODES).map(|i| episode_input(cfg.seed, i)).collect();

    // Set-up: policy and arm construction plus one warm-up episode.
    let (mut arm, setup_s) = repeat_setup(|| {
        let mut fresh = Arm::new(cfg.seed);
        fresh.episode(&inputs[0], tracer, None);
        fresh
    });

    let mut checksums: [Option<u64>; DISTINCT_EPISODES] = [None; DISTINCT_EPISODES];
    let mut samples = Samples::default();
    let mut counts = (0, 0);
    let passes = drive(cfg, tracer, |tracer, traced, pass| {
        let index = pass % DISTINCT_EPISODES;
        let start = Instant::now();
        tracer.begin(Span::Pass);
        let result = arm.episode(&inputs[index], tracer, (!traced).then_some((&mut samples, pass)));
        tracer.end();
        let secs = start.elapsed().as_secs_f64();
        let first = *checksums[index].get_or_insert(result.checksum);
        counts = (result.plans, result.ticks);
        out.check(if result.plans != PLANS_PER_EPISODE {
            Some(format!("episode planned {} times, not {PLANS_PER_EPISODE}", result.plans))
        } else if result.ticks != FRAMES_PER_EPISODE * TICKS_PER_FRAME {
            Some(format!("episode ran {} control ticks", result.ticks))
        } else if !result.sane {
            Some("non-finite torque or the arm left its workspace".to_owned())
        } else if result.checksum != first {
            Some(format!("episode {index} checksum {:016x} != {first:016x}", result.checksum))
        } else {
            None
        });
        secs
    });

    // The inputs' checksums, in input order, pinned for the recorded seeds.
    if checksums.iter().all(Option::is_some) {
        let mut digest = Digest::new();
        for checksum in checksums.iter().flatten() {
            digest.push_u64(*checksum);
        }
        let digest = format!("{:016x}", digest.value());
        out.note(format!("output digest: {digest}"));
        if let Some(want) = expected::digest("robot_loop", cfg.seed) {
            out.check((digest != want).then(|| format!("digest {digest} != recorded {want}")));
        }
    } else {
        out.note("output digest: not all inputs ran (run longer to pin it)");
    }

    if cfg.trace {
        report_layers(&mut out, cfg, tracer, &mut samples, counts);
        report_trace(&mut out, tracer, &passes, "robot_loop.residual_ns");
    } else {
        out.set("setup_s", setup_s);
        let run_s = passes.run_s();
        out.set("run_s", run_s);
        out.set("loop_steps_per_s", FRAMES_PER_EPISODE as f64 / run_s);
        let mut frame_ns = passes.at_quiet_speed(&samples.frame_ns);
        let p50 = quantile(&mut frame_ns, 0.50);
        let p90 = quantile(&mut frame_ns, 0.90);
        out.set("op_p50_us", p50.value / 1e3);
        out.set("op_p90_us", p90.value / 1e3);
        out.note(quantile_note("op_p50", &p50, "ns", "frames"));
        out.note(quantile_note("op_p90", &p90, "ns", "frames"));
        for (name, q) in [("plan_p50", 0.50), ("plan_p99", 0.99)] {
            out.note(quantile_note(name, &quantile(&mut samples.plan_ns, q), "ns", "plans"));
        }
        for (name, q) in [("torque_p50", 0.50), ("torque_p99", 0.99)] {
            out.note(quantile_note(name, &quantile(&mut samples.torque_ns, q), "ns", "ticks"));
        }
        passes.report_host(&mut out, true);
    }
    out
}

/// `(plans, ticks)` are one episode's counts.
fn report_layers(
    out: &mut Outcome,
    cfg: &RunConfig,
    tracer: &Tracer,
    samples: &mut Samples,
    (plans, ticks): (usize, usize),
) {
    out.set("policy.plan_ns", tracer.stat(Span::Plan).mean_self_ns());
    let plan_p50 = quantile(&mut samples.plan_ns, 0.50);
    out.set("policy.plan_p50_ns", plan_p50.value);
    out.set("policy.plan_p99_ns", quantile(&mut samples.plan_ns, 0.99).value);
    out.set("policy.plans", plans as f64);
    out.set("policy.inferences_per_step", plans as f64 / FRAMES_PER_EPISODE as f64);
    let layers = isolated_layers(cfg.seed);
    let mut isolated_sum = 0.0;
    for (name, ns) in layers {
        out.set(name, ns);
        isolated_sum += ns;
    }
    out.set("policy.plan_residual_ns", plan_p50.value - isolated_sum);
    out.note(format!(
        "plan p50 {:.0} ns = encode + lstm window + heads + fit {:.0} ns + residual {:.0} ns",
        plan_p50.value,
        isolated_sum,
        plan_p50.value - isolated_sum
    ));
    out.set("trajectory.sample_ns", tracer.stat(Span::Sample).mean_self_ns());
    out.set("robot.fk_ns", tracer.stat(Span::Fk).mean_self_ns());
    out.set("robot.control_ns", tracer.stat(Span::Control).mean_self_ns());
    out.set("robot.torque_p50_ns", quantile(&mut samples.torque_ns, 0.50).value);
    out.set("robot.torque_p99_ns", quantile(&mut samples.torque_ns, 0.99).value);
    out.set("robot.ticks", ticks as f64);
    out.set("robot.plant_ns", tracer.stat(Span::Plant).mean_self_ns());
    out.note(format!(
        "torque tick mean {:.0} ns (untraced), plant step {:.0} ns",
        mean(&samples.torque_ns),
        tracer.stat(Span::Plant).mean_self_ns()
    ));
}

/// The policy's layers called one at a time on the loop's shapes.
fn isolated_layers(seed: u64) -> [(&'static str, f64); 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = TokenEncoder::new(&mut rng);
    let lstm = LstmCell::new(TOKEN_DIM, HIDDEN_DIM, &mut rng);
    let head_in = HIDDEN_DIM + CLOSE_LOOP_DIM;
    let waypoint_head = Mlp::new(&[head_in, 96, 6 * HORIZON], Activation::Tanh, &mut rng);
    let gripper_head = Mlp::new(&[head_in, 32, HORIZON], Activation::Tanh, &mut rng);
    let input = episode_input(seed, 0);
    let obs =
        observation(EePose::new(Vec3::new(0.35, 0.0, 0.3), Vec3::ZERO, GripperState::Open), &input);
    let mut scratch = InferenceScratch::new();
    let mut token = Vec::new();

    let encode_ns = ns_per_call(MICRO_BUDGET, || {
        encoder.encode_into(black_box(&obs), &mut scratch, &mut token);
    });

    let mut projection = Vec::new();
    lstm.input_projection_into(&token, &mut projection);
    let mut w_hh_t = Vec::new();
    lstm.recurrent_transposed_into(&mut w_hh_t);
    let mut state = LstmState::zeros(HIDDEN_DIM);
    let mut next = LstmState::zeros(HIDDEN_DIM);
    let lstm_ns = ns_per_call(MICRO_BUDGET, || {
        state.h.iter_mut().chain(state.c.iter_mut()).for_each(|v| *v = 0.0);
        for _ in 0..TOKEN_WINDOW {
            lstm.forward_premixed_transposed(
                black_box(&projection),
                &w_hh_t,
                &state,
                &mut next,
                &mut scratch,
            );
            std::mem::swap(&mut state, &mut next);
        }
    });

    let head_input: Vec<f64> = (0..head_in).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();
    let mut raw = Vec::new();
    let mut logits = Vec::new();
    let heads_ns = ns_per_call(MICRO_BUDGET, || {
        waypoint_head.forward_into(black_box(&head_input), &mut scratch, &mut raw);
        gripper_head.forward_into(black_box(&head_input), &mut scratch, &mut logits);
    });

    let waypoints: Vec<EePose> = (0..=HORIZON)
        .map(|i| {
            EePose::new(
                Vec3::new(0.3 + 0.012 * i as f64, -0.015 * i as f64, 0.25 + 0.004 * i as f64),
                Vec3::new(0.0, 0.0, 0.02 * i as f64),
                if i > HORIZON / 2 { GripperState::Closed } else { GripperState::Open },
            )
        })
        .collect();
    let mut trajectory = Trajectory::hold(&waypoints[0], 1);
    let fit_ns = ns_per_call(MICRO_BUDGET, || {
        trajectory
            .refit_waypoints(black_box(&waypoints), CONTROL_STEP)
            .expect("six distinct waypoints fit");
    });

    [
        ("nn.encode_ns", encode_ns),
        ("nn.lstm_window_ns", lstm_ns),
        ("nn.heads_ns", heads_ns),
        ("trajectory.fit_ns", fit_ns),
    ]
}
