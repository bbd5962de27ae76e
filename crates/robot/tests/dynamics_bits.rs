//! Bit-exact golden hashes of the rigid-body stack.
//!
//! Every output below is folded, as the exact `f64::to_bits` of each value,
//! into an FNV-1a hash over 1,000 seeded states. The pinned hashes were
//! recorded from the per-function implementation (separate FK, Jacobian,
//! CRBA and RNEA passes), so any change to a floating-point expression or an
//! accumulation order in the shared pass shows up here as a hash mismatch.

use corki_math::{DMat, Mat3, SpatialInertia, Vec3, SE3};
use corki_robot::panda::{panda_model, PANDA_HOME};
use corki_robot::{
    ArmSimulator, ControllerGains, JointModel, JointState, Link, RobotModel, SimulatorConfig,
    TaskReference, TaskSpaceController, TaskSpaceDynamics,
};

const STATES: usize = 1_000;

/// SplitMix64: a tiny seeded generator, so the golden needs no RNG crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    fn vec3(&mut self, scale: f64) -> Vec3 {
        Vec3::new(self.range(-scale, scale), self.range(-scale, scale), self.range(-scale, scale))
    }
}

/// FNV-1a over the bit patterns of the pushed values.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        xs.iter().for_each(|&x| self.f64(x));
    }

    fn vec3(&mut self, v: Vec3) {
        self.f64s(&[v.x, v.y, v.z]);
    }

    fn se3(&mut self, pose: &SE3) {
        for row in &pose.rotation.m {
            self.f64s(row);
        }
        self.vec3(pose.translation);
    }

    fn dmat(&mut self, m: &DMat) {
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                self.f64(m[(i, j)]);
            }
        }
    }
}

/// A seeded joint state inside the Panda's position limits, with joint
/// speeds up to 1.5 rad/s.
fn random_state(robot: &RobotModel, rng: &mut Rng) -> JointState {
    let actuated = robot.joints().iter().filter(|j| j.kind.is_actuated());
    let positions = actuated.map(|j| rng.range(j.position_min, j.position_max)).collect();
    let velocities = (0..robot.dof()).map(|_| rng.range(-1.5, 1.5)).collect();
    JointState::new(positions, velocities)
}

/// A seeded task-space reference near the current end-effector pose.
fn random_reference(robot: &RobotModel, state: &JointState, rng: &mut Rng) -> TaskReference {
    let nudged: Vec<f64> = state.positions.iter().map(|q| q + rng.range(-0.2, 0.2)).collect();
    TaskReference {
        pose: robot.forward_kinematics(&nudged).end_effector,
        linear_velocity: rng.vec3(0.5),
        angular_velocity: rng.vec3(0.5),
        linear_acceleration: rng.vec3(2.0),
        angular_acceleration: rng.vec3(2.0),
    }
}

fn assert_hash(what: &str, hash: BitHash, expected: u64) {
    assert_eq!(hash.0, expected, "{what}: bit hash {:#018x} != pinned {expected:#018x}", hash.0);
}

#[test]
fn compute_torque_bits_are_pinned() {
    let robot = panda_model();
    let clamped = TaskSpaceController::new(ControllerGains::default());
    let raw = clamped.without_effort_clamping();
    let mut rng = Rng(0x5eed_0001);
    let mut hash = BitHash::new();
    for _ in 0..STATES {
        let state = random_state(&robot, &mut rng);
        let reference = random_reference(&robot, &state, &mut rng);
        hash.f64s(&clamped.compute_torque(&robot, &state, &reference));
        hash.f64s(&raw.compute_torque(&robot, &state, &reference));
    }
    assert_hash("compute_torque", hash, 0x047c_465c_ab15_bbcb);
}

#[test]
fn forward_dynamics_bits_are_pinned() {
    let robot = panda_model();
    let mut rng = Rng(0x5eed_0002);
    let mut hash = BitHash::new();
    for _ in 0..STATES {
        let state = random_state(&robot, &mut rng);
        let tau: Vec<f64> = robot.effort_limits().iter().map(|l| rng.range(-l, *l)).collect();
        hash.f64s(&robot.forward_dynamics(&state.positions, &state.velocities, &tau));
    }
    assert_hash("forward_dynamics", hash, 0xe149_5c59_8ee2_c6ae);
}

#[test]
fn task_space_model_bits_are_pinned() {
    let robot = panda_model();
    let dynamics = TaskSpaceDynamics::default();
    let mut rng = Rng(0x5eed_0003);
    let mut hash = BitHash::new();
    for _ in 0..STATES {
        let state = random_state(&robot, &mut rng);
        let model = dynamics.compute(&robot, &state.positions, &state.velocities);
        hash.dmat(model.jacobian.matrix());
        hash.dmat(&model.joint_mass_matrix);
        hash.f64s(&model.joint_bias);
        hash.dmat(&model.task_mass_matrix);
        hash.f64s(&model.task_bias);
        hash.f64s(&model.jdot_qdot);
        hash.se3(&model.end_effector.pose);
        hash.vec3(model.end_effector.linear_velocity);
        hash.vec3(model.end_effector.angular_velocity);
    }
    assert_hash("TaskSpaceDynamics::compute", hash, 0x3588_17e4_4e5b_b7e9);
}

#[test]
fn kinematics_and_inverse_dynamics_bits_are_pinned() {
    let robot = panda_model();
    let mut rng = Rng(0x5eed_0004);
    let mut hash = BitHash::new();
    for _ in 0..STATES {
        let state = random_state(&robot, &mut rng);
        let (q, qd) = (&state.positions, &state.velocities);
        let qdd: Vec<f64> = (0..robot.dof()).map(|_| rng.range(-3.0, 3.0)).collect();
        for pose in &robot.forward_kinematics(q).link_poses {
            hash.se3(pose);
        }
        hash.dmat(robot.jacobian(q).matrix());
        hash.f64s(&robot.jacobian_dot_qdot(q, qd));
        hash.dmat(&robot.mass_matrix(q));
        hash.f64s(&robot.inverse_dynamics(q, qd, &qdd));
        hash.f64s(&robot.bias_forces(q, qd));
        hash.f64s(&robot.gravity_torques(q));
    }
    assert_hash("kinematics and inverse dynamics", hash, 0x0f0d_92f9_5a68_ed50);
}

#[test]
fn closed_loop_simulation_bits_are_pinned() {
    // One second of TS-CTC at 100 Hz on the 1 ms plant, reaching for a pose
    // 5 cm forward and 3 cm down from home while the reference slides.
    let mut sim = ArmSimulator::new(panda_model(), SimulatorConfig::default());
    sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
    let controller = TaskSpaceController::new(ControllerGains::default());
    let mut target = sim.robot().forward_kinematics(&sim.state().positions).end_effector;
    target.translation.x += 0.05;
    target.translation.z -= 0.03;
    let mut hash = BitHash::new();
    for tick in 0..100 {
        let mut pose = target;
        pose.translation.y += 0.001 * tick as f64;
        let reference = TaskReference::moving(pose, Vec3::new(0.0, 0.1, 0.0), Vec3::ZERO);
        let torque = controller.compute_torque(sim.robot(), sim.state(), &reference);
        hash.f64s(&torque);
        let state = sim.step(&torque, 0.01);
        hash.f64s(&state.positions);
        hash.f64s(&state.velocities);
    }
    assert_hash("closed-loop ArmSimulator", hash, 0xe822_1bb6_8198_6c1f);
}

/// A two-link arm on a prismatic rail with an offset fixed tool, which
/// exercises the prismatic and fixed-joint branches the Panda never takes.
fn rail_arm() -> RobotModel {
    let inertia = |mass: f64, com: Vec3| SpatialInertia::new(mass, com, Mat3::identity() * 0.02);
    let mut rail = JointModel::revolute("rail", 0.0, 0.1, 0.0, -0.5, 0.5, 1.0, 200.0);
    rail.kind = corki_robot::JointKind::PrismaticZ;
    let mut elbow = JointModel::revolute("elbow", 0.4, 0.0, 0.3, -2.5, 2.5, 2.0, 80.0);
    elbow.theta_offset = 0.25;
    let joints = vec![
        rail,
        JointModel::revolute("shoulder", 0.05, 0.2, -1.2, -2.5, 2.5, 2.0, 80.0),
        elbow,
        JointModel::fixed("tool", 0.1, 0.15, 0.7, -0.4),
    ];
    let links = vec![
        Link::new("carriage", inertia(5.0, Vec3::new(0.0, 0.0, 0.05))),
        Link::new("upper", inertia(2.0, Vec3::new(0.2, 0.01, 0.0))),
        Link::new("fore", inertia(1.0, Vec3::new(0.15, 0.0, 0.02))),
        Link::new("tool", inertia(0.3, Vec3::new(0.0, 0.0, 0.05))),
    ];
    RobotModel::new("rail-arm", joints, links).expect("consistent model")
}

#[test]
fn prismatic_and_fixed_joint_bits_are_pinned() {
    let robot = rail_arm();
    let dynamics = TaskSpaceDynamics::default();
    let mut rng = Rng(0x5eed_0005);
    let mut hash = BitHash::new();
    for _ in 0..STATES {
        let state = random_state(&robot, &mut rng);
        let (q, qd) = (&state.positions, &state.velocities);
        let tau: Vec<f64> = robot.effort_limits().iter().map(|l| rng.range(-l, *l)).collect();
        for pose in &robot.forward_kinematics(q).link_poses {
            hash.se3(pose);
        }
        hash.f64s(&robot.forward_dynamics(q, qd, &tau));
        let model = dynamics.compute(&robot, q, qd);
        hash.dmat(model.jacobian.matrix());
        hash.dmat(&model.joint_mass_matrix);
        hash.f64s(&model.joint_bias);
        hash.f64s(&model.jdot_qdot);
    }
    assert_hash("prismatic and fixed joints", hash, 0x5060_926a_2bb3_13b9);
}
