//! Joint-space and task-space dynamics: RNEA, CRBA and the quantities used by
//! task-space computed torque control.
//!
//! All five "key computing blocks" of the paper (Fig. 6/7) read one shared
//! rigid-body pass (`rigid_body.rs`), which computes each joint transform
//! once per configuration:
//!
//! | Paper block              | Shared-pass step on the joint transforms   |
//! |--------------------------|--------------------------------------------|
//! | Forward kinematics       | base-frame pose of every body              |
//! | Jacobian (and transpose) | joint axes and levers from those poses     |
//! | Task-space mass matrix   | CRBA `M`, its Cholesky factor, 6×6 LU `Mx` |
//! | Task-space bias force    | RNEA `h` through the same factor, `J̇ θ̇`    |
//! | Joint torque             | `Jᵀ[Mx(ẍd + Kp e + Kv ė) + hx]`            |
//!
//! [`crate::TaskSpaceController::compute_torque`] and the
//! [`crate::ArmSimulator`] plant run the pass on fixed-capacity stack
//! arrays. [`crate::RobotModel::forward_kinematics`],
//! [`crate::RobotModel::jacobian`], the functions below and
//! [`TaskSpaceDynamics::compute`] are thin wrappers that copy its results
//! into the public `Vec`/`DMat` types.

use crate::kinematics::Jacobian;
use crate::model::RobotModel;
use crate::rigid_body::{self, Frames, TaskSpace, ZERO_JOINTS};
use crate::state::EndEffectorState;
use corki_math::DMat;
use serde::{Deserialize, Serialize};

impl RobotModel {
    /// Inverse dynamics via the recursive Newton-Euler algorithm (RNEA):
    /// the joint torques required to realise accelerations `qdd` at state
    /// `(q, qd)` under gravity.
    ///
    /// # Panics
    ///
    /// Panics if any input length differs from the robot's DoF.
    pub fn inverse_dynamics(&self, q: &[f64], qd: &[f64], qdd: &[f64]) -> Vec<f64> {
        let dof = self.dof();
        assert_eq!(q.len(), dof, "inverse_dynamics: wrong q length");
        assert_eq!(qd.len(), dof, "inverse_dynamics: wrong qd length");
        assert_eq!(qdd.len(), dof, "inverse_dynamics: wrong qdd length");
        rigid_body::inverse_dynamics(self, &Frames::new(self, q), qd, qdd)[..dof].to_vec()
    }

    /// Bias forces `h(θ, θ̇)` (Coriolis, centrifugal and gravity): the torque
    /// required to produce zero joint acceleration.
    pub fn bias_forces(&self, q: &[f64], qd: &[f64]) -> Vec<f64> {
        self.inverse_dynamics(q, qd, &ZERO_JOINTS[..self.dof()])
    }

    /// Gravity torques `g(θ)`.
    pub fn gravity_torques(&self, q: &[f64]) -> Vec<f64> {
        let zeros = &ZERO_JOINTS[..self.dof()];
        self.inverse_dynamics(q, zeros, zeros)
    }

    /// Joint-space mass matrix `M(θ)` via the composite rigid-body algorithm
    /// (CRBA).
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the robot's DoF.
    pub fn mass_matrix(&self, q: &[f64]) -> DMat {
        let dof = self.dof();
        assert_eq!(q.len(), dof, "mass_matrix: wrong q length");
        let m = rigid_body::mass_matrix(self, &Frames::new(self, q));
        DMat::from_fn(dof, dof, |i, j| m[i][j])
    }

    /// Forward dynamics: the joint accelerations produced by torques `tau` at
    /// state `(q, qd)`, i.e. `qdd = M(θ)⁻¹ (τ − h(θ, θ̇))`.
    ///
    /// # Panics
    ///
    /// Panics if any input length differs from the robot's DoF.
    pub fn forward_dynamics(&self, q: &[f64], qd: &[f64], tau: &[f64]) -> Vec<f64> {
        let dof = self.dof();
        assert_eq!(q.len(), dof, "forward_dynamics: wrong q length");
        assert_eq!(qd.len(), dof, "forward_dynamics: wrong qd length");
        assert_eq!(tau.len(), dof, "forward_dynamics: wrong tau length");
        rigid_body::forward_dynamics(self, q, qd, tau)[..dof].to_vec()
    }
}

/// All task-space quantities needed by one TS-CTC control cycle (paper Equ. 6
/// and Fig. 6): the Jacobian, the task-space mass matrix `Mx`, the task-space
/// bias force `hx`, and the current end-effector state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpaceModel {
    /// Geometric Jacobian `J(θ)` (6×n, linear rows first).
    pub jacobian: Jacobian,
    /// Joint-space mass matrix `M(θ)` (n×n).
    pub joint_mass_matrix: DMat,
    /// Joint-space bias forces `h(θ, θ̇)` (length n).
    pub joint_bias: Vec<f64>,
    /// Task-space mass matrix `Mx(θ)` (6×6).
    pub task_mass_matrix: DMat,
    /// Task-space bias force `hx(θ, θ̇)` (length 6, linear rows first).
    pub task_bias: [f64; 6],
    /// The acceleration bias `J̇ θ̇` (length 6).
    pub jdot_qdot: [f64; 6],
    /// Current end-effector pose and velocity.
    pub end_effector: EndEffectorState,
}

/// Computes [`TaskSpaceModel`]s, with a configurable damping term that keeps
/// the task-space mass matrix invertible near kinematic singularities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpaceDynamics {
    /// Damping added to the diagonal of `J M⁻¹ Jᵀ` before inversion
    /// (damped least squares). Default `1e-6`.
    pub damping: f64,
}

impl Default for TaskSpaceDynamics {
    fn default() -> Self {
        TaskSpaceDynamics { damping: 1e-6 }
    }
}

impl TaskSpaceDynamics {
    /// Creates a computer with the given singularity damping.
    pub fn new(damping: f64) -> Self {
        TaskSpaceDynamics { damping }
    }

    /// Computes every task-space quantity required by one control cycle.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `qd` have the wrong length.
    pub fn compute(&self, robot: &RobotModel, q: &[f64], qd: &[f64]) -> TaskSpaceModel {
        let n = robot.dof();
        assert_eq!(q.len(), n, "TaskSpaceDynamics::compute: wrong q length");
        assert_eq!(qd.len(), n, "TaskSpaceDynamics::compute: wrong qd length");
        let ts = TaskSpace::compute(robot, q, qd, self.damping);
        TaskSpaceModel {
            jacobian: Jacobian::from_matrix(DMat::from_fn(6, n, |i, j| ts.jacobian[i][j])),
            joint_mass_matrix: DMat::from_fn(n, n, |i, j| ts.mass[i][j]),
            joint_bias: ts.bias[..n].to_vec(),
            task_mass_matrix: DMat::from_fn(6, 6, |i, j| ts.lambda[i][j]),
            task_bias: ts.hx,
            jdot_qdot: ts.jdot_qdot,
            end_effector: ts.end_effector,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panda::{panda_model, PANDA_HOME};
    use corki_math::DVec;
    use proptest::prelude::*;

    fn random_like_config(seed: usize) -> Vec<f64> {
        // Deterministic, limit-respecting configurations for tests.
        let base = [0.3, -0.5, 0.4, -1.7, 0.2, 1.4, 0.6];
        base.iter().enumerate().map(|(i, b)| b + 0.1 * ((seed + i) as f64).sin()).collect()
    }

    #[test]
    fn mass_matrix_is_symmetric_positive_definite() {
        let robot = panda_model();
        for seed in 0..5 {
            let q = random_like_config(seed);
            let m = robot.mass_matrix(&q);
            assert!(m.is_symmetric(1e-9), "mass matrix not symmetric");
            assert!(m.cholesky_factor().is_ok(), "mass matrix not positive definite");
        }
    }

    #[test]
    fn rnea_and_crba_are_consistent() {
        // τ = M(q)·qdd + h(q, qd) must match RNEA exactly.
        let robot = panda_model();
        let q = random_like_config(1);
        let qd: Vec<f64> = (0..7).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        let qdd: Vec<f64> = (0..7).map(|i| 0.2 * (i as f64 - 3.0)).collect();
        let tau_rnea = robot.inverse_dynamics(&q, &qd, &qdd);
        let m = robot.mass_matrix(&q);
        let h = robot.bias_forces(&q, &qd);
        let m_qdd = m.mul_vec(&DVec::from_slice(&qdd));
        for i in 0..7 {
            let tau_crba = m_qdd[i] + h[i];
            assert!(
                (tau_rnea[i] - tau_crba).abs() < 1e-8,
                "joint {i}: RNEA {} vs CRBA {}",
                tau_rnea[i],
                tau_crba
            );
        }
    }

    #[test]
    fn gravity_torques_vanish_without_gravity() {
        let mut robot = panda_model();
        robot.set_gravity(corki_math::Vec3::ZERO);
        let g = robot.gravity_torques(&PANDA_HOME);
        assert!(g.iter().all(|t| t.abs() < 1e-10));
    }

    #[test]
    fn gravity_torques_are_nonzero_under_gravity() {
        let robot = panda_model();
        let g = robot.gravity_torques(&PANDA_HOME);
        assert!(g.iter().any(|t| t.abs() > 1.0), "gravity torques suspiciously small");
    }

    #[test]
    fn forward_and_inverse_dynamics_roundtrip() {
        let robot = panda_model();
        let q = random_like_config(2);
        let qd: Vec<f64> = (0..7).map(|i| -0.05 * (i as f64 + 1.0)).collect();
        let qdd_target: Vec<f64> = (0..7).map(|i| 0.3 * ((i as f64) - 2.0)).collect();
        let tau = robot.inverse_dynamics(&q, &qd, &qdd_target);
        let qdd = robot.forward_dynamics(&q, &qd, &tau);
        for i in 0..7 {
            assert!((qdd[i] - qdd_target[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn bias_reduces_to_gravity_at_rest() {
        let robot = panda_model();
        let q = PANDA_HOME.to_vec();
        let h = robot.bias_forces(&q, &[0.0; 7]);
        let g = robot.gravity_torques(&q);
        for i in 0..7 {
            assert!((h[i] - g[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn task_space_mass_matrix_is_symmetric_positive_definite() {
        let robot = panda_model();
        let tsd = TaskSpaceDynamics::default();
        let q = random_like_config(3);
        let qd = vec![0.05; 7];
        let model = tsd.compute(&robot, &q, &qd);
        assert!(model.task_mass_matrix.is_symmetric(1e-6));
        assert!(model.task_mass_matrix.cholesky_factor().is_ok());
    }

    #[test]
    fn task_bias_matches_gravity_projection_at_rest() {
        // At rest, hx = Λ J M⁻¹ g; verify against a direct computation.
        let robot = panda_model();
        let tsd = TaskSpaceDynamics::default();
        let q = random_like_config(4);
        let qd = vec![0.0; 7];
        let model = tsd.compute(&robot, &q, &qd);
        let g = robot.gravity_torques(&q);
        let minv_g = model.joint_mass_matrix.solve_cholesky(&DVec::from_slice(&g)).unwrap();
        let j_minv_g = model.jacobian.matrix().mul_vec(&minv_g);
        let expected = model.task_mass_matrix.mul_vec(&j_minv_g);
        for i in 0..6 {
            assert!((model.task_bias[i] - expected[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn kinetic_energy_is_nonnegative() {
        let robot = panda_model();
        let q = random_like_config(5);
        let qd: Vec<f64> = (0..7).map(|i| 0.4 * ((i * 7 % 3) as f64 - 1.0)).collect();
        let m = robot.mass_matrix(&q);
        let m_qd = m.mul_vec(&DVec::from_slice(&qd));
        let ke: f64 = 0.5 * qd.iter().zip(m_qd.as_slice()).map(|(a, b)| a * b).sum::<f64>();
        assert!(ke >= 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mass_matrix_spd_across_workspace(
            q in proptest::collection::vec(-1.5..1.5f64, 7)) {
            let robot = panda_model();
            let m = robot.mass_matrix(&q);
            prop_assert!(m.is_symmetric(1e-9));
            prop_assert!(m.cholesky_factor().is_ok());
        }

        #[test]
        fn rnea_linear_in_acceleration(
            q in proptest::collection::vec(-1.2..1.2f64, 7),
            qdd in proptest::collection::vec(-1.0..1.0f64, 7)) {
            // τ(q, 0, a+b) - τ(q, 0, b) == M(q)·a, exercised with b = 0.
            let robot = panda_model();
            let qd = vec![0.0; 7];
            let tau_a = robot.inverse_dynamics(&q, &qd, &qdd);
            let tau_0 = robot.inverse_dynamics(&q, &qd, &[0.0; 7]);
            let m = robot.mass_matrix(&q);
            let m_qdd = m.mul_vec(&DVec::from_slice(&qdd));
            for i in 0..7 {
                prop_assert!((tau_a[i] - tau_0[i] - m_qdd[i]).abs() < 1e-7);
            }
        }
    }
}
