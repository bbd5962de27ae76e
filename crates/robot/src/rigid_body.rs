//! The shared rigid-body pass behind every kinematics and dynamics entry
//! point of the crate.
//!
//! Each joint transform is computed once per configuration ([`Frames`]) and
//! read by forward kinematics, the Jacobian, CRBA (the mass matrix `M`) and
//! RNEA (the bias force `h`) — the data reuse the Corki accelerator's
//! pose → Jacobian → dynamics units are built around (paper Fig. 7). The
//! Cholesky solves, the 6×6 LU inverse for `Λ` and `hx` then read those
//! results. Everything lives in fixed-capacity stack arrays sized by
//! [`MAX_DOF`] and [`MAX_BODIES`], so a control cycle touches the heap only
//! for the torque vector it returns.
//!
//! The floating-point expressions and accumulation orders are part of the
//! output: RNEA keeps its `s · q̈` term at `q̈ = 0`, the `J · M⁻¹Jᵀ` product
//! skips exact zeros of `J`, the LU pivot rule is a strict `>` with a
//! `1e-13` floor, and `J̇ q̇` is a central difference. `tests/dynamics_bits.rs`
//! pins the resulting bits, so a reordered sum fails there.

use crate::model::{JointKind, RobotModel, MAX_BODIES, MAX_DOF};
use crate::state::EndEffectorState;
use corki_math::{SpatialForce, SpatialInertia, SpatialMotion, SpatialTransform, Vec3, SE3};

/// A joint-space vector; entries at and beyond the robot's DoF are unused.
pub(crate) type JointVec = [f64; MAX_DOF];
/// A joint-space matrix, row-major.
pub(crate) type JointMat = [[f64; MAX_DOF]; MAX_DOF];
/// A 6×n geometric Jacobian, row-major, linear rows on top.
pub(crate) type JacobianRows = [[f64; MAX_DOF]; 6];
/// A 6×6 task-space matrix, row-major.
pub(crate) type Mat6 = [[f64; 6]; 6];

/// Zero joint velocities / accelerations.
pub(crate) const ZERO_JOINTS: JointVec = [0.0; MAX_DOF];

/// Central-difference step of the `J̇ q̇` estimate.
const JDOT_EPS: f64 = 1e-6;

/// Every joint transform of one configuration `q`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frames {
    bodies: usize,
    /// Pose of each body frame in its parent frame (the joint transform).
    local: [SE3; MAX_BODIES],
    /// Pose of each body frame in the base frame (forward kinematics).
    world: [SE3; MAX_BODIES],
}

impl Frames {
    /// Computes every body's transform for joint positions `q`, whose length
    /// the caller has checked against the robot's DoF.
    pub(crate) fn new(robot: &RobotModel, q: &[f64]) -> Self {
        let mut frames = Frames {
            bodies: robot.num_bodies(),
            local: [SE3::identity(); MAX_BODIES],
            world: [SE3::identity(); MAX_BODIES],
        };
        let mut current = SE3::identity();
        let mut qi = q.iter();
        for (body, joint) in robot.joints().iter().enumerate() {
            let value = if joint.kind.is_actuated() {
                *qi.next().expect("length checked by the caller")
            } else {
                0.0
            };
            let local = robot.joint_transform(body, value);
            current = current * local;
            frames.local[body] = local;
            frames.world[body] = current;
        }
        frames
    }

    /// The pose of every body frame in the base frame, in chain order.
    pub(crate) fn world(&self) -> &[SE3] {
        &self.world[..self.bodies]
    }

    /// The pose of the final frame in the chain (the end-effector / TCP).
    pub(crate) fn end_effector(&self) -> SE3 {
        self.world[self.bodies - 1]
    }

    /// Body `i`'s joint transform as a Plücker transform `^i X_parent`.
    fn xform(&self, i: usize) -> SpatialTransform {
        SpatialTransform::from_pose(&self.local[i])
    }
}

/// The motion subspace of a joint.
fn subspace(kind: JointKind) -> SpatialMotion {
    match kind {
        JointKind::RevoluteZ => SpatialMotion::revolute_z(),
        JointKind::PrismaticZ => SpatialMotion::prismatic_z(),
        JointKind::Fixed => SpatialMotion::ZERO,
    }
}

/// The geometric Jacobian of the end-effector from the base-frame pose of
/// every body (`world.len()` must equal the robot's body count).
pub(crate) fn jacobian(robot: &RobotModel, world: &[SE3]) -> JacobianRows {
    let p_ee = world[world.len() - 1].translation;
    let mut rows = [[0.0; MAX_DOF]; 6];
    let mut col = 0usize;
    for (pose, joint) in world.iter().zip(robot.joints()) {
        let axis = pose.rotation.col(2); // local Z in base frame
        match joint.kind {
            JointKind::RevoluteZ => {
                let linear = axis.cross(p_ee - pose.translation);
                for i in 0..3 {
                    rows[i][col] = linear[i];
                    rows[i + 3][col] = axis[i];
                }
            }
            JointKind::PrismaticZ => {
                for i in 0..3 {
                    rows[i][col] = axis[i];
                }
            }
            JointKind::Fixed => continue,
        }
        col += 1;
    }
    rows
}

/// `J · v` over the first `v.len()` columns.
pub(crate) fn jacobian_mul(rows: &JacobianRows, v: &[f64]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (o, row) in out.iter_mut().zip(rows) {
        let mut acc = 0.0;
        for (j, vj) in v.iter().enumerate() {
            acc += row[j] * vj;
        }
        *o = acc;
    }
    out
}

/// The linear and angular halves of a stacked 6-vector.
pub(crate) fn split(v: &[f64; 6]) -> (Vec3, Vec3) {
    (Vec3::new(v[0], v[1], v[2]), Vec3::new(v[3], v[4], v[5]))
}

/// `J̇(θ, θ̇)·θ̇` by central differences of `J(θ ± ε θ̇)·θ̇`.
pub(crate) fn jacobian_dot_qdot(robot: &RobotModel, q: &[f64], qd: &[f64]) -> [f64; 6] {
    let n = q.len();
    let mut q_plus = ZERO_JOINTS;
    let mut q_minus = ZERO_JOINTS;
    for (i, (qi, di)) in q.iter().zip(qd).enumerate() {
        q_plus[i] = qi + JDOT_EPS * di;
        q_minus[i] = qi - JDOT_EPS * di;
    }
    let velocity = |q: &[f64]| jacobian_mul(&jacobian(robot, Frames::new(robot, q).world()), qd);
    let v_plus = velocity(&q_plus[..n]);
    let v_minus = velocity(&q_minus[..n]);
    let mut out = [0.0; 6];
    for (i, o) in out.iter_mut().enumerate() {
        *o = (v_plus[i] - v_minus[i]) / (2.0 * JDOT_EPS);
    }
    out
}

/// Joint-space mass matrix `M(θ)` via the composite rigid-body algorithm.
pub(crate) fn mass_matrix(robot: &RobotModel, frames: &Frames) -> JointMat {
    let n = frames.bodies;
    let mut composite = [SpatialInertia::zero(); MAX_BODIES];
    for (c, link) in composite.iter_mut().zip(robot.links()) {
        *c = link.inertia;
    }
    // Composite inertias, accumulated tip-to-base.
    for i in (1..n).rev() {
        let in_parent = composite[i].expressed_in_parent(&frames.local[i]);
        composite[i - 1] = composite[i - 1].combine(&in_parent);
    }

    let mut column_of_body = [None; MAX_BODIES];
    let mut dof_idx = 0usize;
    for (column, joint) in column_of_body.iter_mut().zip(robot.joints()) {
        if joint.kind.is_actuated() {
            *column = Some(dof_idx);
            dof_idx += 1;
        }
    }

    let mut m = [[0.0; MAX_DOF]; MAX_DOF];
    for i in 0..n {
        let Some(col_i) = column_of_body[i] else { continue };
        let s_i = subspace(robot.joints()[i].kind);
        // Force produced by unit acceleration of joint i on the composite
        // body rooted at i, expressed in frame i.
        let mut f = composite[i].apply(&s_i);
        m[col_i][col_i] = s_i.dot_force(&f);
        // Walk towards the base, projecting onto each ancestor joint.
        let mut j = i;
        while j > 0 {
            f = frames.xform(j).inv_apply_force(&f);
            j -= 1;
            if let Some(col_j) = column_of_body[j] {
                let value = subspace(robot.joints()[j].kind).dot_force(&f);
                m[col_i][col_j] = value;
                m[col_j][col_i] = value;
            }
        }
    }
    m
}

/// Inverse dynamics via the recursive Newton–Euler algorithm: the torques
/// realising accelerations `qdd` at velocities `qd` under gravity.
pub(crate) fn inverse_dynamics(
    robot: &RobotModel,
    frames: &Frames,
    qd: &[f64],
    qdd: &[f64],
) -> JointVec {
    let n = frames.bodies;
    let mut velocities = [SpatialMotion::ZERO; MAX_BODIES];
    let mut accelerations = [SpatialMotion::ZERO; MAX_BODIES];
    let mut forces = [SpatialForce::ZERO; MAX_BODIES];

    // Gravity trick: give the base an upward acceleration of -g so that
    // gravitational forces appear automatically in the recursion.
    let base_acceleration = SpatialMotion::new(Vec3::ZERO, -robot.gravity());

    let mut dof_idx = 0usize;
    for (i, joint) in robot.joints().iter().enumerate() {
        let (qdi, qddi) = if joint.kind.is_actuated() {
            dof_idx += 1;
            (qd[dof_idx - 1], qdd[dof_idx - 1])
        } else {
            (0.0, 0.0)
        };
        let x = frames.xform(i);
        let s = subspace(joint.kind);
        let v_joint = s * qdi;
        let (v_parent, a_parent) = if i == 0 {
            (SpatialMotion::ZERO, base_acceleration)
        } else {
            (velocities[i - 1], accelerations[i - 1])
        };
        let v = x.apply_motion(&v_parent) + v_joint;
        let a = x.apply_motion(&a_parent) + s * qddi + v.cross_motion(&v_joint);
        let inertia = &robot.links()[i].inertia;
        let momentum = inertia.apply(&v);
        forces[i] = inertia.apply(&a) + v.cross_force(&momentum);
        velocities[i] = v;
        accelerations[i] = a;
    }

    // Backward pass: project forces onto joint axes and propagate to
    // parents.
    let mut tau = ZERO_JOINTS;
    for i in (0..n).rev() {
        let joint = &robot.joints()[i];
        if joint.kind.is_actuated() {
            dof_idx -= 1;
            tau[dof_idx] = subspace(joint.kind).dot_force(&forces[i]);
        }
        if i > 0 {
            let to_parent = frames.xform(i).inv_apply_force(&forces[i]);
            forces[i - 1] += to_parent;
        }
    }
    tau
}

/// Lower-triangular Cholesky factor `L` (`M = L Lᵀ`) of the leading `n×n`
/// block, or `None` when it is not positive definite.
pub(crate) fn cholesky(m: &JointMat, n: usize) -> Option<JointMat> {
    let mut l = [[0.0; MAX_DOF]; MAX_DOF];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = m[i][j];
            for (lik, ljk) in l[i][..j].iter().zip(&l[j][..j]) {
                sum -= lik * ljk;
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i][j] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ x = b` over the leading `n` entries.
pub(crate) fn cholesky_solve(l: &JointMat, n: usize, b: &JointVec) -> JointVec {
    let mut x = ZERO_JOINTS;
    // Forward substitution L y = b (y stored in x).
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[i][j] * x[j];
        }
        x[i] = acc / l[i][i];
    }
    // Back substitution Lᵀ x = y, in place.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= l[j][i] * x[j];
        }
        x[i] = acc / l[i][i];
    }
    x
}

/// Forward dynamics `q̈ = M⁻¹ (τ − h)` on one set of joint transforms.
pub(crate) fn forward_dynamics(robot: &RobotModel, q: &[f64], qd: &[f64], tau: &[f64]) -> JointVec {
    let n = q.len();
    let frames = Frames::new(robot, q);
    let m = mass_matrix(robot, &frames);
    let h = inverse_dynamics(robot, &frames, qd, &ZERO_JOINTS[..n]);
    let mut rhs = ZERO_JOINTS;
    for (r, (t, hi)) in rhs.iter_mut().zip(tau.iter().zip(&h)) {
        *r = t - hi;
    }
    let l = cholesky(&m, n).expect("mass matrix must be positive definite");
    cholesky_solve(&l, n, &rhs)
}

/// `M · v` for a 6×6 matrix.
pub(crate) fn mul6(m: &Mat6, v: &[f64; 6]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (o, row) in out.iter_mut().zip(m) {
        let mut acc = 0.0;
        for (mij, vj) in row.iter().zip(v) {
            acc += mij * vj;
        }
        *o = acc;
    }
    out
}

/// Inverse of a 6×6 matrix by LU factorisation with partial pivoting (one
/// factorisation shared by all six columns), or `None` when a pivot falls
/// below `1e-13`.
fn invert6(a: &Mat6) -> Option<Mat6> {
    let mut lu = *a;
    let mut perm = [0, 1, 2, 3, 4, 5];
    for k in 0..6 {
        let mut pivot_row = k;
        let mut pivot_val = lu[perm[k]][k].abs();
        for (idx, &p) in perm.iter().enumerate().skip(k + 1) {
            let val = lu[p][k].abs();
            if val > pivot_val {
                pivot_val = val;
                pivot_row = idx;
            }
        }
        if pivot_val < 1e-13 {
            return None;
        }
        perm.swap(k, pivot_row);
        let pivot = lu[perm[k]];
        for &pi in perm.iter().skip(k + 1) {
            let factor = lu[pi][k] / pivot[k];
            lu[pi][k] = factor;
            for (x, p) in lu[pi][k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                *x -= factor * p;
            }
        }
    }
    let mut inverse = [[0.0; 6]; 6];
    for col in 0..6 {
        let mut x = [0.0; 6];
        // Forward substitution with the unit-diagonal L on the permuted
        // identity column, then back substitution with U.
        for i in 0..6 {
            let pi = perm[i];
            let mut acc = if pi == col { 1.0 } else { 0.0 };
            for j in 0..i {
                acc -= lu[pi][j] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..6).rev() {
            let pi = perm[i];
            let mut acc = x[i];
            for j in (i + 1)..6 {
                acc -= lu[pi][j] * x[j];
            }
            x[i] = acc / lu[pi][i];
        }
        for (row, xi) in inverse.iter_mut().zip(x) {
            row[col] = xi;
        }
    }
    Some(inverse)
}

/// Every quantity of one TS-CTC control cycle, from one set of joint
/// transforms (plus the two perturbed kinematic passes of `J̇ q̇`).
#[derive(Debug, Clone)]
pub(crate) struct TaskSpace {
    /// End-effector pose and velocity `J q̇`.
    pub end_effector: EndEffectorState,
    /// Geometric Jacobian `J`.
    pub jacobian: JacobianRows,
    /// Joint-space mass matrix `M`.
    pub mass: JointMat,
    /// Joint-space bias force `h`.
    pub bias: JointVec,
    /// Task-space mass matrix `Λ = (J M⁻¹ Jᵀ + damping·I)⁻¹`.
    pub lambda: Mat6,
    /// Task-space bias force `hx = Λ (J M⁻¹ h − J̇ q̇)`.
    pub hx: [f64; 6],
    /// Acceleration bias `J̇ q̇`.
    pub jdot_qdot: [f64; 6],
}

impl TaskSpace {
    /// Runs the shared pass at `(q, qd)`, whose lengths the caller has
    /// checked against the robot's DoF.
    pub(crate) fn compute(robot: &RobotModel, q: &[f64], qd: &[f64], damping: f64) -> Self {
        let n = q.len();
        let frames = Frames::new(robot, q);
        let jacobian = jacobian(robot, frames.world());
        let mass = mass_matrix(robot, &frames);
        let bias = inverse_dynamics(robot, &frames, qd, &ZERO_JOINTS[..n]);
        let jdot_qdot = jacobian_dot_qdot(robot, q, qd);

        // One Cholesky factorisation of M serves all seven solves: M⁻¹ Jᵀ
        // column by column, then M⁻¹ h.
        let factor = cholesky(&mass, n).expect("mass matrix must be positive definite");
        let mut minv_jt = [[0.0; 6]; MAX_DOF];
        for (col, jt_col) in jacobian.iter().enumerate() {
            let x = cholesky_solve(&factor, n, jt_col);
            for (row, xr) in minv_jt.iter_mut().zip(&x[..n]) {
                row[col] = *xr;
            }
        }
        // Λ⁻¹ = J M⁻¹ Jᵀ (6×6), then damped inversion.
        let mut lambda_inv = [[0.0; 6]; 6];
        for (out, j_row) in lambda_inv.iter_mut().zip(&jacobian) {
            for (&a, minv_jt_row) in j_row[..n].iter().zip(&minv_jt) {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in out.iter_mut().zip(minv_jt_row) {
                    *o += a * b;
                }
            }
        }
        for (i, row) in lambda_inv.iter_mut().enumerate() {
            row[i] += damping;
        }
        let lambda = invert6(&lambda_inv).expect("damped task-space inertia is invertible");

        // hx = Λ (J M⁻¹ h − J̇ q̇)
        let minv_h = cholesky_solve(&factor, n, &bias);
        let mut residual = jacobian_mul(&jacobian, &minv_h[..n]);
        for (r, jd) in residual.iter_mut().zip(&jdot_qdot) {
            *r -= jd;
        }
        let hx = mul6(&lambda, &residual);

        let (linear_velocity, angular_velocity) = split(&jacobian_mul(&jacobian, qd));
        TaskSpace {
            end_effector: EndEffectorState {
                pose: frames.end_effector(),
                linear_velocity,
                angular_velocity,
            },
            jacobian,
            mass,
            bias,
            lambda,
            hx,
            jdot_qdot,
        }
    }
}
