//! Proof that a steady-state control step performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator,
//! the policies are warmed until every scratch buffer has reached its
//! high-water mark, and then a burst of plans must leave the allocation
//! counter untouched.

use corki_math::Vec3;
use corki_policy::{
    BaselineFramePolicy, CorkiTrajectoryPolicy, ManipulationPolicy, Observation, PlanRequest,
};
use corki_trajectory::{EePose, GripperState, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the global
/// allocator, per thread: the test harness runs tests on parallel threads,
/// and each test must see only its own allocations.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and destructor-free, so the slot itself never
    // allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far on the calling thread.
fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn observation() -> Observation {
    Observation {
        end_effector: EePose::new(Vec3::new(0.35, 0.0, 0.3), Vec3::ZERO, GripperState::Open),
        object_position: Vec3::new(0.45, -0.1, 0.02),
        goal_position: Vec3::new(0.5, 0.1, 0.02),
        ..Observation::default()
    }
}

#[test]
fn steady_state_baseline_plan_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut policy = BaselineFramePolicy::new(&mut rng);
    let request = PlanRequest::from_observation(observation());
    // Warm-up: fill the token window and grow every scratch buffer.
    for _ in 0..32 {
        let _ = policy.plan(&request);
    }
    let before = allocation_count();
    for _ in 0..64 {
        let _ = policy.plan(&request);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "baseline steady-state control step must not touch the allocator"
    );
}

#[test]
fn steady_state_corki_plan_into_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut policy = CorkiTrajectoryPolicy::new(9, &mut rng);
    let mut request = PlanRequest::from_observation(observation());
    // The Corki steady state: nine control steps executed per plan, so every
    // plan also inserts eight mask embeddings.
    request.steps_since_last_plan = 9;
    let mut out = Trajectory::hold(&request.observation.end_effector, 1);
    for _ in 0..32 {
        policy.plan_into(&request, &mut out);
    }
    let before = allocation_count();
    for _ in 0..64 {
        policy.plan_into(&request, &mut out);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "Corki steady-state control step must not touch the allocator");
}
