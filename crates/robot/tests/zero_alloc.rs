//! Allocation pins for the control cycle and the plant: a counting global
//! allocator wraps the system allocator, and after a warm-up the shared
//! rigid-body pass must leave the per-thread counter untouched — except
//! for the torque vector `compute_torque` returns.

use corki_robot::panda::{panda_model, PANDA_HOME};
use corki_robot::{
    ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference, TaskSpaceController,
};
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

fn reaching_reference(sim: &ArmSimulator) -> TaskReference {
    let mut target = sim.robot().forward_kinematics(&sim.state().positions).end_effector;
    target.translation.x += 0.05;
    TaskReference::hold(target)
}

#[test]
fn warm_arm_simulator_step_performs_zero_allocations() {
    let mut sim = ArmSimulator::new(panda_model(), SimulatorConfig::default());
    sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
    let torque = sim.robot().gravity_torques(&sim.state().positions);
    sim.step(&torque, 0.01);
    let before = allocation_count();
    for _ in 0..20 {
        sim.step(&torque, 0.01);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "a warm 10 ms plant step must not touch the allocator");
}

#[test]
fn compute_torque_allocates_only_its_result() {
    let mut sim = ArmSimulator::new(panda_model(), SimulatorConfig::default());
    sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
    let controller = TaskSpaceController::new(ControllerGains::default());
    let reference = reaching_reference(&sim);
    let warm = controller.compute_torque(sim.robot(), sim.state(), &reference);
    sim.step(&warm, 0.01);
    for _ in 0..10 {
        let before = allocation_count();
        let torque = controller.compute_torque(sim.robot(), sim.state(), &reference);
        let after = allocation_count();
        assert_eq!(after - before, 1, "one TS-CTC cycle allocates exactly its torque vector");
        sim.step(&torque, 0.01);
    }
}
