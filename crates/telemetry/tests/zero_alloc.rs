//! Proof that the in-path recorder is allocation-free: a counting global
//! allocator wraps the system allocator, and a burst of `record()` and
//! timeline `event()` calls — against both the plain-memory recorder and
//! the shared-memory page view — must leave the allocation counter
//! untouched. This is the property that makes "always-on" honest: the
//! hot serving path never pays an allocator visit for telemetry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicU64;

use corki_telemetry::{EventKind, Recorder, ShmTelemetry, Stage, PAGE_WORDS};

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

#[test]
fn recorder_record_performs_zero_allocations() {
    // Construction allocates (the timeline vector); recording must not.
    let mut recorder = Recorder::new(8);
    let before = allocation_count();
    for i in 0..4096_u64 {
        for stage in Stage::ALL {
            recorder.record(stage, i * 1_000);
        }
        recorder.record_ms(Stage::ControlStep, 33.3);
        recorder.event(
            (i % 8) as usize,
            i * 1_000_000,
            if i % 2 == 0 { EventKind::Plan } else { EventKind::LocalPlan },
            i * 500,
        );
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "in-path record()/event() must not touch the allocator");
}

#[test]
fn shm_record_performs_zero_allocations() {
    let words: Vec<AtomicU64> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    let page = ShmTelemetry::new(&words);
    let before = allocation_count();
    for i in 0..4096_u64 {
        for stage in Stage::ALL {
            page.record(stage, i * 1_000);
        }
        page.event(i * 1_000_000, EventKind::Plan, i * 500);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "shared-memory record()/event() must not touch the allocator");
}
