//! Allocator-counted proof that the event loop's hot paths reuse their
//! arenas (in the style of `zero_alloc.rs` in the policy crate): a counting
//! global allocator wraps the system allocator, the event queues are warmed
//! until every backing buffer has reached its high-water mark, and then a
//! steady-state burst of schedule/pop traffic must leave the allocation
//! counter untouched.  A fleet-level bound pins the per-frame allocation
//! budget of the full engine so per-event `Box`/`Vec` churn cannot sneak
//! back in.

use corki_system::des::{EventQueue, ShardedEventQueue};
use corki_system::fleet::{FleetConfig, FleetSimulator};
use corki_system::Variant;
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

/// A deterministic schedule pattern that keeps a queue around `live`
/// resident events while cycling `churn` schedule/pop pairs through it.
fn churn_queue(queue: &mut ShardedEventQueue<u64>, live: usize, churn: usize) {
    let shards = queue.shard_count();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for index in 0..churn {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let time = queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0;
        queue.schedule(state as usize % shards, time, state);
        if index >= live {
            queue.pop();
        }
    }
}

/// Steady-state schedule/pop traffic on the sharded queue must be
/// allocation-free for every shard count: the 4-ary heaps, the cached head
/// array and the tournament tree are all flat arenas that reach their
/// high-water mark during warm-up and are reused forever after.
#[test]
fn sharded_queue_steady_state_performs_zero_allocations() {
    for shards in [1usize, 2, 4, 8] {
        let mut queue = ShardedEventQueue::new(shards);
        // Warm-up: grow every per-shard heap past the resident set.
        churn_queue(&mut queue, 512, 4096);
        let before = allocation_count();
        churn_queue(&mut queue, 256, 4096);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "steady-state schedule/pop traffic must not touch the allocator ({shards} shards)"
        );
        while queue.pop().is_some() {}
    }
}

/// The unsharded queue obeys the same bar (it backs the per-shard local
/// queues of the threaded window executor).
#[test]
fn event_queue_steady_state_performs_zero_allocations() {
    let mut queue = EventQueue::new();
    let mut state = 7u64;
    for _ in 0..4096 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
        queue.pop();
    }
    let before = allocation_count();
    for _ in 0..4096 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
        queue.pop();
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "steady-state EventQueue traffic must not touch the allocator");
}

/// Fleet-level arena bound: doubling the horizon must cost only a small,
/// pinned number of allocations per robot-frame.  Batches are recycled
/// through the engine's batch pool, events live inline in the flat heaps,
/// and sessions/servers are allocated once up front — so the marginal cost
/// of a frame is a handful of trace pushes (amortized `Vec` doubling), not
/// per-event boxing.  The bound is ~4x the measured steady state so it only
/// trips on real regressions (e.g. a fresh `Vec` per formed batch).
#[test]
fn fleet_event_loop_allocations_grow_sublinearly_with_the_horizon() {
    let run = |frames: usize| {
        let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 24, 2024);
        config.frames_per_robot = frames;
        let before = allocation_count();
        let outcome = FleetSimulator::new(config).with_shards(4).run();
        let after = allocation_count();
        assert!(outcome.summary.throughput_steps_per_s > 0.0);
        after - before
    };
    // Warm the binary (lazy statics, first-touch buffers), then measure.
    let _ = run(30);
    let short = run(60);
    let long = run(120);
    let marginal = long.saturating_sub(short);
    // 24 robots x 60 extra frames; each frame may push a few trace samples.
    let per_robot_frame = marginal as f64 / (24.0 * 60.0);
    assert!(
        per_robot_frame < 8.0,
        "the marginal horizon cost must stay a few trace pushes per robot-frame, \
         measured {per_robot_frame:.2} allocations ({marginal} over 60 frames x 24 robots)"
    );
}
