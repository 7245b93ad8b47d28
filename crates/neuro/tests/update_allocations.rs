//! A steady-state DDPG update stays off the allocator: every activation,
//! gradient and transpose buffer lives in the agent and is reused.
//!
//! A counting `#[global_allocator]` (which is why this is a test binary of
//! its own) counts the calls made by the calling thread only, so the test
//! harness's own threads cannot disturb the count.

use neuro::{DdpgAgent, DdpgConfig, Transition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocating calls.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; it is not the test's.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that it happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn a_steady_state_update_allocates_nothing() {
    // The benchmark's 16-device agent: `OsdsConfig::fast` networks, batch 32.
    let (state_dim, action_dim, batch) = (20, 15, 32);
    let config = DdpgConfig {
        actor_hidden: [64, 48, 32],
        critic_hidden: [64, 48, 32, 32],
        ..DdpgConfig::default()
    };
    let mut agent = DdpgAgent::new(state_dim, action_dim, config);
    let transitions: Vec<Transition> = (0..batch)
        .map(|s| Transition {
            state: (0..state_dim).map(|f| (s * f) as f64 / 640.0).collect(),
            action: (0..action_dim)
                .map(|f| (s + f) as f64 / 47.0 - 0.5)
                .collect(),
            reward: s as f64 / 32.0,
            next_state: (0..state_dim).map(|f| (s + 2 * f) as f64 / 72.0).collect(),
            done: s % 5 == 4,
        })
        .collect();
    let borrowed: Vec<&Transition> = transitions.iter().rev().collect();

    // One warm-up call grows the buffers to the batch.
    agent.update(&transitions);
    assert_eq!(
        allocations(|| {
            for _ in 0..100 {
                agent.update(&transitions);
            }
        }),
        0,
        "updates on an owned batch"
    );
    // Acting in between (a batch of one through the same buffers, as
    // `osds_train` does) allocates the returned action and nothing else,
    // and a batch of borrows is gathered the same way.
    assert_eq!(
        allocations(|| {
            for _ in 0..100 {
                std::hint::black_box(agent.act(&transitions[0].state));
                agent.update(&borrowed);
            }
        }),
        100,
        "act + update on a borrowed batch"
    );
}
