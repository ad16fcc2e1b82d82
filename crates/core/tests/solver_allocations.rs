//! Heap allocations of a warm [`Solver::schedule_all`].
//!
//! A [`Solver`] rebuilds its reduction and its solve workspace (graph,
//! oracle arrays, gain scratch and memo, greedy buffers) in place, so once
//! its buffers have grown to an instance's size, a re-solve of a changed
//! instance allocates only what it hands out: the returned schedule's two
//! vectors, the greedy outcome's two, and the two of the copy the solver
//! keeps for the identical-instance path. This binary counts the blocks
//! each thread allocates through a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{Rng, SeedableRng};
use sched_core::{AffineCost, CandidatePolicy, Instance, Job, SlotRef, Solver};

/// Forwards to [`System`], counting the blocks each thread allocates or
/// reallocates.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with`: the thread's counter may already be gone while the
    // thread is torn down
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks this thread allocated while `f` ran, with `f`'s result.
fn blocks_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// Blocks a warm re-solve of a changed instance allocates: the returned
/// schedule's awake intervals and assignments, the greedy outcome's picks
/// and trace, and the solver's kept copy of the schedule's two vectors.
const WARM_RESOLVE_BLOCKS: u64 = 6;

/// `jobs` jobs on 4 processors over `horizon` slots, each allowed in a
/// window of 2–6 slots on one processor, or in the same window on two.
fn instance(seed: u64, jobs: usize, horizon: u32) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let jobs = (0..jobs)
        .map(|_| {
            let len = rng.gen_range(2..=6u32);
            let start = rng.gen_range(0..horizon - len);
            let proc = rng.gen_range(0..4u32);
            let mut job = Job::window(1.0, proc, start, start + len);
            if rng.gen_bool(0.3) {
                let other = (proc + rng.gen_range(1..4u32)) % 4;
                job.allowed
                    .extend((start..start + len).map(|t| SlotRef::new(other, t)));
            }
            job
        })
        .collect();
    Instance::new(4, horizon, jobs)
}

/// Solves `a`, `b`, `a`, `b` to grow every buffer, then counts the blocks
/// of solving `a` once more, a changed instance after `b`.
fn warm_resolve_blocks(a: &Instance, b: &Instance) -> u64 {
    let cost = AffineCost::new(3.0, 1.0);
    let mut solver = Solver::new(CandidatePolicy::All);
    for inst in [a, b, a, b] {
        solver.schedule_all(inst, &cost).expect("feasible");
    }
    let (schedule, blocks) = blocks_during(|| solver.schedule_all(a, &cost));
    let schedule = schedule.expect("feasible");
    assert_eq!(schedule.scheduled_count, a.num_jobs());
    assert_eq!(solver.stats().cold, 1, "every later call was warm");
    blocks
}

#[test]
fn warm_resolve_allocates_only_what_it_returns_and_keeps() {
    let small = warm_resolve_blocks(&instance(1, 32, 64), &instance(2, 32, 64));
    assert_eq!(small, WARM_RESOLVE_BLOCKS, "n32/T64");
}

#[test]
fn warm_resolve_allocations_do_not_grow_with_the_instance() {
    let large = warm_resolve_blocks(&instance(3, 128, 512), &instance(4, 128, 512));
    assert_eq!(large, WARM_RESOLVE_BLOCKS, "n128/T512");
}
