//! The zero-cost-when-disabled contract, asserted with a counting
//! allocator: recording into a disabled [`Collector`], ticking a
//! disabled [`Progress`], and profiling into a disabled [`Profiler`]
//! must perform **zero** heap allocations.
//!
//! The count is kept per thread: the test harness runs tests on
//! concurrent threads, and a process-wide counter would also see their
//! allocations.

use srlr_telemetry::{Collector, Obs, Profiler, Progress, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised with a `Drop`-free payload: touching it from
    // inside the allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps this thread's counter; a no-op while the thread-local is being
/// torn down at thread exit.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_collector_never_allocates() {
    let mut c = Collector::disabled();
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            c.event("flit.inject", i as f64, &[("packet", Value::U64(i))]);
            c.span("trial", "mc", i as f64, 1.0, 0, &[("trial", Value::U64(i))]);
            c.add("retries", 1);
            c.set_metric("delivered", Value::U64(i));
            let child = c.child();
            c.merge(child);
        }
    });
    assert_eq!(n, 0, "disabled collector allocated {n} times");
}

#[test]
fn disabled_progress_never_allocates() {
    let p = Progress::disabled();
    let n = allocations_during(|| {
        for _ in 0..10_000 {
            p.tick();
        }
    });
    assert_eq!(n, 0, "disabled progress allocated {n} times");
}

#[test]
fn disabled_profiler_never_allocates() {
    let mut p = Profiler::disabled();
    let n = allocations_during(|| {
        for _ in 0..10_000u64 {
            p.enter("frame");
            p.count("tally");
            p.count_n("bulk", 7);
            p.exit();
            let child = p.child();
            p.merge(child);
        }
    });
    assert_eq!(n, 0, "disabled profiler allocated {n} times");
}

#[test]
fn obs_none_never_allocates_after_construction() {
    let mut obs = Obs::none();
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            assert!(!obs.is_active());
            obs.collector
                .event("e", i as f64, &[("k", Value::Bool(true))]);
            obs.progress.tick();
            obs.profiler.enter("frame");
            obs.profiler.exit();
        }
    });
    assert_eq!(n, 0, "Obs::none() allocated {n} times");
}

#[test]
fn enabled_collector_does_allocate_as_a_sanity_check() {
    // Guards against the counter itself being broken: the *enabled*
    // path must show up in the allocation count.
    let mut c = Collector::enabled("t");
    let n = allocations_during(|| {
        c.event("e", 0.0, &[("k", Value::U64(1))]);
    });
    assert!(n > 0, "counting allocator saw no allocations at all");
}
