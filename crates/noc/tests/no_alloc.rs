//! The allocation budget of the cycle-accurate mesh, asserted with a
//! counting allocator on the paper's 8×8 configuration: stepping a
//! network with flits in flight allocates nothing, a measurement window
//! allocates per packet rather than per router-cycle, and building a
//! network costs a fixed handful of allocations per router.
//!
//! The count is kept per thread: the test harness runs tests on
//! concurrent threads, and a process-wide counter would also see their
//! allocations.

use srlr_noc::traffic::Pattern;
use srlr_noc::{Network, NocConfig};
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

/// Allocations made by the calling thread while `f` runs, and its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const LOAD: f64 = 0.05;

#[test]
fn draining_flits_in_flight_never_allocates() {
    let mut net = Network::new(NocConfig::paper_default());
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, LOAD, 200, 1000);
    let in_flight = net.occupancy();
    assert!(in_flight > 0, "the window must leave flits in flight");
    let (n, drained) = allocations_during(|| net.drain(10_000));
    assert!(drained, "{in_flight} flits never drained");
    assert_eq!(n, 0, "draining {in_flight} flits allocated {n} times");
}

#[test]
fn measure_window_allocates_per_packet_not_per_cycle() {
    for ber in [0.0, 1e-2] {
        let mut net = Network::new(NocConfig::paper_default().with_ber(ber));
        let (n, stats) = allocations_during(|| {
            net.run_warmup_and_measure(Pattern::UniformRandom, LOAD, 0, 1000)
        });
        let packets = stats.packets_injected;
        assert!(packets > 1000, "ber {ber}: only {packets} packets");
        // Each packet costs its destination list, a share of the source
        // queue's growth and (under faults) its poisoned-packet entry;
        // 64 routers x 1000 cycles must cost nothing on top.
        assert!(
            n <= 2 * packets + 64,
            "ber {ber}: {n} allocations for {packets} packets"
        );
    }
}

#[test]
fn building_a_network_allocates_a_fixed_handful_per_router() {
    let config = NocConfig::paper_default().with_ber(1e-3);
    let routers = u64::from(config.cols) * u64::from(config.rows);
    let (n, net) = allocations_during(|| Network::new(config));
    assert_eq!(net.occupancy(), 0);
    assert!(
        n <= 6 * routers + 16,
        "Network::new allocated {n} times for {routers} routers"
    );
}
