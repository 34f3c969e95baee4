//! Route-legality validation via packet tracing: XY routes must be
//! minimal and dimension-ordered; west-first routes must be minimal and
//! never turn into the west direction.

#![allow(
    clippy::cast_possible_truncation,
    reason = "integration test: the panic and cast lints cover library code only"
)]

use srlr_noc::traffic::Pattern;
use srlr_noc::{Coord, Network, NocConfig, RoutingAlgorithm};

fn traced_network(routing: RoutingAlgorithm, load: f64, cycles: u64) -> Network {
    let mut net = Network::new(
        NocConfig::paper_default()
            .with_size(6, 6)
            .with_routing(routing),
    );
    net.enable_tracing();
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, load, 0, cycles);
    assert!(net.drain(50_000), "network must drain");
    net
}

/// Direction of one step, as (dx, dy).
fn step(a: Coord, b: Coord) -> (i32, i32) {
    (
        i32::from(b.x) - i32::from(a.x),
        i32::from(b.y) - i32::from(a.y),
    )
}

#[test]
fn xy_routes_are_minimal_and_dimension_ordered() {
    let net = traced_network(RoutingAlgorithm::Xy, 0.05, 800);
    let mut checked = 0;
    for trace in net.traces().values() {
        if trace.len() < 2 {
            continue;
        }
        let (src, dst) = (trace[0], *trace.last().unwrap());
        // Minimal: exactly hop-distance steps.
        assert_eq!(
            trace.len() as u32 - 1,
            src.hop_distance(dst),
            "non-minimal XY route {trace:?}"
        );
        // Dimension-ordered: no x-movement after any y-movement.
        let mut seen_y = false;
        for w in trace.windows(2) {
            let (dx, dy) = step(w[0], w[1]);
            assert_eq!(dx.abs() + dy.abs(), 1, "non-unit step in {trace:?}");
            if dy != 0 {
                seen_y = true;
            }
            if dx != 0 {
                assert!(!seen_y, "x after y in XY route {trace:?}");
            }
        }
        checked += 1;
    }
    assert!(checked > 100, "too few traces to be meaningful: {checked}");
}

#[test]
fn west_first_routes_are_minimal_and_turn_legal() {
    let net = traced_network(RoutingAlgorithm::WestFirst, 0.05, 800);
    let mut checked = 0;
    for trace in net.traces().values() {
        if trace.len() < 2 {
            continue;
        }
        let (src, dst) = (trace[0], *trace.last().unwrap());
        assert_eq!(
            trace.len() as u32 - 1,
            src.hop_distance(dst),
            "non-minimal west-first route {trace:?}"
        );
        // Turn model: once any non-west step occurs, never step west.
        let mut left_west_phase = false;
        for w in trace.windows(2) {
            let (dx, _) = step(w[0], w[1]);
            if dx >= 0 {
                left_west_phase = true;
            }
            if dx < 0 {
                assert!(!left_west_phase, "illegal turn into west in {trace:?}");
            }
        }
        checked += 1;
    }
    assert!(checked > 100, "too few traces: {checked}");
}

#[test]
fn tracing_is_opt_in() {
    let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 0, 200);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = net.traces();
    }));
    assert!(result.is_err(), "traces() must panic when not enabled");
}
