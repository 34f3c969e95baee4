//! State-space throughput of the `srlr-model` exhaustive checker: how
//! fast the BFS enumerates canonical states and how fast the absorbing
//! DTMC solves, across the retry budgets the CI gate proves.
//!
//! Besides the `target/srlr-reports/model_check.json` run report, it
//! writes the committed snapshot `BENCH_model_check.json` at the repo
//! root (same schema: `srlr-telemetry`'s versioned run report). State
//! counts and the exact DTMC delivery probabilities are deterministic,
//! so CI's perf-regression job gates the snapshot with `srlr
//! bench-diff` at (near-)zero tolerance.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_model::{check_pair, closed_form_delivery, verify, ModelConfig};
use srlr_noc::Coord;

fn print_tables() {
    report::section("Model check — 2x2 mesh state-space size and exact delivery probability");
    println!(
        "{:>8} {:>10} {:>13} {:>12} {:>20}",
        "budget", "states", "transitions", "transient", "P(deliver) exact"
    );
    let mut run = srlr_telemetry::RunReport::new("model_check");
    for (i, budget) in [0u32, 1, 3].into_iter().enumerate() {
        let config = ModelConfig::two_by_two(1e-3, budget);
        let report_ = verify(&config);
        assert!(report_.all_proven(), "the shipped protocol must verify");
        let transient: usize = report_.pairs.iter().map(|p| p.transient).sum();
        println!(
            "{:>8} {:>10} {:>13} {:>12} {:>20.12}",
            budget,
            report_.total_states,
            report_.total_transitions,
            transient,
            report_.deliver_probability,
        );
        let closed = closed_form_delivery(&config);
        assert!((report_.deliver_probability - closed).abs() < 1e-12);
        let section = format!("budget.{i:03}");
        run.section_metric(
            &section,
            "max_retries",
            srlr_telemetry::Value::U64(u64::from(budget)),
        );
        run.section_metric(
            &section,
            "states",
            srlr_telemetry::Value::U64(report_.total_states as u64),
        );
        run.section_metric(
            &section,
            "transitions",
            srlr_telemetry::Value::U64(report_.total_transitions as u64),
        );
        run.section_metric(
            &section,
            "deliver_probability",
            srlr_telemetry::Value::F64(report_.deliver_probability),
        );
    }
    report::emit_run_report(&run);
    report::emit_bench_snapshot(&run);
}

fn bench(c: &mut Criterion) {
    print_tables();
    // Full 12-route verification at the CI budget: BFS + canonical
    // interning + DTMC solve per route.
    c.bench_function("verify_2x2_budget3", |b| {
        let config = ModelConfig::two_by_two(1e-3, 3);
        b.iter(|| verify(&config))
    });
    // The deepest single route (two hops) in isolation, so per-state
    // throughput can be derived from states/iteration.
    c.bench_function("check_pair_2hop_budget3", |b| {
        let config = ModelConfig::two_by_two(1e-3, 3);
        b.iter(|| check_pair(&config, Coord::new(0, 0), Coord::new(1, 1)))
    });
    // Longer packets grow the state space combinatorially; this is the
    // scaling point the EXPERIMENTS walkthrough quotes.
    c.bench_function("check_pair_2hop_len6_budget3", |b| {
        let config = ModelConfig::two_by_two(1e-3, 3).with_packet_len(6);
        b.iter(|| check_pair(&config, Coord::new(0, 0), Coord::new(1, 1)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
