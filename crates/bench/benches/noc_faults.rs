//! Fault-injection characterisation of the mesh NoC: delivered rate,
//! honest p99 latency and retransmission energy versus the injected link
//! BER, plus a Criterion benchmark of the fault-injected hot path.
//!
//! Besides the `target/srlr-reports/noc_faults.json` run report, it
//! writes the committed snapshot `BENCH_noc_faults.json` at the repo
//! root (same schema: `srlr-telemetry`'s versioned run report). The
//! sweep is fully deterministic, so CI's perf-regression job gates it
//! with `srlr bench-diff` at (near-)zero tolerance.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_noc::traffic::Pattern;
use srlr_noc::{ber_sweep, FaultConfig, Network, NocConfig, PowerModel};
use srlr_tech::Technology;

fn print_tables() {
    report::section("8x8 mesh under BER-driven fault injection (CRC-16 + NACK retransmission)");
    let tech = Technology::soi45();
    let config = NocConfig::paper_default();
    let model = PowerModel::paper_default(&tech);
    let bers = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    let points = ber_sweep(
        config,
        FaultConfig::new(0.0),
        Pattern::UniformRandom,
        0.05,
        500,
        1500,
        &bers,
        None,
    );
    println!(
        "{:>10} {:>10} {:>8} {:>10} {:>9} {:>8} {:>14}",
        "ber", "delivered", "p99", "retries", "silent", "dropped", "energy/bit"
    );
    for p in &points {
        let s = &p.stats;
        let p99 = s
            .latency_percentile(99.0)
            .map_or_else(|| ">512".to_owned(), |v| v.to_string());
        let bits = s.packets_received as f64 * (config.packet_len * config.flit_bits) as f64;
        println!(
            "{:>10.1e} {:>9.2}% {:>8} {:>10} {:>9} {:>8} {:>11.1} fJ",
            p.ber,
            s.delivered_fraction() * 100.0,
            p99,
            s.faults.flits_retransmitted,
            s.faults.silent_corruptions,
            s.packets_dropped,
            model.dynamic_energy(&s.energy).joules() / bits.max(1.0) * 1e15,
        );
    }
    println!(
        "\nReading: the paper bounds the measured link at BER < 1e-9, where\n\
         the retransmission machinery is idle and free; the sweep shows how\n\
         gracefully delivery degrades (and energy/bit grows) if a link were\n\
         orders of magnitude worse than measured."
    );

    let mut run = srlr_telemetry::RunReport::new("noc_faults");
    run.param("points", srlr_telemetry::Value::U64(points.len() as u64));
    run.param("load", srlr_telemetry::Value::F64(0.05));
    for (i, p) in points.iter().enumerate() {
        let section = format!("point.{i:03}");
        run.section_metric(&section, "ber", srlr_telemetry::Value::F64(p.ber));
        run.section_metric(
            &section,
            "delivered_fraction",
            srlr_telemetry::Value::F64(p.stats.delivered_fraction()),
        );
        run.section_metric(
            &section,
            "flits_retransmitted",
            srlr_telemetry::Value::U64(p.stats.faults.flits_retransmitted),
        );
        for (name, value) in p.stats.latency_histogram.summary().metric_fields("latency") {
            run.section_metric(&section, &name, value);
        }
    }
    report::emit_run_report(&run);
    report::emit_bench_snapshot(&run);
}

fn bench(c: &mut Criterion) {
    print_tables();
    c.bench_function("mesh_4x4_fault_injected_window", |b| {
        b.iter(|| {
            let mut net = Network::new(NocConfig::paper_default().with_size(4, 4).with_ber(1e-3));
            net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 50, 200)
        })
    });
    c.bench_function("mesh_4x4_fault_model_installed_ber0", |b| {
        b.iter(|| {
            let mut net = Network::new(NocConfig::paper_default().with_size(4, 4).with_ber(0.0));
            net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 50, 200)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
