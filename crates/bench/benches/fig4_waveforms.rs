//! Fig. 4: transient waveforms of one SRLR stage — the low-swing input
//! pulse, node X's discharge/self-reset cycle, the full-swing output and
//! the repeated low-swing pulse 1 mm downstream.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::transient::SrlrTransientFixture;
use srlr_tech::Technology;
use srlr_units::Voltage;

fn print_figure() {
    let tech = Technology::soi45();
    report::section("Fig. 4 — SRLR simulated waveforms (1,0,1 at 4.1 Gb/s, TT, 0.8 V)");
    let waves = SrlrTransientFixture::fig4(&tech);

    println!("\nIN (low-swing input pulses):");
    print!("{}", waves.input.ascii_plot(8, 90));
    println!("\nnode X (discharge on detect, NMOS recharge to VDD-Vth):");
    print!("{}", waves.node_x.ascii_plot(8, 90));
    println!("\nOUT (full-swing self-reset pulses):");
    print!("{}", waves.output.ascii_plot(8, 90));
    println!("\nNEXT IN (repeated low-swing pulses, 1 mm away):");
    print!("{}", waves.next_input.ascii_plot(8, 90));

    report::section("Fig. 4 — measured waveform properties");
    report::paper_vs_measured(
        "node X standby level (VDD - Vth)",
        "V",
        0.55,
        waves
            .node_x
            .value_at(srlr_units::TimeInterval::from_picoseconds(2.0))
            .volts(),
    );
    println!("input peak swing: {} (low swing)", waves.input.peak());
    println!(
        "output peak: {} (full swing), pulses: {}",
        waves.output.peak(),
        waves.output.pulse_widths(Voltage::from_volts(0.4)).len()
    );
    println!(
        "next-stage peak swing: {} (repeated low swing)",
        waves.next_input.peak()
    );
}

fn bench(c: &mut Criterion) {
    print_figure();
    let tech = Technology::soi45();
    c.bench_function("fig4_transient_simulation", |b| {
        b.iter(|| SrlrTransientFixture::fig4(&tech))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
