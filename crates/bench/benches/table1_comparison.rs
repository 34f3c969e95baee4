//! Table I: comparison of silicon-proven on-chip interconnects, with this
//! reproduction's measured row, plus the Sec. IV headline measurements
//! (max data rate, BER bound, link power, bias share).

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::SrlrDesign;
use srlr_link::ber::{max_data_rate, BerTester};
use srlr_link::{ComparisonTable, LinkConfig, SrlrLink};
use srlr_tech::{AdaptiveSwingBias, GlobalVariation, Technology};
use srlr_units::DataRate;

fn print_table() {
    let tech = Technology::soi45();
    report::section("Table I — comparison of silicon-proven on-chip interconnects");
    let table = ComparisonTable::paper_table1(&tech);
    println!("{}", table.render());

    report::section("Sec. IV — measured test-chip numbers vs the paper");
    let link = SrlrLink::paper_test_chip(&tech);
    let metrics = link.metrics();
    report::paper_vs_measured(
        "bandwidth density",
        "Gb/s/um",
        6.83,
        metrics
            .bandwidth_density
            .gigabits_per_second_per_micrometer(),
    );
    report::paper_vs_measured(
        "link-traversal energy",
        "fJ/bit/mm",
        40.4,
        metrics.energy.femtojoules_per_bit_per_millimeter(),
    );
    report::paper_vs_measured(
        "link power at 4.1 Gb/s",
        "mW",
        1.66,
        metrics.power.milliwatts(),
    );

    let design = SrlrDesign::paper_proposed(&tech);
    let max = max_data_rate(
        &tech,
        &design,
        LinkConfig::paper_default(),
        &GlobalVariation::nominal(),
        DataRate::from_gigabits_per_second(1.0),
        DataRate::from_gigabits_per_second(10.0),
        DataRate::from_gigabits_per_second(0.05),
    )
    .expect("nominal link works");
    println!(
        "stress-pattern failure cliff: {:.2} Gb/s (nominal die, no margin)",
        max.gigabits_per_second()
    );
    report::paper_vs_measured(
        "rated maximum data rate (0.7 x cliff)",
        "Gb/s",
        4.1,
        max.gigabits_per_second() * srlr_bench::fig8::RATE_MARGIN,
    );

    let bits = std::env::var("SRLR_BER_BITS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let ber = BerTester::prbs15().run(&link, bits);
    println!("BER run: {ber}");
    println!("(paper: zero errors over >1e9 bits => BER < 1e-9; scale with SRLR_BER_BITS)");

    let bias = AdaptiveSwingBias::paper_default(&tech);
    let link_power_64 = metrics.power * 64.0;
    report::paper_vs_measured(
        "bias power share of a 64-bit 10 mm link",
        "%",
        0.6,
        bias.power_fraction_of(link_power_64) * 100.0,
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let tech = Technology::soi45();
    let link = SrlrLink::paper_test_chip(&tech);
    c.bench_function("prbs_transmit_10k_bits", |b| {
        let mut tester = BerTester::prbs15();
        b.iter(|| tester.run(&link, 10_000))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
