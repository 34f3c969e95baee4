//! Sec. IV router numbers: the 64-bit 5-port mesh router's power split
//! (buffers 38.8 mW / control 5.2 mW / SRLR datapath 12.9 mW), the area
//! fractions, the Sec. I published NoC breakdowns, and the full-swing vs
//! SRLR datapath comparison on a live 8x8 mesh.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::SrlrArea;
use srlr_noc::traffic::Pattern;
use srlr_noc::{DatapathKind, Network, NocConfig, PowerModel, PublishedBreakdown};
use srlr_tech::Technology;
use srlr_units::Frequency;

fn print_report() {
    let tech = Technology::soi45();
    let model = PowerModel::paper_default(&tech);

    report::section("Sec. IV — synthesized router power split (calibration point)");
    let cal = model.calibration_report(Frequency::from_gigahertz(1.0), 5);
    report::paper_vs_measured("input buffers", "mW", 38.8, cal.buffers.milliwatts());
    report::paper_vs_measured("control logic", "mW", 5.2, cal.control.milliwatts());
    report::paper_vs_measured(
        "SRLR low-swing datapath (incl. bias)",
        "mW",
        12.9,
        (cal.datapath + cal.bias).milliwatts(),
    );

    report::section("Sec. I / Fig. 7 — area accounting");
    let area = SrlrArea::paper_default();
    report::paper_vs_measured(
        "SRLR cell area",
        "um^2",
        47.9,
        area.cell_area().square_micrometers(),
    );
    report::paper_vs_measured(
        "64b x 5-port datapath area",
        "mm^2",
        0.061,
        area.paper_datapath_area().square_millimeters(),
    );
    report::paper_vs_measured(
        "datapath share of router footprint",
        "%",
        18.0,
        area.datapath_fraction(64, 5, 4) * 100.0,
    );

    report::section("Sec. I — published mesh NoC power breakdowns");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>20}",
        "chip", "links", "crossbar", "buffers", "datapath (lnk+xbar)"
    );
    for b in PublishedBreakdown::all() {
        println!(
            "{:<12} {:>7.0}% {:>9.0}% {:>9.0}% {:>19.0}%",
            b.name,
            b.links_pct,
            b.crossbar_pct,
            b.buffers_pct,
            b.datapath_pct()
        );
    }

    report::section("8x8 mesh at uniform random load — SRLR vs full-swing datapath");
    let cycles_w = 500;
    let cycles_m = 2000;
    for datapath in [DatapathKind::SrlrLowSwing, DatapathKind::FullSwingRepeated] {
        let config = NocConfig::paper_default().with_datapath(datapath);
        let mut net = Network::new(config);
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.06, cycles_w, cycles_m);
        let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
        let power = model.report(&stats.energy, cycles_m, config.clock, config.mesh().len());
        println!("\n{datapath}:");
        println!("  traffic: {stats}");
        println!("  power:   {power}");
        println!(
            "  datapath fraction of NoC power: {:.1} %",
            power.datapath_fraction() * 100.0
        );
    }
    println!(
        "\nShape check: swapping the full-swing datapath for the SRLR cuts\n\
         the datapath component while buffers/control stay unchanged."
    );
}

fn bench(c: &mut Criterion) {
    print_report();
    c.bench_function("mesh_8x8_step_at_10pct_load", |b| {
        let config = NocConfig::paper_default();
        let mut net = Network::new(config);
        // Pre-warm with traffic so steps do real work.
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.10, 200, 200);
        b.iter(|| net.step())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
