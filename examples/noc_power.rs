//! Router and NoC power: reproduce the paper's Sec. IV breakdown
//! (buffers 38.8 mW / control 5.2 mW / datapath 12.9 mW) and sweep an
//! 8x8 mesh across load for both datapath implementations.
//!
//! Run with `cargo run --release --example noc_power`.

#![allow(
    clippy::print_stdout,
    reason = "example: printing is how it demonstrates the library"
)]

use srlr_noc::traffic::Pattern;
use srlr_noc::{DatapathKind, Network, NocConfig, PowerModel};
use srlr_tech::Technology;
use srlr_units::Frequency;

fn main() {
    let tech = Technology::soi45();

    println!("== calibration point (one saturated router, paper Sec. IV) ==");
    let model = PowerModel::paper_default(&tech);
    let cal = model.calibration_report(Frequency::from_gigahertz(1.0), 5);
    println!("paper:    buffers 38.8 mW | control 5.2 mW | datapath 12.9 mW");
    println!("measured: {cal}");

    println!("\n== 8x8 mesh load sweep, uniform random ==");
    println!(
        "{:>6} {:>24} {:>24} {:>12}",
        "load", "SRLR datapath [mW]", "full-swing [mW]", "saving"
    );
    for load in [0.02, 0.05, 0.10, 0.15] {
        let mut row = Vec::new();
        for datapath in [DatapathKind::SrlrLowSwing, DatapathKind::FullSwingRepeated] {
            let config = NocConfig::paper_default().with_datapath(datapath);
            let mut net = Network::new(config);
            let stats = net.run_warmup_and_measure(Pattern::UniformRandom, load, 500, 2000);
            let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
            let report = model.report(&stats.energy, 2000, config.clock, config.mesh().len());
            row.push((report.datapath + report.bias).milliwatts());
        }
        println!(
            "{load:>6.2} {:>24.2} {:>24.2} {:>11.1}%",
            row[0],
            row[1],
            (1.0 - row[0] / row[1]) * 100.0
        );
    }
    println!("\n(buffers and control are identical across datapaths; the SRLR");
    println!(" attacks exactly the links+crossbar component the paper targets)");
}
