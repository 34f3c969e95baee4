//! Latency–load characterisation of the mesh NoC (the standard NoC
//! evaluation curve, run for several traffic patterns), plus the
//! express-channel trade-off of the paper's introduction.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_noc::traffic::Pattern;
use srlr_noc::{ExpressComparison, ExpressTopology, Mesh, Network, NocConfig, RouterAreaModel};
use srlr_tech::Technology;

fn print_curves() {
    report::section("8x8 mesh latency vs offered load (packets/node/cycle)");
    let loads = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12];
    println!(
        "{:>6} {:>16} {:>16} {:>16}",
        "load", "uniform", "transpose", "neighbor"
    );
    for &load in &loads {
        let mut row = Vec::new();
        for pattern in [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::Neighbor,
        ] {
            let mut net = Network::new(NocConfig::paper_default());
            let stats = net.run_warmup_and_measure(pattern, load, 500, 1500);
            row.push(if stats.packets_received > 0 {
                format!("{:>13.1} cyc", stats.avg_latency_cycles())
            } else {
                ">sat".to_owned()
            });
        }
        println!("{load:>6.2} {:>16} {:>16} {:>16}", row[0], row[1], row[2]);
    }
    println!(
        "\nNeighbour (local) traffic rides the mesh's short links — the\n\
         locality argument for meshes over indirect topologies in Sec. I."
    );

    report::section("Express channels (Sec. I counter-argument, [28][29])");
    let tech = Technology::soi45();
    println!(
        "{:>9} {:>11} {:>12} {:>13} {:>13}",
        "interval", "hop cut", "energy x", "driver area x", "extra ports"
    );
    for interval in [2u16, 4] {
        let topo = ExpressTopology::new(Mesh::new(8, 8), interval);
        let c = ExpressComparison::evaluate(&tech, topo);
        println!(
            "{interval:>9} {:>10.1}% {:>12.2} {:>13.0} {:>13}",
            c.hop_reduction() * 100.0,
            c.energy_ratio(),
            c.driver_area_ratio(),
            topo.extra_ports_at_stations(),
        );
    }
    println!(
        "\nExpress wiring cuts router visits but pays more datapath energy\n\
         per transfer and >35x driver area per bit — the paper's reason to\n\
         keep traffic on 1 mm SRLR hops instead."
    );

    report::section("Router floorplan (derived, vs the paper's 0.34 mm^2)");
    let model = RouterAreaModel::paper_default();
    print!("{}", model.render(&NocConfig::paper_default()));
}

fn bench(c: &mut Criterion) {
    print_curves();
    c.bench_function("mesh_8x8_full_measurement_window", |b| {
        b.iter(|| {
            let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
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
