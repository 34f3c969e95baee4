//! Beyond-the-paper characterisation: crosstalk scenarios, temperature
//! sweep, supply scaling, the jittered BER bathtub, and the bufferless
//! (deflection) alternative from the paper's introduction.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::SrlrDesign;
use srlr_link::{bathtub, crosstalk, supply, LinkConfig, Prbs, SrlrLink};
use srlr_noc::bufferless::DeflectionNetwork;
use srlr_noc::traffic::Pattern;
use srlr_noc::{DatapathKind, Network, NocConfig, PowerModel};
use srlr_tech::{Technology, Temperature};
use srlr_units::{DataRate, TimeInterval, Voltage};

fn print_all() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);

    report::section("Crosstalk: neighbour-activity scenarios");
    println!(
        "{:<12} {:>14} {:>18}",
        "neighbours", "cliff rate", "energy @4.1 Gb/s"
    );
    for p in crosstalk::crosstalk_sweep(&tech, &design) {
        println!(
            "{:<12} {:>11} {:>14.1} fJ/b/mm",
            format!("{:?}", p.activity),
            p.max_rate.map_or("fails".to_owned(), |r| format!(
                "{:.1} Gb/s",
                r.gigabits_per_second()
            )),
            p.energy.femtojoules_per_bit_per_millimeter(),
        );
    }

    report::section("Temperature sweep at 4.1 Gb/s (adaptive bias)");
    for celsius in [-40.0, 27.0, 85.0, 105.0] {
        let var = Temperature::from_celsius(celsius).as_variation();
        let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
        let mut gen = Prbs::prbs15();
        let bits = gen.take_bits(4096);
        let out = link.transmit(&bits);
        let errors = bits
            .iter()
            .zip(&out.received)
            .filter(|(a, b)| a != b)
            .count();
        println!(
            "{:>6.0} C: {} errors / {} bits",
            celsius,
            errors,
            bits.len()
        );
    }
    println!("(105 C needs extra commanded swing — the mobility collapse outruns Vth tracking)");

    report::section("Supply scaling (rated at 0.7 x cliff)");
    let vdds: Vec<Voltage> = (6..=10)
        .map(|i| Voltage::from_volts(f64::from(i) / 10.0))
        .collect();
    for p in supply::supply_sweep(&tech, &design, &vdds) {
        println!(
            "VDD {:>7}: cliff {:>4.1} Gb/s, {:>5.1} fJ/bit/mm, {:>5.2} mW",
            p.vdd.to_string(),
            p.max_rate.gigabits_per_second(),
            p.energy.femtojoules_per_bit_per_millimeter(),
            p.power.milliwatts()
        );
    }

    report::section("BER bathtub (3 ps width jitter per stage)");
    let rates: Vec<DataRate> = (7..=14)
        .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
        .collect();
    let curve = bathtub::rate_bathtub(
        &tech,
        &design,
        &rates,
        TimeInterval::from_picoseconds(3.0),
        2_000,
        8,
    );
    print!("{}", bathtub::render(&curve));

    report::section("Bufferless (deflection) vs VC routers — Sec. I's buffer-power argument");
    let load = 0.10;
    let (cycles_w, cycles_m) = (400u64, 1600u64);
    let config = NocConfig::paper_default()
        .with_size(8, 8)
        .with_packet_len(1);
    let model = PowerModel::for_datapath(&tech, config.flit_bits, DatapathKind::SrlrLowSwing);

    let mut vc = Network::new(config);
    let vc_stats = vc.run_warmup_and_measure(Pattern::UniformRandom, load, cycles_w, cycles_m);
    let vc_power = model.report(
        &vc_stats.energy,
        cycles_m,
        config.clock,
        config.mesh().len(),
    );

    let mut dfl = DeflectionNetwork::new(config);
    let dfl_stats = dfl.run_warmup_and_measure(Pattern::UniformRandom, load, cycles_w, cycles_m);
    let dfl_power = model.report(
        &dfl_stats.energy,
        cycles_m,
        config.clock,
        config.mesh().len(),
    );

    println!("VC router:   {vc_stats}");
    println!("             {vc_power}");
    println!("deflection:  {dfl_stats}");
    println!(
        "             {dfl_power}  ({} deflections)",
        dfl.deflections()
    );
    println!(
        "\nBufferless removes the buffer component entirely, but its extra\n\
         link traversals land on the datapath — the component the paper\n\
         says is unavoidable and attacks with low-swing signaling instead."
    );
}

fn bench(c: &mut Criterion) {
    print_all();
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    c.bench_function("crosstalk_sweep", |b| {
        b.iter(|| crosstalk::crosstalk_sweep(&tech, &design))
    });
    c.bench_function("deflection_mesh_step", |b| {
        let config = NocConfig::paper_default()
            .with_size(4, 4)
            .with_packet_len(1);
        let mut net = DeflectionNetwork::new(config);
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.1, 100, 100);
        b.iter(|| net.step())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
