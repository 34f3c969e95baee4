//! Ablation of the three Sec. III robustness techniques (alternating
//! delay cells, NMOS-based drivers, adaptive swing) across all eight
//! combinations, plus the free-multicast energy accounting of Sec. II.

#![allow(
    clippy::cast_possible_truncation,
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::{DelayCellDesign, DriverKind, SrlrDesign};
use srlr_link::montecarlo::McExperiment;
use srlr_link::{MulticastLink, SrlrLink};
use srlr_noc::{Coord, Mesh, MulticastAccounting};
use srlr_tech::Technology;

fn runs() -> usize {
    std::env::var("SRLR_MC_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
}

fn print_tables() {
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech).with_runs(runs());
    let base = SrlrDesign::paper_proposed(&tech);

    report::section(&format!(
        "Ablation — Monte Carlo failure probability per technique combination ({} dice)",
        runs()
    ));
    println!(
        "{:<14} {:<12} {:<10} {:>18}",
        "delay cell", "driver", "bias", "error probability"
    );
    for (dlabel, delay) in [
        ("alternating", DelayCellDesign::alternating_paper()),
        ("single", DelayCellDesign::single_paper()),
    ] {
        for (vlabel, driver) in [
            ("NMOS", DriverKind::NmosBased),
            ("inverter", DriverKind::Inverter),
        ] {
            for adaptive in [true, false] {
                let design = base
                    .with_delay_cell(delay)
                    .with_driver(driver)
                    .with_adaptive_swing(adaptive);
                let p = exp.error_probability(&design);
                println!(
                    "{:<14} {:<12} {:<10} {:>18}",
                    dlabel,
                    vlabel,
                    if adaptive { "adaptive" } else { "fixed" },
                    p.to_string()
                );
            }
        }
    }
    println!(
        "\nReading: the adaptive swing scheme is the largest single\n\
         contributor, the NMOS driver removes the inverter's two-sided\n\
         failure modes; the alternating cell trades a little typical-corner\n\
         margin for drift containment (see the sec3_pulse_width traces)."
    );

    report::section("Repeater insertion-length ablation (the 1 mm premise of Sec. II)");
    println!(
        "(10 mm total span; the SRLR is sized to drive the router-to-router\n\
         distance directly, so 1 mm segments should sit at the sweet spot)\n"
    );
    println!(
        "{:>10} {:>8} {:>12} {:>18} {:>14}",
        "segment", "stages", "nominal", "energy", "corners ok"
    );
    for tenths in [5u32, 10, 20, 25] {
        let seg_mm = f64::from(tenths) / 10.0;
        let stages = (10.0 / seg_mm).round() as usize;
        let design = srlr_core::SrlrDesign {
            segment_length: srlr_units::Length::from_millimeters(seg_mm),
            ..base.clone()
        };
        let chain = design.instantiate(&tech, &srlr_tech::GlobalVariation::nominal(), stages);
        let nominal_ok = chain.propagate(chain.nominal_input_pulse()).is_valid();
        let energy = if nominal_ok {
            format!(
                "{:>13.1} fJ/b/mm",
                srlr_core::StageEnergyModel::from_chain(&chain)
                    .energy_per_bit_per_length(0.5)
                    .femtojoules_per_bit_per_millimeter()
            )
        } else {
            "n/a".to_owned()
        };
        let corners_ok = srlr_tech::ProcessCorner::ALL
            .iter()
            .filter(|c| {
                let chain = design.instantiate(&tech, &c.variation(&tech), stages);
                chain.propagate(chain.nominal_input_pulse()).is_valid()
            })
            .count();
        println!(
            "{:>7.1} mm {:>8} {:>12} {:>18} {:>11}/5",
            seg_mm,
            stages,
            if nominal_ok { "ok" } else { "FAIL" },
            energy,
            corners_ok,
        );
    }

    report::section("Sec. II — free 1-to-N multicast energy (10 mm link taps)");
    let link = SrlrLink::paper_test_chip(&tech);
    for taps in [vec![9], vec![4, 9], vec![2, 5, 9], vec![1, 3, 5, 7, 9]] {
        let m = MulticastLink::new(link.clone(), taps.clone());
        println!(
            "taps {:?}: multicast {} vs unicast clones {} (saving {:.2}x)",
            taps,
            m.multicast_pulse_energy(),
            m.unicast_clone_pulse_energy(),
            m.multicast_saving()
        );
    }

    report::section("Sec. II — mesh multicast trees (8x8, XY)");
    let mesh = Mesh::new(8, 8);
    let src = Coord::new(0, 0);
    for fanout in [2usize, 4, 8] {
        let dsts: Vec<Coord> = (0..fanout)
            .map(|k| Coord::new(7, (k * 7 / fanout.max(1)) as u16))
            .collect();
        let acc = MulticastAccounting::new(mesh, src, &dsts);
        println!(
            "fanout {fanout}: tree {} hops vs unicast {} hops (saving {:.2}x)",
            acc.tree_hops(),
            acc.unicast_hops(),
            acc.saving_factor()
        );
    }
}

fn bench(c: &mut Criterion) {
    print_tables();
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech).with_runs(20);
    let design = SrlrDesign::paper_proposed(&tech);
    c.bench_function("mc_20_dice_error_probability", |b| {
        b.iter(|| exp.error_probability(&design))
    });
    let link = SrlrLink::paper_test_chip(&tech);
    c.bench_function("multicast_saving_accounting", |b| {
        let m = MulticastLink::new(link.clone(), vec![2, 5, 9]);
        b.iter(|| m.multicast_saving())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
