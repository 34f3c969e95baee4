//! Fig. 8: 1 cm link-traversal energy versus bandwidth density — the
//! SRLR spacing sweep against the published silicon-proven interconnects.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::{fig8_measured_series, fig8_published_points, report};
use srlr_tech::Technology;

fn print_figure() {
    let tech = Technology::soi45();
    report::section("Fig. 8 — 1 cm LT energy vs bandwidth density");

    let spacings = [0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7];
    let measured = fig8_measured_series(&tech, &spacings);
    let published = fig8_published_points();

    println!("\nmeasured SRLR sweep (each geometry rated at 0.7 x its error-free cliff):");
    println!(
        "{:<26} {:>14} {:>16}",
        "design point", "BW [Gb/s/um]", "LT [fJ/bit/cm]"
    );
    for p in &measured {
        println!(
            "{:<26} {:>14.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }
    println!("\npublished silicon points:");
    for p in &published {
        println!(
            "{:<26} {:>14.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }

    let ours: Vec<(f64, f64)> = measured
        .iter()
        .map(|p| (p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm))
        .collect();
    let prior: Vec<(f64, f64)> = published
        .iter()
        .filter(|p| !p.label.contains("This Work"))
        .map(|p| (p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm))
        .collect();
    let us_pub: Vec<(f64, f64)> = published
        .iter()
        .filter(|p| p.label.contains("This Work"))
        .map(|p| (p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm))
        .collect();
    println!(
        "\n{}",
        report::ascii_scatter(
            &[
                ("SRLR measured sweep", '*', ours),
                ("prior works (published)", 'o', prior),
                ("this work (published)", '#', us_pub),
            ],
            78,
            16,
        )
    );
    println!(
        "Shape check: the SRLR curve sits below the differential designs at\n\
         equal density and extends to higher bandwidth density (single-ended\n\
         wiring), with energy rising as spacing tightens — as in the paper."
    );
}

fn bench(c: &mut Criterion) {
    print_figure();
    let tech = Technology::soi45();
    c.bench_function("fig8_single_spacing_point", |b| {
        b.iter(|| fig8_measured_series(&tech, &[0.3]))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
