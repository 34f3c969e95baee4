//! Fig. 6: 1000-run Monte Carlo error probability versus swing voltage
//! for the proposed and straightforward SRLR designs, including the
//! paper's 3.7x immunity headline.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::SrlrDesign;
use srlr_link::montecarlo::McExperiment;
use srlr_link::{LinkConfig, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::Voltage;

/// Dice per point; the paper uses 1000. Override with SRLR_MC_RUNS.
fn runs() -> usize {
    std::env::var("SRLR_MC_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

fn print_figure() {
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech).with_runs(runs());

    report::section(&format!(
        "Fig. 6 — Monte Carlo error probability vs swing voltage ({} dice/point)",
        runs()
    ));
    let swings: Vec<Voltage> = (6..=12)
        .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
        .collect();
    println!(
        "{:>10} {:>26} {:>26}",
        "swing", "proposed SRLR", "straightforward SRLR"
    );
    let proposed = SrlrDesign::paper_proposed(&tech);
    let straightforward = SrlrDesign::straightforward(&tech);
    let sweep_p = exp.swing_sweep(&proposed, &swings);
    let sweep_s = exp.swing_sweep(&straightforward, &swings);
    for ((swing, p), (_, s)) in sweep_p.iter().zip(&sweep_s) {
        println!(
            "{:>10} {:>26} {:>26}",
            swing.to_string(),
            p.to_string(),
            s.to_string()
        );
    }

    report::section("Fig. 6 — immunity at the fabrication swing");
    let (p, s, ratio) = exp.immunity_ratio();
    println!("proposed:        {p}");
    println!("straightforward: {s}");
    report::paper_vs_measured(
        "immunity ratio (straightforward / proposed)",
        "x",
        3.7,
        ratio,
    );

    let mut run = srlr_telemetry::RunReport::new("fig6_monte_carlo");
    run.param("runs", srlr_telemetry::Value::U64(runs() as u64));
    run.metric("immunity_ratio", srlr_telemetry::Value::F64(ratio));
    run.metric(
        "proposed_error_probability",
        srlr_telemetry::Value::F64(p.estimate()),
    );
    run.metric(
        "straightforward_error_probability",
        srlr_telemetry::Value::F64(s.estimate()),
    );
    for (i, ((swing, p), (_, s))) in sweep_p.iter().zip(&sweep_s).enumerate() {
        let section = format!("point.{i:03}");
        run.section_metric(
            &section,
            "swing_mv",
            srlr_telemetry::Value::F64(swing.millivolts()),
        );
        run.section_metric(
            &section,
            "proposed_failures",
            srlr_telemetry::Value::U64(p.failures as u64),
        );
        run.section_metric(
            &section,
            "straightforward_failures",
            srlr_telemetry::Value::U64(s.failures as u64),
        );
    }
    report::emit_run_report(&run);
}

fn bench(c: &mut Criterion) {
    print_figure();
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    c.bench_function("mc_one_die_stress_test", |b| {
        let mut mc = MonteCarlo::new(&tech, 99);
        b.iter(|| {
            let var = mc.sample_die();
            let link = SrlrLink::on_die_with_mismatch(
                &tech,
                &design,
                LinkConfig::paper_default(),
                &var,
                &mut mc,
            );
            link.transmit(&[true, true, true, true, false, true, false, true])
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
