//! Sec. III-A, eqs. (1)/(2): pulse-width drift across repeater stages at
//! global corners, single vs alternating delay cells; plus the Sec. III-B
//! inverter-driver failure modes on the `11110` worst case.

#![allow(
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_core::{DelayCellDesign, DriverKind, SrlrDesign};
use srlr_link::{LinkConfig, SrlrLink};
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::Voltage;

fn trace_line(design: &SrlrDesign, tech: &Technology, var: &GlobalVariation) -> String {
    let chain = design.instantiate(tech, var, 10);
    chain
        .propagate_trace(chain.nominal_input_pulse())
        .iter()
        .map(|p| {
            if p.is_valid() {
                format!("{:>4.0}", p.width.picoseconds())
            } else {
                "   X".to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn print_tables() {
    let tech = Technology::soi45();
    let base = SrlrDesign::paper_proposed(&tech).with_adaptive_swing(false);

    report::section("Sec. III-A — output pulse widths W_out,n [ps] across 10 stages");
    println!("(fixed bias so the corner bites; X = pulse lost)\n");
    println!("{:>9} {:<12} W_out,0 .. W_out,10", "corner", "delay cell");
    for mv in [0.0, 15.0, 25.0, 35.0, -25.0, -50.0] {
        let var = GlobalVariation {
            dvth_n: Voltage::from_millivolts(mv),
            dvth_p: Voltage::from_millivolts(mv),
            ..GlobalVariation::nominal()
        };
        for (label, cell) in [
            ("single", DelayCellDesign::single_paper()),
            ("alternating", DelayCellDesign::alternating_paper()),
        ] {
            let design = base.with_delay_cell(cell);
            println!(
                "{mv:>+8.0}mV {label:<12} {}",
                trace_line(&design, &tech, &var)
            );
        }
    }
    println!(
        "\nEq. (1): at slow corners the single design's widths shrink\n\
         monotonically (W_out,0 > W_out,1 > ...) until the bit-1 is lost;\n\
         Eq. (2): fast corners widen pulses toward the ISI limit."
    );

    report::section("Sec. III-B — '11110' headroom per output driver at skew corners");
    println!(
        "(highest data rate that still carries the worst-case pattern\n\
         cleanly, and the worst wire residue at 4.1 Gb/s)\n"
    );
    println!(
        "{:<30} {:<22} {:>14} {:>18}",
        "corner", "driver", "max clean rate", "residue @4.1 Gb/s"
    );
    for (corner_label, dn, dp) in [
        ("TT", 0.0, 0.0),
        ("weak PMOS (FS)", -60.0, 60.0),
        ("strong PMOS / weak NMOS (SF)", 60.0, -60.0),
    ] {
        let var = GlobalVariation {
            dvth_n: Voltage::from_millivolts(dn),
            dvth_p: Voltage::from_millivolts(dp),
            ..GlobalVariation::nominal()
        };
        for driver in [DriverKind::NmosBased, DriverKind::Inverter] {
            let design = SrlrDesign::paper_proposed(&tech).with_driver(driver);
            let pattern: Vec<bool> = [true, true, true, true, false].repeat(10);
            let clean = |gbps: f64| {
                let config = LinkConfig::paper_default()
                    .with_data_rate(srlr_units::DataRate::from_gigabits_per_second(gbps));
                let link = SrlrLink::on_die(&tech, &design, config, &var);
                link.transmit(&pattern).received == pattern
            };
            let max_rate = (10..=120)
                .map(|i| f64::from(i) * 0.1)
                .take_while(|&g| clean(g))
                .last();
            let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
            let out = link.transmit(&pattern);
            println!(
                "{corner_label:<30} {driver:<22} {:>11} {:>18}",
                max_rate.map_or("< 1 Gb/s".to_owned(), |g| format!("{g:.1} Gb/s")),
                out.max_baseline.to_string()
            );
        }
    }
    println!(
        "\nThe NMOS-based driver's swing is bias-limited, so the strong-PMOS\n\
         over-swing mode disappears and its worst-case headroom exceeds the\n\
         inverter's at the SF skew corner."
    );
}

fn bench(c: &mut Criterion) {
    print_tables();
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 10);
    c.bench_function("chain_propagate_10_stages", |b| {
        b.iter(|| chain.propagate(chain.nominal_input_pulse()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
