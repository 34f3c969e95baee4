//! Transistor-level SRLR waveforms (the paper's Fig. 4), rendered as
//! ASCII strip charts from the transient simulator.
//!
//! Run with `cargo run --release --example waveforms`.

#![allow(
    clippy::print_stdout,
    reason = "example: printing is how it demonstrates the library"
)]

use srlr_core::transient::SrlrTransientFixture;
use srlr_tech::Technology;
use srlr_units::Voltage;

fn main() {
    let tech = Technology::soi45();
    println!("simulating one SRLR stage + 1 mm segment, pattern 1,0,1 at 4.1 Gb/s...");
    let waves = SrlrTransientFixture::fig4(&tech);

    println!(
        "\nIN — low-swing input pulses (peak {}):",
        waves.input.peak()
    );
    print!("{}", waves.input.ascii_plot(10, 100));

    println!("\nnode X — standby at VDD-Vth, discharge on detect, self-reset recharge:");
    print!("{}", waves.node_x.ascii_plot(10, 100));

    println!(
        "\nOUT — full-swing self-reset pulses (width {:?} ps):",
        waves
            .output
            .pulse_widths(Voltage::from_volts(0.4))
            .iter()
            .map(|w| w.picoseconds().round())
            .collect::<Vec<_>>()
    );
    print!("{}", waves.output.ascii_plot(10, 100));

    println!(
        "\nNEXT IN — the pulse repeated 1 mm downstream (peak {}):",
        waves.next_input.peak()
    );
    print!("{}", waves.next_input.ascii_plot(10, 100));
}
