//! BER-versus-rate "bathtub": the margin curve between the operating
//! point and the failure cliff, measured with timing jitter enabled.
//!
//! The silicon's 4.1 Gb/s rating holds BER < 1e-9; pushing the rate eats
//! the jitter margin until errors appear. Sweeping the rate with the
//! jittered transmitter produces the right-hand wall of the classic
//! bathtub curve and shows how much slope sits between "rated" and
//! "broken".

use crate::engine;
use crate::link::{LinkConfig, SrlrLink};
use crate::prbs::Prbs;
use srlr_core::SrlrDesign;
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, TimeInterval};

/// One rate point of the bathtub.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BathtubPoint {
    /// Data rate.
    pub rate: DataRate,
    /// Bit errors observed across all seeds.
    pub errors: usize,
    /// Total bits transmitted across all seeds.
    pub bits: usize,
}

impl BathtubPoint {
    /// Observed bit-error rate.
    ///
    /// # Panics
    ///
    /// Panics if no bits were transmitted.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber(&self) -> f64 {
        assert!(self.bits > 0, "empty bathtub point");
        self.errors as f64 / self.bits as f64
    }
}

/// Sweeps data rate with per-stage width jitter, accumulating errors over
/// `seeds` independent noise streams of `bits_per_seed` PRBS bits each.
///
/// # Panics
///
/// Panics if any count is zero or the jitter is negative.
pub fn rate_bathtub(
    tech: &Technology,
    design: &SrlrDesign,
    rates: &[DataRate],
    jitter_sigma: TimeInterval,
    bits_per_seed: usize,
    seeds: u64,
) -> Vec<BathtubPoint> {
    rate_bathtub_with_threads(
        tech,
        design,
        rates,
        jitter_sigma,
        bits_per_seed,
        seeds,
        None,
    )
}

/// [`rate_bathtub`] with an explicit worker-thread count (`None` defers
/// to `SRLR_THREADS` / the machine). Every `(rate, seed)` pair is an
/// independent jittered transmission, so the sweep is flattened into one
/// parallel workload; the curve is identical at every thread count.
///
/// # Panics
///
/// Panics if any count is zero or the jitter is negative.
pub fn rate_bathtub_with_threads(
    tech: &Technology,
    design: &SrlrDesign,
    rates: &[DataRate],
    jitter_sigma: TimeInterval,
    bits_per_seed: usize,
    seeds: u64,
    threads: Option<usize>,
) -> Vec<BathtubPoint> {
    assert!(!rates.is_empty(), "need at least one rate");
    assert!(bits_per_seed > 0 && seeds > 0, "need a bit budget");
    assert!(jitter_sigma.seconds() >= 0.0, "jitter must be non-negative");
    let nominal = GlobalVariation::nominal();
    // Link elaboration is invariant across seeds: build each rate's link
    // once up front instead of inside the flattened hot loop.
    let links: Vec<SrlrLink> = rates
        .iter()
        .map(|&rate| {
            let config = LinkConfig::paper_default().with_data_rate(rate);
            SrlrLink::on_die(tech, design, config, &nominal)
        })
        .collect();

    // One (rate, seed) cell per work item: a jittered transmission of
    // the seed's PRBS-7 stimulus with the seed's own Gaussian noise
    // stream. No certificate here — it only proves the *jitter-free*
    // link clean — and no early exit: a bathtub counts every error.
    let n_seeds = seeds as usize;
    let n_threads = engine::resolve_threads(threads);
    let cells = engine::par_map_indexed(rates.len() * n_seeds, n_threads, |i| {
        let seed = (i % n_seeds) as u64;
        // srlr-lint: allow(lossy-cast, reason = "seed % 126 + 1 is at most 126, well within u32")
        let tx = Prbs::prbs7_with_seed((seed % 126 + 1) as u32).take_bits(bits_per_seed);
        let out = links[i / n_seeds].transmit_with_jitter(&tx, jitter_sigma, seed);
        tx.iter().zip(&out.received).filter(|(a, b)| a != b).count()
    });
    rates
        .iter()
        .zip(cells.chunks(n_seeds))
        .map(|(&rate, chunk)| BathtubPoint {
            rate,
            errors: chunk.iter().sum(),
            bits: bits_per_seed * n_seeds,
        })
        .collect()
}

/// Renders the bathtub as an ASCII row per rate.
pub fn render(points: &[BathtubPoint]) -> String {
    let mut out = String::new();
    for p in points {
        let bar = if p.errors == 0 {
            "clean".to_owned()
        } else {
            format!(
                "BER {:.1e} {}",
                p.ber(),
                "#".repeat((p.ber().log10() + 7.0).max(1.0) as usize)
            )
        };
        out.push_str(&format!(
            "{:>6.1} Gb/s  {}\n",
            p.rate.gigabits_per_second(),
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<BathtubPoint> {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [3.5, 4.1, 5.0, 5.6, 6.2, 7.0]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        rate_bathtub(
            &tech,
            &design,
            &rates,
            TimeInterval::from_picoseconds(3.0),
            500,
            6,
        )
    }

    #[test]
    fn rated_point_is_clean_under_jitter() {
        let c = curve();
        assert_eq!(c[0].errors, 0, "3.5 Gb/s must be clean");
        assert_eq!(c[1].errors, 0, "4.1 Gb/s must be clean");
    }

    #[test]
    fn the_wall_appears_before_the_jitter_free_cliff() {
        // Jitter-free cliff is ~6 Gb/s; with 3 ps of jitter errors must
        // appear at or below 6.2 Gb/s.
        let c = curve();
        let first_bad = c.iter().find(|p| p.errors > 0);
        let first_bad = first_bad.expect("the sweep must reach the wall");
        assert!(
            first_bad.rate.gigabits_per_second() <= 6.3,
            "wall at {first_bad:?}"
        );
    }

    #[test]
    fn error_rate_grows_up_the_wall() {
        let c = curve();
        let bers: Vec<f64> = c.iter().map(BathtubPoint::ber).collect();
        // Beyond the first error the curve must not fall back to zero.
        if let Some(first) = bers.iter().position(|&b| b > 0.0) {
            for (i, &b) in bers.iter().enumerate().skip(first + 1) {
                assert!(b > 0.0, "BER fell back to zero at index {i}");
            }
        }
    }

    #[test]
    fn parallel_bathtub_matches_serial() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [4.1, 5.6, 6.2]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        let sigma = TimeInterval::from_picoseconds(3.0);
        let serial = rate_bathtub_with_threads(&tech, &design, &rates, sigma, 300, 4, Some(1));
        for threads in [2usize, 8] {
            assert_eq!(
                serial,
                rate_bathtub_with_threads(&tech, &design, &rates, sigma, 300, 4, Some(threads)),
                "threads={threads} diverged from the serial bathtub"
            );
        }
    }

    #[test]
    fn bathtub_matches_per_cell_scalar_transmission() {
        // Every point must equal a straightforward serial loop of
        // per-cell jittered transmits, including the per-seed noise
        // streams.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [4.1, 5.6, 6.2]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        let sigma = TimeInterval::from_picoseconds(3.0);
        let (bits_per_seed, seeds) = (200usize, 5u64);
        let curve =
            rate_bathtub_with_threads(&tech, &design, &rates, sigma, bits_per_seed, seeds, Some(1));
        let nominal = GlobalVariation::nominal();
        for (point, &rate) in rates.iter().enumerate() {
            let config = LinkConfig::paper_default().with_data_rate(rate);
            let link = SrlrLink::on_die(&tech, &design, config, &nominal);
            let mut errors = 0usize;
            for seed in 0..seeds {
                let tx = Prbs::prbs7_with_seed((seed % 126 + 1) as u32).take_bits(bits_per_seed);
                let out = link.transmit_with_jitter(&tx, sigma, seed);
                errors += tx.iter().zip(&out.received).filter(|(a, b)| a != b).count();
            }
            assert_eq!(
                curve[point],
                BathtubPoint {
                    rate,
                    errors,
                    bits: bits_per_seed * seeds as usize
                },
                "rate point {point} diverged from the scalar jittered transmit"
            );
        }
    }

    #[test]
    fn render_marks_clean_and_dirty_rows() {
        let text = render(&curve());
        assert!(text.contains("clean"));
        assert!(text.contains("BER"));
    }

    #[test]
    #[should_panic(expected = "at least one rate")]
    fn empty_rates_rejected() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let _ = rate_bathtub(&tech, &design, &[], TimeInterval::zero(), 10, 1);
    }
}
