//! `link_ber`: PRBS bit-error-rate runs on the nominal die plus a jittered
//! rate bathtub.
//!
//! One unit runs [`BITS`] PRBS-15 bits through the proposed design's link
//! at the paper's 4.1 Gb/s and at a faster rate, then sweeps the rate
//! bathtub with 3 ps of jitter across the ~6 Gb/s wall. Per-bit
//! propagation is nearly all of the time and elaboration is negligible,
//! the reverse of `mc_fig6`. Work unit: bits propagated.

use crate::layers::Layers;
use crate::{Checks, Workload, DEFAULT_SEED};
use srlr_core::SrlrDesign;
use srlr_link::bathtub::rate_bathtub_with_threads;
use srlr_link::{BerReport, BerTester, LinkConfig, Prbs, SrlrLink};
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, TimeInterval};

/// PRBS bits per BER rate.
const BITS: usize = 250_000;

/// The BER rates in Gb/s: the paper's operating point and a faster one.
const BER_GBPS: [f64; 2] = [4.1, 5.0];

/// Bathtub stimulus: bits per seed and seeds per rate.
const BATHTUB_BITS: usize = 2000;
const BATHTUB_SEEDS: u64 = 8;

/// Per-stage pulse-width jitter of the bathtub.
const JITTER_PS: f64 = 3.0;

/// The paper's headline link energy.
const PAPER_FJ_PER_BIT_MM: f64 = 40.4;

/// The band every seed's 4.1 Gb/s link energy must fall in (fJ/bit/mm).
const ENERGY_BAND: (f64, f64) = (36.0, 45.0);

/// `(errors, energy in joules)` per BER rate at [`DEFAULT_SEED`].
const GOLDEN_BER: [(usize, f64); 2] = [(0, 1.0130609598640688e-7), (0, 1.014048740148279e-7)];

/// Errors per bathtub rate (the bathtub takes no seed).
const GOLDEN_BATHTUB: [usize; 8] = [0, 0, 0, 0, 0, 2073, 6673, 7782];

/// The simulated results of one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Ber {
    /// `(errors, energy in joules)` per BER rate.
    ber: Vec<(usize, f64)>,
    /// `(bits, errors)` per bathtub rate.
    bathtub: Vec<(usize, usize)>,
}

/// The workload's inputs.
pub struct LinkBer {
    tech: Technology,
    design: SrlrDesign,
    seed: u64,
    /// The nominal-die link at each BER rate.
    links: Vec<SrlrLink>,
    bathtub_rates: Vec<DataRate>,
}

impl LinkBer {
    /// The PRBS-15 register seed derived from the benchmark seed (never
    /// the absorbing all-zero state).
    fn prbs_seed(&self) -> u32 {
        u32::try_from(self.seed % 0x7FFF).expect("below 2^15") + 1
    }

    fn bathtub(&self) -> Vec<(usize, usize)> {
        rate_bathtub_with_threads(
            &self.tech,
            &self.design,
            &self.bathtub_rates,
            TimeInterval::from_picoseconds(JITTER_PS),
            BATHTUB_BITS,
            BATHTUB_SEEDS,
            Some(1),
        )
        .iter()
        .map(|p| (p.bits, p.errors))
        .collect()
    }
}

/// Link energy of a BER run in fJ per bit per mm.
fn fj_per_bit_mm(link: &SrlrLink, energy_j: f64, bits: usize) -> f64 {
    energy_j / bits as f64 / link.chain().total_length().millimeters() * 1e15
}

impl Workload for LinkBer {
    type Outcome = Ber;

    fn setup(seed: u64) -> Self {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let links = BER_GBPS
            .iter()
            .map(|&gbps| {
                let config = LinkConfig::paper_default()
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal())
            })
            .collect();
        let bathtub_rates = (7..=14)
            .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
            .collect();
        Self {
            tech,
            design,
            seed,
            links,
            bathtub_rates,
        }
    }

    fn run(&self) -> Ber {
        let ber = self
            .links
            .iter()
            .map(|link| {
                let report =
                    BerTester::new(Prbs::prbs15_with_seed(self.prbs_seed())).run(link, BITS);
                (report.errors, report.energy.joules())
            })
            .collect();
        Ber {
            ber,
            bathtub: self.bathtub(),
        }
    }

    fn work(&self) -> f64 {
        let bathtub = self.bathtub_rates.len() * BATHTUB_BITS * BATHTUB_SEEDS as usize;
        (self.links.len() * BITS + bathtub) as f64
    }

    fn check(&self, out: &Ber, checks: &mut Checks) {
        if self.seed == DEFAULT_SEED {
            for (i, golden) in GOLDEN_BER.iter().enumerate() {
                checks.equal("BER (errors, energy)", &out.ber.get(i), &Some(golden));
            }
        }
        let errors: Vec<usize> = out.bathtub.iter().map(|&(_, e)| e).collect();
        checks.equal("bathtub errors", &errors, &GOLDEN_BATHTUB.to_vec());
        for (link, &(errors, _)) in self.links.iter().zip(&out.ber) {
            // A certified link is clean for every bit pattern.
            checks.expect(!link.robustly_clean() || errors == 0, || {
                format!(
                    "certified link at {} saw {errors} errors",
                    link.config().data_rate
                )
            });
        }
        if let (Some(link), Some(&(_, energy))) = (self.links.first(), out.ber.first()) {
            let fj = fj_per_bit_mm(link, energy, BITS);
            let (lo, hi) = ENERGY_BAND;
            checks.expect((lo..=hi).contains(&fj), || {
                format!("link energy {fj} fJ/bit/mm outside [{lo}, {hi}]")
            });
        }
    }

    fn traced(&self, l: &mut Layers) -> Ber {
        let mut ber = Vec::new();
        let mut certified_bits = 0;
        for link in &self.links {
            let start = std::time::Instant::now();
            let certified = l.time("link.certify_s", || link.robustly_clean());
            let tx = l.time("link.prbs_s", || {
                Prbs::prbs15_with_seed(self.prbs_seed()).take_bits(BITS)
            });
            let outcome = l.time("core.transmit_s", || link.transmit(&tx));
            let report = BerReport {
                bits: BITS,
                errors: tx
                    .iter()
                    .zip(&outcome.received)
                    .filter(|(a, b)| a != b)
                    .count(),
                energy: outcome.energy,
                data_rate: link.config().data_rate,
            };
            l.add("link.ber_run_s", start.elapsed().as_secs_f64());
            l.add("core.bits_simulated", BITS as f64);
            l.add("link.ber_bits", BITS as f64);
            l.add("link.ber_errors", report.errors as f64);
            if certified {
                l.add("link.cert_hits", 1.0);
                certified_bits += BITS;
            }
            ber.push((report.errors, report.energy.joules()));
        }
        let ber_bits = self.links.len() * BITS;
        l.set(
            "link.certified_bits_ratio",
            certified_bits as f64 / ber_bits as f64,
        );
        l.rate("core.bits_per_s", "core.bits_simulated", "core.transmit_s");
        let bathtub = l.time("link.bathtub_s", || self.bathtub());
        for &(bits, errors) in &bathtub {
            l.add("link.bathtub_bits", bits as f64);
            l.add("link.bathtub_errors", errors as f64);
        }
        Ber { ber, bathtub }
    }

    fn accuracy(&self, out: &Ber) -> Vec<(&'static str, f64, f64)> {
        match (self.links.first(), out.ber.first()) {
            (Some(link), Some(&(_, energy))) => vec![(
                "paper.link_energy_fj_per_bit_mm",
                fj_per_bit_mm(link, energy, BITS),
                PAPER_FJ_PER_BIT_MM,
            )],
            _ => Vec::new(),
        }
    }
}
