//! `mc_fig6`: the paper's Fig. 6 Monte Carlo, the headline experiment.
//!
//! One unit sweeps the proposed and the straightforward design over the
//! Fig. 6 swings 350–550 mV with 1000 dice per point, then takes the
//! immunity ratio at the fabrication swing. Per-die elaboration and the
//! clean-link certificate dominate; per-bit propagation is small.
//! Work unit: dice evaluated.

use crate::layers::Layers;
use crate::{Checks, Workload, DEFAULT_SEED};
use srlr_core::SrlrDesign;
use srlr_link::{robustness_ratio, LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{GlobalVariation, MonteCarlo, Technology};
use srlr_units::Voltage;

/// Dice per sweep point (the paper's 1000-run Monte Carlo).
const RUNS: usize = 1000;

/// The Sec. III-B stress patterns every Monte Carlo die transmits before
/// its PRBS stimulus, in the order `McExperiment` applies them.
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// The paper's immunity ratio between the two designs (Fig. 6).
const PAPER_IMMUNITY_RATIO: f64 = 3.7;

/// The band every seed's immunity ratio must fall in. With 1000 dice the
/// proposed design fails on only ~50 of them, so the ratio scatters from
/// seed to seed: 3.4–5.4 over seeds 0–39 (median 4.3, standard deviation
/// about 0.5). The band is about four standard deviations wide on each
/// side; a proposed design no better than the straightforward one reads
/// about 1.
const IMMUNITY_BAND: (f64, f64) = (2.5, 6.5);

/// Failures per swing point at [`DEFAULT_SEED`]: (proposed, straightforward).
const GOLDEN_SWEEP: [(usize, usize); 5] = [(1000, 1000), (967, 942), (150, 355), (0, 11), (0, 0)];

/// Fabrication-swing failures at [`DEFAULT_SEED`]: (proposed, straightforward).
const GOLDEN_IMMUNITY: (usize, usize) = (64, 213);

/// The simulated results of one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Failing dice per swing point, proposed design.
    proposed: Vec<usize>,
    /// Failing dice per swing point, straightforward design.
    straightforward: Vec<usize>,
    /// Failing dice at the fabrication swing: (proposed, straightforward).
    immunity: (usize, usize),
    /// `straightforward / proposed` robustness ratio.
    ratio: f64,
}

/// The workload's inputs.
pub struct McFig6 {
    tech: Technology,
    seed: u64,
    swings: Vec<Voltage>,
    /// The two base designs at their fabrication swing.
    designs: [SrlrDesign; 2],
    /// `designs × swings`, design-major: the sweep's design points.
    points: Vec<SrlrDesign>,
    /// Each design point's link on the nominal (variation-free) die.
    nominal: Vec<SrlrLink>,
}

impl McFig6 {
    fn experiment(&self) -> McExperiment<'_> {
        let mut exp = McExperiment::paper_default(&self.tech)
            .with_runs(RUNS)
            .with_threads(Some(1));
        exp.seed = self.seed;
        exp
    }

    /// Replays one die of `design` through the call sequence of the
    /// Monte Carlo trial, returning whether it passed.
    fn replay_die(
        &self,
        design: &SrlrDesign,
        mc: &MonteCarlo,
        trial: u64,
        prbs_bits: usize,
        l: &mut Layers,
    ) -> bool {
        let (mut die, var) = l.time("tech.sample_s", || {
            let mut die = mc.die(trial);
            let var = die.global_variation();
            (die, var)
        });
        l.add("tech.dice", 1.0);
        let link = l.time("link.elaborate_s", || {
            SrlrLink::on_die_with_mismatch(
                &self.tech,
                design,
                LinkConfig::paper_default(),
                &var,
                &mut die,
            )
        });
        l.add("link.elaborations", 1.0);
        if l.time("link.certify_s", || link.robustly_clean()) {
            l.add("link.cert_hits", 1.0);
            return true;
        }
        for pattern in WORST_PATTERNS {
            l.add("core.bits_simulated", pattern.len() as f64);
            if !l.time("core.transmit_s", || link.transmits_cleanly(pattern)) {
                return false;
            }
        }
        let bits = l.time("link.prbs_s", || {
            Prbs::prbs15_for_stream(self.seed, trial).take_bits(prbs_bits)
        });
        l.add("core.bits_simulated", bits.len() as f64);
        l.time("core.transmit_s", || link.transmits_cleanly(&bits))
    }

    /// Failing dice of `design` over one experiment's worth of trials.
    fn replay_point(&self, design: &SrlrDesign, l: &mut Layers) -> usize {
        let mc = MonteCarlo::new(&self.tech, self.seed);
        let prbs_bits = self.experiment().prbs_bits;
        (0..RUNS as u64)
            .filter(|&trial| !self.replay_die(design, &mc, trial, prbs_bits, l))
            .count()
    }
}

impl Workload for McFig6 {
    type Outcome = Fig6;

    fn setup(seed: u64) -> Self {
        let tech = Technology::soi45();
        let swings: Vec<Voltage> = (7..=11)
            .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
            .collect();
        let designs = [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ];
        let points: Vec<SrlrDesign> = designs
            .iter()
            .flat_map(|d| swings.iter().map(|&s| d.with_nominal_swing(s)))
            .collect();
        let nominal = points
            .iter()
            .map(|d| {
                SrlrLink::on_die(
                    &tech,
                    d,
                    LinkConfig::paper_default(),
                    &GlobalVariation::nominal(),
                )
            })
            .collect();
        Self {
            tech,
            seed,
            swings,
            designs,
            points,
            nominal,
        }
    }

    fn run(&self) -> Fig6 {
        let exp = self.experiment();
        let failures = |sweep: Vec<(Voltage, ErrorProbability)>| -> Vec<usize> {
            sweep.iter().map(|(_, p)| p.failures).collect()
        };
        let proposed = failures(exp.swing_sweep(&self.designs[0], &self.swings));
        let straightforward = failures(exp.swing_sweep(&self.designs[1], &self.swings));
        let (p, s, ratio) = exp.immunity_ratio();
        Fig6 {
            proposed,
            straightforward,
            immunity: (p.failures, s.failures),
            ratio,
        }
    }

    fn work(&self) -> f64 {
        (RUNS * (self.points.len() + self.designs.len())) as f64
    }

    fn check(&self, out: &Fig6, checks: &mut Checks) {
        if self.seed == DEFAULT_SEED {
            for (i, &(p, s)) in GOLDEN_SWEEP.iter().enumerate() {
                checks.equal("proposed sweep failures", &out.proposed.get(i), &Some(&p));
                checks.equal(
                    "straightforward sweep failures",
                    &out.straightforward.get(i),
                    &Some(&s),
                );
            }
            checks.equal("immunity failures", &out.immunity, &GOLDEN_IMMUNITY);
        }
        let (lo, hi) = IMMUNITY_BAND;
        checks.expect((lo..=hi).contains(&out.ratio), || {
            format!("immunity ratio {} outside [{lo}, {hi}]", out.ratio)
        });
        // The proposed design on the nominal die is clean at every swing
        // from the paper's 450 mV operating point up.
        for (swing, link) in self.swings.iter().zip(&self.nominal) {
            if swing.millivolts() >= 450.0 {
                checks.expect(link.robustly_clean(), || {
                    format!("nominal proposed die not certified at {swing}")
                });
            }
        }
    }

    fn traced(&self, l: &mut Layers) -> Fig6 {
        let start = std::time::Instant::now();
        let (proposed_points, straightforward_points) = self.points.split_at(self.swings.len());
        let proposed = proposed_points
            .iter()
            .map(|d| self.replay_point(d, l))
            .collect();
        let straightforward = straightforward_points
            .iter()
            .map(|d| self.replay_point(d, l))
            .collect();
        l.add("link.sweep_s", start.elapsed().as_secs_f64());
        let immunity = (
            self.replay_point(&self.designs[0], l),
            self.replay_point(&self.designs[1], l),
        );
        let probability = |failures| ErrorProbability {
            failures,
            trials: RUNS,
        };
        let ratio = robustness_ratio(&probability(immunity.1), &probability(immunity.0));
        l.set(
            "link.cert_hit_ratio",
            l.get("link.cert_hits") / l.get("link.elaborations"),
        );
        l.rate("core.bits_per_s", "core.bits_simulated", "core.transmit_s");
        Fig6 {
            proposed,
            straightforward,
            immunity,
            ratio,
        }
    }

    fn accuracy(&self, out: &Fig6) -> Vec<(&'static str, f64, f64)> {
        vec![("paper.immunity_ratio", out.ratio, PAPER_IMMUNITY_RATIO)]
    }
}
