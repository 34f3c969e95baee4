//! The Monte Carlo trial against the exact evaluator, probed at awkward
//! sizes: [`McExperiment`] consults the clean-link certificate before it
//! simulates, and the certificate must never change an answer. Every
//! sweep and error probability here is compared with a test-side loop
//! that builds each die the same way and runs
//! [`SrlrLink::transmits_cleanly`] on the Sec. III-B patterns plus the
//! die's PRBS stimulus — without ever consulting the certificate.

use srlr_core::SrlrDesign;
use srlr_link::{LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::Voltage;

/// The Sec. III-B deterministic worst-case stress patterns.
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// Swings that land in the failing, marginal and healthy regions, so
/// both certified and simulated dice occur.
fn sweep_swings() -> Vec<Voltage> {
    [300.0, 400.0, 500.0]
        .iter()
        .map(|&mv| Voltage::from_millivolts(mv))
        .collect()
}

/// What the exact evaluator says about one design point, plus how many
/// of its dice the certificate would have proven clean.
struct Exact {
    probability: ErrorProbability,
    certified: usize,
}

/// Runs every die of `exp` built for `design` (on links of `config`)
/// through the exact evaluator. A certified die that the evaluator
/// fails is reported with its replayable `(seed, trial)` pair.
fn exact(
    tech: &Technology,
    exp: &McExperiment<'_>,
    config: LinkConfig,
    design: &SrlrDesign,
) -> Exact {
    let mc = MonteCarlo::new(tech, exp.seed);
    let (mut failures, mut certified) = (0, 0);
    for trial in 0..exp.runs as u64 {
        let mut die = mc.die(trial);
        let var = die.global_variation();
        let link = SrlrLink::on_die_with_mismatch(tech, design, config, &var, &mut die);
        let bits = Prbs::prbs15_for_stream(exp.seed, trial).take_bits(exp.prbs_bits);
        let pass = WORST_PATTERNS.iter().all(|p| link.transmits_cleanly(p))
            && link.transmits_cleanly(&bits);
        if link.robustly_clean() {
            certified += 1;
            assert!(
                pass,
                "certified die fails the exact evaluator: seed {}, trial {trial}",
                exp.seed
            );
        }
        if !pass {
            failures += 1;
        }
    }
    Exact {
        probability: ErrorProbability {
            failures,
            trials: exp.runs,
        },
        certified,
    }
}

/// The exact sweep over [`sweep_swings`], asserting that the sweep
/// exercised both the certificate and the simulation path.
fn exact_sweep(
    tech: &Technology,
    exp: &McExperiment<'_>,
    config: LinkConfig,
    design: &SrlrDesign,
) -> Vec<(Voltage, ErrorProbability)> {
    let points: Vec<(Voltage, Exact)> = sweep_swings()
        .into_iter()
        .map(|s| (s, exact(tech, exp, config, &design.with_nominal_swing(s))))
        .collect();
    let dice = points.len() * exp.runs;
    let certified: usize = points.iter().map(|(_, e)| e.certified).sum();
    assert!(
        certified > 0 && certified < dice,
        "the sweep must hit both paths: {certified} of {dice} dice certified"
    );
    points
        .into_iter()
        .map(|(s, e)| (s, e.probability))
        .collect()
}

#[test]
fn sweep_matches_the_exact_evaluator_at_awkward_sizes_and_thread_counts() {
    // 37 runs divides evenly into no thread count in the set, so every
    // parallel run schedules a ragged tail.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let base = McExperiment::paper_default(&tech).with_runs(37);
    let reference = exact_sweep(&tech, &base, LinkConfig::paper_default(), &design);
    for threads in [1usize, 2, 8] {
        let sweep = base
            .clone()
            .with_threads(Some(threads))
            .swing_sweep(&design, &sweep_swings());
        assert_eq!(
            reference, sweep,
            "threads {threads} diverged from the exact evaluator"
        );
    }
}

#[test]
fn sweep_matches_the_exact_evaluator_with_no_prbs_stimulus() {
    // prbs_bits = 0: only the deterministic worst-case patterns run.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut exp = McExperiment::paper_default(&tech).with_runs(30);
    exp.prbs_bits = 0;
    let reference = exact_sweep(&tech, &exp, LinkConfig::paper_default(), &design);
    assert_eq!(reference, exp.swing_sweep(&design, &sweep_swings()));
}

#[test]
fn sweep_matches_the_exact_evaluator_on_a_single_stage_link() {
    // One stage: the launcher bookkeeping degenerates (the PM mirrors
    // the only stage, which also drives the demodulator directly).
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let config = LinkConfig {
        stages: 1,
        ..LinkConfig::paper_default()
    };
    let exp = McExperiment::paper_default(&tech)
        .with_config(config)
        .with_runs(25);
    let reference = exact_sweep(&tech, &exp, config, &design);
    assert_eq!(reference, exp.swing_sweep(&design, &sweep_swings()));
}

#[test]
fn error_probability_matches_the_exact_evaluator_at_every_thread_count() {
    let tech = Technology::soi45();
    let design =
        SrlrDesign::paper_proposed(&tech).with_nominal_swing(Voltage::from_millivolts(400.0));
    let base = McExperiment::paper_default(&tech).with_runs(37);
    let reference = exact(&tech, &base, LinkConfig::paper_default(), &design).probability;
    for threads in [1usize, 2, 8] {
        let p = base
            .clone()
            .with_threads(Some(threads))
            .error_probability(&design);
        assert_eq!(reference, p, "threads {threads} diverged at 400 mV");
    }
}
