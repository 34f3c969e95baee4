//! Conservative clean-link certificate: a per-die static analysis that
//! proves (with margin) that a link transmits **every** bit pattern
//! cleanly, so the Monte Carlo trial and the shmoo cells can skip exact
//! simulation for the overwhelmingly common robust dice.
//!
//! # The two monotone bounds
//!
//! The pulse-domain stage map is monotone in the quantities that matter:
//!
//! * The peak seen by stage `i` is `b + d·(1 − b/V)` with `d ≤ V`, which
//!   is non-decreasing in both the ISI baseline `b` and the launcher's
//!   delivered swing `d`; M1's current grows with the peak, so the X
//!   discharge time shrinks and the output width grows. Hence the
//!   **zero-baseline chain is the exact worst case for `1`-bit
//!   propagation**: if a solitary `1` on fully drained segments makes it
//!   to the demodulator with margin, every `1` in every pattern does.
//! * Residues only threaten `0`-bits by firing a repeater spuriously.
//!   With every slot carrying the widest possible pulse, the per-segment
//!   residue recurrence `b' = (b + d_max)·decay` has the fixed point
//!   `b* = d_max·decay/(1 − decay)` (an upper bound of all reachable
//!   baselines when `decay < 1`). A few rounds of interval iteration
//!   tighten the width/peak bounds; if the final `b*` stays below every
//!   sense threshold, **no pattern can fire a stage spuriously**.
//!
//! Every comparison carries a relative guard band ([`REL`] = 1e-9, many
//! orders above f64 rounding) on the *conservative* side, so a certified
//! die is clean for the exact evaluator, not merely for real arithmetic.
//! Failing to certify proves nothing — callers fall back to exact
//! simulation ([`SrlrLink::transmits_cleanly`]). The certificate therefore
//! only decides *whether* the exact evaluator runs, never what a trial
//! reports: certified ⇒ the exact evaluator agrees, which the crate's
//! reference tests check by running the exact evaluator on every die.

use crate::link::SrlrLink;
use srlr_units::{TimeInterval, Voltage};

/// Relative guard band applied on the conservative side of every
/// certificate comparison. f64 evaluation of the stage map differs from
/// real arithmetic by ~1e-13 relative at worst; 1e-9 swamps that while
/// costing a negligible sliver of certifiable dice.
const REL: f64 = 1e-9;

/// Interval-iteration rounds tightening the (width, residue) bounds.
/// Round 1 starts from `peak ≤ V_drive` (always true); each round is a
/// sound refinement, and four are enough to certify essentially every
/// die that the exact evaluator passes at the paper's operating points.
const ROUNDS: usize = 4;

/// `true` when this die provably transmits every bit pattern cleanly at
/// the link's configured rate (see the module docs for the argument).
/// `false` means "unproven", not "failing".
pub(crate) fn robustly_clean(link: &SrlrLink) -> bool {
    let stages = link.chain().stages();
    let n = stages.len();
    let t_bit = link.config().data_rate.bit_period().seconds();
    let demod_min = link.config().demod_min_width.seconds();
    let launch_w = link.chain().launch_width().seconds();

    // ---- 1-bit propagation: the zero-baseline chain, with margin. ----
    let mut w = launch_w;
    let mut launcher = &stages[0];
    for stage in stages {
        if !stage.enabled || !stage.statically_sound {
            return false;
        }
        if w <= 0.0 {
            return false;
        }
        let peak = launcher
            .delivered_swing(TimeInterval::from_seconds(w))
            .volts();
        if peak <= 0.0 {
            return false;
        }
        let t_d = stage.x_discharge_time(Voltage::from_volts(peak)).seconds();
        if t_d * (1.0 + REL) > w {
            return false;
        }
        let w_out =
            stage.delay.seconds() - (stage.t_rise0.seconds() + t_d - stage.t_fall.seconds());
        if w_out < stage.min_output_width.seconds() * (1.0 + REL) + 1e-18 {
            return false;
        }
        w = w_out;
        launcher = stage;
    }
    if w * (1.0 - REL) < demod_min {
        return false;
    }

    // ---- 0-bit safety: bound every reachable ISI residue below the ----
    // ---- sense thresholds via interval iteration.                  ----
    //
    // Segment `i` is driven by stage `i − 1` (the PM mirrors stage 0 for
    // segment 0, and its pulses have exactly the launch width).
    let launcher_of = |i: usize| if i == 0 { &stages[0] } else { &stages[i - 1] };
    let mut peak_max: Vec<f64> = (0..n).map(|i| launcher_of(i).drive_level.volts()).collect();
    let mut w_max = vec![0.0; n];
    let mut b_star = vec![0.0; n];
    for _ in 0..ROUNDS {
        // Widest output pulse stage `i` can emit given the peak bound
        // (larger peak → faster X discharge → wider output).
        for i in 0..n {
            let t_d_min = stages[i]
                .x_discharge_time(Voltage::from_volts(peak_max[i]))
                .seconds()
                * (1.0 - REL);
            let widest = stages[i].delay.seconds() - stages[i].t_rise0.seconds()
                + stages[i].t_fall.seconds();
            w_max[i] = (widest - t_d_min).max(0.0);
        }
        // Residue fixed point and refined peak bound per segment.
        for i in 0..n {
            let l = launcher_of(i);
            let wl = if i == 0 { launch_w } else { w_max[i - 1] };
            let gap_min = t_bit - wl;
            if gap_min <= 0.0 {
                // Pulses can outlast the bit slot: no drain window, the
                // geometric-residue argument does not apply.
                return false;
            }
            let decay = (-gap_min / l.discharge_tau().seconds()).exp() * (1.0 + REL);
            if decay >= 1.0 - 1e-6 {
                return false;
            }
            let d_max = l.delivered_swing(TimeInterval::from_seconds(wl)).volts() * (1.0 + REL);
            b_star[i] = d_max * decay / (1.0 - decay);
            peak_max[i] = (b_star[i] + d_max).min(l.drive_level.volts());
        }
    }
    (0..n).all(|i| b_star[i] * (1.0 + REL) < stages[i].sense_threshold.volts() * (1.0 - 1e-6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::prbs::Prbs;
    use srlr_core::SrlrDesign;
    use srlr_tech::{GlobalVariation, MonteCarlo, Technology};
    use srlr_units::DataRate;

    /// Exhaustive-ish stress check mirroring the Monte Carlo trial.
    fn passes_stress(link: &SrlrLink, seed: u64, trial: u64) -> bool {
        let patterns: [&[bool]; 3] = [
            &[true, false, true, false, true, false, true, false],
            &[true, true, true, true, false, true, true, true, true, false],
            &[true; 16],
        ];
        patterns.iter().all(|p| link.transmits_cleanly(p))
            && link.transmits_cleanly(&Prbs::prbs15_for_stream(seed, trial).take_bits(256))
    }

    #[test]
    fn certificate_is_sound_across_dice_and_swings() {
        // The contract that matters: certified ⇒ the exact evaluator
        // agrees, across failing (300 mV), marginal (400 mV) and healthy
        // (500 mV) operating points.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let mc = MonteCarlo::new(&tech, 2013);
        let config = LinkConfig::paper_default();
        let mut certified_any = false;
        for mv in [300.0, 400.0, 500.0] {
            let d = design.with_nominal_swing(srlr_units::Voltage::from_millivolts(mv));
            for trial in 0..60 {
                let mut die = mc.die(trial);
                let var = die.global_variation();
                let link = SrlrLink::on_die_with_mismatch(&tech, &d, config, &var, &mut die);
                if link.robustly_clean() {
                    certified_any = true;
                    assert!(
                        passes_stress(&link, 2013, trial),
                        "unsound certificate at {mv} mV, trial {trial}"
                    );
                }
            }
        }
        assert!(certified_any, "healthy dice must be certifiable");
    }

    #[test]
    fn nominal_paper_link_is_certified() {
        let link = SrlrLink::paper_test_chip(&Technology::soi45());
        assert!(link.robustly_clean());
    }

    #[test]
    fn absurd_rate_is_not_certified() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config =
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(12.0));
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(!link.robustly_clean());
    }

    #[test]
    fn single_stage_link_certifies() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig {
            stages: 1,
            ..LinkConfig::paper_default()
        };
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(link.robustly_clean());
        assert!(link.transmits_cleanly(&[true, true, false, true]));
    }
}
