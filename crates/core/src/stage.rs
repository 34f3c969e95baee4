//! One SRLR stage: detection at M1, the node-X discharge/reset cycle, the
//! output driver, and the 1 mm wire segment to the next stage — as a
//! calibrated pulse-domain map.
//!
//! The map implements the paper's Sec. III-A recurrence
//!
//! ```text
//! W_out,n = W_x,n − (t_rising,n − t_falling,n)
//! ```
//!
//! closed through the wire: the next stage's input swing is the RC step
//! response of the segment evaluated at the output pulse width
//! (`V = V_drive · (1 − e^(−W/τ))`), and the rising time grows as the
//! input swing (M1's overdrive) shrinks. Those two couplings create the
//! monotone pulse-width drift at global corners that the alternating delay
//! cell, NMOS driver and adaptive swing scheme are designed to contain.

use crate::pulse::{PulseState, StageOutcome};
use srlr_units::{Capacitance, Energy, Resistance, TimeInterval, Voltage};

/// Everything one stage needs, with die-level variation already folded in.
///
/// Stages are produced by [`SrlrDesign::instantiate`]; the fields here are
/// *resolved* quantities (per-die resistances, thresholds, delays), not
/// design intent.
///
/// [`SrlrDesign::instantiate`]: crate::design::SrlrDesign::instantiate
#[derive(Debug, Clone, PartialEq)]
pub struct SrlrStage {
    /// Stage position in the chain (0-based), which selects the delay-cell
    /// parity in the alternating design.
    pub index: usize,
    /// Whether the EN port is asserted; a disabled stage (unselected
    /// crossbar crosspoint) passes nothing.
    pub enabled: bool,
    /// Supply voltage.
    pub vdd: Voltage,
    /// M1's effective threshold on this die (global + local variation).
    pub m1_vth: Voltage,
    /// M1's saturation current at 1 V of effective overdrive — the
    /// pre-resolved drive scale used for the discharge-time model.
    // srlr-lint: allow(raw-f64-api, reason = "drive multiplier is dimensionless")
    pub m1_drive_scale: f64,
    /// Alpha of M1's current law.
    // srlr-lint: allow(raw-f64-api, reason = "alpha-power exponent is dimensionless")
    pub m1_alpha: f64,
    /// Smoothing width of the subthreshold blend (volts).
    // srlr-lint: allow(raw-f64-api, reason = "smoothing parameter is dimensionless")
    pub m1_smooth: f64,
    /// Approximate minimum input swing that trips the stage (M1's
    /// threshold plus the keeper-ratio margin). Used for spurious-firing
    /// checks and margin reporting; actual detection emerges from the
    /// M1-versus-keeper current race below.
    pub sense_threshold: Voltage,
    /// Opposing current of the keeper M2 during an X discharge (evaluated
    /// at half the discharge depth). M1 must out-pull this for the stage
    /// to fire — the paper's M1/M2 sizing-ratio sensitivity rule.
    pub keeper_current: srlr_units::Current,
    /// Node X capacitance.
    pub c_x: Capacitance,
    /// Voltage X must lose before the amplifier flips
    /// (standby level minus amplifier threshold).
    pub x_discharge_depth: Voltage,
    /// Intrinsic amplifier rise time (excludes the X discharge time).
    pub t_rise0: TimeInterval,
    /// Amplifier fall time (approximately swing-independent).
    pub t_fall: TimeInterval,
    /// This stage's delay-cell contribution (`W_x`).
    pub delay: TimeInterval,
    /// Narrowest output pulse the following logic can still use.
    pub min_output_width: TimeInterval,
    /// Drive level launched onto the wire.
    pub drive_level: Voltage,
    /// Charging source resistance (driver pull-up).
    pub charge_resistance: Resistance,
    /// Discharging resistance (driver pull-down).
    pub discharge_resistance: Resistance,
    /// Outgoing wire segment resistance.
    pub wire_resistance: Resistance,
    /// Outgoing wire segment capacitance.
    pub wire_capacitance: Capacitance,
    /// Fixed per-pulse internal energy (node X, amplifier, delay cell,
    /// driver input), excluding the wire.
    pub internal_energy_per_pulse: Energy,
    /// Static leakage of the stage's devices (input pair, amplifier,
    /// delay cell, output driver) at the standby state.
    pub leakage: srlr_units::Power,
    /// `true` when the X standby level clears the amplifier threshold on
    /// this die (the static-soundness condition of Sec. II).
    pub statically_sound: bool,
}

impl SrlrStage {
    /// Charging time constant of the outgoing segment as seen from the
    /// far end (driver resistance plus half the distributed wire).
    #[inline]
    pub fn charge_tau(&self) -> TimeInterval {
        (self.charge_resistance + self.wire_resistance * 0.5) * self.wire_capacitance
    }

    /// Discharging time constant of the outgoing segment (pull-down plus
    /// half the wire) — governs inter-symbol interference.
    #[inline]
    pub fn discharge_tau(&self) -> TimeInterval {
        (self.discharge_resistance + self.wire_resistance * 0.5) * self.wire_capacitance
    }

    /// M1's discharge current (amperes) at the given gate (input swing)
    /// voltage: the smoothed alpha-power law — `softplus`-blended
    /// overdrive raised to `alpha`, with a subthreshold attenuation below
    /// the threshold.
    #[inline]
    fn m1_current_amperes(&self, vgs: Voltage) -> f64 {
        let overdrive = vgs.volts() - self.m1_vth.volts();
        let x = overdrive / self.m1_smooth;
        let eff = if x > 30.0 {
            overdrive
        } else {
            self.m1_smooth * x.exp().ln_1p()
        };
        let mut i = self.m1_drive_scale * eff.powf(self.m1_alpha);
        if x < 0.0 {
            i *= (x / 1.4).exp();
        }
        i
    }

    /// Time for M1 to pull node X down through the amplifier threshold at
    /// the given input swing, fighting the keeper M2. Weak inputs give a
    /// net current near zero and an effectively unbounded discharge time —
    /// detection fails gracefully rather than at a hard threshold.
    #[inline]
    pub fn x_discharge_time(&self, input_swing: Voltage) -> TimeInterval {
        // Net pull-down current, floored at 1 pA so a keeper-dominated
        // race gives a huge but finite time.
        let i = (self.m1_current_amperes(input_swing) - self.keeper_current.amperes()).max(1e-12);
        TimeInterval::from_seconds(self.c_x.farads() * self.x_discharge_depth.volts() / i)
    }

    /// The amplifier rising time for a given input swing: intrinsic rise
    /// plus the swing-dependent X discharge (small swing → slow discharge
    /// → long rise; this is the feedback term of Sec. III-A).
    pub fn rise_time(&self, input_swing: Voltage) -> TimeInterval {
        self.t_rise0 + self.x_discharge_time(input_swing)
    }

    /// Far-end swing the outgoing segment delivers for an output pulse of
    /// width `w`: the RC step response `V_drive · (1 − e^(−w/τ))`, zero
    /// for non-positive widths.
    #[inline]
    pub fn delivered_swing(&self, w: TimeInterval) -> Voltage {
        let w_s = w.seconds();
        if w_s <= 0.0 {
            return Voltage::zero();
        }
        let tau_s = self.charge_tau().seconds().max(1e-15);
        Voltage::from_volts(self.drive_level.volts() * (1.0 - (-w_s / tau_s).exp()))
    }

    /// Energy of transmitting one pulse: wire charge drawn from the rail
    /// plus the fixed internal switching energy.
    #[inline]
    pub fn pulse_energy(&self, w: TimeInterval) -> Energy {
        // Near-end charge: the wire charges toward the drive level with
        // the driver-dominated time constant.
        let tau_near =
            (self.charge_resistance + self.wire_resistance * 0.15) * self.wire_capacitance;
        let w_s = w.seconds();
        let v_near = if w_s <= 0.0 {
            0.0
        } else {
            self.drive_level.volts() * (1.0 - (-w_s / tau_near.seconds().max(1e-15)).exp())
        };
        let wire = Energy::from_joules(self.wire_capacitance.farads() * v_near * self.vdd.volts());
        wire + self.internal_energy_per_pulse
    }

    /// Processes one incoming pulse into the outgoing pulse.
    ///
    /// Failure paths (all produce a dead output):
    ///
    /// * the stage is disabled or statically unsound,
    /// * the input swing is below the sense threshold (bit-1 loss),
    /// * X cannot discharge within the input pulse width,
    /// * the self-reset arithmetic leaves no usable output width.
    pub fn process(&self, input: PulseState) -> StageOutcome {
        let dead = StageOutcome {
            output: PulseState::dead(),
            launched_drive: Voltage::zero(),
            energy: Energy::zero(),
        };
        if !self.enabled || !self.statically_sound || !input.is_valid() {
            return dead;
        }
        // Detection is a current race: M1 (driven by the input swing) must
        // pull X through the amplifier threshold against the keeper before
        // the pulse ends. There is no separate hard swing threshold — a
        // weak input simply discharges too slowly.
        let t_discharge = self.x_discharge_time(input.swing);
        if t_discharge > input.width {
            return dead;
        }
        let t_rise = self.t_rise0 + t_discharge;
        let w_out = self.delay - (t_rise - self.t_fall);
        if w_out < self.min_output_width {
            return dead;
        }
        let swing_next = self.delivered_swing(w_out);
        let wire_delay = TimeInterval::from_seconds(
            0.38 * self.wire_resistance.ohms() * self.wire_capacitance.farads(),
        );
        let latency = t_rise + wire_delay;
        StageOutcome {
            output: PulseState {
                width: w_out,
                swing: swing_next,
                arrival: input.arrival + latency,
            },
            launched_drive: self.drive_level,
            energy: self.pulse_energy(w_out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SrlrDesign;
    use srlr_tech::{GlobalVariation, Technology};

    fn nominal_stage() -> SrlrStage {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 1);
        chain.stages()[0].clone()
    }

    fn healthy_pulse() -> PulseState {
        PulseState::new(
            TimeInterval::from_picoseconds(110.0),
            Voltage::from_millivolts(300.0),
        )
    }

    #[test]
    fn nominal_pulse_is_repeated() {
        let stage = nominal_stage();
        let out = stage.process(healthy_pulse());
        assert!(out.output.is_valid(), "output: {}", out.output);
        assert!(out.energy.femtojoules() > 0.0);
        assert!(out.output.arrival.picoseconds() > 0.0);
    }

    #[test]
    fn subthreshold_swing_is_rejected() {
        // Well below M1's threshold the keeper wins the current race and
        // X never discharges within the pulse.
        let stage = nominal_stage();
        let weak = PulseState::new(
            TimeInterval::from_picoseconds(110.0),
            stage.m1_vth - Voltage::from_millivolts(20.0),
        );
        let out = stage.process(weak);
        assert!(!out.output.is_valid());
        assert_eq!(out.energy, Energy::zero());
    }

    #[test]
    fn detection_degrades_gradually_near_threshold() {
        // The sensing boundary is a race, not a cliff: discharge time must
        // grow monotonically as the swing falls toward the threshold.
        let stage = nominal_stage();
        let mut last = TimeInterval::zero();
        for mv in [350.0, 320.0, 300.0, 290.0, 285.0] {
            let t = stage.x_discharge_time(Voltage::from_millivolts(mv));
            assert!(t > last, "discharge time must grow as swing falls");
            last = t;
        }
    }

    #[test]
    fn very_narrow_pulse_dies() {
        let stage = nominal_stage();
        let narrow = PulseState::new(
            TimeInterval::from_femtoseconds(200.0),
            Voltage::from_millivolts(300.0),
        );
        assert!(!stage.process(narrow).output.is_valid());
    }

    #[test]
    fn disabled_stage_blocks() {
        let mut stage = nominal_stage();
        stage.enabled = false;
        assert!(!stage.process(healthy_pulse()).output.is_valid());
    }

    #[test]
    fn statically_unsound_stage_blocks() {
        let mut stage = nominal_stage();
        stage.statically_sound = false;
        assert!(!stage.process(healthy_pulse()).output.is_valid());
    }

    #[test]
    fn dead_input_stays_dead() {
        let stage = nominal_stage();
        assert!(!stage.process(PulseState::dead()).output.is_valid());
    }

    #[test]
    fn rise_time_grows_as_swing_shrinks() {
        let stage = nominal_stage();
        let fast = stage.rise_time(Voltage::from_millivolts(400.0));
        let slow = stage.rise_time(Voltage::from_millivolts(280.0));
        assert!(slow > fast, "rise time must grow at lower swing");
    }

    #[test]
    fn delivered_swing_saturates_with_width() {
        let stage = nominal_stage();
        let narrow = stage.delivered_swing(TimeInterval::from_picoseconds(30.0));
        let wide = stage.delivered_swing(TimeInterval::from_picoseconds(300.0));
        assert!(narrow < wide);
        assert!(wide <= stage.drive_level);
        assert_eq!(stage.delivered_swing(TimeInterval::zero()), Voltage::zero());
    }

    #[test]
    fn wider_pulse_costs_more_energy() {
        let stage = nominal_stage();
        let narrow = stage.pulse_energy(TimeInterval::from_picoseconds(40.0));
        let wide = stage.pulse_energy(TimeInterval::from_picoseconds(150.0));
        assert!(wide > narrow);
    }

    #[test]
    fn per_stage_energy_is_in_the_paper_ballpark() {
        // One repeated '1' through one 1 mm stage: the paper's 40.4
        // fJ/bit/mm with half-ones PRBS implies ~81 fJ per pulse per mm.
        let stage = nominal_stage();
        let out = stage.process(healthy_pulse());
        let e = out.energy.femtojoules();
        assert!(e > 30.0 && e < 200.0, "per-pulse energy {e} fJ");
    }

    #[test]
    fn m1_current_is_monotone_in_vgs() {
        let stage = nominal_stage();
        let mut last = 0.0;
        for mv in [100.0, 200.0, 280.0, 300.0, 350.0, 500.0, 2000.0] {
            let i = stage.m1_current_amperes(Voltage::from_millivolts(mv));
            assert!(i > last, "current must grow with vgs");
            last = i;
        }
    }

    #[test]
    fn deep_saturation_uses_the_linear_overdrive() {
        // x > 30 switches to the raw overdrive; the blend must be
        // continuous enough that the two branches agree closely there.
        let stage = nominal_stage();
        let vgs = stage.m1_vth.volts() + 30.0 * stage.m1_smooth * 1.001;
        let above = stage.m1_current_amperes(Voltage::from_volts(vgs));
        let just_below = stage.m1_current_amperes(Voltage::from_volts(vgs * 0.9999));
        assert!((above / just_below - 1.0).abs() < 1e-2);
    }

    #[test]
    fn discharge_time_floors_the_net_current() {
        // Keeper stronger than M1: the 1 pA floor keeps the time finite.
        let mut stage = nominal_stage();
        stage.keeper_current = srlr_units::Current::from_amperes(1.0);
        let t = stage.x_discharge_time(Voltage::from_millivolts(300.0));
        assert!(t.seconds().is_finite() && t.seconds() > 0.0);
    }

    #[test]
    fn delivered_swing_is_zero_at_nonpositive_width() {
        let stage = nominal_stage();
        assert_eq!(stage.delivered_swing(TimeInterval::zero()), Voltage::zero());
        assert_eq!(
            stage.delivered_swing(TimeInterval::from_picoseconds(-1.0)),
            Voltage::zero()
        );
    }

    #[test]
    fn dead_pulse_costs_only_internal_energy() {
        let stage = nominal_stage();
        assert_eq!(
            stage.pulse_energy(TimeInterval::zero()),
            stage.internal_energy_per_pulse
        );
    }

    #[test]
    fn charge_and_discharge_taus_are_plausible() {
        let stage = nominal_stage();
        let tc = stage.charge_tau().picoseconds();
        let td = stage.discharge_tau().picoseconds();
        assert!(tc > 20.0 && tc < 300.0, "charge tau {tc} ps");
        assert!(td > 20.0 && td < 300.0, "discharge tau {td} ps");
    }
}
