//! The Fig. 6 experiment: Monte Carlo error probability of a 10 mm link
//! versus the design's swing voltage.
//!
//! Each trial samples one die (global variation) plus per-stage local
//! mismatch, builds the link, and transmits the stress patterns (worst
//! cases for drift and ISI, plus PRBS). A die that corrupts any bit
//! counts as a failure; the error probability is the failing fraction of
//! dice, exactly as the paper's 1000-run Monte Carlo reports it.
//!
//! Trials are evaluated by the deterministic parallel engine
//! ([`crate::engine`]): die `i` draws its mismatch from the counter-based
//! stream [`MonteCarlo::die`]`(i)` and its PRBS stimulus from
//! [`Prbs::prbs15_for_stream`]`(seed, i)`, so every trial is a pure
//! function of `(seed, i)` and the result is bit-identical at any thread
//! count.
//!
//! # The certified trial
//!
//! Each trial first elaborates its die and asks the conservative
//! clean-link certificate ([`SrlrLink::robustly_clean`]) for a proof
//! that the die transmits every bit pattern cleanly. A certified die
//! passes without simulation; every other die runs the exact evaluator
//! ([`SrlrLink::transmits_cleanly`]) on the stress patterns and its PRBS
//! stimulus. The certificate is sound, so it only decides whether the
//! exact evaluator runs, never what a trial reports — the crate's
//! reference tests re-run the exact evaluator on every die to check it.

use crate::engine;
use crate::link::{LinkConfig, SrlrLink};
use crate::prbs::Prbs;
use srlr_core::SrlrDesign;
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};
use srlr_telemetry::{Collector, Obs, Profiler, Value};
use srlr_units::Voltage;

/// The Sec. III-B deterministic worst-case stress patterns, shared by
/// every trial (hoisted out of the per-die hot loop).
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    // The Sec. III-B worst case.
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// How a trial's telemetry span is shaped (single-design runs put every
/// die on track 0; sweeps put each die on its sweep point's track).
#[derive(Debug, Clone, Copy)]
enum TrialSpanShape {
    Single,
    Sweep,
}

/// The Monte Carlo link-failure experiment.
#[derive(Debug, Clone)]
pub struct McExperiment<'a> {
    tech: &'a Technology,
    config: LinkConfig,
    /// Number of dice per evaluation (the paper uses 1000).
    pub runs: usize,
    /// RNG seed (same seed = same dice across designs, a paired
    /// comparison).
    pub seed: u64,
    /// PRBS bits per die in addition to the deterministic worst cases.
    pub prbs_bits: usize,
    /// Worker threads: `Some(n)` forces `n`, `None` defers to the
    /// `SRLR_THREADS` environment variable (and ultimately the machine).
    pub threads: Option<usize>,
}

impl<'a> McExperiment<'a> {
    /// A paper-sized experiment: 1000 dice.
    pub fn paper_default(tech: &'a Technology) -> Self {
        Self {
            tech,
            config: LinkConfig::paper_default(),
            runs: 1000,
            seed: 2013,
            prbs_bits: 256,
            threads: None,
        }
    }

    /// Overrides the number of dice (smaller for quick tests).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Overrides the link configuration (data rate, stage count,
    /// thresholds) the dice are built with.
    #[must_use]
    pub fn with_config(mut self, config: LinkConfig) -> Self {
        self.config = config;
        self
    }

    /// Forces the worker-thread count (`1` = serial). `None` (the
    /// default) defers to `SRLR_THREADS` / the machine; results are
    /// identical either way.
    #[must_use]
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Whether die `trial` of this experiment, built for `design`,
    /// transmits all stress patterns without error.
    ///
    /// This is the per-trial unit of work: a pure function of
    /// `(self.seed, trial)`, independent of every other trial. The die is
    /// elaborated and certified first; only a certificate miss runs the
    /// exact evaluator, stopping at the first corrupted pattern.
    ///
    /// Profiling lands in `prof` (free when disabled): `elaborate` and
    /// `certify` frames with a `cert_hit`/`cert_miss` tally, plus a
    /// `simulate` frame on every miss.
    fn trial_passes(
        &self,
        design: &SrlrDesign,
        mc: &MonteCarlo,
        trial: u64,
        prof: &mut Profiler,
    ) -> bool {
        prof.enter("elaborate");
        let mut die = mc.die(trial);
        let var = die.global_variation();
        let link = SrlrLink::on_die_with_mismatch(self.tech, design, self.config, &var, &mut die);
        prof.exit();
        prof.enter("certify");
        let certified = link.robustly_clean();
        prof.exit();
        if certified {
            prof.count("cert_hit");
            return true;
        }
        prof.count("cert_miss");
        prof.enter("simulate");
        let pass = WORST_PATTERNS.iter().all(|p| link.transmits_cleanly(p)) && {
            let bits = Prbs::prbs15_for_stream(self.seed, trial).take_bits(self.prbs_bits);
            link.transmits_cleanly(&bits)
        };
        prof.exit();
        pass
    }

    /// Records one die's telemetry span.
    fn emit_trial_span(&self, child: &mut Collector, shape: TrialSpanShape, i: usize, pass: bool) {
        match shape {
            TrialSpanShape::Single => child.span(
                "trial",
                "mc",
                i as f64,
                1.0,
                0,
                &[("trial", Value::U64(i as u64)), ("pass", Value::Bool(pass))],
            ),
            TrialSpanShape::Sweep => {
                let (point, trial) = (i / self.runs, i % self.runs);
                child.span(
                    "trial",
                    "mc.sweep",
                    i as f64,
                    1.0,
                    point as u64,
                    &[
                        ("point", Value::U64(point as u64)),
                        ("trial", Value::U64(trial as u64)),
                        ("pass", Value::Bool(pass)),
                    ],
                );
            }
        }
    }

    /// Pass/fail of every die in the flattened `designs × runs` workload,
    /// one die per work item. Each worker records into a child collector
    /// and profiler that merge back in item order, so the telemetry bytes
    /// are identical at any thread count; disabled children are free.
    fn flat_passes(
        &self,
        designs: &[SrlrDesign],
        shape: TrialSpanShape,
        obs: &mut Obs,
    ) -> Vec<bool> {
        let mc = MonteCarlo::new(self.tech, self.seed);
        let threads = engine::resolve_threads(self.threads);
        let total = designs.len() * self.runs;
        let (collector, progress, profiler) = (&obs.collector, &obs.progress, &obs.profiler);
        let outcomes = engine::par_map_indexed(total, threads, |i| {
            let mut prof = profiler.child();
            prof.enter("mc.trial");
            let design = &designs[i / self.runs];
            let pass = self.trial_passes(design, &mc, (i % self.runs) as u64, &mut prof);
            prof.exit();
            progress.tick();
            let mut child = collector.child();
            self.emit_trial_span(&mut child, shape, i, pass);
            (pass, child, prof)
        });
        outcomes
            .into_iter()
            .map(|(pass, child, prof)| {
                obs.collector.merge(child);
                obs.profiler.merge(prof);
                pass
            })
            .collect()
    }

    /// Runs the experiment for one design, returning the error
    /// probability over the sampled dice.
    pub fn error_probability(&self, design: &SrlrDesign) -> ErrorProbability {
        self.error_probability_observed(design, &mut Obs::none())
    }

    /// [`McExperiment::error_probability`] with observability: each die
    /// becomes a `trial` span (timestamped by its trial index, the
    /// experiment's logical clock), per-run totals land as `mc.*`
    /// metrics, and `obs.progress` ticks once per die.
    ///
    /// When `obs` is inactive this *is* the untraced path — same code,
    /// no telemetry allocation, bit-identical result. When active,
    /// workers record into per-item child collectors that are merged
    /// back in item order, so the telemetry bytes are identical at any
    /// thread count.
    pub fn error_probability_observed(
        &self,
        design: &SrlrDesign,
        obs: &mut Obs,
    ) -> ErrorProbability {
        obs.profiler.enter("mc.run");
        let passes = self.flat_passes(std::slice::from_ref(design), TrialSpanShape::Single, obs);
        obs.profiler.exit();
        let failures = passes.iter().filter(|&&ok| !ok).count();
        obs.collector.add("mc.trials", self.runs as u64);
        obs.collector.add("mc.failures", failures as u64);
        obs.collector.set_metric(
            "mc.error_probability",
            Value::F64(failures as f64 / self.runs as f64),
        );
        ErrorProbability {
            failures,
            trials: self.runs,
        }
    }

    /// The Fig. 6 sweep: error probability of a design across swing
    /// voltages.
    ///
    /// All `swings.len() * runs` dice are flattened into one parallel
    /// workload so small sweeps still saturate the worker pool.
    pub fn swing_sweep(
        &self,
        design: &SrlrDesign,
        swings: &[Voltage],
    ) -> Vec<(Voltage, ErrorProbability)> {
        self.swing_sweep_observed(design, swings, &mut Obs::none())
    }

    /// [`McExperiment::swing_sweep`] with observability (see
    /// [`McExperiment::error_probability_observed`]): each die becomes a
    /// `trial` span on the track of its sweep point, per-point tallies
    /// land as `mc.point.NNN.*` metrics (the prefix widens past 1000
    /// points so lexicographic order always matches numeric order), and
    /// `obs.progress` ticks once per die across the whole flattened
    /// workload.
    pub fn swing_sweep_observed(
        &self,
        design: &SrlrDesign,
        swings: &[Voltage],
        obs: &mut Obs,
    ) -> Vec<(Voltage, ErrorProbability)> {
        let designs: Vec<SrlrDesign> = swings
            .iter()
            .map(|&s| design.with_nominal_swing(s))
            .collect();
        obs.profiler.enter("mc.sweep");
        let passes = self.flat_passes(&designs, TrialSpanShape::Sweep, obs);
        obs.profiler.exit();
        let sweep: Vec<(Voltage, ErrorProbability)> = swings
            .iter()
            .zip(passes.chunks(self.runs))
            .map(|(&s, chunk)| {
                (
                    s,
                    ErrorProbability {
                        failures: chunk.iter().filter(|&&ok| !ok).count(),
                        trials: self.runs,
                    },
                )
            })
            .collect();
        if obs.collector.is_enabled() {
            obs.collector
                .add("mc.trials", (swings.len() * self.runs) as u64);
            for (point, (swing, p)) in sweep.iter().enumerate() {
                let prefix = point_metric_prefix(point, swings.len());
                obs.collector.set_metric(
                    &format!("{prefix}.swing_mv"),
                    Value::F64(swing.millivolts()),
                );
                obs.collector
                    .set_metric(&format!("{prefix}.failures"), Value::U64(p.failures as u64));
                obs.collector
                    .set_metric(&format!("{prefix}.trials"), Value::U64(p.trials as u64));
            }
        }
        sweep
    }

    /// The paper's headline robustness claim: the immunity ratio between
    /// the straightforward and the proposed design at the fabrication
    /// swing (the paper reports ≈3.7x).
    ///
    /// Returns `(proposed, straightforward, ratio)`; the ratio is
    /// `straightforward / proposed` failure probabilities. When either
    /// design recorded zero failures the raw estimate degenerates (0/0
    /// would read as infinite immunity even for two equally clean
    /// designs), so the ratio falls back to the Wilson 95% upper bounds
    /// — finite, conservative, and 1-ish when both designs are clean.
    // srlr-lint: allow(raw-f64-api, reason = "immunity ratio is a dimensionless quotient of probabilities")
    pub fn immunity_ratio(&self) -> (ErrorProbability, ErrorProbability, f64) {
        let proposed = self.error_probability(&SrlrDesign::paper_proposed(self.tech));
        let straightforward = self.error_probability(&SrlrDesign::straightforward(self.tech));
        let ratio = robustness_ratio(&straightforward, &proposed);
        (proposed, straightforward, ratio)
    }
}

/// The `straightforward / proposed` robustness ratio behind
/// [`McExperiment::immunity_ratio`].
///
/// With failures on both sides this is the plain quotient of estimates.
/// When either side observed zero failures, the quotient of Wilson 95%
/// upper bounds ([`ErrorProbability::upper_bound_95`]) stands in: both
/// bounds are strictly positive for any trial count, so the ratio stays
/// finite — in particular, two designs that never failed compare as ≈1,
/// not as infinitely different.
// srlr-lint: allow(raw-f64-api, reason = "robustness ratio is a dimensionless quotient of probabilities")
pub fn robustness_ratio(straightforward: &ErrorProbability, proposed: &ErrorProbability) -> f64 {
    if straightforward.failures == 0 || proposed.failures == 0 {
        straightforward.upper_bound_95() / proposed.upper_bound_95()
    } else {
        straightforward.estimate() / proposed.estimate()
    }
}

/// Metric-key prefix for sweep point `point` of `points`: zero-padded to
/// at least three digits, widening with the sweep so lexicographic order
/// matches numeric order at any point count.
fn point_metric_prefix(point: usize, points: usize) -> String {
    let width = decimal_digits(points.saturating_sub(1)).max(3);
    format!("mc.point.{point:0width$}")
}

/// Number of decimal digits of `n` (1 for 0).
fn decimal_digits(mut n: usize) -> usize {
    let mut digits = 1;
    while n >= 10 {
        n /= 10;
        digits += 1;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_design_fails_rarely() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(200);
        let p = exp.error_probability(&SrlrDesign::paper_proposed(&tech));
        assert!(
            p.estimate() < 0.15,
            "proposed design failure probability too high: {p}"
        );
    }

    #[test]
    fn straightforward_fails_more_often_than_proposed() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(200);
        let (proposed, straightforward, ratio) = exp.immunity_ratio();
        assert!(
            straightforward.failures > proposed.failures,
            "proposed {proposed} vs straightforward {straightforward}"
        );
        assert!(ratio > 1.5, "immunity ratio {ratio} too small");
    }

    #[test]
    fn lower_swing_is_less_robust() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(150);
        let design = SrlrDesign::paper_proposed(&tech);
        let sweep = exp.swing_sweep(
            &design,
            &[
                Voltage::from_millivolts(300.0),
                Voltage::from_millivolts(450.0),
            ],
        );
        assert!(
            sweep[0].1.failures >= sweep[1].1.failures,
            "300 mV should fail at least as often as 450 mV: {:?}",
            sweep
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let design = SrlrDesign::paper_proposed(&tech);
        assert_eq!(
            exp.error_probability(&design),
            exp.error_probability(&design)
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // The tentpole contract: the error probability over 200 dice is
        // identical at 1, 2, and 8 threads because each die is a pure
        // function of (seed, trial index).
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let base = McExperiment::paper_default(&tech).with_runs(200);
        let serial = base
            .clone()
            .with_threads(Some(1))
            .error_probability(&design);
        for threads in [2usize, 8] {
            let parallel = base
                .clone()
                .with_threads(Some(threads))
                .error_probability(&design);
            assert_eq!(
                serial, parallel,
                "threads={threads} diverged from the serial run"
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let base = McExperiment::paper_default(&tech).with_runs(50);
        let serial = base
            .clone()
            .with_threads(Some(1))
            .swing_sweep(&design, &swings);
        let parallel = base.with_threads(Some(8)).swing_sweep(&design, &swings);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let tech = Technology::soi45();
        let _ = McExperiment::paper_default(&tech).with_runs(0);
    }

    #[test]
    fn observed_run_matches_unobserved_bit_for_bit() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let plain = exp.error_probability(&design);
        let mut obs = Obs {
            collector: Collector::enabled("trial-index"),
            ..Obs::default()
        };
        let traced = exp.error_probability_observed(&design, &mut obs);
        assert_eq!(plain, traced, "telemetry must not perturb the result");
        assert_eq!(obs.collector.spans().len(), 60, "one span per die");
        assert_eq!(obs.collector.counter("mc.trials"), 60);
        assert_eq!(obs.collector.counter("mc.failures"), plain.failures as u64);
    }

    #[test]
    fn telemetry_is_bit_identical_across_thread_counts() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let jsonl_at = |threads: usize| {
            let exp = McExperiment::paper_default(&tech)
                .with_runs(40)
                .with_threads(Some(threads));
            let mut obs = Obs {
                collector: Collector::enabled("trial-index"),
                ..Obs::default()
            };
            let sweep = exp.swing_sweep_observed(&design, &swings, &mut obs);
            let mut buf = Vec::new();
            obs.collector
                .write_events_jsonl(&mut buf)
                .expect("vec write");
            (sweep, buf, obs.collector.chrome_trace_json())
        };
        let (sweep1, jsonl1, chrome1) = jsonl_at(1);
        for threads in [2usize, 8] {
            let (sweep_n, jsonl_n, chrome_n) = jsonl_at(threads);
            assert_eq!(sweep1, sweep_n, "results diverged at {threads} threads");
            assert_eq!(jsonl1, jsonl_n, "JSONL diverged at {threads} threads");
            assert_eq!(chrome1, chrome_n, "trace diverged at {threads} threads");
        }
        // Spans arrive in flattened-index order regardless of threads.
        let text = String::from_utf8(jsonl1).expect("utf8");
        assert_eq!(text.lines().filter(|l| l.contains("\"span\"")).count(), 80);
    }

    #[test]
    fn profile_is_identical_across_thread_counts_with_tick_clock() {
        // The profiling determinism contract: with the tick clock, the
        // whole profile — structure, counts, AND timings — is a pure
        // function of the work, not of the worker count.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let profile_at = |threads: usize| {
            let exp = McExperiment::paper_default(&tech)
                .with_runs(60)
                .with_threads(Some(threads));
            let mut obs = Obs {
                profiler: Profiler::enabled(Clock::tick(1.0)),
                ..Obs::default()
            };
            let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
            obs.profiler.snapshot()
        };
        let p1 = profile_at(1);
        for threads in [2usize, 8] {
            assert_eq!(
                p1,
                profile_at(threads),
                "profile diverged at {threads} threads"
            );
        }
        assert!(!p1.nodes.is_empty());
    }

    #[test]
    fn profile_counts_cover_every_die_exactly_once() {
        // Deterministic accounting under the tick clock: the frame and
        // tally counts are a pure function of the workload.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::tick(1.0)),
            ..Obs::default()
        };
        let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
        let profile = obs.profiler.snapshot();
        let count_of = |name: &str| -> u64 {
            profile
                .nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.count)
                .sum()
        };
        assert_eq!(count_of("cert_hit") + count_of("cert_miss"), 120);
        assert_eq!(count_of("elaborate"), 120, "one elaboration per die");
        assert_eq!(count_of("mc.trial"), 120, "one trial frame per die");
        // Exactly the certificate misses reach the exact evaluator.
        assert_eq!(count_of("simulate"), count_of("cert_miss"));
    }

    #[test]
    fn per_die_screen_owns_the_most_self_time() {
        // The hotspot-attribution contract behind `srlr fig6
        // --profile-out`: the certificate passes healthy dice without
        // simulation and a failing die usually corrupts its first
        // stress pattern early, so `simulate` stays small and the
        // per-die screen (elaboration + certification) dominates
        // wall-clock self time — not the naive guess that the bit-slot
        // loop is hot. Assert a simple majority to stay robust to
        // scheduler noise.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(350.0),
            Voltage::from_millivolts(450.0),
        ];
        let exp = McExperiment::paper_default(&tech).with_runs(400);
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::wall()),
            ..Obs::default()
        };
        let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
        let profile = obs.profiler.snapshot();
        let self_of = |name: &str| -> f64 {
            profile
                .nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.self_s)
                .sum()
        };
        let screen = self_of("elaborate") + self_of("certify");
        let total: f64 = profile.nodes.iter().map(|n| n.self_s).sum();
        assert!(
            screen > total / 2.0,
            "expected the per-die screen to own most self time; got {screen} of {total} s"
        );
    }

    #[test]
    fn profiling_does_not_perturb_results_or_telemetry_bytes() {
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let run = |profiled: bool| {
            let mut obs = Obs {
                collector: Collector::enabled("trial-index"),
                profiler: if profiled {
                    Profiler::enabled(Clock::tick(1.0))
                } else {
                    Profiler::disabled()
                },
                ..Obs::default()
            };
            let p = exp.error_probability_observed(&design, &mut obs);
            let mut jsonl = Vec::new();
            obs.collector
                .write_events_jsonl(&mut jsonl)
                .expect("vec write");
            (p, jsonl)
        };
        let (p_off, bytes_off) = run(false);
        let (p_on, bytes_on) = run(true);
        assert_eq!(p_off, p_on, "profiling must not change the result");
        assert_eq!(
            bytes_off, bytes_on,
            "timing lives in its own sink; the event sink stays byte-identical"
        );
    }

    #[test]
    fn equally_clean_designs_report_finite_immunity() {
        // Regression: 0 failures / 0 failures used to read as infinite
        // immunity; the Wilson-bound fallback keeps it finite (and ~1
        // for identical evidence).
        let both_zero = ErrorProbability {
            failures: 0,
            trials: 1000,
        };
        let ratio = robustness_ratio(&both_zero, &both_zero);
        assert!(ratio.is_finite(), "0/0 must not read as infinite immunity");
        assert!((ratio - 1.0).abs() < 1e-12, "equal evidence ⇒ ratio 1");
    }

    #[test]
    fn one_sided_zero_failures_still_finite_and_ordered() {
        let clean = ErrorProbability {
            failures: 0,
            trials: 1000,
        };
        let dirty = ErrorProbability {
            failures: 100,
            trials: 1000,
        };
        let ratio = robustness_ratio(&dirty, &clean);
        assert!(ratio.is_finite() && ratio > 1.0, "ratio {ratio}");
        let inverse = robustness_ratio(&clean, &dirty);
        assert!(inverse.is_finite() && inverse < 1.0, "inverse {inverse}");
    }

    #[test]
    fn point_metric_prefixes_sort_lexicographically_at_any_count() {
        // Regression: the fixed {point:03} scheme interleaved past 999
        // points (mc.point.1000 < mc.point.999 lexicographically).
        for points in [1usize, 7, 1000, 1500, 12_000] {
            let keys: Vec<String> = (0..points)
                .map(|p| point_metric_prefix(p, points))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "keys interleave at {points} points");
        }
    }

    #[test]
    fn point_metric_prefix_keeps_the_legacy_shape_for_small_sweeps() {
        // ≤1000 points keep the three-digit keys PR 4's consumers parse.
        assert_eq!(point_metric_prefix(0, 7), "mc.point.000");
        assert_eq!(point_metric_prefix(999, 1000), "mc.point.999");
        assert_eq!(point_metric_prefix(0, 1500), "mc.point.0000");
        assert_eq!(point_metric_prefix(1499, 1500), "mc.point.1499");
    }
}
