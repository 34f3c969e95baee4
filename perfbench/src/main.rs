//! `srlr-perfbench`: the end-to-end and per-layer benchmark of the SRLR
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc_fig6|link_ber|noc_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's inputs from `--seed` (the set-up), then
//! repeats the workload's unit of work until `--seconds` have passed,
//! checks every result, and prints as the last line of stdout one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Each checked
//! result is one attempted operation; a result that differs from its
//! golden value or breaks an invariant is a failed one.
//!
//! * `--trace 0` reports the end-to-end metrics, all host time or host
//!   memory:
//!   - `wall_s`: upper quartile of the seconds of one unit (see
//!     [`unit_time`]);
//!   - `work_per_s`: the unit's work units divided by `wall_s`;
//!   - `setup_s`: median seconds of one set-up, which builds the
//!     workload's inputs (technology, designs, configs, nominal-die link
//!     elaboration, one `Network::new` per sweep point: whichever the
//!     workload uses) and ends where the first unit starts. The cold first
//!     set-up is one sample; after every unit, one more sample repeats the
//!     set-up back to back for at least [`SETUP_SAMPLE_S`] and takes the
//!     mean, so the samples span the same host time as the units;
//!   - `peak_rss_mb`: the process's peak resident set.
//! * `--trace 1` alternates an untraced unit with a traced replay of it
//!   that times every call into a layer's public entry points from the
//!   benchmark's side, and reports the per-layer metrics of
//!   [`layers::PER_LAYER`] (medians over the traced units). The replay's
//!   simulated results must equal the untraced unit's, and
//!   `trace.overhead_s` is the difference of the two unit times, each
//!   taken as `wall_s` is.
//!
//! Every workload runs on one worker thread: a second worker on a
//! two-vCPU host widens the spread of `mc_fig6` from a few percent to
//! tens of percent.

mod layers;
mod link_ber;
mod mc_fig6;
mod noc_faults;
mod retry_proof;

use layers::{Layers, PER_LAYER};
use std::fmt::{Debug, Write as _};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Shortest span one set-up sample is timed over.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// Units every run measures, however short `--seconds` is.
const MIN_UNITS: usize = 5;

/// The seed whose outputs are pinned to golden values taken from this
/// program; every other seed is checked against seed-independent
/// invariants.
pub const DEFAULT_SEED: u64 = 2013;

/// One benchmark workload: inputs built from a seed, a unit of work, and
/// the checks and traced replay of that unit.
pub trait Workload: Sized {
    /// The simulated results of one unit; two units on the same inputs
    /// must produce equal outcomes.
    type Outcome: Clone + PartialEq + Debug;

    /// Builds the inputs (the timed set-up).
    fn setup(seed: u64) -> Self;

    /// The unit of work, run with tracing off.
    fn run(&self) -> Self::Outcome;

    /// Work units one [`Workload::run`] performs.
    fn work(&self) -> f64;

    /// Checks one outcome against golden values or invariants.
    fn check(&self, outcome: &Self::Outcome, checks: &mut Checks);

    /// Replays [`Workload::run`] through the layers' public entry points,
    /// recording each layer's time and counts into `layers`.
    fn traced(&self, layers: &mut Layers) -> Self::Outcome;

    /// `(quantity, simulated, paper)` pairs: the simulator's error
    /// against the paper's reference numbers.
    fn accuracy(&self, _outcome: &Self::Outcome) -> Vec<(&'static str, f64, f64)> {
        Vec::new()
    }
}

/// Tally of checked results: each check is one operation, and a result
/// that differs from the expected value is a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check that passed when `ok` holds.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Records one check that `got` equals `want`.
    pub fn equal<T: PartialEq + Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.expect(got == want, || {
            format!("{what}: got {got:?}, expected {want:?}")
        });
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "mc_fig6" => bench::<mc_fig6::McFig6>(&args),
        "link_ber" => bench::<link_ber::LinkBer>(&args),
        "noc_faults" => bench::<noc_faults::NocFaults>(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (mc_fig6|link_ber|noc_faults)");
            return ExitCode::from(2);
        }
    };
    println!("{result}");
    ExitCode::SUCCESS
}

/// Runs one workload and renders the result line.
fn bench<W: Workload>(args: &Args) -> String {
    let (inputs, cold_setup_s) = timed_setup::<W>(args.seed);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&inputs, args.seconds, &mut checks)
    } else {
        untraced_run(&inputs, args.seed, args.seconds, &mut checks, cold_setup_s)
    };
    result_line(&checks, &metrics)
}

/// Builds the inputs from `seed`, returning them with the seconds taken.
fn timed_setup<W: Workload>(seed: u64) -> (W, f64) {
    let start = Instant::now();
    let inputs = black_box(W::setup(black_box(seed)));
    (inputs, start.elapsed().as_secs_f64())
}

/// One set-up sample: the mean seconds of back-to-back set-ups repeated
/// for at least [`SETUP_SAMPLE_S`], so that even a set-up of a few hundred
/// nanoseconds is timed over a span the clock resolves.
fn setup_sample<W: Workload>(seed: u64) -> f64 {
    let start = Instant::now();
    let mut builds = 0u32;
    loop {
        drop(black_box(W::setup(black_box(seed))));
        builds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            return elapsed / f64::from(builds);
        }
    }
}

/// A metric as printed: `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

/// Repeats the untraced unit for `seconds` and reports the end-to-end
/// metrics.
///
/// A set-up sample follows every unit, so the set-up samples span the
/// same stretch of host time as the units; `setup_s` is the median of
/// the samples and of the cold first set-up.
fn untraced_run<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    cold_setup_s: f64,
) -> Vec<Metric> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut setups = vec![cold_setup_s];
    let mut first: Option<W::Outcome> = None;
    while times.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let outcome = black_box(w.run());
        times.push(t.elapsed().as_secs_f64());
        check_unit(w, &outcome, &mut first, checks);
        setups.push(setup_sample::<W>(seed));
    }
    let setup_s = median(&mut setups);
    if let Some(outcome) = &first {
        print_accuracy(w, outcome);
    }
    let wall_s = unit_time(&mut times);
    println!(
        "{} units, upper quartile {wall_s:.6} s, {:.1} work units/s, set-up {setup_s:.3e} s",
        times.len(),
        w.work() / wall_s
    );
    vec![
        ("wall_s", wall_s, "s"),
        ("work_per_s", w.work() / wall_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Alternates an untraced unit with its traced replay for `seconds` and
/// reports the per-layer metrics.
fn traced_run<W: Workload>(w: &W, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<Layers> = Vec::new();
    let mut first: Option<W::Outcome> = None;
    while samples.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let outcome = black_box(w.run());
        plain.push(t.elapsed().as_secs_f64());
        check_unit(w, &outcome, &mut first, checks);

        let mut layers = Layers::default();
        let t = Instant::now();
        let replayed = black_box(w.traced(&mut layers));
        traced.push(t.elapsed().as_secs_f64());
        checks.equal("traced replay vs untraced unit", &replayed, &outcome);
        samples.push(layers);
    }
    let mut layers = Layers::median(&samples);
    let (plain_s, traced_s) = (unit_time(&mut plain), unit_time(&mut traced));
    layers.set("trace.wall_s", traced_s);
    layers.set("trace.untraced_wall_s", plain_s);
    layers.set("trace.overhead_s", traced_s - plain_s);
    if let Some(outcome) = &first {
        for (quantity, simulated, _) in print_accuracy(w, outcome) {
            layers.set(quantity, simulated);
        }
    }
    println!(
        "{} traced units: {traced_s:.6} s traced vs {plain_s:.6} s untraced (upper quartiles)",
        samples.len()
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name), unit))
        .collect()
}

/// Checks one unit's outcome and that it repeats the run's first.
fn check_unit<W: Workload>(
    w: &W,
    outcome: &W::Outcome,
    first: &mut Option<W::Outcome>,
    checks: &mut Checks,
) {
    w.check(outcome, checks);
    match first {
        Some(first) => checks.equal("unit repeats the first unit", outcome, first),
        None => *first = Some(outcome.clone()),
    }
}

/// Prints the simulator's error against the paper beside the timings.
fn print_accuracy<W: Workload>(w: &W, outcome: &W::Outcome) -> Vec<(&'static str, f64, f64)> {
    let rows = w.accuracy(outcome);
    for &(quantity, simulated, paper) in &rows {
        println!(
            "{quantity}: simulated {simulated:.4}, paper {paper}, error {:+.2}%",
            (simulated / paper - 1.0) * 100.0
        );
    }
    rows
}

/// The run's time of one unit: the upper quartile of its unit times.
///
/// The host alternates between a fast and a slow state every few
/// seconds, and the slow state holds most of the time. A run's median
/// flips to whichever state held more than half of the run; the upper
/// quartile stays on the slow state unless the fast state held three
/// quarters of it. Over 15 s windows of one long run the upper quartile
/// spread (interquartile range over median) 1.7 % for `noc_faults`
/// against 4.0 % for the median, and 16 % against 24 % for the model
/// checker alone.
fn unit_time(values: &mut [f64]) -> f64 {
    quantile(values, 0.75)
}

/// Median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of `values`, interpolated linearly between order
/// statistics.
fn quantile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = p * last as f64;
    // `rank` lies in [0, last], so the floor is a valid index.
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    values[below] + (values[above] - values[below]) * (rank - below as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The JSON result line.
fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
