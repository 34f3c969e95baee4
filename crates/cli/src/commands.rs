//! The subcommand implementations.

use crate::args::Flags;
use crate::CliError;
use srlr_core::sizing::SizingExplorer;
use srlr_core::SrlrDesign;
use srlr_link::ber::BerTester;
use srlr_link::montecarlo::McExperiment;
use srlr_link::{measure_eye, ComparisonTable, LinkConfig, LinkErrorModel, SrlrLink};
use srlr_lint::{sarif, Config as LintConfig};
use srlr_noc::traffic::Pattern;
use srlr_noc::{
    ber_sweep_observed, DatapathKind, ExpressComparison, ExpressTopology, FaultConfig, Mesh,
    Network, NocConfig, PowerModel,
};
use srlr_tech::Technology;
use srlr_telemetry::sarif::SarifDoc;
use srlr_telemetry::{Collector, Obs, Progress, RunReport, Value};
use srlr_units::{DataRate, Voltage};
use std::fmt::Write as _;

/// The help text.
pub fn help() -> String {
    "srlr — reproduce the DATE'13 SRLR paper's experiments\n\
     \n\
     commands:\n\
       table1                           Table I + Sec. IV headline numbers\n\
       fig6   [--runs N] [--threads T]  Monte Carlo error probability vs swing\n\
       fig8                             energy vs bandwidth density sweep\n\
       waveforms                        Fig. 4 transient waveforms (ASCII)\n\
       ber    [--bits N] [--gbps R]     PRBS bit-error-rate run\n\
       eye    [--bits N]                demodulator eye margins\n\
       noc    [--cols C] [--rows R] [--load F] [--datapath srlr|full]\n\
       noc-faults [--bers L | --swings MV] [--load F] [--threads T]\n\
                                        BER-driven fault injection sweep:\n\
                                        delivered rate, p99 latency, retry\n\
                                        energy (swings in mV measure the\n\
                                        link's effective BER first)\n\
       express [--interval K]           express-channel trade-off analysis\n\
       sizing                           M1/M2 design-space sweep\n\
       shmoo  [--bits N] [--threads T]  rate x swing pass/fail map\n\
       supply                           VDD-scaling frontier\n\
       temp                             temperature sweep (-40..105 C)\n\
       bathtub [--jitter PS] [--threads T]  BER vs rate under width jitter\n\
       crosstalk                        neighbour-activity scenarios\n\
       lint   [--root DIR] [--format text|sarif] [--deny-all]\n\
                                        workspace static analysis (see\n\
                                        srlr-lint --list-rules)\n\
       verify-noc [--cols C] [--rows R] [--ber B] [--retries LIST]\n\
              [--packet-len L] [--variant correct|no-watermark]\n\
              [--format text|json|sarif]\n\
                                        exhaustive model check of the\n\
                                        retry protocol: deadlock-freedom,\n\
                                        no overtaking, termination, and\n\
                                        the exact DTMC delivery rate\n\
       profile --in FILE [--top N]      rank a folded profile's frames\n\
                                        by self time (hotspot table)\n\
       bench-diff --old A --new B [--tolerance F] [--abs-tolerance F]\n\
              [--ignore csv]            structured diff of two run\n\
                                        reports / bench snapshots; exit\n\
                                        1 on an out-of-band change (the\n\
                                        CI perf-regression gate)\n\
       help                             this text\n\
     \n\
     --threads T: worker threads (0 or unset = SRLR_THREADS env var, then\n\
     the machine). Results are identical at every thread count.\n\
     \n\
     telemetry (fig6, waveforms, noc, noc-faults, verify-noc):\n\
       --trace-out FILE     Chrome trace_event JSON (Perfetto-loadable)\n\
       --events-out FILE    JSONL structured-event stream\n\
       --metrics-out FILE   versioned machine-readable run report\n\
       --profile-out FILE   folded-stack self-profile (speedscope /\n\
                            inferno-compatible; see `srlr profile`)\n\
       --progress           decile progress to stderr (fig6, noc-faults)\n\
     Telemetry never perturbs results and its files are bit-identical at\n\
     every --threads count; profile timing lives in its own sink.\n"
        .to_owned()
}

/// `srlr bathtub [--jitter PS] [--threads T]`.
pub fn bathtub(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["jitter", "bits", "threads"])?;
    let jitter_ps: f64 = flags.get_or("jitter", 3.0)?;
    let bits: usize = flags.get_or("bits", 2000)?;
    let threads = parse_threads(&flags)?;
    if jitter_ps < 0.0 || bits == 0 {
        return Err(CliError::Usage(
            "need non-negative jitter, positive bits".into(),
        ));
    }
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let rates: Vec<DataRate> = (7..=14)
        .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
        .collect();
    let curve = srlr_link::bathtub::rate_bathtub_with_threads(
        &tech,
        &design,
        &rates,
        srlr_units::TimeInterval::from_picoseconds(jitter_ps),
        bits,
        8,
        threads,
    );
    Ok(format!(
        "BER bathtub with {jitter_ps} ps/stage width jitter\n\n{}",
        srlr_link::bathtub::render(&curve)
    ))
}

/// Parses the shared `--threads` flag: `0` (the default) means "decide
/// automatically" (`SRLR_THREADS`, then the machine); any other value
/// forces that worker count.
fn parse_threads(flags: &Flags) -> Result<Option<usize>, CliError> {
    let threads: usize = flags.get_or("threads", 0)?;
    Ok(if threads == 0 { None } else { Some(threads) })
}

/// The telemetry file-output flags accepted by the instrumented
/// subcommands (`fig6`, `waveforms`, `noc`, `noc-faults`,
/// `verify-noc`).
const TELEMETRY_FLAGS: [&str; 4] = ["trace-out", "metrics-out", "events-out", "profile-out"];

/// Parsed telemetry options of one invocation.
#[derive(Debug, Default)]
struct TelemetryOpts {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    profile_out: Option<String>,
    progress: bool,
}

impl TelemetryOpts {
    /// Reads the telemetry flags (and the `--progress` switch, where the
    /// command accepts it) out of parsed flags.
    fn from_flags(flags: &Flags) -> Self {
        Self {
            trace_out: flags.get_str("trace-out").map(str::to_owned),
            metrics_out: flags.get_str("metrics-out").map(str::to_owned),
            events_out: flags.get_str("events-out").map(str::to_owned),
            profile_out: flags.get_str("profile-out").map(str::to_owned),
            progress: flags.is_set("progress"),
        }
    }

    /// Whether any file sink was requested (the collector only records
    /// when something will drain it).
    fn wants_collector(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.events_out.is_some()
    }

    /// The observability hooks for a run of `total` work items with
    /// timestamps in `timebase`. With `--profile-out` the profiler runs
    /// on the wall clock; timing lives in its own sink, so the event
    /// stream stays bit-identical whether or not profiling is on.
    fn obs(&self, timebase: &str, label: &str, total: u64) -> Obs {
        Obs {
            collector: if self.wants_collector() {
                Collector::enabled(timebase)
            } else {
                Collector::disabled()
            },
            progress: if self.progress {
                Progress::enabled(label, total)
            } else {
                Progress::disabled()
            },
            profiler: if self.profile_out.is_some() {
                srlr_telemetry::Profiler::enabled(srlr_telemetry::Clock::wall())
            } else {
                srlr_telemetry::Profiler::disabled()
            },
        }
    }

    /// Writes the folded-stack profile (`--profile-out`), one
    /// `path;to;frame <self-µs>` line per frame — loadable by
    /// speedscope and `inferno-flamegraph`, diffable by
    /// `srlr bench-diff`, rankable by `srlr profile`.
    fn write_profile(&self, profiler: &srlr_telemetry::Profiler) -> Result<(), CliError> {
        if let Some(path) = &self.profile_out {
            let folded = srlr_prof::fold(&profiler.snapshot());
            write_file(path, folded.as_bytes())?;
        }
        Ok(())
    }

    /// Drains the run's telemetry into the requested files: the Chrome
    /// `trace_event` document (`--trace-out`), the JSONL event stream
    /// (`--events-out`) and the versioned run report (`--metrics-out`).
    fn write(&self, collector: &Collector, report: &RunReport) -> Result<(), CliError> {
        if let Some(path) = &self.trace_out {
            write_file(path, collector.chrome_trace_json().as_bytes())?;
        }
        if let Some(path) = &self.events_out {
            let mut buf = Vec::new();
            collector
                .write_events_jsonl(&mut buf)
                .map_err(|e| CliError::Experiment(format!("cannot render `{path}`: {e}")))?;
            write_file(path, &buf)?;
        }
        if let Some(path) = &self.metrics_out {
            write_file(path, report.to_json().as_bytes())?;
        }
        Ok(())
    }
}

/// Writes one telemetry artifact, mapping I/O failure to an experiment
/// error.
fn write_file(path: &str, contents: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Experiment(format!("cannot write `{path}`: {e}")))
}

/// `srlr crosstalk`.
pub fn crosstalk() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut out = String::from("neighbour-activity (crosstalk) scenarios\n\n");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>20}",
        "neighbours", "cliff", "energy @4.1 Gb/s"
    );
    for p in srlr_link::crosstalk::crosstalk_sweep(&tech, &design) {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>14.1} fJ/b/mm",
            format!("{:?}", p.activity),
            p.max_rate.map_or("fails".to_owned(), |r| format!(
                "{:.1} Gb/s",
                r.gigabits_per_second()
            )),
            p.energy.femtojoules_per_bit_per_millimeter(),
        );
    }
    Ok(out)
}

/// `srlr shmoo [--bits N] [--threads T]`.
pub fn shmoo(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits", "threads"])?;
    let bits: usize = flags.get_or("bits", 512)?;
    let threads = parse_threads(&flags)?;
    if bits == 0 {
        return Err(CliError::Usage("--bits must be positive".into()));
    }
    let tech = Technology::soi45();
    let plot = srlr_link::shmoo::paper_shmoo_with_threads(&tech, bits, threads);
    Ok(format!(
        "rate x swing shmoo, nominal die ('+' pass, '.' fail)\n\n{}\npassing fraction: {:.0} %\n",
        plot.render(),
        plot.pass_fraction() * 100.0
    ))
}

/// `srlr supply`.
pub fn supply() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let vdds: Vec<Voltage> = (6..=10)
        .map(|i| Voltage::from_volts(f64::from(i) / 10.0))
        .collect();
    let points = srlr_link::supply::supply_sweep(&tech, &design, &vdds);
    if points.is_empty() {
        return Err(CliError::Experiment("no rail could signal".into()));
    }
    let mut out = String::from("VDD scaling (rated at 0.7 x cliff)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>16} {:>12}",
        "VDD", "cliff", "energy", "power"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8} {:>9.1} Gb/s {:>12.1} fJ/b/mm {:>9.2} mW",
            p.vdd.to_string(),
            p.max_rate.gigabits_per_second(),
            p.energy.femtojoules_per_bit_per_millimeter(),
            p.power.milliwatts(),
        );
    }
    Ok(out)
}

/// `srlr temp`.
pub fn temp() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut out =
        String::from("temperature sweep at 4.1 Gb/s (adaptive bias tracking; PRBS 4k bits)\n\n");
    let _ = writeln!(
        out,
        "{:>14} {:>10} {:>14}",
        "temperature", "errors", "worst ISI"
    );
    for celsius in [-40.0, 0.0, 27.0, 60.0, 85.0, 105.0] {
        let t = srlr_tech::Temperature::from_celsius(celsius);
        let var = t.as_variation();
        let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
        let mut gen = srlr_link::Prbs::prbs15();
        let bits = gen.take_bits(4096);
        let outcome = link.transmit(&bits);
        let errors = bits
            .iter()
            .zip(&outcome.received)
            .filter(|(a, b)| a != b)
            .count();
        let _ = writeln!(
            out,
            "{:>14} {:>10} {:>14}",
            t.to_string(),
            errors,
            outcome.max_baseline.to_string()
        );
    }
    Ok(out)
}

/// `srlr table1`.
pub fn table1() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let mut out = ComparisonTable::paper_table1(&tech).render();
    let metrics = SrlrLink::paper_test_chip(&tech).metrics();
    let _ = writeln!(out, "\nmeasured test chip: {metrics}");
    Ok(out)
}

/// `srlr fig6 [--runs N] [--threads T]` plus the telemetry flags: the
/// proposed-design sweep records one `trial` span per die.
pub fn fig6(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse_with_switches(
        rest,
        &[
            "runs",
            "threads",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
        &["progress"],
    )?;
    let runs: usize = flags.get_or("runs", 300)?;
    let threads = parse_threads(&flags)?;
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let tel = TelemetryOpts::from_flags(&flags);
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech)
        .with_runs(runs)
        .with_threads(threads);
    let mut out = format!("Monte Carlo over {runs} dice per point\n\n");
    let swings: Vec<Voltage> = (7..=11)
        .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
        .collect();
    let _ = writeln!(
        out,
        "{:>9} {:>22} {:>22}",
        "swing", "proposed", "straightforward"
    );
    let mut obs = tel.obs("trial-index", "fig6", (runs * swings.len()) as u64);
    let sweep_p = exp.swing_sweep_observed(&SrlrDesign::paper_proposed(&tech), &swings, &mut obs);
    let sweep_s = exp.swing_sweep(&SrlrDesign::straightforward(&tech), &swings);
    for ((swing, p), (_, s)) in sweep_p.iter().zip(&sweep_s) {
        let _ = writeln!(
            out,
            "{:>9} {:>22} {:>22}",
            swing.to_string(),
            p.to_string(),
            s.to_string()
        );
    }
    let (p, s, ratio) = exp.immunity_ratio();
    let _ = writeln!(
        out,
        "\nimmunity at the fabrication swing: proposed {p}, straightforward {s} => ratio {ratio:.2}x (paper: 3.7x)"
    );
    let mut report = RunReport::new("fig6");
    report.param("runs", Value::U64(runs as u64));
    report.param("swings", Value::U64(swings.len() as u64));
    report.metric("proposed_error_probability", Value::F64(p.estimate()));
    report.metric(
        "straightforward_error_probability",
        Value::F64(s.estimate()),
    );
    report.metric("immunity_ratio", Value::F64(ratio));
    report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr fig8`.
pub fn fig8() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let mut out = String::from("energy vs bandwidth density (rated at 0.7 x cliff)\n\n");
    let _ = writeln!(out, "{:<28} {:>12} {:>16}", "point", "Gb/s/um", "fJ/bit/cm");
    for p in srlr_bench::fig8_measured_series(&tech, &[0.2, 0.3, 0.5, 0.7]) {
        let _ = writeln!(
            out,
            "{:<28} {:>12.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }
    for p in srlr_bench::fig8_published_points() {
        let _ = writeln!(
            out,
            "{:<28} {:>12.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }
    Ok(out)
}

/// `srlr waveforms` plus the telemetry flags: the run report and
/// metrics carry the transient integrator's step statistics.
pub fn waveforms(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &TELEMETRY_FLAGS)?;
    let tel = TelemetryOpts::from_flags(&flags);
    let tech = Technology::soi45();
    let mut obs = tel.obs("sim-s", "waveforms", 1);
    let mut collector = std::mem::take(&mut obs.collector);
    obs.profiler.enter("waveforms.transient");
    let waves = srlr_core::transient::SrlrTransientFixture::fig4_observed(&tech, &mut collector);
    obs.profiler.exit();
    let mut out = String::new();
    let _ = writeln!(out, "IN (peak {}):", waves.input.peak());
    out.push_str(&waves.input.ascii_plot(8, 80));
    let _ = writeln!(out, "\nnode X:");
    out.push_str(&waves.node_x.ascii_plot(8, 80));
    let _ = writeln!(out, "\nOUT (peak {}):", waves.output.peak());
    out.push_str(&waves.output.ascii_plot(8, 80));
    let _ = writeln!(out, "\nNEXT IN (peak {}):", waves.next_input.peak());
    out.push_str(&waves.next_input.ascii_plot(8, 80));
    let mut report = RunReport::new("waveforms");
    report.metric("input_peak_v", Value::F64(waves.input.peak().volts()));
    report.metric("output_peak_v", Value::F64(waves.output.peak().volts()));
    report.metric(
        "next_input_peak_v",
        Value::F64(waves.next_input.peak().volts()),
    );
    report.absorb_collector(&collector);
    tel.write(&collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr ber [--bits N] [--gbps R]`.
pub fn ber(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits", "gbps"])?;
    let bits: usize = flags.get_or("bits", 1_000_000)?;
    let gbps: f64 = flags.get_or("gbps", 4.1)?;
    if bits == 0 || gbps <= 0.0 {
        return Err(CliError::Usage("--bits and --gbps must be positive".into()));
    }
    let tech = Technology::soi45();
    let config =
        LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(gbps));
    let link = SrlrLink::on_die(
        &tech,
        &SrlrDesign::paper_proposed(&tech),
        config,
        &srlr_tech::GlobalVariation::nominal(),
    );
    let report = BerTester::prbs15().run(&link, bits);
    Ok(format!(
        "{report}\nenergy per bit: {}\n",
        report.energy_per_bit()
    ))
}

/// `srlr eye [--bits N]`.
pub fn eye(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits"])?;
    let bits: usize = flags.get_or("bits", 5_000)?;
    if bits == 0 {
        return Err(CliError::Usage("--bits must be positive".into()));
    }
    let tech = Technology::soi45();
    let link = SrlrLink::paper_test_chip(&tech);
    let eye = measure_eye(&link, bits);
    Ok(format!(
        "{eye}\nopen: {}\n",
        if eye.is_open() { "yes" } else { "NO" }
    ))
}

/// `srlr noc [...]` plus the telemetry flags: with any telemetry sink
/// requested, the run traces the full flit lifecycle (inject, route,
/// CRC fail, retry, eject) and reports per-link utilisation.
pub fn noc(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        rest,
        &[
            "cols",
            "rows",
            "load",
            "datapath",
            "cycles",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 8)?;
    let rows: u16 = flags.get_or("rows", 8)?;
    let load: f64 = flags.get_or("load", 0.05)?;
    let cycles: u64 = flags.get_or("cycles", 2000)?;
    if cols == 0 || rows == 0 || !(0.0..=1.0).contains(&load) || cycles == 0 {
        return Err(CliError::Usage(
            "need positive size/cycles and load in [0, 1]".into(),
        ));
    }
    let datapath = match flags.get_str("datapath").unwrap_or("srlr") {
        "srlr" => DatapathKind::SrlrLowSwing,
        "full" => DatapathKind::FullSwingRepeated,
        other => {
            return Err(CliError::Usage(format!(
                "--datapath must be `srlr` or `full`, got `{other}`"
            )))
        }
    };
    let tech = Technology::soi45();
    let config = NocConfig::paper_default()
        .with_size(cols, rows)
        .with_datapath(datapath);
    let mut net = Network::new(config);
    if tel.wants_collector() {
        net.enable_flit_telemetry();
    }
    let mut obs = tel.obs("cycle", "noc", cycles);
    let stats = net.run_warmup_and_measure_profiled(
        Pattern::UniformRandom,
        load,
        cycles / 4,
        cycles,
        &mut obs.profiler,
    );
    let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
    let power = model.report(&stats.energy, cycles, config.clock, config.mesh().len());
    let collector = net.take_flit_telemetry().unwrap_or_default();
    let mut report = RunReport::new("noc");
    report.param("cols", Value::U64(u64::from(cols)));
    report.param("rows", Value::U64(u64::from(rows)));
    report.param("load", Value::F64(load));
    report.param("cycles", Value::U64(cycles));
    report.param("datapath", Value::Str(datapath.to_string()));
    report.metric("packets_injected", Value::U64(stats.packets_injected));
    report.metric("packets_received", Value::U64(stats.packets_received));
    if stats.packets_received > 0 {
        report.metric("avg_latency_cycles", Value::F64(stats.avg_latency_cycles()));
        report.metric(
            "throughput_flits_per_node_cycle",
            Value::F64(stats.throughput_flits_per_node_cycle()),
        );
    }
    for (name, value) in stats.latency_histogram.summary().metric_fields("latency") {
        report.metric(&name, value);
    }
    report.absorb_collector(&collector);
    tel.write(&collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(format!(
        "{cols}x{rows} mesh, {datapath}, load {load}\ntraffic: {stats}\npower:   {power}\n"
    ))
}

/// Parses a comma-separated list of numbers (`"0,1e-5,1e-3"`).
fn parse_list(name: &str, raw: &str) -> Result<Vec<f64>, CliError> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| CliError::Usage(format!("flag `--{name}` got unparsable entry `{s}`")))
        })
        .collect()
}

/// `srlr noc-faults [...]`: the fault-injection sweep. Either sweeps the
/// injected BER directly (`--bers`, comma-separated), or sweeps link
/// swing voltages (`--swings`, mV): each swing is measured over Monte
/// Carlo dice with the link physics and its *effective* BER (Wilson
/// upper bound when error-free) drives the injector.
pub fn noc_faults(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse_with_switches(
        rest,
        &[
            "cols",
            "rows",
            "load",
            "cycles",
            "bers",
            "swings",
            "dice",
            "bits",
            "max-retries",
            "threads",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
        &["progress"],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 8)?;
    let rows: u16 = flags.get_or("rows", 8)?;
    let load: f64 = flags.get_or("load", 0.05)?;
    let cycles: u64 = flags.get_or("cycles", 2000)?;
    let max_retries: u32 = flags.get_or("max-retries", 4)?;
    let dice: usize = flags.get_or("dice", 30)?;
    let bits: usize = flags.get_or("bits", 400)?;
    let threads = parse_threads(&flags)?;
    if cols == 0 || rows == 0 || !(0.0..=1.0).contains(&load) || cycles == 0 {
        return Err(CliError::Usage(
            "need positive size/cycles and load in [0, 1]".into(),
        ));
    }
    if flags.get_str("bers").is_some() && flags.get_str("swings").is_some() {
        return Err(CliError::Usage(
            "--bers and --swings are mutually exclusive".into(),
        ));
    }

    let mut header = format!("{cols}x{rows} mesh, load {load}, {max_retries} retries/flit\n");
    let (labels, bers): (Vec<String>, Vec<f64>) = if let Some(raw) = flags.get_str("swings") {
        if dice == 0 || bits == 0 {
            return Err(CliError::Usage("--dice and --bits must be positive".into()));
        }
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let mut labels = Vec::new();
        let mut bers = Vec::new();
        let _ = writeln!(
            header,
            "link BER measured over {dice} dice x {bits} PRBS bits per swing"
        );
        for mv in parse_list("swings", raw)? {
            if !(mv.is_finite() && mv > 0.0) {
                return Err(CliError::Usage(format!("bad swing `{mv}` mV")));
            }
            let point = design.with_nominal_swing(Voltage::from_millivolts(mv));
            let model = LinkErrorModel::measure(
                &tech,
                &point,
                LinkConfig::paper_default(),
                dice,
                bits,
                2013,
                threads,
            );
            // A completely broken swing can report BER -> 1; the injector
            // needs [0, 1), and beyond ~0.5 every word is corrupt anyway.
            bers.push(model.effective_ber().min(0.5));
            labels.push(format!("{mv:.0} mV"));
            let _ = writeln!(header, "  {mv:>5.0} mV: {model}");
        }
        (labels, bers)
    } else {
        let raw = flags.get_str("bers").unwrap_or("0,1e-5,1e-4,1e-3,1e-2");
        let bers = parse_list("bers", raw)?;
        for &b in &bers {
            if !(b.is_finite() && (0.0..1.0).contains(&b)) {
                return Err(CliError::Usage(format!("BER `{b}` outside [0, 1)")));
            }
        }
        (bers.iter().map(|b| format!("{b:.1e}")).collect(), bers)
    };
    if bers.is_empty() {
        return Err(CliError::Usage("need at least one sweep point".into()));
    }

    let config = NocConfig::paper_default().with_size(cols, rows);
    let template = FaultConfig::new(0.0).with_max_retries(max_retries);
    let mut obs = tel.obs("point-index", "noc-faults", bers.len() as u64);
    let points = ber_sweep_observed(
        config,
        template,
        Pattern::UniformRandom,
        load,
        cycles / 4,
        cycles,
        &bers,
        threads,
        &mut obs,
    );

    let tech = Technology::soi45();
    let model = PowerModel::for_datapath(&tech, config.flit_bits, config.datapath);
    let mut out = header;
    let _ = writeln!(
        out,
        "\n{:>10} {:>10} {:>10} {:>8} {:>9} {:>8} {:>14}",
        "point", "ber", "delivered", "p99", "retries", "dropped", "energy/bit"
    );
    for (label, point) in labels.iter().zip(&points) {
        let stats = &point.stats;
        let p99 = stats.latency_percentile(99.0).map_or_else(
            || format!(">{}", stats.latency_histogram.bins()),
            |v| v.to_string(),
        );
        let delivered_bits =
            stats.packets_received as f64 * (config.packet_len * config.flit_bits) as f64;
        let energy = model.dynamic_energy(&stats.energy);
        let per_bit = if delivered_bits > 0.0 {
            format!("{:.1} fJ/bit", energy.joules() / delivered_bits * 1e15)
        } else {
            "n/a".to_owned()
        };
        let _ = writeln!(
            out,
            "{:>10} {:>10.1e} {:>9.2}% {:>8} {:>9} {:>8} {:>14}",
            label,
            point.ber,
            stats.delivered_fraction() * 100.0,
            p99,
            stats.faults.flits_retransmitted,
            stats.packets_dropped,
            per_bit,
        );
    }
    let mut report = RunReport::new("noc-faults");
    report.param("cols", Value::U64(u64::from(cols)));
    report.param("rows", Value::U64(u64::from(rows)));
    report.param("load", Value::F64(load));
    report.param("cycles", Value::U64(cycles));
    report.param("max_retries", Value::U64(u64::from(max_retries)));
    report.param("points", Value::U64(points.len() as u64));
    for (i, (label, point)) in labels.iter().zip(&points).enumerate() {
        let section = format!("point.{i:03}");
        report.section_metric(&section, "label", Value::Str(label.clone()));
        report.section_metric(&section, "ber", Value::F64(point.ber));
        report.section_metric(
            &section,
            "delivered_fraction",
            Value::F64(point.stats.delivered_fraction()),
        );
        report.section_metric(
            &section,
            "flits_retransmitted",
            Value::U64(point.stats.faults.flits_retransmitted),
        );
        report.section_metric(
            &section,
            "packets_dropped",
            Value::U64(point.stats.packets_dropped),
        );
    }
    report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr profile --in FILE [--top N]`: ranks the frames of a folded
/// profile (written by any sim subcommand's `--profile-out`) by self
/// time and prints the top-N hotspot table.
pub fn profile(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["in", "top"])?;
    let path = flags
        .get_str("in")
        .ok_or_else(|| CliError::Usage("profile needs --in FILE".into()))?;
    let top: usize = flags.get_or("top", 10)?;
    if top == 0 {
        return Err(CliError::Usage("--top must be positive".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Experiment(format!("cannot read `{path}`: {e}")))?;
    let lines = srlr_prof::parse_folded(&text)
        .map_err(|e| CliError::Experiment(format!("`{path}` is not a folded profile: {e}")))?;
    let spots = srlr_prof::hotspots_folded(&lines, top);
    Ok(format!(
        "top {} of {} frames by self time ({path})\n\n{}",
        spots.len(),
        lines.len(),
        srlr_prof::render_table(&spots)
    ))
}

/// `srlr bench-diff --old A --new B [--tolerance F] [--abs-tolerance F]
/// [--ignore csv]`: structured diff of two run reports / bench
/// snapshots (any scalar-leaved JSON). Exit `0` when every change sits
/// inside the tolerance band, `1` on a regression (the CI gate), `2`
/// on usage errors — mirroring `lint`.
pub fn bench_diff(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        rest,
        &["old", "new", "tolerance", "abs-tolerance", "ignore"],
    )?;
    let old_path = flags
        .get_str("old")
        .ok_or_else(|| CliError::Usage("bench-diff needs --old FILE".into()))?;
    let new_path = flags
        .get_str("new")
        .ok_or_else(|| CliError::Usage("bench-diff needs --new FILE".into()))?;
    let rel_tol: f64 = flags.get_or("tolerance", 0.0)?;
    let abs_tol: f64 = flags.get_or("abs-tolerance", 0.0)?;
    if !(rel_tol.is_finite() && rel_tol >= 0.0 && abs_tol.is_finite() && abs_tol >= 0.0) {
        return Err(CliError::Usage(
            "tolerances must be finite and non-negative".into(),
        ));
    }
    let ignore: Vec<String> = flags
        .get_str("ignore")
        .map(|raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Experiment(format!("cannot read `{path}`: {e}")))
    };
    let opts = srlr_prof::DiffOptions {
        rel_tol,
        abs_tol,
        ignore,
    };
    let report = srlr_prof::diff_reports(&read(old_path)?, &read(new_path)?, &opts)
        .map_err(CliError::Experiment)?;
    let out = format!("old: {old_path}\nnew: {new_path}\n{}", report.render());
    if report.regressed() {
        Err(CliError::Experiment(out))
    } else {
        Ok(out)
    }
}

/// `srlr express [--interval K]`.
pub fn express(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["interval"])?;
    let interval: u16 = flags.get_or("interval", 4)?;
    if !(2..8).contains(&interval) {
        return Err(CliError::Usage("--interval must be in 2..8".into()));
    }
    let tech = Technology::soi45();
    let topo = ExpressTopology::new(Mesh::new(8, 8), interval);
    let c = ExpressComparison::evaluate(&tech, topo);
    let (e, l) = c.express_avg_hops;
    Ok(format!(
        "express interval {interval} on an 8x8 mesh\n\
         avg hops: mesh {:.2} vs express {:.2} ({:.2} express + {:.2} local) => {:.0} % fewer router visits\n\
         avg datapath energy/bit: mesh {} vs express {} (ratio {:.2}x)\n\
         driver area per express bit-lane: {:.0} um^2 vs {:.1} um^2 SRLR ({:.0}x)\n\
         extra ports at express stations: {}\n",
        c.srlr_avg_hops,
        e + l,
        e,
        l,
        c.hop_reduction() * 100.0,
        c.srlr_energy_per_bit,
        c.express_energy_per_bit,
        c.energy_ratio(),
        c.express_driver_area.square_micrometers(),
        c.srlr_cell_area.square_micrometers(),
        c.driver_area_ratio(),
        topo.extra_ports_at_stations(),
    ))
}

/// `srlr sizing`.
pub fn sizing() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let explorer = SizingExplorer::new(&tech, design, 10);
    let um = srlr_units::Length::from_micrometers;
    let m1 = [um(0.15), um(0.3), um(0.6), um(1.2)];
    let m2 = [um(0.06), um(0.12), um(0.3)];
    let mut out = String::from("M1/M2 sizing sweep (10-stage chain, nominal + 5 corners)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>9} {:>14} {:>16}",
        "M1 [um]", "M2 [um]", "nominal", "corners", "margin [mV]", "fJ/bit/mm"
    );
    for c in explorer.sweep(&m1, &m2) {
        let _ = writeln!(
            out,
            "{:>8.2} {:>8.2} {:>8} {:>8}/5 {:>14.1} {:>16.1}",
            c.m1_width.micrometers(),
            c.m2_width.micrometers(),
            if c.works_nominal { "ok" } else { "FAIL" },
            c.corners_passed,
            c.sense_margin.millivolts(),
            c.energy.femtojoules_per_bit_per_millimeter(),
        );
    }
    let best = explorer
        .best(&m1, &m2)
        .ok_or_else(|| CliError::Experiment("no viable sizing found".into()))?;
    let _ = writeln!(
        out,
        "\nlowest-energy viable point: M1 {:.2} um / M2 {:.2} um",
        best.m1_width.micrometers(),
        best.m2_width.micrometers()
    );
    Ok(out)
}

/// `srlr lint [--root DIR] [--format text|sarif] [--deny-all]`.
///
/// Delegates to [`srlr_lint::run`]: exit `0` when the tree is clean,
/// `1` on violations (or stale baseline entries under `--deny-all`) and
/// `2` for usage errors, matching the standalone `srlr-lint` binary.
/// `--format sarif` always succeeds so CI can upload the document as an
/// artifact even when findings gate — the same contract as
/// `verify-noc --format sarif`.
pub fn lint(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse_with_switches(rest, &["root", "format"], &["deny-all"])?;
    let root = flags.get_str("root").unwrap_or(".").to_owned();
    let format = flags.get_str("format").unwrap_or("text");
    if !matches!(format, "text" | "sarif") {
        return Err(CliError::Usage(format!(
            "unknown lint format `{format}` (text|sarif)"
        )));
    }

    let config = LintConfig::new(root);
    let report = srlr_lint::run(&config).map_err(|e| CliError::Experiment(e.to_string()))?;

    let failures = report.failures().count();
    let stale_fails = flags.is_set("deny-all") && !report.stale.is_empty();
    let clean = failures == 0 && !stale_fails;

    let mut out = String::new();
    if format == "sarif" {
        // The findings travel inside the document; exporting must not
        // fail the run or CI loses the artifact it came for.
        out.push_str(&sarif::render(&report));
        return Ok(out);
    }
    for d in &report.fresh {
        out.push_str(&d.render());
    }
    for key in &report.stale {
        let _ = writeln!(
            out,
            "stale-baseline: `{key}` no longer matches any violation"
        );
    }
    let _ = writeln!(
        out,
        "srlr-lint: {} files checked, {failures} violation(s)",
        report.files_checked
    );
    if clean {
        Ok(out)
    } else {
        // Experiment errors land on stderr with exit 1; keep the
        // diagnostics as the message so they stay visible.
        Err(CliError::Experiment(format!(
            "lint found {failures} violation(s)\n{out}"
        )))
    }
}

/// `srlr verify-noc [...]`: exhaustive model check of the mesh retry
/// protocol via `srlr-model`.
///
/// For every retry budget in `--retries` the checker enumerates the
/// reachable state space of every ordered XY route of the mesh and
/// discharges deadlock-freedom, the no-overtaking watermark invariant
/// and termination, then solves the graph as an absorbing DTMC for the
/// exact delivery probability. `--variant no-watermark` checks the
/// deliberately broken scheduler, which produces replayable
/// counterexample traces (dumped through `--events-out`, rendered in
/// text, and exported as SARIF results).
///
/// Exit behaviour mirrors `lint`: violations fail with exit `1` in
/// `text`/`json` formats; `--format sarif` always succeeds so CI can
/// archive the document from a failing tree (the gate is a text run).
pub fn verify_noc(rest: &[String]) -> Result<String, CliError> {
    use srlr_model::{closed_form_delivery, ModelConfig, Variant};
    use srlr_telemetry::json::{write_f64, write_str};

    let flags = Flags::parse(
        rest,
        &[
            "cols",
            "rows",
            "ber",
            "retries",
            "packet-len",
            "variant",
            "format",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 2)?;
    let rows: u16 = flags.get_or("rows", 2)?;
    let ber: f64 = flags.get_or("ber", 1e-3)?;
    let packet_len: usize = flags.get_or("packet-len", 4)?;
    let format = flags.get_str("format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "sarif") {
        return Err(CliError::Usage(format!(
            "unknown verify-noc format `{format}` (text|json|sarif)"
        )));
    }
    let variant = match flags.get_str("variant").unwrap_or("correct") {
        "correct" => Variant::Correct,
        "no-watermark" => Variant::IgnoreBusyWatermark,
        other => {
            return Err(CliError::Usage(format!(
                "unknown variant `{other}` (correct|no-watermark)"
            )))
        }
    };
    // Exhaustive enumeration is exponential in packet length and route
    // length; these bounds keep a check interactive (well under a
    // second on the 2x2 CI configuration).
    if !(1..=4).contains(&cols) || !(1..=4).contains(&rows) {
        return Err(CliError::Usage("mesh sides must be in 1..=4".into()));
    }
    if !(1..=6).contains(&packet_len) {
        return Err(CliError::Usage("--packet-len must be in 1..=6".into()));
    }
    if !(ber.is_finite() && (0.0..1.0).contains(&ber)) {
        return Err(CliError::Usage(format!("BER `{ber}` outside [0, 1)")));
    }
    let raw = flags.get_str("retries").unwrap_or("0,1,3");
    let mut budgets: Vec<u32> = Vec::new();
    for part in raw.split(',') {
        let budget: u32 = part
            .trim()
            .parse()
            .map_err(|_| CliError::Usage(format!("bad retry budget `{part}`")))?;
        if budget > 6 {
            return Err(CliError::Usage(
                "retry budgets above 6 are unchecked".into(),
            ));
        }
        budgets.push(budget);
    }
    if budgets.is_empty() {
        return Err(CliError::Usage("need at least one retry budget".into()));
    }

    let mut obs = tel.obs("counterexample-step", "verify-noc", budgets.len() as u64);
    let mut reports = Vec::new();
    for &budget in &budgets {
        let config = ModelConfig::new(
            Mesh::new(cols, rows),
            packet_len,
            FaultConfig::new(ber).with_max_retries(budget),
        )
        .with_variant(variant);
        let report = srlr_model::verify_profiled(&config, &mut obs.profiler);
        for violation in report.violations() {
            violation.emit(&mut obs.collector);
        }
        obs.progress.tick();
        reports.push((budget, closed_form_delivery(&config), report));
    }
    let total_violations: usize = reports.iter().map(|(_, _, r)| r.violations().count()).sum();
    let all_proven = reports.iter().all(|(_, _, r)| r.all_proven());

    let mut run_report = RunReport::new("verify-noc");
    run_report.param("cols", Value::U64(u64::from(cols)));
    run_report.param("rows", Value::U64(u64::from(rows)));
    run_report.param("ber", Value::F64(ber));
    run_report.param("packet_len", Value::U64(packet_len as u64));
    run_report.param("variant", Value::Str(variant.name().to_owned()));
    for (i, (budget, closed, report)) in reports.iter().enumerate() {
        let section = format!("budget.{i:03}");
        run_report.section_metric(&section, "max_retries", Value::U64(u64::from(*budget)));
        run_report.section_metric(&section, "states", Value::U64(report.total_states as u64));
        run_report.section_metric(
            &section,
            "transitions",
            Value::U64(report.total_transitions as u64),
        );
        run_report.section_metric(
            &section,
            "deliver_probability",
            Value::F64(report.deliver_probability),
        );
        run_report.section_metric(&section, "closed_form", Value::F64(*closed));
        run_report.section_metric(&section, "deadlock_free", Value::Bool(report.deadlock_free));
        run_report.section_metric(&section, "no_overtaking", Value::Bool(report.no_overtaking));
        run_report.section_metric(&section, "terminates", Value::Bool(report.terminates));
    }
    run_report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &run_report)?;
    tel.write_profile(&obs.profiler)?;

    let routes = reports.first().map_or(0, |(_, _, r)| r.pairs.len());
    let out = match format {
        "sarif" => {
            let mut doc = SarifDoc::new("srlr-model", "https://example.invalid/srlr-model");
            doc.rule(
                "no-overtaking",
                "a retried wormhole head is never overtaken by its own tail",
            );
            doc.rule(
                "deadlock",
                "every non-terminal state has an enabled crossing",
            );
            doc.rule("termination", "every run ends in Delivered or CountedDrop");
            for (budget, _, report) in &reports {
                for v in report.violations() {
                    let uri = format!(
                        "model://{cols}x{rows}/budget-{budget}/route/{},{}-{},{}",
                        v.src.x, v.src.y, v.dst.x, v.dst.y
                    );
                    doc.result(v.kind.rule(), "error", &v.render(), &uri, 1, 1);
                }
            }
            return Ok(doc.render());
        }
        "json" => {
            let mut out = String::from("{\"mesh\":");
            write_str(&mut out, &format!("{cols}x{rows}"));
            out.push_str(",\"ber\":");
            write_f64(&mut out, ber);
            let _ = write!(out, ",\"packet_len\":{packet_len},\"variant\":");
            write_str(&mut out, variant.name());
            let _ = write!(out, ",\"routes\":{routes},\"budgets\":[");
            for (i, (budget, closed, report)) in reports.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"max_retries\":{budget},\"states\":{},\"transitions\":{},\
                     \"deliver_probability\":",
                    report.total_states, report.total_transitions
                );
                write_f64(&mut out, report.deliver_probability);
                out.push_str(",\"closed_form\":");
                write_f64(&mut out, *closed);
                let _ = write!(
                    out,
                    ",\"deadlock_free\":{},\"no_overtaking\":{},\"terminates\":{},\
                     \"violations\":[",
                    report.deadlock_free, report.no_overtaking, report.terminates
                );
                for (j, v) in report.violations().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"rule\":");
                    write_str(&mut out, v.kind.rule());
                    out.push_str(",\"src\":");
                    write_str(&mut out, &v.src.to_string());
                    out.push_str(",\"dst\":");
                    write_str(&mut out, &v.dst.to_string());
                    let _ = write!(out, ",\"steps\":{},\"message\":", v.trace.len());
                    write_str(&mut out, &v.message);
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}\n");
            out
        }
        _ => {
            let mut out = format!(
                "exhaustive model check: {cols}x{rows} mesh, {packet_len}-flit packets, \
                 ber {ber:.1e}, variant {}\n{routes} ordered routes per budget\n\n",
                variant.name()
            );
            let _ = writeln!(
                out,
                "{:>8} {:>9} {:>12} {:>18} {:>14} {:>14} {:>11}",
                "budget",
                "states",
                "transitions",
                "P(deliver) exact",
                "deadlock-free",
                "overtake-free",
                "terminates"
            );
            for (budget, _, report) in &reports {
                let _ = writeln!(
                    out,
                    "{:>8} {:>9} {:>12} {:>18.12} {:>14} {:>14} {:>11}",
                    budget,
                    report.total_states,
                    report.total_transitions,
                    report.deliver_probability,
                    if report.deadlock_free { "yes" } else { "NO" },
                    if report.no_overtaking { "yes" } else { "NO" },
                    if report.terminates { "yes" } else { "NO" },
                );
            }
            out.push('\n');
            for (budget, _, report) in &reports {
                for v in report.violations() {
                    let _ = writeln!(out, "[budget {budget}] {}", v.render());
                }
            }
            if all_proven {
                let _ = writeln!(out, "all proofs hold across {} budget(s)", reports.len());
            }
            out
        }
    };

    if all_proven {
        Ok(out)
    } else {
        Err(CliError::Experiment(format!(
            "model check found {total_violations} counterexample(s)\n{out}"
        )))
    }
}
