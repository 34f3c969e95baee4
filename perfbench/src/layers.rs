//! Per-layer metrics recorded by the traced replays.
//!
//! Every traced run prints every metric of [`PER_LAYER`]; a layer a
//! workload does not exercise reads 0 there.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, `(name, unit)`, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tech.sample_s", "s"),
    ("tech.dice", "count"),
    ("link.elaborate_s", "s"),
    ("link.elaborations", "count"),
    ("link.certify_s", "s"),
    ("link.cert_hits", "count"),
    ("link.cert_hit_ratio", "ratio"),
    ("link.sweep_s", "s"),
    ("core.transmit_s", "s"),
    ("core.bits_simulated", "count"),
    ("core.bits_per_s", "1/s"),
    ("link.prbs_s", "s"),
    ("link.ber_run_s", "s"),
    ("link.ber_bits", "count"),
    ("link.ber_errors", "count"),
    ("link.certified_bits_ratio", "ratio"),
    ("link.bathtub_s", "s"),
    ("link.bathtub_bits", "count"),
    ("link.bathtub_errors", "count"),
    ("noc.network_new_s", "s"),
    ("noc.run_light_s", "s"),
    ("noc.run_near_sat_s", "s"),
    ("noc.router_cycles", "count"),
    ("noc.router_cycles_per_s", "1/s"),
    ("noc.link_hops", "count"),
    ("noc.buffer_writes", "count"),
    ("noc.retry_hops", "count"),
    ("noc.nacks", "count"),
    ("noc.packets_dropped", "count"),
    ("noc.retry_ratio", "ratio"),
    ("noc.retry_cost_s", "s"),
    ("model.verify_s", "s"),
    ("model.check_pair_max_s", "s"),
    ("model.states", "count"),
    ("model.transitions", "count"),
    ("model.states_per_s", "1/s"),
    ("model.bfs_s", "s"),
    ("model.dtmc_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("paper.immunity_ratio", "x"),
    ("paper.link_energy_fj_per_bit_mm", "fJ/bit/mm"),
];

/// One traced unit's layer metrics.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.0.insert(name, value);
    }

    /// The value of metric `name` (0 when the unit never recorded it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its host seconds to metric `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Sets `rate` to `count / seconds` when both were recorded.
    pub fn rate(&mut self, rate: &'static str, count: &str, seconds: &str) {
        let s = self.get(seconds);
        if s > 0.0 {
            self.set(rate, self.get(count) / s);
        }
    }

    /// The metric-wise median of several traced units.
    pub fn median(samples: &[Layers]) -> Layers {
        let mut names: Vec<&'static str> =
            samples.iter().flat_map(|s| s.0.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = Layers::default();
        for name in names {
            let mut values: Vec<f64> = samples.iter().map(|s| s.get(name)).collect();
            out.set(name, crate::median(&mut values));
        }
        out
    }
}
