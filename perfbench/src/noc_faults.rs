//! `noc_faults`: the BER fault-injection sweep on the paper's 8×8 mesh.
//!
//! One unit runs `ber_sweep` with uniform-random traffic over BERs from 0
//! (retries idle) to 1e-2 (most packets dropped), at the paper's load of
//! 0.05 and at 0.07, just below saturation. The router pipeline and the
//! fault/retry layer do all the work; there is no link physics. The two
//! loads separate idle per-cycle overhead from contention work. The unit
//! ends with the exhaustive 2×2 proof of the same retry protocol
//! ([`RetryProof`]), a few percent of its time. Work unit: router-cycles
//! simulated, warm-up included.

use crate::layers::Layers;
use crate::retry_proof::{RetryProof, Verified};
use crate::{Checks, Workload, DEFAULT_SEED};
use srlr_noc::fault::{ber_sweep, FaultConfig, FaultSweepPoint};
use srlr_noc::traffic::Pattern;
use srlr_noc::{Network, NocConfig};
use srlr_telemetry::{Clock, Profiler};

/// The swept link BERs.
const BERS: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];

/// Injection loads (packets/node/cycle): light, then near saturation.
const LOADS: [f64; 2] = [0.05, 0.07];

/// Warm-up and measurement windows in cycles.
const WARMUP: u64 = 250;
const MEASURE: u64 = 1000;

/// Mesh side.
const SIDE: u16 = 8;

/// Retries per flit before a packet is dropped.
const MAX_RETRIES: u32 = 4;

/// The link BER of the 2×2 proof: the sweep's 1e-3 point.
const PROOF_BER: f64 = 1e-3;

/// Per point at [`DEFAULT_SEED`], load-major: `(packets received, packets
/// dropped, flits retransmitted, link hops, retry hops, nacks)`.
const GOLDEN: [[u64; 6]; 10] = [
    [3187, 0, 0, 84744, 0, 0],
    [3190, 0, 64, 84698, 64, 64],
    [3184, 0, 684, 84680, 684, 684],
    [3185, 0, 7035, 84695, 7035, 7035],
    [950, 2215, 95433, 84796, 95433, 99816],
    [4476, 0, 0, 118162, 0, 0],
    [4470, 0, 98, 118071, 98, 98],
    [4471, 0, 948, 118355, 948, 948],
    [4478, 0, 9889, 118237, 9889, 9889],
    [1323, 2960, 128402, 114228, 128402, 134293],
];

/// The counters a golden point pins.
fn counters(p: &FaultSweepPoint) -> [u64; 6] {
    let s = &p.stats;
    [
        s.packets_received,
        s.packets_dropped,
        s.faults.flits_retransmitted,
        s.energy.link_hops,
        s.energy.retry_hops,
        s.energy.nacks,
    ]
}

/// The simulated results of one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// The sweep points of each load.
    sweeps: Vec<Vec<FaultSweepPoint>>,
    proof: Verified,
}

/// The workload's inputs.
pub struct NocFaults {
    seed: u64,
    base: NocConfig,
    template: FaultConfig,
    proof: RetryProof,
}

impl NocFaults {
    fn fault(&self, ber: f64) -> FaultConfig {
        FaultConfig {
            ber,
            ..self.template
        }
    }
}

impl Workload for NocFaults {
    type Outcome = Faults;

    fn setup(seed: u64) -> Self {
        let base = NocConfig::paper_default()
            .with_size(SIDE, SIDE)
            .with_seed(seed);
        let template = FaultConfig::new(0.0)
            .with_max_retries(MAX_RETRIES)
            .with_seed(seed);
        let inputs = Self {
            seed,
            base,
            template,
            proof: RetryProof::new(PROOF_BER, MAX_RETRIES),
        };
        // Build every point's network once, as the sweep will: this
        // validates each configuration before anything is timed.
        for &ber in &BERS {
            std::hint::black_box(Network::new(inputs.base.with_faults(inputs.fault(ber))));
        }
        inputs
    }

    fn run(&self) -> Faults {
        let sweeps = LOADS
            .iter()
            .map(|&load| {
                ber_sweep(
                    self.base,
                    self.template,
                    Pattern::UniformRandom,
                    load,
                    WARMUP,
                    MEASURE,
                    &BERS,
                    Some(1),
                )
            })
            .collect();
        Faults {
            sweeps,
            proof: self.proof.run(),
        }
    }

    fn work(&self) -> f64 {
        let nodes = f64::from(SIDE) * f64::from(SIDE);
        nodes * (WARMUP + MEASURE) as f64 * (LOADS.len() * BERS.len()) as f64
    }

    fn check(&self, out: &Faults, checks: &mut Checks) {
        self.proof.check(&out.proof, checks);
        let points: Vec<&FaultSweepPoint> = out.sweeps.iter().flatten().collect();
        if self.seed == DEFAULT_SEED {
            for (point, golden) in points.iter().zip(&GOLDEN) {
                checks.equal("sweep point counters", &counters(point), golden);
            }
            checks.equal("sweep points", &points.len(), &GOLDEN.len());
        }
        for sweep in &out.sweeps {
            if let Some(clean) = sweep.first() {
                let f = &clean.stats;
                checks.expect(
                    f.energy.retry_hops == 0 && f.energy.nacks == 0 && f.packets_dropped == 0,
                    || format!("retries at BER 0: {:?}", counters(clean)),
                );
            }
            for pair in sweep.windows(2) {
                let (a, b) = (
                    pair[0].stats.delivered_fraction(),
                    pair[1].stats.delivered_fraction(),
                );
                checks.expect(b <= a, || {
                    format!(
                        "delivered fraction rose from {a} to {b} at BER {}",
                        pair[1].ber
                    )
                });
            }
        }
    }

    fn traced(&self, l: &mut Layers) -> Faults {
        let mut sweeps = Vec::new();
        let mut measure_s = 0.0;
        for (&load, run) in LOADS.iter().zip(["noc.run_light_s", "noc.run_near_sat_s"]) {
            let mut sweep = Vec::new();
            let mut run_s = Vec::new();
            for &ber in &BERS {
                let mut net = l.time("noc.network_new_s", || {
                    Network::new(self.base.with_faults(self.fault(ber)))
                });
                let mut prof = Profiler::enabled(Clock::wall());
                let start = std::time::Instant::now();
                let stats = net.run_warmup_and_measure_profiled(
                    Pattern::UniformRandom,
                    load,
                    WARMUP,
                    MEASURE,
                    &mut prof,
                );
                run_s.push(start.elapsed().as_secs_f64());
                measure_s += prof
                    .snapshot()
                    .nodes
                    .iter()
                    .filter(|n| n.name == "noc.measure")
                    .map(|n| n.total_s)
                    .sum::<f64>();
                let e = &stats.energy;
                l.add("noc.router_cycles", e.router_cycles as f64);
                l.add("noc.link_hops", e.link_hops as f64);
                l.add("noc.buffer_writes", e.buffer_writes as f64);
                l.add("noc.retry_hops", e.retry_hops as f64);
                l.add("noc.nacks", e.nacks as f64);
                l.add("noc.packets_dropped", stats.packets_dropped as f64);
                sweep.push(FaultSweepPoint { ber, stats });
            }
            l.add(run, run_s.iter().sum());
            if let (Some(clean), Some(top)) = (run_s.first(), run_s.last()) {
                l.add("noc.retry_cost_s", top - clean);
            }
            sweeps.push(sweep);
        }
        if measure_s > 0.0 {
            l.set(
                "noc.router_cycles_per_s",
                l.get("noc.router_cycles") / measure_s,
            );
        }
        let hops = l.get("noc.link_hops") + l.get("noc.retry_hops");
        l.set("noc.retry_ratio", l.get("noc.retry_hops") / hops);
        Faults {
            sweeps,
            proof: self.proof.traced(l),
        }
    }
}
