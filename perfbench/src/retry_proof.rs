//! The exhaustive proof of the retry protocol that `noc_faults` simulates:
//! `srlr_model::verify` on the 2×2 mesh of `ModelConfig::two_by_two`
//! (4-flit packets) with the sweep's retry budget, after *Probabilistic
//! Verification for Reliability of a Two-by-Two Network-on-Chip System*
//! (arXiv 2108.13148).
//!
//! It is part of the `noc_faults` unit rather than a workload of its own:
//! the model checker's speed swings by up to 1.5x with the host's load,
//! so a stand-alone `model_check` workload spread by 36 % between runs,
//! past any regression bound. Inside `noc_faults` it is a few percent of
//! the unit, and the traced run still measures the `model` layer. The
//! proof is exhaustive, so the seed changes nothing.

use crate::layers::Layers;
use crate::Checks;
use srlr_model::{check_pair_profiled, closed_form_delivery, verify, ModelConfig};
use srlr_telemetry::{Clock, Profiler};

/// How far the DTMC may sit from the closed-form delivery probability.
const DTMC_TOLERANCE: f64 = 1e-12;

/// `(states, transitions)` of the proof.
const GOLDEN: (usize, usize) = (3004, 17880);

/// The proof's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Verified {
    states: usize,
    transitions: usize,
    all_proven: bool,
    deliver_probability: f64,
}

/// The proof's inputs.
pub struct RetryProof {
    config: ModelConfig,
    /// The closed-form delivery probability the DTMC must reproduce.
    closed_form: f64,
}

impl RetryProof {
    /// The 2×2 proof at link BER `ber` with `max_retries` retries per flit.
    pub fn new(ber: f64, max_retries: u32) -> Self {
        let config = ModelConfig::two_by_two(ber, max_retries);
        let closed_form = closed_form_delivery(&config);
        Self {
            config,
            closed_form,
        }
    }

    /// Runs the proof.
    pub fn run(&self) -> Verified {
        let report = verify(&self.config);
        Verified {
            states: report.total_states,
            transitions: report.total_transitions,
            all_proven: report.all_proven(),
            deliver_probability: report.deliver_probability,
        }
    }

    /// Checks the proof against its golden size and the closed form.
    pub fn check(&self, v: &Verified, checks: &mut Checks) {
        checks.equal(
            "proof (states, transitions)",
            &(v.states, v.transitions),
            &GOLDEN,
        );
        checks.expect(v.all_proven, || "an obligation was not proven".to_owned());
        let gap = (v.deliver_probability - self.closed_form).abs();
        checks.expect(gap <= DTMC_TOLERANCE, || {
            format!(
                "DTMC {} is {gap:e} from the closed form {}",
                v.deliver_probability, self.closed_form
            )
        });
    }

    /// Replays [`verify`] route by route through `check_pair_profiled`.
    pub fn traced(&self, l: &mut Layers) -> Verified {
        let mut prof = Profiler::enabled(Clock::wall());
        let mesh = self.config.mesh;
        let mut pairs = Vec::new();
        let mut pair_max: f64 = 0.0;
        // The route order of `verify`, so the delivery mean sums alike.
        for s in 0..mesh.len() {
            for d in 0..mesh.len() {
                if s == d {
                    continue;
                }
                let start = std::time::Instant::now();
                let pair = check_pair_profiled(
                    &self.config,
                    mesh.coord_of(s),
                    mesh.coord_of(d),
                    &mut prof,
                );
                let pair_s = start.elapsed().as_secs_f64();
                l.add("model.verify_s", pair_s);
                pair_max = pair_max.max(pair_s);
                pairs.push(pair);
            }
        }
        for node in prof.snapshot().nodes {
            match node.name.as_str() {
                "model.bfs" => l.add("model.bfs_s", node.total_s),
                "model.dtmc" => l.add("model.dtmc_s", node.total_s),
                _ => {}
            }
        }
        let verified = Verified {
            states: pairs.iter().map(|p| p.states).sum(),
            transitions: pairs.iter().map(|p| p.transitions).sum(),
            all_proven: pairs.iter().all(|p| p.all_proven()),
            deliver_probability: pairs.iter().map(|p| p.deliver_probability).sum::<f64>()
                / pairs.len() as f64,
        };
        l.set("model.states", verified.states as f64);
        l.set("model.transitions", verified.transitions as f64);
        l.set("model.check_pair_max_s", pair_max);
        l.rate("model.states_per_s", "model.states", "model.verify_s");
        verified
    }
}
