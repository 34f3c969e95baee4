//! The 5-port virtual-channel wormhole router (paper Fig. 1).
//!
//! Pipeline: route computation (XY) and VC allocation for head flits,
//! separable input-first switch allocation, then switch + link traversal.
//! Flow control is credit-based; each input port carries `vcs` virtual
//! channels of `buffer_depth` flits (the paper's router: 4 VCs, 16
//! buffers per port).

use crate::packet::Flit;
use crate::power::DatapathKind;
use crate::topology::{Coord, Direction, Mesh};
use srlr_units::Frequency;
use std::collections::VecDeque;

/// Network configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Mesh columns.
    pub cols: u16,
    /// Mesh rows.
    pub rows: u16,
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Buffer slots per VC (flits).
    pub buffer_depth: usize,
    /// Datapath width in bits.
    pub flit_bits: usize,
    /// Packet length in flits.
    pub packet_len: usize,
    /// Router clock.
    pub clock: Frequency,
    /// Physical datapath implementation (energy model).
    pub datapath: DatapathKind,
    /// Extra pipeline cycles per hop beyond the single-cycle router +
    /// single-cycle link baseline (0 models an aggressively bypassed
    /// router; 1 gives the paper's 3-stage pipeline).
    pub extra_pipeline: u64,
    /// Routing algorithm.
    pub routing: crate::routing::RoutingAlgorithm,
    /// Traffic RNG seed.
    pub seed: u64,
    /// Link fault injection and retransmission; `None` simulates ideal
    /// error-free links (and costs nothing).
    pub fault: Option<crate::fault::FaultConfig>,
}

impl NocConfig {
    /// The paper's configuration: 8x8 mesh of 64-bit, 5-port routers with
    /// 4 VCs and 16 buffers per port, 1 GHz clock, SRLR datapath.
    pub fn paper_default() -> Self {
        Self {
            cols: 8,
            rows: 8,
            vcs: 4,
            buffer_depth: 4,
            flit_bits: 64,
            packet_len: 5,
            clock: Frequency::from_gigahertz(1.0),
            datapath: DatapathKind::SrlrLowSwing,
            extra_pipeline: 0,
            routing: crate::routing::RoutingAlgorithm::Xy,
            seed: 42,
            fault: None,
        }
    }

    /// Returns a copy with a different routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: crate::routing::RoutingAlgorithm) -> Self {
        self.routing = routing;
        self
    }

    /// Returns a copy with extra per-hop pipeline cycles.
    #[must_use]
    pub fn with_extra_pipeline(mut self, extra_pipeline: u64) -> Self {
        self.extra_pipeline = extra_pipeline;
        self
    }

    /// Returns a copy with a different mesh size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_size(mut self, cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        self.cols = cols;
        self.rows = rows;
        self
    }

    /// Returns a copy with a different datapath implementation.
    #[must_use]
    pub fn with_datapath(mut self, datapath: DatapathKind) -> Self {
        self.datapath = datapath;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different packet length (flits).
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero.
    #[must_use]
    pub fn with_packet_len(mut self, packet_len: usize) -> Self {
        assert!(packet_len > 0, "packets need at least one flit");
        self.packet_len = packet_len;
        self
    }

    /// Returns a copy with the given link fault model.
    #[must_use]
    pub fn with_faults(mut self, fault: crate::fault::FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Returns a copy whose links flip bits at `ber` under the default
    /// retransmission protocol (shorthand for
    /// `with_faults(FaultConfig::new(ber))`).
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1)`.
    #[must_use]
    pub fn with_ber(self, ber: f64) -> Self {
        self.with_faults(crate::fault::FaultConfig::new(ber))
    }

    /// The mesh described by this configuration.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.cols, self.rows)
    }

    /// Validates the structural parameters.
    ///
    /// # Panics
    ///
    /// Panics if VCs or buffer depth are zero, or the flit width is zero.
    pub fn validate(&self) {
        assert!(self.vcs > 0, "need at least one VC");
        assert!(self.buffer_depth > 0, "need at least one buffer slot");
        assert!(self.flit_bits > 0, "flit width must be non-zero");
        assert!(self.packet_len > 0, "packets need at least one flit");
        if let Some(fault) = &self.fault {
            fault.validate();
        }
    }
}

/// Per-VC input state.
#[derive(Debug, Clone, Default)]
struct VcState {
    buffer: VecDeque<Flit>,
    /// Output port assigned by route computation (None until RC).
    route: Option<Direction>,
    /// Downstream VC granted by VC allocation (None until VA).
    out_vc: Option<usize>,
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentFlit {
    /// The flit itself.
    pub flit: Flit,
    /// Output port it left through.
    pub out_port: Direction,
    /// Downstream VC it was sent on.
    pub out_vc: usize,
    /// Input port it was buffered at.
    pub in_port: Direction,
    /// Input VC it was buffered at.
    pub in_vc: usize,
}

/// Switch-allocation / VC-allocation activity of one cycle, for the
/// control-logic power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Route computations performed.
    pub route_computations: usize,
    /// VC allocation grants.
    pub vc_allocations: usize,
    /// Switch allocation grants (= flits traversing).
    pub switch_allocations: usize,
}

/// One 5-port mesh router.
#[derive(Debug, Clone)]
pub struct Router {
    coord: Coord,
    vcs: usize,
    buffer_depth: usize,
    routing: crate::routing::RoutingAlgorithm,
    /// Input state, indexed `[port][vc]`.
    inputs: Vec<Vec<VcState>>,
    /// Credits available at the downstream buffer of each output, indexed
    /// `[port][vc]`. The Local output is an always-ready sink.
    out_credits: Vec<Vec<usize>>,
    /// Whether a downstream VC is currently owned by a packet.
    out_vc_busy: Vec<Vec<bool>>,
    /// Round-robin pointers.
    rr_va: usize,
    rr_sa_in: Vec<usize>,
    rr_sa_out: usize,
}

impl Router {
    /// Creates an idle router at `coord`.
    pub fn new(coord: Coord, config: &NocConfig) -> Self {
        config.validate();
        let vcs = config.vcs;
        Self {
            coord,
            vcs,
            buffer_depth: config.buffer_depth,
            routing: config.routing,
            inputs: (0..5)
                .map(|_| (0..vcs).map(|_| VcState::default()).collect())
                .collect(),
            out_credits: (0..5).map(|_| vec![config.buffer_depth; vcs]).collect(),
            out_vc_busy: (0..5).map(|_| vec![false; vcs]).collect(),
            rr_va: 0,
            rr_sa_in: vec![0; 5],
            rr_sa_out: 0,
        }
    }

    /// The router's mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Free buffer slots at an input VC.
    pub fn free_slots(&self, port: Direction, vc: usize) -> usize {
        self.buffer_depth - self.inputs[port.index()][vc].buffer.len()
    }

    /// Total buffered flits across all inputs (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().flatten().map(|v| v.buffer.len()).sum()
    }

    /// The packets with at least one flit buffered in this router (with
    /// repetitions; used to report the in-flight set of a stalled run).
    pub fn buffered_packets(&self) -> impl Iterator<Item = crate::packet::PacketId> + '_ {
        self.inputs
            .iter()
            .flatten()
            .flat_map(|v| v.buffer.iter().map(|f| f.packet))
    }

    /// Accepts a flit into an input VC buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the upstream credit loop must make
    /// that impossible; a panic here means a flow-control bug.
    pub fn accept(&mut self, port: Direction, vc: usize, flit: Flit) {
        let state = &mut self.inputs[port.index()][vc];
        assert!(
            state.buffer.len() < self.buffer_depth,
            "buffer overflow at {} port {port} vc {vc}: credit protocol violated",
            self.coord
        );
        state.buffer.push_back(flit);
    }

    /// Returns one credit for an output VC (the downstream router freed a
    /// slot).
    pub fn return_credit(&mut self, port: Direction, vc: usize) {
        let c = &mut self.out_credits[port.index()][vc];
        *c += 1;
        debug_assert!(*c <= self.buffer_depth, "credit overflow");
    }

    /// Executes one cycle of the router pipeline, returning the flits sent
    /// and the allocation activity (for power accounting).
    pub fn step(&mut self, mesh: Mesh) -> (Vec<SentFlit>, RouterActivity) {
        let mut activity = RouterActivity::default();

        // --- RC: heads at the front of an unrouted VC compute their port.
        for port in 0..5 {
            for vc in 0..self.vcs {
                let state = &self.inputs[port][vc];
                if state.route.is_none() {
                    if let Some(front) = state.buffer.front() {
                        if front.kind.is_head() {
                            let candidates = self.routing.candidates(mesh, self.coord, front.dst);
                            // Adaptive choice: prefer the candidate whose
                            // output column has the most downstream
                            // credits (a congestion-aware local greedy).
                            // A routing function always offers at least
                            // one port; an empty candidate set leaves the
                            // flit parked instead of panicking.
                            let Some(&dir) = candidates
                                .iter()
                                .max_by_key(|d| self.out_credits[d.index()].iter().sum::<usize>())
                            else {
                                continue;
                            };
                            self.inputs[port][vc].route = Some(dir);
                            activity.route_computations += 1;
                        }
                    }
                }
            }
        }

        // --- VA: routed VCs without a downstream VC bid for one.
        let requesters: Vec<(usize, usize)> = (0..5)
            .flat_map(|p| (0..self.vcs).map(move |v| (p, v)))
            .filter(|&(p, v)| {
                let s = &self.inputs[p][v];
                s.route.is_some() && s.out_vc.is_none() && !s.buffer.is_empty()
            })
            .collect();
        if !requesters.is_empty() {
            let start = self.rr_va % requesters.len();
            for k in 0..requesters.len() {
                let (p, v) = requesters[(start + k) % requesters.len()];
                let Some(out) = self.inputs[p][v].route else {
                    continue; // requesters are routed by construction
                };
                let o = out.index();
                // The Local output needs no VC ownership (ejection sink).
                if out == Direction::Local {
                    self.inputs[p][v].out_vc = Some(0);
                    activity.vc_allocations += 1;
                    continue;
                }
                if let Some(w) = (0..self.vcs).find(|&w| !self.out_vc_busy[o][w]) {
                    self.out_vc_busy[o][w] = true;
                    self.inputs[p][v].out_vc = Some(w);
                    activity.vc_allocations += 1;
                }
            }
            self.rr_va = self.rr_va.wrapping_add(1);
        }

        // --- SA, input-first: each input port nominates one VC...
        let mut nominations: Vec<Option<(usize, usize)>> = vec![None; 5];
        #[allow(
            clippy::needless_range_loop,
            reason = "the port indexes both the nomination slot and the round-robin state"
        )]
        for port in 0..5 {
            let start = self.rr_sa_in[port] % self.vcs;
            for k in 0..self.vcs {
                let vc = (start + k) % self.vcs;
                let s = &self.inputs[port][vc];
                let ready = !s.buffer.is_empty()
                    && s.out_vc.is_some()
                    && s.route.is_some_and(|d| {
                        d == Direction::Local
                            || s.out_vc.is_some_and(|w| self.out_credits[d.index()][w] > 0)
                    });
                if ready {
                    nominations[port] = Some((port, vc));
                    self.rr_sa_in[port] = vc + 1;
                    break;
                }
            }
        }
        // ...then each output port grants one nomination.
        let mut granted_outputs = [false; 5];
        let mut winners: Vec<(usize, usize)> = Vec::new();
        let start = self.rr_sa_out % 5;
        for k in 0..5 {
            let port = (start + k) % 5;
            if let Some((p, v)) = nominations[port] {
                let Some(out) = self.inputs[p][v].route else {
                    continue; // nominees are routed by construction
                };
                if !granted_outputs[out.index()] {
                    granted_outputs[out.index()] = true;
                    winners.push((p, v));
                }
            }
        }
        self.rr_sa_out = self.rr_sa_out.wrapping_add(1);

        // --- ST: winners move one flit each.
        let mut sent = Vec::with_capacity(winners.len());
        for (p, v) in winners {
            // Winners are routed, VC-allocated and non-empty by the SA
            // stage above; a violated invariant skips the grant instead of
            // aborting the simulation.
            let (Some(out), Some(w)) = (self.inputs[p][v].route, self.inputs[p][v].out_vc) else {
                continue;
            };
            let Some(flit) = self.inputs[p][v].buffer.pop_front() else {
                continue;
            };
            if out != Direction::Local {
                self.out_credits[out.index()][w] -= 1;
            }
            if flit.kind.is_tail() {
                if out != Direction::Local {
                    self.out_vc_busy[out.index()][w] = false;
                }
                self.inputs[p][v].route = None;
                self.inputs[p][v].out_vc = None;
            }
            activity.switch_allocations += 1;
            sent.push(SentFlit {
                flit,
                out_port: out,
                out_vc: w,
                in_port: Direction::ALL[p],
                in_vc: v,
            });
        }
        (sent, activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};

    fn config() -> NocConfig {
        NocConfig::paper_default().with_size(4, 4)
    }

    fn head_tail_flit(dst: Coord) -> Flit {
        Packet::unicast(PacketId(1), Coord::new(0, 0), dst, 1, 0).flits(dst)[0]
    }

    #[test]
    fn flit_routes_and_leaves_in_one_pass() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, act) = r.step(mesh);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].out_port, Direction::East);
        assert_eq!(act.route_computations, 1);
        assert_eq!(act.vc_allocations, 1);
        assert_eq!(act.switch_allocations, 1);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn local_destination_ejects() {
        let cfg = config();
        let mut r = Router::new(Coord::new(2, 2), &cfg);
        r.accept(Direction::North, 1, head_tail_flit(Coord::new(2, 2)));
        let (sent, _) = r.step(cfg.mesh());
        assert_eq!(sent[0].out_port, Direction::Local);
    }

    #[test]
    fn credits_gate_transmission() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        // Exhaust all credits on the East output for every VC.
        for vc in 0..cfg.vcs {
            for _ in 0..cfg.buffer_depth {
                r.out_credits[Direction::East.index()][vc] = 0;
            }
        }
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, _) = r.step(mesh);
        assert!(sent.is_empty(), "no credits, nothing may leave");
        // Returning a credit unblocks it.
        r.return_credit(Direction::East, 0);
        let (sent, _) = r.step(mesh);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn one_flit_per_output_per_cycle() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        // Two flits from different inputs, both heading East.
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        r.accept(Direction::North, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, _) = r.step(mesh);
        assert_eq!(sent.len(), 1, "the East port can carry one flit/cycle");
        let (sent, _) = r.step(mesh);
        assert_eq!(sent.len(), 1, "the loser goes next cycle");
    }

    #[test]
    fn different_outputs_proceed_in_parallel() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1))); // East
        r.accept(Direction::North, 0, head_tail_flit(Coord::new(1, 0))); // South
        let (sent, _) = r.step(mesh);
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn wormhole_keeps_packet_contiguous_on_vc() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let pkt = Packet::unicast(PacketId(9), Coord::new(0, 1), Coord::new(3, 1), 3, 0);
        for f in pkt.flits(Coord::new(3, 1)) {
            r.accept(Direction::West, 2, f);
        }
        let mut kinds = Vec::new();
        for _ in 0..4 {
            let (sent, _) = r.step(mesh);
            for s in sent {
                kinds.push(s.flit.kind);
            }
        }
        use crate::packet::FlitKind::*;
        assert_eq!(kinds, vec![Head, Body, Tail]);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn buffer_overflow_panics() {
        let cfg = config();
        let mut r = Router::new(Coord::new(0, 0), &cfg);
        for _ in 0..=cfg.buffer_depth {
            r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 0)));
        }
    }

    #[test]
    fn tail_releases_downstream_vc() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let dst = Coord::new(3, 1);
        let pkt = Packet::unicast(PacketId(5), Coord::new(0, 1), dst, 2, 0);
        for f in pkt.flits(dst) {
            r.accept(Direction::West, 0, f);
        }
        // Head leaves, allocating a downstream VC...
        let _ = r.step(mesh);
        assert!(r.out_vc_busy[Direction::East.index()].iter().any(|&b| b));
        // ...tail leaves, releasing it.
        let _ = r.step(mesh);
        assert!(r.out_vc_busy[Direction::East.index()].iter().all(|&b| !b));
    }

    #[test]
    fn switch_arbitration_is_fair_between_inputs() {
        // Two inputs streaming to the same output must share it roughly
        // 50/50 under round-robin arbitration.
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let dst = Coord::new(3, 1);
        let mut from_west: i64 = 0;
        let mut from_north: i64 = 0;
        for round in 0..40 {
            // Keep both inputs loaded.
            if r.free_slots(Direction::West, 0) > 0 {
                r.accept(
                    Direction::West,
                    0,
                    Packet::unicast(PacketId(round * 2), Coord::new(0, 1), dst, 1, 0).flits(dst)[0],
                );
            }
            if r.free_slots(Direction::North, 0) > 0 {
                r.accept(
                    Direction::North,
                    0,
                    Packet::unicast(PacketId(round * 2 + 1), Coord::new(1, 2), dst, 1, 0)
                        .flits(dst)[0],
                );
            }
            let (sent, _) = r.step(mesh);
            for s in &sent {
                match s.in_port {
                    Direction::West => from_west += 1,
                    Direction::North => from_north += 1,
                    _ => {}
                }
                // Return the credit so the stream keeps flowing.
                r.return_credit(s.out_port, s.out_vc);
            }
        }
        let total = from_west + from_north;
        assert!(total >= 30, "arbitration starved the port: {total}");
        let imbalance = (from_west - from_north).abs();
        assert!(
            imbalance <= total / 4,
            "unfair split {from_west} vs {from_north}"
        );
    }

    #[test]
    fn config_validation() {
        let bad = NocConfig {
            vcs: 0,
            ..NocConfig::paper_default()
        };
        let result = std::panic::catch_unwind(|| bad.validate());
        assert!(result.is_err());
    }
}
