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

/// `i % n` for `i < 2 * n`, without a division (ring positions and
/// round-robin rotations stay below twice their modulus).
fn wrap(i: usize, n: usize) -> usize {
    if i >= n {
        i - n
    } else {
        i
    }
}

/// Per-VC input state. The flits themselves live in the router's flat
/// slot array, as a ring of `buffer_depth` slots per VC.
#[derive(Debug, Clone, Copy, Default)]
struct VcState {
    /// Ring position of the front flit.
    head: usize,
    /// Flits buffered.
    len: usize,
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
///
/// Per-VC state is stored flat, indexed `port * vcs + vc`, so a router is
/// a handful of allocations however many VCs it has, and a cycle of its
/// pipeline allocates nothing.
#[derive(Debug, Clone)]
pub struct Router {
    coord: Coord,
    vcs: usize,
    buffer_depth: usize,
    routing: crate::routing::RoutingAlgorithm,
    /// Input VC state, indexed `port * vcs + vc`.
    inputs: Vec<VcState>,
    /// Flit storage: input VC `q` owns the ring of slots
    /// `q * buffer_depth .. (q + 1) * buffer_depth`.
    slots: Vec<Option<Flit>>,
    /// Flits buffered across all inputs; an empty router skips RC, VA,
    /// SA and ST.
    buffered: usize,
    /// Credits available at the downstream buffer of each output VC,
    /// indexed `port * vcs + vc`. The Local output is an always-ready
    /// sink.
    out_credits: Vec<usize>,
    /// Whether a downstream VC is currently owned by a packet, indexed
    /// `port * vcs + vc`.
    out_vc_busy: Vec<bool>,
    /// VA requesters of the current cycle (reused across cycles).
    va_requesters: Vec<usize>,
    /// Round-robin pointers.
    rr_va: usize,
    rr_sa_in: [usize; 5],
    rr_sa_out: usize,
}

impl Router {
    /// Creates an idle router at `coord`.
    pub fn new(coord: Coord, config: &NocConfig) -> Self {
        config.validate();
        let vcs = config.vcs;
        let queues = Direction::ALL.len() * vcs;
        Self {
            coord,
            vcs,
            buffer_depth: config.buffer_depth,
            routing: config.routing,
            inputs: vec![VcState::default(); queues],
            slots: vec![None; queues * config.buffer_depth],
            buffered: 0,
            out_credits: vec![config.buffer_depth; queues],
            out_vc_busy: vec![false; queues],
            va_requesters: Vec::with_capacity(queues),
            rr_va: 0,
            rr_sa_in: [0; 5],
            rr_sa_out: 0,
        }
    }

    /// The router's mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Free buffer slots at an input VC.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is not one of the router's VCs.
    pub fn free_slots(&self, port: Direction, vc: usize) -> usize {
        self.buffer_depth - self.inputs[self.queue(port, vc)].len
    }

    /// Total buffered flits across all inputs (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.buffered
    }

    /// The packets with at least one flit buffered in this router (with
    /// repetitions; used to report the in-flight set of a stalled run).
    pub fn buffered_packets(&self) -> impl Iterator<Item = crate::packet::PacketId> + '_ {
        self.inputs.iter().enumerate().flat_map(move |(q, s)| {
            (0..s.len).filter_map(move |k| self.slots[self.slot(q, s.head + k)].map(|f| f.packet))
        })
    }

    /// The flat index `port * vcs + vc` of a VC.
    fn queue(&self, port: Direction, vc: usize) -> usize {
        assert!(vc < self.vcs, "VC {vc} out of range at {}", self.coord);
        port.index() * self.vcs + vc
    }

    /// Index into `slots` of ring position `pos` of input VC `q`.
    fn slot(&self, q: usize, pos: usize) -> usize {
        q * self.buffer_depth + wrap(pos, self.buffer_depth)
    }

    /// The flit at the front of input VC `q`.
    fn front(&self, q: usize) -> Option<&Flit> {
        let s = &self.inputs[q];
        if s.len == 0 {
            return None;
        }
        self.slots[self.slot(q, s.head)].as_ref()
    }

    /// Removes and returns the flit at the front of input VC `q`.
    fn pop_front(&mut self, q: usize) -> Option<Flit> {
        let s = self.inputs[q];
        if s.len == 0 {
            return None;
        }
        let at = self.slot(q, s.head);
        let flit = self.slots[at].take();
        self.inputs[q].head = wrap(s.head + 1, self.buffer_depth);
        self.inputs[q].len -= 1;
        self.buffered -= 1;
        flit
    }

    /// Credits available across all VCs of output `port`.
    fn port_credits(&self, port: Direction) -> usize {
        let first = port.index() * self.vcs;
        self.out_credits[first..first + self.vcs].iter().sum()
    }

    /// Accepts a flit into an input VC buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the upstream credit loop must make
    /// that impossible; a panic here means a flow-control bug — or if
    /// `vc` is not one of the router's VCs.
    pub fn accept(&mut self, port: Direction, vc: usize, flit: Flit) {
        let q = self.queue(port, vc);
        let s = self.inputs[q];
        assert!(
            s.len < self.buffer_depth,
            "buffer overflow at {} port {port} vc {vc}: credit protocol violated",
            self.coord
        );
        let at = self.slot(q, s.head + s.len);
        self.slots[at] = Some(flit);
        self.inputs[q].len += 1;
        self.buffered += 1;
    }

    /// Returns one credit for an output VC (the downstream router freed a
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is not one of the router's VCs.
    pub fn return_credit(&mut self, port: Direction, vc: usize) {
        let q = self.queue(port, vc);
        let c = &mut self.out_credits[q];
        *c += 1;
        debug_assert!(*c <= self.buffer_depth, "credit overflow");
    }

    /// Executes one cycle of the router pipeline, returning the flits sent
    /// and the allocation activity (for power accounting).
    pub fn step(&mut self, mesh: Mesh) -> (Vec<SentFlit>, RouterActivity) {
        let mut sent = Vec::new();
        let activity = self.step_into(mesh, &mut sent);
        (sent, activity)
    }

    /// [`Self::step`] appending the sent flits (at most one per output)
    /// to a buffer the caller owns; allocation-free once `sent` has room
    /// for five flits.
    pub(crate) fn step_into(&mut self, mesh: Mesh, sent: &mut Vec<SentFlit>) -> RouterActivity {
        let mut activity = RouterActivity::default();
        let vcs = self.vcs;
        if self.buffered == 0 {
            // Nothing to route, allocate or send: of the full pass only
            // the output arbiter's rotation would change state.
            self.rr_sa_out = self.rr_sa_out.wrapping_add(1);
            return activity;
        }

        // --- RC: heads at the front of an unrouted VC compute their port.
        for q in 0..self.inputs.len() {
            if self.inputs[q].route.is_some() {
                continue;
            }
            let Some(front) = self.front(q) else {
                continue;
            };
            if !front.kind.is_head() {
                continue;
            }
            let candidates = self.routing.candidates(mesh, self.coord, front.dst);
            // Adaptive choice: prefer the candidate whose output column
            // has the most downstream credits (a congestion-aware local
            // greedy). A routing function always offers at least one
            // port; an empty candidate set leaves the flit parked instead
            // of panicking.
            let Some(&dir) = candidates.iter().max_by_key(|&&d| self.port_credits(d)) else {
                continue;
            };
            self.inputs[q].route = Some(dir);
            activity.route_computations += 1;
        }

        // --- VA: routed VCs without a downstream VC bid for one.
        let mut requesters = std::mem::take(&mut self.va_requesters);
        requesters.clear();
        requesters.extend(
            self.inputs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.route.is_some() && s.out_vc.is_none() && s.len > 0)
                .map(|(q, _)| q),
        );
        if !requesters.is_empty() {
            let start = self.rr_va % requesters.len();
            for k in 0..requesters.len() {
                let q = requesters[wrap(start + k, requesters.len())];
                let Some(out) = self.inputs[q].route else {
                    continue; // requesters are routed by construction
                };
                // The Local output needs no VC ownership (ejection sink).
                if out == Direction::Local {
                    self.inputs[q].out_vc = Some(0);
                    activity.vc_allocations += 1;
                    continue;
                }
                let first = out.index() * vcs;
                if let Some(w) = (0..vcs).find(|&w| !self.out_vc_busy[first + w]) {
                    self.out_vc_busy[first + w] = true;
                    self.inputs[q].out_vc = Some(w);
                    activity.vc_allocations += 1;
                }
            }
            self.rr_va = self.rr_va.wrapping_add(1);
        }
        self.va_requesters = requesters;

        // --- SA, input-first: each input port nominates one VC...
        let mut nominations: [Option<usize>; 5] = [None; 5];
        for (port, nomination) in nominations.iter_mut().enumerate() {
            let start = wrap(self.rr_sa_in[port], vcs);
            for k in 0..vcs {
                let vc = wrap(start + k, vcs);
                let s = &self.inputs[port * vcs + vc];
                let ready = s.len > 0
                    && s.out_vc.is_some()
                    && s.route.is_some_and(|d| {
                        d == Direction::Local
                            || s.out_vc
                                .is_some_and(|w| self.out_credits[d.index() * vcs + w] > 0)
                    });
                if ready {
                    *nomination = Some(vc);
                    self.rr_sa_in[port] = vc + 1;
                    break;
                }
            }
        }
        // ...then each output port grants one nomination, and the winner
        // moves one flit (ST). A grant only touches its own input VC and
        // output, so granting and traversing in one sweep sends the same
        // flits in the same order as two separate passes.
        let mut granted_outputs = [false; 5];
        let start = self.rr_sa_out % 5;
        for k in 0..5 {
            let p = (start + k) % 5;
            let Some(v) = nominations[p] else {
                continue;
            };
            let q = p * vcs + v;
            let Some(out) = self.inputs[q].route else {
                continue; // nominees are routed by construction
            };
            if granted_outputs[out.index()] {
                continue;
            }
            granted_outputs[out.index()] = true;
            // Winners are VC-allocated and non-empty by the SA stage
            // above; a violated invariant skips the grant instead of
            // aborting the simulation.
            let Some(w) = self.inputs[q].out_vc else {
                continue;
            };
            let Some(flit) = self.pop_front(q) else {
                continue;
            };
            if out != Direction::Local {
                self.out_credits[out.index() * vcs + w] -= 1;
            }
            if flit.kind.is_tail() {
                if out != Direction::Local {
                    self.out_vc_busy[out.index() * vcs + w] = false;
                }
                self.inputs[q].route = None;
                self.inputs[q].out_vc = None;
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
        self.rr_sa_out = self.rr_sa_out.wrapping_add(1);
        activity
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
            r.out_credits[Direction::East.index() * cfg.vcs + vc] = 0;
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
        let east = Direction::East.index() * cfg.vcs..(Direction::East.index() + 1) * cfg.vcs;
        assert!(r.out_vc_busy[east.clone()].iter().any(|&b| b));
        // ...tail leaves, releasing it.
        let _ = r.step(mesh);
        assert!(r.out_vc_busy[east].iter().all(|&b| !b));
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
