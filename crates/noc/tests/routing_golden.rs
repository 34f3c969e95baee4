//! Golden `NetworkStats` for the routing and load corners the benchmark
//! does not cover: 4×4 and 8×8 meshes, XY and west-first routing, a light
//! load (0.05) and one past saturation (0.30), error-free links (BER 0)
//! and noisy ones (BER 1e-2).
//!
//! The constants were recorded from the simulator before its router and
//! network cycle were made allocation-free; any change to arbitration
//! order, credit timing, injection or fault sampling shows up here as a
//! counter or histogram mismatch.

use srlr_noc::traffic::Pattern;
use srlr_noc::RoutingAlgorithm::{WestFirst, Xy};
use srlr_noc::{Histogram, Network, NetworkStats, NocConfig, RoutingAlgorithm};

const WARMUP: u64 = 200;
const MEASURE: u64 = 1000;

/// FNV-1a over the bin count, every bin and the overflow count.
fn digest(h: &Histogram) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(h.bins() as u64)
        .chain(h.counts().iter().copied())
        .chain(std::iter::once(h.overflow()));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Every field of `s`: the scalars as they are, the latency and
/// retry-delay histograms as digests.
fn fingerprint(s: &NetworkStats) -> [u64; 23] {
    let e = &s.energy;
    let f = &s.faults;
    [
        s.packets_injected,
        s.packets_received,
        s.packets_dropped,
        s.flits_received,
        s.latency_sum,
        s.latency_max,
        s.cycles,
        s.nodes as u64,
        e.buffer_writes,
        e.buffer_reads,
        e.link_hops,
        e.local_hops,
        e.allocations,
        e.router_cycles,
        e.retry_hops,
        e.nacks,
        f.flits_corrupted,
        f.flits_retransmitted,
        f.retries_exhausted,
        f.silent_corruptions,
        f.packets_dropped,
        digest(&s.latency_histogram),
        digest(&f.retry_delay),
    ]
}

fn run(side: u16, routing: RoutingAlgorithm, load: f64, ber: f64) -> NetworkStats {
    let config = NocConfig::paper_default()
        .with_size(side, side)
        .with_routing(routing)
        .with_ber(ber);
    Network::new(config).run_warmup_and_measure(Pattern::UniformRandom, load, WARMUP, MEASURE)
}

/// `(mesh side, routing, load, BER, fingerprint)`; each fingerprint row
/// holds the window counters, the energy counters, then the fault
/// tallies and the two histogram digests.
type Golden = (u16, RoutingAlgorithm, f64, f64, [u64; 23]);

#[rustfmt::skip]
const GOLDEN: [Golden; 16] = [
    (4, Xy, 0.05, 0.0, [
        766, 772, 0, 3861, 8857, 38, 1000, 16,
        14001, 14008, 10147, 3861, 19588, 16000, 0, 0,
        0, 0, 0, 0, 0, 6669605287787949151, 15754058480227753125,
    ]),
    (4, Xy, 0.05, 0.01, [
        766, 428, 345, 3869, 13373, 81, 1000, 16,
        14057, 14056, 10187, 3869, 19668, 16000, 11393, 11888,
        11888, 11393, 495, 0, 345, 4098656706170617431, 17362258942601528709,
    ]),
    (4, Xy, 0.3, 0.0, [
        4766, 2114, 0, 10546, 827923, 807, 1000, 16,
        38639, 38701, 28155, 10546, 54116, 16000, 0, 0,
        0, 0, 0, 0, 0, 358081092013585023, 15754058480227753125,
    ]),
    (4, Xy, 0.3, 0.01, [
        4766, 1051, 917, 9838, 440604, 802, 1000, 16,
        36368, 36357, 26519, 9838, 50893, 16000, 29612, 30951,
        30951, 29612, 1339, 0, 917, 17127374647820924615, 12027791814669624389,
    ]),
    (4, WestFirst, 0.05, 0.0, [
        766, 771, 0, 3860, 8855, 31, 1000, 16,
        13991, 13999, 10139, 3860, 19575, 16000, 0, 0,
        0, 0, 0, 0, 0, 17420973456662496380, 15754058480227753125,
    ]),
    (4, WestFirst, 0.05, 0.01, [
        766, 421, 352, 3881, 13395, 102, 1000, 16,
        14060, 14069, 10188, 3881, 19669, 16000, 11344, 11839,
        11839, 11344, 495, 0, 352, 11803334913495232040, 17362258942601528709,
    ]),
    (4, WestFirst, 0.3, 0.0, [
        4766, 2072, 0, 10387, 853651, 839, 1000, 16,
        38666, 38624, 28237, 10387, 54086, 16000, 0, 0,
        0, 0, 0, 0, 0, 17747171924097399577, 15754058480227753125,
    ]),
    (4, WestFirst, 0.3, 0.01, [
        4766, 995, 928, 9567, 433250, 832, 1000, 16,
        35455, 35410, 25843, 9567, 49593, 16000, 28960, 30276,
        30276, 28960, 1316, 0, 928, 3127114284060818597, 3695296637998498322,
    ]),
    (8, Xy, 0.05, 0.0, [
        3185, 3188, 0, 15905, 70251, 105, 1000, 64,
        100985, 100992, 85087, 15905, 141384, 64000, 0, 0,
        0, 0, 0, 0, 0, 13695799435266112165, 15754058480227753125,
    ]),
    (8, Xy, 0.05, 0.01, [
        3185, 967, 2215, 15894, 57802, 170, 1000, 64,
        101136, 101113, 85219, 15894, 141546, 64000, 95342, 99669,
        99669, 95342, 4327, 0, 2215, 14468626246038119558, 16541682269219096722,
    ]),
    (8, Xy, 0.3, 0.0, [
        19108, 4855, 0, 24269, 2554366, 1008, 1000, 64,
        154838, 154808, 130539, 24269, 216775, 64000, 0, 0,
        0, 0, 0, 0, 0, 14433036571048176395, 15754058480227753125,
    ]),
    (8, Xy, 0.3, 0.01, [
        19108, 1346, 2995, 21730, 732437, 1012, 1000, 64,
        137968, 137924, 116194, 21730, 193105, 64000, 130035, 135945,
        135946, 130035, 5910, 1, 2995, 14004978820281711027, 5974409711363063210,
    ]),
    (8, WestFirst, 0.05, 0.0, [
        3185, 3201, 0, 15985, 77130, 98, 1000, 64,
        101242, 101322, 85337, 15985, 141812, 64000, 0, 0,
        0, 0, 0, 0, 0, 11191153234984622024, 15754058480227753125,
    ]),
    (8, WestFirst, 0.05, 0.01, [
        3185, 990, 2190, 15859, 61440, 182, 1000, 64,
        100908, 100811, 84952, 15859, 141167, 64000, 94884, 99170,
        99170, 94884, 4286, 0, 2190, 17271251747734213039, 15925899383577958987,
    ]),
    (8, WestFirst, 0.3, 0.0, [
        19108, 3858, 0, 19271, 2033747, 1098, 1000, 64,
        120345, 120608, 101337, 19271, 168761, 64000, 0, 0,
        0, 0, 0, 0, 0, 16983511238641723928, 15754058480227753125,
    ]),
    (8, WestFirst, 0.3, 0.01, [
        19108, 1031, 2231, 16292, 579369, 1118, 1000, 64,
        100494, 100787, 84495, 16292, 141007, 64000, 94385, 98649,
        98650, 94385, 4264, 1, 2231, 10991768170526356344, 18361215105681375645,
    ]),
];

#[test]
fn routing_corners_match_the_recorded_stats() {
    let mut mismatches = Vec::new();
    for &(side, routing, load, ber, want) in &GOLDEN {
        let got = fingerprint(&run(side, routing, load, ber));
        if got != want {
            mismatches.push(format!(
                "{side}x{side} {routing} load {load} ber {ber}:\n  want {want:?}\n  got  {got:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
