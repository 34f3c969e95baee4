//! Routing algorithms: deterministic XY and a deadlock-free adaptive
//! alternative (west-first turn model).
//!
//! The paper's introduction cites minimal adaptive routing \[13\] among
//! the NoC techniques orthogonal to its datapath contribution. This
//! module provides it as a drop-in so the mesh substrate can evaluate
//! datapath energy under adaptive traffic spreading too:
//!
//! * [`RoutingAlgorithm::Xy`] — dimension-ordered, the default.
//! * [`RoutingAlgorithm::WestFirst`] — Glass/Ni turn model: any westward
//!   travel happens first, after which packets may route adaptively among
//!   the remaining (N/S/E) productive directions. Prohibiting the two
//!   turns into the west direction breaks every cycle in the channel
//!   dependence graph, so the algorithm is deadlock-free without extra
//!   virtual channels.

use crate::topology::{Coord, Direction, Mesh};

/// Which routing function routers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingAlgorithm {
    /// Deterministic X-then-Y.
    #[default]
    Xy,
    /// West-first minimal adaptive.
    WestFirst,
}

impl RoutingAlgorithm {
    /// The productive output ports this algorithm permits at `here` for a
    /// packet to `dst`, in preference order. Always non-empty for
    /// `here != dst`; contains exactly `Local` when arrived. Every
    /// candidate set is a static slice, so routing allocates nothing.
    pub fn candidates(self, mesh: Mesh, here: Coord, dst: Coord) -> &'static [Direction] {
        use core::cmp::Ordering;
        use Direction::{East, Local, North, South, West};
        if here == dst {
            return &[Local];
        }
        match self {
            RoutingAlgorithm::Xy => match mesh.xy_route(here, dst) {
                North => &[North],
                South => &[South],
                East => &[East],
                West => &[West],
                Local => &[Local],
            },
            // Any westward component must be exhausted first; after that
            // the east and north/south steps are both productive.
            RoutingAlgorithm::WestFirst => match (dst.x.cmp(&here.x), dst.y.cmp(&here.y)) {
                (Ordering::Less, _) => &[West],
                (Ordering::Greater, Ordering::Greater) => &[East, North],
                (Ordering::Greater, Ordering::Less) => &[East, South],
                (Ordering::Greater, Ordering::Equal) => &[East],
                (Ordering::Equal, Ordering::Greater) => &[North],
                (Ordering::Equal, Ordering::Less) => &[South],
                (Ordering::Equal, Ordering::Equal) => &[Local],
            },
        }
    }

    /// `true` when the algorithm may return more than one candidate.
    pub fn is_adaptive(self) -> bool {
        matches!(self, RoutingAlgorithm::WestFirst)
    }
}

impl core::fmt::Display for RoutingAlgorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Xy => f.write_str("XY"),
            Self::WestFirst => f.write_str("west-first adaptive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn xy_returns_the_single_dimension_ordered_port() {
        let c = RoutingAlgorithm::Xy.candidates(mesh(), Coord::new(1, 1), Coord::new(4, 5));
        assert_eq!(c, vec![Direction::East]);
    }

    #[test]
    fn west_first_exhausts_west_before_anything() {
        let c = RoutingAlgorithm::WestFirst.candidates(mesh(), Coord::new(5, 2), Coord::new(1, 6));
        assert_eq!(c, vec![Direction::West]);
    }

    #[test]
    fn west_first_is_adaptive_in_the_east_quadrant() {
        let c = RoutingAlgorithm::WestFirst.candidates(mesh(), Coord::new(1, 1), Coord::new(4, 5));
        assert_eq!(c, vec![Direction::East, Direction::North]);
    }

    #[test]
    fn candidates_are_always_productive() {
        // Every offered port reduces the distance to the destination.
        for algo in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
            for (hx, hy, dx, dy) in [(0, 0, 7, 7), (7, 7, 0, 0), (3, 5, 3, 1), (6, 2, 2, 2)] {
                let here = Coord::new(hx, hy);
                let dst = Coord::new(dx, dy);
                for &dir in algo.candidates(mesh(), here, dst) {
                    let next = mesh().neighbor(here, dir).expect("in mesh");
                    assert!(
                        next.hop_distance(dst) < here.hop_distance(dst),
                        "{algo}: unproductive {dir} at {here} -> {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn west_first_never_turns_into_west() {
        // The turn-model invariant: once any non-west port is offered,
        // West is never among the candidates.
        for hx in 0..8u16 {
            for dxx in 0..8u16 {
                let here = Coord::new(hx, 3);
                let dst = Coord::new(dxx, 6);
                let c = RoutingAlgorithm::WestFirst.candidates(mesh(), here, dst);
                if c.contains(&Direction::West) {
                    assert_eq!(c, vec![Direction::West], "west must be exclusive");
                }
            }
        }
    }

    #[test]
    fn arrived_packets_go_local() {
        for algo in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
            let c = algo.candidates(mesh(), Coord::new(2, 2), Coord::new(2, 2));
            assert_eq!(c, vec![Direction::Local]);
        }
    }

    #[test]
    fn adaptivity_flag() {
        assert!(!RoutingAlgorithm::Xy.is_adaptive());
        assert!(RoutingAlgorithm::WestFirst.is_adaptive());
        assert_eq!(RoutingAlgorithm::default(), RoutingAlgorithm::Xy);
    }
}
