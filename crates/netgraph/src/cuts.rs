//! Node-cut enumeration and the network-wide Erlang bound (paper §4).
//!
//! For every node subset `S`, pool the capacity crossing the cut in each
//! direction and the traffic that must cross it; the weighted Erlang
//! blocking of the pooled links lower-bounds the average network blocking
//! of *any* routing scheme (even with re-packing). The network bound is
//! the maximum over all cuts. The per-cut arithmetic lives in
//! [`altroute_teletraffic::bound`]; this module does the graph-side
//! enumeration.
//!
//! # Branch and bound
//!
//! [`erlang_bound`] visits every cut in mask order, as a plain maximum
//! would, but first asks [`cut_may_exceed`] whether the cut can beat the
//! best value so far. That test stops a cheap series for `1/B` as soon as
//! it proves the cut's value cannot exceed the incumbent (see its
//! docs for the rounding margin). Only the cuts it cannot rule out run the
//! O(C) Erlang-B recurrences of [`cut_bound`]. On NSFNet about ten of the
//! 2,047 cuts do.
//!
//! The result is bit-for-bit that of the plain maximum. A skipped cut's
//! value, *as computed*, is at most the incumbent, so the plain loop would
//! not have taken it either: it keeps the first strict improvement, and
//! ties still go to the lowest mask. Every cut the test lets through runs
//! the same [`cut_bound`] as before on the same [`cut_load`], whose
//! traffic is still summed in row-major demand order.

use crate::graph::Topology;
use crate::traffic::TrafficMatrix;
use altroute_teletraffic::bound::{cut_bound, cut_may_exceed, CutLoad};

/// The largest network [`erlang_bound`] enumerates: `2^23 − 1` cuts.
/// The paper's networks have 4 and 12 nodes.
pub const MAX_CUT_NODES: usize = 24;

/// The Erlang bound of a network: the best (largest) cut-set lower bound
/// on average blocking, with the cut that attains it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErlangBound {
    /// The lower bound on average network blocking, in `[0, 1]`.
    pub bound: f64,
    /// Bitmask over nodes of the maximising cut `S` (bit `i` set ⇔ node
    /// `i ∈ S`).
    pub cut_mask: u32,
}

/// Computes the traffic and pooled capacity crossing the cut given by
/// `mask` (bit `i` set ⇔ node `i` inside the cut).
pub fn cut_load(topo: &Topology, traffic: &TrafficMatrix, mask: u32) -> CutLoad {
    Crossings::new(topo, traffic).load(mask)
}

/// A network's links and positive demands, flattened once so that each
/// cut sums them without walking the topology and the traffic matrix
/// again.
struct Crossings {
    /// `(src, dst, capacity)` per link, in link-id order.
    links: Vec<(usize, usize, u32)>,
    /// `(i, j, T(i, j))` per positive demand, in row-major order.
    demands: Vec<(usize, usize, f64)>,
}

impl Crossings {
    fn new(topo: &Topology, traffic: &TrafficMatrix) -> Self {
        Crossings {
            links: topo
                .links()
                .iter()
                .map(|l| (l.src, l.dst, l.capacity))
                .collect(),
            demands: traffic.demands().collect(),
        }
    }

    fn load(&self, mask: u32) -> CutLoad {
        let inside = |n: usize| mask & (1 << n) != 0;
        let mut cl = CutLoad {
            traffic_out: 0.0,
            capacity_out: 0,
            traffic_in: 0.0,
            capacity_in: 0,
        };
        for &(src, dst, capacity) in &self.links {
            match (inside(src), inside(dst)) {
                (true, false) => cl.capacity_out += capacity,
                (false, true) => cl.capacity_in += capacity,
                _ => {}
            }
        }
        for &(i, j, t) in &self.demands {
            match (inside(i), inside(j)) {
                (true, false) => cl.traffic_out += t,
                (false, true) => cl.traffic_in += t,
                _ => {}
            }
        }
        cl
    }
}

/// The Erlang bound over all `2^n − 2` non-trivial node cuts.
///
/// Complementary cuts give identical values (the two directions swap), so
/// only masks with node 0 outside the cut are enumerated.
///
/// # Panics
///
/// Panics if the network has more than [`MAX_CUT_NODES`] nodes
/// (enumeration would be prohibitive) or the matrix size mismatches.
pub fn erlang_bound(topo: &Topology, traffic: &TrafficMatrix) -> ErlangBound {
    let n = topo.num_nodes();
    assert!(n >= 2, "need at least two nodes");
    assert!(
        n <= MAX_CUT_NODES,
        "cut enumeration supports at most {MAX_CUT_NODES} nodes, got {n}"
    );
    assert_eq!(traffic.num_nodes(), n, "traffic matrix size mismatch");
    let total = traffic.total();
    let crossings = Crossings::new(topo, traffic);
    let mut best = ErlangBound {
        bound: 0.0,
        cut_mask: 0,
    };
    // Enumerate subsets of {1, …, n−1}: node 0 always outside S.
    let limit: u32 = 1 << (n - 1);
    for rest in 1..limit {
        let mask = rest << 1;
        let cl = crossings.load(mask);
        if !cut_may_exceed(cl, total, best.bound) {
            continue;
        }
        let b = cut_bound(cl, total);
        if b > best.bound {
            best = ErlangBound {
                bound: b,
                cut_mask: mask,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use altroute_teletraffic::erlang::erlang_b;

    #[test]
    fn two_node_network_bound_is_erlang_b() {
        let mut topo = Topology::new();
        topo.add_nodes(2);
        topo.add_duplex(0, 1, 10);
        let mut m = TrafficMatrix::zero(2);
        m.set(0, 1, 9.0);
        m.set(1, 0, 9.0);
        let eb = erlang_bound(&topo, &m);
        // Only one cut: {1}. Both directions offered 9 Erlangs on 10 ckts.
        assert!((eb.bound - erlang_b(9.0, 10)).abs() < 1e-12);
        assert_eq!(eb.cut_mask, 0b10);
    }

    #[test]
    fn isolating_cut_dominates_on_uniform_k4() {
        // For K4 uniform with per-pair load a and C per link: the cut
        // isolating one node pools 3C against 3a in each direction.
        let topo = topologies::full_mesh(4, 100);
        let m = TrafficMatrix::uniform(4, 95.0);
        let eb = erlang_bound(&topo, &m);
        let single = erlang_b(3.0 * 95.0, 300);
        let weight = (3.0 * 95.0) / m.total();
        let expect = 2.0 * weight * single;
        assert!((eb.bound - expect).abs() < 1e-9, "{} vs {expect}", eb.bound);
        // The maximising cut isolates a single node.
        assert_eq!(eb.cut_mask.count_ones(), 1);
    }

    #[test]
    fn bound_scales_with_load() {
        let topo = topologies::nsfnet(100);
        let nominal = crate::estimate::nsfnet_nominal_traffic().traffic;
        let low = erlang_bound(&topo, &nominal.scaled(0.5)).bound;
        let mid = erlang_bound(&topo, &nominal).bound;
        let high = erlang_bound(&topo, &nominal.scaled(1.5)).bound;
        assert!(low <= mid && mid <= high);
        assert!(high > 0.05, "heavily overloaded NSFNet must show blocking");
    }

    #[test]
    fn nsfnet_nominal_bound_is_meaningful() {
        // At the nominal load several links exceed capacity (Λ up to 167 on
        // C = 100), so the bound must be clearly positive but below 1.
        let topo = topologies::nsfnet(100);
        let nominal = crate::estimate::nsfnet_nominal_traffic().traffic;
        let eb = erlang_bound(&topo, &nominal);
        assert!(eb.bound > 0.005 && eb.bound < 0.5, "bound {}", eb.bound);
        assert_ne!(eb.cut_mask, 0);
    }

    #[test]
    fn zero_traffic_bound_is_zero() {
        let topo = topologies::full_mesh(3, 10);
        let eb = erlang_bound(&topo, &TrafficMatrix::zero(3));
        assert_eq!(eb.bound, 0.0);
    }

    #[test]
    fn cut_load_counts_both_directions() {
        let topo = topologies::line(3, 7);
        let mut m = TrafficMatrix::zero(3);
        m.set(0, 2, 4.0);
        m.set(2, 0, 1.0);
        // Cut S = {0}: out crosses 0->1, in crosses 1->0.
        let cl = cut_load(&topo, &m, 0b001);
        assert_eq!(cl.capacity_out, 7);
        assert_eq!(cl.capacity_in, 7);
        assert!((cl.traffic_out - 4.0).abs() < 1e-12);
        assert!((cl.traffic_in - 1.0).abs() < 1e-12);
        // Cut S = {0, 2}: both links of the middle node cross.
        let cl = cut_load(&topo, &m, 0b101);
        assert_eq!(cl.capacity_out, 14);
        assert_eq!(cl.capacity_in, 14);
        // 0->2 and 2->0 both start and end inside S: they do not cross.
        assert_eq!(cl.traffic_out, 0.0);
        assert_eq!(cl.traffic_in, 0.0);
    }

    #[test]
    #[should_panic(expected = "at most 24 nodes")]
    fn too_many_nodes_panics() {
        let topo = topologies::ring(25, 1);
        erlang_bound(&topo, &TrafficMatrix::zero(25));
    }
}
