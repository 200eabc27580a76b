//! Property-based tests of the graph substrate on randomized meshes.

use altroute_netgraph::cuts::{cut_load, erlang_bound, ErlangBound};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::paths::{
    dijkstra, loop_free_paths, min_hop_path, min_hop_primaries, yen_k_shortest,
};
use altroute_netgraph::topologies::{
    full_mesh, nsfnet, power_law_mesh, quadrangle, random_mesh, srlg_groups,
};
use altroute_netgraph::traffic::{min_hop_primary_loads, TrafficMatrix};
use altroute_teletraffic::bound::cut_bound;
use proptest::prelude::*;

/// The Erlang bound as a plain maximum over every cut (node 0 outside),
/// built only from the public per-cut functions. Keeps the first strict
/// improvement, so ties go to the lowest mask.
fn brute_force_erlang_bound(topo: &Topology, traffic: &TrafficMatrix) -> ErlangBound {
    let total = traffic.total();
    let mut best = ErlangBound {
        bound: 0.0,
        cut_mask: 0,
    };
    for rest in 1..1u32 << (topo.num_nodes() - 1) {
        let mask = rest << 1;
        let b = cut_bound(cut_load(topo, traffic, mask), total);
        if b > best.bound {
            best = ErlangBound {
                bound: b,
                cut_mask: mask,
            };
        }
    }
    best
}

/// `erlang_bound` against the brute force: the same bits, the same cut.
fn assert_matches_brute_force(topo: &Topology, traffic: &TrafficMatrix) {
    let fast = erlang_bound(topo, traffic);
    let slow = brute_force_erlang_bound(topo, traffic);
    assert_eq!(
        fast.bound.to_bits(),
        slow.bound.to_bits(),
        "bound {} vs brute force {}",
        fast.bound,
        slow.bound
    );
    assert_eq!(fast.cut_mask, slow.cut_mask, "cut at bound {}", fast.bound);
}

/// A random network of `n` nodes from `seed`. Each ordered pair gets a
/// one-way link with probability 1/2 (capacity 1–100), so many cuts have
/// no capacity in one direction. Each pair offers traffic with
/// probability `density`, log-uniform over 0.01–200 Erlangs.
fn random_network(n: usize, density: f64, seed: u64) -> (Topology, TrafficMatrix) {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut topo = Topology::new();
    topo.add_nodes(n);
    let mut traffic = TrafficMatrix::zero(n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if next() < 0.5 {
                topo.add_link(i, j, 1 + (next() * 100.0) as u32);
            }
            if next() < density {
                traffic.set(i, j, 0.01 * 20_000f64.powf(next()));
            }
        }
    }
    (topo, traffic)
}

/// Strategy: a connected random mesh of 4–10 nodes.
fn mesh() -> impl Strategy<Value = altroute_netgraph::graph::Topology> {
    (4usize..=10, 0usize..6, 1u64..1000).prop_map(|(n, extra, seed)| {
        let max_chords = n * (n - 1) / 2 - n;
        random_mesh(n, extra.min(max_chords), 10, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Min-hop paths are genuinely minimal: no enumerated loop-free path
    /// is shorter.
    #[test]
    fn min_hop_is_minimal(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let min = min_hop_path(&topo, src, dst).expect("ring base keeps meshes connected");
        let all = loop_free_paths(&topo, src, dst, n - 1);
        prop_assert!(!all.is_empty());
        prop_assert_eq!(all[0].hops(), min.hops());
        for p in &all {
            prop_assert!(p.hops() >= min.hops());
        }
    }

    /// Every enumerated path is loop-free, connects the endpoints, and
    /// respects the hop cap; the list is sorted by length then nodes.
    #[test]
    fn enumeration_invariants(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100, cap in 1usize..9) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let paths = loop_free_paths(&topo, src, dst, cap);
        for p in &paths {
            prop_assert_eq!(p.src(), src);
            prop_assert_eq!(p.dst(), dst);
            prop_assert!(p.hops() <= cap);
            // Loop-free: all nodes distinct.
            let mut nodes = p.nodes().to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), p.nodes().len());
            // Links consistent with nodes.
            prop_assert_eq!(p.links().len() + 1, p.nodes().len());
        }
        for w in paths.windows(2) {
            prop_assert!(
                w[0].hops() < w[1].hops()
                    || (w[0].hops() == w[1].hops() && w[0].nodes() < w[1].nodes())
            );
        }
        // No duplicates.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                prop_assert_ne!(&paths[i], &paths[j]);
            }
        }
    }

    /// Yen with unit weights returns paths in the same length order and
    /// count as exhaustive enumeration (up to k).
    #[test]
    fn yen_matches_enumeration(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let all = loop_free_paths(&topo, src, dst, n - 1);
        let yen = yen_k_shortest(&topo, src, dst, all.len(), |_| 1.0);
        prop_assert_eq!(yen.len(), all.len());
        let mut h1: Vec<_> = all.iter().map(|p| p.hops()).collect();
        let mut h2: Vec<_> = yen.iter().map(|p| p.hops()).collect();
        h1.sort_unstable();
        h2.sort_unstable();
        prop_assert_eq!(h1, h2);
    }

    /// Yen's *ranking* agrees with the exhaustive enumeration's canonical
    /// order: for every prefix length k, the k shortest paths Yen returns
    /// have exactly the hop counts of the first k enumerated paths (ties
    /// may be ordered differently within a hop class, but never across
    /// one).
    #[test]
    fn yen_ranking_agrees_with_enumeration_prefixes(
        topo in mesh(),
        src_sel in 0usize..100,
        dst_sel in 0usize..100,
    ) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let all = loop_free_paths(&topo, src, dst, n - 1);
        for k in 1..=all.len() {
            let yen = yen_k_shortest(&topo, src, dst, k, |_| 1.0);
            prop_assert_eq!(yen.len(), k);
            for (y, a) in yen.iter().zip(&all) {
                prop_assert_eq!(y.hops(), a.hops(), "rank mismatch at k={}", k);
            }
            // Each returned path really is one of the enumerated ones.
            for y in &yen {
                prop_assert!(all.contains(y));
            }
        }
    }

    /// The ISP-scale generators are deterministic per seed and emit valid
    /// topologies: power-law meshes are strongly connected with the exact
    /// preferential-attachment link budget, and SRLG groups partition the
    /// links with duplex mates kept together.
    #[test]
    fn isp_scale_generators_are_deterministic_and_valid(
        n in 5usize..60,
        groups in 1usize..8,
        seed in 1u64..10_000,
    ) {
        let a = power_law_mesh(n, 16, seed);
        let b = power_law_mesh(n, 16, seed);
        prop_assert_eq!(a.num_links(), b.num_links());
        for l in 0..a.num_links() {
            prop_assert_eq!(
                (a.link(l).src, a.link(l).dst),
                (b.link(l).src, b.link(l).dst)
            );
        }
        prop_assert!(a.is_strongly_connected());
        prop_assert_eq!(a.num_links(), 2 * (4 + 2 * (n - 4)));

        let units = a.num_links() / 2;
        let groups = groups.min(units);
        let sg = srlg_groups(&a, groups, seed);
        prop_assert_eq!(&sg, &srlg_groups(&a, groups, seed));
        prop_assert_eq!(sg.len(), groups);
        let mut seen = vec![0usize; a.num_links()];
        for g in &sg {
            prop_assert!(!g.is_empty());
            for &l in g {
                seen[l] += 1;
                let link = a.link(l);
                let rev = a.link_between(link.dst, link.src).expect("duplex");
                prop_assert!(g.contains(&rev));
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Dijkstra under unit weights equals BFS hop count.
    #[test]
    fn dijkstra_unit_weight_is_min_hop(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let d = dijkstra(&topo, src, dst, |_| 1.0).unwrap();
        let b = min_hop_path(&topo, src, dst).unwrap();
        prop_assert_eq!(d.hops(), b.hops());
    }

    /// Eq. 1 conservation: total link load equals demand-weighted primary
    /// hop count; loads scale linearly with traffic.
    #[test]
    fn primary_loads_conservation_and_linearity(topo in mesh(), per_pair in 0.1f64..20.0) {
        let n = topo.num_nodes();
        let m = TrafficMatrix::uniform(n, per_pair);
        let primaries = min_hop_primaries(&topo);
        let loads = min_hop_primary_loads(&topo, &m);
        let total: f64 = loads.iter().sum();
        let expect: f64 = m
            .demands()
            .map(|(i, j, t)| t * primaries[i * n + j].as_ref().unwrap().hops() as f64)
            .sum();
        prop_assert!((total - expect).abs() < 1e-6 * expect.max(1.0));
        let doubled = min_hop_primary_loads(&topo, &m.scaled(2.0));
        for (a, b) in loads.iter().zip(&doubled) {
            prop_assert!((2.0 * a - b).abs() < 1e-9);
        }
    }

    /// Complementary cuts have mirrored loads, and the Erlang bound is a
    /// probability no larger than 1.
    #[test]
    fn cut_symmetry_and_bound_range(topo in mesh(), per_pair in 0.1f64..40.0, mask_sel in 1u32..1000) {
        let n = topo.num_nodes();
        let m = TrafficMatrix::uniform(n, per_pair);
        let full: u32 = (1 << n) - 1;
        let mask = (mask_sel % (full - 1)) + 1; // non-trivial cut
        let a = cut_load(&topo, &m, mask);
        let b = cut_load(&topo, &m, full & !mask);
        prop_assert_eq!(a.capacity_out, b.capacity_in);
        prop_assert_eq!(a.capacity_in, b.capacity_out);
        prop_assert!((a.traffic_out - b.traffic_in).abs() < 1e-9);
        let eb = erlang_bound(&topo, &m);
        prop_assert!((0.0..=1.0).contains(&eb.bound));
    }

    /// The branch-and-bound Erlang bound equals the plain maximum over
    /// every cut, bit for bit and cut for cut, on random networks of 2–12
    /// nodes with sparse traffic over five orders of magnitude.
    #[test]
    fn erlang_bound_matches_brute_force_on_random_networks(
        n in 2usize..=12,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let (topo, traffic) = random_network(n, density, seed);
        assert_matches_brute_force(&topo, &traffic);
        assert_matches_brute_force(&topo, &TrafficMatrix::zero(n));
    }

    /// Uniform traffic on a full mesh makes every cut of the same size
    /// tie; the lowest mask must still win.
    #[test]
    fn erlang_bound_ties_go_to_the_lowest_mask(
        n in 2usize..=10,
        capacity in 1u32..=200,
        per_pair in 0.01f64..200.0,
    ) {
        assert_matches_brute_force(&full_mesh(n, capacity), &TrafficMatrix::uniform(n, per_pair));
    }

    /// Nudging one demand of a tied full mesh makes the cuts it crosses
    /// beat their ties by a hair, late in mask order: the pruning test
    /// must not skip them.
    #[test]
    fn erlang_bound_finds_a_near_tie_late_in_mask_order(
        n in 3usize..=9,
        capacity in 1u32..=200,
        per_pair in 0.01f64..200.0,
        nudge in 1e-12f64..1e-6,
    ) {
        let mut traffic = TrafficMatrix::uniform(n, per_pair);
        traffic.set(n - 1, 0, per_pair * (1.0 + nudge));
        assert_matches_brute_force(&full_mesh(n, capacity), &traffic);
    }
}

#[test]
fn erlang_bound_matches_brute_force_on_the_paper_networks() {
    let topo = nsfnet(100);
    let nominal = nsfnet_nominal_traffic().traffic;
    for load in 1..=30 {
        assert_matches_brute_force(&topo, &nominal.scaled(f64::from(load) / 10.0));
    }
    // Fig. 3's quadrangle sweep, 40–110 Erlangs per pair.
    for load in (8..=22).map(|i| f64::from(i) * 5.0) {
        assert_matches_brute_force(&quadrangle(), &TrafficMatrix::uniform(4, load));
    }
}
