//! Ablation — how good is Eq. 15's choice of `r`?
//!
//! The paper picks the smallest `r` satisfying the Theorem 1 budget; Key
//! (§2.2 of \[21\]) argues trunk reservation is robust near its optimum.
//! This ablation sweeps a *uniform* protection level `r` across all links
//! of the quadrangle at three loads and marks where Eq. 15's per-link
//! choice lands: it should sit in the flat bottom of each blocking curve.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::{Decision, OccupancyView, PolicyKind, Router};
use altroute_experiments::output::fmt_prob;
use altroute_experiments::Table;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::SimParams;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        SimParams {
            warmup: 5.0,
            horizon: 30.0,
            seeds: 3,
            ..SimParams::default()
        }
    } else {
        SimParams::default()
    };
    let loads = [85.0, 90.0, 95.0];
    let rs: Vec<u32> = vec![0, 1, 2, 3, 5, 8, 12, 16, 20, 30, 50, 100];
    let mut table = Table::new(["r", "load85", "load90", "load95"]);
    let mut eq15 = Vec::new();
    let mut curves: Vec<Vec<f64>> = vec![Vec::new(); loads.len()];
    for (li, &load) in loads.iter().enumerate() {
        let traffic = TrafficMatrix::uniform(4, load);
        let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
        eq15.push(plan.protection(0));
        for &r in &rs {
            curves[li].push(sweep_uniform(&plan, &traffic, r, &params));
        }
    }
    for (i, &r) in rs.iter().enumerate() {
        table.row([
            r.to_string(),
            fmt_prob(curves[0][i]),
            fmt_prob(curves[1][i]),
            fmt_prob(curves[2][i]),
        ]);
    }
    println!("Ablation: uniform protection level r on the quadrangle (H = 3)\n");
    println!("{}", table.render());
    println!(
        "Eq. 15 chooses r = {}, {}, {} at loads 85, 90, 95 — it should sit in the",
        eq15[0], eq15[1], eq15[2]
    );
    println!("flat bottom of each column (robustness of state protection).");
    if let Ok(path) = table.write_csv("protection_sweep") {
        println!("wrote {}", path.display());
    }
}

/// Simulates the controlled policy with every link's protection forced to
/// `r`, sharing the production decision logic via
/// `Router::decide_tiered_with`.
fn sweep_uniform(plan: &RoutingPlan, traffic: &TrafficMatrix, r: u32, params: &SimParams) -> f64 {
    use altroute_sim::network::NetworkState;
    use altroute_simcore::queue::EventQueue;
    use altroute_simcore::rng::StreamFactory;

    #[derive(Clone, Copy)]
    enum Ev {
        Arrival { pair: u32 },
        Departure { call: u32 },
    }

    let topo = plan.topology();
    let n = topo.num_nodes();
    let levels = vec![r; topo.num_links()];
    let router = Router::new(
        plan,
        PolicyKind::ControlledAlternate {
            max_hops: plan.max_alternate_hops(),
        },
    );
    let end = params.warmup + params.horizon;
    let (mut blocked_total, mut offered_total) = (0u64, 0u64);
    for s in 0..params.seeds {
        let seed = params.base_seed + u64::from(s);
        let factory = StreamFactory::new(seed);
        let mut network = NetworkState::new(topo);
        let mut streams: Vec<Option<altroute_simcore::rng::RngStream>> =
            (0..n * n).map(|_| None).collect();
        let mut rates = vec![0.0; n * n];
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (i, j, t) in traffic.demands() {
            let pair = i * n + j;
            rates[pair] = t;
            let mut st = factory.stream(pair as u64);
            let first = st.exp(t);
            streams[pair] = Some(st);
            if first < end {
                queue.schedule(first, Ev::Arrival { pair: pair as u32 });
            }
        }
        let mut calls: Vec<Option<Vec<usize>>> = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            if now >= end {
                break;
            }
            match ev {
                Ev::Arrival { pair } => {
                    let pair = pair as usize;
                    let (src, dst) = (pair / n, pair % n);
                    let st = streams[pair].as_mut().unwrap();
                    let hold = st.holding_time();
                    let upick = st.uniform();
                    let gap = st.exp(rates[pair]);
                    if now + gap < end {
                        queue.schedule(now + gap, Ev::Arrival { pair: pair as u32 });
                    }
                    let measured = now >= params.warmup;
                    if measured {
                        offered_total += 1;
                    }
                    match router.decide_tiered_with(src, dst, &network, upick, Some(&levels)) {
                        Decision::Route { path, .. } => {
                            network.book(path.links());
                            let id = calls.len() as u32;
                            calls.push(Some(path.links().to_vec()));
                            queue.schedule(now + hold, Ev::Departure { call: id });
                        }
                        Decision::Blocked => {
                            if measured {
                                blocked_total += 1;
                            }
                        }
                    }
                }
                Ev::Departure { call } => {
                    if let Some(links) = calls[call as usize].take() {
                        let occ_check: u32 = network.occupancy(links[0]);
                        debug_assert!(occ_check > 0);
                        network.release(&links);
                    }
                }
            }
        }
    }
    blocked_total as f64 / offered_total as f64
}
