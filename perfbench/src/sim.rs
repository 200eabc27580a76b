//! The three simulation workloads and the ways a replication can run.
//!
//! A workload is built in two steps: [`SimWorkload::setup`] (topology,
//! traffic, routing plans with their Eq.-15 levels and shadow tables,
//! and the `PathStore` warm — the benchmark's `setup_s`) and
//! [`SimWorkload::run`], which produces the workload's complete result
//! by running every replication through one [`Arm`].

use crate::probe::{
    AdmissionCounts, CountingAdmission, CountingRecorder, LayerCounts, TracedSelector,
};
use crate::stats::Digest;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::{OttKrishnanSelector, TieredSelector};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies::{self, power_law_mesh, srlg_groups, xorshift_stream};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{
    apply_static_failures, run_seed, run_seed_pooled, run_seed_recorded, run_seed_with_policy,
    RunConfig, SeedResult,
};
use altroute_sim::experiment::{Experiment, SimParams};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::trace::NullTraceSink;
use altroute_simcore::kernel::{
    AdmissionPolicy, KernelScratch, RouteSelector, TrunkReservation, Uncontrolled,
};
use altroute_simcore::pool::{default_workers, pool_run_with};
use altroute_telemetry::RunTelemetry;
use std::time::Instant;

/// How one replication is executed. All arms are outcome-identical by
/// the engine's contract; the benchmark checks it through the digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `run_seed_pooled` with a recycled scratch: the timed path.
    Pooled,
    /// `run_seed` with no observers: the base of the overhead ratios.
    Plain,
    /// `run_seed` with a `RunTelemetry` recorder attached.
    Recorded,
    /// `run_seed_with_policy` with counting and timing probes.
    Probed,
}

/// One replication's result, its host time and (on the probed arm) its
/// layer counts.
pub struct Rep {
    pub result: SeedResult,
    pub wall: f64,
    pub counts: Option<LayerCounts>,
}

fn probed<'p, A, S>(config: &RunConfig<'_>, admission: A, selector: S) -> (SeedResult, LayerCounts)
where
    A: AdmissionPolicy,
    S: RouteSelector<'p>,
{
    let admission_counts = AdmissionCounts::default();
    let mut admission = CountingAdmission {
        inner: admission,
        counts: &admission_counts,
    };
    let mut selector = TracedSelector {
        inner: selector,
        counts: &admission_counts,
        stats: Default::default(),
    };
    let mut recorder = CountingRecorder::default();
    let result = run_seed_with_policy(
        config,
        &mut admission,
        &mut selector,
        &mut NullTraceSink,
        &mut recorder,
    );
    let mut counts = LayerCounts {
        recorder,
        select: selector.stats,
        call_table_high_water: result.metrics.call_table_high_water,
        ..Default::default()
    };
    counts.absorb_admission(&admission_counts);
    (result, counts)
}

/// Runs one replication on `arm`. The probed arm maps each named policy
/// to the engine's own `(admission, selector)` pair, exactly as the
/// engine's dispatch does; the digest check proves the mapping.
pub fn run_rep(arm: Arm, config: &RunConfig<'_>, scratch: &mut KernelScratch) -> Rep {
    let t = Instant::now();
    let (result, counts) = match arm {
        Arm::Pooled => (run_seed_pooled(config, scratch), None),
        Arm::Plain => (run_seed(config), None),
        Arm::Recorded => {
            let capacities = config
                .plan
                .topology()
                .links()
                .iter()
                .map(|l| l.capacity)
                .collect();
            let mut telemetry = RunTelemetry::new(config.warmup, config.horizon, 1.0, capacities);
            (run_seed_recorded(config, &mut telemetry), None)
        }
        Arm::Probed => {
            let plan = config.plan;
            let (result, counts) = match config.policy {
                PolicyKind::SinglePath => {
                    probed(config, Uncontrolled, TieredSelector::single_path(plan))
                }
                PolicyKind::UncontrolledAlternate { .. } => {
                    probed(config, Uncontrolled, TieredSelector::new(plan))
                }
                PolicyKind::ControlledAlternate { .. } => probed(
                    config,
                    TrunkReservation::new(plan.protection_levels().to_vec()),
                    TieredSelector::new(plan),
                ),
                PolicyKind::OttKrishnan { .. } => {
                    probed(config, Uncontrolled, OttKrishnanSelector::new(plan))
                }
                other => panic!("no probed dispatch for policy {}", other.name()),
            };
            (result, Some(counts))
        }
    };
    Rep {
        result,
        wall: t.elapsed().as_secs_f64(),
        counts,
    }
}

/// Folds the deterministic fields of a replication into `d`: every
/// counter, the per-pair tallies and the engine gauges (wall clock
/// excluded).
pub fn digest_seed(d: &mut Digest, r: &SeedResult) {
    d.words(&[
        r.seed,
        r.offered,
        r.blocked,
        r.carried_primary,
        r.carried_alternate,
        r.dropped,
    ]);
    d.words(&r.per_pair_offered);
    d.words(&r.per_pair_blocked);
    let m = &r.metrics;
    d.words(&[
        m.events_processed,
        m.peak_queue_len as u64,
        m.peak_concurrent_calls as u64,
        m.call_table_high_water as u64,
    ]);
    for u in &m.link_utilization {
        d.word(u.to_bits());
    }
}

/// Every offered call was blocked or carried on exactly one tier.
pub fn conserved(r: &SeedResult) -> bool {
    r.offered == r.blocked + r.carried_primary + r.carried_alternate
}

/// What one complete result of a simulation workload produced.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    pub digest: u64,
    pub events: u64,
    pub offered: u64,
    pub blocked: u64,
    pub dropped: u64,
    pub replications: u64,
    /// Replications that broke conservation.
    pub violations: u64,
    /// Seconds spent inside replications (summed over workers).
    pub rep_secs: f64,
    /// Seconds of the simulation phase (the result after set-up).
    pub sim_secs: f64,
    /// Layer counts summed over replications (probed arm only).
    pub counts: Option<LayerCounts>,
    /// Cached pairs evicted by static failures and by revivals.
    pub evicted_on_failure: u64,
    pub evicted_on_revival: u64,
    /// Seconds spent re-warming the store after invalidations.
    pub refill_secs: f64,
    /// One digest per replication, in order.
    pub rep_digests: Vec<u64>,
    /// Kernel events per host second of each replication.
    pub rep_rates: Vec<f64>,
}

impl SimOutcome {
    fn absorb(&mut self, d: &mut Digest, rep: &Rep) {
        digest_seed(d, &rep.result);
        let mut own = Digest::default();
        digest_seed(&mut own, &rep.result);
        self.rep_digests.push(own.finish());
        self.rep_rates
            .push(rep.result.metrics.events_processed as f64 / rep.wall);
        self.events += rep.result.metrics.events_processed;
        self.offered += rep.result.offered;
        self.blocked += rep.result.blocked;
        self.dropped += rep.result.dropped;
        self.replications += 1;
        if !conserved(&rep.result) {
            self.violations += 1;
        }
        self.rep_secs += rep.wall;
        if let Some(c) = &rep.counts {
            self.counts.get_or_insert_with(Default::default).merge(c);
        }
    }
}

/// What set-up built, with the layer numbers the traced run reports.
pub struct SimState {
    pub plans: Vec<PlanEntry>,
    /// Demanded ordered pairs (warm and refill order).
    pub demand: Vec<(usize, usize)>,
    pub groups: Vec<Vec<usize>>,
    pub plan_build_secs: f64,
    pub store_warm_secs: f64,
    pub pairs_enumerated: u64,
    pub scratch: KernelScratch,
}

/// One routing plan and the runs it serves.
pub struct PlanEntry {
    pub plan: RoutingPlan,
    pub traffic: TrafficMatrix,
    pub policy: PolicyKind,
    pub load: f64,
    pub erlang_bound: f64,
}

/// The simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimWorkload {
    NsfnetFig6,
    QuadrangleChurn { horizon: f64 },
    LargemeshSrlg,
}

/// The paper's Figs. 6–7 sweep: loads 2..=14, four policies at H = 11,
/// at the fidelity of `fig6_nsfnet --quick` (three replications of 30
/// time units after a warm-up of 5). The full-fidelity figure takes
/// about 10 s per sweep on 2 cores, too long to repeat within one run.
const FIG6_LOADS: std::ops::RangeInclusive<u32> = 2..=14;
const FIG6_H: u32 = 11;
pub const FIG6_WARMUP: f64 = 5.0;
pub const FIG6_HORIZON: f64 = 30.0;
const FIG6_SEEDS: u32 = 3;

/// The `largemesh` full tier's network and demand pairs: fixed, so every
/// seed measures the same ISP-scale instance; the seed drives the call
/// arrivals of each round.
const MESH_NODES: usize = 1000;
const MESH_CAPACITY: u32 = 60;
const MESH_SEED: u64 = 0x1A26_E0ED;
const MESH_H: u32 = 4;
const MESH_CAP: usize = 8;
const MESH_PAIRS: usize = 2000;
const MESH_LOAD: f64 = 12.0;
const MESH_GROUPS: usize = 25;
pub const MESH_ROUNDS: usize = 2;
pub const MESH_WARMUP: f64 = 2.0;
pub const MESH_HORIZON: f64 = 4.0;

/// The `outage_churn` spec: link 0-1 of the C = 1000 quadrangle shape
/// goes down for 1.0 of every 2.5 time units from t = 10.
pub const CHURN_HORIZON: f64 = 100.0;
pub const CHURN_WARMUP: f64 = 5.0;

fn fig6_params(seed: u64) -> SimParams {
    SimParams {
        warmup: FIG6_WARMUP,
        horizon: FIG6_HORIZON,
        seeds: FIG6_SEEDS,
        base_seed: SimParams::default().base_seed ^ (seed << 32),
    }
}

fn fig6_policies() -> [PolicyKind; 4] {
    [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: FIG6_H },
        PolicyKind::ControlledAlternate { max_hops: FIG6_H },
        PolicyKind::OttKrishnan { max_hops: FIG6_H },
    ]
}

/// Samples `count` distinct ordered demand pairs (the `largemesh`
/// tier's scheme), seeded.
fn sample_demand_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut next = xorshift_stream(seed ^ 0xDE3A_4D5A_3313_7E55);
    let mut pairs = Vec::with_capacity(count);
    let mut taken = vec![false; n * n];
    while pairs.len() < count {
        let i = (next() % n as u64) as usize;
        let j = (next() % n as u64) as usize;
        if i == j || taken[i * n + j] {
            continue;
        }
        taken[i * n + j] = true;
        pairs.push((i, j));
    }
    pairs.sort_unstable();
    pairs
}

fn churn_failures(link: usize, horizon: f64) -> FailureSchedule {
    let mut failures = FailureSchedule::none();
    let mut down = 10.0;
    while down + 1.0 < horizon {
        failures = failures.with_outage(link, down, down + 1.0);
        down += 2.5;
    }
    failures
}

fn warm(plan: &RoutingPlan, demand: &[(usize, usize)]) {
    for &(i, j) in demand {
        std::hint::black_box(plan.candidates(i, j));
    }
}

impl SimState {
    /// Enumerates every demanded pair's candidate set in every plan.
    pub fn warm(&mut self) {
        let t = Instant::now();
        for entry in &self.plans {
            warm(&entry.plan, &self.demand);
        }
        self.store_warm_secs = t.elapsed().as_secs_f64();
        self.pairs_enumerated = self
            .plans
            .iter()
            .map(|e| e.plan.path_store().cached_pairs() as u64)
            .sum();
    }

    /// Links planned, summed over every plan.
    pub fn planned_links(&self) -> u64 {
        self.plans
            .iter()
            .map(|e| e.plan.topology().num_links() as u64)
            .sum()
    }
}

impl SimWorkload {
    /// Builds topology, traffic and plans, then warms the store: the
    /// benchmark's set-up.
    pub fn setup(self) -> SimState {
        let mut state = self.build();
        state.warm();
        state
    }

    /// Builds topology, traffic and the routing plans (primaries,
    /// Eq.-15 levels, shadow tables); the store stays cold.
    pub fn build(self) -> SimState {
        let t = Instant::now();
        let (plans, demand, groups) = match self {
            SimWorkload::NsfnetFig6 => {
                let nominal = nsfnet_nominal_traffic().traffic;
                let mut plans = Vec::new();
                for load in FIG6_LOADS.map(f64::from) {
                    let exp = Experiment::new(topologies::nsfnet(100), nominal.scaled(load / 10.0))
                        .expect("NSFNet instance is valid");
                    let erlang_bound = exp.erlang_bound();
                    for policy in fig6_policies() {
                        plans.push(PlanEntry {
                            plan: exp.plan_for(policy),
                            traffic: exp.traffic().clone(),
                            policy,
                            load,
                            erlang_bound,
                        });
                    }
                }
                let demand = nominal.demands().map(|(i, j, _)| (i, j)).collect();
                (plans, demand, Vec::new())
            }
            SimWorkload::QuadrangleChurn { .. } => {
                let traffic = TrafficMatrix::uniform(4, 900.0);
                let plan = RoutingPlan::min_hop(topologies::full_mesh(4, 1000), &traffic, 3);
                let demand = traffic.demands().map(|(i, j, _)| (i, j)).collect();
                let entry = PlanEntry {
                    plan,
                    traffic,
                    policy: PolicyKind::ControlledAlternate { max_hops: 3 },
                    load: 900.0,
                    erlang_bound: 0.0,
                };
                (vec![entry], demand, Vec::new())
            }
            SimWorkload::LargemeshSrlg => {
                let topo = power_law_mesh(MESH_NODES, MESH_CAPACITY, MESH_SEED);
                let groups = srlg_groups(&topo, MESH_GROUPS, MESH_SEED);
                let n = topo.num_nodes();
                let demand = sample_demand_pairs(n, MESH_PAIRS, MESH_SEED);
                let mut loads = vec![0.0_f64; n * n];
                for &(i, j) in &demand {
                    loads[i * n + j] = MESH_LOAD;
                }
                let traffic = TrafficMatrix::from_fn(n, |i, j| loads[i * n + j]);
                let plan = RoutingPlan::min_hop_capped(topo, &traffic, MESH_H, MESH_CAP);
                let entry = PlanEntry {
                    plan,
                    traffic,
                    policy: PolicyKind::ControlledAlternate { max_hops: MESH_H },
                    load: MESH_LOAD,
                    erlang_bound: 0.0,
                };
                (vec![entry], demand, groups)
            }
        };
        SimState {
            plans,
            demand,
            groups,
            plan_build_secs: t.elapsed().as_secs_f64(),
            store_warm_secs: 0.0,
            pairs_enumerated: 0,
            scratch: KernelScratch::new(),
        }
    }

    /// Worker threads the workload's replications run on.
    pub fn workers(self) -> usize {
        match self {
            SimWorkload::NsfnetFig6 => default_workers(),
            _ => 1,
        }
    }

    /// Produces the workload's complete result on `arm`.
    pub fn run(self, state: &mut SimState, arm: Arm, seed: u64) -> SimOutcome {
        let t = Instant::now();
        let mut out = SimOutcome::default();
        let mut d = Digest::default();
        let none = FailureSchedule::none();
        match self {
            SimWorkload::NsfnetFig6 => {
                let params = fig6_params(seed);
                let workers = self.workers();
                let mut summary = String::new();
                for entry in &state.plans {
                    let reps = pool_run_with(
                        params.seeds as usize,
                        workers,
                        None,
                        KernelScratch::new,
                        |scratch, i| {
                            let config = RunConfig {
                                plan: &entry.plan,
                                policy: entry.policy,
                                traffic: &entry.traffic,
                                warmup: params.warmup,
                                horizon: params.horizon,
                                seed: params.base_seed + i as u64,
                                failures: &none,
                            };
                            run_rep(arm, &config, scratch)
                        },
                    );
                    let (mut offered, mut blocked) = (0, 0);
                    for rep in &reps {
                        out.absorb(&mut d, rep);
                        offered += rep.result.offered;
                        blocked += rep.result.blocked;
                    }
                    // One point of the figure: pooled blocking of this
                    // policy at this load, next to the Erlang bound.
                    let blocking = blocked as f64 / offered.max(1) as f64;
                    summary.push_str(&format!(
                        "{} {} {:.6} {:.6}\n",
                        entry.load,
                        entry.policy.name(),
                        blocking,
                        entry.erlang_bound
                    ));
                }
                d.bytes(summary.as_bytes());
            }
            SimWorkload::QuadrangleChurn { horizon } => {
                let entry = &state.plans[0];
                let link01 = entry
                    .plan
                    .topology()
                    .link_between(0, 1)
                    .expect("quadrangle has 0-1");
                let failures = churn_failures(link01, horizon);
                let config = RunConfig {
                    plan: &entry.plan,
                    policy: entry.policy,
                    traffic: &entry.traffic,
                    warmup: CHURN_WARMUP,
                    horizon,
                    seed,
                    failures: &failures,
                };
                let rep = run_rep(arm, &config, &mut state.scratch);
                out.absorb(&mut d, &rep);
            }
            SimWorkload::LargemeshSrlg => {
                let SimState {
                    plans,
                    demand,
                    groups,
                    scratch,
                    ..
                } = state;
                let entry = &mut plans[0];
                for round in 0..MESH_ROUNDS {
                    let group = &groups[round % groups.len()];
                    let failures = FailureSchedule::static_down(group.iter().copied());
                    let evicted = apply_static_failures(&mut entry.plan, &failures);
                    let refill = Instant::now();
                    warm(&entry.plan, demand);
                    out.refill_secs += refill.elapsed().as_secs_f64();
                    let config = RunConfig {
                        plan: &entry.plan,
                        policy: entry.policy,
                        traffic: &entry.traffic,
                        warmup: MESH_WARMUP,
                        horizon: MESH_HORIZON,
                        seed: seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        failures: &failures,
                    };
                    let rep = run_rep(arm, &config, scratch);
                    out.absorb(&mut d, &rep);
                    let mut revived = 0;
                    for &l in group {
                        revived += entry.plan.set_link_state(l, true);
                    }
                    // Re-warm after the revival too, so every round (and
                    // every repeated run) starts from the same warm store.
                    let refill = Instant::now();
                    warm(&entry.plan, demand);
                    out.refill_secs += refill.elapsed().as_secs_f64();
                    d.words(&[evicted as u64, revived as u64]);
                    out.evicted_on_failure += evicted as u64;
                    out.evicted_on_revival += revived as u64;
                }
            }
        }
        out.digest = d.finish();
        out.sim_secs = t.elapsed().as_secs_f64();
        out
    }

    /// Times a store refill on a workload with no static failures: fail
    /// link 0, re-warm the demanded pairs, revive it and re-warm again.
    /// Returns `(evicted, seconds spent re-warming)`.
    pub fn refill_probe(state: &SimState) -> (u64, f64) {
        // The plan with the longest candidate paths: the costliest refill.
        let entry = state
            .plans
            .iter()
            .max_by_key(|e| e.plan.max_alternate_hops())
            .expect("a workload has a plan");
        let mut plan = entry.plan.clone();
        let mut evicted = plan.set_link_state(0, false) as u64;
        let t = Instant::now();
        warm(&plan, &state.demand);
        let mut secs = t.elapsed().as_secs_f64();
        evicted += plan.set_link_state(0, true) as u64;
        let t = Instant::now();
        warm(&plan, &state.demand);
        secs += t.elapsed().as_secs_f64();
        (evicted, secs)
    }
}
