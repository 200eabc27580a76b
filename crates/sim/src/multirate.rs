//! Multirate calls — the "multiple call types" the paper excludes from
//! its preliminary study, as an extension.
//!
//! Calls come in classes of different bandwidth (in circuit units of the
//! single-rate model). A link admits a primary call of bandwidth `b`
//! while `occupancy + b ≤ C`, and an alternate-routed call while
//! `occupancy + b ≤ C − r` — the natural bandwidth-weighted reading of
//! the paper's state protection. Protection levels are computed from
//! Eq. 15 with the link's primary load measured in **bandwidth units**
//! (`Λ = Σ_classes b_c · Λ_c`), a heuristic the single-rate theorem does
//! not formally cover; the single-link behaviour is validated against
//! the exact Kaufman–Roberts recursion
//! ([`altroute_teletraffic::kaufman_roberts`]) in this module's tests.
//!
//! On the simulation kernel a multirate run is just the tiered selector
//! with per-source bandwidths: each (class, pair) is one
//! [`ArrivalSource`] whose `bandwidth` the kernel books and the
//! admission policy tests, and whose `tally` is the class index — the
//! kernel's tally vectors *are* the per-class offered/blocked counts.
//! Replications fan out over [`pool_record`] and dynamic link failures
//! are honoured (calls in progress are torn down, the paper's outage
//! model).

use crate::failures::FailureSchedule;
use altroute_core::plan::RoutingPlan;
use altroute_core::primary::PrimaryAssignment;
use altroute_core::select::TieredSelector;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    self, ArrivalSource, KernelConfig, KernelScratch, KernelSpec, Recording, TrunkReservation,
    Uncontrolled,
};
use altroute_simcore::pool::{default_workers, pool_record};
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{NullRecorder, Recorder, RunTelemetry};
use altroute_teletraffic::reservation::protection_level;

/// One bandwidth class of offered traffic.
#[derive(Debug, Clone)]
pub struct BandwidthClass {
    /// Bandwidth units each call of this class occupies on every link of
    /// its path.
    pub bandwidth: u32,
    /// Offered calls (Erlangs) per ordered pair.
    pub traffic: TrafficMatrix,
}

/// Which admission rule alternate-routed calls face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiratePolicy {
    /// Primary path only.
    SinglePath,
    /// Alternates admitted whenever the bandwidth fits.
    Uncontrolled,
    /// Alternates admitted only below the protection threshold.
    Controlled,
}

impl MultiratePolicy {
    /// Short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            MultiratePolicy::SinglePath => "single-path",
            MultiratePolicy::Uncontrolled => "uncontrolled",
            MultiratePolicy::Controlled => "controlled",
        }
    }
}

/// Parameters of a multirate experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultirateParams {
    /// Warm-up discarded from statistics.
    pub warmup: f64,
    /// Measured duration.
    pub horizon: f64,
    /// Replications.
    pub seeds: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Alternate hop bound `H`.
    pub max_hops: u32,
}

impl Default for MultirateParams {
    fn default() -> Self {
        Self {
            warmup: 10.0,
            horizon: 100.0,
            seeds: 10,
            base_seed: 0x11BA,
            max_hops: 5,
        }
    }
}

/// Aggregated multirate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MultirateResult {
    /// The policy that ran.
    pub policy: MultiratePolicy,
    /// Across-seed call blocking (all classes pooled).
    pub blocking: BlockingSummary,
    /// Per-class pooled blocking, in class order.
    pub per_class_blocking: Vec<f64>,
    /// Across-seed *bandwidth* blocking (lost units / offered units).
    pub bandwidth_blocking: BlockingSummary,
}

impl MultirateResult {
    /// Mean call blocking across seeds.
    pub fn blocking_mean(&self) -> f64 {
        self.blocking.mean()
    }
}

/// Builds the plan from the bandwidth-weighted aggregate traffic (it
/// also supplies candidates and primaries, identical across classes)
/// and its Eq.-15 protection levels.
fn build_plan(
    topo: &Topology,
    classes: &[BandwidthClass],
    params: &MultirateParams,
) -> (RoutingPlan, Vec<u32>) {
    let n = topo.num_nodes();
    let mut weighted = TrafficMatrix::zero(n);
    for (i, j) in topo.ordered_pairs() {
        let total: f64 = classes
            .iter()
            .map(|c| c.traffic.get(i, j) * f64::from(c.bandwidth))
            .sum();
        weighted.set(i, j, total);
    }
    let primaries = PrimaryAssignment::min_hop(topo);
    let plan = RoutingPlan::with_primaries(topo.clone(), &weighted, primaries, params.max_hops);
    let levels: Vec<u32> = plan
        .link_loads()
        .iter()
        .zip(topo.links())
        .map(|(&a, l)| protection_level(a, l.capacity, params.max_hops))
        .collect();
    (plan, levels)
}

/// Runs a multirate experiment on `topo` with min-hop primaries,
/// fanning replications out over the default worker count.
///
/// # Panics
///
/// Panics on inconsistent sizes, empty classes, or invalid parameters.
pub fn run_multirate(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
) -> MultirateResult {
    run_multirate_with_workers(topo, classes, policy, params, failures, default_workers())
}

/// As [`run_multirate`] with an explicit worker count. Results are
/// bit-identical for every `workers` value: replications are merged
/// strictly in seed order.
///
/// # Panics
///
/// As [`run_multirate`]; additionally if `workers == 0`.
pub fn run_multirate_with_workers(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    workers: usize,
) -> MultirateResult {
    replicate(
        topo,
        classes,
        policy,
        params,
        failures,
        None,
        workers,
        || NullRecorder,
    )
    .0
}

/// As [`run_multirate_with_workers`], but with the Eq.-15 protection
/// levels replaced by an explicit per-link vector — for reservation
/// sensitivity studies and for the conformance suite's `r = 0` reduction
/// (all-zero levels must make the controlled policy coincide with the
/// uncontrolled one, bit for bit).
///
/// # Panics
///
/// As [`run_multirate_with_workers`]; additionally if `levels` is not
/// one entry per link.
pub fn run_multirate_with_levels(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    levels: &[u32],
    workers: usize,
) -> MultirateResult {
    let levels = Some(levels);
    replicate(
        topo,
        classes,
        policy,
        params,
        failures,
        levels,
        workers,
        || NullRecorder,
    )
    .0
}

/// As [`run_multirate`], but every replication additionally records
/// time-resolved telemetry (window width `window`), merged across seeds
/// in seed order. Telemetry is a pure observation: the returned
/// [`MultirateResult`] is identical to [`run_multirate`]'s.
///
/// # Panics
///
/// As [`run_multirate`]; additionally if `window <= 0`.
pub fn run_multirate_telemetry(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    window: f64,
) -> (MultirateResult, RunTelemetry) {
    let workers = default_workers();
    run_multirate_telemetry_with_workers(topo, classes, policy, params, failures, window, workers)
}

/// As [`run_multirate_telemetry`] with an explicit worker count. Results
/// and the snapshot's deterministic fields are bit-identical for every
/// `workers` value.
///
/// # Panics
///
/// As [`run_multirate_telemetry`]; additionally if `workers == 0`.
pub fn run_multirate_telemetry_with_workers(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    window: f64,
    workers: usize,
) -> (MultirateResult, RunTelemetry) {
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let telemetry = || RunTelemetry::new(params.warmup, params.horizon, window, capacities.clone());
    let (result, recorded) = replicate(
        topo, classes, policy, params, failures, None, workers, telemetry,
    );
    (result, RunTelemetry::merged(recorded))
}

fn validate(topo: &Topology, classes: &[BandwidthClass], params: &MultirateParams) {
    assert!(!classes.is_empty(), "need at least one class");
    assert!(params.seeds > 0 && params.horizon > 0.0 && params.warmup >= 0.0);
    let n = topo.num_nodes();
    for (i, c) in classes.iter().enumerate() {
        assert!(c.bandwidth > 0, "class {i} has zero bandwidth");
        assert_eq!(c.traffic.num_nodes(), n, "class {i} matrix size mismatch");
    }
}

/// The body every entry point shares: validates the inputs, builds the
/// plan (`levels` overriding its Eq.-15 levels), and fans
/// `params.seeds` kernel replications out over `workers` workers, each
/// observed by a fresh recorder from `recorder`.
///
/// Each (class, pair) is one arrival source, in class-major order — the
/// stream id layout (`ci·n² + pair`) keeps the common random numbers of
/// the single-rate engine for class 0 of an n-node network — and tallies
/// into its class's slot.
#[allow(clippy::too_many_arguments)]
fn replicate<R: Recorder + Send>(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    levels: Option<&[u32]>,
    workers: usize,
    recorder: impl Fn() -> R + Sync,
) -> (MultirateResult, Vec<R>) {
    validate(topo, classes, params);
    let (plan, mut protection) = build_plan(topo, classes, params);
    if let Some(levels) = levels {
        assert_eq!(levels.len(), topo.num_links(), "one level per link");
        protection = levels.to_vec();
    }
    let n = topo.num_nodes();
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let mut sources = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        for (i, j, t) in class.traffic.demands() {
            let id = ci * n * n + i * n + j;
            sources.push(ArrivalSource {
                stream: id as u64,
                src: i,
                dst: j,
                rate: t,
                bandwidth: class.bandwidth,
                tag: id as u32,
                tally: ci as u32,
            });
        }
    }
    let base = KernelSpec {
        config: KernelConfig {
            warmup: params.warmup,
            horizon: params.horizon,
            seed: params.base_seed,
            draw_pick: true,
            tick_interval: None,
            tally_slots: classes.len(),
        },
        capacities: &capacities,
        static_down: failures.statically_down(),
        sources: &sources,
        link_events: failures.events(),
        initial_occupancy: &[],
    };
    let (runs, recorded) = pool_record(
        params.seeds as usize,
        workers,
        None,
        KernelScratch::new,
        recorder,
        |scratch, i, recorder| {
            let config = KernelConfig {
                seed: base.config.seed + i as u64,
                ..base.config
            };
            let spec = KernelSpec { config, ..base };
            let mut observer = Recording(recorder);
            let outcome = match policy {
                MultiratePolicy::SinglePath => kernel::run_pooled(
                    &spec,
                    &mut Uncontrolled,
                    &mut TieredSelector::single_path(&plan),
                    &mut observer,
                    scratch,
                ),
                MultiratePolicy::Uncontrolled => kernel::run_pooled(
                    &spec,
                    &mut Uncontrolled,
                    &mut TieredSelector::new(&plan),
                    &mut observer,
                    scratch,
                ),
                MultiratePolicy::Controlled => kernel::run_pooled(
                    &spec,
                    &mut TrunkReservation::new(protection.clone()),
                    &mut TieredSelector::new(&plan),
                    &mut observer,
                    scratch,
                ),
            };
            (outcome.tally_offered, outcome.tally_blocked)
        },
    );
    (summarize(policy, classes, &runs), recorded)
}

/// Pools per-seed `(offered, blocked)` per-class tallies into the
/// across-seed result.
fn summarize(
    policy: MultiratePolicy,
    classes: &[BandwidthClass],
    runs: &[(Vec<u64>, Vec<u64>)],
) -> MultirateResult {
    let mut class_offered = vec![0u64; classes.len()];
    let mut class_blocked = vec![0u64; classes.len()];
    let mut call_counts = Vec::with_capacity(runs.len());
    let mut bw_counts = Vec::with_capacity(runs.len());
    for (offered, blocked) in runs {
        call_counts.push((offered.iter().sum(), blocked.iter().sum()));
        let offered_bw: u64 = offered
            .iter()
            .zip(classes)
            .map(|(&o, c)| o * u64::from(c.bandwidth))
            .sum();
        let blocked_bw: u64 = blocked
            .iter()
            .zip(classes)
            .map(|(&b, c)| b * u64::from(c.bandwidth))
            .sum();
        bw_counts.push((offered_bw, blocked_bw));
        for (acc, v) in class_offered.iter_mut().zip(offered) {
            *acc += v;
        }
        for (acc, v) in class_blocked.iter_mut().zip(blocked) {
            *acc += v;
        }
    }
    let per_class_blocking = class_offered
        .iter()
        .zip(&class_blocked)
        .map(|(&o, &b)| altroute_simcore::stats::blocking_ratio(b, o))
        .collect();
    MultirateResult {
        policy,
        blocking: BlockingSummary::from_counts(call_counts),
        per_class_blocking,
        bandwidth_blocking: BlockingSummary::from_counts(bw_counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;
    use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};

    fn two_node(capacity: u32) -> Topology {
        let mut t = Topology::new();
        t.add_nodes(2);
        t.add_duplex(0, 1, capacity);
        t
    }

    fn one_way(n: usize, i: usize, j: usize, erlangs: f64) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(n);
        m.set(i, j, erlangs);
        m
    }

    #[test]
    fn single_link_matches_kaufman_roberts() {
        let topo = two_node(40);
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: one_way(2, 0, 1, 20.0),
            },
            BandwidthClass {
                bandwidth: 4,
                traffic: one_way(2, 0, 1, 3.0),
            },
        ];
        let params = MultirateParams {
            warmup: 20.0,
            horizon: 500.0,
            seeds: 6,
            base_seed: 2,
            max_hops: 1,
        };
        let r = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
        );
        let analytic = kaufman_roberts_blocking(
            40,
            &[
                TrafficClass {
                    intensity: 20.0,
                    bandwidth: 1,
                },
                TrafficClass {
                    intensity: 3.0,
                    bandwidth: 4,
                },
            ],
        );
        for (ci, (&sim, &exact)) in r.per_class_blocking.iter().zip(&analytic).enumerate() {
            assert!(
                (sim - exact).abs() < 0.02,
                "class {ci}: simulated {sim} vs Kaufman-Roberts {exact}"
            );
        }
        // Wideband calls block more in both.
        assert!(r.per_class_blocking[1] > r.per_class_blocking[0]);
    }

    #[test]
    fn controlled_not_worse_than_single_path_multirate() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 60.0),
            },
            BandwidthClass {
                bandwidth: 4,
                traffic: TrafficMatrix::uniform(4, 8.0),
            },
        ];
        let params = MultirateParams {
            warmup: 10.0,
            horizon: 80.0,
            seeds: 4,
            base_seed: 5,
            max_hops: 3,
        };
        let single = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
        );
        let controlled = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
        );
        let tol = 2.0 * (single.blocking.std_error() + controlled.blocking.std_error()) + 1e-3;
        assert!(
            controlled.blocking_mean() <= single.blocking_mean() + tol,
            "controlled {} vs single {}",
            controlled.blocking_mean(),
            single.blocking_mean()
        );
    }

    #[test]
    fn identical_results_across_worker_counts() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 40.0),
            },
            BandwidthClass {
                bandwidth: 2,
                traffic: TrafficMatrix::uniform(4, 10.0),
            },
        ];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 40.0,
            seeds: 3,
            base_seed: 9,
            max_hops: 3,
        };
        let a = run_multirate_with_workers(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            1,
        );
        let b = run_multirate_with_workers(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            4,
        );
        assert_eq!(a.per_class_blocking, b.per_class_blocking);
        assert_eq!(a.blocking, b.blocking);
        assert_eq!(a.bandwidth_blocking, b.bandwidth_blocking);
    }

    #[test]
    fn telemetry_is_a_pure_observer() {
        let topo = topologies::quadrangle();
        let classes = [BandwidthClass {
            bandwidth: 2,
            traffic: TrafficMatrix::uniform(4, 25.0),
        }];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 40.0,
            seeds: 2,
            base_seed: 21,
            max_hops: 3,
        };
        let (r, telemetry) = run_multirate_telemetry(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            5.0,
        );
        let plain = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
        );
        assert_eq!(r.blocking, plain.blocking);
        assert_eq!(r.per_class_blocking, plain.per_class_blocking);
        // The recorder saw every measured arrival of every seed.
        assert!(telemetry.offered > 0, "telemetry counted arrivals");
    }

    #[test]
    fn telemetry_and_results_match_across_worker_counts() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 40.0),
            },
            BandwidthClass {
                bandwidth: 3,
                traffic: TrafficMatrix::uniform(4, 8.0),
            },
        ];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 30.0,
            seeds: 4,
            base_seed: 17,
            max_hops: 3,
        };
        let link01 = topo.link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 10.0, 20.0);
        let run = |workers| {
            run_multirate_telemetry_with_workers(
                &topo,
                &classes,
                MultiratePolicy::Controlled,
                &params,
                &failures,
                5.0,
                workers,
            )
        };
        let (one, one_telemetry) = run(1);
        let (three, three_telemetry) = run(3);
        assert_eq!(one, three);
        assert_eq!(one_telemetry, three_telemetry);
        assert_eq!(one_telemetry.replications, 4);
    }

    #[test]
    fn dynamic_outage_tears_down_multirate_calls() {
        // The kernel port honours timed link failures (the pre-kernel
        // multirate loop ignored them): calls in progress on the failed
        // link are torn down and arrivals during the outage block.
        let topo = two_node(30);
        let classes = [BandwidthClass {
            bandwidth: 3,
            traffic: one_way(2, 0, 1, 8.0),
        }];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 60.0,
            seeds: 2,
            base_seed: 7,
            max_hops: 1,
        };
        let link01 = topo.link_between(0, 1).unwrap();
        let quiet = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
        );
        let outage = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none().with_outage(link01, 20.0, 40.0),
        );
        assert!(
            outage.blocking_mean() > quiet.blocking_mean() + 0.1,
            "outage {} vs quiet {}",
            outage.blocking_mean(),
            quiet.blocking_mean()
        );
    }

    #[test]
    fn wideband_class_suffers_more_on_mesh_too() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 70.0),
            },
            BandwidthClass {
                bandwidth: 5,
                traffic: TrafficMatrix::uniform(4, 4.0),
            },
        ];
        let params = MultirateParams {
            warmup: 10.0,
            horizon: 80.0,
            seeds: 4,
            base_seed: 13,
            max_hops: 3,
        };
        let r = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
        );
        assert!(r.per_class_blocking[1] >= r.per_class_blocking[0]);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_class_panics() {
        let topo = two_node(10);
        run_multirate(
            &topo,
            &[BandwidthClass {
                bandwidth: 0,
                traffic: one_way(2, 0, 1, 1.0),
            }],
            MultiratePolicy::SinglePath,
            &MultirateParams::default(),
            &FailureSchedule::none(),
        );
    }
}
