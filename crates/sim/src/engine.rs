//! The event-driven call-by-call simulation engine.
//!
//! One [`run_seed`] call reproduces one of the paper's sample runs: start
//! from an idle network, generate Poisson call arrivals per
//! origin–destination pair with exponential unit-mean holding times, warm
//! up for `warmup` time units, measure for `horizon`, and count offered
//! and blocked calls (network-wide and per pair).
//!
//! Since the kernel refactor this module is a thin instantiation of
//! [`altroute_simcore::kernel`]: the event loop, call table, link index,
//! and metrics live there, and this module contributes only the policy
//! dispatch — mapping each [`PolicyKind`] to its
//! (`AdmissionPolicy`, `RouteSelector`) pair. Every replication runs
//! through one body behind one general entry, [`run_replication`]: warm
//! start, periodic selector tick, named or explicit policy, and any
//! [`KernelObserver`] (a trace writer, a telemetry [`Recording`], or a
//! pair of both). [`run_seed`], [`run_seed_pooled`],
//! [`run_seed_recorded`] and [`run_seed_with_policy`] are one-line
//! shorthands for it, and [`run_seed_reference`] runs the same body on
//! the `BinaryHeap` reference queue. The event stream (and every
//! counter) is bit-identical to the pre-kernel engine; the conformance
//! crate's golden traces pin that down.
//!
//! **Common random numbers.** Each pair draws its inter-arrival times,
//! holding times, and primary-split picks from its own seed-derived
//! stream, in a fixed order per arrival, *independent of routing
//! decisions*. Two runs with the same seed therefore offer byte-identical
//! call sequences to any two policies — the paper's "each algorithm was
//! run with identical call arrivals and call holding times".

use crate::failures::FailureSchedule;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::{
    BestOfDSelector, DarStickySelector, OttKrishnanSelector, TieredSelector,
};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    self, AdmissionPolicy, ArrivalSource, KernelConfig, KernelObserver, KernelOutcome,
    KernelScratch, KernelSpec, NullObserver, Recording, RouteSelector, TrunkReservation,
    Uncontrolled,
};
use altroute_simcore::metrics::EngineMetrics;
use altroute_simcore::rng::StreamFactory;
use altroute_telemetry::Recorder;

/// The RNG stream id of the DAR selector's private resampling stream.
/// Arrival streams use pair ids (`< n²`), so the top of the id space can
/// never collide with them — DAR resampling leaves the common random
/// numbers untouched.
const DAR_RESAMPLE_STREAM: u64 = u64::MAX;

/// The RNG stream id of the best-of-d selector's private sampling
/// stream, one below DAR's so neither can collide with arrival streams
/// nor with each other. (`u64::MAX - 2` is the kernel's warm-start
/// stream.) Public so conformance harnesses can rebuild the exact
/// stream the named [`PolicyKind::BestOfD`] dispatch uses.
pub const BOD_SAMPLE_STREAM: u64 = u64::MAX - 1;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig<'a> {
    /// The precomputed routing plan (topology, primaries, alternates,
    /// protection levels).
    pub plan: &'a RoutingPlan,
    /// The policy deciding each call.
    pub policy: PolicyKind,
    /// Offered traffic in Erlangs per ordered pair.
    pub traffic: &'a TrafficMatrix,
    /// Warm-up duration discarded from statistics.
    pub warmup: f64,
    /// Measured duration after warm-up.
    pub horizon: f64,
    /// Master seed of this replication.
    pub seed: u64,
    /// Link failures to apply.
    pub failures: &'a FailureSchedule,
}

/// Counters from one replication (one seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult {
    /// The replication's seed.
    pub seed: u64,
    /// Calls offered during the measurement window.
    pub offered: u64,
    /// Calls blocked during the measurement window.
    pub blocked: u64,
    /// Calls carried on their primary path.
    pub carried_primary: u64,
    /// Calls carried on an alternate path.
    pub carried_alternate: u64,
    /// Calls torn down mid-service by a link failure (dynamic outages
    /// only; not counted as blocked).
    pub dropped: u64,
    /// Offered calls per ordered pair (row-major `n × n`).
    pub per_pair_offered: Vec<u64>,
    /// Blocked calls per ordered pair (row-major `n × n`).
    pub per_pair_blocked: Vec<u64>,
    /// Engine gauges: event counts, queue/call-table peaks, per-link
    /// utilization, wall clock (wall clock is excluded from equality).
    pub metrics: EngineMetrics,
}

impl SeedResult {
    /// Average network blocking: blocked / offered (0 if nothing offered).
    pub fn blocking(&self) -> f64 {
        altroute_simcore::stats::blocking_ratio(self.blocked, self.offered)
    }

    /// Fraction of carried calls that used an alternate path.
    pub fn alternate_fraction(&self) -> f64 {
        let carried = self.carried_primary + self.carried_alternate;
        if carried == 0 {
            0.0
        } else {
            self.carried_alternate as f64 / carried as f64
        }
    }
}

/// Which `(admission, selector)` pair decides a replication's calls.
#[derive(Debug)]
pub enum PolicyChoice<'x, A, Sel> {
    /// The engine's own pair for [`RunConfig::policy`] (the table in
    /// [`run_replication`]); pass [`NAMED_POLICY`].
    Named,
    /// An explicit pair — the extension point for policies that are not
    /// (yet) named variants, and the hook an online controller drives
    /// through [`RouteSelector::tick`] and
    /// [`AdmissionPolicy::set_levels`]. [`RunConfig::policy`] is ignored.
    Explicit(&'x mut A, &'x mut Sel),
}

/// [`PolicyChoice::Named`], with its unused pair types filled in.
pub const NAMED_POLICY: PolicyChoice<'static, Uncontrolled, TieredSelector<'static>> =
    PolicyChoice::Named;

/// Where the kernel's event schedule lives: a caller-recycled
/// [`KernelScratch`] (the calendar queue) or the `BinaryHeap` reference
/// baseline. Both are outcome-identical by the kernel's contract; only
/// allocation behavior and speed differ.
enum KernelEntry<'s> {
    Pooled(&'s mut KernelScratch),
    Reference,
}

impl KernelEntry<'_> {
    fn invoke<'p, A, Sel, O>(
        &mut self,
        spec: &KernelSpec<'_>,
        admission: &mut A,
        selector: &mut Sel,
        observer: &mut O,
    ) -> KernelOutcome
    where
        A: AdmissionPolicy,
        Sel: RouteSelector<'p>,
        O: KernelObserver,
    {
        match self {
            KernelEntry::Pooled(scratch) => {
                kernel::run_pooled(spec, admission, selector, observer, scratch)
            }
            KernelEntry::Reference => kernel::run_reference(spec, admission, selector, observer),
        }
    }
}

/// Runs one replication and returns its counters.
///
/// # Panics
///
/// Panics on inconsistent configuration (sizes, negative durations) or if
/// an internal invariant breaks (a policy admitting over a full link).
pub fn run_seed(config: &RunConfig<'_>) -> SeedResult {
    run_seed_pooled(config, &mut KernelScratch::new())
}

/// As [`run_seed`], but recycling `scratch` (event-queue buckets, call
/// table, link index, RNG streams) across calls instead of reallocating
/// per replication — the entry point replication pools hand their
/// per-worker scratch to. Results are byte-identical to [`run_seed`].
///
/// # Panics
///
/// As [`run_seed`].
pub fn run_seed_pooled(config: &RunConfig<'_>, scratch: &mut KernelScratch) -> SeedResult {
    run_replication(config, scratch, &[], None, NAMED_POLICY, &mut NullObserver)
}

/// As [`run_seed`], but on the comparison-based `BinaryHeap` event queue
/// instead of the calendar queue — the differential and benchmark
/// baseline. Results are byte-identical to [`run_seed`]; only the wall
/// clock differs.
///
/// # Panics
///
/// As [`run_seed`].
pub fn run_seed_reference(config: &RunConfig<'_>) -> SeedResult {
    replicate(
        config,
        KernelEntry::Reference,
        &[],
        None,
        NAMED_POLICY,
        &mut NullObserver,
    )
}

/// Runs one replication while feeding time-resolved telemetry to
/// `recorder` (counters, histograms, windowed series, spans — see
/// `altroute_telemetry`).
///
/// The recorder is a pure observer: for any recorder, the returned
/// [`SeedResult`] is byte-identical to [`run_seed`]'s.
///
/// # Panics
///
/// As [`run_seed`].
pub fn run_seed_recorded<R: Recorder>(config: &RunConfig<'_>, recorder: &mut R) -> SeedResult {
    let mut observer = Recording(recorder);
    run_replication(
        config,
        &mut KernelScratch::new(),
        &[],
        None,
        NAMED_POLICY,
        &mut observer,
    )
}

/// Runs one replication with an explicit `(admission, selector)` pair
/// instead of a named [`PolicyKind`], reporting to `observer` first and
/// `recorder` second. Counters behave exactly as in [`run_seed`].
///
/// # Panics
///
/// As [`run_seed`].
pub fn run_seed_with_policy<'p, A, Sel, O, R>(
    config: &RunConfig<'_>,
    admission: &mut A,
    selector: &mut Sel,
    observer: &mut O,
    recorder: &mut R,
) -> SeedResult
where
    A: AdmissionPolicy,
    Sel: RouteSelector<'p>,
    O: KernelObserver,
    R: Recorder,
{
    let policy = PolicyChoice::Explicit(admission, selector);
    let mut observer = (observer, Recording(recorder));
    run_replication(
        config,
        &mut KernelScratch::new(),
        &[],
        None,
        policy,
        &mut observer,
    )
}

/// Pushes a schedule's *static* outages into the plan's candidate-path
/// store, so selectors see post-outage candidate sets (paths through the
/// downed links disappear from `plan.candidates()`) instead of burning
/// attempts on links the kernel will refuse anyway. Returns the number
/// of O-D pairs whose cached sets were evicted (each recomputes lazily).
///
/// This is deliberately opt-in rather than part of `run_seed`: the
/// historical contract — and every checked-in golden trace — has blocked
/// calls *attempt* paths through statically-down links and overflow past
/// them, so rewriting candidate sets implicitly would change traces.
/// Large-mesh tiers under rolling correlated failures call this per
/// round (and revive with [`RoutingPlan::set_link_state`]) to keep
/// attempt sequences proportional to the surviving topology.
pub fn apply_static_failures(plan: &mut RoutingPlan, failures: &FailureSchedule) -> usize {
    failures
        .statically_down()
        .iter()
        .map(|&l| plan.set_link_state(l, false))
        .sum()
}

/// Runs one replication: the general entry every `run_seed*` shorthand
/// and every kernel-backed caller goes through.
///
/// * `scratch` is recycled across calls (see [`run_seed_pooled`]).
/// * `initial_occupancy` warm-starts the run: one entry per link (empty
///   means cold start), booked at `t = 0` as real single-link calls with
///   fresh unit-mean exponential residual holding times from the
///   kernel's dedicated warm-start stream, so the seeded state decays
///   naturally. An empty or all-zero slice is the cold start, byte for
///   byte. This is the initial-condition hook behind the metastability
///   experiments: the same load run from an empty vs. a saturated
///   network can land in different blocking modes (hysteresis).
/// * `tick_interval = Some(window)` calls [`RouteSelector::tick`] at
///   every window boundary — where a controlling selector re-estimates
///   loads and pushes fresh levels through
///   [`AdmissionPolicy::set_levels`]. `None` schedules no tick events.
/// * `policy` is [`NAMED_POLICY`] or an explicit pair
///   ([`PolicyChoice::Explicit`]). The named dispatch maps each policy to
///   an (admission, selector) pair on the same kernel:
///
/// | policy        | admission                    | selector            |
/// |---------------|------------------------------|---------------------|
/// | single-path   | capacity only                | tiered, no alternates |
/// | uncontrolled  | capacity only                | tiered              |
/// | controlled    | trunk reservation (Eq. 15)   | tiered              |
/// | ott-krishnan  | (internal to the price test) | shadow-price argmin |
/// | dar           | trunk reservation (Eq. 15)   | sticky random       |
/// | bod           | trunk reservation (Eq. 15)   | best-of-d sampling  |
///
/// * `observer` sees every kernel hook. Observers are pure: results are
///   byte-identical for any choice, and [`NullObserver`] monomorphizes
///   to nothing.
///
/// With an empty warm start and no tick, the controller hooks are
/// byte-inert, which is what keeps the golden traces valid.
///
/// # Panics
///
/// As [`run_seed`]; additionally if `initial_occupancy` is non-empty
/// with the wrong length, exceeds a link's capacity, or seeds a
/// statically-down link, or if `tick_interval` is non-positive.
pub fn run_replication<'p, A, Sel, O>(
    config: &RunConfig<'_>,
    scratch: &mut KernelScratch,
    initial_occupancy: &[u32],
    tick_interval: Option<f64>,
    policy: PolicyChoice<'_, A, Sel>,
    observer: &mut O,
) -> SeedResult
where
    A: AdmissionPolicy,
    Sel: RouteSelector<'p>,
    O: KernelObserver,
{
    replicate(
        config,
        KernelEntry::Pooled(scratch),
        initial_occupancy,
        tick_interval,
        policy,
        observer,
    )
}

/// The one replication body: validates the configuration, builds the
/// kernel's static description of the run (sources, capacities, the
/// failure schedule), resolves the policy to its pair and runs the
/// kernel through `entry`.
fn replicate<'p, A, Sel, O>(
    config: &RunConfig<'_>,
    mut entry: KernelEntry<'_>,
    initial_occupancy: &[u32],
    tick_interval: Option<f64>,
    policy: PolicyChoice<'_, A, Sel>,
    observer: &mut O,
) -> SeedResult
where
    A: AdmissionPolicy,
    Sel: RouteSelector<'p>,
    O: KernelObserver,
{
    let plan = config.plan;
    let topo = plan.topology();
    let n = topo.num_nodes();
    assert_eq!(
        config.traffic.num_nodes(),
        n,
        "traffic matrix size mismatch"
    );
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    // One arrival source per demand pair (stream = tag = tally = pair
    // id), in `demands()` order: the source order breaks event-queue
    // ties, so it is part of the determinism contract.
    let sources: Vec<ArrivalSource> = config
        .traffic
        .demands()
        .map(|(i, j, t)| {
            let pair = i * n + j;
            ArrivalSource {
                stream: pair as u64,
                src: i,
                dst: j,
                rate: t,
                bandwidth: 1,
                tag: pair as u32,
                tally: pair as u32,
            }
        })
        .collect();
    let spec = KernelSpec {
        config: KernelConfig {
            warmup: config.warmup,
            horizon: config.horizon,
            seed: config.seed,
            draw_pick: true,
            tick_interval,
            tally_slots: n * n,
        },
        capacities: &capacities,
        static_down: config.failures.statically_down(),
        sources: &sources,
        link_events: config.failures.events(),
        initial_occupancy,
    };
    let outcome = match policy {
        PolicyChoice::Explicit(admission, selector) => {
            entry.invoke(&spec, admission, selector, observer)
        }
        PolicyChoice::Named => {
            if let Some(h) = config.policy.max_hops() {
                assert_eq!(
                    h,
                    plan.max_alternate_hops(),
                    "policy hop bound must match the plan's H"
                );
            }
            let levels = || TrunkReservation::new(plan.protection_levels().to_vec());
            match config.policy {
                PolicyKind::SinglePath => entry.invoke(
                    &spec,
                    &mut Uncontrolled,
                    &mut TieredSelector::single_path(plan),
                    observer,
                ),
                PolicyKind::UncontrolledAlternate { .. } => entry.invoke(
                    &spec,
                    &mut Uncontrolled,
                    &mut TieredSelector::new(plan),
                    observer,
                ),
                PolicyKind::ControlledAlternate { .. } => entry.invoke(
                    &spec,
                    &mut levels(),
                    &mut TieredSelector::new(plan),
                    observer,
                ),
                PolicyKind::OttKrishnan { .. } => entry.invoke(
                    &spec,
                    &mut Uncontrolled,
                    &mut OttKrishnanSelector::new(plan),
                    observer,
                ),
                PolicyKind::DarSticky { .. } => {
                    let rng = StreamFactory::new(config.seed).stream(DAR_RESAMPLE_STREAM);
                    entry.invoke(
                        &spec,
                        &mut levels(),
                        &mut DarStickySelector::new(plan, rng),
                        observer,
                    )
                }
                PolicyKind::BestOfD { d, .. } => {
                    let rng = StreamFactory::new(config.seed).stream(BOD_SAMPLE_STREAM);
                    entry.invoke(
                        &spec,
                        &mut levels(),
                        &mut BestOfDSelector::new(plan, d, rng),
                        observer,
                    )
                }
            }
        }
    };
    SeedResult {
        seed: config.seed,
        offered: outcome.offered,
        blocked: outcome.blocked,
        carried_primary: outcome.carried_primary,
        carried_alternate: outcome.carried_alternate,
        dropped: outcome.dropped,
        per_pair_offered: outcome.tally_offered,
        per_pair_blocked: outcome.tally_blocked,
        metrics: outcome.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;
    use altroute_teletraffic::erlang::erlang_b;

    fn single_link_plan(capacity: u32, load: f64) -> (RoutingPlan, TrafficMatrix) {
        let mut topo = altroute_netgraph::graph::Topology::new();
        topo.add_nodes(2);
        topo.add_duplex(0, 1, capacity);
        let mut m = TrafficMatrix::zero(2);
        m.set(0, 1, load);
        let plan = RoutingPlan::min_hop(topo, &m, 1);
        (plan, m)
    }

    #[test]
    fn single_link_blocking_matches_erlang_b() {
        // M/M/C/C sanity check: simulated blocking ≈ B(a, C).
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let mut total_blocked = 0u64;
        let mut total_offered = 0u64;
        for seed in 0..8 {
            let r = run_seed(&RunConfig {
                plan: &plan,
                policy: PolicyKind::SinglePath,
                traffic: &m,
                warmup: 20.0,
                horizon: 500.0,
                seed,
                failures: &failures,
            });
            total_blocked += r.blocked;
            total_offered += r.offered;
        }
        let simulated = total_blocked as f64 / total_offered as f64;
        let analytic = erlang_b(16.0, 20);
        assert!(
            (simulated - analytic).abs() < 0.012,
            "simulated {simulated} vs Erlang-B {analytic}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 85.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let failures = FailureSchedule::none();
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 30.0,
            seed: 1234,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        let b = run_seed(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_arrivals_across_policies() {
        // Common random numbers: per-pair offered counts must match
        // between policies for the same seed — DAR included, because its
        // resampling stream is separate from every arrival stream.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 90.0);
        let failures = FailureSchedule::none();
        let mut offered = Vec::new();
        for kind in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            PolicyKind::ControlledAlternate { max_hops: 3 },
            PolicyKind::OttKrishnan { max_hops: 3 },
            PolicyKind::DarSticky { max_hops: 3 },
        ] {
            let plan = RoutingPlan::min_hop(topo.clone(), &m, 3);
            let r = run_seed(&RunConfig {
                plan: &plan,
                policy: kind,
                traffic: &m,
                warmup: 5.0,
                horizon: 40.0,
                seed: 99,
                failures: &failures,
            });
            offered.push((r.offered, r.per_pair_offered.clone()));
        }
        for w in offered.windows(2) {
            assert_eq!(w[0], w[1], "policies must see identical arrivals");
        }
    }

    #[test]
    fn dar_routes_alternates_and_stays_deterministic() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 95.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let failures = FailureSchedule::none();
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::DarSticky { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 40.0,
            seed: 17,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        let b = run_seed(&cfg);
        assert_eq!(a, b);
        assert!(a.carried_alternate > 0, "DAR must use alternates at 95 E");
        assert!(a.blocking() < 0.5, "blocking {}", a.blocking());
        // DAR with trunk reservation must not collapse versus the paper's
        // controlled scheme at this load.
        let controlled = run_seed(&RunConfig {
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            ..cfg
        });
        assert!(
            a.blocking() < controlled.blocking() + 0.1,
            "dar {} vs controlled {}",
            a.blocking(),
            controlled.blocking()
        );
    }

    #[test]
    fn warmup_discards_early_calls() {
        let (plan, m) = single_link_plan(5, 3.0);
        let failures = FailureSchedule::none();
        let with_warmup = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 50.0,
            horizon: 50.0,
            seed: 7,
            failures: &failures,
        });
        let without = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 0.0,
            horizon: 100.0,
            seed: 7,
            failures: &failures,
        });
        assert!(with_warmup.offered < without.offered);
        // Expected arrivals in the 50-unit window ≈ 150.
        assert!((with_warmup.offered as f64 - 150.0).abs() < 60.0);
    }

    #[test]
    fn static_failure_blocks_single_path_pair() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 10.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let direct = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::static_down([direct]);
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        let n = 4;
        // Every offered (0,1) call blocks; other pairs barely block at all.
        assert_eq!(r.per_pair_offered[1], r.per_pair_blocked[1]);
        assert!(r.per_pair_offered[1] > 0);
        assert_eq!(r.per_pair_blocked[2 * n + 3], 0);
        // Alternate routing rescues the pair entirely at this light load.
        let r2 = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        assert_eq!(r2.per_pair_blocked[1], 0);
        assert!(r2.carried_alternate > 0);
    }

    #[test]
    fn static_failures_can_be_pushed_into_the_path_store() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 10.0);
        let mut plan = RoutingPlan::min_hop(topo, &m, 3);
        let direct = plan.topology().link_between(0, 1).unwrap();
        // Force the cache so there is something to invalidate.
        for (i, j) in [(0usize, 1usize), (2, 3)] {
            plan.candidates(i, j);
        }
        let failures = FailureSchedule::static_down([direct]);
        let evicted = apply_static_failures(&mut plan, &failures);
        assert!(evicted > 0);
        assert!(plan.candidates(0, 1).iter().all(|p| !p.uses_link(direct)));
        // Re-applying is a no-op (the store tracks link state).
        assert_eq!(apply_static_failures(&mut plan, &failures), 0);
        // The store-aware plan runs fine: alternates still rescue (0, 1)
        // without ever attempting the dead direct link.
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        assert_eq!(r.per_pair_blocked[1], 0);
        assert!(r.carried_alternate > 0);
    }

    #[test]
    fn dynamic_outage_drops_calls_and_recovers() {
        let (plan, m) = single_link_plan(50, 40.0);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 30.0, 60.0);
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 10.0,
            horizon: 90.0,
            seed: 11,
            failures: &failures,
        });
        assert!(r.dropped > 0, "calls in progress at t=30 must be dropped");
        // During [30, 60) every arrival blocks: roughly 30 % of the
        // measured window.
        assert!(r.blocking() > 0.2, "blocking {}", r.blocking());
        // After recovery calls complete again: blocked < offered.
        assert!(r.blocked < r.offered);
    }

    #[test]
    fn no_traffic_means_no_events() {
        let (plan, _) = single_link_plan(5, 1.0);
        let empty = TrafficMatrix::zero(2);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &empty,
            warmup: 1.0,
            horizon: 10.0,
            seed: 0,
            failures: &failures,
        });
        assert_eq!(r.offered, 0);
        assert_eq!(r.blocking(), 0.0);
        assert_eq!(r.alternate_fraction(), 0.0);
        assert_eq!(r.metrics.events_processed, 0);
        assert_eq!(r.metrics.peak_queue_len, 0);
        assert_eq!(r.metrics.peak_concurrent_calls, 0);
        assert_eq!(r.metrics.call_table_high_water, 0);
    }

    #[test]
    fn call_table_high_water_tracks_peak_concurrency_not_total_calls() {
        // Long horizon: tens of thousands of calls are offered, but the
        // generational free list keeps the table at the concurrent peak.
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 10.0,
            horizon: 2000.0,
            seed: 21,
            failures: &failures,
        });
        assert!(r.offered > 10_000, "long horizon should offer many calls");
        // A slot is only allocated when every existing slot is busy, so
        // the high-water mark equals the peak concurrent population.
        assert_eq!(
            r.metrics.call_table_high_water,
            r.metrics.peak_concurrent_calls
        );
        // The link caps concurrency at 20; the table must not grow with
        // offered-call count the way the old push-only table did.
        assert!(
            r.metrics.peak_concurrent_calls <= 20,
            "peak {} exceeds link capacity",
            r.metrics.peak_concurrent_calls
        );
        assert!(
            r.metrics.events_processed > r.offered,
            "arrivals plus departures"
        );
        assert!(r.metrics.peak_queue_len > 0);
    }

    #[test]
    fn utilization_matches_carried_traffic() {
        // M/M/C/C: mean occupancy is the carried load a(1 - B), so the
        // time-weighted utilization gauge must read a(1 - B)/C.
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 20.0,
            horizon: 2000.0,
            seed: 5,
            failures: &failures,
        });
        let expected = 16.0 * (1.0 - erlang_b(16.0, 20)) / 20.0;
        let l01 = plan.topology().link_between(0, 1).unwrap();
        let measured = r.metrics.link_utilization[l01];
        assert!(
            (measured - expected).abs() < 0.03,
            "utilization {measured} vs analytic {expected}"
        );
        // The reverse link carries nothing.
        let l10 = plan.topology().link_between(1, 0).unwrap();
        assert_eq!(r.metrics.link_utilization[l10], 0.0);
    }

    #[test]
    fn reused_slot_rejects_stale_departure_handle() {
        // Direct regression for the generational call table (now owned by
        // the kernel): a call torn down by a link failure frees its slot;
        // a later call reuses it; the torn-down call's departure event —
        // still in the queue with the old generation — must not be able
        // to release the new call.
        use altroute_simcore::kernel::CallTable;
        let path_a: Vec<usize> = vec![0, 1];
        let path_b: Vec<usize> = vec![2];
        let mut out = Vec::new();
        let mut table = CallTable::new();
        let (slot_a, gen_a) = table.insert(&path_a, 1);
        // Failure teardown ends call A through its handle.
        assert_eq!(table.take_into(slot_a, gen_a, &mut out), Some(1));
        assert_eq!(out, path_a);
        // Call B reuses the same slot with a bumped generation.
        let (slot_b, gen_b) = table.insert(&path_b, 1);
        assert_eq!(slot_b, slot_a, "free list must hand the slot back");
        assert_ne!(gen_b, gen_a, "reuse must bump the generation");
        // Call A's scheduled departure fires: it must be rejected and
        // must leave call B (and the caller's path buffer) untouched.
        assert_eq!(table.take_into(slot_a, gen_a, &mut out), None);
        assert_eq!(out, path_a, "stale take must not clobber the buffer");
        assert!(table.is_live(slot_b, gen_b), "stale take must not end B");
        assert_eq!(table.live(), 1);
        // Call B's own departure still works.
        assert_eq!(table.take_into(slot_b, gen_b, &mut out), Some(1));
        assert_eq!(out, path_b);
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn reference_backend_and_recycled_scratch_match_every_policy() {
        // Differential check across the whole policy dispatch: for each
        // policy, the BinaryHeap reference backend and a scratch arena
        // recycled across all policies must reproduce the fresh-run
        // counters exactly. An outage keeps the teardown paths honest.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 60.0);
        let link01 = RoutingPlan::min_hop(topo.clone(), &m, 3)
            .topology()
            .link_between(0, 1)
            .unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 8.0, 14.0);
        let mut scratch = altroute_simcore::kernel::KernelScratch::new();
        for policy in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            PolicyKind::ControlledAlternate { max_hops: 3 },
            PolicyKind::OttKrishnan { max_hops: 3 },
            PolicyKind::DarSticky { max_hops: 3 },
        ] {
            let plan = RoutingPlan::min_hop(topo.clone(), &m, 3);
            let config = RunConfig {
                plan: &plan,
                policy,
                traffic: &m,
                warmup: 5.0,
                horizon: 30.0,
                seed: 2026,
                failures: &failures,
            };
            let fresh = run_seed(&config);
            assert_eq!(fresh, run_seed_reference(&config), "{policy:?} reference");
            assert_eq!(
                fresh,
                run_seed_pooled(&config, &mut scratch),
                "{policy:?} pooled"
            );
        }
    }

    #[test]
    fn outage_trace_shows_teardowns_then_stale_departures() {
        // End-to-end over the trace hook: with an outage that tears calls
        // down and slots that get reused, every torn-down call's original
        // departure must surface as a *stale* departure record, never as
        // a live release of the reused slot.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 60.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 10.0, 20.0);
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 0.0,
            horizon: 40.0,
            seed: 4242,
            failures: &failures,
        };
        let mut writer = crate::trace::BinaryTraceWriter::new(cfg.seed, "outage-regression");
        let r = run_replication(
            &cfg,
            &mut KernelScratch::new(),
            &[],
            None,
            NAMED_POLICY,
            &mut writer,
        );
        assert!(r.dropped > 0);
        let (_, records) = crate::trace::decode_trace(&writer.finish()).unwrap();
        use crate::trace::TraceRecordKind as K;
        let torn: Vec<(u32, u32)> = records
            .iter()
            .filter_map(|rec| match rec.kind {
                K::Teardown { call, gen } => Some((call, gen)),
                _ => None,
            })
            .collect();
        assert!(!torn.is_empty(), "outage must tear down calls");
        // Each teardown's handle must later fire as a stale departure
        // (the handle can never match again once the generation bumps).
        for &(call, gen) in &torn {
            let mut saw_teardown = false;
            for rec in &records {
                match rec.kind {
                    K::Teardown { call: c, gen: g } if (c, g) == (call, gen) => {
                        saw_teardown = true;
                    }
                    K::Departure {
                        call: c,
                        gen: g,
                        stale,
                    } if (c, g) == (call, gen) && saw_teardown => {
                        assert!(
                            stale,
                            "departure for torn-down handle ({call},{gen}) must be stale"
                        );
                    }
                    _ => {}
                }
            }
        }
        // Slots were actually reused after teardown (the hazardous case).
        let reused = records.iter().any(|rec| {
            matches!(rec.kind, K::Departure { call, gen, stale: false }
                if torn.iter().any(|&(c, g)| c == call && gen > g))
        });
        assert!(reused, "scenario must exercise slot reuse after teardown");
    }

    #[test]
    fn stale_departures_cannot_touch_reused_slots() {
        // Regression for the generational call table: an outage tears
        // down calls early, their slots are reused by later calls, and
        // the original calls' departure events are still in the queue.
        // Without generation tags those stale departures would release
        // the *new* calls' circuits; the occupancy asserts
        // (double-release, negative occupancy) would abort the run.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 60.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        // Repeated short outages maximise teardown/reuse churn.
        let mut failures = FailureSchedule::none();
        for k in 0..6 {
            let down = 10.0 + 10.0 * f64::from(k);
            failures = failures.with_outage(link01, down, down + 5.0);
        }
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 80.0,
            seed: 77,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        assert!(a.dropped > 0, "outages must tear down calls in progress");
        assert!(a.offered > 0 && a.blocked < a.offered);
        // Slot reuse happened: more calls were carried than table slots.
        let carried = a.carried_primary + a.carried_alternate;
        assert!(
            (a.metrics.call_table_high_water as u64) < carried,
            "high water {} vs carried {carried}",
            a.metrics.call_table_high_water
        );
        // And the whole run is reproducible, metrics included.
        let b = run_seed(&cfg);
        assert_eq!(a, b);
    }
}
