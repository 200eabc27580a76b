//! Kernel-parity regression: after porting the engine onto the shared
//! discrete-event kernel, the golden scenarios (NSFNet and the Fig. 3
//! quadrangle) must replay byte-identically — solo, and fanned out over
//! any worker count — and every execution mode of one replication
//! (fresh, pooled scratch, `BinaryHeap` reference queue, traced,
//! recorded, zero-fill warm start, explicit policy pair) must agree on
//! random instances under random and SRLG failure schedules.

use altroute_conformance::golden::{
    golden_names, replay_check, scenario_replications, scenario_replications_recorded,
    scenario_replications_warm,
};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::TieredSelector;
use altroute_netgraph::topologies::{random_instance, srlg_groups};
use altroute_sim::engine::{
    run_replication, run_seed, run_seed_pooled, run_seed_recorded, run_seed_reference,
    run_seed_with_policy, RunConfig, NAMED_POLICY,
};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::trace::BinaryTraceWriter;
use altroute_simcore::kernel::{
    KernelScratch, NullObserver, Recording, TrunkReservation, Uncontrolled,
};
use altroute_telemetry::RunTelemetry;

/// The checked-in golden traces — recorded by the pre-port engine — must
/// replay without a single diverging byte through the kernel-backed one.
#[test]
fn golden_traces_survive_the_kernel_port() {
    for name in golden_names() {
        if let Some(divergence) = replay_check(name) {
            panic!("{name}: kernel-backed engine diverged from golden trace:\n{divergence}");
        }
    }
}

/// Replication fan-out over the kernel is a pure scheduling detail: the
/// same seeds through 1 worker and through N workers must produce
/// byte-identical `SeedResult`s (engine metrics included; wall clock is
/// excluded from equality by design) on both golden scenarios.
#[test]
fn worker_fanout_is_bit_identical_on_golden_scenarios() {
    for name in golden_names() {
        let solo = scenario_replications(name, 6, 1);
        assert_eq!(solo.len(), 6);
        for workers in [2usize, 8] {
            let pooled = scenario_replications(name, 6, workers);
            assert_eq!(
                solo, pooled,
                "{name}: {workers} workers diverged from sequential"
            );
            for (a, b) in solo.iter().zip(&pooled) {
                assert_eq!(a.metrics, b.metrics, "{name}: metrics diverged");
            }
        }
    }
}

/// An explicit all-zero warm start must be byte-identical to the cold
/// oracle on every golden scenario: seeding zero units touches no link,
/// draws nothing from the warm-start stream, and leaves the event
/// schedule untouched.
#[test]
fn zero_fill_warm_starts_match_the_cold_oracle_on_golden_scenarios() {
    for name in golden_names() {
        let cold = scenario_replications(name, 2, 1);
        let warm = scenario_replications_warm(name, 2, 0);
        assert_eq!(
            cold, warm,
            "{name}: all-zero warm start diverged from the cold start"
        );
    }
}

/// A live telemetry recorder is a pure observer: the recorded run's
/// results equal the plain run's on every golden scenario.
#[test]
fn attaching_a_recorder_never_perturbs_the_results() {
    for name in golden_names() {
        let plain = scenario_replications(name, 1, 1);
        let recorded = scenario_replications_recorded(name, 1);
        let results: Vec<_> = recorded.into_iter().map(|(r, _)| r).collect();
        assert_eq!(plain, results, "{name}");
    }
}

/// A tiny deterministic generator for the hand-rolled property test
/// below (`splitmix64` seeding + `xorshift64*`, the same family the
/// instance generator uses).
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A uniform draw in `[0, 1)` from `draw`'s top 53 bits.
fn unit(draw: &mut impl FnMut() -> u64) -> f64 {
    (draw() >> 11) as f64 / (1u64 << 53) as f64
}

/// A random failure schedule for a run covering `[0, end)`: on every
/// other instance (`with_static`) one statically-down link, plus one to
/// three timed outage windows inside the run on other links.
fn random_schedule(
    draw: &mut impl FnMut() -> u64,
    num_links: usize,
    end: f64,
    with_static: bool,
) -> FailureSchedule {
    let down = with_static.then(|| (draw() % num_links as u64) as usize);
    let mut schedule = FailureSchedule::static_down(down);
    for _ in 0..1 + draw() % 3 {
        let link = loop {
            let l = (draw() % num_links as u64) as usize;
            if Some(l) != down {
                break l;
            }
        };
        let down_at = end * unit(draw);
        let up_at = down_at + (end - down_at) * (0.05 + 0.9 * unit(draw));
        schedule = schedule.with_outage(link, down_at, up_at);
    }
    schedule
}

/// Adds one correlated outage to `schedule`: every link of a random
/// SRLG group (shared conduit) goes down and comes back at the same
/// instants, so the kernel sees runs of equal-time link events.
fn with_srlg_outage(
    draw: &mut impl FnMut() -> u64,
    plan: &RoutingPlan,
    end: f64,
    mut schedule: FailureSchedule,
) -> FailureSchedule {
    let num_groups = (plan.topology().num_links() / 2).clamp(1, 3);
    let groups = srlg_groups(plan.topology(), num_groups, draw());
    let group = &groups[(draw() % groups.len() as u64) as usize];
    let down_at = end * unit(draw);
    let up_at = down_at + (end - down_at) * (0.05 + 0.9 * unit(draw));
    for &link in group {
        schedule = schedule.with_outage(link, down_at, up_at);
    }
    schedule
}

/// Hand-rolled property test: on random instances under random failure
/// schedules (timed outages, plus a static outage on even instances and
/// an SRLG group outage on odd ones), every execution mode of a
/// replication agrees bit for bit with the fresh `run_seed` oracle — for
/// the controlled policy and for the free (uncontrolled) one:
///
/// * the pooled entry (one scratch recycled across every pooled run) and
///   the `BinaryHeap` reference queue;
/// * traced runs, whose trace bytes must also match between a fresh and
///   a recycled scratch;
/// * recorded runs, whose `RunTelemetry` must match between the
///   recorded shorthand and a trace-plus-recorder observer pair;
/// * an explicit all-zero warm start;
/// * the engine's own `(admission, selector)` pair passed explicitly.
#[test]
fn random_instances_agree_across_execution_modes_under_random_failures() {
    let mut draw = rng(0x5AA2_C0DE);
    let mut scratch = KernelScratch::new();
    let (warmup, horizon) = (0.5, 4.0);
    let mut dropped = 0;
    for k in 0..12u64 {
        let inst_seed = 0xBEEF_0000u64 ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let inst = random_instance(inst_seed);
        let h = inst.max_hops;
        let plan = RoutingPlan::min_hop(inst.topology.clone(), &inst.traffic, h);
        let mut failures = random_schedule(
            &mut draw,
            plan.topology().num_links(),
            warmup + horizon,
            k % 2 == 0,
        );
        if k % 2 == 1 {
            failures = with_srlg_outage(&mut draw, &plan, warmup + horizon, failures);
        }
        let capacities: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
        let zero_fill = vec![0u32; capacities.len()];
        for policy in [
            PolicyKind::ControlledAlternate { max_hops: h },
            PolicyKind::UncontrolledAlternate { max_hops: h },
        ] {
            let config = RunConfig {
                plan: &plan,
                policy,
                traffic: &inst.traffic,
                warmup,
                horizon,
                seed: inst_seed ^ 0x5EED,
                failures: &failures,
            };
            let oracle = run_seed(&config);
            assert_eq!(
                oracle,
                run_seed_pooled(&config, &mut scratch),
                "[{inst_seed:#x}] {policy:?} under {failures:?}: pooled diverged from run_seed"
            );
            assert_eq!(
                oracle,
                run_seed_reference(&config),
                "[{inst_seed:#x}] {policy:?} under {failures:?}: reference diverged from run_seed"
            );

            let label = format!("{inst_seed:#x}");
            let mut fresh_trace = BinaryTraceWriter::new(config.seed, &label);
            let traced = run_replication(
                &config,
                &mut KernelScratch::new(),
                &[],
                None,
                NAMED_POLICY,
                &mut fresh_trace,
            );
            assert_eq!(
                oracle, traced,
                "[{inst_seed:#x}] {policy:?}: traced run diverged"
            );
            let telemetry = || RunTelemetry::new(warmup, horizon, 1.0, capacities.clone());
            let mut recorded = telemetry();
            assert_eq!(
                oracle,
                run_seed_recorded(&config, &mut recorded),
                "[{inst_seed:#x}] {policy:?}: recorded run diverged"
            );
            let mut pooled_trace = BinaryTraceWriter::new(config.seed, &label);
            let mut pooled_recorded = telemetry();
            let mut pair = (&mut pooled_trace, Recording(&mut pooled_recorded));
            let traced_and_recorded =
                run_replication(&config, &mut scratch, &[], None, NAMED_POLICY, &mut pair);
            assert_eq!(
                oracle, traced_and_recorded,
                "[{inst_seed:#x}] {policy:?}: traced and recorded pooled run diverged"
            );
            assert!(
                fresh_trace.finish() == pooled_trace.finish(),
                "[{inst_seed:#x}] {policy:?}: trace bytes differ between fresh and pooled scratch"
            );
            assert_eq!(
                recorded, pooled_recorded,
                "[{inst_seed:#x}] {policy:?}: telemetry differs between recorder paths"
            );

            let warm = run_replication(
                &config,
                &mut scratch,
                &zero_fill,
                None,
                NAMED_POLICY,
                &mut NullObserver,
            );
            assert_eq!(
                oracle, warm,
                "[{inst_seed:#x}] {policy:?}: zero-fill warm start diverged"
            );

            let mut selector = TieredSelector::new(&plan);
            let explicit = match policy {
                PolicyKind::ControlledAlternate { .. } => run_seed_with_policy(
                    &config,
                    &mut TrunkReservation::new(plan.protection_levels().to_vec()),
                    &mut selector,
                    &mut NullObserver,
                    &mut altroute_telemetry::NullRecorder,
                ),
                _ => run_seed_with_policy(
                    &config,
                    &mut Uncontrolled,
                    &mut selector,
                    &mut NullObserver,
                    &mut altroute_telemetry::NullRecorder,
                ),
            };
            assert_eq!(
                oracle, explicit,
                "[{inst_seed:#x}] {policy:?}: explicit engine pair diverged from named dispatch"
            );
            dropped += oracle.dropped;
        }
    }
    assert!(dropped > 0, "no outage tore down a measured call");
}
