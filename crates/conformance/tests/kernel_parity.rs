//! Kernel-parity regression: after porting the engine onto the shared
//! discrete-event kernel, the golden scenarios (NSFNet and the Fig. 3
//! quadrangle) must replay byte-identically — solo, and fanned out over
//! any worker count — and every execution mode of one replication
//! (fresh, pooled scratch, `BinaryHeap` reference queue) must agree on
//! random instances under random failure schedules.

use altroute_conformance::golden::{
    golden_names, replay_check, scenario_replications, scenario_replications_recorded,
    scenario_replications_warm,
};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies::random_instance;
use altroute_sim::engine::{run_seed, run_seed_pooled, run_seed_reference, RunConfig};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::kernel::KernelScratch;

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

/// Hand-rolled property test: on random instances under random failure
/// schedules (timed outages, and a static outage on half the
/// instances), the fresh, pooled and reference-queue entries agree bit
/// for bit — for the controlled policy and for the free (uncontrolled)
/// one. One scratch is recycled across every pooled run.
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
        let failures = random_schedule(
            &mut draw,
            plan.topology().num_links(),
            warmup + horizon,
            k % 2 == 0,
        );
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
            dropped += oracle.dropped;
        }
    }
    assert!(dropped > 0, "no outage tore down a measured call");
}
