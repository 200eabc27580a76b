//! Exact-output pins for every simulator.
//!
//! Each test runs one simulator at fixed seeds and folds its complete
//! deterministic output — `to_bits` of every float, every counter, every
//! per-pair and per-link vector — into a 64-bit FNV-1a digest, compared
//! against a value captured from the implementation these pins were
//! introduced against. The parity stage only compares a binary with
//! itself; these pins catch a refactor that changes what the simulators
//! compute. Wall-clock fields (`EngineMetrics::wall_clock_secs`, span
//! profiles) are excluded: they are measured, not simulated.
//!
//! A pin that fails after an intentional behaviour change must be
//! re-captured deliberately (the failure message prints the new digest).

use altroute_cellular::grid::CellGrid;
use altroute_cellular::policy::BorrowPolicy;
use altroute_cellular::sim::{
    run_cellular, run_cellular_telemetry, CellularParams, CellularResult,
};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_experiments::metastability::{run_metastability, MetastabilityConfig};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::adaptive::{
    run_adaptive_seed, run_adaptive_telemetry, AdaptiveConfig, AdaptiveSeedResult,
};
use altroute_sim::engine::{run_seed, RunConfig, SeedResult};
use altroute_sim::experiment::{Experiment, SimParams};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{
    run_multirate_telemetry, run_multirate_with_workers, BandwidthClass, MultirateParams,
    MultiratePolicy, MultirateResult,
};
use altroute_sim::signaling::{
    run_signaling, run_signaling_telemetry, SignalingConfig, SignalingPolicy, SignalingResult,
};
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{Histogram, RunTelemetry};

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn us(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for v in vs {
            self.u(v);
            n += 1;
        }
        self.u(n);
    }

    fn fs(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.us(vs.into_iter().map(f64::to_bits));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.us(bytes.iter().map(|&b| u64::from(b)));
    }

    fn seed_result(&mut self, r: &SeedResult) {
        self.us([
            r.seed,
            r.offered,
            r.blocked,
            r.carried_primary,
            r.carried_alternate,
            r.dropped,
        ]);
        self.us(r.per_pair_offered.iter().copied());
        self.us(r.per_pair_blocked.iter().copied());
        let m = &r.metrics;
        self.us([
            m.events_processed,
            m.peak_queue_len as u64,
            m.peak_concurrent_calls as u64,
            m.call_table_high_water as u64,
        ]);
        self.fs(m.link_utilization.iter().copied());
    }

    fn adaptive(&mut self, r: &AdaptiveSeedResult) {
        self.us([r.offered, r.blocked]);
        self.fs(r.final_estimates.iter().copied());
        self.us(r.final_levels.iter().map(|&l| u64::from(l)));
    }

    fn blocking(&mut self, b: &BlockingSummary) {
        self.fs(b.per_seed().iter().copied());
        let s = b.summary();
        self.fs([s.mean, s.std_error, s.ci95_half_width, s.min, s.max]);
        self.u(s.replications);
    }

    fn multirate(&mut self, r: &MultirateResult) {
        self.blocking(&r.blocking);
        self.fs(r.per_class_blocking.iter().copied());
        self.blocking(&r.bandwidth_blocking);
    }

    fn cellular(&mut self, r: &CellularResult) {
        self.blocking(&r.blocking);
        for &(o, b, borrowed) in &r.per_seed {
            self.us([o, b, borrowed]);
        }
    }

    fn signaling(&mut self, r: &SignalingResult) {
        self.us([r.offered, r.blocked, r.booking_races]);
        self.fs([r.mean_setup_latency, r.mean_attempts]);
    }

    fn histogram(&mut self, h: &Histogram) {
        self.u(h.count());
        self.fs([h.sum(), h.min(), h.max()]);
        for (lo, hi, n) in h.nonzero_buckets() {
            self.fs([lo, hi]);
            self.u(n);
        }
    }

    /// Every deterministic field of a finished snapshot (spans excluded).
    fn telemetry(&mut self, t: &RunTelemetry) {
        let grid = t.grid();
        self.fs([grid.width(), grid.end(), t.warmup]);
        self.us(t.capacities.iter().map(|&c| u64::from(c)));
        self.us([
            u64::from(t.replications),
            t.events,
            t.offered,
            t.blocked,
            t.carried_primary,
            t.carried_alternate,
            t.dropped,
            t.stale_departures,
            t.link_state_changes,
            u64::from(t.is_finished()),
        ]);
        for h in [
            &t.holding_time,
            &t.hop_count,
            &t.queue_depth,
            &t.inter_event_gap,
        ] {
            self.histogram(h);
        }
        for s in [
            &t.offered_series,
            &t.blocked_series,
            &t.alternate_series,
            &t.teardown_series,
        ] {
            self.us(s.counts().iter().copied());
        }
        for link in &t.link_occupancy {
            self.fs(link.integrals().iter().copied());
        }
    }
}

fn check(name: &str, digest: Digest, pinned: u64) {
    assert_eq!(
        digest.0, pinned,
        "{name}: output digest {:#018x} differs from the pinned {pinned:#018x}",
        digest.0
    );
}

const SIX_POLICIES: [fn(u32) -> PolicyKind; 6] = [
    |_| PolicyKind::SinglePath,
    |h| PolicyKind::UncontrolledAlternate { max_hops: h },
    |h| PolicyKind::ControlledAlternate { max_hops: h },
    |h| PolicyKind::OttKrishnan { max_hops: h },
    |h| PolicyKind::DarSticky { max_hops: h },
    |h| PolicyKind::BestOfD { max_hops: h, d: 2 },
];

/// The two pinned networks: the Fig. 3 quadrangle at 90 Erlangs/pair
/// with one timed outage (teardowns, stale departures), and NSFNet at
/// its nominal load with `H = 11`.
fn networks() -> Vec<(&'static str, Topology, TrafficMatrix, u32, FailureSchedule)> {
    let quad = topologies::quadrangle();
    let link01 = quad.link_between(0, 1).unwrap();
    vec![
        (
            "quadrangle",
            quad,
            TrafficMatrix::uniform(4, 90.0),
            3,
            FailureSchedule::none().with_outage(link01, 8.0, 16.0),
        ),
        (
            "nsfnet",
            topologies::nsfnet(100),
            nsfnet_nominal_traffic().traffic,
            11,
            FailureSchedule::none(),
        ),
    ]
}

#[test]
fn seed_results_are_pinned_for_every_policy() {
    let pinned: [[u64; 6]; 2] = [
        [
            0x847677dbb51b305e,
            0x56b30f2a3ef90869,
            0x582e1599d91d1ad9,
            0x5eb026bbed95d5fc,
            0xd32d0311ed83455e,
            0x5fe9af79a56a5c13,
        ],
        [
            0x117c4194369b5cb5,
            0xcf5968838d9566b6,
            0x9d8f375596013484,
            0xdf917919a30f1297,
            0xc0fdc0f960b2f4c0,
            0x0829b844f942ddec,
        ],
    ];
    for ((name, topo, traffic, h, failures), pins) in networks().into_iter().zip(pinned) {
        for (make, pin) in SIX_POLICIES.iter().zip(pins) {
            let policy = make(h);
            let plan = RoutingPlan::min_hop(topo.clone(), &traffic, h);
            let mut d = Digest::new();
            for seed in [3u64, 4] {
                d.seed_result(&run_seed(&RunConfig {
                    plan: &plan,
                    policy,
                    traffic: &traffic,
                    warmup: 2.0,
                    horizon: 20.0,
                    seed,
                    failures: &failures,
                }));
            }
            check(&format!("{name} {policy:?}"), d, pin);
        }
    }
}

#[test]
fn adaptive_results_are_pinned() {
    let pinned = [0x2bb75e1f1a2632f3, 0x0eb0b4d99cc26a6a];
    for ((name, topo, traffic, h, failures), pin) in networks().into_iter().zip(pinned) {
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        let mut d = Digest::new();
        for seed in [5u64, 6] {
            d.adaptive(&run_adaptive_seed(
                &plan,
                &traffic,
                2.0,
                20.0,
                seed,
                &failures,
                &AdaptiveConfig::default(),
            ));
        }
        check(name, d, pin);
    }
}

fn multirate_classes(traffic: &TrafficMatrix) -> Vec<BandwidthClass> {
    vec![
        BandwidthClass {
            bandwidth: 1,
            traffic: traffic.scaled(0.6),
        },
        BandwidthClass {
            bandwidth: 3,
            traffic: traffic.scaled(0.1),
        },
    ]
}

fn multirate_params(h: u32) -> MultirateParams {
    MultirateParams {
        warmup: 2.0,
        horizon: 20.0,
        seeds: 2,
        base_seed: 31,
        max_hops: h,
    }
}

#[test]
fn multirate_results_are_pinned_for_every_policy() {
    let pinned: [[u64; 3]; 2] = [
        [0xa496b746ff8eb737, 0xe253c1f32d8501a9, 0x5b2b90225de2fd27],
        [0xca64897ba5a7bd19, 0x6aec9bb7197d70fd, 0x5e8bf4cd0697fbec],
    ];
    for ((name, topo, traffic, h, failures), pins) in networks().into_iter().zip(pinned) {
        let classes = multirate_classes(&traffic);
        for (policy, pin) in [
            MultiratePolicy::SinglePath,
            MultiratePolicy::Uncontrolled,
            MultiratePolicy::Controlled,
        ]
        .into_iter()
        .zip(pins)
        {
            let mut d = Digest::new();
            d.multirate(&run_multirate_with_workers(
                &topo,
                &classes,
                policy,
                &multirate_params(h),
                &failures,
                2,
            ));
            check(&format!("{name} {}", policy.name()), d, pin);
        }
    }
}

fn cellular_case() -> (CellGrid, Vec<f64>, CellularParams) {
    let grid = CellGrid::new(4, 4, 20);
    let mut loads = vec![14.0; 16];
    loads[5] = 30.0;
    let params = CellularParams {
        warmup: 2.0,
        horizon: 30.0,
        seeds: 3,
        base_seed: 41,
    };
    (grid, loads, params)
}

#[test]
fn cellular_results_are_pinned_for_every_policy() {
    let pinned = [0xf0626bf28d6876cb, 0xfc971afc2b4ffdb0, 0x9a3f510350a565e0];
    let (grid, loads, params) = cellular_case();
    for (policy, pin) in [
        BorrowPolicy::NoBorrowing,
        BorrowPolicy::Uncontrolled,
        BorrowPolicy::Controlled,
    ]
    .into_iter()
    .zip(pinned)
    {
        let mut d = Digest::new();
        d.cellular(&run_cellular(&grid, &loads, policy, &params));
        check(policy.name(), d, pin);
    }
}

#[test]
fn signaling_results_are_pinned_for_every_policy() {
    let pinned: [[u64; 3]; 2] = [
        [0xc0a93d0eb106982b, 0x9701278e235bfd55, 0x6dcb7dbfe5477379],
        [0xf6e0dd9097798375, 0x7b5190c074120a38, 0x93fab07239f3171a],
    ];
    for ((name, topo, traffic, h, failures), pins) in networks().into_iter().zip(pinned) {
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        for (policy, pin) in [
            SignalingPolicy::SinglePath,
            SignalingPolicy::Uncontrolled,
            SignalingPolicy::Controlled,
        ]
        .into_iter()
        .zip(pins)
        {
            let mut d = Digest::new();
            for seed in [7u64, 8] {
                d.signaling(&run_signaling(
                    &plan,
                    &traffic,
                    &failures,
                    &SignalingConfig {
                        hop_delay: 0.01,
                        policy,
                        warmup: 2.0,
                        horizon: 20.0,
                        seed,
                    },
                ));
            }
            check(&format!("{name} {}", policy.name()), d, pin);
        }
    }
}

/// One merged multi-seed `RunTelemetry` per simulator, on the
/// quadrangle-with-outage network (the grid for cellular).
#[test]
fn merged_telemetry_is_pinned_for_every_simulator() {
    let pinned = [
        0xb09a27f390fc6b42,
        0x8187dcf7ce2dc0ee,
        0x179f19b1d9853c7c,
        0x3c090c490ef73906,
        0x2fcddd97e6fb2203,
    ];
    let (_, topo, traffic, h, failures) = networks().swap_remove(0);
    let window = 2.5;
    let mut digests = Vec::new();

    let exp = Experiment::new(topo.clone(), traffic.clone())
        .unwrap()
        .with_failures(failures.clone());
    let params = SimParams {
        warmup: 2.0,
        horizon: 20.0,
        seeds: 3,
        base_seed: 51,
    };
    let (result, telemetry) = exp.run_telemetry_with_workers(
        PolicyKind::ControlledAlternate { max_hops: h },
        &params,
        window,
        2,
        None,
    );
    let mut d = Digest::new();
    d.telemetry(&telemetry);
    for r in &result.per_seed {
        d.seed_result(r);
    }
    digests.push(("experiment", d));

    let plan = RoutingPlan::min_hop(topo.clone(), &traffic, h);
    let (per_seed, summary, telemetry) = run_adaptive_telemetry(
        &plan,
        &traffic,
        2.0,
        20.0,
        61,
        3,
        &failures,
        &AdaptiveConfig::default(),
        2,
        window,
    );
    let mut d = Digest::new();
    d.telemetry(&telemetry);
    for r in &per_seed {
        d.adaptive(r);
    }
    d.blocking(&summary);
    digests.push(("adaptive", d));

    let (result, telemetry) = run_multirate_telemetry(
        &topo,
        &multirate_classes(&traffic),
        MultiratePolicy::Controlled,
        &multirate_params(h),
        &failures,
        window,
    );
    let mut d = Digest::new();
    d.telemetry(&telemetry);
    d.multirate(&result);
    digests.push(("multirate", d));

    let (grid, loads, cell_params) = cellular_case();
    let (result, telemetry) = run_cellular_telemetry(
        &grid,
        &loads,
        BorrowPolicy::Controlled,
        &cell_params,
        window,
    );
    let mut d = Digest::new();
    d.telemetry(&telemetry);
    d.cellular(&result);
    digests.push(("cellular", d));

    let (per_seed, summary, telemetry) = run_signaling_telemetry(
        &plan,
        &traffic,
        &failures,
        &SignalingConfig {
            hop_delay: 0.01,
            policy: SignalingPolicy::Controlled,
            warmup: 2.0,
            horizon: 20.0,
            seed: 71,
        },
        3,
        window,
    );
    let mut d = Digest::new();
    d.telemetry(&telemetry);
    for r in &per_seed {
        d.signaling(r);
    }
    d.blocking(&summary);
    digests.push(("signaling", d));

    for ((name, d), pin) in digests.into_iter().zip(pinned) {
        check(name, d, pin);
    }
}

/// The metastability smoke preset's one anomaly dump: the Eq.-15
/// saturated arm's frozen flight ring, byte for byte.
#[test]
fn metastability_smoke_flight_dump_is_pinned() {
    let report = run_metastability(&MetastabilityConfig::smoke());
    let arm = report
        .arms
        .iter()
        .find(|a| a.name() == "eq15_saturated")
        .expect("eq15_saturated arm");
    let flight = arm.flight.as_ref().expect("the arm freezes a flight dump");
    let mut d = Digest::new();
    d.u(flight.seed);
    d.bytes(&flight.bytes);
    check("eq15_saturated flight dump", d, 0xc11da7602853bd1b);
}
