//! Golden-trace recording and replay.
//!
//! Two fixed scenarios — the paper's Fig. 3 quadrangle and NSFNet — run
//! through [`run_seed_traced`](altroute_sim::engine::run_seed_traced)
//! with a [`BinaryTraceWriter`], and the resulting byte blobs are checked
//! into `crates/conformance/golden/`. [`replay_check`] re-records a
//! scenario and diffs it against the checked-in bytes: any change to
//! event ordering, RNG stream layout, or admission logic surfaces as a
//! divergence at a specific event index.
//!
//! Golden files are regenerated with the `conformance --bless` CLI
//! subcommand (see [`bless`]) after an *intentional* behaviour change,
//! and the new bytes are reviewed like any other diff.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{
    run_seed_pooled, run_seed_recorded, run_seed_traced, run_seed_warm, RunConfig, SeedResult,
};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::trace::{diff_traces, BinaryTraceWriter, TraceDiff};
use altroute_simcore::kernel::KernelScratch;
use altroute_simcore::pool::pool_run_with;
use altroute_telemetry::RunTelemetry;
use std::path::PathBuf;

/// Whether to record a scenario as specified or with a deliberate
/// admission-logic change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Record the scenario as specified.
    Nominal,
    /// Record with every protection level bumped by one (clamped to the
    /// link capacity) — a minimal admission-logic change that must flip
    /// the trace diff red, proving the replay check has teeth.
    BumpProtection,
}

struct Scenario {
    plan: RoutingPlan,
    policy: PolicyKind,
    traffic: TrafficMatrix,
    failures: FailureSchedule,
    warmup: f64,
    horizon: f64,
    seed: u64,
}

/// The checked-in golden scenarios.
pub fn golden_names() -> &'static [&'static str] {
    &["quadrangle-fig3", "nsfnet", "k6-bod"]
}

fn scenario(name: &str) -> Scenario {
    match name {
        // The paper's Fig. 3 quadrangle under heavy symmetric load, with
        // one link taken down mid-run so the trace also pins teardown,
        // stale-departure, and link-event behaviour.
        "quadrangle-fig3" => {
            let topo = topologies::quadrangle();
            let traffic = TrafficMatrix::uniform(4, 95.0);
            let outage_link = topo.link_between(0, 1).expect("quadrangle has 0-1");
            Scenario {
                plan: RoutingPlan::min_hop(topo, &traffic, 3),
                policy: PolicyKind::ControlledAlternate { max_hops: 3 },
                traffic,
                failures: FailureSchedule::none().with_outage(outage_link, 1.0, 1.8),
                warmup: 0.5,
                horizon: 2.0,
                seed: 0x601D_F163,
            }
        }
        // NSFNet moderately above its fitted nominal load: a mesh large
        // enough that the trace exercises many concurrent pair streams,
        // congested enough that alternate admissions regularly probe the
        // protection thresholds (the perturbation test depends on it)
        // without saturating every link.
        "nsfnet" => {
            let topo = topologies::nsfnet(100);
            let traffic = nsfnet_nominal_traffic().traffic.scaled(1.35);
            Scenario {
                plan: RoutingPlan::min_hop(topo, &traffic, 3),
                policy: PolicyKind::ControlledAlternate { max_hops: 3 },
                traffic,
                failures: FailureSchedule::none(),
                warmup: 0.2,
                horizon: 2.8,
                seed: 0x0601_D05F,
            }
        }
        // K_6 near critical load under the best-of-d selector: every
        // overflow samples the private selector stream, so the trace
        // pins the sampling draw order and tie-breaking alongside the
        // trunk-reservation admission decisions.
        "k6-bod" => {
            let topo = topologies::full_mesh(6, 30);
            // Load chosen so overflows regularly find tandems *near* the
            // reservation boundary (occupancy C - r - 1): at 24 Erlangs
            // the Eq.-15 level is r = 3 and the boundary sits in the
            // bulk of the tandem-occupancy distribution, so the
            // perturbation check (r bumped by one) has teeth. At loads
            // near capacity, overflows only happen when the whole mesh
            // is congested and every tandem is far above the boundary.
            let traffic = TrafficMatrix::uniform(6, 26.0);
            Scenario {
                plan: RoutingPlan::min_hop(topo, &traffic, 2),
                policy: PolicyKind::BestOfD { max_hops: 2, d: 2 },
                traffic,
                failures: FailureSchedule::none(),
                // Long enough past the cold start that links actually
                // fill (mean holding is one time unit), so the trace
                // contains a healthy population of overflows.
                warmup: 2.0,
                horizon: 3.0,
                seed: 0x0B0D_0006,
            }
        }
        other => panic!("unknown golden scenario `{other}`"),
    }
}

/// Where the checked-in trace for `name` lives.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.trace"))
}

/// Records scenario `name` and returns the encoded trace.
///
/// # Panics
///
/// Panics on an unknown scenario name.
pub fn record_scenario(name: &str, perturbation: Perturbation) -> Vec<u8> {
    let mut s = scenario(name);
    if perturbation == Perturbation::BumpProtection {
        let capacities: Vec<u32> = s
            .plan
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity)
            .collect();
        let bumped: Vec<u32> = s
            .plan
            .protection_levels()
            .iter()
            .zip(&capacities)
            .map(|(&r, &c)| (r + 1).min(c))
            .collect();
        s.plan = s.plan.with_protection_levels(bumped);
    }
    let mut writer = BinaryTraceWriter::new(s.seed, name);
    run_seed_traced(
        &RunConfig {
            plan: &s.plan,
            policy: s.policy,
            traffic: &s.traffic,
            warmup: s.warmup,
            horizon: s.horizon,
            seed: s.seed,
            failures: &s.failures,
        },
        &mut writer,
    );
    writer.finish()
}

/// Runs scenario `name` as a multi-seed replication set (seed `i` uses
/// the scenario seed + `i`) on `workers` workers and returns the
/// per-seed results in seed order — the kernel-parity harness. The
/// worker count must be a pure scheduling detail: any two counts must
/// yield byte-identical results.
///
/// # Panics
///
/// Panics on an unknown scenario name or `seeds == 0` / `workers == 0`.
pub fn scenario_replications(name: &str, seeds: u32, workers: usize) -> Vec<SeedResult> {
    let s = scenario(name);
    pool_run_with(
        seeds as usize,
        workers,
        None,
        KernelScratch::new,
        |scratch, i| {
            run_seed_pooled(
                &RunConfig {
                    plan: &s.plan,
                    policy: s.policy,
                    traffic: &s.traffic,
                    warmup: s.warmup,
                    horizon: s.horizon,
                    seed: s.seed + i as u64,
                    failures: &s.failures,
                },
                scratch,
            )
        },
    )
}

/// The initial occupancy used by the warm-start harnesses: every link
/// of scenario `name` filled to `fill_percent` of its capacity
/// (rounded down; 0 is an explicit all-zero warm start, 100 is
/// saturated).
fn scenario_fill(s: &Scenario, fill_percent: u32) -> Vec<u32> {
    s.plan
        .topology()
        .links()
        .iter()
        .map(|l| (u64::from(l.capacity) * u64::from(fill_percent) / 100) as u32)
        .collect()
}

/// As [`scenario_replications`] on one worker, but through the
/// warm-start entry with every link pre-filled to `fill_percent` of
/// capacity — the warm-start parity harness. At `fill_percent = 0` the
/// results must be byte-identical to the cold oracle.
///
/// # Panics
///
/// Panics on an unknown scenario name.
pub fn scenario_replications_warm(name: &str, seeds: u32, fill_percent: u32) -> Vec<SeedResult> {
    let s = scenario(name);
    let initial = scenario_fill(&s, fill_percent);
    (0..seeds)
        .map(|i| {
            run_seed_warm(
                &RunConfig {
                    plan: &s.plan,
                    policy: s.policy,
                    traffic: &s.traffic,
                    warmup: s.warmup,
                    horizon: s.horizon,
                    seed: s.seed + u64::from(i),
                    failures: &s.failures,
                },
                &initial,
            )
        })
        .collect()
}

/// A telemetry recorder for scenario `s`, gridded into ten windows over
/// its covered range.
fn scenario_telemetry(s: &Scenario) -> RunTelemetry {
    let capacities: Vec<u32> = s
        .plan
        .topology()
        .links()
        .iter()
        .map(|l| l.capacity)
        .collect();
    let window = (s.warmup + s.horizon) / 10.0;
    RunTelemetry::new(s.warmup, s.horizon, window, capacities)
}

/// As [`scenario_replications`] on one worker, but with a live
/// [`RunTelemetry`] recorder attached to every seed — the harness that
/// checks a recorder never perturbs the results. Returns each
/// seed's result alongside its finished telemetry snapshot.
///
/// # Panics
///
/// Panics on an unknown scenario name.
pub fn scenario_replications_recorded(name: &str, seeds: u32) -> Vec<(SeedResult, RunTelemetry)> {
    let s = scenario(name);
    (0..seeds)
        .map(|i| {
            let mut telemetry = scenario_telemetry(&s);
            let result = run_seed_recorded(
                &RunConfig {
                    plan: &s.plan,
                    policy: s.policy,
                    traffic: &s.traffic,
                    warmup: s.warmup,
                    horizon: s.horizon,
                    seed: s.seed + u64::from(i),
                    failures: &s.failures,
                },
                &mut telemetry,
            );
            (result, telemetry)
        })
        .collect()
}

/// Re-records scenario `name` and diffs against the checked-in golden
/// trace. Returns `None` on an exact match, or a human-readable
/// divergence description.
pub fn replay_check(name: &str) -> Option<String> {
    let path = golden_path(name);
    let golden = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => return Some(format!("cannot read {}: {e}", path.display())),
    };
    let fresh = record_scenario(name, Perturbation::Nominal);
    match diff_traces(&golden, &fresh) {
        Ok(TraceDiff::Identical) => None,
        Ok(diff) => Some(diff.to_string()),
        Err(e) => Some(format!("golden trace undecodable: {e}")),
    }
}

/// Regenerates the golden trace for `name` on disk and returns its path.
pub fn bless(name: &str) -> std::io::Result<PathBuf> {
    let path = golden_path(name);
    std::fs::create_dir_all(path.parent().expect("golden dir has parent"))?;
    std::fs::write(&path, record_scenario(name, Perturbation::Nominal))?;
    Ok(path)
}
