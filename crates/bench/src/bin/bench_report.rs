//! Machine-readable kernel performance baseline.
//!
//! Runs five fixed-seed macro workloads through the engine twice — once
//! on the calendar-queue kernel (`run_seed_pooled` with one recycled
//! [`KernelScratch`]) and once on the `BinaryHeap` reference backend
//! (`run_seed_reference`) — asserts the results are byte-identical, and
//! writes `BENCH_kernel.json` with wall-clock, events/sec, peak RSS, and
//! the calendar/reference speedup per workload. A non-engine
//! `path_enumeration` row rides along, timing the lazy `PathStore`'s incremental invalidation against full
//! re-enumeration after a single-link failure on a power-law mesh.
//!
//! The committed `BENCH_kernel.json` at the repo root is the baseline
//! that `scripts/bench_gate.sh` compares fresh runs against. Refresh it
//! with `cargo run --release -p altroute-bench --bin bench_report` on a
//! quiet machine and commit the diff.
//!
//! Modes:
//!
//! - (default) run the full workloads and write the report (`--out PATH`,
//!   default `BENCH_kernel.json` in the current directory).
//! - `--quick` shrinks horizons and repetitions for CI smoke runs; the
//!   report is marked `"quick": true` and refused by `--gate`.
//! - `--validate PATH` schema-checks an existing report and exits
//!   non-zero on any missing or malformed field.
//! - `--gate BASELINE FRESH [--tolerance FRAC]` fails (exit 1) when any
//!   workload's calendar events/sec regressed more than `FRAC` (default
//!   0.15) below the baseline.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_json::{obj, parse, Value};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::store::PathStore;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{run_seed_pooled, run_seed_reference, RunConfig, SeedResult};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::kernel::KernelScratch;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// One self-contained run spec (owns what `RunConfig` borrows).
struct Spec {
    plan: RoutingPlan,
    policy: PolicyKind,
    traffic: TrafficMatrix,
    failures: FailureSchedule,
    warmup: f64,
    horizon: f64,
    seed: u64,
}

impl Spec {
    fn config(&self) -> RunConfig<'_> {
        RunConfig {
            plan: &self.plan,
            policy: self.policy,
            traffic: &self.traffic,
            warmup: self.warmup,
            horizon: self.horizon,
            seed: self.seed,
            failures: &self.failures,
        }
    }
}

struct Workload {
    name: &'static str,
    description: &'static str,
    specs: Vec<Spec>,
}

/// The `time_churn`-style outage workload: the paper's quadrangle shape
/// at 4x the conventional capacity under proportionally heavy load, with
/// a 1.0-wide outage on link 0-1 every 2.5 time units — thousands of
/// concurrent calls keep the queue deep while mass teardowns and
/// re-arrivals keep churning it.
fn outage_churn(horizon: f64) -> Workload {
    let topo = topologies::full_mesh(4, 1000);
    let traffic = TrafficMatrix::uniform(4, 900.0);
    let link01 = topo.link_between(0, 1).expect("quadrangle has 0-1");
    let plan = RoutingPlan::min_hop(topo, &traffic, 3);
    let mut failures = FailureSchedule::none();
    let mut down = 10.0;
    while down + 1.0 < horizon {
        failures = failures.with_outage(link01, down, down + 1.0);
        down += 2.5;
    }
    Workload {
        name: "outage_churn",
        description: "quadrangle shape, C=1000, 900 Erlang/pair, link 0-1 down 1.0 of every 2.5",
        specs: vec![Spec {
            plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic,
            failures,
            warmup: 5.0,
            horizon,
            seed: 1,
        }],
    }
}

/// The quadrangle saturated well past nominal load, no failures: a
/// steady-state hot path dominated by arrivals/departures.
fn quadrangle_high_load(horizon: f64) -> Workload {
    let traffic = TrafficMatrix::uniform(4, 110.0);
    let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
    Workload {
        name: "quadrangle_high_load",
        description: "quadrangle @ 110 Erlang/pair, no failures",
        specs: vec![Spec {
            plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic,
            failures: FailureSchedule::none(),
            warmup: 5.0,
            horizon,
            seed: 0xBE7C,
        }],
    }
}

/// NSFNet at three load scales around its fitted nominal point — a
/// larger mesh with many concurrent pair streams per replication.
fn nsfnet_sweep(horizon: f64) -> Workload {
    let specs = [0.9, 1.1, 1.3]
        .iter()
        .enumerate()
        .map(|(i, &scale)| {
            let traffic = nsfnet_nominal_traffic().traffic.scaled(scale);
            let plan = RoutingPlan::min_hop(topologies::nsfnet(100), &traffic, 3);
            Spec {
                plan,
                policy: PolicyKind::ControlledAlternate { max_hops: 3 },
                traffic,
                failures: FailureSchedule::none(),
                warmup: 2.0,
                horizon,
                seed: 0x5EED + i as u64,
            }
        })
        .collect();
    Workload {
        name: "nsfnet_sweep",
        description: "NSFNet(100) at 0.9x/1.1x/1.3x nominal traffic",
        specs,
    }
}

/// The metastability smoke operating point: `K_16` at the bistable load
/// with best-of-2 tandem sampling — the hot path the `metastability`
/// experiment tier runs at scale, tracked here so regressions in the
/// best-of-d selector (per-overflow sampling + occupancy scans on a
/// dense mesh) show up in the baseline.
fn metastability(horizon: f64) -> Workload {
    let topo = topologies::full_mesh(16, 200);
    let traffic = TrafficMatrix::uniform(16, 177.0);
    let plan = RoutingPlan::min_hop(topo, &traffic, 2);
    Workload {
        name: "metastability",
        description: "K_16, C=200, 177 Erlang/pair, best-of-2 tandem sampling",
        specs: vec![Spec {
            plan,
            policy: PolicyKind::BestOfD { max_hops: 2, d: 2 },
            traffic,
            failures: FailureSchedule::none(),
            warmup: 2.0,
            horizon,
            seed: 0x0B0D_0010,
        }],
    }
}

/// Samples `count` distinct ordered demand pairs, seeded (the same
/// scheme the `largemesh` experiment tier uses).
fn sample_demand_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut next = topologies::xorshift_stream(seed ^ 0xDE3A_4D5A_3313_7E55);
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

/// The `largemesh` tier's operating regime as an engine workload: a
/// 120-node power-law mesh with sparse sampled demand and rolling
/// SRLG-group outages driven through the dynamic failure schedule, so
/// the event loop sees correlated mass teardowns on a mesh whose
/// candidate sets come from the lazy capped store.
fn largemesh_churn(horizon: f64) -> Workload {
    let seed = 0x1A26_E0ED;
    let topo = topologies::power_law_mesh(120, 40, seed);
    let groups = topologies::srlg_groups(&topo, 10, seed);
    let n = topo.num_nodes();
    let demand = sample_demand_pairs(n, 400, seed);
    let mut loads = vec![0.0_f64; n * n];
    for &(i, j) in &demand {
        loads[i * n + j] = 10.0;
    }
    let traffic = TrafficMatrix::from_fn(n, |i, j| loads[i * n + j]);
    let plan = RoutingPlan::min_hop_capped(topo, &traffic, 4, 6);
    let mut failures = FailureSchedule::none();
    let mut down = 3.0;
    let mut group = 0;
    while down + 2.0 < horizon {
        for &l in &groups[group % groups.len()] {
            failures = failures.with_outage(l, down, down + 2.0);
        }
        down += 4.0;
        group += 1;
    }
    Workload {
        name: "largemesh_churn",
        description: "power_law_mesh(120, C=40), 400 pairs @ 10 Erlang, \
                      rolling SRLG groups down 2.0 of every 4.0",
        specs: vec![Spec {
            plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 4 },
            traffic,
            failures,
            warmup: 2.0,
            horizon,
            seed: 0x1A26_0BEF,
        }],
    }
}

struct Measurement {
    name: &'static str,
    description: &'static str,
    events: u64,
    offered: u64,
    blocked: u64,
    dropped: u64,
    calendar_secs: f64,
    reference_secs: f64,
}

impl Measurement {
    fn calendar_events_per_sec(&self) -> f64 {
        self.events as f64 / self.calendar_secs
    }

    fn reference_events_per_sec(&self) -> f64 {
        self.events as f64 / self.reference_secs
    }

    fn speedup(&self) -> f64 {
        self.reference_secs / self.calendar_secs
    }
}

/// Times `reps` passes over the workload on both backends and keeps the
/// best (minimum) wall clock of each, after one untimed pass that checks
/// the two backends produce identical results.
fn measure(workload: &Workload, reps: usize, scratch: &mut KernelScratch) -> Measurement {
    let mut events = 0u64;
    let mut offered = 0u64;
    let mut blocked = 0u64;
    let mut dropped = 0u64;
    for spec in &workload.specs {
        let cal = run_seed_pooled(&spec.config(), scratch);
        let reference = run_seed_reference(&spec.config());
        assert_eq!(
            cal, reference,
            "{}: calendar and reference kernels diverged",
            workload.name
        );
        events += cal.metrics.events_processed;
        offered += cal.offered;
        blocked += cal.blocked;
        dropped += cal.dropped;
    }

    let mut calendar_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for spec in &workload.specs {
            black_box::<SeedResult>(run_seed_pooled(&spec.config(), scratch));
        }
        calendar_secs = calendar_secs.min(t.elapsed().as_secs_f64());
    }

    let mut reference_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for spec in &workload.specs {
            black_box::<SeedResult>(run_seed_reference(&spec.config()));
        }
        reference_secs = reference_secs.min(t.elapsed().as_secs_f64());
    }

    Measurement {
        name: workload.name,
        description: workload.description,
        events,
        offered,
        blocked,
        dropped,
        calendar_secs,
        reference_secs,
    }
}

struct PathEnumeration {
    description: &'static str,
    nodes: usize,
    links: usize,
    demand_pairs: usize,
    invalidated_pairs: usize,
    full_secs: f64,
    incremental_secs: f64,
}

impl PathEnumeration {
    fn speedup(&self) -> f64 {
        self.full_secs / self.incremental_secs
    }
}

/// Times recomputing a warmed demand set after a single-link failure two
/// ways: a cold store re-enumerating every demanded pair from scratch
/// (the pre-`PathStore` obligation) versus the incremental path — one
/// `set_link_state` eviction plus lazy refills of only the pairs whose
/// cached sets crossed the failed link. The failed link is the one with
/// the *median* traversal count among traversed links, a representative
/// (not best-case) choice; both paths are asserted to produce identical
/// candidate sets before anything is timed. Wall times are best-of-`reps`.
fn measure_path_enumeration(nodes: usize, demand_pairs: usize, reps: usize) -> PathEnumeration {
    const MAX_HOPS: usize = 4;
    const CAP: usize = 8;
    let seed = 0x1A26_E0ED;
    let topo = topologies::power_law_mesh(nodes, 60, seed);
    let links = topo.num_links();
    let demand = sample_demand_pairs(nodes, demand_pairs, seed);

    let warm = {
        let store = PathStore::with_cap(topo.clone(), MAX_HOPS, CAP);
        for &(i, j) in &demand {
            store.candidates(i, j);
        }
        store
    };
    let mut traversed: Vec<(usize, usize)> = (0..links)
        .map(|l| (warm.pairs_traversing(l).len(), l))
        .filter(|&(count, _)| count > 0)
        .collect();
    traversed.sort_unstable();
    let (invalidated_pairs, victim) = traversed[traversed.len() / 2];

    // Untimed oracle pass: the incremental store must match a full
    // re-enumeration against the same surviving links.
    let mut incremental = warm.clone();
    incremental.set_link_state(victim, false);
    let mut full = PathStore::with_cap(topo.clone(), MAX_HOPS, CAP);
    full.set_link_state(victim, false);
    for &(i, j) in &demand {
        assert_eq!(
            incremental.candidates(i, j),
            full.candidates(i, j),
            "path_enumeration: incremental recompute diverged from full for {i}->{j}"
        );
    }

    let mut full_secs = f64::INFINITY;
    for _ in 0..reps {
        let mut store = PathStore::with_cap(topo.clone(), MAX_HOPS, CAP);
        store.set_link_state(victim, false);
        let t = Instant::now();
        for &(i, j) in &demand {
            black_box(store.candidates(i, j));
        }
        full_secs = full_secs.min(t.elapsed().as_secs_f64());
    }

    let mut incremental_secs = f64::INFINITY;
    for _ in 0..reps {
        let mut store = warm.clone();
        let t = Instant::now();
        black_box(store.set_link_state(victim, false));
        for &(i, j) in &demand {
            black_box(store.candidates(i, j));
        }
        incremental_secs = incremental_secs.min(t.elapsed().as_secs_f64());
    }

    PathEnumeration {
        description: "power_law_mesh(C=60), H=4 cap=8: recompute the demanded pairs after \
                      failing the median-traversal link — cold store vs incremental eviction",
        nodes,
        links,
        demand_pairs: demand.len(),
        invalidated_pairs,
        full_secs,
        incremental_secs,
    }
}

/// Peak resident set size in bytes, from `/proc/self/status` `VmHWM`
/// (Linux only; 0 where the file or field is unavailable).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

const SCHEMA: &str = "altroute-bench-kernel/v3";

fn report(measurements: &[Measurement], path_enum: &PathEnumeration, quick: bool) -> Value {
    let workloads: Vec<Value> = measurements
        .iter()
        .map(|m| {
            obj! {
                "name" => m.name,
                "description" => m.description,
                "events" => m.events as f64,
                "offered" => m.offered as f64,
                "blocked" => m.blocked as f64,
                "dropped" => m.dropped as f64,
                "calendar" => obj! {
                    "wall_secs" => m.calendar_secs,
                    "events_per_sec" => m.calendar_events_per_sec(),
                },
                "reference" => obj! {
                    "wall_secs" => m.reference_secs,
                    "events_per_sec" => m.reference_events_per_sec(),
                },
                "speedup" => m.speedup(),
            }
        })
        .collect();
    obj! {
        "schema" => SCHEMA,
        "quick" => quick,
        "workloads" => Value::Array(workloads),
        "path_enumeration" => obj! {
            "description" => path_enum.description,
            "nodes" => path_enum.nodes as f64,
            "links" => path_enum.links as f64,
            "demand_pairs" => path_enum.demand_pairs as f64,
            "invalidated_pairs" => path_enum.invalidated_pairs as f64,
            "full_secs" => path_enum.full_secs,
            "incremental_secs" => path_enum.incremental_secs,
            "speedup" => path_enum.speedup(),
        },
        "peak_rss_bytes" => peak_rss_bytes() as f64,
    }
}

/// Checks a parsed report against the v1 schema. Returns every problem
/// found rather than stopping at the first.
fn validate(value: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    match value.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => problems.push(format!("unknown schema `{other}` (want `{SCHEMA}`)")),
        None => problems.push("missing string field `schema`".to_string()),
    }
    if value.get("quick").and_then(Value::as_bool).is_none() {
        problems.push("missing boolean field `quick`".to_string());
    }
    if value
        .get("peak_rss_bytes")
        .and_then(Value::as_f64)
        .is_none()
    {
        problems.push("missing numeric field `peak_rss_bytes`".to_string());
    }
    let Some(workloads) = value.get("workloads").and_then(Value::as_array) else {
        problems.push("missing array field `workloads`".to_string());
        return problems;
    };
    if workloads.is_empty() {
        problems.push("`workloads` is empty".to_string());
    }
    for (i, w) in workloads.iter().enumerate() {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                problems.push(format!("workload {i}: missing string field `name`"));
                format!("#{i}")
            });
        for field in ["events", "offered", "blocked", "dropped", "speedup"] {
            if w.get(field).and_then(Value::as_f64).is_none() {
                problems.push(format!("workload {name}: missing numeric field `{field}`"));
            }
        }
        for backend in ["calendar", "reference"] {
            for field in ["wall_secs", "events_per_sec"] {
                match w
                    .get(backend)
                    .and_then(|b| b.get(field))
                    .and_then(Value::as_f64)
                {
                    Some(x) if x > 0.0 && x.is_finite() => {}
                    Some(x) => problems.push(format!(
                        "workload {name}: `{backend}.{field}` = {x} is not positive and finite"
                    )),
                    None => problems.push(format!(
                        "workload {name}: missing numeric field `{backend}.{field}`"
                    )),
                }
            }
        }
    }
    let Some(path_enum) = value.get("path_enumeration") else {
        problems.push("missing object field `path_enumeration`".to_string());
        return problems;
    };
    if path_enum
        .get("description")
        .and_then(Value::as_str)
        .is_none()
    {
        problems.push("path_enumeration: missing string field `description`".to_string());
    }
    for field in [
        "nodes",
        "links",
        "demand_pairs",
        "invalidated_pairs",
        "full_secs",
        "incremental_secs",
        "speedup",
    ] {
        match path_enum.get(field).and_then(Value::as_f64) {
            Some(x) if x > 0.0 && x.is_finite() => {}
            Some(x) => problems.push(format!(
                "path_enumeration: `{field}` = {x} is not positive and finite"
            )),
            None => problems.push(format!("path_enumeration: missing numeric field `{field}`")),
        }
    }
    problems
}

fn load_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let problems = validate(&value);
    if problems.is_empty() {
        Ok(value)
    } else {
        Err(format!("{path}: {}", problems.join("; ")))
    }
}

/// Compares `fresh` against `baseline`: any workload present in both
/// whose calendar events/sec fell more than `tolerance` (fractional)
/// below the baseline is a failure. Workloads only in one file are
/// reported but not fatal (renames should not brick CI).
fn gate(baseline: &Value, fresh: &Value, tolerance: f64) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for v in [baseline, fresh] {
        if v.get("quick").and_then(Value::as_bool) == Some(true) {
            return Err(vec![
                "refusing to gate a `--quick` report; regenerate with a full run".to_string(),
            ]);
        }
    }
    let fresh_workloads = fresh.get("workloads").and_then(Value::as_array).unwrap();
    for b in baseline.get("workloads").and_then(Value::as_array).unwrap() {
        let name = b.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(f) = fresh_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            lines.push(format!(
                "{name}: in baseline but not in fresh report (skipped)"
            ));
            continue;
        };
        let eps = |w: &Value| {
            w.get("calendar")
                .and_then(|c| c.get("events_per_sec"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let (base, now) = (eps(b), eps(f));
        let ratio = now / base;
        let line = format!(
            "{name}: {:.0} -> {:.0} events/sec ({:+.1}%)",
            base,
            now,
            (ratio - 1.0) * 100.0
        );
        if ratio < 1.0 - tolerance {
            failures.push(format!(
                "{line} — regressed past the {:.0}% tolerance",
                tolerance * 100.0
            ));
        } else {
            lines.push(line);
        }
    }
    // Path-enumeration gate. The speedup is a within-run ratio (full vs
    // incremental on the same machine), so unlike raw events/sec it is
    // stable across hardware — the acceptance bar (incremental recompute
    // at least 10x faster than full re-enumeration after a single-link
    // change) is enforced absolutely on the fresh report.
    let pe_speedup = |v: &Value| {
        v.get("path_enumeration")
            .and_then(|p| p.get("speedup"))
            .and_then(Value::as_f64)
    };
    match (pe_speedup(baseline), pe_speedup(fresh)) {
        (Some(base), Some(now)) => {
            let line = format!("path_enumeration: incremental speedup {base:.1}x -> {now:.1}x");
            if now < 10.0 {
                failures.push(format!("{line} — below the 10x acceptance bar"));
            } else {
                lines.push(line);
            }
        }
        _ => lines.push("path_enumeration: missing from a report (skipped)".to_string()),
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        failures.extend(lines);
        Err(failures)
    }
}

fn run_benchmarks(quick: bool, out: &str) -> ExitCode {
    let (churn_h, quad_h, nsf_h, meta_h, mesh_h, reps) = if quick {
        (60.0, 40.0, 6.0, 2.0, 6.0, 1)
    } else {
        (400.0, 300.0, 25.0, 20.0, 30.0, 3)
    };
    let (pe_nodes, pe_pairs) = if quick { (240, 800) } else { (1000, 4000) };
    let workloads = [
        outage_churn(churn_h),
        quadrangle_high_load(quad_h),
        nsfnet_sweep(nsf_h),
        metastability(meta_h),
        largemesh_churn(mesh_h),
    ];
    let mut scratch = KernelScratch::new();
    let mut measurements = Vec::new();
    for w in &workloads {
        eprintln!("running {} ({})...", w.name, w.description);
        let m = measure(w, reps, &mut scratch);
        eprintln!(
            "  {} events | calendar {:.3}s ({:.0} ev/s) | reference {:.3}s ({:.0} ev/s) | speedup {:.2}x",
            m.events,
            m.calendar_secs,
            m.calendar_events_per_sec(),
            m.reference_secs,
            m.reference_events_per_sec(),
            m.speedup(),
        );
        measurements.push(m);
    }
    eprintln!("running path_enumeration (power_law_mesh({pe_nodes}), {pe_pairs} pairs)...");
    let path_enum = measure_path_enumeration(pe_nodes, pe_pairs, reps);
    eprintln!(
        "  full {:.4}s | incremental {:.4}s | {} of {} pairs invalidated | speedup {:.1}x",
        path_enum.full_secs,
        path_enum.incremental_secs,
        path_enum.invalidated_pairs,
        path_enum.demand_pairs,
        path_enum.speedup(),
    );
    let value = report(&measurements, &path_enum, quick);
    debug_assert!(
        validate(&value).is_empty(),
        "emitted report fails own schema"
    );
    if let Err(e) = std::fs::write(out, value.to_string_pretty() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_report [--quick] [--out PATH]\n\
         \x20      bench_report --validate PATH\n\
         \x20      bench_report --gate BASELINE FRESH [--tolerance FRAC]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_kernel.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut gate_paths: Option<(String, String)> = None;
    let mut tolerance = 0.15;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                let Some(p) = args.get(i) else { return usage() };
                out = p.clone();
            }
            "--validate" => {
                i += 1;
                let Some(p) = args.get(i) else { return usage() };
                validate_path = Some(p.clone());
            }
            "--gate" => {
                let (Some(b), Some(f)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage();
                };
                gate_paths = Some((b.clone(), f.clone()));
                i += 2;
            }
            "--tolerance" => {
                i += 1;
                let Some(t) = args.get(i).and_then(|t| t.parse::<f64>().ok()) else {
                    return usage();
                };
                tolerance = t;
            }
            _ => return usage(),
        }
        i += 1;
    }

    if let Some(path) = validate_path {
        return match load_report(&path) {
            Ok(_) => {
                eprintln!("{path}: valid {SCHEMA} report");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((baseline_path, fresh_path)) = gate_paths {
        let (baseline, fresh) = match (load_report(&baseline_path), load_report(&fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for e in [b.err(), f.err()].into_iter().flatten() {
                    eprintln!("{e}");
                }
                return ExitCode::FAILURE;
            }
        };
        return match gate(&baseline, &fresh, tolerance) {
            Ok(lines) => {
                for line in lines {
                    eprintln!("ok: {line}");
                }
                eprintln!("bench gate passed ({:.0}% tolerance)", tolerance * 100.0);
                ExitCode::SUCCESS
            }
            Err(lines) => {
                for line in lines {
                    eprintln!("FAIL: {line}");
                }
                ExitCode::FAILURE
            }
        };
    }

    run_benchmarks(quick, &out)
}
