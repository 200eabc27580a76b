//! The benchmark's command-line entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it makes the traced run and the per-layer
//! microbenches. Either way it checks the outputs (pinned digests at the
//! default seed; determinism and conservation on every seed), prints a
//! run header, every metric by name with its unit, and as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! spans and histograms of the run are written to `DIR`.

use altroute_json::{obj, Value};
use altroute_perfbench::affinity::Rotation;
use altroute_perfbench::feed::{self, Feed, FeedSpec, ReplayOutcome};
use altroute_perfbench::micro;
use altroute_perfbench::probe::{LayerCounts, SpanLog};
use altroute_perfbench::sim::{
    Arm, SimOutcome, SimState, SimWorkload, CHURN_HORIZON, CHURN_WARMUP, FIG6_HORIZON, FIG6_WARMUP,
    MESH_HORIZON, MESH_WARMUP,
};
use altroute_perfbench::stats::{median, median_of_means, summarize, IntHistogram};
use altroute_telemetry::feed::{parse_line, FeedEvent, FeedLine};
use altroute_teletraffic::estimate::offered_link_loads;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed whose outputs are pinned.
const DEFAULT_SEED: u64 = 1;

/// Digests of each workload's complete result at [`DEFAULT_SEED`]: the
/// per-replication `SeedResult` fields for the simulations, the rendered
/// level-update stream for the daemon.
const PINS: [(&str, u64); 4] = [
    ("nsfnet_fig6", 0x65d1_03c4_61e8_a2d5),
    ("quadrangle_churn", 0x4d95_941f_9b43_6d0b),
    ("largemesh_srlg", 0xf8cc_110a_d89c_3b17),
    ("altrouted_replay", 0x8660_6d99_3d6c_cdfd),
];

/// Every run repeats its measured unit at least this often, however
/// short `--seconds` is, so medians and quartiles exist.
const MIN_REPS: usize = 3;

/// Extra set-ups before each result take about this share of the
/// previous result's host time (see `setup_batch`).
const SETUP_SHARE: f64 = 0.02;

/// `setup_s` is the median of the means of this many consecutive parts
/// of the run's set-up samples.
const SETUP_PARTS: usize = 5;

/// Reliability floor of a tail percentile: report the highest
/// percentile with at least this many samples beyond it.
const TAIL_SAMPLES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Sim(SimWorkload),
    AltroutedReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "nsfnet_fig6" => Workload::Sim(SimWorkload::NsfnetFig6),
            "quadrangle_churn" => Workload::Sim(SimWorkload::QuadrangleChurn {
                horizon: CHURN_HORIZON,
            }),
            "largemesh_srlg" => Workload::Sim(SimWorkload::LargemeshSrlg),
            "altrouted_replay" => Workload::AltroutedReplay,
            _ => return None,
        })
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut name = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = ".bench_build/perfbench".to_string();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => name = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                "--out-dir" => out_dir = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = name.ok_or("--workload is required")?;
        let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
        Ok(Self {
            name,
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
        })
    }
}

/// What a run measured and checked.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    reps: usize,
    notes: Vec<String>,
    spans: SpanLog,
    histograms: Vec<(&'static str, IntHistogram)>,
    /// Every sample of each end-to-end timing, in the order taken.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    fn new() -> Self {
        Self {
            correct: true,
            ..Default::default()
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, note: String) {
        self.correct = false;
        self.notes.push(note);
    }
}

fn pin_of(name: &str) -> Option<u64> {
    PINS.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj! {
        "workload" => args.name.as_str(),
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "nproc" => altroute_simcore::pool::default_workers(),
        "cpu" => cpu,
        "rustc" => command_line("rustc", &["-V"]),
        "commit" => command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    }
}

/// The highest percentile with at least [`TAIL_SAMPLES`] samples beyond
/// it, capped at p99; `None` with fewer than that many samples.
fn tail_percentile(n: usize) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    let p = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    Some((p * 100.0).floor().min(99.0) / 100.0)
}

fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

// ---------------------------------------------------------------------
// End-to-end runs (tracing off).

/// Runs `unit` (one complete result, set-up included) until `seconds`
/// have passed and at least [`MIN_REPS`] results exist. Each call gets
/// the previous call's host time. A single-threaded unit moves to the
/// next allowed core before each result (see [`Rotation`]).
fn repeat<T>(seconds: f64, single_threaded: bool, mut unit: impl FnMut(f64) -> T) -> Vec<T> {
    let mut rotation = single_threaded.then(Rotation::new);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < MIN_REPS || Instant::now() < deadline {
        if let Some(r) = rotation.as_mut() {
            r.advance();
        }
        let t = Instant::now();
        out.push(unit(last));
        last = t.elapsed().as_secs_f64();
    }
    out
}

/// Times extra back-to-back set-ups before a result, worth about
/// [`SETUP_SHARE`] of the previous one, so that a cheap set-up is
/// sampled often and all through the run. A set-up dearer than that
/// share is sampled only inside the results.
fn setup_batch(samples: &mut Vec<f64>, last: f64, mut setup: impl FnMut()) {
    let budget = SETUP_SHARE * last;
    let mut spent = 0.0;
    while spent < budget {
        let t = Instant::now();
        setup();
        let s = t.elapsed().as_secs_f64();
        if s > budget {
            break;
        }
        samples.push(s);
        spent += s;
    }
}

struct SimRep {
    wall: f64,
    /// Set-up samples taken before and inside this result, in order.
    setups: Vec<f64>,
    outcome: Option<SimOutcome>,
}

fn check_sim(
    report: &mut Report,
    first: &mut Option<SimOutcome>,
    out: &SimOutcome,
    pin: Option<u64>,
) {
    report.attempted += out.replications;
    if out.violations > 0 {
        report.failed += out.violations;
        report.fail(format!(
            "{} replications broke conservation",
            out.violations
        ));
    }
    match first {
        None => {
            if let Some(pin) = pin {
                if out.digest != pin {
                    report.failed += out.replications;
                    report.fail(format!(
                        "digest {:016x} differs from the pinned {pin:016x}",
                        out.digest
                    ));
                }
            }
            *first = Some(out.clone());
        }
        Some(reference) => {
            let differing = out
                .rep_digests
                .iter()
                .zip(&reference.rep_digests)
                .filter(|(a, b)| a != b)
                .count() as u64
                + out.rep_digests.len().abs_diff(reference.rep_digests.len()) as u64;
            if differing > 0 {
                report.failed += differing;
                report.fail(format!(
                    "{differing} replications differ between repetitions"
                ));
            }
        }
    }
}

fn sim_end_to_end(w: SimWorkload, args: &Args, pin: Option<u64>) -> Report {
    let mut report = Report::new();
    let reps = repeat(args.seconds, w.workers() == 1, |last| {
        let mut setups = Vec::new();
        setup_batch(&mut setups, last, || {
            std::hint::black_box(w.setup());
        });
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut state = w.setup();
            setups.push(t0.elapsed().as_secs_f64());
            w.run(&mut state, Arm::Pooled, args.seed)
        }));
        SimRep {
            wall: t0.elapsed().as_secs_f64(),
            setups,
            outcome: run.ok(),
        }
    });
    let mut first = None;
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    for rep in &reps {
        setups.extend(&rep.setups);
        match &rep.outcome {
            Some(out) => {
                check_sim(&mut report, &mut first, out, pin);
                walls.push(rep.wall);
                // Single-threaded workloads give one sample per
                // replication; the pool's throughput needs the whole
                // simulation phase.
                if w.workers() == 1 {
                    rates.extend(&out.rep_rates);
                } else {
                    rates.push(out.events as f64 / out.sim_secs);
                }
            }
            None => {
                report.attempted += 1;
                report.failed += 1;
                report.fail("a complete result panicked".into());
            }
        }
    }
    report.reps = reps.len();
    let Some(out) = &first else {
        return report;
    };
    report.notes.push(format!("digest {:016x}", out.digest));
    end_to_end_metrics(&mut report, &rates, &walls, &setups);
    report
}

/// Reports the end-to-end timings and the process's peak RSS.
/// `events_per_s` and `wall_s` are the medians of their samples over
/// the whole run. `setup_s` is the median of [`SETUP_PARTS`] means,
/// one per consecutive part of the run's set-up samples (see
/// [`median_of_means`]).
fn end_to_end_metrics(report: &mut Report, rates: &[f64], walls: &[f64], setups: &[f64]) {
    for (name, samples) in [
        ("events_per_s", rates),
        ("wall_s", walls),
        ("setup_s", setups),
    ] {
        timing_note(report, name, samples);
        report.samples.push((name, samples.to_vec()));
    }
    report.metric("events_per_s", median(rates), "1/s");
    report.metric("wall_s", median(walls), "s");
    report.metric("setup_s", median_of_means(setups, SETUP_PARTS), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn feed_end_to_end(args: &Args, pin: Option<u64>) -> Report {
    let mut report = Report::new();
    let feed = feed::generate(feed::REPLAY, args.seed);
    let mut first: Option<u64> = None;
    let reps = repeat(args.seconds, true, |last| {
        let mut setups = Vec::new();
        setup_batch(&mut setups, last, || {
            std::hint::black_box(feed::controller(feed::plane(feed.spec)));
        });
        let t0 = Instant::now();
        let mut controller = feed::controller(feed::plane(feed.spec));
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let out = feed::replay(&mut controller, &feed);
        (
            t0.elapsed().as_secs_f64(),
            setups,
            t1.elapsed().as_secs_f64(),
            out,
        )
    });
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    for (wall, rep_setups, replay, out) in &reps {
        report.attempted += out.lines;
        check_feed(&mut report, &mut first, out, pin);
        walls.push(*wall);
        setups.extend(rep_setups);
        rates.push(out.lines as f64 / replay);
    }
    report.reps = reps.len();
    if let Some(digest) = first {
        report.notes.push(format!("digest {digest:016x}"));
    }
    end_to_end_metrics(&mut report, &rates, &walls, &setups);
    report
}

fn check_feed(report: &mut Report, first: &mut Option<u64>, out: &ReplayOutcome, pin: Option<u64>) {
    let (digest, failed, lines) = (out.digest, out.failed, out.lines);
    if failed > 0 || !out.ended {
        report.failed += failed.max(1);
        report.fail(format!(
            "{failed} feed lines failed on a clean feed (ended: {})",
            out.ended
        ));
    }
    match *first {
        None => {
            if let Some(pin) = pin {
                if digest != pin {
                    report.failed += lines;
                    report.fail(format!(
                        "update-stream digest {digest:016x} differs from the pinned {pin:016x}"
                    ));
                }
            }
            *first = Some(digest);
        }
        Some(reference) if reference != digest => {
            report.failed += lines;
            report.fail("the update stream differs between repetitions".into());
        }
        Some(_) => {}
    }
}

fn timing_note(report: &mut Report, name: &str, samples: &[f64]) {
    let s = summarize(samples);
    report.notes.push(format!(
        "{name}: median {:.6e} q1 {:.6e} q3 {:.6e} min {:.6e} max {:.6e} n {}",
        s.median,
        s.q1,
        s.q3,
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(0.0, f64::max),
        s.n
    ));
}

// ---------------------------------------------------------------------
// Traced runs (per-layer metrics).

/// What the traced run of a simulation workload recorded.
struct SimLayers {
    counts: LayerCounts,
    plain: SimOutcome,
    traced_wall: f64,
    overhead_ratio: f64,
    recorded_ratio: f64,
    workers: usize,
    state_links: u64,
    num_links: usize,
    capacity: u32,
    levels: Vec<u32>,
    link_loads: Vec<(f64, u32)>,
    max_hops: u32,
    plan_build_s: f64,
    store_warm_s: f64,
    pairs_enumerated: u64,
    evicted_on_failure: u64,
    evicted_on_revival: u64,
    refill_s: f64,
    demand_pairs: u64,
    sim_time: f64,
}

fn trace_sim(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    expect: Option<u64>,
) -> SimLayers {
    let mut spans = std::mem::take(&mut report.spans);
    let mut state: SimState = spans.span("setup", |s| {
        let mut state = s.span("core.plan", |_| w.build());
        s.span("netgraph.store.warm", |_| state.warm());
        state
    });
    // Alternate the arms so drift in machine speed hits all three alike.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    let (mut plain, mut probed, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcomes: Vec<(Arm, SimOutcome)> = Vec::new();
    while plain.len() < 2 || (Instant::now() < deadline && plain.len() < 5) {
        for (arm, walls) in [
            (Arm::Plain, &mut plain),
            (Arm::Probed, &mut probed),
            (Arm::Recorded, &mut recorded),
        ] {
            let name = match arm {
                Arm::Plain => "simcore.kernel.run[plain]",
                Arm::Probed => "simcore.kernel.run[probed]",
                _ => "simcore.kernel.run[recorded]",
            };
            let out = spans.span(name, |_| w.run(&mut state, arm, seed));
            walls.push(out.sim_secs);
            outcomes.push((arm, out));
        }
    }
    report.spans = spans;
    let first_of = |wanted: Arm| {
        outcomes
            .iter()
            .find(|(arm, _)| *arm == wanted)
            .map(|(_, out)| out.clone())
            .expect("every arm ran")
    };
    let plain_out = first_of(Arm::Plain);
    let probed_out = first_of(Arm::Probed);
    for (_, out) in &outcomes {
        report.attempted += out.replications;
        if out.digest != plain_out.digest {
            report.failed += out.replications;
            report.fail(format!(
                "traced or recorded digest {:016x} differs from the plain {:016x}",
                out.digest, plain_out.digest
            ));
        }
        if out.violations > 0 {
            report.failed += out.violations;
            report.fail(format!(
                "{} replications broke conservation",
                out.violations
            ));
        }
    }
    if let Some(pin) = expect {
        if plain_out.digest != pin {
            report.fail(format!(
                "digest {:016x} differs from the pinned {pin:016x}",
                plain_out.digest
            ));
        }
    }
    let counts = probed_out.counts.clone().expect("probed");
    let (evicted_on_failure, evicted_on_revival, refill_s) =
        if matches!(w, SimWorkload::LargemeshSrlg) {
            (
                plain_out.evicted_on_failure,
                plain_out.evicted_on_revival,
                plain_out.refill_secs,
            )
        } else {
            let (evicted, secs) = SimWorkload::refill_probe(&state);
            (evicted, 0, secs)
        };
    // The plan with the longest alternates sets the admission mix.
    let plan = &state
        .plans
        .iter()
        .max_by_key(|e| e.plan.max_alternate_hops())
        .expect("a workload has a plan")
        .plan;
    let topo = plan.topology();
    let link_loads = state
        .plans
        .iter()
        .flat_map(|e| {
            e.plan
                .link_loads()
                .iter()
                .zip(e.plan.topology().links())
                .map(|(&a, l)| (a, l.capacity))
                .collect::<Vec<_>>()
        })
        .collect();
    let sim_time = match w {
        SimWorkload::NsfnetFig6 => FIG6_WARMUP + FIG6_HORIZON,
        SimWorkload::QuadrangleChurn { horizon } => CHURN_WARMUP + horizon,
        SimWorkload::LargemeshSrlg => MESH_WARMUP + MESH_HORIZON,
    } * plain_out.replications as f64;
    SimLayers {
        traced_wall: probed_out.rep_secs,
        overhead_ratio: median(&probed) / median(&plain),
        recorded_ratio: median(&recorded) / median(&plain),
        workers: w.workers(),
        counts,
        plain: plain_out,
        state_links: state.planned_links(),
        num_links: topo.num_links(),
        capacity: topo.links()[0].capacity,
        levels: plan.protection_levels().to_vec(),
        link_loads,
        max_hops: plan.max_alternate_hops(),
        plan_build_s: state.plan_build_secs,
        store_warm_s: state.store_warm_secs,
        pairs_enumerated: state.pairs_enumerated,
        evicted_on_failure,
        evicted_on_revival,
        refill_s,
        demand_pairs: state.demand.len() as u64,
        sim_time,
    }
}

/// Unit costs of the simulation layers at a traced workload's recorded
/// operation mix.
struct SimUnitCosts {
    calendar_ns: f64,
    heap_ns: f64,
    rng_ns: f64,
    admission_ns: f64,
    occupancy_ns: f64,
    calltable_ns: f64,
    eq15_us: f64,
    timer_ns: f64,
    hook_ns: f64,
}

const MICRO_OPS: usize = 2_000_000;

fn sim_unit_costs(l: &SimLayers) -> SimUnitCosts {
    let c = &l.counts;
    let r = &c.recorder;
    let depth = r.depth.mean().round() as usize;
    let mean_increment = if r.events == 0 {
        1.0
    } else {
        r.depth.mean().max(1.0) * l.sim_time / r.events as f64
    };
    let links_per_book = r.booked_links as f64 / r.routed.max(1) as f64;
    let probes_per_check = c.link_probes as f64 / c.path_checks.max(1) as f64;
    let alternate_share =
        c.select.alternates_tried.mean() * c.select.calls as f64 / c.path_checks.max(1) as f64;
    let live = c.call_table_high_water.max(1);
    SimUnitCosts {
        calendar_ns: micro::calendar_ns_per_op(depth, mean_increment, MICRO_OPS),
        heap_ns: micro::heap_ns_per_op(depth, mean_increment, MICRO_OPS),
        rng_ns: micro::rng_ns_per_draw(MICRO_OPS),
        admission_ns: micro::admission_ns_per_check(
            l.num_links,
            l.capacity,
            &l.levels,
            probes_per_check.max(1.0),
            alternate_share.clamp(0.0, 1.0),
            MICRO_OPS,
        ),
        occupancy_ns: micro::occupancy_ns_per_link(
            l.num_links,
            links_per_book,
            live,
            MICRO_OPS / 2,
        ),
        calltable_ns: micro::calltable_ns_per_insert_take(
            l.num_links,
            links_per_book,
            live,
            MICRO_OPS / 2,
        ),
        eq15_us: feed::eq15_us_per_link(&l.link_loads, l.max_hops, 20),
        timer_ns: micro::timer_ns(MICRO_OPS),
        hook_ns: micro::recorder_hook_ns(MICRO_OPS),
    }
}

/// Per-layer metrics of the control-plane layers, from one traced feed.
struct FeedLayers {
    traced: feed::TracedReplay,
    replay_wall: f64,
    plan_build_s: f64,
    links: usize,
    parse_ns: f64,
    record_ns: f64,
    eq15_us: f64,
    timer_ns: f64,
    arrivals: u64,
}

fn trace_feed(spec: FeedSpec, seed: u64, report: &mut Report, expect: Option<u64>) -> FeedLayers {
    let feed: Feed = feed::generate(spec, seed);
    let mut spans = std::mem::take(&mut report.spans);
    let t = Instant::now();
    let plane = spans.span("altrouted.plane", |_| feed::plane(spec));
    let plan_build_s = t.elapsed().as_secs_f64();
    let links = plane.capacities.len();
    let mut plain = spans.span("altrouted.controller", |_| feed::controller(plane.clone()));
    let t = Instant::now();
    let untraced = spans.span("altrouted.run_feed", |_| feed::replay(&mut plain, &feed));
    let replay_wall = t.elapsed().as_secs_f64();
    let mut traced_controller = feed::controller(plane.clone());
    let traced = spans.span("altrouted.push_loop", |_| {
        feed::replay_traced(&mut traced_controller, &feed)
    });
    let parse_ns = spans.span("telemetry.feed.parse_line", |_| {
        feed::parse_ns_per_line(&feed)
    });
    let record_ns = spans.span("telemetry.feed.estimator", |_| {
        feed::estimator_record_ns(&feed)
    });
    // Eq.-15 unit cost at the feed's mean per-link loads.
    let mut per_pair = vec![0.0; spec.nodes * spec.nodes];
    for line in feed.text.lines() {
        if let Ok(FeedLine::Event(FeedEvent::Arrival { src, dst, .. })) = parse_line(line) {
            per_pair[src * spec.nodes + dst] += 1.0 / f64::from(spec.windows);
        }
    }
    let loads = offered_link_loads(&plane.pair_links, &per_pair, links);
    let link_loads: Vec<(f64, u32)> = loads
        .into_iter()
        .zip(plane.capacities.iter().copied())
        .collect();
    let eq15_us = spans.span("teletraffic.reservation", |_| {
        feed::eq15_us_per_link(&link_loads, spec.max_hops, 20)
    });
    report.spans = spans;
    report.attempted += untraced.lines + traced.outcome.lines;
    for (what, out) in [("untraced", &untraced), ("traced", &traced.outcome)] {
        if out.failed > 0 || !out.ended {
            report.failed += out.failed.max(1);
            report.fail(format!("{what} replay: {} lines failed", out.failed));
        }
    }
    if traced.outcome.digest != untraced.digest {
        report.failed += traced.outcome.lines;
        report.fail(format!(
            "traced update stream {:016x} differs from the untraced {:016x}",
            traced.outcome.digest, untraced.digest
        ));
    }
    if let Some(pin) = expect {
        if untraced.digest != pin {
            report.fail(format!(
                "update-stream digest {:016x} differs from the pinned {pin:016x}",
                untraced.digest
            ));
        }
    }
    FeedLayers {
        traced,
        replay_wall,
        plan_build_s,
        links,
        parse_ns,
        record_ns,
        eq15_us,
        timer_ns: micro::timer_ns(MICRO_OPS),
        arrivals: feed.arrivals,
    }
}

fn sim_layer_metrics(report: &mut Report, l: &SimLayers, u: &SimUnitCosts, counted: bool) {
    let c = &l.counts;
    let r = &c.recorder;
    let k = if counted { 1.0 } else { 0.0 };
    let tried = &c.select.alternates_tried;
    let alt_tried = tried.mean() * c.select.calls as f64;
    report.metric("queue.ops", k * c.queue_ops() as f64, "count");
    report.metric("queue.depth_mean", k * r.depth.mean(), "count");
    report.metric(
        "queue.depth_p99",
        k * r.depth.quantile(0.99) as f64,
        "count",
    );
    report.metric("queue.calendar_ns_per_op", u.calendar_ns, "ns");
    report.metric("queue.heap_ns_per_op", u.heap_ns, "ns");
    let draws = 3 * r.arrivals + l.demand_pairs * l.plain.replications;
    report.metric("rng.draws", k * draws as f64, "count");
    report.metric("rng.ns_per_draw", u.rng_ns, "ns");
    report.metric("select.calls", k * c.select.calls as f64, "count");
    report.metric(
        "select.ns_mean",
        c.select.nanos as f64 / c.select.calls.max(1) as f64,
        "ns",
    );
    report.metric("select.alternates_tried_mean", k * tried.mean(), "count");
    report.metric(
        "select.alternates_tried_p99",
        k * tried.quantile(0.99) as f64,
        "count",
    );
    report.metric(
        "select.alt_admit_ratio",
        k * c.select.alternates_admitted as f64 / alt_tried.max(1.0),
        "ratio",
    );
    report.metric("admission.path_checks", k * c.path_checks as f64, "count");
    report.metric("admission.link_probes", k * c.link_probes as f64, "count");
    report.metric(
        "admission.reject_capacity",
        k * c.reject_capacity as f64,
        "count",
    );
    report.metric(
        "admission.reject_reservation",
        k * c.reject_reservation as f64,
        "count",
    );
    report.metric("admission.ns_per_check", u.admission_ns, "ns");
    report.metric("occupancy.books", k * r.routed as f64, "count");
    report.metric(
        "occupancy.releases",
        k * (r.departures + r.teardowns) as f64,
        "count",
    );
    report.metric(
        "occupancy.links_per_book",
        k * r.booked_links as f64 / r.routed.max(1) as f64,
        "count",
    );
    report.metric("occupancy.ns_per_link", u.occupancy_ns, "ns");
    report.metric("calltable.inserts", k * r.routed as f64, "count");
    report.metric("calltable.teardowns", k * r.teardowns as f64, "count");
    report.metric(
        "calltable.stale_departures",
        k * r.stale_departures as f64,
        "count",
    );
    report.metric(
        "calltable.high_water",
        k * c.call_table_high_water as f64,
        "count",
    );
    report.metric("calltable.ns_per_insert_take", u.calltable_ns, "ns");
    report.metric("observer.hooks", k * r.hooks as f64, "count");
    report.metric("observer.recorded_ratio", l.recorded_ratio, "ratio");
    report.metric("pool.workers", k * l.workers as f64, "count");
    report.metric(
        "pool.busy_ratio",
        k * l.plain.rep_secs / (l.workers as f64 * l.plain.sim_secs),
        "ratio",
    );
}

/// `|Σ count × unit cost − traced wall| / traced wall` over the
/// simulation layers. Selection is costed at its traced mean, which
/// already contains its admission probes, so admission is not added
/// again; releases are costed like books. The traced run's own probes
/// (a timer pair per selection, a recorder hook per kernel hook) are a
/// term of their own.
fn sim_ledger(l: &SimLayers, u: &SimUnitCosts) -> (f64, Vec<(&'static str, f64)>) {
    let c = &l.counts;
    let r = &c.recorder;
    let draws = (3 * r.arrivals + l.demand_pairs * l.plain.replications) as f64;
    let released_links =
        r.booked_links as f64 * (r.departures + r.teardowns) as f64 / r.routed.max(1) as f64;
    let terms = vec![
        ("simcore.queue", c.queue_ops() as f64 * u.calendar_ns * 1e-9),
        ("simcore.rng", draws * u.rng_ns * 1e-9),
        ("core.select", c.select.nanos as f64 * 1e-9),
        (
            "simcore.kernel.occupancy",
            (r.booked_links as f64 + released_links) * u.occupancy_ns * 1e-9,
        ),
        (
            "simcore.kernel.calltable",
            r.routed as f64 * u.calltable_ns * 1e-9,
        ),
        (
            "probes",
            (c.select.calls as f64 * u.timer_ns + r.hooks as f64 * u.hook_ns) * 1e-9,
        ),
    ];
    let total: f64 = terms.iter().map(|(_, s)| s).sum();
    ((total - l.traced_wall).abs() / l.traced_wall, terms)
}

fn feed_layer_metrics(report: &mut Report, f: &FeedLayers, counted: bool) {
    let k = if counted { 1.0 } else { 0.0 };
    let t = &f.traced;
    report.metric("feed.parse_ns_per_line", f.parse_ns, "ns");
    report.metric("estimator.record_ns", f.record_ns, "ns");
    report.metric("control.solves", k * t.outcome.solves as f64, "count");
    report.metric("control.updates", k * t.outcome.updates as f64, "count");
    report.metric(
        "control.push_ns_mean",
        t.push_nanos as f64 / t.pushes.max(1) as f64,
        "ns",
    );
    let samples = &t.resolve_ms;
    let p50 = if samples.is_empty() {
        0.0
    } else {
        median(samples)
    };
    let tail = tail_percentile(samples.len()).map_or(p50, |p| percentile(samples, p));
    report.metric("resolve_p50_ms", p50, "ms");
    report.metric("resolve_p99_ms", tail, "ms");
    report.notes.push(format!(
        "resolve: {} samples; tail reported at p{:.0}",
        samples.len(),
        tail_percentile(samples.len()).unwrap_or(0.5) * 100.0
    ));
}

/// `|Σ count × unit cost − traced wall| / traced wall` over the
/// control-plane layers: parsing every line, recording every arrival,
/// solving Eq. 15 for every link at every re-solve, and the traced
/// loop's own timer pairs (one per line, one per push).
fn feed_ledger(f: &FeedLayers) -> (f64, Vec<(&'static str, f64)>) {
    let t = &f.traced;
    let timed = t.outcome.lines + t.pushes + t.resolve_ms.len() as u64;
    let terms = vec![
        ("probes", timed as f64 * f.timer_ns * 1e-9),
        (
            "telemetry.feed.parse",
            t.outcome.lines as f64 * f.parse_ns * 1e-9,
        ),
        (
            "telemetry.feed.estimator",
            f.arrivals as f64 * f.record_ns * 1e-9,
        ),
        (
            "teletraffic.reservation",
            t.outcome.solves as f64 * f.links as f64 * f.eq15_us * 1e-6,
        ),
    ];
    let total: f64 = terms.iter().map(|(_, s)| s).sum();
    ((total - t.wall).abs() / t.wall, terms)
}

fn ledger_note(report: &mut Report, residual: f64, terms: &[(&'static str, f64)], wall: f64) {
    let verdict = if residual <= 0.2 {
        "reconciled within ±20%"
    } else {
        "UNRECONCILED (beyond ±20%)"
    };
    let parts: Vec<String> = terms
        .iter()
        .map(|(n, s)| format!("{n} {:.4}s", s))
        .collect();
    report.notes.push(format!(
        "ledger: traced wall {wall:.4}s; {}; residual {:.3} {verdict}",
        parts.join(", "),
        residual
    ));
}

fn sim_layers_report(w: SimWorkload, args: &Args, pin: Option<u64>) -> Report {
    let mut report = Report::new();
    let layers = trace_sim(w, args.seed, args.seconds, &mut report, pin);
    let unit = sim_unit_costs(&layers);
    sim_layer_metrics(&mut report, &layers, &unit, true);
    report.metric("plan.build_s", layers.plan_build_s, "s");
    report.metric("plan.links", layers.state_links as f64, "count");
    report.metric(
        "store.pairs_enumerated",
        layers.pairs_enumerated as f64,
        "count",
    );
    report.metric(
        "store.evicted_on_failure",
        layers.evicted_on_failure as f64,
        "count",
    );
    report.metric(
        "store.evicted_on_revival",
        layers.evicted_on_revival as f64,
        "count",
    );
    report.metric("store.warm_s", layers.store_warm_s, "s");
    report.metric("store.refill_s", layers.refill_s, "s");
    report.metric("eq15.links_solved", layers.state_links as f64, "count");
    report.metric("eq15.us_per_link", unit.eq15_us, "us");
    // The control-plane layers are not exercised here: their counts are
    // zero and their unit costs come from the reference feed.
    let mut scratch = Report::default();
    let reference = trace_feed(feed::REFERENCE, args.seed, &mut scratch, None);
    feed_layer_metrics(&mut report, &reference, false);
    let (residual, terms) = sim_ledger(&layers, &unit);
    ledger_note(&mut report, residual, &terms, layers.traced_wall);
    report.metric("ledger.residual_ratio", residual, "ratio");
    report.metric("trace.overhead_ratio", layers.overhead_ratio, "ratio");
    let c = layers.counts;
    report.histograms.push(("queue.depth", c.recorder.depth));
    report
        .histograms
        .push(("select.alternates_tried", c.select.alternates_tried));
    report.reps = 1;
    report
}

fn feed_layers_report(args: &Args, pin: Option<u64>) -> Report {
    let mut report = Report::new();
    let layers = trace_feed(feed::REPLAY, args.seed, &mut report, pin);
    // The simulation layers are not exercised here: their counts are
    // zero and their unit costs come from a short quadrangle_churn
    // reference run.
    let reference_workload = SimWorkload::QuadrangleChurn { horizon: 20.0 };
    let mut scratch = Report::default();
    let reference = trace_sim(reference_workload, args.seed, 0.0, &mut scratch, None);
    let unit = sim_unit_costs(&reference);
    sim_layer_metrics(&mut report, &reference, &unit, false);
    report.metric("plan.build_s", layers.plan_build_s, "s");
    report.metric("plan.links", layers.links as f64, "count");
    report.metric("store.pairs_enumerated", 0.0, "count");
    report.metric("store.evicted_on_failure", 0.0, "count");
    report.metric("store.evicted_on_revival", 0.0, "count");
    report.metric("store.warm_s", reference.store_warm_s, "s");
    report.metric("store.refill_s", reference.refill_s, "s");
    report.metric(
        "eq15.links_solved",
        (layers.traced.outcome.solves * layers.links as u64) as f64,
        "count",
    );
    report.metric("eq15.us_per_link", layers.eq15_us, "us");
    feed_layer_metrics(&mut report, &layers, true);
    let (residual, terms) = feed_ledger(&layers);
    ledger_note(&mut report, residual, &terms, layers.traced.wall);
    report.metric("ledger.residual_ratio", residual, "ratio");
    report.metric(
        "trace.overhead_ratio",
        layers.traced.wall / layers.replay_wall,
        "ratio",
    );
    report
        .histograms
        .push(("control.pushes_per_solve", layers.traced.pushes_per_solve));
    report.reps = 1;
    report
}

// ---------------------------------------------------------------------

fn write_trace(args: &Args, header: &Value, report: &Report) -> std::io::Result<String> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        args.out_dir,
        args.name,
        args.seed,
        u8::from(args.trace)
    );
    let spans: Vec<Value> = report
        .spans
        .spans()
        .iter()
        .map(|s| {
            obj! {
                "name" => s.name.as_str(),
                "start_ns" => s.start_ns as f64,
                "end_ns" => s.end_ns as f64,
                "parent" => s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
            }
        })
        .collect();
    let self_times: Vec<Value> = report
        .spans
        .self_times()
        .into_iter()
        .map(|(name, secs)| obj! { "name" => name, "self_s" => secs })
        .collect();
    let histograms: Vec<Value> = report
        .histograms
        .iter()
        .map(|(name, h)| {
            let buckets: Vec<Value> = h
                .nonzero()
                .map(|(v, c)| Value::Array(vec![Value::Number(v as f64), Value::Number(c as f64)]))
                .collect();
            obj! { "name" => *name, "count" => h.count(), "buckets" => Value::Array(buckets) }
        })
        .collect();
    let metrics: Vec<Value> = report
        .metrics
        .iter()
        .map(|(n, v, u)| obj! { "name" => *n, "value" => *v, "unit" => *u })
        .collect();
    let samples: Vec<Value> = report
        .samples
        .iter()
        .map(|(n, v)| {
            obj! { "name" => *n, "values" => Value::Array(v.iter().map(|&x| Value::Number(x)).collect()) }
        })
        .collect();
    let doc = obj! {
        "header" => header.clone(),
        "repetitions" => report.reps,
        "metrics" => Value::Array(metrics),
        "samples" => Value::Array(samples),
        "notes" => Value::Array(report.notes.iter().map(|n| Value::String(n.clone())).collect()),
        "spans" => Value::Array(spans),
        "self_times" => Value::Array(self_times),
        "histograms" => Value::Array(histograms),
    };
    std::fs::write(&path, doc.to_string_pretty())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <nsfnet_fig6|quadrangle_churn|largemesh_srlg|altrouted_replay> \
                 --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let header = header(&args);
    let pin = (args.seed == DEFAULT_SEED)
        .then(|| pin_of(&args.name))
        .flatten();
    let mut report = match (args.workload, args.trace) {
        (Workload::Sim(w), false) => sim_end_to_end(w, &args, pin),
        (Workload::Sim(w), true) => sim_layers_report(w, &args, pin),
        (Workload::AltroutedReplay, false) => feed_end_to_end(&args, pin),
        (Workload::AltroutedReplay, true) => feed_layers_report(&args, pin),
    };
    if report.metrics.is_empty() {
        eprintln!("error: no result was produced");
        return ExitCode::FAILURE;
    }
    let mut header = header;
    if let Value::Object(members) = &mut header {
        members.push(("repetitions".into(), Value::Number(report.reps as f64)));
    }
    println!("# header {}", header.to_string_compact());
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    match write_trace(&args, &header, &report) {
        Ok(path) => println!("# trace written to {path}"),
        Err(e) => {
            report.notes.push(format!("writing the trace failed: {e}"));
            eprintln!("warning: writing the trace failed: {e}");
        }
    }
    let metrics = Value::Object(
        report
            .metrics
            .iter()
            .map(|(n, v, u)| ((*n).to_string(), obj! { "value" => *v, "unit" => *u }))
            .collect(),
    );
    let result = obj! {
        "correct" => report.correct,
        "attempted" => report.attempted.max(1),
        "failed" => report.failed,
        "metrics" => metrics,
    };
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
