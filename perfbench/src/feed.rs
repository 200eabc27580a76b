//! The `altrouted_replay` workload: a seeded, drifting-load arrival feed
//! on `K_N`, replayed in-process through the daemon's `run_feed` in a
//! closed loop (the next line is read only after the previous one was
//! consumed; no sockets).

use crate::stats::{Digest, IntHistogram};
use altroute_simcore::RngStream;
use altroute_telemetry::feed::{parse_line, FeedLine, LoadEstimator, FEED_MAGIC, FEED_VERSION};
use altroute_teletraffic::reservation::protection_level;
use altrouted::config::mesh_plane;
use altrouted::control::{ControlPlane, Controller, ControllerTuning};
use altrouted::service::{render_update, run_feed};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Shape of a generated feed.
#[derive(Debug, Clone, Copy)]
pub struct FeedSpec {
    pub nodes: usize,
    pub capacity: u32,
    pub max_hops: u32,
    /// Estimator windows (one re-solve each, at unit width and cadence).
    pub windows: u32,
    /// Mean offered Erlangs per ordered pair.
    pub mean_load: f64,
}

/// The benchmark's feed: `K_32` (992 links), 400 unit windows, about
/// 7.5k arrivals per window.
pub const REPLAY: FeedSpec = FeedSpec {
    nodes: 32,
    capacity: 20,
    max_hops: 2,
    windows: 400,
    mean_load: 7.5,
};

/// A small feed that measures the control-plane layers' unit costs on
/// the simulation workloads, which do not exercise them.
pub const REFERENCE: FeedSpec = FeedSpec {
    nodes: 8,
    capacity: 20,
    max_hops: 2,
    windows: 200,
    mean_load: 7.5,
};

/// A generated feed, kept as protocol text.
pub struct Feed {
    pub spec: FeedSpec,
    pub text: String,
    pub lines: u64,
    pub arrivals: u64,
}

/// Generates the feed for `seed`: each pair gets a seeded base load in
/// `[0.5, 1.5] × mean_load`, and the whole matrix drifts by a factor
/// `1 ± 0.4` over a 100-window period, so Eq.-15 levels keep moving.
/// Arrivals are a thinned Poisson process; the pair of each arrival is
/// drawn in proportion to its base load.
pub fn generate(spec: FeedSpec, seed: u64) -> Feed {
    let n = spec.nodes;
    let mut rng = RngStream::from_seed(seed ^ 0xFEED_5EED);
    let mut pairs = Vec::new();
    let mut cumulative = Vec::new();
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                total += spec.mean_load * (0.5 + rng.uniform());
                pairs.push((i, j));
                cumulative.push(total);
            }
        }
    }
    let horizon = f64::from(spec.windows);
    let drift = |t: f64| 1.0 + 0.4 * (std::f64::consts::TAU * t / 100.0).sin();
    let peak = total * 1.4;
    let mut text = format!("{FEED_MAGIC} {FEED_VERSION} nodes={n}\n");
    let (mut t, mut arrivals) = (0.0, 0u64);
    loop {
        t += rng.exp(peak);
        if t >= horizon {
            break;
        }
        if rng.uniform() * peak >= total * drift(t) {
            continue;
        }
        let x = rng.uniform() * total;
        let (i, j) = pairs[cumulative.partition_point(|&c| c <= x).min(pairs.len() - 1)];
        let _ = writeln!(text, "a {t} {i} {j}");
        arrivals += 1;
    }
    let _ = writeln!(text, "end {horizon}");
    Feed {
        spec,
        lines: arrivals + 2,
        text,
        arrivals,
    }
}

pub fn plane(spec: FeedSpec) -> ControlPlane {
    mesh_plane(spec.nodes, spec.capacity, spec.max_hops)
}

pub fn controller(plane: ControlPlane) -> Controller {
    Controller::new(plane, ControllerTuning::default())
}

/// What one replay produced.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    pub digest: u64,
    pub lines: u64,
    pub failed: u64,
    pub updates: u64,
    pub solves: u64,
    pub ended: bool,
}

/// Replays the whole feed through `run_feed`; the digest covers the
/// rendered level-update stream.
pub fn replay(controller: &mut Controller, feed: &Feed) -> ReplayOutcome {
    let mut updates = Vec::new();
    let summary = run_feed(controller, feed.text.as_bytes(), &mut updates, None)
        .expect("a generated feed is well-formed");
    let mut d = Digest::default();
    d.bytes(&updates);
    ReplayOutcome {
        digest: d.finish(),
        lines: summary.lines,
        failed: summary.parse_errors + summary.rejected,
        updates: summary.updates,
        solves: controller.solves(),
        ended: summary.ended,
    }
}

/// The traced replay: the body of `run_feed` driven line by line from
/// outside, timing each `parse_line` and each `Controller::push`. A push
/// that ran an Eq.-15 re-solve (seen as a change in `solves()`) is a
/// resolve sample; the others give the plain push cost.
pub struct TracedReplay {
    pub outcome: ReplayOutcome,
    pub wall: f64,
    pub parse_nanos: u128,
    pub push_nanos: u128,
    pub pushes: u64,
    pub resolve_ms: Vec<f64>,
    pub pushes_per_solve: IntHistogram,
}

pub fn replay_traced(controller: &mut Controller, feed: &Feed) -> TracedReplay {
    let start = Instant::now();
    let mut rendered = Vec::new();
    let mut pending = Vec::new();
    let mut out = TracedReplay {
        outcome: ReplayOutcome::default(),
        wall: 0.0,
        parse_nanos: 0,
        push_nanos: 0,
        pushes: 0,
        resolve_ms: Vec::new(),
        pushes_per_solve: IntHistogram::default(),
    };
    let mut since_solve = 0usize;
    for line in feed.text.lines() {
        out.outcome.lines += 1;
        let t = Instant::now();
        let parsed = parse_line(line);
        out.parse_nanos += t.elapsed().as_nanos();
        match parsed {
            Ok(FeedLine::Event(ev)) => {
                let solves = controller.solves();
                let t = Instant::now();
                let pushed = controller.push(ev, &mut pending);
                let ns = t.elapsed().as_nanos();
                if pushed.is_err() {
                    out.outcome.failed += 1;
                }
                if controller.solves() != solves {
                    out.resolve_ms.push(ns as f64 * 1e-6);
                    out.pushes_per_solve.record(since_solve);
                    since_solve = 0;
                } else {
                    out.push_nanos += ns;
                    out.pushes += 1;
                    since_solve += 1;
                }
                for update in pending.drain(..) {
                    rendered.extend_from_slice(render_update(&update).as_bytes());
                    out.outcome.updates += 1;
                }
                if controller.done() {
                    out.outcome.ended = true;
                    break;
                }
            }
            Ok(_) => {}
            Err(_) => out.outcome.failed += 1,
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    let mut d = Digest::default();
    d.bytes(&rendered);
    out.outcome.digest = d.finish();
    out.outcome.solves = controller.solves();
    out
}

/// Nanoseconds per `parse_line` over the feed's own lines.
pub fn parse_ns_per_line(feed: &Feed) -> f64 {
    let t = Instant::now();
    let mut ok = 0u64;
    for line in feed.text.lines() {
        ok += u64::from(black_box(parse_line(black_box(line))).is_ok());
    }
    black_box(ok);
    t.elapsed().as_nanos() as f64 / feed.lines as f64
}

/// Nanoseconds per `LoadEstimator::record` over the feed's arrivals,
/// closing windows as the controller does.
pub fn estimator_record_ns(feed: &Feed) -> f64 {
    let n = feed.spec.nodes;
    let records: Vec<(f64, usize)> = feed
        .text
        .lines()
        .filter_map(|l| match parse_line(l) {
            Ok(FeedLine::Event(altroute_telemetry::FeedEvent::Arrival { time, src, dst })) => {
                Some((time, src * n + dst))
            }
            _ => None,
        })
        .collect();
    let tuning = ControllerTuning::default();
    let mut est = LoadEstimator::new(n * n, tuning.window, tuning.alpha);
    let t = Instant::now();
    for &(time, pair) in &records {
        while est.pending_boundary(time).is_some() {
            est.close_window();
        }
        est.record(time, pair);
    }
    black_box(est.rates());
    t.elapsed().as_nanos() as f64 / records.len().max(1) as f64
}

/// Microseconds per Eq.-15 link solve (`protection_level`) over the
/// given per-link `(load, capacity)` pairs, repeated `reps` times.
pub fn eq15_us_per_link(links: &[(f64, u32)], max_hops: u32, reps: usize) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..reps {
        for &(load, cap) in links {
            acc += u64::from(protection_level(black_box(load), cap, max_hops));
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e6 / (links.len() * reps).max(1) as f64
}
