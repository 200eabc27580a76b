//! Per-layer microbenches: each replays a workload's recorded operation
//! mix against one public type in isolation and returns its unit cost.
//! Inputs are drawn from a fixed private stream, so a microbench does
//! the same work on every run; only its timing varies.

use altroute_simcore::kernel::{
    AdmissionPolicy, CallTable, LinkIndex, LinkOccupancy, Tier, TrunkReservation,
};
use altroute_simcore::timeweighted::TimeWeighted;
use altroute_simcore::{CalendarQueue, EventQueue, EventSchedule, RngStream};
use altroute_telemetry::Recorder;
use std::hint::black_box;
use std::time::Instant;

const MICRO_SEED: u64 = 0x5EED_F0BE;

/// Hold-model replay of an event schedule: `depth` pending events, each
/// pop followed by one schedule at `now + Exp(mean_increment)`.
/// Returns nanoseconds per operation (a pop or a schedule).
pub fn queue_ns_per_op<Q: EventSchedule<u32> + Default>(
    depth: usize,
    mean_increment: f64,
    ops: usize,
) -> f64 {
    let depth = depth.max(1);
    let mut rng = RngStream::from_seed(MICRO_SEED);
    let increments: Vec<f64> = (0..1 << 16)
        .map(|_| rng.exp(1.0 / mean_increment))
        .collect();
    let mut q = Q::default();
    for i in 0..depth {
        q.schedule(increments[i % increments.len()], i as u32);
    }
    let rounds = ops / 2;
    let t = Instant::now();
    for k in 0..rounds {
        let (now, ev) = q.pop().expect("the hold model keeps the queue full");
        q.schedule(now + increments[k & 0xFFFF], black_box(ev));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / (2 * rounds) as f64
}

pub fn calendar_ns_per_op(depth: usize, mean_increment: f64, ops: usize) -> f64 {
    queue_ns_per_op::<CalendarQueue<u32>>(depth, mean_increment, ops)
}

pub fn heap_ns_per_op(depth: usize, mean_increment: f64, ops: usize) -> f64 {
    queue_ns_per_op::<EventQueue<u32>>(depth, mean_increment, ops)
}

/// Nanoseconds per draw of an arrival's fixed draw sequence (holding
/// time, routing pick, next gap).
pub fn rng_ns_per_draw(draws: usize) -> f64 {
    let mut s = RngStream::from_seed(MICRO_SEED);
    let arrivals = draws / 3;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..arrivals {
        acc += s.holding_time();
        acc += s.uniform();
        acc += s.exp(black_box(900.0));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / (3 * arrivals) as f64
}

/// `count` random loop-free paths over `num_links` links whose lengths
/// average `mean_len` (a mix of its floor and ceiling).
fn random_paths(num_links: usize, mean_len: f64, count: usize) -> Vec<Vec<usize>> {
    let mut rng = RngStream::from_seed(MICRO_SEED ^ 1);
    let mean_len = mean_len.clamp(1.0, num_links as f64);
    let lo = mean_len.floor() as usize;
    let p_hi = mean_len - lo as f64;
    (0..count)
        .map(|_| {
            let len = if rng.uniform() < p_hi { lo + 1 } else { lo }.min(num_links);
            let mut path: Vec<usize> = Vec::with_capacity(len);
            while path.len() < len {
                let l = rng.below(num_links);
                if !path.contains(&l) {
                    path.push(l);
                }
            }
            path
        })
        .collect()
}

/// `LinkOccupancy::book` and `release` with `live` calls in progress
/// over paths of the recorded mean length, each followed by the
/// per-link `TimeWeighted` gauge update the kernel makes. Returns
/// nanoseconds per link booked or released.
pub fn occupancy_ns_per_link(num_links: usize, mean_len: f64, live: usize, ops: usize) -> f64 {
    let paths = random_paths(num_links, mean_len, 4096);
    let mut occ = LinkOccupancy::new(&vec![u32::MAX / 4; num_links]);
    let mut gauges = vec![TimeWeighted::new(0.0); num_links];
    let live = live.clamp(1, paths.len() - 1);
    for p in &paths[..live] {
        occ.book(p, 1);
    }
    let mut links = 0usize;
    let t = Instant::now();
    for k in 0..ops {
        let now = k as f64 * 1e-3;
        let release = &paths[k % paths.len()];
        let book = &paths[(k + live) % paths.len()];
        occ.release(release, 1);
        for &l in release {
            gauges[l].record(now, f64::from(occ.occupancy(l)));
        }
        occ.book(book, 1);
        for &l in book {
            gauges[l].record(now, f64::from(occ.occupancy(l)));
        }
        links += release.len() + book.len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(occ.total_occupancy());
    ns / links.max(1) as f64
}

/// `CallTable::insert` + `LinkIndex::add` paired with
/// `CallTable::take_into` + `LinkIndex::remove_one`, holding `live`
/// calls and ending a random one per arrival. Returns nanoseconds per
/// insert-and-take pair.
pub fn calltable_ns_per_insert_take(
    num_links: usize,
    mean_len: f64,
    live: usize,
    ops: usize,
) -> f64 {
    let paths = random_paths(num_links, mean_len, 4096);
    let mut rng = RngStream::from_seed(MICRO_SEED ^ 2);
    let victims: Vec<usize> = (0..1 << 16).map(|_| rng.below(1 << 30)).collect();
    let live = live.max(1);
    let mut table = CallTable::new();
    let mut index = LinkIndex::new(num_links);
    let mut handles = Vec::with_capacity(live + 1);
    for k in 0..live {
        let p = &paths[k % paths.len()];
        let (id, gen) = table.insert(p, 1);
        index.add(p, id, gen);
        handles.push((id, gen));
    }
    let mut path = Vec::new();
    let t = Instant::now();
    for k in 0..ops {
        let p = &paths[k % paths.len()];
        let (id, gen) = table.insert(p, 1);
        index.add(p, id, gen);
        handles.push((id, gen));
        let victim = victims[k & 0xFFFF] % handles.len();
        let (id, gen) = handles.swap_remove(victim);
        if table.take_into(id, gen, &mut path).is_some() {
            for &l in &path {
                index.remove_one(l, &table);
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(table.live());
    ns / ops.max(1) as f64
}

/// `TrunkReservation::path_admits` on links filled to `fill` of their
/// capacity, over paths of the recorded mean probe length, with the
/// recorded share of alternate-tier checks. Returns nanoseconds per
/// path check.
pub fn admission_ns_per_check(
    num_links: usize,
    capacity: u32,
    levels: &[u32],
    mean_len: f64,
    alternate_share: f64,
    ops: usize,
) -> f64 {
    let paths = random_paths(num_links, mean_len, 4096);
    let mut rng = RngStream::from_seed(MICRO_SEED ^ 3);
    let mut occ = LinkOccupancy::new(&vec![capacity.max(1); num_links]);
    for l in 0..num_links {
        let fill = (f64::from(capacity) * (0.8 + 0.2 * rng.uniform())) as u32;
        for _ in 0..fill.min(capacity) {
            occ.book(&[l], 1);
        }
    }
    let tiers: Vec<Tier> = (0..4096)
        .map(|_| {
            if rng.uniform() < alternate_share {
                Tier::Alternate
            } else {
                Tier::Primary
            }
        })
        .collect();
    let policy = TrunkReservation::new(levels.to_vec());
    let t = Instant::now();
    let mut admitted = 0u64;
    for k in 0..ops {
        let i = k % paths.len();
        admitted += u64::from(policy.path_admits(&occ, &paths[i], tiers[i], 1));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(admitted);
    ns / ops.max(1) as f64
}

/// Nanoseconds of one `Instant::now` and `elapsed` pair: the cost each
/// timed call of the traced run adds.
pub fn timer_ns(ops: usize) -> f64 {
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..ops {
        acc += black_box(Instant::now()).elapsed().as_nanos();
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Nanoseconds per hook of the traced run's counting recorder.
pub fn recorder_hook_ns(ops: usize) -> f64 {
    let mut rec = crate::probe::CountingRecorder::default();
    let t = Instant::now();
    for k in 0..ops {
        let r = black_box(&mut rec);
        match k % 3 {
            0 => r.event(k as f64, k & 0x3FF),
            1 => r.occupancy(k as f64, (k & 0xF) as u32, 1),
            _ => r.departure(k as f64, false),
        }
    }
    black_box(rec.hooks);
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}
