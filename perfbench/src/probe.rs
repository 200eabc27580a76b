//! Counting and timing observers for the traced run.
//!
//! Each probe wraps one of the engine's public layer types and forwards
//! every call unchanged, so a traced replication must reproduce the
//! untraced digest exactly; the benchmark checks that it does. Per-call
//! numbers go into bounded histograms; spans (one per public call at a
//! layer boundary of the benchmark) are kept in memory and written out
//! at the end of the run.

use crate::stats::IntHistogram;
use altroute_simcore::kernel::{
    AdmissionPolicy, Link, LinkOccupancy, RouteSelector, Selection, Tier, Uncontrolled,
};
use altroute_telemetry::{ArrivalOutcome, Recorder};
use std::cell::Cell;
use std::time::Instant;

/// Admission counters, shared by [`CountingAdmission`] (which bumps
/// them) and [`TracedSelector`] (which reads them around each call).
#[derive(Debug, Default)]
pub struct AdmissionCounts {
    pub path_checks: Cell<u64>,
    pub link_probes: Cell<u64>,
    pub alternates_tried: Cell<u64>,
    pub reject_capacity: Cell<u64>,
    pub reject_reservation: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// An [`AdmissionPolicy`] that counts path checks, link probes and
/// refusals of the policy it wraps. A refusal counts as a reservation
/// refusal when [`Uncontrolled`] would have admitted the same path on
/// the same view, and as a capacity refusal otherwise.
pub struct CountingAdmission<'c, A> {
    pub inner: A,
    pub counts: &'c AdmissionCounts,
}

impl<A: AdmissionPolicy> AdmissionPolicy for CountingAdmission<'_, A> {
    fn admits(&self, view: &LinkOccupancy, link: Link, tier: Tier, bandwidth: u32) -> bool {
        bump(&self.counts.link_probes);
        self.inner.admits(view, link, tier, bandwidth)
    }

    fn path_admits(&self, view: &LinkOccupancy, path: &[Link], tier: Tier, bandwidth: u32) -> bool {
        bump(&self.counts.path_checks);
        if tier == Tier::Alternate {
            bump(&self.counts.alternates_tried);
        }
        // The trait's own default body, with each probe counted; the
        // wrapped policies do not override it.
        let ok = path.iter().all(|&l| self.admits(view, l, tier, bandwidth));
        if !ok {
            if Uncontrolled.path_admits(view, path, tier, bandwidth) {
                bump(&self.counts.reject_reservation);
            } else {
                bump(&self.counts.reject_capacity);
            }
        }
        ok
    }

    fn set_levels(&mut self, levels: &[u32]) {
        self.inner.set_levels(levels);
    }
}

/// Per-call selection statistics.
#[derive(Debug, Clone, Default)]
pub struct SelectStats {
    pub calls: u64,
    pub nanos: u128,
    pub alternates_tried: IntHistogram,
    pub alternates_admitted: u64,
}

/// A [`RouteSelector`] that times each `select` call of the selector it
/// wraps and records how many alternates the call tried (read from the
/// [`AdmissionCounts`] its admission policy shares).
pub struct TracedSelector<'c, S> {
    pub inner: S,
    pub counts: &'c AdmissionCounts,
    pub stats: SelectStats,
}

impl<'p, S: RouteSelector<'p>> RouteSelector<'p> for TracedSelector<'_, S> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        let tried_before = self.counts.alternates_tried.get();
        let t = Instant::now();
        let selection = self
            .inner
            .select(src, dst, pick, view, admission, bandwidth);
        self.stats.nanos += t.elapsed().as_nanos();
        self.stats.calls += 1;
        let tried = self.counts.alternates_tried.get() - tried_before;
        self.stats.alternates_tried.record(tried as usize);
        if let Selection::Route {
            tier: Tier::Alternate,
            ..
        } = selection
        {
            self.stats.alternates_admitted += 1;
        }
        selection
    }

    fn observe_arrival(&mut self, src: usize, dst: usize, pick: f64) {
        self.inner.observe_arrival(src, dst, pick);
    }

    fn tick<A: AdmissionPolicy>(&mut self, now: f64, admission: &mut A) {
        self.inner.tick(now, admission);
    }
}

/// A [`Recorder`] that counts the kernel's hooks: every hook, events
/// and queue depth, arrivals by outcome, booked links, departures
/// (stale ones apart) and teardowns.
#[derive(Debug, Clone, Default)]
pub struct CountingRecorder {
    pub events: u64,
    pub depth: IntHistogram,
    pub last_queue_len: usize,
    pub arrivals: u64,
    pub routed: u64,
    pub booked_links: u64,
    pub departures: u64,
    pub stale_departures: u64,
    pub teardowns: u64,
    pub hooks: u64,
}

impl Recorder for CountingRecorder {
    fn event(&mut self, _now: f64, queue_len: usize) {
        self.hooks += 1;
        self.events += 1;
        self.depth.record(queue_len);
        self.last_queue_len = queue_len;
    }

    fn arrival(
        &mut self,
        _now: f64,
        _measured: bool,
        outcome: ArrivalOutcome,
        hops: u8,
        _holding: f64,
    ) {
        self.hooks += 1;
        self.arrivals += 1;
        if outcome != ArrivalOutcome::Blocked {
            self.routed += 1;
            self.booked_links += u64::from(hops);
        }
    }

    fn departure(&mut self, _now: f64, stale: bool) {
        self.hooks += 1;
        if stale {
            self.stale_departures += 1;
        } else {
            self.departures += 1;
        }
    }

    fn occupancy(&mut self, _now: f64, _link: u32, _occupancy: u32) {
        self.hooks += 1;
    }

    fn link_state(&mut self, _now: f64, _link: u32, _up: bool) {
        self.hooks += 1;
    }

    fn teardown(&mut self, _now: f64, _measured: bool) {
        self.hooks += 1;
        self.teardowns += 1;
    }

    fn span(&mut self, _name: &'static str, _secs: f64) {
        self.hooks += 1;
    }

    fn finish(&mut self, _end: f64) {
        self.hooks += 1;
    }
}

/// Everything one traced replication recorded.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub recorder: CountingRecorder,
    pub select: SelectStats,
    pub path_checks: u64,
    pub link_probes: u64,
    pub reject_capacity: u64,
    pub reject_reservation: u64,
    pub call_table_high_water: usize,
}

impl LayerCounts {
    pub fn absorb_admission(&mut self, counts: &AdmissionCounts) {
        self.path_checks += counts.path_checks.get();
        self.link_probes += counts.link_probes.get();
        self.reject_capacity += counts.reject_capacity.get();
        self.reject_reservation += counts.reject_reservation.get();
    }

    pub fn merge(&mut self, other: &LayerCounts) {
        let (r, o) = (&mut self.recorder, &other.recorder);
        r.events += o.events;
        r.depth.merge(&o.depth);
        r.last_queue_len += o.last_queue_len;
        r.arrivals += o.arrivals;
        r.routed += o.routed;
        r.booked_links += o.booked_links;
        r.departures += o.departures;
        r.stale_departures += o.stale_departures;
        r.teardowns += o.teardowns;
        r.hooks += o.hooks;
        self.select.calls += other.select.calls;
        self.select.nanos += other.select.nanos;
        self.select
            .alternates_tried
            .merge(&other.select.alternates_tried);
        self.select.alternates_admitted += other.select.alternates_admitted;
        self.path_checks += other.path_checks;
        self.link_probes += other.link_probes;
        self.reject_capacity += other.reject_capacity;
        self.reject_reservation += other.reject_reservation;
        self.call_table_high_water = self.call_table_high_water.max(other.call_table_high_water);
    }

    /// Event-queue operations: every processed event was scheduled once
    /// and popped once, and the events still pending at the horizon were
    /// scheduled but never popped.
    pub fn queue_ops(&self) -> u64 {
        2 * self.recorder.events + self.recorder.last_queue_len as u64
    }
}

/// One recorded span: a named interval of the benchmark's own calls into
/// a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u128,
    pub end_ns: u128,
    pub parent: Option<usize>,
}

/// In-memory span log, written out once at the end of the run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(String, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }
}
