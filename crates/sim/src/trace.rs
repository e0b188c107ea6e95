//! Structured event tracing and a cross-crate metrics registry.
//!
//! Every layer of the workbench — the simulated OCSSD device, the OX FTLs,
//! the WAL/GC/checkpoint machinery and the LSM KV store — reports into the
//! same two sinks:
//!
//! * a [`Tracer`]: a bounded, drop-oldest buffer of span-style events
//!   (`begin`/`end` pairs plus `instant` markers) carrying virtual time, a
//!   subsystem label, an operation kind and a byte count. Because the
//!   simulator computes completion times synchronously, the common call is
//!   [`Tracer::span`], which records a matched begin/end pair at once.
//! * a [`MetricsRegistry`]: named counters (ops + bytes), gauges and
//!   log-linear histograms that any crate can register into by name.
//!
//! Both are cheap-to-clone handles around shared state, so a single [`Obs`]
//! pair can be threaded through the whole stack (device → FTL → KV) and
//! exported at the end of a run as JSON ([`Tracer::to_json`],
//! [`MetricsRegistry::to_json`]) next to an experiment's results.
//!
//! Tracing is *disabled by default* (a disabled tracer records nothing and
//! returns [`SpanId::NONE`]); metrics are always live. Naming convention for
//! metric keys and trace ops: dotted lower-case paths, `subsystem.verb`
//! (e.g. `device.write`, `wal.commit`, `lsm.flush`).

use crate::stats::{Counter, Histogram};
use crate::sync::Mutex;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// Identifier of an in-flight span returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: returned by a disabled tracer and ignored by
    /// [`Tracer::end`].
    pub const NONE: SpanId = SpanId(0);

    /// Raw numeric id (0 for [`SpanId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// Opens a span.
    Begin,
    /// Closes the span named by [`TraceEvent::span`].
    End,
    /// A point event with no duration.
    Instant,
}

impl TracePhase {
    fn as_str(self) -> &'static str {
        match self {
            TracePhase::Begin => "begin",
            TracePhase::End => "end",
            TracePhase::Instant => "instant",
        }
    }
}

/// One structured trace event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Record sequence number, strictly increasing in emission order.
    pub seq: u64,
    /// Virtual time of the event.
    pub at: SimTime,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Span id (0 for instants).
    pub span: u64,
    /// Emitting subsystem (e.g. `"device"`, `"wal"`, `"lsm"`).
    pub subsystem: &'static str,
    /// Operation kind (e.g. `"write"`, `"gc.pass"`, `"flush"`).
    pub op: &'static str,
    /// Payload bytes attributed to the event (0 when not applicable).
    pub bytes: u64,
}

#[derive(Debug)]
struct TracerInner {
    enabled: bool,
    cap: usize,
    events: VecDeque<TraceEvent>,
    next_span: u64,
    next_seq: u64,
    dropped: u64,
}

/// Bounded, shareable event tracer. Cloning shares the underlying buffer.
///
/// The buffer keeps the newest `cap` events, dropping the oldest (and
/// counting drops) when full — the same semantics the old per-device
/// `ocssd::TraceBuffer` had. Disabling the tracer clears the buffer.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer bounded to `cap` events, initially disabled.
    pub fn new(cap: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                enabled: false,
                cap: cap.max(1),
                events: VecDeque::new(),
                next_span: 1,
                next_seq: 0,
                dropped: 0,
            })),
        }
    }

    /// Enables or disables recording. Disabling clears the buffer.
    pub fn set_enabled(&self, on: bool) {
        let mut g = self.inner.lock();
        g.enabled = on;
        if !on {
            g.events.clear();
            g.dropped = 0;
        }
    }

    fn push(g: &mut TracerInner, mut ev: TraceEvent) {
        ev.seq = g.next_seq;
        g.next_seq += 1;
        if g.events.len() == g.cap {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev);
    }

    /// Opens a span. Returns [`SpanId::NONE`] when disabled.
    pub fn begin(
        &self,
        at: SimTime,
        subsystem: &'static str,
        op: &'static str,
        bytes: u64,
    ) -> SpanId {
        let mut g = self.inner.lock();
        if !g.enabled {
            return SpanId::NONE;
        }
        let id = g.next_span;
        g.next_span += 1;
        Self::push(
            &mut g,
            TraceEvent {
                seq: 0,
                at,
                phase: TracePhase::Begin,
                span: id,
                subsystem,
                op,
                bytes,
            },
        );
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::begin`]. [`SpanId::NONE`] is ignored.
    pub fn end(
        &self,
        at: SimTime,
        span: SpanId,
        subsystem: &'static str,
        op: &'static str,
        bytes: u64,
    ) {
        if span == SpanId::NONE {
            return;
        }
        let mut g = self.inner.lock();
        if !g.enabled {
            return;
        }
        Self::push(
            &mut g,
            TraceEvent {
                seq: 0,
                at,
                phase: TracePhase::End,
                span: span.0,
                subsystem,
                op,
                bytes,
            },
        );
    }

    /// Records a matched begin/end pair in one call — the common case in a
    /// virtual-time simulator where an operation's completion time is known
    /// synchronously.
    pub fn span(
        &self,
        start: SimTime,
        done: SimTime,
        subsystem: &'static str,
        op: &'static str,
        bytes: u64,
    ) {
        let mut g = self.inner.lock();
        if !g.enabled {
            return;
        }
        let id = g.next_span;
        g.next_span += 1;
        Self::push(
            &mut g,
            TraceEvent {
                seq: 0,
                at: start,
                phase: TracePhase::Begin,
                span: id,
                subsystem,
                op,
                bytes,
            },
        );
        Self::push(
            &mut g,
            TraceEvent {
                seq: 0,
                at: done,
                phase: TracePhase::End,
                span: id,
                subsystem,
                op,
                bytes,
            },
        );
    }

    /// Records a point event with no duration.
    pub fn instant(&self, at: SimTime, subsystem: &'static str, op: &'static str, bytes: u64) {
        let mut g = self.inner.lock();
        if !g.enabled {
            return;
        }
        Self::push(
            &mut g,
            TraceEvent {
                seq: 0,
                at,
                phase: TracePhase::Instant,
                span: 0,
                subsystem,
                op,
                bytes,
            },
        );
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().copied().collect()
    }

    /// Moves the buffered events out, oldest first, truncating the buffer —
    /// the tracing mirror of a device's `drain_events`. Long runs that keep
    /// tracing enabled should drain periodically instead of snapshotting, so
    /// the buffer never sits at capacity dropping the history between
    /// inspections. Sequence numbers and the drop counter are preserved
    /// across drains (a later event never reuses a drained event's `seq`).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut g = self.inner.lock();
        let drained: Vec<TraceEvent> = g.events.drain(..).collect();
        drained
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Serializes the buffer (plus drop accounting) as a JSON object.
    pub fn to_json(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::with_capacity(64 + g.events.len() * 96);
        let _ = write!(
            out,
            "{{\"dropped\":{},\"count\":{},\"events\":[",
            g.dropped,
            g.events.len()
        );
        for (i, ev) in g.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"at_ns\":{},\"phase\":\"{}\",\"span\":{},\"subsystem\":\"{}\",\"op\":\"{}\",\"bytes\":{}}}",
                ev.seq,
                ev.at.as_nanos(),
                ev.phase.as_str(),
                ev.span,
                json_escape(ev.subsystem),
                json_escape(ev.op),
                ev.bytes
            );
        }
        out.push_str("]}");
        out
    }
}

impl Default for Tracer {
    /// A disabled tracer bounded to 4096 events (the old device trace cap).
    fn default() -> Self {
        Tracer::new(4096)
    }
}

/// RAII span handle returned by [`Tracer::guard`]: the span closes when the
/// guard drops, so every early return (`?`, `return`, panic unwind) still
/// produces a matched `end` event. Call [`SpanGuard::finish`] on the success
/// path to stamp the real completion time; a guard dropped without `finish`
/// closes at its begin time (a zero-length span marking the bail-out point).
///
/// This is the remedy the `oxcheck` L7 `span_discipline` lint points at:
/// manual `begin`/`end` pairs on storage paths with early returns leak open
/// spans, a guard cannot.
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    tracer: Tracer,
    id: SpanId,
    begin_at: SimTime,
    subsystem: &'static str,
    op: &'static str,
    bytes: u64,
    finished: bool,
}

impl Tracer {
    /// Opens a span and returns an RAII guard that closes it on drop. See
    /// [`SpanGuard`]. When the tracer is disabled the guard is inert.
    pub fn guard(
        &self,
        at: SimTime,
        subsystem: &'static str,
        op: &'static str,
        bytes: u64,
    ) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            id: self.begin(at, subsystem, op, bytes),
            begin_at: at,
            subsystem,
            op,
            bytes,
            finished: false,
        }
    }
}

impl SpanGuard {
    /// The underlying span id ([`SpanId::NONE`] when the tracer is disabled).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span at `at` (the success-path completion time).
    pub fn finish(mut self, at: SimTime) {
        self.finished = true;
        self.tracer
            .end(at, self.id, self.subsystem, self.op, self.bytes);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            self.tracer
                .end(self.begin_at, self.id, self.subsystem, self.op, self.bytes);
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared registry of named counters, gauges and histograms.
///
/// Keys are dotted lower-case paths (`"device.write"`, `"wal.commit"`).
/// Cloning shares the underlying maps; entries are created on first use.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`]'s contents.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, Counter>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry. All registries are constructed through this one
    /// `Mutex::new` call so they share a single lockdep class whose site the
    /// static lock-order analysis (`oxcheck` L6) can see; a derived `Default`
    /// would hide the construction site inside `Mutex::default`.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Mutex::new(RegistryInner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            })),
        }
    }

    /// Records one event moving `bytes` bytes on counter `name`.
    pub fn record(&self, name: &str, bytes: u64) {
        self.add(name, 1, bytes);
    }

    /// Records `ops` events moving `bytes` bytes in total on counter `name`.
    pub fn add(&self, name: &str, ops: u64, bytes: u64) {
        let mut g = self.inner.lock();
        match g.counters.get_mut(name) {
            Some(c) => c.record_many(ops, bytes),
            None => {
                let mut c = Counter::new();
                c.record_many(ops, bytes);
                g.counters.insert(name.to_string(), c);
            }
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut g = self.inner.lock();
        match g.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                g.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records `sample` into histogram `name`.
    pub fn observe(&self, name: &str, sample: u64) {
        let mut g = self.inner.lock();
        match g.histograms.get_mut(name) {
            Some(h) => h.record(sample),
            None => {
                let mut h = Histogram::new();
                h.record(sample);
                g.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of counter `name` (zero counter if absent).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .lock()
            .counters
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Copies out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock();
        MetricsSnapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            histograms: g.histograms.clone(),
        }
    }

    /// Serializes the registry as a JSON object. Histograms are summarized
    /// as `count/min/max/mean/p50/p95/p99`.
    pub fn to_json(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, c)) in g.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"ops\":{},\"bytes\":{}}}",
                json_escape(k),
                c.ops(),
                c.bytes()
            );
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in g.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in g.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(k),
                h.count(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The pair every instrumented layer carries: a [`Tracer`] plus a
/// [`MetricsRegistry`]. Cloning shares both sinks, so one `Obs` built at the
/// top of an experiment observes the whole stack.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Span/event sink (disabled until [`Tracer::set_enabled`]).
    pub tracer: Tracer,
    /// Named counters/gauges/histograms (always live).
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// A fresh pair with the tracer bounded to `trace_cap` events.
    pub fn new(trace_cap: usize) -> Self {
        Obs {
            tracer: Tracer::new(trace_cap),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Serializes both sinks as one JSON object
    /// `{"metrics": …, "trace": …}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"trace\":{}}}",
            self.metrics.to_json(),
            self.tracer.to_json()
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(16);
        assert_eq!(tr.begin(t(1), "x", "y", 0), SpanId::NONE);
        tr.span(t(1), t(2), "x", "y", 0);
        tr.instant(t(3), "x", "y", 0);
        assert!(tr.is_empty());
    }

    #[test]
    fn span_pairs_match_and_seq_is_monotone() {
        let tr = Tracer::new(16);
        tr.set_enabled(true);
        let s = tr.begin(t(10), "device", "write", 4096);
        tr.end(t(20), s, "device", "write", 4096);
        tr.span(t(30), t(40), "wal", "commit", 512);
        let evs = tr.snapshot();
        assert_eq!(evs.len(), 4);
        for w in evs.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
        assert_eq!(evs[0].phase, TracePhase::Begin);
        assert_eq!(evs[1].phase, TracePhase::End);
        assert_eq!(evs[0].span, evs[1].span);
        assert_eq!(evs[2].span, evs[3].span);
        assert_ne!(evs[0].span, evs[2].span);
    }

    #[test]
    fn buffer_drops_oldest() {
        let tr = Tracer::new(3);
        tr.set_enabled(true);
        for i in 0..5 {
            tr.instant(t(i), "x", "tick", 0);
        }
        let evs = tr.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(tr.dropped(), 2);
        assert_eq!(evs[0].at, t(2));
        assert_eq!(evs[2].at, t(4));
    }

    #[test]
    fn drain_truncates_but_preserves_seq_and_drops() {
        let tr = Tracer::new(3);
        tr.set_enabled(true);
        for i in 0..5 {
            tr.instant(t(i), "x", "tick", 0);
        }
        let first = tr.drain();
        assert_eq!(first.len(), 3);
        assert!(tr.is_empty(), "drain must truncate the buffer");
        assert_eq!(tr.dropped(), 2, "drop accounting survives a drain");
        tr.instant(t(9), "x", "tick", 0);
        let second = tr.drain();
        assert_eq!(second.len(), 1);
        assert!(
            second[0].seq > first[2].seq,
            "seq keeps increasing across drains"
        );
        assert!(tr.drain().is_empty());
    }

    #[test]
    fn disable_clears() {
        let tr = Tracer::new(8);
        tr.set_enabled(true);
        tr.instant(t(1), "x", "y", 0);
        tr.set_enabled(false);
        assert!(tr.is_empty());
        tr.instant(t(2), "x", "y", 0);
        assert!(tr.is_empty());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let m = MetricsRegistry::new();
        m.record("device.write", 4096);
        m.add("device.write", 2, 8192);
        m.gauge_set("device.pu.depth", 3);
        m.observe("lat", 100);
        m.observe("lat", 300);
        assert_eq!(m.counter("device.write").ops(), 3);
        assert_eq!(m.counter("device.write").bytes(), 12288);
        let snap = m.snapshot();
        assert_eq!(snap.gauges["device.pu.depth"], 3);
        assert_eq!(snap.histograms["lat"].count(), 2);
        assert_eq!(m.counter("absent").ops(), 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let obs = Obs::new(8);
        obs.tracer.set_enabled(true);
        obs.tracer.span(t(5), t(9), "device", "write", 96 * 1024);
        obs.metrics.record("device.write", 96 * 1024);
        obs.metrics.observe("device.write_latency_ns", 4);
        let j = obs.to_json();
        assert!(j.starts_with("{\"metrics\":{"));
        assert!(j.contains("\"device.write\":{\"ops\":1,\"bytes\":98304}"));
        assert!(j.contains("\"phase\":\"begin\""));
        assert!(j.contains("\"phase\":\"end\""));
        assert!(j.ends_with("}"));
        // Balanced braces/brackets (no strings in our keys need escaping).
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
    }

    #[test]
    fn span_guard_closes_on_finish_and_on_drop() {
        let tr = Tracer::new(16);
        tr.set_enabled(true);
        tr.guard(t(1), "wal", "recover", 0).finish(t(5));
        {
            let _g = tr.guard(t(7), "wal", "recover", 0);
            // Dropped without finish: closes at the begin time.
        }
        let evs = tr.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].span, evs[1].span);
        assert_eq!((evs[1].phase, evs[1].at), (TracePhase::End, t(5)));
        assert_eq!(evs[2].span, evs[3].span);
        assert_eq!((evs[3].phase, evs[3].at), (TracePhase::End, t(7)));
    }

    #[test]
    fn disabled_span_guard_is_inert() {
        let tr = Tracer::new(16);
        let g = tr.guard(t(1), "x", "y", 0);
        assert_eq!(g.id(), SpanId::NONE);
        drop(g);
        assert!(tr.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(8);
        let obs2 = obs.clone();
        obs2.metrics.record("a", 1);
        assert_eq!(obs.metrics.counter("a").ops(), 1);
    }
}
