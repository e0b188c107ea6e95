//! Per-layer attribution measured from outside the layer crates.
//!
//! A traced run builds the same stack as an untraced one, plus transparent
//! wrappers at the public trait seams — [`TracedMedia`] over
//! `ox_core::Media` (above `SchedMedia` and directly above `OcssdMedia`) and
//! [`TracedStore`] over `lsmkv::TableStore` — and the driver brackets every
//! top-level API call with [`enter`]/[`exit`]. Each bracket is a span:
//! `{op_id, span_id, parent_id, layer, call, cause, v_start, v_end,
//! wall_start, wall_end, bytes, ok}`, kept on a thread-local stack (one load
//! thread, so no locks — and nothing `ox_sim::sync` would need to see).
//!
//! A layer's *self* time is its spans' wall time minus the wall time of the
//! spans nested inside them, so the per-layer self times sum to the root
//! span exactly. Aggregates are kept for every span; raw spans only for a
//! deterministic 1-in-[`SAMPLE_EVERY`] sample of client ops.
//!
//! Nothing here touches the crates under test: no `set_obs`, no hooks.
//! Untraced runs never construct a wrapper and never call into this module.

use crate::clock;
use lsmkv::{StoreError, TableStore};
use ocssd::{ChunkAddr, ChunkHealth, ChunkInfo, Completion, Geometry, MediaEvent, Ppa};
use ox_core::Media;
use ox_sim::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;

/// Raw spans are kept for client ops whose id is a multiple of this.
pub const SAMPLE_EVERY: u64 = 64;

/// The layers attribution is reported for: the crates, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own driver (generator, shadow model, client loop).
    Driver,
    /// `lsmkv`.
    Lsmkv,
    /// `lightlsm`.
    Lightlsm,
    /// `iosched`.
    Iosched,
    /// `ox_block` including the `ox_core` components it is built from.
    Oxblock,
    /// `oxztl` including `oxzns` underneath it.
    Oxztl,
    /// `ox_kvssd`.
    Kvssd,
    /// `ocssd`, the device simulator.
    Ocssd,
}

/// Every layer, in stack order.
pub const LAYERS: [Layer; 8] = [
    Layer::Driver,
    Layer::Lsmkv,
    Layer::Lightlsm,
    Layer::Iosched,
    Layer::Oxblock,
    Layer::Oxztl,
    Layer::Kvssd,
    Layer::Ocssd,
];

impl Layer {
    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Lsmkv => "lsmkv",
            Layer::Lightlsm => "lightlsm",
            Layer::Iosched => "iosched",
            Layer::Oxblock => "oxblock",
            Layer::Oxztl => "oxztl",
            Layer::Kvssd => "kvssd",
            Layer::Ocssd => "ocssd",
        }
    }
}

/// Why a call was made; set by the driver before it calls into the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// A client's get.
    FgRead,
    /// A client's put (or the write half of a read-modify-write).
    FgWrite,
    /// A client's scan.
    FgScan,
    /// Maintenance: memtable flush.
    BgFlush,
    /// Maintenance: compaction.
    BgCompact,
    /// Maintenance: garbage collection.
    BgGc,
    /// Maintenance: checkpoint / log truncation.
    BgCkpt,
}

impl Cause {
    /// Name as written into raw spans.
    pub fn name(self) -> &'static str {
        match self {
            Cause::FgRead => "fg-read",
            Cause::FgWrite => "fg-write",
            Cause::FgScan => "fg-scan",
            Cause::BgFlush => "bg-flush",
            Cause::BgCompact => "bg-compact",
            Cause::BgGc => "bg-gc",
            Cause::BgCkpt => "bg-ckpt",
        }
    }

    /// Aggregation class: 0 foreground, 1 background.
    fn class(self) -> usize {
        match self {
            Cause::FgRead | Cause::FgWrite | Cause::FgScan => 0,
            Cause::BgFlush | Cause::BgCompact | Cause::BgGc | Cause::BgCkpt => 1,
        }
    }
}

/// What one layer did for one cause class over the measured phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerAgg {
    /// Calls into the layer (spans opened at its seam).
    pub calls: u64,
    /// Payload bytes those calls carried.
    pub bytes: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Host nanoseconds spent in the layer itself (span − children).
    pub self_ns: u64,
}

/// One raw span of a sampled client op.
#[derive(Clone, Debug)]
pub struct RawSpan {
    op_id: u64,
    span_id: u64,
    parent_id: u64,
    layer: Layer,
    call: &'static str,
    cause: Cause,
    v_start: u64,
    v_end: u64,
    wall_start: u64,
    wall_end: u64,
    bytes: u64,
    ok: bool,
}

/// Everything a traced phase recorded.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// `[layer][0 = foreground, 1 = background]` aggregates.
    pub layers: [[LayerAgg; 2]; LAYERS.len()],
    /// Virtual nanoseconds per timed call, by (layer, call).
    pub v_ns: BTreeMap<(Layer, &'static str), Vec<u64>>,
    /// Per `iosched` call: virtual nanoseconds it added on top of the device
    /// calls nested inside it.
    pub sched_added_v_ns: Vec<u64>,
    /// Raw spans of the sampled client ops.
    pub raw: Vec<RawSpan>,
}

impl Report {
    /// Aggregate of `layer` over both cause classes.
    pub fn total(&self, layer: Layer) -> LayerAgg {
        let [fg, bg] = self.layers[layer as usize];
        LayerAgg {
            calls: fg.calls + bg.calls,
            bytes: fg.bytes + bg.bytes,
            errors: fg.errors + bg.errors,
            self_ns: fg.self_ns + bg.self_ns,
        }
    }

    /// Sum of every layer's self time: equals the wall time of the root
    /// spans by construction.
    pub fn self_ns_total(&self) -> u64 {
        LAYERS.iter().map(|&l| self.total(l).self_ns).sum()
    }

    /// Writes the raw spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.raw {
            writeln!(
                out,
                "{{\"op_id\":{},\"span_id\":{},\"parent_id\":{},\"layer\":\"{}\",\"call\":\"{}\",\
                 \"cause\":\"{}\",\"v_start\":{},\"v_end\":{},\"wall_start\":{},\"wall_end\":{},\
                 \"bytes\":{},\"ok\":{}}}",
                s.op_id,
                s.span_id,
                s.parent_id,
                s.layer.name(),
                s.call,
                s.cause.name(),
                s.v_start,
                s.v_end,
                s.wall_start,
                s.wall_end,
                s.bytes,
                s.ok
            )?;
        }
        out.flush()
    }
}

struct Open {
    layer: Layer,
    call: &'static str,
    span_id: u64,
    timed: bool,
    v_start: u64,
    wall_start: u64,
    child_wall: u64,
    child_v: u64,
    bytes: u64,
}

struct State {
    stack: Vec<Open>,
    cause: Cause,
    op_id: u64,
    sampled: bool,
    next_span: u64,
    report: Report,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts recording on this thread. The driver calls it when the measured
/// phase begins, so set-up, read-back and recovery are never recorded: with
/// no recording in progress the wrappers just forward.
pub fn start() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            stack: Vec::with_capacity(16),
            cause: Cause::FgRead,
            op_id: 0,
            sampled: false,
            next_span: 1,
            report: Report::default(),
        })
    });
}

/// Stops recording and hands back what was recorded since [`start`].
pub fn finish() -> Option<Report> {
    STATE.with(|s| s.borrow_mut().take()).map(|st| st.report)
}

/// Sets the cause attributed to every span opened from now on.
pub fn set_cause(cause: Cause) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.cause = cause;
        }
    });
}

/// Marks the start of client op `op_id` (decides raw-span sampling).
pub fn begin_op(op_id: u64) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.op_id = op_id;
            st.sampled = op_id % SAMPLE_EVERY == 0;
        }
    });
}

/// Ends raw-span sampling until the next [`begin_op`] (maintenance polls
/// are aggregated but never sampled).
pub fn end_op() {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.sampled = false;
        }
    });
}

/// Opens a span. `timed` spans contribute a virtual-latency sample;
/// introspection calls (chunk reports, event drains) are not timed.
pub fn enter(layer: Layer, call: &'static str, now: SimTime, bytes: u64, timed: bool) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let span_id = st.next_span;
            st.next_span += 1;
            st.stack.push(Open {
                layer,
                call,
                span_id,
                timed,
                v_start: now.as_nanos(),
                wall_start: 0,
                child_wall: 0,
                child_v: 0,
                bytes,
            });
            // Clock read last, so the bookkeeping above is billed to the
            // caller's layer, not to the callee's.
            if let Some(top) = st.stack.last_mut() {
                top.wall_start = clock::now_ns();
            }
        }
    });
}

/// Closes the innermost span at virtual time `v_end`.
pub fn exit(v_end: SimTime, ok: bool) {
    // Clock read first, for the same reason `enter` reads it last.
    let wall_end = clock::now_ns();
    STATE.with(|s| {
        let mut guard = s.borrow_mut();
        let Some(st) = guard.as_mut() else { return };
        let Some(open) = st.stack.pop() else { return };
        let wall = wall_end.saturating_sub(open.wall_start);
        let v_end = v_end.as_nanos().max(open.v_start);
        let v = v_end - open.v_start;
        let parent_id = match st.stack.last_mut() {
            Some(parent) => {
                parent.child_wall += wall;
                parent.child_v += v;
                parent.span_id
            }
            None => 0,
        };
        let agg = &mut st.report.layers[open.layer as usize][st.cause.class()];
        agg.calls += 1;
        agg.bytes += open.bytes;
        agg.errors += u64::from(!ok);
        agg.self_ns += wall.saturating_sub(open.child_wall);
        if open.timed && open.layer != Layer::Driver {
            st.report
                .v_ns
                .entry((open.layer, open.call))
                .or_default()
                .push(v);
            if open.layer == Layer::Iosched {
                st.report
                    .sched_added_v_ns
                    .push(v.saturating_sub(open.child_v));
            }
        }
        if st.sampled {
            st.report.raw.push(RawSpan {
                op_id: st.op_id,
                span_id: open.span_id,
                parent_id,
                layer: open.layer,
                call: open.call,
                cause: st.cause,
                v_start: open.v_start,
                v_end,
                wall_start: open.wall_start,
                wall_end,
                bytes: open.bytes,
                ok,
            });
        }
    });
}

/// What a spanned call returned: when it completed on the virtual clock, and
/// whether it succeeded.
pub trait Outcome {
    /// (virtual completion time, success) of a call issued at `now`.
    fn end(&self, now: SimTime) -> (SimTime, bool);
}

impl Outcome for SimTime {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        (*self, true)
    }
}

impl Outcome for Completion {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        (self.done, true)
    }
}

/// `(payload, completion time)` pairs: a flushed table's id, a get's value.
impl<T> Outcome for (T, SimTime) {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        (self.1, true)
    }
}

/// `None` is a poll that found nothing to do.
impl<T: Outcome> Outcome for Option<T> {
    fn end(&self, now: SimTime) -> (SimTime, bool) {
        self.as_ref().map_or((now, true), |t| t.end(now))
    }
}

impl<T: Outcome, E> Outcome for Result<T, E> {
    fn end(&self, now: SimTime) -> (SimTime, bool) {
        self.as_ref().map_or((now, false), |t| t.end(now))
    }
}

/// Runs `f` inside a span when `on`. With `on` false this is just `f()`.
#[inline]
pub fn spanned<R: Outcome>(
    on: bool,
    layer: Layer,
    call: &'static str,
    now: SimTime,
    bytes: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !on {
        return f();
    }
    enter(layer, call, now, bytes, true);
    let r = f();
    let (v_end, ok) = r.end(now);
    exit(v_end, ok);
    r
}

/// Transparent [`Media`] wrapper: forwards every call unchanged and records
/// a span for `layer` around it.
pub struct TracedMedia {
    layer: Layer,
    inner: Arc<dyn Media>,
}

impl TracedMedia {
    /// Wraps `inner`; spans are attributed to `layer` (the layer *below*
    /// the seam: `Iosched` above a `SchedMedia`, `Ocssd` above the device).
    pub fn wrap(layer: Layer, inner: Arc<dyn Media>) -> Arc<dyn Media> {
        Arc::new(TracedMedia { layer, inner })
    }

    fn timed<R: Outcome>(
        &self,
        call: &'static str,
        now: SimTime,
        bytes: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        spanned(true, self.layer, call, now, bytes as u64, f)
    }

    /// Introspection: host time is attributed, no virtual-latency sample.
    fn untimed<R>(&self, call: &'static str, f: impl FnOnce() -> R) -> R {
        enter(self.layer, call, SimTime::ZERO, 0, false);
        let r = f();
        exit(SimTime::ZERO, true);
        r
    }
}

impl Media for TracedMedia {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> ocssd::Result<Completion> {
        self.timed("write", now, data.len(), || {
            self.inner.write(now, ppa, data)
        })
    }

    fn read(
        &self,
        now: SimTime,
        ppa: Ppa,
        sectors: u32,
        out: &mut [u8],
    ) -> ocssd::Result<Completion> {
        self.timed("read", now, out.len(), || {
            self.inner.read(now, ppa, sectors, out)
        })
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> ocssd::Result<Completion> {
        self.timed("reset", now, 0, || self.inner.reset(now, chunk))
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> ocssd::Result<Completion> {
        self.timed("copy", now, srcs.len() * ocssd::SECTOR_BYTES, || {
            self.inner.copy(now, srcs, dst)
        })
    }

    fn flush(&self, now: SimTime) -> Completion {
        self.timed("flush", now, 0, || self.inner.flush(now))
    }

    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        self.timed("flush_chunk", now, 0, || self.inner.flush_chunk(now, chunk))
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        self.untimed("chunk_info", || self.inner.chunk_info(chunk))
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        self.untimed("report_all", || self.inner.report_all())
    }

    fn drain_events(&self) -> Vec<MediaEvent> {
        self.untimed("drain_events", || self.inner.drain_events())
    }

    fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.untimed("pu_busy_until", || self.inner.pu_busy_until(pu))
    }

    fn chunk_health(&self, now: SimTime, chunk: ChunkAddr) -> ChunkHealth {
        self.untimed("chunk_health", || self.inner.chunk_health(now, chunk))
    }
}

/// Transparent [`TableStore`] wrapper: the `lsmkv` → `lightlsm` seam.
pub struct TracedStore {
    inner: Arc<dyn TableStore>,
}

impl TracedStore {
    /// Wraps `inner`; spans are attributed to [`Layer::Lightlsm`].
    pub fn wrap(inner: Arc<dyn TableStore>) -> Arc<dyn TableStore> {
        Arc::new(TracedStore { inner })
    }
}

impl TableStore for TracedStore {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn table_capacity_bytes(&self) -> usize {
        self.inner.table_capacity_bytes()
    }

    fn flush_table(&self, now: SimTime, data: &[u8]) -> Result<(u64, SimTime), StoreError> {
        spanned(
            true,
            Layer::Lightlsm,
            "flush_table",
            now,
            data.len() as u64,
            || self.inner.flush_table(now, data),
        )
    }

    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, StoreError> {
        spanned(
            true,
            Layer::Lightlsm,
            "read_block",
            now,
            out.len() as u64,
            || self.inner.read_block(now, id, block, out),
        )
    }

    fn delete_table(&self, now: SimTime, id: u64) -> Result<SimTime, StoreError> {
        spanned(true, Layer::Lightlsm, "delete_table", now, 0, || {
            self.inner.delete_table(now, id)
        })
    }
}
