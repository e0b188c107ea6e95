//! YCSB A–F closed-loop workload suite over the paper's stacks.
//!
//! The six core YCSB mixes run in virtual time against a key-value stack
//! through one [`YcsbBackend`] trait: the single-device LSM key-value store
//! (`lsmkv` over LightLSM, [`LsmBackend`]) here, the three device
//! interfaces in [`crate::ablation`]. Clients are cooperative
//! [`ox_sim::Executor`] actors: each issues one operation, reschedules at
//! its virtual completion time, and a maintenance actor keeps
//! flush/compaction (or FTL GC) running alongside, so background
//! interference shows up in client latency.
//!
//! Workload shapes (YCSB core defaults, RMW for the write legs of A/B/F):
//!
//! | Workload | Mix | Distribution |
//! |---|---|---|
//! | A | 50 % read, 50 % read-modify-write | zipfian |
//! | B | 95 % read, 5 % read-modify-write | zipfian |
//! | C | 100 % read | zipfian |
//! | D | 95 % read, 5 % insert | latest |
//! | E | 95 % short range scan, 5 % insert | zipfian |
//! | F | 50 % read, 50 % read-modify-write | zipfian |
//!
//! A's RMW replaces the record wholesale; F's carries a data dependency
//! (the version byte read back is incremented), so F pays the full
//! read-then-write round trip per op. Zipfian key choice is Gray's
//! algorithm (θ = 0.99) over hash-scrambled ranks, as in the YCSB core
//! generator; keys are [`workload_key`]s, so the same byte keyspace drives
//! every backend. Range scans therefore walk the *scrambled* key order —
//! the store's short-scan path is what is being measured, not locality of
//! adjacent user ids.

use lsmkv::{DbError, PutOutcome, SharedDb};
use ox_sim::stats::nearest_rank;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{Actor, Executor, Prng, SimDuration, SimTime, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The six core YCSB workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50 % read / 50 % RMW, zipfian ("update heavy").
    A,
    /// 95 % read / 5 % RMW, zipfian ("read mostly").
    B,
    /// 100 % read, zipfian ("read only").
    C,
    /// 95 % read / 5 % insert, latest distribution ("read latest").
    D,
    /// 95 % short scan / 5 % insert, zipfian ("short ranges").
    E,
    /// 50 % read / 50 % read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub fn all() -> [YcsbWorkload; 6] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
            YcsbWorkload::E,
            YcsbWorkload::F,
        ]
    }

    /// Single-letter label.
    pub fn letter(&self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }

    /// (rmw, insert, scan) fractions; reads absorb the remainder.
    fn mix(&self) -> (f64, f64, f64) {
        match self {
            YcsbWorkload::A | YcsbWorkload::F => (0.5, 0.0, 0.0),
            YcsbWorkload::B => (0.05, 0.0, 0.0),
            YcsbWorkload::C => (0.0, 0.0, 0.0),
            YcsbWorkload::D => (0.0, 0.05, 0.0),
            YcsbWorkload::E => (0.0, 0.05, 0.95),
        }
    }

    /// Whether reads follow the latest distribution (workload D).
    fn latest(&self) -> bool {
        matches!(self, YcsbWorkload::D)
    }

    /// Whether the RMW leg carries a data dependency (workload F).
    fn dependent_rmw(&self) -> bool {
        matches!(self, YcsbWorkload::F)
    }
}

/// YCSB's zipfian generator (Gray's algorithm, θ = 0.99): rank 0 is the
/// hottest item. Ranks are hash-scrambled before use so the hot set is
/// spread over the keyspace.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// A generator over `items` ranks with skew `theta` (YCSB uses 0.99).
    pub fn new(items: u64, theta: f64) -> Zipfian {
        let items = items.max(1);
        let zetan = zeta(items, theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Draws a rank in `[0, items)`; rank 0 is most popular.
    pub fn next(&self, rng: &mut Prng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.items - 1)
    }
}

/// Scrambles a zipfian rank into a key id in `[0, n)` (splitmix64 finalizer,
/// YCSB's "scrambled zipfian").
pub fn scramble(rank: u64, n: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % n.max(1)
}

/// 16-byte key for workload id `k`: an order-scrambling prefix (so the
/// keyspace is not loaded in id order) followed by the raw id.
pub fn workload_key(k: u64) -> [u8; 16] {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&z.to_be_bytes());
    key[8..].copy_from_slice(&k.to_be_bytes());
    key
}

/// Outcome of a backend write.
pub enum YcsbPut {
    /// Completed at the given virtual time.
    Done(SimTime),
    /// Backpressure: retry the whole operation at the given time.
    Stalled(SimTime),
    /// Typed failure (fault pressure); counted, not fatal.
    Failed(SimTime),
}

/// Outcome of a backend read.
pub struct YcsbGet {
    /// The value, when present.
    pub value: Option<Vec<u8>>,
    /// Virtual completion time.
    pub done: SimTime,
    /// Typed failure (fault pressure); counted, not fatal.
    pub failed: bool,
}

/// Outcome of a backend scan.
pub struct YcsbScan {
    /// Entries returned.
    pub entries: usize,
    /// Virtual completion time.
    pub done: SimTime,
    /// Typed failure (fault pressure); counted, not fatal.
    pub failed: bool,
}

/// What the YCSB driver needs from a key-value stack. Handles are cheap
/// clones sharing one underlying store, so every client actor gets its own.
pub trait YcsbBackend: Clone + 'static {
    /// Stack name for reports.
    fn label(&self) -> &'static str;

    /// Upsert.
    fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> YcsbPut;

    /// Point read.
    fn get(&mut self, now: SimTime, key: &[u8]) -> YcsbGet;

    /// Ordered scan of up to `limit` entries from `start`.
    fn scan(&mut self, now: SimTime, start: &[u8], limit: usize) -> YcsbScan;

    /// One background maintenance step (flush/compaction or FTL GC);
    /// `Some(done)` when work was performed.
    fn maintain(&mut self, now: SimTime) -> Option<SimTime>;
}

/// [`YcsbBackend`] over the single-device LSM store.
#[derive(Clone)]
pub struct LsmBackend {
    db: SharedDb,
}

impl LsmBackend {
    /// Wraps a shared database handle.
    pub fn new(db: SharedDb) -> LsmBackend {
        LsmBackend { db }
    }

    /// The wrapped handle.
    pub fn db(&self) -> &SharedDb {
        &self.db
    }
}

const FAIL_BACKOFF: SimDuration = SimDuration::from_micros(100);

impl YcsbBackend for LsmBackend {
    fn label(&self) -> &'static str {
        "lsmkv"
    }

    fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> YcsbPut {
        match self.db.put(now, key, value) {
            Ok(PutOutcome::Done(t)) => YcsbPut::Done(t),
            Ok(PutOutcome::Stalled(retry)) => YcsbPut::Stalled(retry),
            Err(e) => panic!("ycsb put failed: {e}"),
        }
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> YcsbGet {
        match self.db.get(now, key) {
            Ok((value, done)) => YcsbGet {
                value,
                done,
                failed: false,
            },
            Err(DbError::EmptyKey) => panic!("ycsb get used an empty key"),
            Err(_) => YcsbGet {
                value: None,
                done: now + FAIL_BACKOFF,
                failed: true,
            },
        }
    }

    fn scan(&mut self, now: SimTime, start: &[u8], limit: usize) -> YcsbScan {
        let mut iter = self.db.scan_from(start);
        let mut t = now;
        let mut entries = 0usize;
        let mut failed = false;
        while entries < limit {
            match iter.next(&mut t) {
                Ok(Some(_)) => entries += 1,
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        // Dropping the iterator releases its snapshot and table pins.
        drop(iter);
        YcsbScan {
            entries,
            done: t,
            failed,
        }
    }

    fn maintain(&mut self, now: SimTime) -> Option<SimTime> {
        match self.db.flush_once(now) {
            Ok(Some(done)) => return Some(done),
            Ok(None) => {}
            Err(_) => return None,
        }
        match self.db.compact_once(now) {
            Ok(Some(done)) => Some(done),
            _ => None,
        }
    }
}

/// Zipfian skew of every request distribution (the YCSB default).
const THETA: f64 = 0.99;

/// Maximum short-scan length (workload E; uniform in `1..=MAX_SCAN_LEN`).
const MAX_SCAN_LEN: usize = 16;

/// One YCSB run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct YcsbConfig {
    /// Which mix.
    pub workload: YcsbWorkload,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Records loaded before the measured phase.
    pub record_count: u64,
    /// Measured operations, split across clients.
    pub operations: u64,
    /// Value payload bytes.
    pub value_bytes: usize,
    /// Seed for every generator in the run.
    pub seed: u64,
}

impl YcsbConfig {
    /// Defaults sized for the scaled simulated device.
    pub fn new(workload: YcsbWorkload) -> YcsbConfig {
        YcsbConfig {
            workload,
            clients: 8,
            record_count: 4096,
            operations: 8192,
            value_bytes: 256,
            seed: 0x5C5B,
        }
    }
}

/// Latency distribution of one operation class, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    fn push(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    fn seal(&mut self) {
        self.samples.sort_unstable();
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The `q`-quantile (0..=1) in nanoseconds; 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        nearest_rank(&self.samples, q)
    }
}

/// What one YCSB run measured.
#[derive(Clone, Debug)]
pub struct YcsbReport {
    /// The mix.
    pub workload: YcsbWorkload,
    /// Stack label: "lsmkv", or an [`crate::ablation`] backend's label.
    pub backend: &'static str,
    /// Operations completed.
    pub total_ops: u64,
    /// Operations that surfaced a typed failure (fault pressure).
    pub failed_ops: u64,
    /// Write-stall retries absorbed by the closed loop.
    pub stall_retries: u64,
    /// Entries returned by scans (workload E coverage).
    pub scanned_entries: u64,
    /// Virtual span from start to the last completion.
    pub duration: SimDuration,
    /// Point-read latencies.
    pub reads: LatencyStats,
    /// Write-leg latencies (RMW and insert).
    pub writes: LatencyStats,
    /// Scan latencies.
    pub scans: LatencyStats,
}

impl YcsbReport {
    /// Mean throughput in thousands of operations per virtual second.
    pub fn kops_per_sec(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / self.duration.as_secs_f64() / 1000.0
    }

    /// The `q`-quantile across every operation class, nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut all: Vec<u64> = Vec::with_capacity(
            self.reads.samples.len() + self.writes.samples.len() + self.scans.samples.len(),
        );
        all.extend_from_slice(&self.reads.samples);
        all.extend_from_slice(&self.writes.samples);
        all.extend_from_slice(&self.scans.samples);
        all.sort_unstable();
        nearest_rank(&all, q)
    }
}

/// The value written for key id `id` at version `ver`: key bytes, version,
/// zero tail (cheap for the simulator, still verifiable).
pub fn ycsb_value(id: u64, ver: u8, len: usize) -> Vec<u8> {
    let key = workload_key(id);
    let mut v = vec![0u8; len.max(17)];
    v[..16].copy_from_slice(&key);
    v[16] = ver;
    v
}

/// Loads ids `0..record_count` (with retry on write stalls), returning the
/// virtual time when the load finished. Not part of the measured phase.
pub fn load<B: YcsbBackend>(backend: &mut B, cfg: &YcsbConfig, start: SimTime) -> SimTime {
    let mut t = start;
    for id in 0..cfg.record_count {
        let key = workload_key(id);
        let value = ycsb_value(id, 0, cfg.value_bytes);
        let mut attempts = 0u32;
        loop {
            match backend.put(t, &key, &value) {
                YcsbPut::Done(done) => {
                    t = done;
                    break;
                }
                YcsbPut::Stalled(retry) | YcsbPut::Failed(retry) => {
                    // A put that keeps failing after maintenance passes is
                    // not backpressure (e.g. the store is out of space);
                    // spinning on it would hang the load forever.
                    attempts += 1;
                    assert!(
                        attempts < 64,
                        "ycsb load: record {id} rejected {attempts} times \
                         on {} — store undersized for record_count {}?",
                        backend.label(),
                        cfg.record_count
                    );
                    t = retry;
                    // Idle passes return `done <= t`: drained.
                    while let Some(done) = backend.maintain(t) {
                        if done <= t {
                            break;
                        }
                        t = done;
                    }
                }
            }
        }
    }
    // Leave the store quiescent so the measured phase starts clean.
    while let Some(done) = backend.maintain(t) {
        if done <= t {
            break;
        }
        t = done;
    }
    t
}

struct Sink {
    reads: LatencyStats,
    writes: LatencyStats,
    scans: LatencyStats,
    total_ops: u64,
    failed_ops: u64,
    stall_retries: u64,
    scanned_entries: u64,
    end: SimTime,
    clients_done: usize,
}

struct ClientActor<B: YcsbBackend> {
    backend: B,
    cfg: YcsbConfig,
    zipf: Arc<Zipfian>,
    inserted: Arc<AtomicU64>,
    sink: Arc<Mutex<Sink>>,
    obs: Obs,
    rng: Prng,
    remaining: u64,
}

impl<B: YcsbBackend> ClientActor<B> {
    /// A zipfian-scrambled key id over the loaded records.
    fn zipf_id(&mut self) -> u64 {
        scramble(self.zipf.next(&mut self.rng), self.cfg.record_count)
    }

    /// A latest-distribution key id: rank 0 is the newest insert.
    fn latest_id(&mut self) -> u64 {
        let count = self.inserted.load(Ordering::Relaxed).max(1);
        (count - 1).saturating_sub(self.zipf.next(&mut self.rng))
    }

    fn record(&mut self, kind: OpKind, now: SimTime, done: SimTime) {
        let ns = done.saturating_since(now).as_nanos();
        let mut sink = self.sink.lock();
        sink.total_ops += 1;
        sink.end = sink.end.max(done);
        match kind {
            OpKind::Read => sink.reads.push(ns),
            OpKind::Write => sink.writes.push(ns),
            OpKind::Scan => sink.scans.push(ns),
        }
        drop(sink);
        let name = match kind {
            OpKind::Read => "ycsb.read_ns",
            OpKind::Write => "ycsb.write_ns",
            OpKind::Scan => "ycsb.scan_ns",
        };
        self.obs.metrics.observe(name, ns);
    }
}

#[derive(Clone, Copy)]
enum OpKind {
    Read,
    Write,
    Scan,
}

impl<B: YcsbBackend> Actor for ClientActor<B> {
    fn step(&mut self, now: SimTime) -> Step {
        if self.remaining == 0 {
            self.sink.lock().clients_done += 1;
            return Step::Done;
        }
        let (rmw, insert, scan) = self.cfg.workload.mix();
        let dice = self.rng.gen_f64();
        let step = if dice < rmw {
            // Read-modify-write on a zipfian key. A write stall retries the
            // whole cycle (the read is re-issued), as a closed loop would.
            let id = self.zipf_id();
            let key = workload_key(id);
            let got = self.backend.get(now, &key);
            if got.failed {
                self.sink.lock().failed_ops += 1;
                self.remaining -= 1;
                return Step::RunAt(got.done);
            }
            let ver = if self.cfg.workload.dependent_rmw() {
                // F: the new version depends on the bytes read back.
                got.value
                    .as_ref()
                    .and_then(|v| v.get(16))
                    .map_or(1, |b| b.wrapping_add(1))
            } else {
                // A/B: the record is replaced wholesale.
                (self.rng.gen_range(256)) as u8
            };
            let value = ycsb_value(id, ver, self.cfg.value_bytes);
            match self.backend.put(got.done, &key, &value) {
                YcsbPut::Done(t) => {
                    self.record(OpKind::Write, now, t);
                    self.remaining -= 1;
                    Step::RunAt(t)
                }
                YcsbPut::Stalled(retry) => {
                    self.sink.lock().stall_retries += 1;
                    Step::RunAt(retry)
                }
                YcsbPut::Failed(t) => {
                    self.sink.lock().failed_ops += 1;
                    self.remaining -= 1;
                    Step::RunAt(t)
                }
            }
        } else if dice < rmw + insert {
            // Insert a brand-new key (workloads D and E).
            let id = self.inserted.fetch_add(1, Ordering::Relaxed);
            let key = workload_key(id);
            let value = ycsb_value(id, 0, self.cfg.value_bytes);
            match self.backend.put(now, &key, &value) {
                YcsbPut::Done(t) => {
                    self.record(OpKind::Write, now, t);
                    self.remaining -= 1;
                    Step::RunAt(t)
                }
                YcsbPut::Stalled(retry) => {
                    // The id is already claimed; retry the same insert.
                    self.inserted.fetch_sub(1, Ordering::Relaxed);
                    self.sink.lock().stall_retries += 1;
                    Step::RunAt(retry)
                }
                YcsbPut::Failed(t) => {
                    self.sink.lock().failed_ops += 1;
                    self.remaining -= 1;
                    Step::RunAt(t)
                }
            }
        } else if dice < rmw + insert + scan {
            // Short range scan from a zipfian start key (workload E).
            let id = self.zipf_id();
            let len = 1 + self.rng.gen_range(MAX_SCAN_LEN as u64) as usize;
            let out = self.backend.scan(now, &workload_key(id), len);
            let mut sink = self.sink.lock();
            if out.failed {
                sink.failed_ops += 1;
            }
            sink.scanned_entries += out.entries as u64;
            drop(sink);
            self.record(OpKind::Scan, now, out.done);
            self.remaining -= 1;
            Step::RunAt(out.done)
        } else {
            // Point read: zipfian, or latest for workload D.
            let id = if self.cfg.workload.latest() {
                self.latest_id()
            } else {
                self.zipf_id()
            };
            let got = self.backend.get(now, &workload_key(id));
            if got.failed {
                self.sink.lock().failed_ops += 1;
            }
            self.record(OpKind::Read, now, got.done);
            self.remaining -= 1;
            Step::RunAt(got.done)
        };
        step
    }
}

struct MaintainActor<B: YcsbBackend> {
    backend: B,
    sink: Arc<Mutex<Sink>>,
    clients: usize,
    period: SimDuration,
}

impl<B: YcsbBackend> Actor for MaintainActor<B> {
    fn step(&mut self, now: SimTime) -> Step {
        if self.sink.lock().clients_done >= self.clients {
            return Step::Done;
        }
        match self.backend.maintain(now) {
            // Real work consumed virtual time: chase it. An idle pass
            // returns `done == now`; sleep a full period so the actor
            // cannot spin at nanosecond granularity.
            Some(done) if done > now => Step::RunAt(done),
            _ => Step::RunAt(now + self.period),
        }
    }
}

/// Runs the measured phase of `cfg` against `backend` starting at `start`
/// (the store should already be loaded — see [`load`]). Returns the report
/// and the virtual time when the run (including background drain) finished.
pub fn run_ycsb<B: YcsbBackend>(
    backend: &B,
    cfg: &YcsbConfig,
    obs: &Obs,
    start: SimTime,
) -> (YcsbReport, SimTime) {
    let sink = Arc::new(Mutex::new(Sink {
        reads: LatencyStats::default(),
        writes: LatencyStats::default(),
        scans: LatencyStats::default(),
        total_ops: 0,
        failed_ops: 0,
        stall_retries: 0,
        scanned_entries: 0,
        end: start,
        clients_done: 0,
    }));
    let zipf = Arc::new(Zipfian::new(cfg.record_count, THETA));
    let inserted = Arc::new(AtomicU64::new(cfg.record_count));
    let mut ex = Executor::new();
    let rng = Prng::seed_from_u64(cfg.seed ^ (cfg.workload.letter().as_bytes()[0] as u64));
    let clients = cfg.clients.max(1);
    let per_client = cfg.operations / clients as u64;
    let mut ids = Vec::new();
    for c in 0..clients {
        let extra = u64::from((c as u64) < cfg.operations % clients as u64);
        let id = ex.spawn(
            Box::new(ClientActor {
                backend: backend.clone(),
                cfg: *cfg,
                zipf: zipf.clone(),
                inserted: inserted.clone(),
                sink: sink.clone(),
                obs: obs.clone(),
                rng: rng.split(c as u64),
                remaining: per_client + extra,
            }),
            start,
        );
        ids.push(id);
    }
    ex.spawn(
        Box::new(MaintainActor {
            backend: backend.clone(),
            sink: sink.clone(),
            clients,
            period: SimDuration::from_micros(500),
        }),
        start,
    );
    while !ids.iter().all(|&id| ex.is_done(id)) {
        assert!(
            ex.step_one(),
            "deadlock: ycsb clients pending but nothing scheduled"
        );
    }
    let mut g = sink.lock();
    g.reads.seal();
    g.writes.seal();
    g.scans.seal();
    let end = g.end;
    let report = YcsbReport {
        workload: cfg.workload,
        backend: backend.label(),
        total_ops: g.total_ops,
        failed_ops: g.failed_ops,
        stall_retries: g.stall_retries,
        scanned_entries: g.scanned_entries,
        duration: end.saturating_since(start),
        reads: std::mem::take(&mut g.reads),
        writes: std::mem::take(&mut g.writes),
        scans: std::mem::take(&mut g.scans),
    };
    drop(g);
    // Drain background work so a follow-up run starts quiescent. Idle
    // passes return `done <= t`: drained.
    let mut backend = backend.clone();
    let mut t = end;
    while let Some(done) = backend.maintain(t) {
        if done <= t {
            break;
        }
        t = done;
    }
    (report, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Prng::seed_from_u64(7);
        let mut counts = [0u64; 1000];
        for _ in 0..20_000 {
            let r = z.next(&mut rng);
            assert!(r < 1000);
            counts[r as usize] += 1;
        }
        // Rank 0 dominates and the tail is long but populated.
        assert!(counts[0] > counts[10] && counts[10] > 0);
        let head: u64 = counts[..10].iter().sum();
        assert!(head > 20_000 / 4, "head too cold: {head}");
        assert!(counts[500..].iter().any(|&c| c > 0), "tail never drawn");
    }

    #[test]
    fn scramble_spreads_and_stays_in_range() {
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..512u64 {
            let id = scramble(r, 4096);
            assert!(id < 4096);
            seen.insert(id);
        }
        assert!(seen.len() > 480, "scramble collides too much");
    }

    #[test]
    fn workload_keys_are_unique() {
        let mut keys: Vec<[u8; 16]> = (0..1000).map(workload_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
    }
}
