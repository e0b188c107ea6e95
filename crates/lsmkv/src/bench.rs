//! `db_bench`-style workload driver (paper §4.3, Figures 5 and 6).
//!
//! Workloads mirror the paper's setup: fill-sequential, read-sequential and
//! read-random with 1/2/4/8 client threads, 16-byte keys and 1 KB values,
//! no compression and no block cache. Each client is a virtual-time actor;
//! one background flusher and one background compactor run alongside, so
//! flush/compaction interference on the device shows up in client latency.

use crate::db::{DbIter, PutOutcome, SharedDb};
use ox_sim::stats::TimeSeries;
use ox_sim::sync::Mutex;
use ox_sim::{Actor, Executor, Prng, SimDuration, SimTime, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The three db_bench workloads used in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sequential puts; each client owns a contiguous key range.
    FillSequential,
    /// Full-database iteration per client.
    ReadSequential,
    /// Uniform random gets over the populated key space.
    ReadRandom,
}

impl Workload {
    /// db_bench-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::FillSequential => "fillseq",
            Workload::ReadSequential => "readseq",
            Workload::ReadRandom => "readrandom",
        }
    }
}

/// One workload run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Which workload.
    pub workload: Workload,
    /// Concurrent clients (db_bench threads).
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: u64,
    /// Keys present in the database (read workloads).
    pub key_space: u64,
    /// Value size (1 KB in the paper).
    pub value_bytes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Throughput window for the time series (Figure 6 uses 1 s).
    pub window: SimDuration,
    /// Background flush workers (RocksDB `max_background_flushes`).
    pub flushers: usize,
    /// Background compaction workers (RocksDB `max_background_compactions`).
    pub compactors: usize,
}

impl BenchConfig {
    /// Paper-style defaults for a workload and client count.
    pub fn paper(workload: Workload, clients: usize, ops_per_client: u64) -> Self {
        BenchConfig {
            workload,
            clients,
            ops_per_client,
            key_space: clients as u64 * ops_per_client,
            value_bytes: 1024,
            seed: 0xD81,
            window: SimDuration::from_secs(1),
            // Background parallelism scales with foreground load, as
            // db_bench deployments configure max_background_jobs.
            flushers: clients.clamp(1, 8),
            compactors: clients.clamp(1, 8),
        }
    }
}

/// Outcome of one workload run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Workload executed.
    pub workload: Workload,
    /// Client count.
    pub clients: usize,
    /// Operations completed.
    pub total_ops: u64,
    /// Virtual time from start to the last client's completion.
    pub duration: SimDuration,
    /// Mean throughput in thousands of operations per virtual second.
    pub kops_per_sec: f64,
    /// Per-window completion counts (Figure 6's series).
    pub series: TimeSeries,
}

/// 16-byte db_bench key for index `i`.
pub fn bench_key(i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    let s = format!("{i:016}");
    k.copy_from_slice(s.as_bytes());
    k
}

/// A value whose head identifies the key and whose tail is zeros (cheap for
/// the simulator to store, still verifiable).
pub fn bench_value(key: &[u8], len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let n = key.len().min(len);
    v[..n].copy_from_slice(&key[..n]);
    v
}

struct SharedCounters {
    series: Mutex<TimeSeries>,
    ops: AtomicU64,
    finished: Mutex<Vec<SimTime>>,
}

struct Client {
    db: SharedDb,
    cfg: BenchConfig,
    idx: u64,
    completed: u64,
    rng: Prng,
    iter: Option<DbIter>,
    counters: Arc<SharedCounters>,
}

impl Client {
    fn record(&mut self, done: SimTime) {
        self.completed += 1;
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        self.counters.series.lock().record_at(done, 1);
    }

    fn finish(&self, now: SimTime) -> Step {
        self.counters.finished.lock().push(now);
        Step::Done
    }
}

impl Actor for Client {
    fn step(&mut self, now: SimTime) -> Step {
        if self.completed >= self.cfg.ops_per_client {
            return self.finish(now);
        }
        match self.cfg.workload {
            Workload::FillSequential => {
                let key_idx = self.idx * self.cfg.ops_per_client + self.completed;
                let key = bench_key(key_idx);
                let value = bench_value(&key, self.cfg.value_bytes);
                match self.db.put(now, &key, &value) {
                    Ok(PutOutcome::Done(t)) => {
                        self.record(t);
                        Step::RunAt(t)
                    }
                    Ok(PutOutcome::Stalled(retry)) => Step::RunAt(retry),
                    Err(e) => panic!("fill failed: {e}"),
                }
            }
            Workload::ReadRandom => {
                let key_idx = self.rng.gen_range(self.cfg.key_space.max(1));
                let key = bench_key(key_idx);
                match self.db.get(now, &key) {
                    Ok((_, t)) => {
                        self.record(t);
                        Step::RunAt(t)
                    }
                    Err(e) => panic!("get failed: {e}"),
                }
            }
            Workload::ReadSequential => {
                if self.iter.is_none() {
                    self.iter = Some(self.db.scan_from(b""));
                }
                let mut t = now;
                let iter = self.iter.as_mut().expect("created above");
                match iter.next(&mut t) {
                    Ok(Some(_)) => {
                        self.record(t);
                        Step::RunAt(t)
                    }
                    Ok(None) => {
                        // Wrapped the keyspace: restart the scan.
                        self.iter = None;
                        if self.completed == 0 {
                            // Empty database: avoid spinning forever.
                            return self.finish(t);
                        }
                        Step::RunAt(t)
                    }
                    Err(e) => panic!("scan failed: {e}"),
                }
            }
        }
    }
}

struct Flusher {
    db: SharedDb,
    poll: SimDuration,
}

impl Actor for Flusher {
    fn step(&mut self, now: SimTime) -> Step {
        match self.db.flush_once(now) {
            Ok(Some(done)) => Step::RunAt(done),
            Ok(None) => Step::RunAt(now + self.poll),
            Err(e) => panic!("flush failed: {e}"),
        }
    }
}

struct Compactor {
    db: SharedDb,
    poll: SimDuration,
}

impl Actor for Compactor {
    fn step(&mut self, now: SimTime) -> Step {
        match self.db.compact_once(now) {
            Ok(Some(done)) => Step::RunAt(done),
            Ok(None) => Step::RunAt(now + self.poll),
            Err(e) => panic!("compaction failed: {e}"),
        }
    }
}

/// Runs one workload against `db` starting at `start`. Returns the report
/// and the virtual time when everything (including background drain) was
/// quiescent.
pub fn run_workload(db: &SharedDb, cfg: BenchConfig, start: SimTime) -> (BenchReport, SimTime) {
    let counters = Arc::new(SharedCounters {
        series: Mutex::new(TimeSeries::new(cfg.window)),
        ops: AtomicU64::new(0),
        finished: Mutex::new(Vec::new()),
    });
    let mut ex = Executor::new();
    let mut client_ids = Vec::new();
    let rng = Prng::seed_from_u64(cfg.seed);
    for idx in 0..cfg.clients {
        let id = ex.spawn(
            Box::new(Client {
                db: db.clone(),
                cfg,
                idx: idx as u64,
                completed: 0,
                rng: rng.split(idx as u64),
                iter: None,
                counters: counters.clone(),
            }),
            start,
        );
        client_ids.push(id);
    }
    for _ in 0..cfg.flushers.max(1) {
        ex.spawn(
            Box::new(Flusher {
                db: db.clone(),
                poll: SimDuration::from_micros(200),
            }),
            start,
        );
    }
    for _ in 0..cfg.compactors.max(1) {
        ex.spawn(
            Box::new(Compactor {
                db: db.clone(),
                poll: SimDuration::from_micros(500),
            }),
            start,
        );
    }

    while !client_ids.iter().all(|&id| ex.is_done(id)) {
        assert!(
            ex.step_one(),
            "deadlock: clients pending but nothing scheduled"
        );
    }
    let clients_done = *counters
        .finished
        .lock()
        .iter()
        .max()
        .expect("all clients finished");

    // Drain background work so a follow-up workload starts quiescent.
    let mut t = clients_done;
    if cfg.workload == Workload::FillSequential {
        db.seal_memtable();
    }
    loop {
        match db.flush_once(t) {
            Ok(Some(done)) => {
                t = done;
                continue;
            }
            Ok(None) => {}
            Err(e) => panic!("drain flush failed: {e}"),
        }
        match db.compact_once(t) {
            Ok(Some(done)) => {
                t = done;
                continue;
            }
            Ok(None) => break,
            Err(e) => panic!("drain compaction failed: {e}"),
        }
    }

    let total_ops = counters.ops.load(Ordering::Relaxed);
    let duration = clients_done.saturating_since(start);
    let kops = if duration.is_zero() {
        0.0
    } else {
        total_ops as f64 / duration.as_secs_f64() / 1000.0
    };
    let series = counters.series.lock().clone();
    (
        BenchReport {
            workload: cfg.workload,
            clients: cfg.clients,
            total_ops,
            duration,
            kops_per_sec: kops,
            series,
        },
        t,
    )
}
