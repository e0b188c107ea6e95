//! Cooperative virtual-time client driver: thousands of closed-loop KV
//! clients as [`ox_sim::Executor`] actors over one shared cluster.
//!
//! Each client issues one operation per step and re-schedules itself at the
//! operation's virtual completion time, so per-shard concurrency emerges
//! from overlapping virtual-time windows, not threads. A maintenance actor
//! ticks the cluster's background pass (GC, checkpointing, bad-block-driven
//! rebalancing) on a fixed period until every client finishes.

use crate::cluster::ShardCluster;
use ox_sim::stats::nearest_rank;
use ox_sim::sync::Mutex;
use ox_sim::{Actor, Executor, Prng, SimDuration, SimTime, Step};
use std::sync::Arc;

/// The cluster handle clients share. All access is serialized through the
/// simulation mutex (the cluster itself is single-threaded state).
pub type SharedCluster = Arc<Mutex<ShardCluster>>;

/// Client workload shape.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Fraction of operations that are point reads (the rest are upserts).
    pub read_fraction: f64,
    /// Fraction of operations that are ordered scans (carved out of the
    /// non-read remainder before upserts).
    pub scan_fraction: f64,
    /// Maximum scan length; each scan draws uniformly from `1..=max`.
    pub max_scan_len: usize,
    /// Number of distinct keys addressed by the workload.
    pub key_space: u64,
    /// Seed for key choice and read/write mix.
    pub seed: u64,
    /// Period of the cluster maintenance actor.
    pub maintain_every: SimDuration,
}

impl WorkloadConfig {
    /// A read-mostly closed loop sized for tests.
    pub fn new(clients: usize, ops_per_client: usize) -> WorkloadConfig {
        WorkloadConfig {
            clients,
            ops_per_client,
            value_bytes: 128,
            read_fraction: 0.5,
            scan_fraction: 0.0,
            max_scan_len: 16,
            key_space: 4096,
            seed: 0x0C55D,
            maintain_every: SimDuration::from_millis(10),
        }
    }
}

/// What the driver measured.
#[derive(Clone, Debug, Default)]
pub struct DriveReport {
    /// Operations that completed (`Ok`).
    pub total_ops: u64,
    /// Operations that surfaced a typed error (fault pressure; the driver
    /// keeps going).
    pub failed_ops: u64,
    /// Virtual time the first operation was issued.
    pub start: SimTime,
    /// Virtual time the last operation completed.
    pub end: SimTime,
    /// Completed-op latencies in nanoseconds, sorted ascending, per shard.
    pub per_shard_latencies_ns: Vec<Vec<u64>>,
    /// Scans completed (scatter-gather: not attributed to one shard).
    pub scan_ops: u64,
    /// Entries returned across all scans.
    pub scanned_entries: u64,
    /// Scan latencies in nanoseconds, sorted ascending.
    pub scan_latencies_ns: Vec<u64>,
}

impl DriveReport {
    /// Aggregate throughput in operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        let span_ns = self.end.saturating_since(self.start).as_nanos();
        if span_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e9 / span_ns as f64
    }

    /// The `q`-quantile (0..=1) of one shard's latency distribution, in
    /// nanoseconds; 0 when the shard served nothing.
    pub fn shard_quantile_ns(&self, shard: usize, q: f64) -> u64 {
        let lat = self.per_shard_latencies_ns.get(shard);
        nearest_rank(lat.map_or(&[], Vec::as_slice), q)
    }
}

/// Measurement sink shared by all client actors.
struct Sink {
    per_shard_latencies_ns: Vec<Vec<u64>>,
    scan_latencies_ns: Vec<u64>,
    total_ops: u64,
    failed_ops: u64,
    scan_ops: u64,
    scanned_entries: u64,
    end: SimTime,
    clients_done: usize,
}

struct ClientActor {
    cluster: SharedCluster,
    sink: Arc<Mutex<Sink>>,
    rng: Prng,
    remaining: usize,
    value_bytes: usize,
    read_fraction: f64,
    scan_fraction: f64,
    max_scan_len: usize,
    key_space: u64,
}

/// 16-byte key for workload id `k`: an order-scrambling prefix (so range
/// sharding sees a balanced keyspace) followed by the raw id.
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

impl Actor for ClientActor {
    fn step(&mut self, now: SimTime) -> Step {
        if self.remaining == 0 {
            self.sink.lock().clients_done += 1;
            return Step::Done;
        }
        self.remaining -= 1;
        let key = workload_key(self.rng.gen_range(self.key_space));
        let dice = self.rng.gen_f64();
        let read = dice < self.read_fraction;
        if !read && dice < self.read_fraction + self.scan_fraction {
            // Ordered scatter-gather scan; latency is cluster-wide, not
            // attributable to a single shard.
            let limit = 1 + self.rng.gen_range(self.max_scan_len.max(1) as u64) as usize;
            let outcome = self.cluster.lock().scan(now, &key, limit);
            return match outcome {
                Ok((entries, done)) => {
                    let mut sink = self.sink.lock();
                    sink.total_ops += 1;
                    sink.scan_ops += 1;
                    sink.scanned_entries += entries.len() as u64;
                    sink.end = sink.end.max(done);
                    sink.scan_latencies_ns
                        .push(done.saturating_since(now).as_nanos());
                    Step::RunAt(done)
                }
                Err(_) => {
                    self.sink.lock().failed_ops += 1;
                    Step::RunAt(now + SimDuration::from_micros(100))
                }
            };
        }
        let outcome = {
            let mut c = self.cluster.lock();
            if read {
                c.get(now, &key).map(|(_v, shard, done)| (shard, done))
            } else {
                let mut value = vec![0u8; self.value_bytes];
                self.rng.fill_bytes(&mut value);
                c.put(now, &key, &value)
            }
        };
        match outcome {
            Ok((shard, done)) => {
                let mut sink = self.sink.lock();
                sink.total_ops += 1;
                sink.end = sink.end.max(done);
                if let Some(lat) = sink.per_shard_latencies_ns.get_mut(shard as usize) {
                    lat.push(done.saturating_since(now).as_nanos());
                }
                Step::RunAt(done)
            }
            Err(_) => {
                // Typed fault (e.g. injected device failure): count it and
                // back off one tick rather than abort the whole run.
                self.sink.lock().failed_ops += 1;
                Step::RunAt(now + SimDuration::from_micros(100))
            }
        }
    }
}

struct MaintainActor {
    cluster: SharedCluster,
    sink: Arc<Mutex<Sink>>,
    period: SimDuration,
    clients: usize,
}

impl Actor for MaintainActor {
    fn step(&mut self, now: SimTime) -> Step {
        if self.sink.lock().clients_done >= self.clients {
            return Step::Done;
        }
        // Maintenance failures under fault pressure are survivable; the
        // next tick retries.
        let _ = self.cluster.lock().maintain(now);
        Step::RunAt(now + self.period)
    }
}

/// Runs `cfg` against `cluster` starting at `start`, to completion.
///
/// Clients are staggered over the first microsecond so the heap does not
/// see a thundering herd at one instant; the maintenance actor keeps
/// ticking until the last client finishes.
pub fn drive(cluster: &SharedCluster, cfg: &WorkloadConfig, start: SimTime) -> DriveReport {
    let shards = cluster.lock().shard_count() as usize;
    let sink = Arc::new(Mutex::new(Sink {
        per_shard_latencies_ns: vec![Vec::new(); shards],
        scan_latencies_ns: Vec::new(),
        total_ops: 0,
        failed_ops: 0,
        scan_ops: 0,
        scanned_entries: 0,
        end: start,
        clients_done: 0,
    }));
    let mut ex = Executor::new();
    let mut rng = Prng::seed_from_u64(cfg.seed);
    for c in 0..cfg.clients {
        let actor = ClientActor {
            cluster: cluster.clone(),
            sink: sink.clone(),
            rng: rng.split(c as u64),
            remaining: cfg.ops_per_client,
            value_bytes: cfg.value_bytes,
            read_fraction: cfg.read_fraction,
            scan_fraction: cfg.scan_fraction,
            max_scan_len: cfg.max_scan_len,
            key_space: cfg.key_space,
        };
        let jitter = SimDuration::from_nanos(rng.gen_range(1000));
        ex.spawn(Box::new(actor), start + jitter);
    }
    ex.spawn(
        Box::new(MaintainActor {
            cluster: cluster.clone(),
            sink: sink.clone(),
            period: cfg.maintain_every,
            clients: cfg.clients,
        }),
        start + cfg.maintain_every,
    );
    ex.run();
    let mut sink = sink.lock();
    for lat in &mut sink.per_shard_latencies_ns {
        lat.sort_unstable();
    }
    sink.scan_latencies_ns.sort_unstable();
    DriveReport {
        total_ops: sink.total_ops,
        failed_ops: sink.failed_ops,
        start,
        end: sink.end,
        per_shard_latencies_ns: std::mem::take(&mut sink.per_shard_latencies_ns),
        scan_ops: sink.scan_ops,
        scanned_entries: sink.scanned_entries,
        scan_latencies_ns: std::mem::take(&mut sink.scan_latencies_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ShardCluster};
    use ocssd::Obs;

    #[test]
    fn driver_completes_and_attributes_latency() {
        let (cluster, t0) =
            ShardCluster::new(ClusterConfig::new(2), Obs::new(4096), SimTime::ZERO).unwrap();
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));
        let cfg = WorkloadConfig::new(32, 8);
        let report = drive(&shared, &cfg, t0);
        assert_eq!(report.total_ops, 32 * 8);
        assert_eq!(report.failed_ops, 0);
        assert!(report.end > report.start);
        assert!(report.ops_per_sec() > 0.0);
        let served: usize = report.per_shard_latencies_ns.iter().map(Vec::len).sum();
        assert_eq!(served, 32 * 8);
        for s in 0..2 {
            assert!(report.shard_quantile_ns(s, 0.99) > 0, "shard {s} idle");
        }
    }

    #[test]
    fn driver_serves_scans_when_configured() {
        let (cluster, t0) =
            ShardCluster::new(ClusterConfig::new(2), Obs::new(4096), SimTime::ZERO).unwrap();
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));
        let mut cfg = WorkloadConfig::new(16, 16);
        cfg.read_fraction = 0.25;
        cfg.scan_fraction = 0.25;
        cfg.max_scan_len = 8;
        let report = drive(&shared, &cfg, t0);
        assert_eq!(report.total_ops, 16 * 16);
        assert_eq!(report.failed_ops, 0);
        assert!(report.scan_ops > 0, "scan fraction must produce scans");
        assert!(report.scanned_entries > 0, "scans must return entries");
        assert!(report.scan_latencies_ns.iter().all(|&ns| ns > 0));
        assert_eq!(report.scan_latencies_ns.len() as u64, report.scan_ops);
    }

    #[test]
    fn workload_keys_are_unique() {
        let mut keys: Vec<[u8; 16]> = (0..1000).map(workload_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
    }
}
