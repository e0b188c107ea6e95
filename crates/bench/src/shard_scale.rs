//! Shard scaling: aggregate throughput and per-shard tails, 1 → N devices.
//!
//! The ROADMAP's "millions of users" question, measured: a fixed per-shard
//! client population (weak scaling) drives `oxshard` clusters of growing
//! size, every shard a full simulated Open-Channel SSD with its own OX-Block
//! FTL, GC and `iosched` queues. Because clients are closed-loop virtual-time
//! actors, aggregate throughput grows linearly exactly when shards do not
//! interfere — any shared bottleneck or routing skew shows up as a sublinear
//! scale factor and a widening per-shard p99 spread.
//!
//! The reproduction target: ≥ 0.8× linear aggregate throughput from 1 to 8
//! shards, with per-shard p99 attribution (min/max across the fleet) in both
//! the printed table and the exported obs dump.

use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use oxshard::{drive, ClusterConfig, ShardCluster, SharedCluster, WorkloadConfig};
use std::sync::Arc;

/// One cluster size in the sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Number of shards (devices) in the cluster.
    pub shards: u32,
    /// Closed-loop clients driving the cluster.
    pub clients: usize,
    /// Operations completed.
    pub total_ops: u64,
    /// Operations that surfaced a typed error.
    pub failed_ops: u64,
    /// Aggregate throughput in virtual kops/s.
    pub kops_per_sec: f64,
    /// Smallest per-shard p99 latency in microseconds.
    pub p99_min_us: f64,
    /// Largest per-shard p99 latency in microseconds.
    pub p99_max_us: f64,
}

/// Whole-sweep output.
#[derive(Clone, Debug)]
pub struct ShardScaleResult {
    /// One point per cluster size, in sweep order.
    pub points: Vec<ScalePoint>,
    /// Clients per shard (the weak-scaling unit).
    pub clients_per_shard: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
}

impl ShardScaleResult {
    /// The point for a given shard count.
    pub fn point(&self, shards: u32) -> &ScalePoint {
        self.points
            .iter()
            .find(|p| p.shards == shards)
            .unwrap_or_else(|| panic!("no point for {shards} shards"))
    }

    /// Aggregate throughput ratio between two sweep points
    /// (`kops(to) / kops(from)`); linear scaling would give `to / from`.
    pub fn scaling(&self, from: u32, to: u32) -> f64 {
        self.point(to).kops_per_sec / self.point(from).kops_per_sec
    }
}

/// Runs the sweep, sharing `obs` across every cluster: scoped per-shard
/// metrics (`iosched.shard<k>.*`, `device.shard<k>.pu.*`) accumulate into
/// one dump, and each point publishes its measured per-shard p99 under
/// `oxshard.scale<N>.shard<k>.p99_ns` for offline attribution.
pub fn run(
    shard_counts: &[u32],
    clients_per_shard: usize,
    ops_per_client: usize,
    obs: &Obs,
) -> ShardScaleResult {
    let mut points = Vec::with_capacity(shard_counts.len());
    for &n in shard_counts {
        let (cluster, t0) = ShardCluster::new(ClusterConfig::new(n), obs.clone(), SimTime::ZERO)
            .expect("cluster build");
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));

        let clients = clients_per_shard * n as usize;
        let mut w = WorkloadConfig::new(clients, ops_per_client);
        w.key_space = (clients * ops_per_client) as u64;
        w.seed = 0x5CA1_E000 ^ n as u64;
        let report = drive(&shared, &w, t0);

        let c = shared.lock();
        c.publish_metrics(report.end);
        let mut p99_min = u64::MAX;
        let mut p99_max = 0u64;
        for s in 0..n as usize {
            let p99 = report.shard_quantile_ns(s, 0.99);
            p99_min = p99_min.min(p99);
            p99_max = p99_max.max(p99);
            obs.metrics
                .gauge_set(&format!("oxshard.scale{n}.shard{s}.p99_ns"), p99 as i64);
        }
        points.push(ScalePoint {
            shards: n,
            clients,
            total_ops: report.total_ops,
            failed_ops: report.failed_ops,
            kops_per_sec: report.ops_per_sec() / 1e3,
            p99_min_us: p99_min as f64 / 1e3,
            p99_max_us: p99_max as f64 / 1e3,
        });
    }
    ShardScaleResult {
        points,
        clients_per_shard,
        ops_per_client,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_near_linearly_to_eight_shards() {
        // Enough ops per client that the makespan (last completion across
        // all shards) reflects steady-state throughput, not routing noise.
        let r = run(&[1, 8], 32, 24, &Obs::default());
        for p in &r.points {
            assert_eq!(
                p.failed_ops, 0,
                "{} shards: fault-free run failed ops",
                p.shards
            );
            assert_eq!(
                p.total_ops,
                (p.clients * r.ops_per_client) as u64,
                "{} shards: incomplete run",
                p.shards
            );
            assert!(p.p99_min_us > 0.0, "{} shards: idle shard", p.shards);
            assert!(p.p99_max_us >= p.p99_min_us);
        }
        // The acceptance shape: ≥ 0.8× linear aggregate throughput 1 → 8.
        let scale = r.scaling(1, 8);
        assert!(
            scale >= 0.8 * 8.0,
            "1→8 shards scaled only {scale:.2}× (need ≥ 6.4×): {:?}",
            r.points
        );
    }

    #[test]
    fn per_shard_p99_lands_in_the_obs_dump() {
        let obs = Obs::new(4096);
        let r = run(&[2], 16, 4, &obs);
        assert_eq!(r.points.len(), 1);
        let snap = obs.metrics.snapshot();
        for s in 0..2 {
            let name = format!("oxshard.scale2.shard{s}.p99_ns");
            assert!(
                snap.gauges.get(&name).copied().unwrap_or(0) > 0,
                "missing {name}"
            );
        }
        assert!(snap.counters["iosched.shard0.dispatched"].ops() > 0);
    }
}
