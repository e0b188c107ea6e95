//! The sharded serving layer: N independent shard stacks (device, iosched,
//! OX-Block FTL, directory) behind one router, with bad-block-driven
//! rebalancing and whole-cluster crash recovery.
//!
//! Ownership invariant: a key resident on a shard that the router does not
//! route it to is always tracked in the `pending` migration map. `get`
//! falls back through that map during a rebalance, so reads never miss a
//! key mid-migration; `put`/`delete` retire the stale source copy inline.
//! After a cluster-wide power cut the map (volatile host state) is rebuilt
//! by comparing record placement against the durable router image — see
//! `docs/sharding.md` for the recovery ordering argument.

use crate::error::ShardError;
use crate::router::{Router, Sharding, SLOTS};
use crate::store::ShardStore;
use ocssd::{DeviceConfig, Geometry, Obs, OcssdDevice, SharedDevice};
use ox_block::{BlockFtlConfig, BlockFtlError, ScrubConfig};
use ox_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// One key/value pair returned by [`ShardCluster::scan`].
pub type ScanEntry = (Vec<u8>, Vec<u8>);

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards (devices).
    pub shards: u32,
    /// Keyspace projection (consistent-hash or range).
    pub mode: Sharding,
    /// Geometry of every shard device.
    pub geometry: Geometry,
    /// Logical capacity exposed per shard, in bytes.
    pub shard_capacity_bytes: u64,
    /// Grown-bad-block delta on one shard that triggers a rebalance away
    /// from it.
    pub rebalance_bad_blocks: u64,
    /// Background scrub/refresh configuration of every shard FTL
    /// (disabled by default, matching a bare [`BlockFtlConfig`]).
    pub scrub: ScrubConfig,
}

/// Slots donated per triggered rebalance.
const REBALANCE_SLOTS: usize = SLOTS / 16;
/// Keys migrated per [`ShardCluster::maintain`] call.
const MIGRATE_BATCH: usize = 64;

impl ClusterConfig {
    /// Defaults sized for tests: small SLC devices, 16 MiB per shard,
    /// rebalance after 4 grown bad blocks.
    pub fn new(shards: u32) -> ClusterConfig {
        ClusterConfig {
            shards,
            mode: Sharding::Hash,
            geometry: Geometry::small_slc(),
            shard_capacity_bytes: 16 << 20,
            rebalance_bad_blocks: 4,
            scrub: ScrubConfig::default(),
        }
    }
}

/// Aggregate operation counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Upserts served.
    pub puts: u64,
    /// Point reads served.
    pub gets: u64,
    /// Deletes served.
    pub deletes: u64,
    /// Ordered scans served.
    pub scans: u64,
    /// Keys moved between shards by rebalancing.
    pub migrated_keys: u64,
    /// Rebalances started (bad-block-driven or explicit).
    pub rebalances: u64,
}

/// The serving layer proper. Callers serialize access (through
/// `Arc<ox_sim::sync::Mutex<_>>` in the client driver).
pub struct ShardCluster {
    cfg: ClusterConfig,
    router: Router,
    shards: Vec<ShardStore>,
    obs: Obs,
    /// Keys still resident on a non-owner shard: key → source shard.
    pending: BTreeMap<Vec<u8>, u32>,
    /// The (source, destination) of the rebalance currently draining.
    active: Option<(u32, u32)>,
    /// Grown-bad-block count already acted on, per shard.
    bad_seen: Vec<u64>,
    /// Shards whose end-of-life drain already started (sticky, like the
    /// degraded mode that triggers it).
    drained: Vec<bool>,
    stats: ClusterStats,
}

impl ShardCluster {
    /// Builds and formats a cluster of `cfg.shards` shard stacks sharing
    /// one observability pipeline. Returns the cluster and the time the
    /// slowest shard finished formatting (shards format in parallel).
    pub fn new(
        cfg: ClusterConfig,
        obs: Obs,
        now: SimTime,
    ) -> Result<(ShardCluster, SimTime), ShardError> {
        let router = Router::new(cfg.mode, cfg.shards)?;
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        let mut end = now;
        for i in 0..cfg.shards {
            let mut dc = DeviceConfig::with_geometry(cfg.geometry);
            dc.obs = obs.clone();
            let dev = OcssdDevice::try_new(dc).map_err(|e| ShardError::Ftl {
                shard: i,
                error: BlockFtlError::Device(e),
            })?;
            let mut ftl_cfg = BlockFtlConfig::with_capacity(cfg.shard_capacity_bytes);
            ftl_cfg.scrub = cfg.scrub;
            let (store, done) = ShardStore::format(i, SharedDevice::new(dev), ftl_cfg, now)?;
            end = end.max(done);
            shards.push(store);
        }
        let bad_seen = vec![0; cfg.shards as usize];
        let drained = vec![false; cfg.shards as usize];
        Ok((
            ShardCluster {
                cfg,
                router,
                shards,
                obs,
                pending: BTreeMap::new(),
                active: None,
                bad_seen,
                drained,
                stats: ClusterStats::default(),
            },
            end,
        ))
    }

    /// The routing table (host-side configuration state).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Shared observability pipeline.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Keys resident on one shard.
    pub fn shard_len(&self, shard: u32) -> Result<usize, ShardError> {
        self.store(shard).map(|s| s.len())
    }

    /// Device handle of one shard (fault arming, stats).
    pub fn device(&self, shard: u32) -> Result<&SharedDevice, ShardError> {
        self.store(shard).map(|s| s.device())
    }

    /// Scheduler handle of one shard (stats, queue introspection).
    pub fn scheduler(&self, shard: u32) -> Result<&iosched::SharedScheduler, ShardError> {
        self.store(shard).map(|s| s.scheduler())
    }

    /// Aggregate operation counts.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Keys awaiting migration to their new owner.
    pub fn pending_migrations(&self) -> usize {
        self.pending.len()
    }

    /// The rebalance currently draining, as `(source, destination)`.
    pub fn rebalance_active(&self) -> Option<(u32, u32)> {
        self.active
    }

    fn store(&self, shard: u32) -> Result<&ShardStore, ShardError> {
        self.shards
            .get(shard as usize)
            .ok_or(ShardError::UnknownShard(shard))
    }

    /// Retires the stale source copy of `key` after its new-owner copy is
    /// durable. A degraded source cannot trim, so the key is dropped from
    /// its directory instead (the record stays physically resident on the
    /// dying device, unreachable).
    fn retire_source_copy(
        &mut self,
        now: SimTime,
        src: u32,
        key: &[u8],
    ) -> Result<SimTime, ShardError> {
        if self.shards[src as usize].is_degraded() {
            self.shards[src as usize].forget(key);
            Ok(now)
        } else {
            self.shards[src as usize].delete(now, key)
        }
    }

    /// Upserts `key` → `value` on its owning shard. Returns the shard that
    /// served the write and the durable completion time. A stale source
    /// copy left by an in-flight rebalance is retired inline so it can
    /// never shadow this newer version.
    pub fn put(
        &mut self,
        now: SimTime,
        key: &[u8],
        value: &[u8],
    ) -> Result<(u32, SimTime), ShardError> {
        let owner = self.router.route(key)?;
        let mut t = self.shards[owner as usize].put(now, key, value)?;
        self.stats.puts += 1;
        if let Some(src) = self.pending.remove(key) {
            if src != owner {
                t = self.retire_source_copy(t, src, key)?;
            }
            if self.pending.is_empty() {
                self.active = None;
            }
        }
        Ok((owner, t))
    }

    /// Point read. Falls back to the migration source while a rebalance is
    /// draining, so reads never miss a key mid-move. Returns the value, the
    /// shard that served it, and the completion time.
    pub fn get(
        &mut self,
        now: SimTime,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, u32, SimTime), ShardError> {
        let owner = self.router.route(key)?;
        let (v, t) = self.shards[owner as usize].get(now, key)?;
        self.stats.gets += 1;
        if v.is_some() {
            return Ok((v, owner, t));
        }
        if let Some(&src) = self.pending.get(key) {
            if src != owner {
                let (v, t) = self.shards[src as usize].get(t, key)?;
                return Ok((v, src, t));
            }
        }
        Ok((None, owner, t))
    }

    /// Deletes `key` everywhere it is resident.
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<SimTime, ShardError> {
        let owner = self.router.route(key)?;
        let mut t = self.shards[owner as usize].delete(now, key)?;
        self.stats.deletes += 1;
        if let Some(src) = self.pending.remove(key) {
            if src != owner {
                t = self.retire_source_copy(t, src, key)?;
            }
            if self.pending.is_empty() {
                self.active = None;
            }
        }
        Ok(t)
    }

    /// Ordered scan: up to `limit` key/value pairs at or after `from`,
    /// merged across every shard (scatter-gather; migration copies dedupe
    /// through [`ShardCluster::get`], owner copy winning).
    pub fn scan(
        &mut self,
        now: SimTime,
        from: &[u8],
        limit: usize,
    ) -> Result<(Vec<ScanEntry>, SimTime), ShardError> {
        let mut candidates: BTreeSet<Vec<u8>> = BTreeSet::new();
        for s in &self.shards {
            for k in s.keys_from(from, limit) {
                candidates.insert(k);
            }
        }
        let mut out = Vec::with_capacity(limit.min(candidates.len()));
        let mut t = now;
        for key in candidates.into_iter().take(limit) {
            let (v, _shard, done) = self.get(t, &key)?;
            t = done;
            if let Some(v) = v {
                out.push((key, v));
            }
        }
        self.stats.scans += 1;
        Ok((out, t))
    }

    /// Background pass over the whole cluster: per-shard maintenance
    /// (media-event repair, checkpointing, GC, scrub) in parallel across
    /// shards, then health inspection — a shard whose store degraded to
    /// read-only (spare exhaustion or an administrative fence) is drained
    /// outright (its whole slot share spread over the healthy survivors),
    /// a shard whose grown-bad-block count advanced by
    /// [`ClusterConfig::rebalance_bad_blocks`] since the last trigger
    /// donates `SLOTS / 16` slots to the healthiest shard — and one bounded
    /// migration batch.
    pub fn maintain(&mut self, now: SimTime) -> Result<SimTime, ShardError> {
        let mut end = now;
        for s in &mut self.shards {
            end = end.max(s.maintain(now)?);
        }
        // End-of-life drain first: read-only degradation is terminal, so it
        // outranks the incremental bad-block rebalance. Reads keep hitting
        // the dying shard through the pending map until each key lands on
        // its new owner.
        let dying =
            (0..self.shards.len()).find(|&i| self.shards[i].is_degraded() && !self.drained[i]);
        if let Some(src) = dying {
            match self.drain_shard(src as u32) {
                // No healthy peer left to absorb the keys: nothing to
                // drain to — keep serving reads, retry next pass.
                Ok(_) | Err(ShardError::LastShard) => {}
                Err(e) => return Err(e),
            }
        }
        if self.active.is_none() {
            let grown: Vec<u64> = self
                .shards
                .iter()
                .map(|s| s.device().grown_bad_blocks())
                .collect();
            let trigger = (0..self.shards.len()).find(|&i| {
                grown[i].saturating_sub(self.bad_seen[i]) >= self.cfg.rebalance_bad_blocks
            });
            if let Some(src) = trigger {
                self.bad_seen[src] = grown[src];
                let dst = (0..self.shards.len())
                    .filter(|&j| j != src && !self.shards[j].is_degraded())
                    .min_by_key(|&j| (grown[j], j));
                if let Some(dst) = dst {
                    self.start_rebalance(src as u32, dst as u32, REBALANCE_SLOTS)?;
                }
            }
        }
        let t = self.step_migration(end, MIGRATE_BATCH)?;
        Ok(end.max(t))
    }

    /// Administratively fences `shard` to read-only — the next
    /// [`ShardCluster::maintain`] pass drains it. Reads keep working
    /// throughout.
    // oxcheck:allow(unreferenced_pub): operator control documented in docs/lifetime.md; callers sit outside the workspace, the drain tests drive it.
    pub fn fence_shard(&mut self, shard: u32) -> Result<(), ShardError> {
        self.shards
            .get_mut(shard as usize)
            .ok_or(ShardError::UnknownShard(shard))?
            .degrade_to_read_only();
        Ok(())
    }

    /// Drains a dying shard: donates its *entire* slot share, spread evenly
    /// over the healthy (non-degraded) survivors, and queues every resident
    /// key for migration. Sticky per shard — a second call is a no-op.
    /// Fails with [`ShardError::LastShard`] when no healthy peer is left to
    /// absorb the keys (the degraded shard then keeps serving reads, which
    /// is all it can do anyway).
    pub fn drain_shard(&mut self, src: u32) -> Result<usize, ShardError> {
        if src as usize >= self.shards.len() {
            return Err(ShardError::UnknownShard(src));
        }
        if self.drained[src as usize] {
            return Ok(0);
        }
        let healthy: Vec<u32> = (0..self.shard_count())
            .filter(|&j| j != src && !self.shards[j as usize].is_degraded())
            .collect();
        if healthy.is_empty() {
            return Err(ShardError::LastShard);
        }
        self.drained[src as usize] = true;
        let share = self.router.slots_owned(src).div_ceil(healthy.len());
        let mut queued = 0usize;
        for &dst in &healthy {
            queued += self.start_rebalance(src, dst, share)?;
        }
        self.obs.metrics.record("oxshard.drain", queued as u64);
        Ok(queued)
    }

    /// Starts a rebalance: donates up to `max_slots` routing slots from
    /// `src` to `dst` and queues every resident key of `src` living in a
    /// donated slot for migration. Returns the number of keys queued.
    pub fn start_rebalance(
        &mut self,
        src: u32,
        dst: u32,
        max_slots: usize,
    ) -> Result<usize, ShardError> {
        let moved = self.router.donate_slots(src, dst, max_slots)?;
        if moved.is_empty() {
            return Ok(0);
        }
        let moved: BTreeSet<usize> = moved.into_iter().collect();
        let mut queued = 0usize;
        let keys: Vec<Vec<u8>> = self.store(src)?.keys().cloned().collect();
        for key in keys {
            if moved.contains(&self.router.slot_of(&key)) {
                self.pending.insert(key, src);
                queued += 1;
            }
        }
        self.stats.rebalances += 1;
        if queued > 0 {
            self.active = Some((src, dst));
        }
        Ok(queued)
    }

    /// Drains up to `batch` pending migrations: copy to the new owner
    /// (unless a newer version already landed there), then retire the
    /// source copy. Returns the completion time.
    pub fn step_migration(&mut self, now: SimTime, batch: usize) -> Result<SimTime, ShardError> {
        let mut t = now;
        for _ in 0..batch {
            let Some((key, src)) = self.pending.pop_first() else {
                break;
            };
            let owner = self.router.route(&key)?;
            if owner == src {
                continue;
            }
            if !self.shards[owner as usize].contains(&key) {
                let (v, done) = self.shards[src as usize].get(t, &key)?;
                t = done;
                if let Some(v) = v {
                    t = self.shards[owner as usize].put(t, &key, &v)?;
                }
            }
            t = self.retire_source_copy(t, src, &key)?;
            self.stats.migrated_keys += 1;
        }
        if self.pending.is_empty() {
            self.active = None;
        }
        Ok(t)
    }

    /// Power-fails every shard device at `now` (a correlated, cluster-wide
    /// cut), then recovers each shard and reconciles migration state: the
    /// volatile pending map is rebuilt by comparing where records actually
    /// live against the durable router — a straggler whose copy already
    /// reached its owner is retired, one that never moved is re-queued.
    pub fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, ShardError> {
        for s in &mut self.shards {
            s.crash(now);
        }
        let mut end = now;
        for s in &mut self.shards {
            end = end.max(s.recover(now)?);
        }
        self.pending.clear();
        self.active = None;
        let mut strays: Vec<(Vec<u8>, u32)> = Vec::new();
        for s in &self.shards {
            for key in s.keys() {
                let owner = self.router.route(key)?;
                if owner != s.id() {
                    strays.push((key.clone(), s.id()));
                }
            }
        }
        for (key, src) in strays {
            let owner = self.router.route(&key)?;
            if self.shards[owner as usize].contains(&key) {
                end = end.max(self.shards[src as usize].delete(end, &key)?);
            } else {
                self.pending.insert(key, src);
            }
        }
        Ok(end)
    }

    /// Publishes per-shard device gauges into the shared registry under
    /// `device.shard<i>.…` scopes (never the unscoped `device.…` names, so
    /// concurrent shards cannot clobber each other's per-PU gauges), plus
    /// per-shard health (wear, device age, refresh backlog, degraded flag)
    /// and cluster-level key-placement and migration gauges.
    pub fn publish_metrics(&self, horizon: SimTime) {
        for s in &self.shards {
            let scope = format!("shard{}", s.id());
            s.device().publish_pu_metrics_as(&scope, horizon);
            s.device().publish_health_metrics_as(&scope, horizon);
            self.obs
                .metrics
                .gauge_set(&format!("oxshard.shard{}.keys", s.id()), s.len() as i64);
            self.obs.metrics.gauge_set(
                &format!("oxshard.shard{}.grown_bad_blocks", s.id()),
                s.device().grown_bad_blocks() as i64,
            );
            self.obs.metrics.gauge_set(
                &format!("oxshard.shard{}.refresh_backlog", s.id()),
                s.refresh_backlog() as i64,
            );
            self.obs.metrics.gauge_set(
                &format!("oxshard.shard{}.degraded", s.id()),
                s.is_degraded() as i64,
            );
        }
        self.obs
            .metrics
            .gauge_set("oxshard.pending_migrations", self.pending.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(shards: u32) -> (ShardCluster, SimTime) {
        ShardCluster::new(ClusterConfig::new(shards), Obs::new(4096), SimTime::ZERO)
            .map_err(|e| e.to_string())
            .unwrap()
    }

    #[test]
    fn put_get_across_shards() {
        let (mut c, t0) = cluster(4);
        let mut t = t0;
        for i in 0..64u32 {
            let key = format!("user{i:04}");
            let (_, done) = c.put(t, key.as_bytes(), &i.to_le_bytes()).unwrap();
            t = done;
        }
        let resident: usize = (0..4).map(|s| c.shard_len(s).unwrap()).sum();
        assert_eq!(resident, 64);
        assert!((0..4).all(|s| c.shard_len(s).unwrap() > 0), "hash spread");
        for i in 0..64u32 {
            let key = format!("user{i:04}");
            let (v, _, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()));
        }
        let (rows, _) = c.scan(t, b"user", 100).unwrap();
        assert_eq!(rows.len(), 64);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan sorted");
    }

    #[test]
    fn explicit_rebalance_preserves_reads() {
        let (mut c, t0) = cluster(2);
        let mut t = t0;
        for i in 0..40u32 {
            let key = format!("k{i:03}");
            let (_, done) = c.put(t, key.as_bytes(), b"v").unwrap();
            t = done;
        }
        let queued = c.start_rebalance(0, 1, SLOTS / 2).unwrap();
        assert!(queued > 0);
        assert_eq!(c.rebalance_active(), Some((0, 1)));
        // Mid-rebalance reads hit the fallback path.
        for i in 0..40u32 {
            let key = format!("k{i:03}");
            let (v, _, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert!(v.is_some(), "key {key} lost mid-rebalance");
        }
        // Drain and verify placement matches the router again.
        while c.pending_migrations() > 0 {
            t = c.step_migration(t, 16).unwrap();
        }
        assert_eq!(c.rebalance_active(), None);
        for i in 0..40u32 {
            let key = format!("k{i:03}");
            let (v, served_by, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert!(v.is_some());
            assert_eq!(served_by, c.router().route(key.as_bytes()).unwrap());
        }
        assert!(c.stats().migrated_keys > 0);
    }

    #[test]
    fn degraded_shard_drains_without_losing_acked_writes() {
        let (mut c, t0) = cluster(3);
        let mut t = t0;
        for i in 0..60u32 {
            let key = format!("acct{i:04}");
            let (_, done) = c.put(t, key.as_bytes(), &i.to_le_bytes()).unwrap();
            t = done;
        }
        assert!(c.shard_len(0).unwrap() > 0, "hash should land keys on 0");
        c.fence_shard(0).unwrap();
        // Writes routed to the dying shard fail with the typed error…
        let victim = (0..60u32)
            .map(|i| format!("acct{i:04}"))
            .find(|k| c.router().route(k.as_bytes()).unwrap() == 0)
            .unwrap();
        assert_eq!(
            c.put(t, victim.as_bytes(), b"new").unwrap_err(),
            ShardError::Degraded { shard: 0 }
        );
        // …while every acknowledged key keeps being readable.
        for i in 0..60u32 {
            let key = format!("acct{i:04}");
            let (v, _, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()), "{key}");
        }
        // Maintenance drains the dying shard; reads stay correct mid-drain.
        let mut passes = 0;
        loop {
            t = c.maintain(t).unwrap();
            passes += 1;
            for i in 0..60u32 {
                let key = format!("acct{i:04}");
                let (v, _, done) = c.get(t, key.as_bytes()).unwrap();
                t = done;
                assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()), "{key}");
            }
            if c.pending_migrations() == 0 {
                break;
            }
            assert!(passes < 100, "drain did not converge");
        }
        assert_eq!(c.router().slots_owned(0), 0, "dying shard owns no slots");
        assert_eq!(c.shard_len(0).unwrap(), 0, "dying shard fully drained");
        // Every key now lives on a healthy owner and is writable again.
        for i in 0..60u32 {
            let key = format!("acct{i:04}");
            let (v, served_by, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()));
            assert_ne!(served_by, 0);
            let (owner, done) = c.put(t, key.as_bytes(), b"rewritten").unwrap();
            t = done;
            assert_ne!(owner, 0);
        }
    }

    #[test]
    fn draining_the_last_healthy_shard_is_refused() {
        let (mut c, t0) = cluster(2);
        let (_, t) = c.put(t0, b"solo", b"v").unwrap();
        c.fence_shard(0).unwrap();
        c.fence_shard(1).unwrap();
        assert_eq!(c.drain_shard(0).unwrap_err(), ShardError::LastShard);
        // Reads still work on a fully degraded cluster.
        let (v, _, _) = c.get(t, b"solo").unwrap();
        assert_eq!(v.as_deref(), Some(b"v".as_ref()));
    }

    #[test]
    fn crash_mid_rebalance_recovers() {
        let (mut c, t0) = cluster(3);
        let mut t = t0;
        for i in 0..30u32 {
            let key = format!("k{i:03}");
            let (_, done) = c.put(t, key.as_bytes(), &i.to_le_bytes()).unwrap();
            t = done;
        }
        c.start_rebalance(0, 2, SLOTS / 3).unwrap();
        t = c.step_migration(t, 4).unwrap(); // partial drain, then power cut
        let mut t = c.crash_and_recover(t).unwrap();
        for i in 0..30u32 {
            let key = format!("k{i:03}");
            let (v, _, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()), "{key}");
        }
        // Finish the interrupted migration; placement converges.
        while c.pending_migrations() > 0 {
            t = c.step_migration(t, 16).unwrap();
        }
        for i in 0..30u32 {
            let key = format!("k{i:03}");
            let (_, served_by, done) = c.get(t, key.as_bytes()).unwrap();
            t = done;
            assert_eq!(served_by, c.router().route(key.as_bytes()).unwrap());
        }
    }
}
