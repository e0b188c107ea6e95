//! One shard: an OX-Block FTL over one simulated device, fronted by the
//! shard's own iosched queues, serving a sorted key→value directory of
//! self-identifying one-page records.
//!
//! The record format is the recovery story: every page written by
//! [`ShardStore::put`] carries its own key, so after a crash the directory
//! is rebuilt by reading exactly the pages the recovered FTL still maps
//! ([`ox_block::BlockFtl::mapped_lpns`]) — no shard-level journal beyond
//! the FTL's WAL.

use crate::error::ShardError;
use iosched::{IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use ocssd::{Geometry, SharedDevice, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig, BlockFtlError};
use ox_core::media::OcssdMedia;
use ox_sim::SimTime;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Record header: magic (4) | key_len (2) | val_len (2).
const RECORD_MAGIC: u32 = 0x0C5A_D001;
const RECORD_HEADER: usize = 8;

/// Longest routable key. Generous for a block-backed KV; bounded so the
/// header's u16 lengths and one-page records always hold.
pub const MAX_KEY_BYTES: usize = 512;

/// Longest value that fits one record page next to a maximal key.
pub const MAX_VALUE_BYTES: usize = SECTOR_BYTES - RECORD_HEADER - MAX_KEY_BYTES;

/// Encodes `key`/`value` into one self-identifying record page.
pub fn encode_record(key: &[u8], value: &[u8]) -> Result<Vec<u8>, ShardError> {
    if key.is_empty() {
        return Err(ShardError::EmptyKey);
    }
    if key.len() > MAX_KEY_BYTES {
        return Err(ShardError::KeyTooLarge(key.len()));
    }
    if RECORD_HEADER + key.len() + value.len() > SECTOR_BYTES {
        return Err(ShardError::ValueTooLarge(key.len() + value.len()));
    }
    let mut page = vec![0u8; SECTOR_BYTES];
    page[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    page[4..6].copy_from_slice(&(key.len() as u16).to_le_bytes());
    page[6..8].copy_from_slice(&(value.len() as u16).to_le_bytes());
    page[RECORD_HEADER..RECORD_HEADER + key.len()].copy_from_slice(key);
    page[RECORD_HEADER + key.len()..RECORD_HEADER + key.len() + value.len()].copy_from_slice(value);
    Ok(page)
}

/// Decodes a record page back into `(key, value)`; `None` when the page is
/// not a record (wrong magic or inconsistent lengths).
pub fn decode_record(page: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    if page.len() != SECTOR_BYTES {
        return None;
    }
    if u32::from_le_bytes(page[..4].try_into().ok()?) != RECORD_MAGIC {
        return None;
    }
    let klen = u16::from_le_bytes(page[4..6].try_into().ok()?) as usize;
    let vlen = u16::from_le_bytes(page[6..8].try_into().ok()?) as usize;
    if klen == 0 || RECORD_HEADER + klen + vlen > SECTOR_BYTES {
        return None;
    }
    Some((
        page[RECORD_HEADER..RECORD_HEADER + klen].to_vec(),
        page[RECORD_HEADER + klen..RECORD_HEADER + klen + vlen].to_vec(),
    ))
}

/// One shard of the serving layer.
pub struct ShardStore {
    id: u32,
    dev: SharedDevice,
    sched: SharedScheduler,
    /// The scheduler's user tenant, naming its GC tenant as the route for
    /// background relocation: what the FTL is formatted and recovered on.
    media: Arc<dyn ox_core::Media>,
    ftl: BlockFtl,
    ftl_cfg: BlockFtlConfig,
    /// Sorted directory: key → logical page holding its record.
    index: BTreeMap<Vec<u8>, u64>,
    /// Reusable logical pages, ascending; popped from the back.
    free: Vec<u64>,
}

impl ShardStore {
    /// Formats a shard over `dev`: its own deadline iosched (user + GC
    /// tenants, dispatch metrics scoped `shard<id>`), an OX-Block FTL whose
    /// user and GC I/O both flow through the scheduler, and an empty
    /// directory. The whole stack reports into the device's sinks.
    pub fn format(
        id: u32,
        dev: SharedDevice,
        ftl_cfg: BlockFtlConfig,
        now: SimTime,
    ) -> Result<(ShardStore, SimTime), ShardError> {
        let scope = format!("shard{id}");
        let base: Arc<dyn ox_core::Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let mut sched = IoScheduler::new(base, SchedConfig::default().scoped(&scope));
        let user = sched.add_tenant(TenantConfig::new("user").depth(4096));
        let gc = sched.add_tenant(TenantConfig::new("gc").depth(4096).gc_class());
        let sched = SharedScheduler::new(sched);
        let media: Arc<dyn ox_core::Media> = Arc::new(SchedMedia::with_gc(sched.clone(), user, gc));
        let (ftl, done) = BlockFtl::format(media.clone(), ftl_cfg, now)
            .map_err(|error| ShardError::Ftl { shard: id, error })?;
        let logical = ftl.logical_pages();
        Ok((
            ShardStore {
                id,
                dev,
                sched,
                media,
                ftl,
                ftl_cfg,
                index: BTreeMap::new(),
                free: (0..logical).rev().collect(),
            },
            done,
        ))
    }

    /// Shard id (also the router id this store serves).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's device handle (fault-plan arming, crash, stats).
    pub fn device(&self) -> &SharedDevice {
        &self.dev
    }

    /// The shard's scheduler handle (stats, queue introspection).
    pub fn scheduler(&self) -> &SharedScheduler {
        &self.sched
    }

    /// Device geometry.
    pub fn geometry(&self) -> Geometry {
        self.dev.geometry()
    }

    /// Keys currently served by this shard, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.index.keys()
    }

    /// Keys at or after `from`, ascending, up to `limit`.
    pub fn keys_from(&self, from: &[u8], limit: usize) -> Vec<Vec<u8>> {
        self.index
            .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
            .take(limit)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Whether this shard's directory holds `key`.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Number of keys resident on this shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn ftl_err(&self, error: BlockFtlError) -> ShardError {
        match error {
            BlockFtlError::OutOfSpace => ShardError::OutOfSpace { shard: self.id },
            BlockFtlError::ReadOnly => ShardError::Degraded { shard: self.id },
            error => ShardError::Ftl {
                shard: self.id,
                error,
            },
        }
    }

    /// Whether the shard's FTL has degraded to read-only (spare exhaustion
    /// or an administrative fence). Degraded shards still serve reads.
    pub fn is_degraded(&self) -> bool {
        self.ftl.is_degraded()
    }

    /// Administratively fences the shard to read-only — see
    /// [`ox_block::BlockFtl::degrade_to_read_only`].
    pub fn degrade_to_read_only(&mut self) {
        self.ftl.degrade_to_read_only();
    }

    /// Chunks the shard's scrubber has queued for refresh relocation.
    pub fn refresh_backlog(&self) -> usize {
        self.ftl.refresh_backlog()
    }

    /// Upserts `key` → `value`. Transactional under crashes (the record page
    /// and its mapping commit atomically through the FTL's WAL).
    pub fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> Result<SimTime, ShardError> {
        let page = encode_record(key, value)?;
        let (lpn, fresh) = match self.index.get(key) {
            Some(&lpn) => (lpn, false),
            None => match self.free.pop() {
                Some(lpn) => (lpn, true),
                None => return Err(ShardError::OutOfSpace { shard: self.id }),
            },
        };
        match self.ftl.write(now, lpn, &page) {
            Ok(out) => {
                if fresh {
                    self.index.insert(key.to_vec(), lpn);
                }
                Ok(out.done)
            }
            Err(e) => {
                if fresh {
                    self.free.push(lpn);
                }
                Err(self.ftl_err(e))
            }
        }
    }

    /// Reads `key` back; `None` when the shard does not hold it.
    pub fn get(
        &mut self,
        now: SimTime,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, SimTime), ShardError> {
        let Some(&lpn) = self.index.get(key) else {
            return Ok((None, now));
        };
        let mut page = vec![0u8; SECTOR_BYTES];
        let comp = self
            .ftl
            .read(now, lpn, &mut page)
            .map_err(|e| self.ftl_err(e))?;
        let Some((k, v)) = decode_record(&page) else {
            return Err(ShardError::CorruptRecord {
                shard: self.id,
                lpn,
            });
        };
        if k != key {
            return Err(ShardError::CorruptRecord {
                shard: self.id,
                lpn,
            });
        }
        Ok((Some(v), comp.done))
    }

    /// Removes `key`; a no-op (at `now`) when absent.
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<SimTime, ShardError> {
        let Some(lpn) = self.index.remove(key) else {
            return Ok(now);
        };
        let done = self.ftl.trim(now, lpn, 1).map_err(|e| self.ftl_err(e))?;
        self.free.push(lpn);
        Ok(done)
    }

    /// Drops `key` from the directory without touching media. Used when
    /// retiring the stale copy off a *degraded* (read-only) shard, where a
    /// trim would be refused: the record stays physically resident on the
    /// dying device but becomes unreachable, which is all migration needs.
    pub fn forget(&mut self, key: &[u8]) {
        self.index.remove(key);
    }

    /// Background pass: ingest media events (salvaging orphaned records),
    /// checkpoint on schedule, collect garbage under watermark pressure,
    /// then one scrub step (when scrubbing is configured on). A shard that
    /// degrades to read-only mid-pass is not an error here — maintenance
    /// keeps running on it (patrol telemetry, event ingestion) so the
    /// cluster can observe its health and drain it.
    pub fn maintain(&mut self, now: SimTime) -> Result<SimTime, ShardError> {
        let (mut t, _salvaged, _lost) = self
            .ftl
            .repair_media_events(now)
            .map_err(|e| self.ftl_err(e))?;
        if let Some(done) = self.ftl.maybe_checkpoint(t).map_err(|e| self.ftl_err(e))? {
            t = done;
        }
        match self.ftl.maybe_gc(t) {
            Ok(Some(pass)) => t = t.max(pass.done),
            Ok(None) | Err(BlockFtlError::ReadOnly) => {}
            Err(e) => return Err(self.ftl_err(e)),
        }
        match self.ftl.maybe_scrub(t) {
            Ok(Some(report)) => t = t.max(report.done),
            Ok(None) | Err(BlockFtlError::ReadOnly) => {}
            Err(e) => return Err(self.ftl_err(e)),
        }
        Ok(t)
    }

    /// Power-fails the shard's device: the write-back cache and all
    /// unflushed data are gone.
    pub fn crash(&mut self, now: SimTime) {
        self.dev.crash(now);
    }

    /// Recovers the shard after a crash: OX-Block recovery (checkpoint +
    /// WAL replay) rebuilds the mapping, then the directory is rebuilt by
    /// reading every still-mapped page and decoding its self-identifying
    /// record. The scheduler is reused — all traffic is synchronous, so its
    /// queues are empty across the crash.
    pub fn recover(&mut self, now: SimTime) -> Result<SimTime, ShardError> {
        let (mut ftl, outcome) =
            BlockFtl::recover(self.media.clone(), self.ftl_cfg, now).map_err(|error| {
                ShardError::Ftl {
                    shard: self.id,
                    error,
                }
            })?;
        let mut t = outcome.done;
        let mut index = BTreeMap::new();
        let mut page = vec![0u8; SECTOR_BYTES];
        for lpn in ftl.mapped_lpns() {
            let comp = ftl.read(t, lpn, &mut page).map_err(|e| {
                if e == BlockFtlError::OutOfSpace {
                    ShardError::OutOfSpace { shard: self.id }
                } else {
                    ShardError::Ftl {
                        shard: self.id,
                        error: e,
                    }
                }
            })?;
            t = comp.done;
            let Some((k, _)) = decode_record(&page) else {
                return Err(ShardError::CorruptRecord {
                    shard: self.id,
                    lpn,
                });
            };
            index.insert(k, lpn);
        }
        let logical = ftl.logical_pages();
        let used: std::collections::BTreeSet<u64> = index.values().copied().collect();
        self.free = (0..logical).rev().filter(|l| !used.contains(l)).collect();
        self.index = index;
        self.ftl = ftl;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice};

    fn store() -> (ShardStore, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            Geometry::small_slc(),
        )));
        ShardStore::format(
            0,
            dev,
            BlockFtlConfig::with_capacity(8 << 20),
            SimTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn record_round_trip() {
        let page = encode_record(b"k1", b"v1").unwrap();
        assert_eq!(decode_record(&page), Some((b"k1".to_vec(), b"v1".to_vec())));
        assert!(decode_record(&vec![0u8; SECTOR_BYTES]).is_none());
        assert!(encode_record(b"", b"v").is_err());
        assert!(encode_record(&vec![b'k'; MAX_KEY_BYTES + 1], b"").is_err());
        assert!(encode_record(b"k", &vec![0u8; SECTOR_BYTES]).is_err());
    }

    #[test]
    fn put_get_delete_cycle() {
        let (mut s, t0) = store();
        let t = s.put(t0, b"alpha", b"one").unwrap();
        let t = s.put(t, b"beta", b"two").unwrap();
        let (v, t) = s.get(t, b"alpha").unwrap();
        assert_eq!(v.as_deref(), Some(b"one".as_ref()));
        let t = s.put(t, b"alpha", b"uno").unwrap();
        let (v, t) = s.get(t, b"alpha").unwrap();
        assert_eq!(v.as_deref(), Some(b"uno".as_ref()));
        assert_eq!(s.len(), 2);
        let t = s.delete(t, b"alpha").unwrap();
        let (v, _) = s.get(t, b"alpha").unwrap();
        assert!(v.is_none());
        assert_eq!(s.keys_from(b"", 10), vec![b"beta".to_vec()]);
    }

    #[test]
    fn crash_recovery_rebuilds_directory() {
        let (mut s, t0) = store();
        let mut t = t0;
        for i in 0..32u32 {
            t = s
                .put(t, format!("key{i:03}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        t = s.delete(t, b"key007").unwrap();
        s.crash(t);
        let mut t = s.recover(t).unwrap();
        assert_eq!(s.len(), 31);
        for i in 0..32u32 {
            let (v, done) = s.get(t, format!("key{i:03}").as_bytes()).unwrap();
            t = done;
            if i == 7 {
                assert!(v.is_none());
            } else {
                assert_eq!(v.as_deref(), Some(i.to_le_bytes().as_ref()));
            }
        }
    }
}
