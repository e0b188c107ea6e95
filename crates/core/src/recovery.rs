//! Crash recovery: snapshot load + log replay + write-pointer rebuild.
//!
//! After a failure, all volatile state is gone (paper §4.3): the mapping
//! table, the WAL's in-memory tail and the device cache. Recovery
//! reconstructs a consistent FTL:
//!
//! 1. read the newest valid checkpoint (or start from an empty mapping);
//! 2. scan the WAL chunks and decode every intact frame;
//! 3. replay, in LSN order, the redo records of *committed* transactions
//!    with LSNs beyond the checkpoint; discard uncommitted tails;
//! 4. rebuild provisioning state from the device's *report chunk* scan.
//!
//! The virtual time consumed — dominated by reading the log tail — is the
//! quantity plotted in Figure 3.

use crate::checkpoint::CheckpointStore;
use crate::layout::Layout;
use crate::mapping::PageMap;
use crate::media::Media;
use crate::provision::Provisioner;
use crate::wal::{self, WalRecord};
use ocssd::{Geometry, Ppa};
use ox_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of a recovery run.
pub struct RecoveryOutcome {
    /// The reconstructed mapping table.
    pub map: PageMap,
    /// The reconstructed provisioner (pools + resumed write points).
    pub provisioner: Provisioner,
    /// Sequence of the checkpoint used (0 = none found).
    pub checkpoint_seq: u64,
    /// LSN covered by the checkpoint (0 = none).
    pub checkpoint_lsn: u64,
    /// Log frames scanned.
    pub frames_scanned: u64,
    /// Redo records replayed into the map.
    pub records_replayed: u64,
    /// Transactions whose commit record was found and applied.
    pub txns_committed: u64,
    /// Transactions discarded as uncommitted (torn tail).
    pub txns_discarded: u64,
    /// Log bytes read during the scan.
    pub log_bytes_read: u64,
    /// Virtual time the whole recovery took.
    pub duration: SimDuration,
    /// Completion instant.
    pub done: SimTime,
}

/// Runs recovery over a device using the FTL's layout. `logical_pages` sizes
/// the mapping when no checkpoint exists. Each phase (checkpoint load, WAL
/// scan, replay, provisioner rebuild) is reported into the media's sinks as
/// a `recovery.*` span, and the outcome lands in `recovery.*`
/// counters/histograms.
pub fn recover(
    media: &Arc<dyn Media>,
    layout: &Layout,
    geo: Geometry,
    logical_pages: u64,
    now: SimTime,
) -> RecoveryOutcome {
    let obs = media.obs();
    // 1. Checkpoint.
    let store = CheckpointStore::new(
        media.clone(),
        layout.checkpoint_a.clone(),
        layout.checkpoint_b.clone(),
    );
    let (ckpt, mut t) = store.read_latest(now);
    obs.tracer.span(
        now,
        t,
        "recovery",
        "checkpoint_load",
        ckpt.as_ref().map_or(0, |c| c.payload.len() as u64),
    );
    let (mut map, checkpoint_seq, checkpoint_lsn) = match &ckpt {
        Some(c) => match PageMap::from_snapshot(geo, &c.payload) {
            Some(m) => (m, c.seq, c.durable_lsn),
            None => (PageMap::new(geo, logical_pages), 0, 0),
        },
        None => (PageMap::new(geo, logical_pages), 0, 0),
    };

    // 2. Log scan.
    let (frames, scan_done, stats) = wal::scan(media, &layout.wal_chunks, t);
    obs.tracer
        .span(t, scan_done, "recovery", "wal_scan", stats.bytes_read);
    t = scan_done;
    let replay_started = t;

    // 3. Replay committed transactions in LSN order.
    let mut open_txns: HashMap<u64, Vec<WalRecord>> = HashMap::new();
    let mut records_replayed = 0u64;
    let mut txns_committed = 0u64;
    for frame in &frames {
        for (i, rec) in frame.records.iter().enumerate() {
            let lsn = frame.first_lsn + i as u64;
            if lsn <= checkpoint_lsn {
                continue;
            }
            match rec {
                &WalRecord::TxBegin { txid } => {
                    open_txns.insert(txid, Vec::new());
                }
                &WalRecord::MapUpdate { txid, .. } | &WalRecord::Trim { txid, .. } => {
                    open_txns.entry(txid).or_default().push(rec.clone());
                }
                // App-specific records are ignored by the generic recovery;
                // FTLs that use them run their own directory replay.
                WalRecord::Blob { .. } => {}
                &WalRecord::TxCommit { txid } => {
                    if let Some(ops) = open_txns.remove(&txid) {
                        for op in ops {
                            match op {
                                WalRecord::MapUpdate {
                                    lpn, ppa_linear, ..
                                } if lpn < map.logical_pages()
                                    && ppa_linear < geo.total_sectors() =>
                                {
                                    map.map(lpn, Ppa::from_linear(&geo, ppa_linear));
                                    records_replayed += 1;
                                }
                                WalRecord::Trim { lpn, .. } if lpn < map.logical_pages() => {
                                    map.unmap(lpn);
                                    records_replayed += 1;
                                }
                                _ => {}
                            }
                        }
                        txns_committed += 1;
                    }
                }
            }
        }
    }
    let txns_discarded = open_txns.len() as u64;
    obs.tracer.span(replay_started, t, "recovery", "replay", 0);

    // 4. Rebuild provisioning from *report chunk*.
    let rebuild_started = t;
    let report = media.report_all();
    let reserved = layout.reserved_linear(&geo);
    let provisioner = Provisioner::from_report(geo, &reserved, &report);
    // Charge one admin command round-trip for the report scan.
    t += SimDuration::from_micros(500);
    obs.tracer
        .span(rebuild_started, t, "recovery", "rebuild", 0);

    obs.metrics.record("recovery.run", stats.bytes_read);
    obs.metrics.add("recovery.frames_scanned", stats.frames, 0);
    obs.metrics
        .add("recovery.records_replayed", records_replayed, 0);
    obs.metrics
        .add("recovery.txns_committed", txns_committed, 0);
    obs.metrics
        .add("recovery.txns_discarded", txns_discarded, 0);
    obs.metrics
        .observe("recovery.duration_ns", t.saturating_since(now).as_nanos());

    RecoveryOutcome {
        map,
        provisioner,
        checkpoint_seq,
        checkpoint_lsn,
        frames_scanned: stats.frames,
        records_replayed,
        txns_committed,
        txns_discarded,
        log_bytes_read: stats.bytes_read,
        duration: t.saturating_since(now),
        done: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutConfig;
    use crate::media::OcssdMedia;
    use crate::wal::Wal;
    use ocssd::{ChunkAddr, DeviceConfig, OcssdDevice, SharedDevice};

    struct Rig {
        media: Arc<dyn Media>,
        dev: SharedDevice,
        layout: Layout,
        geo: Geometry,
    }

    fn rig() -> Rig {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let layout = Layout::plan(&geo, LayoutConfig::default());
        Rig {
            media,
            dev,
            layout,
            geo,
        }
    }

    fn commit_txn(wal: &mut Wal, txid: u64, pairs: &[(u64, u64)], t: SimTime) -> SimTime {
        wal.append(WalRecord::TxBegin { txid });
        for &(lpn, ppa) in pairs {
            wal.append(WalRecord::MapUpdate {
                txid,
                lpn,
                ppa_linear: ppa,
            });
        }
        wal.append(WalRecord::TxCommit { txid });
        wal.commit(t).unwrap()
    }

    #[test]
    fn recovery_on_fresh_device_is_empty_and_fast() {
        let r = rig();
        let out = recover(&r.media, &r.layout, r.geo, 1024, SimTime::ZERO);
        assert_eq!(out.checkpoint_seq, 0);
        assert_eq!(out.frames_scanned, 0);
        assert_eq!(out.map.mapped_count(), 0);
        assert!(out.duration < SimDuration::from_millis(10));
    }

    #[test]
    fn committed_transactions_survive_crash() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        t = commit_txn(&mut wal, 1, &[(5, 100), (6, 200)], t);
        t = commit_txn(&mut wal, 2, &[(5, 300)], t);
        r.dev.crash(t);
        let out = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 2);
        assert_eq!(out.txns_discarded, 0);
        assert_eq!(
            out.map.lookup(5),
            Some(Ppa::from_linear(&r.geo, 300)),
            "later txn wins"
        );
        assert_eq!(out.map.lookup(6), Some(Ppa::from_linear(&r.geo, 200)));
        assert_eq!(out.map.mapped_count(), 2);
    }

    #[test]
    fn recovery_retries_transient_read_faults_during_scan() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        t = commit_txn(&mut wal, 1, &[(5, 100), (6, 200)], t);
        t = commit_txn(&mut wal, 2, &[(5, 300)], t);
        r.dev.crash(t);
        // ECC exhaustion that clears on a second attempt, right on the first
        // WAL frame: the scan must retry, not silently truncate replay.
        let mut plan = ocssd::FaultPlan::default();
        plan.read_fails.push(ocssd::ReadFault {
            ppa: r.layout.wal_chunks[0].ppa(0),
            attempts: 2,
        });
        r.dev.set_fault_plan(plan);
        let out = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 2);
        assert_eq!(out.map.lookup(5), Some(Ppa::from_linear(&r.geo, 300)));
        assert_eq!(out.map.lookup(6), Some(Ppa::from_linear(&r.geo, 200)));
        assert_eq!(r.dev.fault_ledger().read_fails, 2, "both attempts fired");
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        t = commit_txn(&mut wal, 1, &[(1, 10)], t);
        // Buffered but never committed to media.
        wal.append(WalRecord::TxBegin { txid: 2 });
        wal.append(WalRecord::MapUpdate {
            txid: 2,
            lpn: 2,
            ppa_linear: 20,
        });
        r.dev.crash(t);
        let out = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 1);
        assert_eq!(out.map.lookup(1), Some(Ppa::from_linear(&r.geo, 10)));
        assert_eq!(out.map.lookup(2), None);
    }

    #[test]
    fn begin_without_commit_in_log_is_discarded() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        // Frame contains a begin + update but no commit (multi-frame txn cut
        // short by the crash).
        wal.append(WalRecord::TxBegin { txid: 9 });
        wal.append(WalRecord::MapUpdate {
            txid: 9,
            lpn: 3,
            ppa_linear: 30,
        });
        t = wal.commit(t).unwrap();
        r.dev.crash(t);
        let out = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_discarded, 1);
        assert_eq!(out.map.lookup(3), None);
    }

    #[test]
    fn checkpoint_bounds_replay_work() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        // 20 transactions, checkpoint after 10, then 10 more.
        let mut map = PageMap::new(r.geo, 1024);
        for i in 0..10u64 {
            t = commit_txn(&mut wal, i, &[(i, i * 7 + 1)], t);
            map.map(i, Ppa::from_linear(&r.geo, i * 7 + 1));
        }
        let mut store = CheckpointStore::new(
            r.media.clone(),
            r.layout.checkpoint_a.clone(),
            r.layout.checkpoint_b.clone(),
        );
        let (t_ck, _) = store.write(t, wal.durable_lsn(), &map.snapshot()).unwrap();
        t = wal.truncate(t_ck, wal.durable_lsn()).unwrap();
        for i in 10..20u64 {
            t = commit_txn(&mut wal, i, &[(i, i * 7 + 1)], t);
        }
        r.dev.crash(t);
        let out = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.checkpoint_seq, 1);
        assert_eq!(out.txns_committed, 10, "only post-checkpoint txns replay");
        for i in 0..20u64 {
            assert_eq!(
                out.map.lookup(i),
                Some(Ppa::from_linear(&r.geo, i * 7 + 1)),
                "lpn {i}"
            );
        }
    }

    #[test]
    fn recovery_time_grows_with_untruncated_log() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        t = commit_txn(&mut wal, 0, &[(0, 1)], t);
        let small = recover(&r.media, &r.layout, r.geo, 1024, t).duration;
        for i in 1..200u64 {
            t = commit_txn(&mut wal, i, &[(i % 1024, i)], t);
        }
        let big = recover(&r.media, &r.layout, r.geo, 1024, t).duration;
        assert!(
            big > small * 20,
            "200 frames should cost much more than 1: {small} vs {big}"
        );
    }

    #[test]
    fn provisioner_resumes_device_state() {
        let r = rig();
        // Write some data to a chunk outside the reserved regions.
        let reserved = r.layout.reserved_linear(&r.geo);
        let data_chunk = (0..r.geo.total_chunks())
            .find(|i| !reserved.contains(i))
            .map(|i| ChunkAddr::from_linear(&r.geo, i))
            .unwrap();
        let w = r
            .media
            .write(
                SimTime::ZERO,
                data_chunk.ppa(0),
                &vec![1u8; r.geo.ws_min_bytes()],
            )
            .unwrap();
        let f = r.media.flush(w.done);
        r.dev.crash(f.done);
        let mut out = recover(&r.media, &r.layout, r.geo, 1024, f.done);
        // The open data chunk resumes at its write pointer.
        let slot = out.provisioner.allocate_on_pu(data_chunk.pu_linear(&r.geo));
        let slot = slot.unwrap();
        assert_eq!(slot.chunk, data_chunk);
        assert_eq!(slot.sector, r.geo.ws_min);
    }

    use crate::checkpoint::CheckpointStore;
}
