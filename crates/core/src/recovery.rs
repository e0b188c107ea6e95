//! The journal every journaled FTL shares, and the crash recovery built on
//! it: snapshot load + log replay + log restart.
//!
//! After a failure, all volatile state is gone (paper §4.3): the mapping
//! table, the WAL's in-memory tail and the device cache. Three decisions
//! bring an FTL back, and this module owns all three:
//!
//! 1. **Which transactions count** ([`Journal::replay`]): read the newest
//!    valid checkpoint, scan the WAL chunks, skip records the checkpoint
//!    covers, group the rest by transaction id and hand back the committed
//!    ones in commit order; uncommitted tails are discarded. The FTL
//!    supplies two things only — how to decode its snapshot and how to
//!    apply one committed transaction ([`recover`] is the page-mapped FTL's
//!    answer; [`apply_map_record`] is the part others reuse).
//! 2. **How the old log is retired** ([`Replay::restart`]): persist the
//!    recovered state as a checkpoint stamped with the old log's last LSN,
//!    *then* re-format the WAL, which continues numbering above that LSN.
//!    A crash before the checkpoint finds the old checkpoint and log
//!    intact; one during the erase finds every surviving old frame
//!    covered; one after finds new frames numbered above the stamp.
//! 3. **When a running log is truncated** ([`Journal::ensure_log_space`]):
//!    when the ring is within two chunks of full, checkpoint and truncate.
//!
//! The virtual time consumed — dominated by reading the log tail — is the
//! quantity plotted in Figure 3.

use crate::checkpoint::CheckpointStore;
use crate::layout::Layout;
use crate::logspace::LogSpace;
use crate::mapping::PageMap;
use crate::media::Media;
use crate::provision::Provisioner;
use crate::wal::{self, Wal, WalError, WalRecord};
use ocssd::{ChunkAddr, Geometry, Ppa};
use ox_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An FTL's write-ahead log together with the checkpoint areas its layout
/// reserves. Checkpoints can only be written through here, so the LSN a
/// checkpoint is stamped with and the truncation that follows it always
/// agree with the log.
pub struct Journal {
    /// The log. Transactions are appended and committed on it directly.
    pub wal: Wal,
    ckpt: CheckpointStore,
}

fn checkpoint_store(media: &Arc<dyn Media>, layout: &Layout) -> CheckpointStore {
    CheckpointStore::new(
        media.clone(),
        layout.checkpoint_a.clone(),
        layout.checkpoint_b.clone(),
    )
}

impl Journal {
    /// Formats the journal of a fresh FTL: an empty log, no checkpoint.
    /// Returns the journal and the completion time.
    pub fn format(
        media: &Arc<dyn Media>,
        layout: &Layout,
        now: SimTime,
    ) -> Result<(Journal, SimTime), WalError> {
        let (wal, done) = Wal::format(media.clone(), layout.wal_chunks.clone(), now)?;
        let ckpt = checkpoint_store(media, layout);
        Ok((Journal { wal, ckpt }, done))
    }

    /// Reads back what a crash left of a journal: the newest checkpoint and
    /// the transactions committed after it. Reported into the media's sinks
    /// as `recovery.*` spans (checkpoint load, WAL scan, replay) and
    /// counters.
    pub fn replay(media: &Arc<dyn Media>, layout: &Layout, now: SimTime) -> Replay {
        let obs = media.obs();
        let mut ckpt = checkpoint_store(media, layout);
        let (loaded, loaded_at) = ckpt.read_latest(now);
        let (checkpoint_seq, checkpoint_lsn, snapshot) = match loaded {
            Some(c) => (c.seq, c.durable_lsn, Some(c.payload)),
            None => (0, 0, None),
        };
        obs.tracer.span(
            now,
            loaded_at,
            "recovery",
            "checkpoint_load",
            snapshot.as_ref().map_or(0, |s| s.len() as u64),
        );

        let (frames, done, stats) = wal::scan(media, &layout.wal_chunks, loaded_at);
        obs.tracer
            .span(loaded_at, done, "recovery", "wal_scan", stats.bytes_read);

        // A transaction is whatever shares a txid between the checkpoint and
        // its `TxCommit`. Its `TxBegin` may be missing — covered by the
        // checkpoint, or on a chunk truncation already recycled — and the
        // records that are there still count.
        let mut open: BTreeMap<u64, Vec<WalRecord>> = BTreeMap::new();
        let mut txns = Vec::new();
        let mut last_lsn = checkpoint_lsn;
        for frame in frames {
            for (lsn, rec) in (frame.first_lsn..).zip(frame.records) {
                last_lsn = last_lsn.max(lsn);
                if lsn <= checkpoint_lsn {
                    continue;
                }
                match rec {
                    WalRecord::TxBegin { txid } => {
                        open.insert(txid, Vec::new());
                    }
                    WalRecord::TxCommit { txid } => txns.extend(open.remove(&txid)),
                    WalRecord::MapUpdate { txid, .. }
                    | WalRecord::Trim { txid, .. }
                    | WalRecord::Blob { txid, .. } => open.entry(txid).or_default().push(rec),
                }
            }
        }
        obs.tracer.span(done, done, "recovery", "replay", 0);
        obs.metrics.record("recovery.run", stats.bytes_read);
        obs.metrics.add("recovery.frames_scanned", stats.frames, 0);
        obs.metrics
            .add("recovery.txns_committed", txns.len() as u64, 0);
        obs.metrics
            .add("recovery.txns_discarded", open.len() as u64, 0);

        Replay {
            snapshot,
            txns,
            checkpoint_seq,
            checkpoint_lsn,
            frames_scanned: stats.frames,
            txns_discarded: open.len() as u64,
            log_bytes_read: stats.bytes_read,
            done,
            last_lsn,
            media: media.clone(),
            wal_chunks: layout.wal_chunks.clone(),
            ckpt,
        }
    }

    /// Persists `snapshot` as covering everything durable in the log, then
    /// truncates the log up to there. Returns the completion time.
    pub fn checkpoint(&mut self, now: SimTime, snapshot: &[u8]) -> Result<SimTime, WalError> {
        let covered = self.wal.durable_lsn();
        let (done, _seq) = self.ckpt.write(now, covered, snapshot)?;
        self.wal.truncate(done, covered)
    }

    /// Whether the ring is within two chunks of full: the next commits
    /// could hit [`WalError::LogFull`] unless a checkpoint truncates it.
    pub fn log_nearly_full(&self) -> bool {
        self.wal.live_chunks() + 2 >= self.wal.capacity_chunks()
    }

    /// Checkpoints under log pressure: when the ring is nearly full, takes
    /// `snapshot` and [`Journal::checkpoint`]s it, so commits never hit
    /// `LogFull`. Returns the completion time if a checkpoint was taken.
    pub fn ensure_log_space(
        &mut self,
        now: SimTime,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<Option<SimTime>, WalError> {
        if !self.log_nearly_full() {
            return Ok(None);
        }
        self.checkpoint(now, &snapshot()).map(Some)
    }
}

/// What [`Journal::replay`] found on the device.
pub struct Replay {
    /// Payload of the newest valid checkpoint, if there is one.
    pub snapshot: Option<Vec<u8>>,
    /// The redo records of every transaction committed after the checkpoint
    /// — `MapUpdate`, `Trim` and `Blob` alike, in log order — one entry per
    /// transaction, in commit order.
    pub txns: Vec<Vec<WalRecord>>,
    /// Sequence of the checkpoint used (0 = none found).
    pub checkpoint_seq: u64,
    /// LSN covered by the checkpoint (0 = none).
    pub checkpoint_lsn: u64,
    /// Log frames scanned.
    pub frames_scanned: u64,
    /// Transactions discarded as uncommitted (torn tail).
    pub txns_discarded: u64,
    /// Log bytes read during the scan.
    pub log_bytes_read: u64,
    /// When checkpoint load and log scan completed; [`Replay::restart`]
    /// starts here.
    pub done: SimTime,
    /// Highest LSN the old log (or its checkpoint) reached.
    last_lsn: u64,
    media: Arc<dyn Media>,
    wal_chunks: Vec<ChunkAddr>,
    ckpt: CheckpointStore,
}

impl Replay {
    /// Retires the replayed log: writes `snapshot` — the state the FTL
    /// rebuilt from this replay — as a checkpoint covering the whole old
    /// log, then re-formats the WAL to continue numbering above it. Returns
    /// the journal to run on and the completion time.
    pub fn restart(mut self, snapshot: &[u8]) -> Result<(Journal, SimTime), WalError> {
        let (done, _seq) = self.ckpt.write(self.done, self.last_lsn, snapshot)?;
        let (mut wal, done) = Wal::format(self.media, self.wal_chunks, done)?;
        wal.number_after(self.last_lsn);
        let ckpt = self.ckpt;
        Ok((Journal { wal, ckpt }, done))
    }
}

/// Applies one redo record to a page map. Returns whether it was a map
/// record addressing this map and geometry (anything else is left alone).
pub fn apply_map_record(map: &mut PageMap, geo: &Geometry, rec: &WalRecord) -> bool {
    match *rec {
        WalRecord::MapUpdate {
            lpn, ppa_linear, ..
        } if lpn < map.logical_pages() && ppa_linear < geo.total_sectors() => {
            map.map(lpn, Ppa::from_linear(geo, ppa_linear));
            true
        }
        WalRecord::Trim { lpn, .. } if lpn < map.logical_pages() => {
            map.unmap(lpn);
            true
        }
        _ => false,
    }
}

/// Statistics of a recovery run.
pub struct RecoveryOutcome {
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

/// Recovers a page-mapped FTL: replays the journal into a [`PageMap`]
/// (`logical_pages` sizes it when no checkpoint exists) and rebuilds
/// provisioning from the device's *report chunk* scan. Returns the rebuilt
/// log space, the run's statistics and the replay to [`Replay::restart`]
/// the journal from.
pub fn recover(
    media: &Arc<dyn Media>,
    layout: &Layout,
    geo: Geometry,
    logical_pages: u64,
    now: SimTime,
) -> (LogSpace, RecoveryOutcome, Replay) {
    let obs = media.obs();
    let mut replay = Journal::replay(media, layout, now);
    let mut map = replay
        .snapshot
        .as_deref()
        .and_then(|s| PageMap::from_snapshot(geo, s))
        .unwrap_or_else(|| PageMap::new(geo, logical_pages));
    let records_replayed = replay
        .txns
        .iter()
        .flatten()
        .filter(|rec| apply_map_record(&mut map, &geo, rec))
        .count() as u64;

    let rebuild_started = replay.done;
    let reserved = layout.reserved_linear(&geo);
    let provisioner = Provisioner::from_report(geo, &reserved, &media.report_all());
    // Charge one admin command round-trip for the report scan.
    let done = rebuild_started + SimDuration::from_micros(500);
    obs.tracer
        .span(rebuild_started, done, "recovery", "rebuild", 0);
    obs.metrics
        .add("recovery.records_replayed", records_replayed, 0);
    obs.metrics.observe(
        "recovery.duration_ns",
        done.saturating_since(now).as_nanos(),
    );

    replay.done = done;
    let outcome = RecoveryOutcome {
        checkpoint_seq: replay.checkpoint_seq,
        checkpoint_lsn: replay.checkpoint_lsn,
        frames_scanned: replay.frames_scanned,
        records_replayed,
        txns_committed: replay.txns.len() as u64,
        txns_discarded: replay.txns_discarded,
        log_bytes_read: replay.log_bytes_read,
        duration: done.saturating_since(now),
        done,
    };
    (LogSpace::new(map, provisioner), outcome, replay)
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
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, SimTime::ZERO);
        assert_eq!(out.checkpoint_seq, 0);
        assert_eq!(out.frames_scanned, 0);
        assert_eq!(space.map.mapped_count(), 0);
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
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 2);
        assert_eq!(out.txns_discarded, 0);
        assert_eq!(
            space.map.lookup(5),
            Some(Ppa::from_linear(&r.geo, 300)),
            "later txn wins"
        );
        assert_eq!(space.map.lookup(6), Some(Ppa::from_linear(&r.geo, 200)));
        assert_eq!(space.map.mapped_count(), 2);
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
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 2);
        assert_eq!(space.map.lookup(5), Some(Ppa::from_linear(&r.geo, 300)));
        assert_eq!(space.map.lookup(6), Some(Ppa::from_linear(&r.geo, 200)));
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
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_committed, 1);
        assert_eq!(space.map.lookup(1), Some(Ppa::from_linear(&r.geo, 10)));
        assert_eq!(space.map.lookup(2), None);
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
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.txns_discarded, 1);
        assert_eq!(space.map.lookup(3), None);
    }

    #[test]
    fn checkpoint_bounds_replay_work() {
        let r = rig();
        let (mut journal, mut t) = Journal::format(&r.media, &r.layout, SimTime::ZERO).unwrap();
        // 20 transactions, checkpoint after 10, then 10 more.
        let mut map = PageMap::new(r.geo, 1024);
        for i in 0..10u64 {
            t = commit_txn(&mut journal.wal, i, &[(i, i * 7 + 1)], t);
            map.map(i, Ppa::from_linear(&r.geo, i * 7 + 1));
        }
        t = journal.checkpoint(t, &map.snapshot()).unwrap();
        for i in 10..20u64 {
            t = commit_txn(&mut journal.wal, i, &[(i, i * 7 + 1)], t);
        }
        r.dev.crash(t);
        let (space, out, _) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!(out.checkpoint_seq, 1);
        assert_eq!(out.txns_committed, 10, "only post-checkpoint txns replay");
        for i in 0..20u64 {
            assert_eq!(
                space.map.lookup(i),
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
        let small = recover(&r.media, &r.layout, r.geo, 1024, t).1.duration;
        for i in 1..200u64 {
            t = commit_txn(&mut wal, i, &[(i % 1024, i)], t);
        }
        let big = recover(&r.media, &r.layout, r.geo, 1024, t).1.duration;
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
        let (mut space, _, _) = recover(&r.media, &r.layout, r.geo, 1024, f.done);
        // The open data chunk resumes at its write pointer.
        let slot = space.prov.allocate_on_pu(data_chunk.pu_linear(&r.geo));
        let slot = slot.unwrap();
        assert_eq!(slot.chunk, data_chunk);
        assert_eq!(slot.sector, r.geo.ws_min);
    }

    #[test]
    fn a_transaction_without_its_begin_record_still_counts() {
        let r = rig();
        let (mut wal, mut t) =
            Wal::format(r.media.clone(), r.layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        // Transaction 7's `TxBegin` is gone (a checkpoint covered it, or its
        // chunk was recycled): what is left of it, up to its commit, applies.
        wal.append(WalRecord::MapUpdate {
            txid: 7,
            lpn: 3,
            ppa_linear: 30,
        });
        wal.append(WalRecord::Blob {
            txid: 7,
            tag: 9,
            data: vec![1, 2, 3],
        });
        wal.end(7);
        // Transaction 8 has neither begin nor commit: discarded.
        wal.append(WalRecord::Trim { txid: 8, lpn: 3 });
        t = wal.commit(t).unwrap();
        r.dev.crash(t);
        let (space, out, replay) = recover(&r.media, &r.layout, r.geo, 1024, t);
        assert_eq!((out.txns_committed, out.txns_discarded), (1, 1));
        assert_eq!(out.records_replayed, 1, "the blob is not a map record");
        assert_eq!(space.map.lookup(3), Some(Ppa::from_linear(&r.geo, 30)));
        assert_eq!(replay.txns[0].len(), 2, "every record kind is handed back");
        assert!(matches!(replay.txns[0][1], WalRecord::Blob { tag: 9, .. }));
    }

    /// Recovers, restarts the journal on the recovered map, and returns it.
    fn recover_and_restart(r: &Rig, t: SimTime) -> (LogSpace, RecoveryOutcome, Journal, SimTime) {
        let (space, out, replay) = recover(&r.media, &r.layout, r.geo, 1024, t);
        let (journal, t) = replay.restart(&space.map.snapshot()).unwrap();
        (space, out, journal, t)
    }

    #[test]
    fn a_restarted_log_is_numbered_above_the_one_it_replaces() {
        let r = rig();
        let (mut journal, mut t) = Journal::format(&r.media, &r.layout, SimTime::ZERO).unwrap();
        t = commit_txn(&mut journal.wal, 1, &[(1, 10), (2, 20)], t);
        let old_last = journal.wal.durable_lsn();
        r.dev.crash(t);
        let (_, _, mut journal, mut t) = recover_and_restart(&r, t);
        assert_eq!(journal.wal.next_lsn(), old_last + 1);
        assert_eq!(journal.wal.durable_lsn(), old_last);

        // No checkpoint between the two crashes: the second recovery must
        // replay the new log on top of the restart's snapshot.
        t = commit_txn(&mut journal.wal, 1, &[(1, 11)], t);
        r.dev.crash(t);
        let (space, out, journal, t) = recover_and_restart(&r, t);
        assert_eq!(out.checkpoint_lsn, old_last);
        assert_eq!(out.txns_committed, 1);
        assert_eq!(space.map.lookup(1), Some(Ppa::from_linear(&r.geo, 11)));
        assert_eq!(space.map.lookup(2), Some(Ppa::from_linear(&r.geo, 20)));

        // A crash straight after a restart: nothing to replay, nothing lost,
        // and the empty log still carries the numbering forward.
        let last = journal.wal.durable_lsn();
        assert!(last > old_last);
        r.dev.crash(t);
        let (space, out, journal, _) = recover_and_restart(&r, t);
        assert_eq!((out.frames_scanned, out.txns_committed), (0, 0));
        assert_eq!(out.checkpoint_seq, 2, "each restart outranks the last");
        assert_eq!(out.checkpoint_lsn, last);
        assert_eq!(space.map.lookup(1), Some(Ppa::from_linear(&r.geo, 11)));
        assert_eq!(journal.wal.next_lsn(), last + 1);
    }

    #[test]
    fn log_pressure_checkpoints_and_truncates() {
        let r = rig();
        let (mut journal, mut t) = Journal::format(&r.media, &r.layout, SimTime::ZERO).unwrap();
        let map = PageMap::new(r.geo, 1024);
        let mut checkpoints = 0;
        // Many times the ring's capacity of one-frame transactions.
        let frames = 4 * r.layout.wal_chunks.len() as u64 * r.geo.write_units_per_chunk() as u64;
        for i in 0..frames {
            if let Some(done) = journal.ensure_log_space(t, || map.snapshot()).unwrap() {
                assert!(!journal.log_nearly_full(), "truncation made room");
                checkpoints += 1;
                t = done;
            }
            t = commit_txn(&mut journal.wal, i, &[(i % 1024, i)], t);
        }
        assert!(checkpoints >= 4, "a full ring forces a checkpoint per lap");
    }
}
