//! Checkpointing: alternating-area mapping snapshots.
//!
//! The checkpoint process persists mapping and block metadata so that
//! recovery does not have to replay the whole log (paper Figure 2 and the
//! Figure 3 experiment). Two areas alternate: a crash mid-checkpoint leaves
//! the previous area intact, and recovery picks the newest area whose CRC
//! validates. After a snapshot is durable, the WAL is truncated up to the
//! snapshot's covered LSN — that truncation is what keeps recovery time flat
//! in Figure 3.

use crate::codec::{crc32c, framed, Decoder, Encoder};
use crate::media::Media;
use crate::wal::WalError;
use ocssd::{ChunkAddr, ChunkState, DeviceError, Payload, SECTOR_BYTES};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

const CKPT_MAGIC: u32 = 0x4F58_4350; // "OXCP"
const HEADER_BYTES: usize = 4 + 8 + 8 + 4 + 4; // magic, seq, lsn, len, crc

/// A decoded checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointData {
    /// Monotonic sequence number (newest wins).
    pub seq: u64,
    /// Every log record with LSN ≤ this is reflected in the snapshot.
    pub durable_lsn: u64,
    /// Snapshot payload (e.g. a [`crate::mapping::PageMap`] snapshot).
    pub payload: Vec<u8>,
}

/// Alternating-area checkpoint store.
pub struct CheckpointStore {
    media: Arc<dyn Media>,
    areas: [Vec<ChunkAddr>; 2],
    /// Areas retired after a media failure; never written again. Reads
    /// still scan them (older frames may be intact).
    dead: [bool; 2],
    next_seq: u64,
    next_area: usize,
    checkpoints_taken: u64,
    area_failovers: u64,
    obs: Obs,
}

impl CheckpointStore {
    /// Creates a store over two chunk areas (from [`crate::layout::Layout`]).
    pub fn new(media: Arc<dyn Media>, area_a: Vec<ChunkAddr>, area_b: Vec<ChunkAddr>) -> Self {
        assert!(!area_a.is_empty() && !area_b.is_empty());
        CheckpointStore {
            obs: media.obs(),
            media,
            areas: [area_a, area_b],
            dead: [false, false],
            next_seq: 1,
            next_area: 0,
            checkpoints_taken: 0,
            area_failovers: 0,
        }
    }

    /// Capacity of one area in bytes.
    pub fn area_capacity(&self) -> usize {
        let geo = self.media.geometry();
        self.areas[0].len() * geo.chunk_bytes() as usize
    }

    /// Checkpoints taken since construction.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Writes that had to fail over to the other area after a media failure.
    pub fn area_failovers(&self) -> u64 {
        self.area_failovers
    }

    /// Writes a checkpoint covering `durable_lsn` with `payload` and waits
    /// for durability. Returns the completion time and assigned sequence.
    pub fn write(
        &mut self,
        now: SimTime,
        durable_lsn: u64,
        payload: &[u8],
    ) -> Result<(SimTime, u64), WalError> {
        let seq = self.next_seq;
        let geo = self.media.geometry();
        let unit_bytes = geo.ws_min_bytes();

        let mut header = Encoder::with_capacity(HEADER_BYTES);
        header
            .u32(CKPT_MAGIC)
            .u64(seq)
            .u64(durable_lsn)
            .u32(payload.len() as u32)
            .u32(crc32c(payload));
        let blob = framed(&header, payload);
        let padded = blob.len().next_multiple_of(unit_bytes);
        assert!(
            padded <= self.area_capacity(),
            "snapshot ({padded} B) exceeds checkpoint area ({} B)",
            self.area_capacity()
        );
        // The padding to the write unit is the blob's zero tail.
        let blob = blob.zero_extended(padded);

        // Bounded failover: a media failure retires the target area and the
        // write retries on the other one. Both areas dead means the store
        // can no longer checkpoint; report the last device error. The
        // alternating discipline is preserved on the surviving area — a
        // torn blob in the dead area never validates, so recovery falls
        // back to the newest intact snapshot.
        let mut area_idx = self.next_area;
        let mut last_err = WalError::Device(DeviceError::ChunkOffline(self.areas[area_idx][0]));
        for _ in 0..2 {
            if self.dead[area_idx] {
                area_idx = 1 - area_idx;
                continue;
            }
            match self.write_area(now, area_idx, &blob) {
                Ok(t) => {
                    self.next_seq += 1;
                    self.next_area = 1 - area_idx;
                    self.checkpoints_taken += 1;
                    self.obs.metrics.record("checkpoint.write", padded as u64);
                    self.obs.metrics.observe(
                        "checkpoint.write_latency_ns",
                        t.saturating_since(now).as_nanos(),
                    );
                    self.obs
                        .tracer
                        .span(now, t, "checkpoint", "write", padded as u64);
                    return Ok((t, seq));
                }
                Err(e) if matches!(&e, WalError::Device(d) if d.retires_chunk()) => {
                    self.dead[area_idx] = true;
                    self.area_failovers += 1;
                    self.obs.metrics.record("checkpoint.area_failover", 0);
                    last_err = e;
                    area_idx = 1 - area_idx;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Resets one area (erases in parallel across PUs), then streams the
    /// blob chunk by chunk, each piece a view of the blob: the device keeps
    /// the blob's own buffer for the first (all of a blob that fits one
    /// chunk) and copies the others out of it. Returns the durability time.
    fn write_area(
        &mut self,
        now: SimTime,
        area_idx: usize,
        blob: &Payload,
    ) -> Result<SimTime, WalError> {
        let geo = self.media.geometry();
        let mut t = now;
        for &c in &self.areas[area_idx] {
            if self.media.chunk_info(c).state != ChunkState::Free {
                t = t.max(self.media.reset(now, c)?.done);
            }
        }
        let chunk_bytes = geo.chunk_bytes() as usize;
        for (i, from) in (0..blob.len()).step_by(chunk_bytes).enumerate() {
            let chunk = self.areas[area_idx][i];
            let piece = blob.slice(from..blob.len().min(from + chunk_bytes));
            let comp = self.media.write_parts(t, chunk.ppa(0), &[piece])?;
            let durable = self.media.flush_chunk(comp.done, chunk).done;
            t = t.max(durable);
        }
        Ok(t)
    }

    /// Reads the newest valid checkpoint, if any, together with the read
    /// completion time. Invalid / torn areas are skipped. The store resumes
    /// after what it found: its next write outranks every checkpoint already
    /// on the device and goes to the other area, so the snapshot returned
    /// here stays intact until its replacement is durable. Everything
    /// outside this crate recovers through
    /// [`crate::recovery::Journal::replay`].
    pub(crate) fn read_latest(&mut self, now: SimTime) -> (Option<CheckpointData>, SimTime) {
        let geo = self.media.geometry();
        let mut best: Option<(usize, CheckpointData)> = None;
        let mut t = now;
        for (idx, area) in self.areas.iter().enumerate() {
            let (data, done) = self.read_area(area, t, &geo);
            t = done;
            if let Some(d) = data {
                if best.as_ref().is_none_or(|(_, b)| d.seq > b.seq) {
                    best = Some((idx, d));
                }
            }
        }
        let best = best.map(|(idx, b)| {
            self.next_seq = b.seq + 1;
            self.next_area = 1 - idx;
            b
        });
        let bytes = best.as_ref().map_or(0, |d| d.payload.len() as u64);
        self.obs.metrics.record("checkpoint.read", bytes);
        self.obs.tracer.span(now, t, "checkpoint", "read", bytes);
        (best, t)
    }

    fn read_area(
        &self,
        area: &[ChunkAddr],
        now: SimTime,
        geo: &ocssd::Geometry,
    ) -> (Option<CheckpointData>, SimTime) {
        let first = area[0];
        let info = self.media.chunk_info(first);
        if info.write_ptr < geo.ws_min {
            return (None, now);
        }
        // Read the first unit for the header. Bounded retry: a transient
        // uncorrectable read must not discard an intact snapshot.
        let unit_bytes = geo.ws_min_bytes();
        let mut head = vec![0u8; unit_bytes];
        let mut t = now;
        match crate::retry::read_with_policy(
            self.media.as_ref(),
            t,
            first.ppa(0),
            geo.ws_min,
            &mut head,
            Some(&self.obs.metrics),
        ) {
            Ok(o) => t = o.completion.done,
            Err(_) => return (None, now),
        }
        let mut d = Decoder::new(&head);
        if d.u32().ok() != Some(CKPT_MAGIC) {
            return (None, t);
        }
        let seq = d.u64().unwrap_or(0);
        let lsn = d.u64().unwrap_or(0);
        let len = d.u32().unwrap_or(0) as usize;
        let crc = d.u32().unwrap_or(0);
        let total = HEADER_BYTES + len;

        // Gather the rest of the blob across area chunks, behind the unit
        // already read.
        let mut blob = head;
        blob.resize(total.next_multiple_of(unit_bytes), 0);
        let chunk_bytes = geo.chunk_bytes() as usize;
        let mut off = unit_bytes;
        for (i, &chunk) in area.iter().enumerate() {
            let (from, to) = (i * chunk_bytes, ((i + 1) * chunk_bytes).min(blob.len()));
            if off >= to {
                continue;
            }
            let info = self.media.chunk_info(chunk);
            if info.write_ptr < ((to - from) / SECTOR_BYTES) as u32 {
                return (None, t); // torn
            }
            let sectors = ((to - off) / SECTOR_BYTES) as u32;
            let at = ((off - from) / SECTOR_BYTES) as u32;
            match crate::retry::read_with_policy(
                self.media.as_ref(),
                t,
                chunk.ppa(at),
                sectors,
                &mut blob[off..to],
                Some(&self.obs.metrics),
            ) {
                Ok(o) => t = o.completion.done,
                Err(_) => return (None, t),
            }
            off = to;
        }
        let payload = &blob[HEADER_BYTES..total];
        if crc32c(payload) != crc {
            return (None, t);
        }
        (
            Some(CheckpointData {
                seq,
                durable_lsn: lsn,
                payload: payload.to_vec(),
            }),
            t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::OcssdMedia;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};

    fn setup() -> (Arc<dyn Media>, CheckpointStore, SharedDevice) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let store = CheckpointStore::new(
            media.clone(),
            vec![ChunkAddr::new(1, 0, 0), ChunkAddr::new(1, 1, 0)],
            vec![ChunkAddr::new(2, 0, 0), ChunkAddr::new(2, 1, 0)],
        );
        (media, store, dev)
    }

    #[test]
    fn no_checkpoint_on_fresh_device() {
        let (_, mut store, _) = setup();
        let (data, _) = store.read_latest(SimTime::ZERO);
        assert!(data.is_none());
    }

    #[test]
    fn write_then_read_back() {
        let (_, mut store, _) = setup();
        let payload = vec![42u8; 10_000];
        let (done, seq) = store.write(SimTime::ZERO, 77, &payload).unwrap();
        assert_eq!(seq, 1);
        let (data, _) = store.read_latest(done);
        let data = data.expect("checkpoint present");
        assert_eq!(data.seq, 1);
        assert_eq!(data.durable_lsn, 77);
        assert_eq!(data.payload, payload);
    }

    #[test]
    fn areas_alternate_and_newest_wins() {
        let (_, mut store, _) = setup();
        let (t1, s1) = store.write(SimTime::ZERO, 10, b"first").unwrap();
        let (t2, s2) = store.write(t1, 20, b"second").unwrap();
        assert_eq!((s1, s2), (1, 2));
        let (data, _) = store.read_latest(t2);
        assert_eq!(data.unwrap().payload, b"second");
        // Third write recycles area A.
        let (t3, _) = store.write(t2, 30, b"third").unwrap();
        let (data, _) = store.read_latest(t3);
        let d = data.unwrap();
        assert_eq!(d.payload, b"third");
        assert_eq!(d.durable_lsn, 30);
        assert_eq!(store.checkpoints_taken(), 3);
    }

    #[test]
    fn a_reopened_store_outranks_the_checkpoints_it_finds() {
        let (media, mut store, _) = setup();
        let (t1, _) = store.write(SimTime::ZERO, 10, b"first").unwrap();
        let (t2, _) = store.write(t1, 20, b"second").unwrap();
        // A store built over the same areas, as after a restart.
        let [a, b] = store.areas.clone();
        let mut reopened = CheckpointStore::new(media, a, b);
        let (data, t3) = reopened.read_latest(t2);
        assert_eq!(data.unwrap().payload, b"second");
        // Numbered from 1 again, its next write would lose to "second".
        let (t4, seq) = reopened.write(t3, 30, b"third").unwrap();
        assert_eq!(seq, 3);
        assert_eq!(reopened.read_latest(t4).0.unwrap().payload, b"third");
    }

    #[test]
    fn a_reopened_store_keeps_the_newest_checkpoint_until_its_replacement_is_durable() {
        let (media, mut store, dev) = setup();
        // Three checkpoints: the newest is back in area A.
        let mut t = SimTime::ZERO;
        for (lsn, payload) in [(10, b"first"), (20, b"secnd"), (30, b"third")] {
            t = store.write(t, lsn, payload).unwrap().0;
        }
        let [a, b] = store.areas.clone();
        let mut reopened = CheckpointStore::new(media, a, b);
        let (data, t) = reopened.read_latest(t);
        assert_eq!(data.unwrap().payload, b"third");
        // The next checkpoint goes to area B; power fails before it is
        // durable, and area A still holds the newest snapshot.
        reopened.write(t, 40, &[4u8; 50_000]).unwrap();
        dev.crash(t);
        let (data, _) = reopened.read_latest(t);
        let d = data.expect("a checkpoint survives");
        assert_eq!((d.payload.as_slice(), d.durable_lsn), (&b"third"[..], 30));
    }

    #[test]
    fn reading_a_checkpoint_reads_its_header_unit_once() {
        let (media, mut store, dev) = setup();
        let geo = media.geometry();
        // One unit in area A; then, in area B, a snapshot across both of its
        // chunks: its header unit, the rest of the first chunk, the second
        // chunk — A's snapshot is read again beside it.
        for (len, reads) in [(100, 1), (geo.chunk_bytes() as usize + 50_000, 1 + 3)] {
            let (t, _) = store.write(SimTime::ZERO, 1, &vec![3u8; len]).unwrap();
            let before = dev.stats();
            let (data, _) = store.read_latest(t);
            let after = dev.stats();
            assert_eq!(data.unwrap().payload.len(), len);
            let ops = |s: &ocssd::DeviceStats| s.media_reads.ops() + s.cache_reads.ops();
            assert_eq!(ops(&after) - ops(&before), reads, "{len} bytes");
        }
    }

    #[test]
    fn crash_mid_checkpoint_preserves_previous() {
        let (_, mut store, dev) = setup();
        let (t1, _) = store.write(SimTime::ZERO, 10, b"stable").unwrap();
        // Begin the second checkpoint, but crash the device before its
        // writes drain (crash right at "now": nothing of area B durable).
        let big = vec![7u8; 200_000];
        let (_t2, _) = store.write(t1, 20, &big).unwrap();
        dev.crash(t1); // roll back everything not yet durable at t1
        let (data, _) = store.read_latest(t1);
        let d = data.expect("previous checkpoint survives");
        assert_eq!(d.payload, b"stable");
        assert_eq!(d.durable_lsn, 10);
    }

    #[test]
    fn multi_chunk_snapshot_round_trips() {
        let (media, mut store, _) = setup();
        let geo = media.geometry();
        // Bigger than one chunk, fits in two.
        let payload: Vec<u8> = (0..geo.chunk_bytes() as usize + 50_000)
            .map(|i| (i % 251) as u8)
            .collect();
        let (done, _) = store.write(SimTime::ZERO, 5, &payload).unwrap();
        let (data, _) = store.read_latest(done);
        assert_eq!(data.unwrap().payload, payload);
    }

    #[test]
    fn write_fails_over_to_surviving_area() {
        let (_, mut store, dev) = setup();
        // Area A's first chunk fails its very first program: the write must
        // land on area B instead, and A never gets written again.
        let mut plan = ocssd::FaultPlan::default();
        plan.program_fails.push(ocssd::ProgramFault {
            chunk: ChunkAddr::new(1, 0, 0),
            wp: 0,
        });
        dev.set_fault_plan(plan);

        let (t1, s1) = store.write(SimTime::ZERO, 11, b"survives").unwrap();
        assert_eq!(s1, 1);
        assert_eq!(store.area_failovers(), 1);
        assert_eq!(store.dead, [true, false]);
        let (data, _) = store.read_latest(t1);
        let d = data.expect("checkpoint landed on the surviving area");
        assert_eq!(d.payload, b"survives");
        assert_eq!(d.durable_lsn, 11);

        // Subsequent checkpoints keep working on the one healthy area.
        let (t2, s2) = store.write(t1, 22, b"still going").unwrap();
        assert_eq!(s2, 2);
        assert_eq!(store.area_failovers(), 1, "dead area skipped, not retried");
        let (data, _) = store.read_latest(t2);
        assert_eq!(data.unwrap().payload, b"still going");
    }

    #[test]
    fn read_retries_transient_uncorrectable_reads() {
        let (_, mut store, dev) = setup();
        let payload = vec![9u8; 50_000];
        let (done, _) = store.write(SimTime::ZERO, 33, &payload).unwrap();
        let mut plan = ocssd::FaultPlan::default();
        plan.read_fails.push(ocssd::ReadFault {
            ppa: ChunkAddr::new(1, 0, 0).ppa(0),
            attempts: 2,
        });
        dev.set_fault_plan(plan);
        let (data, _) = store.read_latest(done);
        let d = data.expect("transient read fault must not discard the snapshot");
        assert_eq!(d.payload, payload);
        assert_eq!(d.durable_lsn, 33);
        assert_eq!(dev.fault_ledger().read_fails, 2);
    }

    #[test]
    #[should_panic]
    fn oversized_snapshot_panics() {
        let (media, mut store, _) = setup();
        let geo = media.geometry();
        let payload = vec![0u8; 3 * geo.chunk_bytes() as usize];
        let _ = store.write(SimTime::ZERO, 1, &payload);
    }
}
