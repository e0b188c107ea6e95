//! Property tests for reading blocks where they lie: a merge over views
//! against the eager decode it replaced, the heap that picks the merge's next
//! entry against the scan over every stream it replaced, gets and scans
//! through the search index against a model — on tables just built, on
//! tables reopened from media and on tables a compaction wrote — and the
//! bytes a compaction writes against a digest taken before views existed.
//!
//! Every store is tried both ways: handing out views of the device's own
//! buffer, and — wrapped in [`ByCopy`], which like oxperf's tracing wrappers
//! implements only the required methods — copies with their zero tail.
//! Seeds come from `OX_FAULT_SEED_BASE`; a failure names the seed.

use super::super::*;
use crate::store::LightLsmStore;
use lightlsm::{LightLsm, LightLsmConfig};
use ocssd::{matrix_seeds, DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_core::codec::crc32c;
use ox_core::{Media, OcssdMedia};
use ox_sim::Prng;

/// The stream and the merge as they were while every block a stream read
/// was decoded into owned entries at once: the reference the views are held
/// to, entry for entry, block read for block read, nanosecond for nanosecond.
mod eager {
    use crate::block::with_entries;
    use crate::compaction::{Entry, PREFETCH_DEPTH};
    use crate::sstable::TableHandle;
    use crate::store::{StoreError, TableStore};
    use ox_sim::SimTime;
    use std::collections::VecDeque;
    use std::sync::Arc;

    pub(super) struct TableStream {
        tables: Vec<Arc<TableHandle>>,
        rank: usize,
        cur: usize,
        next_block: u32,
        inflight: VecDeque<InflightBlock>,
        buf: VecDeque<Entry>,
        readahead: usize,
        start: Vec<u8>,
        seeked: bool,
    }

    struct InflightBlock {
        entries: VecDeque<Entry>,
        ready_at: SimTime,
        tail: bool,
    }

    impl TableStream {
        pub(super) fn new(tables: Vec<Arc<TableHandle>>, rank: usize, readahead: usize) -> Self {
            TableStream {
                tables,
                rank,
                cur: 0,
                next_block: 0,
                inflight: VecDeque::new(),
                buf: VecDeque::new(),
                readahead,
                start: Vec::new(),
                seeked: false,
            }
        }

        pub(super) fn seek(&mut self, start: &[u8]) {
            self.next_block = self
                .tables
                .first()
                .and_then(|t| t.block_for(start))
                .unwrap_or(0);
            self.start = start.to_vec();
            self.seeked = true;
        }

        fn pump(
            &mut self,
            store: &Arc<dyn TableStore>,
            t: SimTime,
            window: usize,
        ) -> Result<u64, StoreError> {
            let mut submitted = 0;
            while self.inflight.len() < window {
                let Some(table) = self.tables.get(self.cur) else {
                    break;
                };
                if self.next_block >= table.data_blocks {
                    self.cur += 1;
                    self.next_block = 0;
                    continue;
                }
                let (block, done) = store.read_block_shared(t, table.id, self.next_block)?;
                let entries: VecDeque<Entry> = with_entries(&block, 0, |entries| {
                    entries
                        .skip_while(|(k, ..)| *k < self.start.as_slice())
                        .map(|(k, s, v)| (k.to_vec(), s, v.map(<[u8]>::to_vec)))
                        .collect()
                });
                self.next_block += 1;
                self.inflight.push_back(InflightBlock {
                    entries,
                    ready_at: done,
                    tail: self.next_block == table.data_blocks,
                });
                submitted += 1;
            }
            Ok(submitted)
        }

        fn refill(
            &mut self,
            store: &Arc<dyn TableStore>,
            t: &mut SimTime,
        ) -> Result<u64, StoreError> {
            if !self.buf.is_empty() {
                return Ok(0);
            }
            let mut submitted = self.pump(store, *t, self.readahead.max(1))?;
            while self.buf.is_empty() {
                let Some(block) = self.inflight.pop_front() else {
                    break;
                };
                *t = (*t).max(block.ready_at);
                self.buf = block.entries;
                submitted += self.pump(store, *t, self.readahead)?;
                if !std::mem::take(&mut self.seeked) && !block.tail {
                    self.readahead = (self.readahead + 1).min(PREFETCH_DEPTH);
                }
            }
            Ok(submitted)
        }

        fn peek(&self) -> Option<(&[u8], u64)> {
            self.buf.front().map(|(k, s, _)| (k.as_slice(), *s))
        }
    }

    pub(super) struct MergeIter {
        streams: Vec<TableStream>,
        store: Arc<dyn TableStore>,
        blocks_read: u64,
    }

    impl MergeIter {
        pub(super) fn new(streams: Vec<TableStream>, store: Arc<dyn TableStore>) -> Self {
            MergeIter {
                streams,
                store,
                blocks_read: 0,
            }
        }

        pub(super) fn take_blocks_read(&mut self) -> u64 {
            std::mem::take(&mut self.blocks_read)
        }

        pub(super) fn next(&mut self, t: &mut SimTime) -> Result<Option<Entry>, StoreError> {
            for s in &mut self.streams {
                self.blocks_read += s.refill(&self.store, t)?;
            }
            let mut winner: Option<(usize, &[u8], u64, usize)> = None;
            for (i, s) in self.streams.iter().enumerate() {
                let Some((k, seq)) = s.peek() else { continue };
                let better = match winner {
                    None => true,
                    Some((_, wk, wseq, wrank)) => match k.cmp(wk) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => seq > wseq || (seq == wseq && s.rank < wrank),
                    },
                };
                if better {
                    winner = Some((i, k, seq, s.rank));
                }
            }
            let Some((wi, ..)) = winner else {
                return Ok(None);
            };
            let Some((key, seq, value)) = self.streams[wi].buf.pop_front() else {
                return Ok(None);
            };
            for (i, s) in self.streams.iter_mut().enumerate() {
                if i == wi {
                    continue;
                }
                while s.peek() == Some((key.as_slice(), seq)) {
                    s.buf.pop_front();
                }
            }
            Ok(Some((key, seq, value)))
        }
    }
}

/// A store that answers block reads by copy only, and is handed tables as
/// bytes only: the provided `read_block_shared` and `flush_table_blocks`,
/// whatever the store inside could do.
struct ByCopy(LightLsmStore);

impl TableStore for ByCopy {
    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn table_capacity_bytes(&self) -> usize {
        self.0.table_capacity_bytes()
    }

    fn flush_table(&self, now: SimTime, data: &[u8]) -> Result<(u64, SimTime), StoreError> {
        self.0.flush_table(now, data)
    }

    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, StoreError> {
        self.0.read_block(now, id, block, out)
    }

    fn delete_table(&self, now: SimTime, id: u64) -> Result<SimTime, StoreError> {
        self.0.delete_table(now, id)
    }
}

/// A store that notes every block read it is asked for — when, of which
/// table, which block — and hands it on.
struct Recording {
    inner: Arc<dyn TableStore>,
    reads: Mutex<Vec<(SimTime, u64, u32)>>,
}

impl TableStore for Recording {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn table_capacity_bytes(&self) -> usize {
        self.inner.table_capacity_bytes()
    }

    fn flush_table(&self, now: SimTime, data: &[u8]) -> Result<(u64, SimTime), StoreError> {
        self.inner.flush_table(now, data)
    }

    fn flush_table_blocks(
        &self,
        now: SimTime,
        blocks: &[Payload],
    ) -> Result<(u64, SimTime), StoreError> {
        self.inner.flush_table_blocks(now, blocks)
    }

    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, StoreError> {
        self.reads.lock().push((now, id, block));
        self.inner.read_block(now, id, block, out)
    }

    fn read_block_shared(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
    ) -> Result<(Payload, SimTime), StoreError> {
        self.reads.lock().push((now, id, block));
        self.inner.read_block_shared(now, id, block)
    }

    fn delete_table(&self, now: SimTime, id: u64) -> Result<SimTime, StoreError> {
        self.inner.delete_table(now, id)
    }
}

/// A LightLSM store of 16 KB blocks on a fresh small drive, as a handle to
/// the FTL and as the store a database reads through.
fn small_store(by_copy: bool) -> (LightLsmStore, Arc<dyn TableStore>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::small_slc(),
    )));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    let ftl = LightLsmStore::new(ftl);
    let store: Arc<dyn TableStore> = if by_copy {
        Arc::new(ByCopy(ftl.clone()))
    } else {
        Arc::new(ftl.clone())
    };
    (ftl, store)
}

fn key(i: u64) -> Vec<u8> {
    format!("{i:016}").into_bytes()
}

/// `(key asc, seq desc)` versions with distinct sequence numbers out of
/// `seqs`: runs of one to four versions per key, for the middle key and now
/// and then another sixty — at 1 KB a version, four blocks — a sixth of them
/// tombstones, values of 16 B (`sizes` 0), about 1 KB (1) or anything up to
/// 1.2 KB (2) that often end in zeros.
fn random_versions(
    rng: &mut Prng,
    keys: u64,
    sizes: u64,
    seqs: std::ops::Range<u64>,
) -> Vec<Entry> {
    let mut pool: Vec<u64> = seqs.collect();
    rng.shuffle(&mut pool);
    let mut out = Vec::new();
    for k in 0..keys {
        let run = if k == keys / 2 || rng.gen_bool(0.03) {
            60
        } else {
            1 + rng.gen_range(4)
        };
        let mut run: Vec<u64> = (0..run).filter_map(|_| pool.pop()).collect();
        run.sort_unstable_by(|a, b| b.cmp(a));
        for seq in run {
            let len = match sizes {
                0 => 16,
                1 => 900 + rng.gen_range(200) as usize,
                _ => rng.gen_range(1200) as usize,
            };
            let mut value = vec![0u8; len];
            rng.fill_bytes(&mut value);
            let zeros = (rng.gen_range(3) * rng.gen_range(40)) as usize;
            let keep = len.saturating_sub(zeros);
            value[keep..].fill(0);
            out.push((key(3 * k), seq, (!rng.gen_bool(0.16)).then_some(value)));
        }
    }
    out
}

/// Flushes `versions` as one table at time zero.
fn flush(store: &Arc<dyn TableStore>, versions: &[Entry]) -> Arc<TableHandle> {
    let mut b = TableBuilder::new(store.block_bytes(), 10);
    for (k, s, v) in versions {
        b.add(k, *s, v.as_deref());
    }
    let (blocks, mut handle) = b.finish();
    handle.id = store.flush_table_blocks(SimTime::ZERO, &blocks).unwrap().0;
    Arc::new(handle)
}

/// What a seeded case reads: tables that overlap (each version in one of
/// them, a tenth in two — what a crash between a compaction's commit and its
/// deletes leaves behind) and a sorted run of more.
struct Tables {
    overlapping: Vec<Vec<Entry>>,
    run: Vec<Vec<Entry>>,
}

impl Tables {
    /// Three overlapping tables and a run of three.
    fn random(rng: &mut Prng, sizes: u64) -> Tables {
        Tables::shaped(rng, sizes, 3, 3)
    }

    /// `overlapping` tables of uneven sizes — the first gets the most, the
    /// last may well stay empty — and a sorted run of `run` tables.
    fn shaped(rng: &mut Prng, sizes: u64, overlapping: usize, run: usize) -> Tables {
        let keys = if sizes == 0 { 700 } else { 60 };
        let mut tables = Tables {
            overlapping: vec![Vec::new(); overlapping],
            run: vec![Vec::new(); run],
        };
        if overlapping > 0 {
            let n = overlapping as u64;
            for version in random_versions(rng, keys, sizes, 1..5000) {
                let home = rng.gen_range(n).min(rng.gen_range(n)) as usize;
                if rng.gen_bool(0.1) && overlapping > 1 {
                    tables.overlapping[(home + 1) % overlapping].push(version.clone());
                }
                tables.overlapping[home].push(version);
            }
        }
        if run > 0 {
            for version in random_versions(rng, keys, sizes, 5000..10000) {
                // All versions of a key in one table, the tables in key order.
                let k: u64 = String::from_utf8_lossy(&version.0).parse().unwrap();
                tables.run[(k * run as u64 / (3 * keys)) as usize].push(version);
            }
        }
        tables
    }

    /// Copies into the second overlapping table the two versions either side
    /// of the first one's first block boundary, so that collapsing a
    /// duplicate uses a block up and the next one opens with a duplicate.
    /// False if the first table has no such boundary.
    fn duplicate_across_a_block_boundary(&mut self, block_bytes: usize) -> bool {
        let mut b = TableBuilder::new(block_bytes, 10);
        for (k, s, v) in &self.overlapping[0] {
            b.add(k, *s, v.as_deref());
        }
        let (blocks, handle) = b.finish();
        if handle.data_blocks < 2 {
            return false;
        }
        let owned = |(k, s, v): (&[u8], u64, Option<&[u8]>)| (k.to_vec(), s, v.map(<[u8]>::to_vec));
        let last = crate::block::BlockIter::new(blocks[0].bytes()).last();
        let first = crate::block::BlockIter::new(blocks[1].bytes()).next();
        let into = &mut self.overlapping[1];
        into.extend(last.into_iter().chain(first).map(owned));
        into.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        into.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        true
    }

    /// Flushes every table that holds anything.
    fn flush_all(
        &self,
        store: &Arc<dyn TableStore>,
    ) -> (Vec<Arc<TableHandle>>, Vec<Arc<TableHandle>>) {
        let flush_each = |tables: &[Vec<Entry>]| {
            tables
                .iter()
                .filter(|t| !t.is_empty())
                .map(|t| flush(store, t))
                .collect()
        };
        (flush_each(&self.overlapping), flush_each(&self.run))
    }

    /// Every version once, `(key asc, seq desc)`.
    fn versions(&self) -> Vec<Entry> {
        let mut all: Vec<Entry> = self
            .overlapping
            .iter()
            .chain(&self.run)
            .flatten()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        all.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        all
    }
}

/// The runs a scan from `start` would merge (see `Version::scan_runs`):
/// tables that end before it are left out, the sorted run starts with the
/// table `start` falls in.
fn runs_from(
    overlapping: &[Arc<TableHandle>],
    run: &[Arc<TableHandle>],
    start: &[u8],
) -> Vec<Vec<Arc<TableHandle>>> {
    let reaches = |t: &&Arc<TableHandle>| t.last_point_key().is_some_and(|last| last >= start);
    let mut runs: Vec<Vec<Arc<TableHandle>>> = overlapping
        .iter()
        .filter(reaches)
        .map(|t| vec![t.clone()])
        .collect();
    runs.push(run.iter().filter(reaches).cloned().collect());
    runs
}

#[test]
fn a_merge_over_views_is_the_merge_over_the_eager_decode() {
    for seed in matrix_seeds(12) {
        let mut rng = Prng::seed_from_u64(seed);
        // Three overlapping tables and a run of three; every third seed as
        // many streams as a deep level-0 compaction merges, of uneven sizes.
        let tables = if seed % 3 == 2 {
            Tables::shaped(&mut rng, 1 + seed % 2, 11, 5)
        } else {
            Tables::random(&mut rng, seed % 3)
        };
        // Twin drives: the same reads at the same times cost the same.
        let (_, eager_store) = small_store(seed % 2 == 1);
        let (_, view_store) = small_store(seed % 2 == 1);
        let (eager_l0, eager_run) = tables.flush_all(&eager_store);
        let (view_l0, view_run) = tables.flush_all(&view_store);
        assert!(view_l0.iter().chain(&view_run).any(|h| h.data_blocks > 2));
        let all = tables.versions();
        let mut t0 = SimTime::from_secs(1);
        for case in 0..6 {
            // A compaction (no seek, full window) or a scan from a key that
            // is there, or from just before or after one.
            let start = (case > 0).then(|| {
                let mut start = all[rng.gen_range(all.len() as u64) as usize].0.clone();
                match rng.gen_range(3) {
                    0 => start.push(0),
                    1 => *start.last_mut().unwrap() -= 1,
                    _ => {}
                }
                start
            });
            let readahead = if case == 0 { PREFETCH_DEPTH } else { 0 };
            let start_key = start.as_deref().unwrap_or(b"");
            let mut eager = eager::MergeIter::new(
                runs_from(&eager_l0, &eager_run, start_key)
                    .into_iter()
                    .enumerate()
                    .map(|(rank, run)| {
                        let mut s = eager::TableStream::new(run, rank, readahead);
                        if start.is_some() {
                            s.seek(start_key);
                        }
                        s
                    })
                    .collect(),
                eager_store.clone(),
            );
            let mut views = MergeIter::new(
                streams_from(&view_l0, &view_run, start.as_deref(), false),
                view_store.clone(),
            );
            let (mut te, mut tv) = (t0, t0);
            let mut held: Vec<EntryView> = Vec::new();
            let mut want: Vec<Entry> = Vec::new();
            loop {
                let e = eager.next(&mut te).unwrap();
                let v = views.next(&mut tv).unwrap();
                let what = format!("seed {seed} case {case}, entry {}", want.len());
                assert_eq!(
                    v.as_ref().map(|v| (v.key(), v.seq(), v.value())),
                    e.as_ref().map(|(k, s, v)| (&k[..], *s, v.as_deref())),
                    "{what}"
                );
                assert_eq!(views.take_blocks_read(), eager.take_blocks_read(), "{what}");
                assert_eq!(tv, te, "{what}");
                let (Some(e), Some(v)) = (e, v) else { break };
                want.push(e);
                held.push(v);
            }
            // The whole of the merged order from `start` on, nothing twice.
            let from = all.partition_point(|e| e.0.as_slice() < start_key);
            assert!(want == all[from..], "seed {seed} case {case}");
            // Views outlive the cursor that made them, cut entries included.
            for (v, e) in held.iter().zip(&want) {
                assert_eq!(
                    (v.key(), v.seq(), v.value()),
                    (&e.0[..], e.1, e.2.as_deref())
                );
            }
            t0 = te + SimDuration::from_millis(50);
        }
    }
}

/// The streams a compaction (`start` = `None`: no seek, full window) or a
/// scan from `start` would merge over these tables, ranked in their order or
/// against it.
fn streams_from(
    overlapping: &[Arc<TableHandle>],
    run: &[Arc<TableHandle>],
    start: Option<&[u8]>,
    ranks_reversed: bool,
) -> Vec<TableStream> {
    let runs = runs_from(overlapping, run, start.unwrap_or(b""));
    let last = runs.len() - 1;
    runs.into_iter()
        .enumerate()
        .map(|(i, run)| {
            let rank = if ranks_reversed { last - i } else { i };
            let mut s = TableStream::new(run, rank, start.map_or(PREFETCH_DEPTH, |_| 0));
            if let Some(start) = start {
                s.seek(start);
            }
            s
        })
        .collect()
}

#[test]
fn the_heap_picks_what_the_scan_over_every_stream_picked() {
    let mut straddled = 0;
    for seed in matrix_seeds(32) {
        let mut rng = Prng::seed_from_u64(seed);
        // One to sixteen streams: up to fifteen overlapping tables and, but
        // for every fourth seed, a run of one to five tables as one more.
        let overlapping = (seed % 16) as usize;
        let run = match (seed / 16 + seed) % 4 {
            0 if overlapping > 0 => 0,
            n => 1 + 2 * (n as usize % 3),
        };
        let mut tables = Tables::shaped(&mut rng, seed % 3, overlapping, run);
        let recording = || -> (Arc<Recording>, Arc<dyn TableStore>) {
            let store = Arc::new(Recording {
                inner: small_store(seed % 5 == 4).1,
                reads: Mutex::new(Vec::new()),
            });
            (store.clone(), store)
        };
        // Twin drives: the same reads at the same times cost the same.
        let (heap_reads, heap_store) = recording();
        let (scan_reads, scan_store) = recording();
        if overlapping >= 2 {
            let boundary = tables.duplicate_across_a_block_boundary(heap_store.block_bytes());
            straddled += u64::from(boundary);
        }
        if overlapping >= 3 && seed % 2 == 1 {
            // A table twice over: two streams that use up every block of
            // theirs in the same call.
            tables.overlapping[2] = tables.overlapping[0].clone();
        }
        let (heap_l0, heap_run) = tables.flush_all(&heap_store);
        let (scan_l0, scan_run) = tables.flush_all(&scan_store);
        let all = tables.versions();
        let mut t0 = SimTime::from_secs(1);
        for case in 0..5 {
            let start = (case > 0).then(|| {
                let mut start = all[rng.gen_range(all.len() as u64) as usize].0.clone();
                match rng.gen_range(3) {
                    0 => start.push(0),
                    1 => *start.last_mut().unwrap() -= 1,
                    _ => {}
                }
                start
            });
            let start = start.as_deref();
            // The database ranks streams in their order; the merge must not
            // depend on it.
            let reversed = case % 2 == 1;
            let mut heap = MergeIter::new(
                streams_from(&heap_l0, &heap_run, start, reversed),
                heap_store.clone(),
            );
            let mut scan = MergeIter::new(
                streams_from(&scan_l0, &scan_run, start, reversed),
                scan_store.clone(),
            );
            let (mut th, mut ts) = (t0, t0);
            let mut got: Vec<Entry> = Vec::new();
            loop {
                let h = heap.next(&mut th).unwrap();
                let s = scan.next_by_scan(&mut ts).unwrap();
                let what = format!("seed {seed} case {case}, entry {}", got.len());
                assert!(
                    h.as_ref().map(|e| (e.key(), e.seq(), e.value()))
                        == s.as_ref().map(|e| (e.key(), e.seq(), e.value())),
                    "{what}"
                );
                assert_eq!(heap.take_blocks_read(), scan.take_blocks_read(), "{what}");
                assert_eq!(th, ts, "{what}");
                let Some(e) = h else { break };
                got.push((e.key().to_vec(), e.seq(), e.value().map(<[u8]>::to_vec)));
            }
            let from = all.partition_point(|e| e.0.as_slice() < start.unwrap_or(b""));
            assert!(got == all[from..], "seed {seed} case {case}");
            // Block for block, at the same times, in the same order.
            assert!(
                *heap_reads.reads.lock() == *scan_reads.reads.lock(),
                "seed {seed} case {case}: block reads"
            );
            t0 = th + SimDuration::from_millis(50);
        }
        assert!(!heap_reads.reads.lock().is_empty(), "seed {seed}");
    }
    assert!(
        straddled >= 8,
        "{straddled} seeds with a duplicate across a block boundary"
    );
}

/// What a reader at `snap` sees of `key` among `versions`.
fn visible<'a>(versions: &'a [Entry], key: &[u8], snap: u64) -> Option<&'a [u8]> {
    versions
        .iter()
        .find(|(k, s, _)| k == key && *s <= snap)
        .and_then(|(.., v)| v.as_deref())
}

#[test]
fn reopened_tables_answer_gets_and_scans_at_any_snapshot() {
    for seed in matrix_seeds(8) {
        let mut rng = Prng::seed_from_u64(seed);
        let tables = Tables::random(&mut rng, seed % 3);
        let (ftl, store) = small_store(seed % 2 == 0);
        tables.flush_all(&store);
        let (mut db, mut t) = Db::open_with_tables(
            store,
            DbConfig::default(),
            &ftl.surviving_tables(),
            SimTime::from_secs(1),
        )
        .unwrap();
        let all = tables.versions();
        let mut spilled = 0;
        for run in all.chunk_by(|a, b| a.0 == b.0) {
            let key = &run[0].0;
            let oldest = run[run.len() - 1].1;
            let near = |seq: u64| [seq - 1, seq, seq + 1];
            for snap in near(run[0].1)
                .into_iter()
                .chain(near(oldest))
                .chain([0, u64::MAX])
            {
                let before = db.stats().get_blocks_read;
                let (got, done) = db.get_at(t, key, Snapshot { seq: snap }).unwrap();
                assert_eq!(
                    got.as_deref(),
                    visible(&all, key, snap),
                    "seed {seed}: key {} at {snap}",
                    String::from_utf8_lossy(key)
                );
                t = done;
                // One block per table holding the key, unless the run spills.
                spilled += u64::from(db.stats().get_blocks_read - before > 6);
            }
            // A key that is not there, between this one and the next.
            let absent = [&key[..], b"+"].concat();
            assert_eq!(db.get(t, &absent).unwrap().0, None, "seed {seed}");
        }
        if seed % 3 == 1 {
            assert!(spilled > 0, "seed {seed}: no version run spilled over");
        }
        for _ in 0..12 {
            let snap = rng.gen_range(10_001);
            let start = all[rng.gen_range(all.len() as u64) as usize].0.clone();
            let take = 1 + rng.gen_range(40) as usize;
            let mut iter = db.scan_range(Snapshot { seq: snap }, &start, None);
            let mut got = Vec::new();
            while got.len() < take {
                let Some(pair) = iter.next(&mut t).unwrap() else {
                    break;
                };
                got.push(pair);
            }
            db.release_iter(&mut iter);
            let want: Vec<KvPair> = all
                .chunk_by(|a, b| a.0 == b.0)
                .filter(|run| run[0].0 >= start)
                .filter_map(|run| Some((run[0].0.clone(), visible(run, &run[0].0, snap)?.to_vec())))
                .take(take)
                .collect();
            assert!(got == want, "seed {seed}: scan from {start:?} at {snap}");
        }
    }
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn drain(db: &mut Db, mut t: SimTime) -> SimTime {
    loop {
        if let Some(done) = db.flush_once(t).unwrap() {
            t = done;
        } else if let Some(done) = db.compact_once(t).unwrap() {
            t = done;
        } else {
            return t;
        }
    }
}

/// Overwrites or deletes `ops` random keys below `keys`, then settles.
fn churn(
    db: &mut Db,
    model: &mut Model,
    rng: &mut Prng,
    mut t: SimTime,
    keys: u64,
    ops: u64,
) -> SimTime {
    for _ in 0..ops {
        let k = key(rng.gen_range(keys));
        let outcome = if rng.gen_bool(0.15) {
            model.remove(&k);
            db.delete(t, &k)
        } else {
            let mut v = vec![0u8; 100 + rng.gen_range(900) as usize];
            rng.fill_bytes(&mut v);
            model.insert(k.clone(), v.clone());
            db.put(t, &k, &v)
        };
        t = match outcome.unwrap() {
            PutOutcome::Done(done) => done,
            PutOutcome::Stalled(_) => panic!("settled between bursts, never stalled"),
        };
        if db.has_background_work() {
            t = drain(db, t);
        }
    }
    db.seal_memtable();
    drain(db, t)
}

/// Every key, there or not, by get; and scans from a few of them.
fn check(
    db: &mut Db,
    model: &Model,
    rng: &mut Prng,
    mut t: SimTime,
    keys: u64,
    what: &str,
) -> SimTime {
    for k in 0..keys {
        let (got, done) = db.get(t, &key(k)).unwrap();
        assert_eq!(got.as_ref(), model.get(&key(k)), "{what}: key {k}");
        t = done;
    }
    for _ in 0..8 {
        let start = key(rng.gen_range(keys));
        let mut iter = db.scan_from(&start);
        let mut got = Vec::new();
        while let Some(pair) = iter.next(&mut t).unwrap() {
            got.push(pair);
            if got.len() == 30 {
                break;
            }
        }
        db.release_iter(&mut iter);
        let want: Vec<KvPair> = model
            .range(start.clone()..)
            .take(30)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert!(got == want, "{what}: scan from {start:?}");
    }
    t
}

#[test]
fn searches_never_hit_a_table_a_compaction_or_a_reopen_replaced() {
    const KEYS: u64 = 400;
    for seed in matrix_seeds(4) {
        let mut rng = Prng::seed_from_u64(seed);
        let (ftl, store) = small_store(seed % 2 == 1);
        let config = DbConfig {
            memtable_bytes: 64 * 1024,
            table_bytes: 8 * 16 * 1024,
            level_base_blocks: 16,
            level_multiplier: 4,
            max_levels: 3,
            ..DbConfig::default()
        };
        let mut db = Db::new(store.clone(), config);
        let mut model = Model::new();
        let mut t = SimTime::ZERO;
        for round in 0..4 {
            // Every block of every live table gets searched, so every one
            // has its anchors when the next round's compactions replace it.
            t = churn(&mut db, &mut model, &mut rng, t, KEYS, 600);
            let what = format!("seed {seed} round {round}");
            t = check(&mut db, &model, &mut rng, t, KEYS, &what);
        }
        assert!(db.compaction_stats().compactions >= 4, "seed {seed}");
        let (mut db, t) = Db::open_with_tables(store, config, &ftl.surviving_tables(), t).unwrap();
        let t = check(
            &mut db,
            &model,
            &mut rng,
            t,
            KEYS,
            &format!("seed {seed} reopened"),
        );
        // And the reopened tables compact like any others.
        let t = churn(&mut db, &mut model, &mut rng, t, KEYS, 600);
        check(
            &mut db,
            &model,
            &mut rng,
            t,
            KEYS,
            &format!("seed {seed} reopened, churned"),
        );
    }
}

/// CRC of every table a fixed workload leaves behind — overwrites, deletes
/// and a range delete, under a snapshot that keeps old versions alive
/// through the first compactions — in table-id order.
fn compacted_tables_digest(by_copy: bool) -> (u32, u64) {
    let (ftl, store) = small_store(by_copy);
    let mut db = Db::new(
        store.clone(),
        DbConfig {
            memtable_bytes: 48 * 1024,
            table_bytes: 6 * 16 * 1024,
            level_base_blocks: 12,
            level_multiplier: 4,
            max_levels: 3,
            ..DbConfig::default()
        },
    );
    let mut rng = Prng::seed_from_u64(16);
    let mut model = Model::new();
    let mut t = churn(&mut db, &mut model, &mut rng, SimTime::ZERO, 300, 500);
    let pinned = db.snapshot();
    t = churn(&mut db, &mut model, &mut rng, t, 300, 700);
    t = match db.delete_range(t, &key(100), &key(140)).unwrap() {
        PutOutcome::Done(done) => done,
        PutOutcome::Stalled(_) => panic!("settled, never stalled"),
    };
    t = churn(&mut db, &mut model, &mut rng, t, 300, 400);
    db.release_snapshot(pinned);
    t = churn(&mut db, &mut model, &mut rng, t, 300, 400);
    let mut tables = ftl.surviving_tables();
    tables.sort_unstable();
    let mut bytes = Vec::new();
    let mut block = vec![0u8; store.block_bytes()];
    for (id, blocks) in tables {
        for b in 0..blocks {
            t = store.read_block(t, id, b, &mut block).unwrap();
            bytes.extend_from_slice(&block);
        }
    }
    (crc32c(&bytes), db.compaction_stats().compactions)
}

#[test]
fn a_compaction_writes_the_bytes_it_wrote_when_it_copied_twice() {
    // Taken at the commit before streams kept views, with this very function
    // — when a table reached its store as one buffer of bytes. Handed over
    // block by block in the buffers they were built in, or put together again
    // by a store that only knows `flush_table`, it is the same table.
    assert_eq!(compacted_tables_digest(false), (1_983_485_047, 9));
    assert_eq!(compacted_tables_digest(true), (1_983_485_047, 9));
}
