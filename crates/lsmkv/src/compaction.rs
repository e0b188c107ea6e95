//! K-way merge and leveled compaction.
//!
//! In LightLSM, "garbage collection is a side-effect of compaction" (§4.3):
//! compaction reads input SSTables block by block (charging device time),
//! merges them in `(key asc, seq desc)` order, keeps the newest version of
//! each key, writes output tables, and deletes the inputs — which the FTL
//! turns into chunk erases only.

use crate::block::{BlockCursor, EntryView};
use crate::sstable::TableHandle;
use crate::store::{StoreError, TableStore};
use ocssd::Payload;
use ox_sim::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// One version copied out: key, sequence number, `Some(value)` or a
/// tombstone. What memtable cursors yield; tables yield [`EntryView`]s.
pub(crate) type Entry = (Vec<u8>, u64, Option<Vec<u8>>);

/// Cumulative compaction statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionStats {
    /// Compactions completed.
    pub compactions: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Blocks read from input tables.
    pub blocks_read: u64,
    /// Blocks written to output tables.
    pub blocks_written: u64,
    /// Entries surviving merges.
    pub entries_out: u64,
    /// Tombstones dropped at the bottom level.
    pub tombstones_dropped: u64,
    /// Versions dropped because a newer one of their key was kept.
    pub entries_shadowed: u64,
    /// Total virtual nanoseconds spent in flushes.
    pub flush_nanos: u64,
    /// Total virtual nanoseconds spent in compactions.
    pub compaction_nanos: u64,
}

/// How many block reads a stream keeps in flight beyond the block being
/// consumed. RocksDB-style readahead: consecutive blocks of a striped table
/// sit on different parallel units, so prefetch depth is what converts
/// device parallelism into sequential read bandwidth — and what makes
/// compaction placement-sensitive (the Figure 5/6 dynamics).
pub(crate) const PREFETCH_DEPTH: usize = 4;

/// A buffered, prefetching reader over one sorted run — a single table, or
/// the tables of a sorted level one after the other — yielding versions in
/// `(key asc, seq desc)` order. Only the table being read is ever open: the
/// next one is touched when the readahead window crosses into it.
pub(crate) struct TableStream {
    /// The run, in key order; keys of its tables are disjoint.
    tables: Vec<Arc<TableHandle>>,
    rank: usize,
    /// Table of the run that `next_block` belongs to.
    cur: usize,
    /// Next block to submit a read for.
    next_block: u32,
    /// Blocks in flight, in block order, as the device handed them out.
    inflight: VecDeque<InflightBlock>,
    /// The block currently being consumed, read where it lies: nothing is
    /// decoded ahead of the consumer, nothing copied until it asks.
    cursor: Option<BlockCursor>,
    /// Blocks to keep in flight while one is being consumed. A reader that
    /// works through a whole block is taken to be sequential: each such
    /// block adds one, up to [`PREFETCH_DEPTH`]. A short scan therefore
    /// reads the block it starts in and, at most, the ones it runs over
    /// into — on LightLSM every needless read is a full 96 KB unit — while
    /// a long one is at full bandwidth half a dozen blocks in.
    readahead: usize,
    /// Where `seek` positioned the stream: the block it landed in is entered
    /// at the first key ≥ this.
    start: Vec<u8>,
    /// The next block handed to the consumer is the one `seek` landed in.
    seeked: bool,
}

struct InflightBlock {
    block: Payload,
    /// Which table of the run, and which of its blocks, this is.
    table: usize,
    index: u32,
    ready_at: SimTime,
    /// Last block of its table: whatever was left when the builder cut the
    /// table, often a single entry.
    tail: bool,
}

impl TableStream {
    /// A stream over `tables` starting with `readahead` blocks of window:
    /// 0 for a user scan (it ramps), [`PREFETCH_DEPTH`] for compaction
    /// inputs, which are always read to the end.
    ///
    /// `rank` breaks ties on identical `(key, seq)` pairs, which can only
    /// arise when crash recovery resurrects both a compaction's inputs and
    /// its committed outputs: smaller rank wins, the duplicate is dropped.
    pub(crate) fn new(tables: Vec<Arc<TableHandle>>, rank: usize, readahead: usize) -> Self {
        TableStream {
            tables,
            rank,
            cur: 0,
            next_block: 0,
            inflight: VecDeque::new(),
            cursor: None,
            readahead,
            start: Vec::new(),
            seeked: false,
        }
    }

    /// Positions the stream at the first key ≥ `start` without reading
    /// the blocks before it. The run is expected to begin with the table
    /// that key falls in (see `Version::scan_runs`).
    pub(crate) fn seek(&mut self, start: &[u8]) {
        debug_assert!(self.inflight.is_empty() && self.cursor.is_none());
        self.next_block = self
            .tables
            .first()
            .and_then(|t| t.block_for(start))
            .unwrap_or(0);
        self.start = start.to_vec();
        self.seeked = true;
    }

    /// Submits reads at time `t` until `window` blocks are in flight,
    /// moving on to the run's next table when one is exhausted.
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
            self.inflight.push_back(InflightBlock {
                block,
                table: self.cur,
                index: self.next_block,
                ready_at: done,
                tail: self.next_block + 1 == table.data_blocks,
            });
            self.next_block += 1;
            submitted += 1;
        }
        Ok(submitted)
    }

    /// Makes entries available (if any remain), waiting on the next block's
    /// arrival and topping the window back up. Returns blocks submitted;
    /// advances `t` when the merge has to wait for media.
    fn refill(&mut self, store: &Arc<dyn TableStore>, t: &mut SimTime) -> Result<u64, StoreError> {
        if self.peek().is_some() {
            return Ok(0);
        }
        let mut submitted = self.pump(store, *t, self.readahead.max(1))?;
        while self.peek().is_none() {
            let Some(block) = self.inflight.pop_front() else {
                break;
            };
            *t = (*t).max(block.ready_at);
            let seeked = std::mem::take(&mut self.seeked);
            let mut cursor = if seeked {
                // Enter at the first key ≥ `start`: from the anchor below
                // it, over the few entries in between.
                let table = &self.tables[block.table];
                let from = table.seek_in_block(block.index, &block.block, &self.start);
                BlockCursor::new(block.block, from)
            } else {
                BlockCursor::new(block.block, 0)
            };
            while seeked && cursor.peek().is_some_and(|(k, _)| k < &self.start[..]) {
                cursor.skip();
            }
            self.cursor = Some(cursor);
            submitted += self.pump(store, *t, self.readahead)?;
            // The window grows once this block is used up — unless it says
            // nothing about the reader: the block a seek landed in is
            // entered mid-way, a table's last block may be over at once.
            if !seeked && !block.tail {
                self.readahead = (self.readahead + 1).min(PREFETCH_DEPTH);
            }
        }
        Ok(submitted)
    }

    fn peek(&self) -> Option<(&[u8], u64)> {
        self.cursor.as_ref()?.peek()
    }

    fn pop(&mut self) -> Option<EntryView> {
        self.cursor.as_mut()?.pop()
    }

    fn skip(&mut self) {
        if let Some(cursor) = &mut self.cursor {
            cursor.skip();
        }
    }
}

/// Merges several table streams into one `(key asc, seq desc)` sequence,
/// charging block-read time. All versions are yielded — pruning is the
/// caller's job — except exact `(key, seq)` duplicates across streams,
/// which are collapsed to one.
///
/// The streams that have an entry buffered sit in a binary min-heap ordered
/// by what they would yield next — key ascending, then sequence number
/// descending, then rank ascending — so an entry costs O(log streams) key
/// comparisons, not a pass over every stream: the tables of a sorted level
/// are disjoint, and all but one of them wait at the bottom of the heap.
pub(crate) struct MergeIter {
    streams: Vec<TableStream>,
    store: Arc<dyn TableStore>,
    blocks_read: u64,
    /// Indices of the streams with an entry buffered, as a min-heap.
    heap: Vec<usize>,
    /// Indices of the streams whose cursor has run out since they were last
    /// refilled: all of them, before the first call.
    dry: Vec<usize>,
}

/// Whether `a` yields before `b`; a stream with nothing buffered yields last.
fn yields_before(a: &TableStream, b: &TableStream) -> bool {
    match (a.peek(), b.peek()) {
        (Some((ka, sa)), Some((kb, sb))) => ka
            .cmp(kb)
            .then(sb.cmp(&sa))
            .then(a.rank.cmp(&b.rank))
            .is_lt(),
        (a, _) => a.is_some(),
    }
}

impl MergeIter {
    pub(crate) fn new(streams: Vec<TableStream>, store: Arc<dyn TableStore>) -> Self {
        MergeIter {
            heap: Vec::with_capacity(streams.len()),
            dry: (0..streams.len()).collect(),
            streams,
            store,
            blocks_read: 0,
        }
    }

    /// Blocks read since the last call.
    pub(crate) fn take_blocks_read(&mut self) -> u64 {
        std::mem::take(&mut self.blocks_read)
    }

    /// Moves the stream at heap position `pos` up to where it belongs.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !yields_before(
                &self.streams[self.heap[pos]],
                &self.streams[self.heap[parent]],
            ) {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Moves the stream at heap position `pos` down to where it belongs.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let mut first = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len()
                    && yields_before(
                        &self.streams[self.heap[child]],
                        &self.streams[self.heap[first]],
                    )
                {
                    first = child;
                }
            }
            if first == pos {
                return;
            }
            self.heap.swap(pos, first);
            pos = first;
        }
    }

    /// Puts the heap right after its top stream was advanced: the stream
    /// sinks to where its next entry belongs, or leaves the heap for the dry
    /// list if its cursor has run out.
    fn settle_top(&mut self) {
        let Some(&top) = self.heap.first() else {
            return;
        };
        if self.streams[top].peek().is_none() {
            self.heap.swap_remove(0);
            self.dry.push(top);
        }
        self.sift_down(0);
    }

    /// Next version in `(key asc, seq desc)` order. Advances `t` for every
    /// block fetched.
    pub(crate) fn next(&mut self, t: &mut SimTime) -> Result<Option<EntryView>, StoreError> {
        // Ensure every stream is either buffered or exhausted. Block reads
        // are issued — and `t` moves — stream by stream in index order, as
        // if every stream were looked at.
        self.dry.sort_unstable();
        for n in 0..self.dry.len() {
            let i = self.dry[n];
            match self.streams[i].refill(&self.store, t) {
                Ok(read) => self.blocks_read += read,
                Err(e) => {
                    self.dry.drain(..n);
                    return Err(e);
                }
            }
            if self.streams[i].peek().is_some() {
                self.heap.push(i);
                self.sift_up(self.heap.len() - 1);
            }
        }
        self.dry.clear();
        // Smallest key; ties to the highest seq, then the lowest rank.
        let Some(&winner) = self.heap.first() else {
            return Ok(None);
        };
        let Some(entry) = self.streams[winner].pop() else {
            return Ok(None); // unreachable: streams in the heap have an entry
        };
        self.settle_top();
        // Collapse the exact same (key, seq) from every other stream — only
        // possible after a crash resurrected a compaction's inputs alongside
        // its committed outputs. Equal pairs are neighbours in the heap's
        // order, so they come to the top one after the other. (A stream's own
        // pairs are distinct: its order is strict.)
        while let Some(&top) = self.heap.first() {
            if self.streams[top].peek() != Some((entry.key(), entry.seq())) {
                break;
            }
            self.streams[top].skip();
            self.settle_top();
        }
        Ok(Some(entry))
    }

    /// [`MergeIter::next`] as it was before the heap: three passes over all
    /// streams per entry. The reference the heap is held to — same entries,
    /// same block reads at the same times. Not to be mixed with `next` on
    /// one merge.
    #[cfg(test)]
    pub(crate) fn next_by_scan(
        &mut self,
        t: &mut SimTime,
    ) -> Result<Option<EntryView>, StoreError> {
        for s in &mut self.streams {
            self.blocks_read += s.refill(&self.store, t)?;
        }
        let mut winner: Option<(usize, &[u8], u64, usize)> = None; // (idx, key, seq, rank)
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
        let Some(entry) = self.streams[wi].pop() else {
            return Ok(None);
        };
        for (i, s) in self.streams.iter_mut().enumerate() {
            if i == wi {
                continue;
            }
            while s.peek() == Some((entry.key(), entry.seq())) {
                s.skip();
            }
        }
        Ok(Some(entry))
    }
}

/// Whether a compaction keeps the newest version of a key, given its
/// sequence number and whether it is a tombstone; every older version goes.
///
/// At the bottom level (`drop_tombstones` = `Some(newest)`) a tombstone
/// hides nothing, so it goes too — except the one at sequence number
/// `newest`, the highest among the compaction's inputs. Recovery restarts
/// the write sequence above the highest sequence number of the surviving
/// tables, so a compaction must never lower it: if it did, a crash would
/// hand that number out again, and the recovered store, which holds the
/// dropped delete's effect, would claim the shorter prefix that ends before
/// it.
pub(crate) fn keeps(seq: u64, tombstone: bool, drop_tombstones: Option<u64>) -> bool {
    !tombstone || drop_tombstones.is_none_or(|newest| seq == newest)
}

/// Inputs to one compaction.
pub(crate) struct CompactionJob {
    /// Source level.
    pub from_level: usize,
    /// Destination level.
    pub to_level: usize,
    /// Input tables (handles shared with the version), newest first.
    pub inputs: Vec<Arc<TableHandle>>,
    /// Whether tombstones can be dropped (no deeper data).
    pub drop_tombstones: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Db, DbConfig, PutOutcome};
    use crate::sstable::TableBuilder;
    use crate::store::lightlsm_test_store;
    use lightlsm::Placement;

    /// At the bottom level, in a compaction whose newest version belongs to
    /// another key.
    const BOTTOM: Option<u64> = Some(1_000);

    fn store(placement: Placement) -> Arc<dyn TableStore> {
        Arc::new(lightlsm_test_store(placement))
    }

    fn key(i: u64) -> Vec<u8> {
        format!("{i:016}").into_bytes()
    }

    /// Flushes a table of 1 KB values under keys `first..first + entries`.
    fn table(store: &Arc<dyn TableStore>, first: u64, entries: u64) -> Arc<TableHandle> {
        let mut b = TableBuilder::new(store.block_bytes(), 10);
        for i in first..first + entries {
            b.add(&key(i), i + 1, Some(&[7u8; 1024]));
        }
        let (blocks, mut handle) = b.finish();
        handle.id = store.flush_table_blocks(SimTime::ZERO, &blocks).unwrap().0;
        Arc::new(handle)
    }

    /// Reads `stream` to the end on an idle device; returns the keys, how
    /// many blocks had been read when each block's first entry came out,
    /// and the time it took.
    fn read_out(
        stream: TableStream,
        store: &Arc<dyn TableStore>,
    ) -> (Vec<String>, Vec<u64>, ox_sim::SimDuration) {
        let idle = SimTime::from_secs(1);
        let mut merge = MergeIter::new(vec![stream], store.clone());
        let (mut keys, mut fetched, mut blocks, mut t) = (Vec::new(), Vec::new(), 0, idle);
        while let Some(e) = merge.next(&mut t).unwrap() {
            let read = merge.take_blocks_read();
            if read > 0 {
                blocks += read;
                fetched.push(blocks);
            }
            keys.push(String::from_utf8(e.key().to_vec()).unwrap());
        }
        (keys, fetched, t.saturating_since(idle))
    }

    #[test]
    fn a_scan_stream_reads_what_it_is_asked_for_then_ramps_up() {
        let store = store(Placement::Horizontal);
        let h = table(&store, 0, 2000);
        // Start in the middle of the second block.
        let start = h.index.last_key(1).to_vec();
        let mut stream = TableStream::new(vec![h.clone()], 0, 0);
        stream.seek(&start);
        let (keys, fetched, _) = read_out(stream, &store);
        assert_eq!(keys.first().map(String::as_bytes), Some(&start[..]));
        assert_eq!(keys.last().map(String::as_bytes), Some(&h.max_key[..]));
        // The block the seek landed in, the next one on its own, and from
        // then on one more block of window per block used up, to four.
        assert_eq!(fetched[..7], [1, 2, 4, 6, 8, 10, 11]);
        assert_eq!(*fetched.last().unwrap(), u64::from(h.data_blocks) - 1);
    }

    #[test]
    fn a_run_is_read_table_after_table_from_the_first_in_range() {
        let store = store(Placement::Horizontal);
        let run = vec![
            table(&store, 0, 150),
            table(&store, 150, 150),
            table(&store, 300, 150),
        ];
        // The last key of the first table is the one entry of its last
        // block the scan wants; everything else comes from the other two.
        let mut stream = TableStream::new(run.clone(), 0, 0);
        stream.seek(&key(149));
        let (keys, fetched, _) = read_out(stream, &store);
        let want: Vec<String> = (149..450).map(|i| format!("{i:016}")).collect();
        assert_eq!(keys, want);
        assert_eq!(
            fetched[..3],
            [1, 2, 4],
            "readahead runs on into the next table"
        );
        assert_eq!(
            *fetched.last().unwrap(),
            1 + u64::from(run[1].data_blocks + run[2].data_blocks)
        );
    }

    #[test]
    fn ramping_up_costs_a_long_read_two_block_latencies_at_most() {
        for placement in [Placement::Horizontal, Placement::Vertical] {
            // A fresh device per reading: they all start at the same time.
            let read = |readahead, entries| {
                let store = store(placement);
                let h = table(&store, 0, entries);
                read_out(TableStream::new(vec![h], 0, readahead), &store).2
            };
            let one_block = read(0, 1);
            let (ramped, eager) = (read(0, 5000), read(PREFETCH_DEPTH, 5000));
            assert!(ramped >= eager);
            assert!(
                ramped - eager <= one_block * 2,
                "{placement:?}: ramped {ramped:?}, eager {eager:?}, one block {one_block:?}"
            );
        }
    }

    #[test]
    fn latest_reader_keeps_newest_only() {
        // Four L0 tables, each with a version of one key: the compaction
        // they trigger writes the newest alone.
        let mut db = Db::new(store(Placement::Horizontal), DbConfig::default());
        let mut t = SimTime::ZERO;
        for v in 1..=4u8 {
            let PutOutcome::Done(done) = db.put(t, b"k", &[v]).unwrap() else {
                panic!("an empty store never stalls");
            };
            db.seal_memtable();
            t = db.flush_once(done).unwrap().unwrap();
        }
        while let Some(done) = db.compact_once(t).unwrap() {
            t = done;
        }
        let cs = db.compaction_stats();
        assert_eq!(
            (cs.compactions, cs.entries_out, cs.entries_shadowed),
            (1, 1, 3)
        );
        assert_eq!(db.get(t, b"k").unwrap().0, Some(vec![4]));
    }

    #[test]
    fn bottom_drops_trailing_tombstones() {
        // Nothing lives below the bottom level: a tombstone hides nothing
        // there and goes.
        assert!(!keeps(9, true, BOTTOM));
        // Above the bottom it must survive to shadow deeper data.
        assert!(keeps(9, true, None));
        // A live version stays wherever it is.
        assert!(keeps(9, false, BOTTOM));
        assert!(keeps(9, false, None));
    }

    #[test]
    fn the_newest_tombstone_of_a_compaction_survives_the_bottom() {
        // The tombstone at 9 carries the compaction's highest sequence
        // number: it stays. An older one goes.
        assert!(keeps(9, true, Some(9)));
        assert!(!keeps(7, true, Some(9)));
    }
}
