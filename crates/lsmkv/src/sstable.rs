//! SSTable format: data blocks + an embedded meta region (index + bloom).
//!
//! ```text
//! table := data_block+  meta_block+
//! meta  := index(count, [last_key, block_idx]*) bloom min_key max_key
//!          min_seq:u64 max_seq:u64
//! trailer (last 20 bytes of the final block):
//!         meta_first_block:u32 | meta_len:u32 | entries:u64 | crc:u32
//! ```
//!
//! Data blocks hold one `(key, seq, value)` version of each key, in key
//! order. Every block is one
//! LightLSM block (96 KB on the paper drive). The index and bloom are kept
//! in memory by the version set after a flush or compaction builds them;
//! [`TableHandle::from_bytes`] re-parses them when a table is reopened after
//! recovery.
//!
//! A handle also caches what only the host needs: a search index per data
//! block (see [`crate::block`]), built the first time the block is searched.
//! It is not part of the table — a handle reparsed from media starts without.

use crate::block::{BlockAnchors, BlockBuilder};
use crate::bloom::{BloomFilter, KeyHash};
use ocssd::{Payload, PayloadBuf};
use ox_core::codec::{crc32c, Decoder, Encoder};
use std::cell::OnceCell;

const TRAILER_BYTES: usize = 20;

/// The last key of every data block, in block order, in one buffer: the
/// table-level index. Block `i`'s key is the `i`th.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockIndex {
    keys: Vec<u8>,
    /// Where each block's key ends in `keys` (it starts where the one
    /// before ends).
    ends: Vec<u32>,
}

impl BlockIndex {
    fn push(&mut self, last_key: &[u8]) {
        self.keys.extend_from_slice(last_key);
        self.ends.push(self.keys.len() as u32);
    }

    /// Number of data blocks indexed.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True for a table without data blocks.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Last key of data block `block`.
    pub fn last_key(&self, block: usize) -> &[u8] {
        let start = block.checked_sub(1).map_or(0, |b| self.ends[b] as usize);
        &self.keys[start..self.ends[block] as usize]
    }

    /// First block whose last key is ≥ `key`: the one that may contain it.
    fn block_for(&self, key: &[u8]) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.last_key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.len()).then_some(lo as u32)
    }
}

/// In-memory metadata of one SSTable.
#[derive(Clone, Debug)]
pub struct TableHandle {
    /// Backend table id (assigned at flush).
    pub id: u64,
    /// Flush sequence (newer memtables have higher seq); 0 for compaction
    /// outputs, which never sit in L0. After recovery this is re-seeded from
    /// `max_seq` so L0 ordering tracks data recency.
    pub seq: u64,
    /// Number of data blocks.
    pub data_blocks: u32,
    /// Last key of each data block.
    pub index: BlockIndex,
    /// Bloom filter over all keys.
    pub bloom: BloomFilter,
    /// Version count (tombstones included).
    pub entries: u64,
    /// Smallest key.
    pub min_key: Vec<u8>,
    /// Largest key.
    pub max_key: Vec<u8>,
    /// Smallest sequence number of any version.
    pub min_seq: u64,
    /// Largest sequence number of any version.
    pub max_seq: u64,
    /// Search index of each data block, empty until the block is searched.
    anchors: Vec<OnceCell<BlockAnchors>>,
}

impl TableHandle {
    /// Data block that may contain `key`, or `None` if out of range.
    pub fn block_for(&self, key: &[u8]) -> Option<u32> {
        self.index.block_for(key)
    }

    /// Where in data block `index`, read as `block`, a walk towards `key`
    /// may start: every entry before that offset has a smaller key (see
    /// [`BlockAnchors::seek`]). The first call for a block builds its
    /// anchors from `block`.
    pub(crate) fn seek_in_block(&self, index: u32, block: &Payload, key: &[u8]) -> usize {
        let data = block.bytes();
        self.anchors[index as usize]
            .get_or_init(|| BlockAnchors::build(data))
            .seek(data, key)
    }

    /// Whether the table's key range intersects `[min, max]`.
    pub fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        !(self.max_key.as_slice() < min || self.min_key.as_slice() > max)
    }

    /// Rebuilds a handle from full table bytes (recovery path).
    pub fn from_bytes(id: u64, block_bytes: usize, data: &[u8]) -> Option<TableHandle> {
        if data.len() < TRAILER_BYTES || !data.len().is_multiple_of(block_bytes) {
            return None;
        }
        let t = &data[data.len() - TRAILER_BYTES..];
        let mut d = Decoder::new(t);
        let meta_first = d.u32().ok()? as usize;
        let meta_len = d.u32().ok()? as usize;
        let entries = d.u64().ok()?;
        let crc = d.u32().ok()?;
        let meta_start = meta_first * block_bytes;
        if meta_start + meta_len > data.len() {
            return None;
        }
        let meta = &data[meta_start..meta_start + meta_len];
        if crc32c(meta) != crc {
            return None;
        }
        let mut d = Decoder::new(meta);
        let count = d.u32().ok()?;
        let mut index = BlockIndex::default();
        for i in 0..count {
            let key = d.var_bytes().ok()?;
            // Blocks are indexed in order: the number repeats the position.
            if d.u32().ok()? != i {
                return None;
            }
            index.push(key);
        }
        if index.len() != meta_first {
            return None;
        }
        let bloom = BloomFilter::decode(&mut d)?;
        let min_key = d.var_bytes().ok()?.to_vec();
        let max_key = d.var_bytes().ok()?.to_vec();
        let min_seq = d.u64().ok()?;
        let max_seq = d.u64().ok()?;
        Some(TableHandle {
            id,
            seq: max_seq,
            data_blocks: meta_first as u32,
            index,
            bloom,
            entries,
            min_key,
            max_key,
            min_seq,
            max_seq,
            anchors: vec![OnceCell::new(); meta_first],
        })
    }
}

/// Streams sorted versions into an SSTable: a run of blocks, each built
/// where flash will keep it (see [`BlockBuilder`]).
pub struct TableBuilder {
    block_bytes: usize,
    bits_per_key: u32,
    blocks: Vec<Payload>,
    /// The block being filled; allocated by the entry that opens it.
    current: Option<BlockBuilder>,
    index: BlockIndex,
    /// Bloom hash of every distinct key, in key order.
    key_hashes: Vec<KeyHash>,
    min_key: Vec<u8>,
    last_key: Vec<u8>,
    entries: u64,
    min_seq: u64,
    max_seq: u64,
}

impl TableBuilder {
    /// A builder emitting `block_bytes`-sized blocks.
    pub fn new(block_bytes: usize, bits_per_key: u32) -> Self {
        TableBuilder {
            block_bytes,
            bits_per_key,
            blocks: Vec::new(),
            current: None,
            index: BlockIndex::default(),
            key_hashes: Vec::new(),
            min_key: Vec::new(),
            last_key: Vec::new(),
            entries: 0,
            min_seq: u64::MAX,
            max_seq: 0,
        }
    }

    /// Appends the one version of `key` the table holds; keys must arrive
    /// in strictly ascending order.
    pub fn add(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        debug_assert!(
            self.entries == 0 || key > self.last_key.as_slice(),
            "keys must strictly ascend"
        );
        if self.current.as_ref().is_some_and(|b| !b.fits(key, value)) {
            self.cut_block();
        }
        let block_bytes = self.block_bytes;
        self.current
            .get_or_insert_with(|| BlockBuilder::new(block_bytes))
            .add(key, seq, value);
        if self.entries == 0 {
            self.min_key = key.to_vec();
        }
        self.key_hashes.push(BloomFilter::hash(key));
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
        self.min_seq = self.min_seq.min(seq);
        self.max_seq = self.max_seq.max(seq);
    }

    /// Closes the block being filled, if there is one.
    fn cut_block(&mut self) {
        if let Some(finished) = self.current.take() {
            self.index.push(&self.last_key);
            self.blocks.push(finished.finish());
        }
    }

    /// Versions added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Approximate finished size in bytes (data blocks only).
    pub fn estimated_bytes(&self) -> usize {
        (self.blocks.len() + 1) * self.block_bytes
    }

    /// Conservative estimate of the finished table size *including* the
    /// meta region (index, bloom, trailer). Used to cut output tables so
    /// they never exceed a backend's capacity.
    pub fn projected_total_bytes(&self) -> usize {
        let key_len = self.last_key.len().max(16);
        let meta_bytes = 4
            + (self.index.len() + 2) * (12 + key_len) // index entries (+ the open block's)
            + self.key_hashes.len() * (self.bits_per_key as usize) / 8
            + 64 // bloom header + slack
            + 2 * (4 + key_len) // min/max keys
            + 16 // min/max seq
            + TRAILER_BYTES;
        let meta_blocks = meta_bytes.div_ceil(self.block_bytes).max(1);
        (self.blocks.len() + 1 + meta_blocks) * self.block_bytes
    }

    /// True if no version was added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finishes the table: returns it as its blocks — the data blocks as
    /// they were built, then the meta region cut into blocks — and the
    /// in-memory handle (with `id` = 0, to be set after the flush). The
    /// table's bytes are the blocks' one after the other
    /// ([`crate::store::concat_blocks`]).
    pub fn finish(mut self) -> (Vec<Payload>, TableHandle) {
        assert!(!self.is_empty(), "empty table");
        self.cut_block();
        let data_blocks = self.blocks.len() as u32;

        let mut bloom = BloomFilter::new(self.key_hashes.len(), self.bits_per_key);
        for &hash in &self.key_hashes {
            bloom.insert_hash(hash);
        }

        let mut meta = Encoder::new();
        meta.u32(self.index.len() as u32);
        for block in 0..self.index.len() {
            meta.var_bytes(self.index.last_key(block)).u32(block as u32);
        }
        bloom.encode(&mut meta);
        meta.var_bytes(&self.min_key);
        meta.var_bytes(&self.last_key);
        meta.u64(self.min_seq).u64(self.max_seq);
        let meta = meta.finish();
        let mut trailer = Encoder::new();
        trailer
            .u32(data_blocks)
            .u32(meta.len() as u32)
            .u64(self.entries)
            .u32(crc32c(&meta));

        // Pack meta into trailing blocks, the trailer at the very end of the
        // last one.
        let meta_blocks = (meta.len() + TRAILER_BYTES)
            .div_ceil(self.block_bytes)
            .max(1);
        let mut pieces = meta.chunks(self.block_bytes);
        for i in 0..meta_blocks {
            let mut block = PayloadBuf::zeroed(self.block_bytes);
            let out = block.bytes_mut();
            let piece = pieces.next().unwrap_or_default();
            out[..piece.len()].copy_from_slice(piece);
            if i + 1 == meta_blocks {
                out[self.block_bytes - TRAILER_BYTES..].copy_from_slice(trailer.as_slice());
            }
            self.blocks.push(block.freeze());
        }

        let handle = TableHandle {
            id: 0,
            seq: 0,
            data_blocks,
            index: self.index,
            bloom,
            entries: self.entries,
            min_key: self.min_key,
            max_key: self.last_key,
            min_seq: self.min_seq,
            max_seq: self.max_seq,
            anchors: vec![OnceCell::new(); data_blocks as usize],
        };
        (self.blocks, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockIter;

    const BLOCK: usize = 8192;

    fn key(i: u64) -> Vec<u8> {
        format!("{i:016}").into_bytes()
    }

    /// The finished table as its bytes.
    fn finish(b: TableBuilder) -> (Vec<u8>, TableHandle) {
        let (blocks, handle) = b.finish();
        (crate::store::concat_blocks(&blocks), handle)
    }

    fn build(n: u64, vlen: usize) -> (Vec<u8>, TableHandle) {
        let mut b = TableBuilder::new(BLOCK, 10);
        for i in 0..n {
            let v = vec![(i % 251) as u8; vlen];
            b.add(&key(i), i + 1, Some(&v));
        }
        finish(b)
    }

    #[test]
    fn table_layout_is_block_aligned() {
        let (bytes, h) = build(100, 100);
        assert_eq!(bytes.len() % BLOCK, 0);
        assert!(h.data_blocks >= 1);
        assert_eq!(h.entries, 100);
        assert_eq!(h.min_key, key(0));
        assert_eq!(h.max_key, key(99));
        assert_eq!(h.index.len(), h.data_blocks as usize);
        assert_eq!(h.min_seq, 1);
        assert_eq!(h.max_seq, 100);
    }

    #[test]
    fn every_key_locatable_through_index() {
        let (bytes, h) = build(500, 100);
        for i in 0..500 {
            let k = key(i);
            let b = h.block_for(&k).expect("in range") as usize;
            let block = &bytes[b * BLOCK..(b + 1) * BLOCK];
            let found = BlockIter::find(block, &k);
            assert_eq!(
                found,
                Some((i + 1, Some(&vec![(i % 251) as u8; 100][..]))),
                "key {i}"
            );
        }
    }

    #[test]
    fn anchors_are_built_by_the_first_search_and_stay_off_the_media() {
        let (bytes, h) = build(500, 100);
        let cells = |h: &TableHandle| -> Vec<bool> {
            h.anchors.iter().map(|c| c.get().is_some()).collect()
        };
        assert_eq!(cells(&h), vec![false; h.data_blocks as usize]);
        let k = key(499);
        let b = h.block_for(&k).unwrap();
        let (block, ()) = Payload::filled(BLOCK, |out| {
            out.copy_from_slice(&bytes[b as usize * BLOCK..][..BLOCK]);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        let from = h.seek_in_block(b, &block, &k);
        assert!(from > 0, "the last key of a block is past its first anchor");
        let found = crate::block::with_entries(&block, from, |e| {
            e.lookup(&k).map(|(s, v)| (s, v.map(<[u8]>::to_vec)))
        });
        assert_eq!(found, Some((500, Some(vec![(499 % 251) as u8; 100]))));
        let searched: Vec<bool> = (0..h.data_blocks).map(|i| i == b).collect();
        assert_eq!(cells(&h), searched);
        // A clone shares nothing but starts with what was built; a handle
        // parsed back from the table's bytes starts with nothing.
        assert_eq!(cells(&h.clone()), searched);
        let reopened = TableHandle::from_bytes(7, BLOCK, &bytes).unwrap();
        assert_eq!(cells(&reopened), vec![false; h.data_blocks as usize]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "keys must strictly ascend")]
    fn a_second_version_of_a_key_is_refused() {
        let mut b = TableBuilder::new(BLOCK, 10);
        b.add(b"k", 2, Some(b"new"));
        b.add(b"k", 1, Some(b"old"));
    }

    #[test]
    fn out_of_range_keys_skip_table() {
        let (_, h) = build(10, 10);
        assert_eq!(h.block_for(b"0000000000000100"), None); // beyond max
        assert!(h.block_for(&key(5)).is_some());
    }

    #[test]
    fn bloom_covers_all_keys() {
        let (_, h) = build(300, 50);
        for i in 0..300 {
            assert!(h.bloom.maybe_contains(&key(i)));
        }
        let fps = (1000..2000)
            .filter(|&i| h.bloom.maybe_contains(&key(i)))
            .count();
        assert!(fps < 60, "{fps} false positives");
    }

    #[test]
    fn handle_round_trips_through_bytes() {
        let mut b = TableBuilder::new(BLOCK, 10);
        for i in 0..500u64 {
            if i == 100 {
                b.add(&key(i), 777, None);
            } else {
                b.add(&key(i), i + 1, Some(&[(i % 251) as u8; 100]));
            }
        }
        let (bytes, h) = finish(b);
        let back = TableHandle::from_bytes(7, BLOCK, &bytes).expect("parse");
        assert_eq!(back.id, 7);
        assert_eq!(back.data_blocks, h.data_blocks);
        assert_eq!(back.index, h.index);
        assert_eq!(back.entries, h.entries);
        assert_eq!(back.min_key, h.min_key);
        assert_eq!(back.max_key, h.max_key);
        assert_eq!(back.bloom, h.bloom);
        assert_eq!(back.min_seq, 1);
        assert_eq!(back.max_seq, 777);
        assert_eq!(back.seq, back.max_seq, "recovered seq tracks max_seq");
    }

    #[test]
    fn corrupt_meta_rejected() {
        let (mut bytes, _) = build(50, 100);
        let len = bytes.len();
        bytes[len - TRAILER_BYTES + 2] ^= 0x7F; // mangle meta_len
        assert!(TableHandle::from_bytes(1, BLOCK, &bytes).is_none());
        let (mut bytes2, _) = build(50, 100);
        // Flip a meta byte (first byte of the meta region).
        let h = TableHandle::from_bytes(1, BLOCK, &bytes2).unwrap();
        let meta_start = h.data_blocks as usize * BLOCK;
        bytes2[meta_start] ^= 0xFF;
        assert!(TableHandle::from_bytes(1, BLOCK, &bytes2).is_none());
    }

    #[test]
    fn overlaps_semantics() {
        let (_, h) = build(100, 10); // keys 0..100
        assert!(h.overlaps(&key(50), &key(150)));
        assert!(h.overlaps(&key(0), &key(0)));
        assert!(!h.overlaps(&key(100), &key(200)));
        assert!(h.overlaps(b"!", &key(0)));
        assert!(!h.overlaps(b"!", b"0"));
    }

    #[test]
    fn tombstones_survive_the_format() {
        let mut b = TableBuilder::new(BLOCK, 10);
        b.add(b"alive", 2, Some(b"v"));
        b.add(b"dead", 1, None);
        let (bytes, h) = finish(b);
        let block = &bytes[..BLOCK];
        assert_eq!(BlockIter::find(block, b"dead"), Some((1, None)));
        assert_eq!(h.entries, 2);
    }

    #[test]
    #[should_panic]
    fn empty_table_panics() {
        TableBuilder::new(BLOCK, 10).finish();
    }

    #[test]
    fn projection_never_underestimates() {
        for (block, n, vlen) in [
            (8192usize, 400u64, 100usize),
            (96 * 1024, 5000, 1024),
            (512, 300, 50),
        ] {
            let mut b = TableBuilder::new(block, 10);
            b.add(&key(0), n + 1, None);
            for i in 1..n {
                b.add(&key(i), i + 1, Some(&vec![1u8; vlen]));
            }
            let projected = b.projected_total_bytes();
            let (bytes, _) = finish(b);
            assert!(
                projected >= bytes.len(),
                "block={block} n={n}: projected {projected} < actual {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn multi_block_meta_for_huge_index() {
        // Tiny blocks force a large index relative to block size.
        let mut b = TableBuilder::new(512, 10);
        for i in 0..2000u64 {
            b.add(&key(i), i + 1, Some(&[1u8; 100]));
        }
        let (bytes, h) = finish(b);
        let back = TableHandle::from_bytes(3, 512, &bytes).unwrap();
        assert_eq!(back.index, h.index);
        assert!(
            bytes.len() / 512 > h.data_blocks as usize + 1,
            "meta spans blocks"
        );
    }
}
