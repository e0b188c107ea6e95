//! In-memory write buffer (memtable) with multi-version entries.
//!
//! Every write carries a database-wide sequence number; the memtable keeps
//! *all* versions of a key (newest first) so that an iterator, which reads
//! the memtable it was created over up to its own sequence number, stays
//! stable while later writes land.
//!
//! Versions live in an append-only arena: a fixed-size `Record` per
//! version in one `Vec`, values appended into large chunks, and a map that
//! owns each distinct key once and points at its newest record. Each record
//! links to the next-older version of its key, so the only allocation a put
//! keeps is the key of a key the memtable has not seen, and a flush reads
//! every key's newest version straight off the map.

use crate::compaction::Entry;
use ox_sim::sync::Mutex;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A borrowed version: key, sequence number, `Some(value)` or a tombstone.
pub type VersionRef<'a> = (&'a [u8], u64, Option<&'a [u8]>);

/// Capacity of a value chunk. A chunk holds about sixty of the figures'
/// 1 KB values, so chunk allocations are rare, and the tail a chunk loses
/// when the next value does not fit stays under 2 %. It also stays below
/// glibc's default mmap threshold (128 KiB), so chunks come from the heap
/// and go back to it, where the next memtable reuses them. A larger value
/// gets a chunk of its own.
const CHUNK_BYTES: usize = 64 * 1024;

/// `Record::chunk` of a tombstone.
const TOMBSTONE: usize = usize::MAX;

/// `Record::older` of a key's oldest version.
const NO_OLDER: usize = usize::MAX;

/// One version of a key.
struct Record {
    seq: u64,
    /// The value is `chunks[chunk][start..start + len]`; a tombstone has
    /// `chunk == TOMBSTONE`.
    chunk: usize,
    start: usize,
    len: usize,
    /// Index in `records` of the next-older version of the same key, or
    /// `NO_OLDER`.
    older: usize,
}

/// A sorted in-memory buffer of versions, each key's newest first.
#[derive(Default)]
pub struct Memtable {
    /// Each key, owned once, with the index of its newest record.
    newest: BTreeMap<Box<[u8]>, usize>,
    /// Every version, in the order written.
    records: Vec<Record>,
    /// Value bytes, appended; only the last chunk takes new values.
    chunks: Vec<Vec<u8>>,
    bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new version of a key.
    pub fn put(&mut self, key: &[u8], seq: u64, value: &[u8]) {
        // Into the last chunk if the value fits there, else into a new one.
        let fits = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= value.len());
        if !fits {
            self.chunks
                .push(Vec::with_capacity(value.len().max(CHUNK_BYTES)));
        }
        let chunk = self.chunks.len() - 1;
        let bytes = &mut self.chunks[chunk];
        let start = bytes.len();
        bytes.extend_from_slice(value);
        self.insert(key, seq, chunk, start, value.len());
    }

    /// Records a point deletion.
    pub fn delete(&mut self, key: &[u8], seq: u64) {
        self.insert(key, seq, TOMBSTONE, 0, 0);
    }

    fn insert(&mut self, key: &[u8], seq: u64, chunk: usize, start: usize, len: usize) {
        self.bytes += key.len() + len + 40;
        let at = self.records.len();
        // Sequence numbers are assigned monotonically, so the new version
        // becomes the key's newest. One descent of the tree: the entry needs
        // the key owned, so a key already present costs a copy dropped at
        // once, which is cheaper than the second descent a lookup first
        // would cost every new key.
        let older = match self.newest.entry(key.into()) {
            MapEntry::Occupied(mut newest) => std::mem::replace(newest.get_mut(), at),
            MapEntry::Vacant(slot) => {
                slot.insert(at);
                NO_OLDER
            }
        };
        self.records.push(Record {
            seq,
            chunk,
            start,
            len,
            older,
        });
    }

    /// Sequence number and value (`None` = tombstone) of a record.
    fn version(&self, at: usize) -> (u64, Option<&[u8]>) {
        let r = &self.records[at];
        let value = (r.chunk != TOMBSTONE).then(|| &self.chunks[r.chunk][r.start..r.start + r.len]);
        (r.seq, value)
    }

    /// Newest version of `key`, if the memtable holds one.
    pub fn newest(&self, key: &[u8]) -> Option<(u64, Option<&[u8]>)> {
        self.newest.get(key).map(|&at| self.version(at))
    }

    /// Approximate memory footprint in bytes: key, value and 40 bytes per
    /// version. It decides when the memtable rotates, so every flush, and
    /// everything after it, depends on it staying this formula.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of versions (tombstones included).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the memtable holds no version.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every key's newest version, in key order.
    pub fn iter_newest(&self) -> impl Iterator<Item = VersionRef<'_>> {
        self.newest.iter().map(|(key, &at)| {
            let (seq, value) = self.version(at);
            (&key[..], seq, value)
        })
    }

    /// The first key in `from..` holding a version with sequence number
    /// ≤ `snap`, with the newest such version.
    pub fn first_visible(&self, from: Bound<&[u8]>, snap: u64) -> Option<VersionRef<'_>> {
        self.newest
            .range::<[u8], _>((from, Bound::Unbounded))
            .find_map(|(key, &newest)| {
                let mut at = newest;
                while at != NO_OLDER {
                    let (seq, value) = self.version(at);
                    if seq <= snap {
                        return Some((&key[..], seq, value));
                    }
                    at = self.records[at].older;
                }
                None
            })
    }
}

/// A memtable shared between the database, which keeps writing to the
/// active one, and the iterators walking it.
pub(crate) type SharedMemtable = Arc<Mutex<Memtable>>;

/// An empty shared memtable.
pub(crate) fn shared_memtable() -> SharedMemtable {
    Arc::new(Mutex::new(Memtable::new()))
}

/// A lazy cursor over the memtables that existed when an iterator was
/// created: per memtable, the newest version ≤ `snap` of every key, the
/// memtables merged in `(key asc, seq desc)` order. Nothing is copied until
/// it is about to be yielded. Memtables are multi-version and sequence
/// numbers only grow, so writes landing after the cursor was created — the
/// active memtable stays shared with the writer — are filtered, not seen.
pub(crate) struct MemCursor {
    snap: u64,
    /// Each memtable with the entry it yields next (`None` = exhausted).
    heads: Vec<(SharedMemtable, Option<Entry>)>,
}

impl MemCursor {
    pub(crate) fn new(mems: Vec<SharedMemtable>, start: &[u8], snap: u64) -> Self {
        let heads = mems
            .into_iter()
            .map(|mem| {
                let head = Self::fetch(&mem, Bound::Included(start), snap);
                (mem, head)
            })
            .collect();
        MemCursor { snap, heads }
    }

    fn fetch(mem: &SharedMemtable, from: Bound<&[u8]>, snap: u64) -> Option<Entry> {
        mem.lock()
            .first_visible(from, snap)
            .map(|(k, s, v)| (k.to_vec(), s, v.map(<[u8]>::to_vec)))
    }

    fn front_index(&self) -> Option<usize> {
        self.heads
            .iter()
            .enumerate()
            .filter_map(|(i, (_, head))| head.as_ref().map(|e| (i, e)))
            .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(i, _)| i)
    }

    /// The entry [`MemCursor::pop_front`] would return.
    pub(crate) fn front(&self) -> Option<&Entry> {
        self.front_index().and_then(|i| self.heads[i].1.as_ref())
    }

    /// Removes and returns the smallest entry, `(key asc, seq desc)`.
    pub(crate) fn pop_front(&mut self) -> Option<Entry> {
        let i = self.front_index()?;
        let (mem, head) = &mut self.heads[i];
        let entry = head.take()?;
        *head = Self::fetch(mem, Bound::Excluded(entry.0.as_slice()), self.snap);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_overwrite_keeps_versions() {
        let mut m = Memtable::new();
        assert_eq!(m.newest(b"a"), None);
        m.put(b"a", 1, b"1");
        assert_eq!(m.newest(b"a"), Some((1, Some(&b"1"[..]))));
        m.put(b"a", 2, b"2");
        assert_eq!(m.newest(b"a"), Some((2, Some(&b"2"[..]))));
        // The old version is still there for an iterator created before.
        let at_one = m.first_visible(Bound::Included(&b"a"[..]), 1);
        assert_eq!(at_one, Some((&b"a"[..], 1, Some(&b"1"[..]))));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tombstones_shadow() {
        let mut m = Memtable::new();
        m.put(b"k", 1, b"v");
        m.delete(b"k", 2);
        assert_eq!(m.newest(b"k"), Some((2, None)));
        let at_one = m.first_visible(Bound::Included(&b"k"[..]), 1);
        assert_eq!(at_one, Some((&b"k"[..], 1, Some(&b"v"[..]))));
    }

    #[test]
    fn byte_accounting_grows_with_versions() {
        let mut m = Memtable::new();
        m.put(b"key", 1, &[0u8; 100]);
        let b1 = m.approximate_bytes();
        m.put(b"key", 2, &[0u8; 10]);
        let b2 = m.approximate_bytes();
        assert!(b2 > b1, "versions accumulate");
        m.delete(b"key", 3);
        assert!(m.approximate_bytes() > b2);
    }

    #[test]
    fn iter_newest_is_sorted_and_yields_each_keys_newest_version() {
        let mut m = Memtable::new();
        m.put(b"c", 1, b"v");
        m.put(b"a", 2, b"v");
        m.put(b"b", 3, b"v");
        m.put(b"a", 4, b"w");
        m.delete(b"b", 5);
        let all: Vec<VersionRef<'_>> = m.iter_newest().collect();
        assert_eq!(
            all,
            vec![
                (&b"a"[..], 4, Some(&b"w"[..])),
                (&b"b"[..], 5, None),
                (&b"c"[..], 1, Some(&b"v"[..]))
            ]
        );
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn first_visible_skips_keys_without_a_version_at_the_snapshot() {
        let mut m = Memtable::new();
        m.put(b"a", 1, b"old");
        m.put(b"a", 5, b"new");
        m.put(b"b", 6, b"late");
        m.delete(b"c", 2);
        let at = |from, snap| m.first_visible(from, snap).map(|(k, s, _)| (k, s));
        assert_eq!(at(Bound::Included(&b"a"[..]), 9), Some((&b"a"[..], 5)));
        assert_eq!(at(Bound::Included(&b"a"[..]), 4), Some((&b"a"[..], 1)));
        // `b` only exists above the snapshot: the cursor moves on to `c`,
        // whose tombstone is a version like any other.
        assert_eq!(at(Bound::Excluded(&b"a"[..]), 4), Some((&b"c"[..], 2)));
        assert_eq!(at(Bound::Excluded(&b"c"[..]), 9), None);
    }

    #[test]
    fn cursor_merges_memtables_and_ignores_later_writes() {
        let shared = |m: Memtable| Arc::new(Mutex::new(m));
        let mut sealed = Memtable::new();
        sealed.put(b"a", 1, b"a1");
        sealed.put(b"c", 2, b"c2");
        let mut active = Memtable::new();
        active.put(b"b", 3, b"b3");
        active.put(b"c", 4, b"c4");
        let active = shared(active);
        let mut cur = MemCursor::new(vec![active.clone(), shared(sealed)], b"a", 4);
        // Writes after the cursor's snapshot share the memtable but not
        // the view — even on the key the cursor is parked on.
        active.lock().put(b"a", 5, b"a5");
        active.lock().put(b"bb", 6, b"bb6");
        let mut got = Vec::new();
        while let Some((k, s, _)) = cur.pop_front() {
            got.push((k, s));
        }
        let want: Vec<(Vec<u8>, u64)> = [(&b"a"[..], 1), (b"b", 3), (b"c", 4), (b"c", 2)]
            .iter()
            .map(|&(k, s)| (k.to_vec(), s))
            .collect();
        assert_eq!(got, want);
        assert!(cur.front().is_none());
    }
}
