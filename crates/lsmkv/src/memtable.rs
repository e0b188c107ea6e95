//! In-memory write buffer (memtable) with multi-version entries and range
//! tombstones.
//!
//! Every write carries a database-wide sequence number; the memtable keeps
//! *all* versions of a key (newest first) so snapshot reads pinned at an
//! older sequence number stay stable while later writes land. Range deletes
//! are recorded as [`RangeTombstone`]s — half-open `[start, end)` intervals
//! stamped with the deleting write's sequence number — and flow into the
//! SSTables at flush.

use crate::compaction::Entry;
use ox_sim::sync::Mutex;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A range delete: hides every version of every key in `[start, end)` whose
/// sequence number is below `seq`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RangeTombstone {
    /// First key covered (inclusive).
    pub start: Vec<u8>,
    /// First key *not* covered (exclusive).
    pub end: Vec<u8>,
    /// Sequence number of the range delete.
    pub seq: u64,
}

impl RangeTombstone {
    /// Whether `key` falls inside `[start, end)`.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.start.as_slice() <= key && key < self.end.as_slice()
    }

    /// Whether the tombstone's span intersects the closed key range
    /// `[min, max]`.
    pub fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        self.start.as_slice() <= max && min < self.end.as_slice()
    }
}

/// A borrowed version: key, sequence number, `Some(value)` or a tombstone.
pub type VersionRef<'a> = (&'a [u8], u64, Option<&'a [u8]>);

/// A key's version chain, newest-first: `(seq, value)` entries where `None`
/// values are point tombstones.
type VersionChain = Vec<(u64, Option<Vec<u8>>)>;

/// A sorted in-memory buffer. Per key, a list of `(seq, value)` versions is
/// kept newest-first; `None` values are point tombstones.
#[derive(Default)]
pub struct Memtable {
    map: BTreeMap<Vec<u8>, VersionChain>,
    range_dels: Vec<RangeTombstone>,
    bytes: usize,
    versions: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new version of a key.
    pub fn put(&mut self, key: &[u8], seq: u64, value: &[u8]) {
        self.insert(key, seq, Some(value.to_vec()));
    }

    /// Records a point deletion.
    pub fn delete(&mut self, key: &[u8], seq: u64) {
        self.insert(key, seq, None);
    }

    fn insert(&mut self, key: &[u8], seq: u64, value: Option<Vec<u8>>) {
        self.bytes += key.len() + value.as_ref().map_or(0, Vec::len) + 40;
        self.versions += 1;
        let versions = self.map.entry(key.to_vec()).or_default();
        // Sequence numbers are assigned monotonically, so the new version
        // belongs at the front.
        versions.insert(0, (seq, value));
    }

    /// Records a range delete over `[start, end)`.
    pub fn delete_range(&mut self, start: &[u8], end: &[u8], seq: u64) {
        self.bytes += start.len() + end.len() + 48;
        self.range_dels.push(RangeTombstone {
            start: start.to_vec(),
            end: end.to_vec(),
            seq,
        });
    }

    /// Newest point version of `key` with sequence number ≤ `snap`, if the
    /// memtable holds one. Range tombstones are *not* applied here — the
    /// caller combines the result with [`Memtable::max_covering_tombstone`]
    /// across every source.
    pub fn point_visible(&self, key: &[u8], snap: u64) -> Option<(u64, Option<&[u8]>)> {
        let versions = self.map.get(key)?;
        versions
            .iter()
            .find(|(seq, _)| *seq <= snap)
            .map(|(seq, v)| (*seq, v.as_deref()))
    }

    /// Highest range-tombstone sequence number ≤ `snap` covering `key`.
    pub fn max_covering_tombstone(&self, key: &[u8], snap: u64) -> Option<u64> {
        self.range_dels
            .iter()
            .filter(|rt| rt.seq <= snap && rt.covers(key))
            .map(|rt| rt.seq)
            .max()
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of point versions (tombstones included).
    pub fn len(&self) -> usize {
        self.versions
    }

    /// True if the memtable holds neither point versions nor range
    /// tombstones.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.range_dels.is_empty()
    }

    /// The range tombstones recorded so far, in insertion order.
    pub fn range_dels(&self) -> &[RangeTombstone] {
        &self.range_dels
    }

    /// Iterates all versions in `(key asc, seq desc)` order.
    pub fn iter_versions(&self) -> impl Iterator<Item = (&[u8], u64, Option<&[u8]>)> {
        self.map.iter().flat_map(|(k, versions)| {
            versions
                .iter()
                .map(move |(seq, v)| (k.as_slice(), *seq, v.as_deref()))
        })
    }

    /// The first key in `from..` holding a version with sequence number
    /// ≤ `snap`, with the newest such version.
    pub fn first_visible(&self, from: Bound<&[u8]>, snap: u64) -> Option<VersionRef<'_>> {
        self.map
            .range::<[u8], _>((from, Bound::Unbounded))
            .find_map(|(k, versions)| {
                versions
                    .iter()
                    .find(|(seq, _)| *seq <= snap)
                    .map(|(seq, v)| (k.as_slice(), *seq, v.as_deref()))
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

/// A lazy snapshot cursor over the memtables that existed when an iterator
/// was created: per memtable, the newest version ≤ `snap` of every key, the
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
        assert_eq!(m.point_visible(b"a", u64::MAX), None);
        m.put(b"a", 1, b"1");
        assert_eq!(m.point_visible(b"a", u64::MAX), Some((1, Some(&b"1"[..]))));
        m.put(b"a", 2, b"2");
        assert_eq!(m.point_visible(b"a", u64::MAX), Some((2, Some(&b"2"[..]))));
        // The old version is still reachable under a pinned snapshot.
        assert_eq!(m.point_visible(b"a", 1), Some((1, Some(&b"1"[..]))));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tombstones_shadow() {
        let mut m = Memtable::new();
        m.put(b"k", 1, b"v");
        m.delete(b"k", 2);
        assert_eq!(m.point_visible(b"k", u64::MAX), Some((2, None)));
        assert_eq!(m.point_visible(b"k", 1), Some((1, Some(&b"v"[..]))));
    }

    #[test]
    fn range_tombstones_cover_by_seq() {
        let mut m = Memtable::new();
        m.put(b"b", 1, b"v");
        m.delete_range(b"a", b"c", 2);
        m.put(b"b", 3, b"w");
        assert_eq!(m.max_covering_tombstone(b"b", u64::MAX), Some(2));
        assert_eq!(m.max_covering_tombstone(b"b", 1), None);
        assert_eq!(m.max_covering_tombstone(b"c", u64::MAX), None); // end exclusive
        assert_eq!(m.max_covering_tombstone(b"a", u64::MAX), Some(2));
        // Version written after the range delete is newer than the tombstone.
        let (seq, _) = m.point_visible(b"b", u64::MAX).unwrap();
        assert!(seq > 2);
    }

    #[test]
    fn byte_accounting_grows_with_versions() {
        let mut m = Memtable::new();
        m.put(b"key", 1, &[0u8; 100]);
        let b1 = m.approximate_bytes();
        m.put(b"key", 2, &[0u8; 10]);
        let b2 = m.approximate_bytes();
        assert!(b2 > b1, "versions accumulate");
        m.delete_range(b"a", b"z", 3);
        assert!(m.approximate_bytes() > b2);
    }

    #[test]
    fn iteration_is_sorted_with_versions_newest_first() {
        let mut m = Memtable::new();
        m.put(b"c", 1, b"v");
        m.put(b"a", 2, b"v");
        m.put(b"b", 3, b"v");
        m.put(b"a", 4, b"w");
        let all: Vec<(&[u8], u64)> = m.iter_versions().map(|(k, s, _)| (k, s)).collect();
        assert_eq!(
            all,
            vec![
                (&b"a"[..], 4),
                (&b"a"[..], 2),
                (&b"b"[..], 3),
                (&b"c"[..], 1)
            ]
        );
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

    #[test]
    fn empty_accounts_for_range_dels() {
        let mut m = Memtable::new();
        assert!(m.is_empty());
        m.delete_range(b"a", b"b", 1);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
