//! SSTable data-block format.
//!
//! A data block is one LightLSM block (= the device's 96 KB write unit).
//! Entries are stored sorted by `(key asc, seq desc)`, back to back — a key
//! may appear with several sequence numbers (versions), newest first:
//!
//! ```text
//! entry := klen:u16 | vlen:u32 | seq:u64 | key | value
//!          (vlen = u32::MAX ⇒ tombstone)
//! ```
//!
//! A `klen` of zero terminates the block (the tail is zero padding), and so
//! does the end of the slice: a block read in place comes without its zero
//! tail (see [`with_entries`]). Lookups scan linearly — with ~90 1 KB entries
//! per block this is cheaper than maintaining restart points, and it mirrors
//! the paper's "block is the unit of transfer" framing.

use ocssd::Payload;

const TOMBSTONE: u32 = u32::MAX;

/// Walks the entries of a data block read in place.
///
/// A view holds a block up to its last non-zero byte, which is where the
/// entries end — unless the last entry itself ends in zero bytes and the cut
/// fell inside it. `walk` gets the block as the view holds it; only if it
/// runs into that cut entry is the block copied out with its zero tail and
/// walked again, so `walk` must depend on nothing but the entries it sees.
pub fn with_entries<R>(block: &Payload, walk: impl Fn(&mut BlockIter<'_>) -> R) -> R {
    let stored = block.bytes();
    let mut entries = BlockIter::new(stored);
    let out = walk(&mut entries);
    if stored.len() < block.len() && entries.at_cut_entry() {
        return walk(&mut BlockIter::new(&block.to_vec()));
    }
    out
}

/// Builds one data block up to a byte budget.
pub struct BlockBuilder {
    buf: Vec<u8>,
    capacity: usize,
    entries: u32,
}

impl BlockBuilder {
    /// A builder for blocks of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        BlockBuilder {
            buf: Vec::with_capacity(capacity),
            capacity,
            entries: 0,
        }
    }

    fn entry_size(key: &[u8], value: Option<&[u8]>) -> usize {
        14 + key.len() + value.map_or(0, <[u8]>::len)
    }

    /// Whether `key`/`value` fits in the remaining space.
    pub fn fits(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        self.buf.len() + Self::entry_size(key, value) <= self.capacity
    }

    /// Appends a version (`None` value = tombstone). Caller keeps entries in
    /// `(key asc, seq desc)` order and checks [`BlockBuilder::fits`] first.
    ///
    /// Panics if the entry does not fit or the key is empty/oversized.
    pub fn add(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        assert!(!key.is_empty() && key.len() <= u16::MAX as usize, "bad key");
        assert!(self.fits(key, value), "entry does not fit");
        self.buf
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        match value {
            Some(v) => {
                assert!((v.len() as u64) < TOMBSTONE as u64, "value too large");
                self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                self.buf.extend_from_slice(&seq.to_le_bytes());
                self.buf.extend_from_slice(key);
                self.buf.extend_from_slice(v);
            }
            None => {
                self.buf.extend_from_slice(&TOMBSTONE.to_le_bytes());
                self.buf.extend_from_slice(&seq.to_le_bytes());
                self.buf.extend_from_slice(key);
            }
        }
        self.entries += 1;
    }

    /// Entries added so far.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Bytes used.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finishes the block, zero-padded to `capacity`.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.resize(self.capacity, 0);
        self.buf
    }
}

/// Outcome of a snapshot-aware point lookup within one data block; `V` is
/// how the value is held (`&[u8]` into the block, or owned).
#[derive(Debug, PartialEq, Eq)]
pub enum FindVisible<V> {
    /// Newest version with `seq <= snap`: its seq plus `Some(value)` for a
    /// live entry, `None` for a point tombstone.
    Found(u64, Option<V>),
    /// The key has no visible version in this table's blocks from here on.
    Absent,
    /// Every version of the key in this block is newer than the snapshot and
    /// the key runs to the end of the block — older versions may continue in
    /// the next data block.
    Continue,
}

impl FindVisible<&[u8]> {
    /// The same outcome with the value copied out of the block.
    pub fn into_owned(self) -> FindVisible<Vec<u8>> {
        match self {
            FindVisible::Found(seq, v) => FindVisible::Found(seq, v.map(<[u8]>::to_vec)),
            FindVisible::Absent => FindVisible::Absent,
            FindVisible::Continue => FindVisible::Continue,
        }
    }
}

/// Iterates a data block's entries in `(key asc, seq desc)` order.
pub struct BlockIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BlockIter<'a> {
    /// An iterator over block bytes.
    pub fn new(data: &'a [u8]) -> Self {
        BlockIter { data, pos: 0 }
    }

    /// Finds the newest version of `key` visible at `snap` by scanning
    /// (blocks are small). Returns [`FindVisible::Continue`] when the key's
    /// versions run past the end of this block without a visible one.
    pub fn find_visible(data: &'a [u8], key: &[u8], snap: u64) -> FindVisible<&'a [u8]> {
        BlockIter::new(data).visible(key, snap)
    }

    /// [`BlockIter::find_visible`] among the entries not yet yielded.
    pub fn visible(&mut self, key: &[u8], snap: u64) -> FindVisible<&'a [u8]> {
        let mut saw_key_last = false;
        for (k, seq, v) in self {
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    if seq <= snap {
                        return FindVisible::Found(seq, v);
                    }
                    saw_key_last = true;
                }
                std::cmp::Ordering::Greater => return FindVisible::Absent,
            }
        }
        if saw_key_last {
            // The block ended while still inside this key's version run.
            FindVisible::Continue
        } else {
            FindVisible::Absent
        }
    }

    /// Finds the newest version of a key regardless of snapshot. Returns
    /// `Some(Some(value))` for a live entry, `Some(None)` for a tombstone,
    /// `None` if absent.
    pub fn find(data: &'a [u8], key: &[u8]) -> Option<Option<&'a [u8]>> {
        match Self::find_visible(data, key, u64::MAX) {
            FindVisible::Found(_, v) => Some(v),
            _ => None,
        }
    }

    /// Whether the iterator stands at an entry — not the terminator, not the
    /// end of the slice — that runs past the end of the slice.
    fn at_cut_entry(&self) -> bool {
        let mut rest = BlockIter {
            data: self.data,
            pos: self.pos,
        };
        let starts_entry = self.data[self.pos..].iter().take(2).any(|&b| b != 0);
        starts_entry && rest.next().is_none()
    }
}

impl<'a> Iterator for BlockIter<'a> {
    /// `(key, seq, Some(value) | None-for-tombstone)`.
    type Item = (&'a [u8], u64, Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + 14 > self.data.len() {
            return None;
        }
        let klen = u16::from_le_bytes([self.data[self.pos], self.data[self.pos + 1]]) as usize;
        if klen == 0 {
            return None; // zero padding: end of block
        }
        let vlen_raw = u32::from_le_bytes([
            self.data[self.pos + 2],
            self.data[self.pos + 3],
            self.data[self.pos + 4],
            self.data[self.pos + 5],
        ]);
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&self.data[self.pos + 6..self.pos + 14]);
        let seq = u64::from_le_bytes(seq_bytes);
        let mut p = self.pos + 14;
        if p + klen > self.data.len() {
            return None;
        }
        let key = &self.data[p..p + klen];
        p += klen;
        let value = if vlen_raw == TOMBSTONE {
            None
        } else {
            let vlen = vlen_raw as usize;
            if p + vlen > self.data.len() {
                return None;
            }
            let v = &self.data[p..p + vlen];
            p += vlen;
            Some(v)
        };
        self.pos = p;
        Some((key, seq, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_iterate() {
        let mut b = BlockBuilder::new(4096);
        b.add(b"aaa", 3, Some(b"1"));
        b.add(b"bbb", 2, None);
        b.add(b"ccc", 1, Some(b"3"));
        assert_eq!(b.entries(), 3);
        let data = b.finish();
        assert_eq!(data.len(), 4096);
        let items: Vec<_> = BlockIter::new(&data).collect();
        assert_eq!(
            items,
            vec![
                (&b"aaa"[..], 3, Some(&b"1"[..])),
                (&b"bbb"[..], 2, None),
                (&b"ccc"[..], 1, Some(&b"3"[..])),
            ]
        );
    }

    #[test]
    fn find_hits_misses_and_tombstones() {
        let mut b = BlockBuilder::new(4096);
        b.add(b"b", 1, Some(b"vb"));
        b.add(b"d", 2, None);
        let data = b.finish();
        assert_eq!(BlockIter::find(&data, b"b"), Some(Some(&b"vb"[..])));
        assert_eq!(BlockIter::find(&data, b"d"), Some(None));
        assert_eq!(BlockIter::find(&data, b"a"), None);
        assert_eq!(BlockIter::find(&data, b"c"), None);
        assert_eq!(BlockIter::find(&data, b"e"), None);
    }

    #[test]
    fn versions_resolve_by_snapshot() {
        let mut b = BlockBuilder::new(4096);
        b.add(b"k", 9, Some(b"v9"));
        b.add(b"k", 5, None);
        b.add(b"k", 2, Some(b"v2"));
        b.add(b"z", 1, Some(b"vz"));
        let data = b.finish();
        assert_eq!(
            BlockIter::find_visible(&data, b"k", u64::MAX),
            FindVisible::Found(9, Some(&b"v9"[..]))
        );
        assert_eq!(
            BlockIter::find_visible(&data, b"k", 7),
            FindVisible::Found(5, None)
        );
        assert_eq!(
            BlockIter::find_visible(&data, b"k", 3),
            FindVisible::Found(2, Some(&b"v2"[..]))
        );
        // Snapshot predates every version and a later key exists: absent.
        assert_eq!(BlockIter::find_visible(&data, b"k", 1), FindVisible::Absent);
        // Key's versions run to the end of the block with none visible.
        assert_eq!(
            BlockIter::find_visible(&data, b"z", 0),
            FindVisible::Continue
        );
    }

    #[test]
    fn fits_respects_capacity() {
        let mut b = BlockBuilder::new(80);
        assert!(b.fits(b"key", Some(&[0u8; 40]))); // 14 + 3 + 40 = 57
        b.add(b"key", 1, Some(&[0u8; 40]));
        assert!(!b.fits(b"key2", Some(&[0u8; 40])));
        assert!(b.fits(b"k", Some(&[0u8; 5]))); // 20 ≤ 23 remaining
    }

    #[test]
    #[should_panic]
    fn overfull_add_panics() {
        let mut b = BlockBuilder::new(16);
        b.add(b"key", 1, Some(&[0u8; 40]));
    }

    #[test]
    fn exactly_full_block_iterates_cleanly() {
        // Entry size 14 + 2 + 8 = 24; capacity 48 holds exactly two.
        let mut b = BlockBuilder::new(48);
        b.add(b"k1", 1, Some(&[7u8; 8]));
        b.add(b"k2", 2, Some(&[8u8; 8]));
        assert!(!b.fits(b"k3", Some(&[9u8; 8])));
        let data = b.finish();
        assert_eq!(BlockIter::new(&data).count(), 2);
    }

    #[test]
    fn empty_and_garbage_blocks() {
        let data = vec![0u8; 128];
        assert_eq!(BlockIter::new(&data).count(), 0);
        assert_eq!(BlockIter::find(&data, b"x"), None);
        // Truncated entry does not panic.
        let mut bad = vec![0u8; 16];
        bad[0] = 200; // klen larger than remaining bytes
        assert_eq!(BlockIter::new(&bad).count(), 0);
    }

    /// A block whose last entry ends in `zeros` zero bytes, and the end of
    /// that entry.
    fn block_ending_in_zeros(zeros: usize) -> (Vec<u8>, usize) {
        let mut b = BlockBuilder::new(4 * ocssd::SECTOR_BYTES);
        b.add(b"a", 7, Some(b"first"));
        b.add(b"k", 9, Some(b"newest"));
        b.add(b"k", 5, None);
        let mut tail = vec![0xAB; 20];
        tail.resize(20 + zeros, 0);
        b.add(b"z", 3, Some(&tail));
        let end = b.len();
        (b.finish(), end)
    }

    fn owned(data: &[u8]) -> Vec<(Vec<u8>, u64, Option<Vec<u8>>)> {
        BlockIter::new(data)
            .map(|(k, s, v)| (k.to_vec(), s, v.map(<[u8]>::to_vec)))
            .collect()
    }

    #[test]
    fn a_slice_cut_at_or_after_the_last_entry_reads_like_the_padded_block() {
        let (padded, end) = block_ending_in_zeros(0);
        for cut in (end..end + 40).chain([padded.len()]) {
            let data = &padded[..cut];
            assert_eq!(owned(data), owned(&padded), "cut at {cut}");
            for (key, snap) in [
                (&b"k"[..], u64::MAX),
                (b"k", 6),
                (b"k", 1),
                (b"z", 0),
                (b"q", 9),
            ] {
                assert_eq!(
                    BlockIter::find_visible(data, key, snap),
                    BlockIter::find_visible(&padded, key, snap),
                    "cut at {cut}"
                );
            }
        }
    }

    /// `padded` as the device hands it out in place: written as one command
    /// and read back as a view, which leaves the zero tail out.
    fn in_place(padded: &[u8]) -> Payload {
        use ocssd::{ChunkAddr, DeviceConfig, Geometry, OcssdDevice};
        use ox_sim::SimTime;
        let geo = Geometry::small_slc();
        assert_eq!(padded.len(), geo.ws_min_bytes());
        let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
        let at = ChunkAddr::new(0, 0, 0).ppa(0);
        let w = dev.write(SimTime::ZERO, at, padded).unwrap();
        let (view, _) = dev.read_shared(w.done, at, geo.ws_min).unwrap();
        assert_eq!(view.len(), padded.len());
        assert_ne!(view.bytes().last(), Some(&0), "zero tail left out");
        view
    }

    #[test]
    fn with_entries_walks_in_place_or_over_a_padded_copy() {
        for zeros in [0, 1, 13, 200] {
            let (padded, _) = block_ending_in_zeros(zeros);
            let block = in_place(&padded);
            // The cut falls inside the last entry exactly when it ends in
            // zeros: walked as stored, that entry is missing.
            assert_eq!(
                owned(block.bytes()).len() < owned(&padded).len(),
                zeros > 0,
                "{zeros} zeros"
            );
            let walked = with_entries(&block, |entries| {
                entries
                    .map(|(k, s, v)| (k.to_vec(), s, v.map(<[u8]>::to_vec)))
                    .collect::<Vec<_>>()
            });
            assert_eq!(walked, owned(&padded), "{zeros} zeros");
            for (key, snap) in [(&b"z"[..], u64::MAX), (b"k", 6), (b"z", 0), (b"zz", 9)] {
                assert_eq!(
                    with_entries(&block, |entries| entries.visible(key, snap).into_owned()),
                    BlockIter::find_visible(&padded, key, snap).into_owned(),
                    "{zeros} zeros, key {key:?}"
                );
            }
        }
    }

    #[test]
    fn realistic_density_90_entries_per_96kb() {
        // 16 B keys + 1 KB values in a 96 KB block ≈ 93 entries — the ratio
        // behind the paper's read-seq vs read-random gap.
        let mut b = BlockBuilder::new(96 * 1024);
        let mut n = 0;
        loop {
            let key = format!("{n:016}");
            let value = vec![0u8; 1024];
            if !b.fits(key.as_bytes(), Some(&value)) {
                break;
            }
            b.add(key.as_bytes(), n, Some(&value));
            n += 1;
        }
        assert!((88..=96).contains(&n), "{n} entries");
    }
}
