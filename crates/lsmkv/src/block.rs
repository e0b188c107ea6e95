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
//! tail (see [`with_entries`]).
//!
//! The format has no restart points and no in-block index: an entry can only
//! be found by walking the entries before it, which "the block is the unit
//! of transfer" makes free on the virtual clock — the whole block has been
//! paid for — but not on the host's, where every 1 KB-strided entry header
//! is a cache miss. What shortens the walk is therefore kept off the media:
//! [`BlockAnchors`], a sparse array of `(key prefix, entry offset)` built
//! from a block the first time it is searched and cached beside the table's
//! handle. It costs the write path nothing, changes no stored byte and no
//! virtual charge, and dies with the handle.

use ocssd::{Payload, PayloadBuf};
use std::convert::Infallible;
use std::ops::Range;

const TOMBSTONE: u32 = u32::MAX;
const ENTRY_HEADER: usize = 14;

/// Where one entry lies in a block: its key and value as byte ranges of the
/// block, and the offset at which the next entry starts.
#[derive(Clone, Debug)]
struct Span {
    key: Range<usize>,
    seq: u64,
    value: Option<Range<usize>>,
    end: usize,
}

/// The entry at `pos`; `None` at the terminator, at the end of the slice and
/// at an entry the slice cuts short.
fn span_at(data: &[u8], pos: usize) -> Option<Span> {
    let head = data.get(pos..pos + ENTRY_HEADER)?;
    let klen = u16::from_le_bytes([head[0], head[1]]) as usize;
    if klen == 0 {
        return None; // zero padding: end of block
    }
    let vlen_raw = u32::from_le_bytes([head[2], head[3], head[4], head[5]]);
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&head[6..]);
    let key = pos + ENTRY_HEADER..pos + ENTRY_HEADER + klen;
    let value = (vlen_raw != TOMBSTONE).then(|| key.end..key.end + vlen_raw as usize);
    let end = value.as_ref().map_or(key.end, |v| v.end);
    (end <= data.len()).then_some(Span {
        key,
        seq: u64::from_le_bytes(seq),
        value,
        end,
    })
}

/// Whether an entry starts at `pos` — not the terminator, not the end of the
/// slice — and runs past the end of the slice.
fn cut_at(data: &[u8], pos: usize) -> bool {
    let starts_entry = data
        .get(pos..)
        .is_some_and(|rest| rest.iter().take(2).any(|&b| b != 0));
    starts_entry && span_at(data, pos).is_none()
}

/// Walks the entries of a data block read in place, from the entry at offset
/// `from` on.
///
/// A view holds a block up to its last non-zero byte, which is where the
/// entries end — unless the last entry itself ends in zero bytes and the cut
/// fell inside it. `walk` gets the block as the view holds it; only if it
/// runs into that cut entry is the block copied out with its zero tail and
/// walked again, so `walk` must depend on nothing but the entries it sees.
pub fn with_entries<R>(block: &Payload, from: usize, walk: impl Fn(&mut BlockIter<'_>) -> R) -> R {
    let stored = block.bytes();
    let mut entries = BlockIter::at(stored, from);
    let out = walk(&mut entries);
    if stored.len() < block.len() && cut_at(stored, entries.pos) {
        return walk(&mut BlockIter::at(&block.to_vec(), from));
    }
    out
}

/// Anchors are at least this many block bytes apart, so that the anchors of
/// a block take at most 16 B per 1 KB of it (1.6 %) whatever the entry size:
/// blocks of 1 KB values get one anchor per entry, blocks of small values
/// one per couple of dozen.
const ANCHOR_STRIDE: usize = 1024;

/// The first eight key bytes, zero-padded, as a big-endian number: ordered
/// as the keys are wherever two prefixes differ.
fn key_prefix(key: &[u8]) -> u64 {
    let mut prefix = [0u8; 8];
    let n = key.len().min(8);
    prefix[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(prefix)
}

#[derive(Clone, Copy, Debug)]
struct Anchor {
    prefix: u64,
    offset: u32,
}

/// Host-side search index of one data block: the key prefix and the offset
/// of a sparse subset of its entries, in block order. Never stored — see the
/// module documentation.
#[derive(Clone, Debug)]
pub struct BlockAnchors(Box<[Anchor]>);

impl BlockAnchors {
    /// Anchors for the entries of `data`, a block with or without its zero
    /// tail.
    pub fn build(data: &[u8]) -> Self {
        let mut anchors = Vec::with_capacity(data.len() / ANCHOR_STRIDE + 1);
        let (mut pos, mut next_anchor) = (0, 0);
        while let Some(span) = span_at(data, pos) {
            if pos >= next_anchor {
                anchors.push(Anchor {
                    prefix: key_prefix(&data[span.key]),
                    offset: pos as u32,
                });
                next_anchor = pos + ANCHOR_STRIDE;
            }
            pos = span.end;
        }
        BlockAnchors(anchors.into_boxed_slice())
    }

    /// An entry offset in `data` before which every key is below `key`, so
    /// that a search for `key`, or for the first key at or after it, finds
    /// from there what it finds from offset 0: the last anchor whose key is
    /// *below* `key` — one that equals it may stand in the middle of the
    /// key's version run — or 0.
    pub fn seek(&self, data: &[u8], key: &[u8]) -> usize {
        let prefix = key_prefix(key);
        // Prefixes decide wherever they differ; equal ones (short keys, the
        // figure drivers' zero-padded decimal keys) fall back on the block's
        // own keys.
        let below = self.0.partition_point(|a| {
            a.prefix < prefix
                || (a.prefix == prefix
                    && span_at(data, a.offset as usize).is_some_and(|s| &data[s.key] < key))
        });
        below
            .checked_sub(1)
            .map_or(0, |i| self.0[i].offset as usize)
    }
}

/// One version where it lies: a block shared with whoever else reads it, and
/// the entry's place in it. Cloning bumps a reference count.
#[derive(Clone, Debug)]
pub(crate) struct EntryView {
    block: Payload,
    span: Span,
}

impl EntryView {
    pub(crate) fn key(&self) -> &[u8] {
        &self.block.bytes()[self.span.key.clone()]
    }

    pub(crate) fn seq(&self) -> u64 {
        self.span.seq
    }

    /// `None` for a tombstone.
    pub(crate) fn value(&self) -> Option<&[u8]> {
        let value = self.span.value.clone()?;
        Some(&self.block.bytes()[value])
    }
}

/// A block read in place and a position in it: the streaming counterpart of
/// [`with_entries`]. Entries leave it as [`EntryView`]s, not as copies.
pub(crate) struct BlockCursor {
    block: Payload,
    /// The entry the cursor stands at; `None` once the block is used up.
    head: Option<Span>,
}

impl BlockCursor {
    /// A cursor at the entry at offset `pos` of `block`.
    pub(crate) fn new(block: Payload, pos: usize) -> Self {
        let mut cursor = BlockCursor { block, head: None };
        cursor.move_to(pos);
        cursor
    }

    fn move_to(&mut self, pos: usize) {
        self.head = span_at(self.block.bytes(), pos);
        let stored = self.block.bytes();
        if self.head.is_none() && stored.len() < self.block.len() && cut_at(stored, pos) {
            // The view's cut fell inside this entry, the block's last: go on
            // in a copy that has the zero tail. Views handed out so far keep
            // the buffer they point into.
            let Ok((padded, ())) = Payload::filled(self.block.len(), |out| {
                self.block.copy_to(out);
                Ok::<(), Infallible>(())
            });
            self.block = padded;
            self.head = span_at(self.block.bytes(), pos);
        }
    }

    /// Key and sequence number of the entry [`BlockCursor::pop`] would
    /// return.
    pub(crate) fn peek(&self) -> Option<(&[u8], u64)> {
        let head = self.head.as_ref()?;
        Some((&self.block.bytes()[head.key.clone()], head.seq))
    }

    /// Steps over the entry the cursor stands at.
    pub(crate) fn skip(&mut self) {
        if let Some(head) = self.head.take() {
            self.move_to(head.end);
        }
    }

    /// Steps over the entry the cursor stands at and returns it.
    pub(crate) fn pop(&mut self) -> Option<EntryView> {
        let span = self.head.take()?;
        let block = self.block.clone();
        self.move_to(span.end);
        Some(EntryView { block, span })
    }
}

/// Builds one data block up to a byte budget, in a buffer the device can
/// keep: the block is written once, where flash will hold it.
pub struct BlockBuilder {
    /// The whole block, zeroed: what the entries do not fill is its padding.
    buf: PayloadBuf,
    /// Bytes used.
    len: usize,
    entries: u32,
}

impl BlockBuilder {
    /// A builder for blocks of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        BlockBuilder {
            buf: PayloadBuf::zeroed(capacity),
            len: 0,
            entries: 0,
        }
    }

    fn entry_size(key: &[u8], value: Option<&[u8]>) -> usize {
        ENTRY_HEADER + key.len() + value.map_or(0, <[u8]>::len)
    }

    /// Whether `key`/`value` fits in the remaining space.
    pub fn fits(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        self.len + Self::entry_size(key, value) <= self.buf.len()
    }

    /// Appends a version (`None` value = tombstone). Caller keeps entries in
    /// `(key asc, seq desc)` order and checks [`BlockBuilder::fits`] first.
    ///
    /// Panics if the entry does not fit or the key is empty/oversized.
    pub fn add(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        assert!(!key.is_empty() && key.len() <= u16::MAX as usize, "bad key");
        assert!(self.fits(key, value), "entry does not fit");
        let vlen = match value {
            Some(v) => {
                assert!((v.len() as u64) < TOMBSTONE as u64, "value too large");
                v.len() as u32
            }
            None => TOMBSTONE,
        };
        let end = self.len + Self::entry_size(key, value);
        let (head, body) = self.buf.bytes_mut()[self.len..end].split_at_mut(ENTRY_HEADER);
        head[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        head[2..6].copy_from_slice(&vlen.to_le_bytes());
        head[6..].copy_from_slice(&seq.to_le_bytes());
        let (k, v) = body.split_at_mut(key.len());
        k.copy_from_slice(key);
        v.copy_from_slice(value.unwrap_or_default());
        self.len = end;
        self.entries += 1;
    }

    /// Entries added so far.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Bytes used.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finishes the block, zero-padded to `capacity`: the buffer it was
    /// built in, uncopied.
    pub fn finish(self) -> Payload {
        self.buf.freeze()
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
        Self::at(data, 0)
    }

    /// An iterator over block bytes from the entry at offset `pos` on.
    pub fn at(data: &'a [u8], pos: usize) -> Self {
        BlockIter { data, pos }
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
}

impl<'a> Iterator for BlockIter<'a> {
    /// `(key, seq, Some(value) | None-for-tombstone)`.
    type Item = (&'a [u8], u64, Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        let span = span_at(self.data, self.pos)?;
        self.pos = span.end;
        let value = span.value.map(|v| &self.data[v]);
        Some((&self.data[span.key], span.seq, value))
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
        let data = b.finish().to_vec();
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
        let data = b.finish().to_vec();
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
        let data = b.finish().to_vec();
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
        let data = b.finish().to_vec();
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
        (b.finish().to_vec(), end)
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
            let walked = with_entries(&block, 0, |entries| {
                entries
                    .map(|(k, s, v)| (k.to_vec(), s, v.map(<[u8]>::to_vec)))
                    .collect::<Vec<_>>()
            });
            assert_eq!(walked, owned(&padded), "{zeros} zeros");
            for (key, snap) in [(&b"z"[..], u64::MAX), (b"k", 6), (b"z", 0), (b"zz", 9)] {
                assert_eq!(
                    with_entries(&block, 0, |entries| entries.visible(key, snap).into_owned()),
                    BlockIter::find_visible(&padded, key, snap).into_owned(),
                    "{zeros} zeros, key {key:?}"
                );
            }
        }
    }

    /// Sorted, distinct keys of the shapes the anchors have to tell apart.
    fn random_keys(rng: &mut ox_sim::Prng, shape: u64, count: usize) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = (0..count)
            .map(
                |_| match if shape == 3 { rng.gen_range(3) } else { shape } {
                    // Shorter than a prefix, over an alphabet with the padding
                    // byte in it: "a" and "a\0" share theirs.
                    0 => (0..1 + rng.gen_range(7))
                        .map(|_| [0, b'a', b'b', 0xFF][rng.gen_range(4) as usize])
                        .collect(),
                    // The figure drivers' keys: the first eight bytes never vary.
                    1 => format!("{:016}", rng.gen_range(5000)).into_bytes(),
                    // oxperf's: a hash up front, so prefixes alone decide.
                    _ => [rng.next_u64().to_be_bytes(), rng.next_u64().to_be_bytes()].concat(),
                },
            )
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// A 16 KB block filled to the brim from `keys`: version runs of one to
    /// five entries (now and then forty), a fifth of them tombstones, values
    /// of `value_len(rng)` bytes that often end in zeros.
    fn random_block(
        rng: &mut ox_sim::Prng,
        keys: &[Vec<u8>],
        value_len: impl Fn(&mut ox_sim::Prng) -> usize,
    ) -> Vec<u8> {
        let mut b = BlockBuilder::new(4 * ocssd::SECTOR_BYTES);
        'fill: for key in keys {
            let run = if rng.gen_bool(0.05) {
                40
            } else {
                1 + rng.gen_range(5)
            };
            let mut seqs: Vec<u64> = (0..run).map(|_| 1 + rng.gen_range(1000)).collect();
            seqs.sort_unstable_by(|a, b| b.cmp(a));
            seqs.dedup();
            for seq in seqs {
                let mut value = vec![0u8; value_len(rng)];
                rng.fill_bytes(&mut value);
                let zeros = (rng.gen_range(3) * rng.gen_range(40)) as usize;
                let keep = value.len().saturating_sub(zeros);
                value[keep..].fill(0);
                let value = (!rng.gen_bool(0.2)).then_some(&value[..]);
                if !b.fits(key, value) {
                    break 'fill;
                }
                b.add(key, seq, value);
            }
        }
        b.finish().to_vec()
    }

    /// The keys of `data`, each with its neighbours in key order, and the
    /// snapshots at which what a reader sees of each can change.
    fn probes(data: &[u8], rng: &mut ox_sim::Prng) -> Vec<(Vec<u8>, u64)> {
        let mut probes = Vec::new();
        let mut snaps_of = |key: &[u8], seqs: &[u64]| {
            for snap in seqs.iter().flat_map(|&s| [s - 1, s, s + 1]).chain([
                0,
                u64::MAX,
                rng.gen_range(1002),
            ]) {
                probes.push((key.to_vec(), snap));
            }
        };
        let entries = owned(data);
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let key = &run[0].0;
            let seqs: Vec<u64> = run.iter().map(|e| e.1).collect();
            snaps_of(key, &seqs);
            snaps_of(&[&key[..], &[0]].concat(), &seqs);
            if key.len() > 1 {
                snaps_of(&key[..key.len() - 1], &seqs);
            }
        }
        probes
    }

    #[test]
    fn a_search_from_the_anchor_finds_what_a_search_from_the_top_finds() {
        for seed in ocssd::matrix_seeds(48) {
            let mut rng = ox_sim::Prng::seed_from_u64(seed);
            let shape = seed % 4;
            let sizes = (seed / 4) % 3;
            let keys = random_keys(&mut rng, shape, 600);
            let padded = random_block(&mut rng, &keys, |rng| match sizes {
                0 => 16,
                1 => 900 + rng.gen_range(200) as usize,
                _ => rng.gen_range(1200) as usize,
            });
            let entries = owned(&padded);
            let view = in_place(&padded);
            let stored = view.bytes();
            // Built from either, used on either: the copy-out path sees the
            // block with its zero tail, the in-place path without.
            let anchors = [BlockAnchors::build(&padded), BlockAnchors::build(stored)];
            for a in &anchors {
                assert!(a.0.len() <= padded.len() / ANCHOR_STRIDE, "seed {seed}");
                assert!(a.0.len() >= entries.len().min(8), "seed {seed}");
                if sizes == 0 {
                    assert!(a.0.len() * 10 < entries.len(), "seed {seed}: sparse");
                }
            }
            for (key, snap) in probes(&padded, &mut rng) {
                let want = BlockIter::find_visible(&padded, &key, snap).into_owned();
                for a in &anchors {
                    let from = a.seek(&padded, &key);
                    assert_eq!(
                        BlockIter::at(&padded, from)
                            .visible(&key, snap)
                            .into_owned(),
                        want,
                        "seed {seed}: key {key:?} at {snap} from {from}"
                    );
                    let from = a.seek(stored, &key);
                    assert_eq!(
                        with_entries(&view, from, |e| e.visible(&key, snap).into_owned()),
                        want,
                        "seed {seed}: key {key:?} at {snap} from {from}, in place"
                    );
                    // What a stream positioned there yields: everything from
                    // the first key at or after `key` on.
                    let mut cursor = BlockCursor::new(view.clone(), from);
                    while cursor.peek().is_some_and(|(k, _)| k < &key[..]) {
                        cursor.skip();
                    }
                    let skipped = entries.iter().take_while(|e| e.0 < key).count();
                    assert_eq!(
                        cursor.peek().map(|(k, s)| (k.to_vec(), s)),
                        entries.get(skipped).map(|e| (e.0.clone(), e.1)),
                        "seed {seed}: key {key:?} from {from}"
                    );
                }
            }
            // A cursor hands out every entry, the cut last one included, and
            // views taken before the cut stay good after it.
            let mut cursor = BlockCursor::new(view.clone(), 0);
            let views: Vec<EntryView> = std::iter::from_fn(|| cursor.pop()).collect();
            let walked: Vec<_> = views
                .iter()
                .map(|e| (e.key().to_vec(), e.seq(), e.value().map(<[u8]>::to_vec)))
                .collect();
            assert_eq!(walked, entries, "seed {seed}");
        }
    }

    #[test]
    fn anchors_of_a_slice_cut_at_or_after_the_last_entry_serve_the_padded_block() {
        for zeros in [0, 5] {
            let (padded, end) = block_ending_in_zeros(zeros);
            for cut in (end..end + 20).chain([padded.len()]) {
                let data = &padded[..cut];
                let anchors = BlockAnchors::build(data);
                assert_eq!(anchors.0.len(), 1, "a block this small has one");
                for key in [&b"a"[..], b"k", b"q", b"z", b"zz"] {
                    assert_eq!(anchors.seek(data, key), anchors.seek(&padded, key));
                }
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
