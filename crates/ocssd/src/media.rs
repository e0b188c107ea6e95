//! Extent store for payloads, and the shared view reads hand out.
//!
//! NAND is written once until it is erased, so the bytes of an accepted
//! write command never change. The store therefore keeps them in immutable,
//! reference-counted buffers — *extents*, one per command unless the command
//! has holes — in a list per chunk, ordered by start sector (writes land on
//! the write pointer), and a read hands out a [`Payload`]: a view that shares
//! the extent's buffer instead of copying it. A reset or a crash rollback
//! only drops the store's own references; a view taken earlier keeps its
//! bytes alive and unchanged for as long as it is held, so nobody can observe
//! a chunk's rewrite through an old view.
//!
//! Zero tails are not stored: log frames and other padded writes are common
//! on a `ws_min`-constrained device, and leaving the padding out keeps
//! simulated multi-gigabyte logs cheap in host memory. Payload storage is
//! exact: reads return precisely the bytes written, which the KV-store
//! correctness tests depend on.

use crate::SECTOR_BYTES;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Read-only view of payload bytes that shares the device's buffer.
///
/// The view is `len()` bytes long; `bytes()` is the prefix actually held in
/// memory and everything after it is zero (the store trims zero tails).
/// Cloning is a reference-count bump. The bytes never change while a view
/// exists, whatever happens to the chunk they were read from.
#[derive(Clone, Debug)]
pub struct Payload {
    data: Arc<[u8]>,
    /// Where `bytes()` lies in `data`: what the buffer holds of the view.
    stored: Range<usize>,
    len: usize,
}

impl Payload {
    /// A view of a fresh `len`-byte buffer that `fill` writes — how a read
    /// path without a shared buffer to point into produces a `Payload`.
    pub fn filled<T, E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<T, E>,
    ) -> Result<(Payload, T), E> {
        let mut buf = PayloadBuf::zeroed(len);
        let out = fill(buf.bytes_mut())?;
        Ok((buf.freeze(), out))
    }

    /// A view of `len` zero bytes that holds none of them: padding, sent as
    /// one part of a gathered write, costs no buffer.
    pub fn zeros(len: usize) -> Payload {
        Payload {
            data: Arc::from(&[][..]),
            stored: 0..0,
            len,
        }
    }

    /// This view followed by zeros up to `len` bytes. The buffer is not
    /// touched, so a header encoded at its exact length and sent as a whole
    /// sector pins only its own bytes.
    pub fn zero_extended(mut self, len: usize) -> Payload {
        assert!(len >= self.len, "a view is extended, not cut");
        self.len = len;
        self
    }

    /// Bytes `range` of the view, as a view of the same buffer.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range outside the view"
        );
        let held = self.stored.len();
        let at = |off: usize| self.stored.start + off.min(held);
        Payload {
            data: self.data.clone(),
            stored: at(range.start)..at(range.end),
            len: range.len(),
        }
    }

    /// The bytes of `parts` one after another, zero tails included: borrowed
    /// when there is one part and its buffer holds all of it.
    pub fn concat(parts: &[Payload]) -> Cow<'_, [u8]> {
        if let [one] = parts {
            return one.padded();
        }
        let mut out = Vec::with_capacity(parts.iter().map(Payload::len).sum());
        for part in parts {
            out.extend_from_slice(part.bytes());
            out.resize(out.len() + part.len - part.stored.len(), 0);
        }
        Cow::Owned(out)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The view's bytes up to its zero tail: a prefix of the `len()` bytes,
    /// all the rest being zero.
    pub fn bytes(&self) -> &[u8] {
        &self.data[self.stored.clone()]
    }

    /// Copies the view into `out`, which must be `len()` bytes long.
    pub fn copy_to(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len, "buffer must match the view");
        let (head, tail) = out.split_at_mut(self.stored.len());
        head.copy_from_slice(self.bytes());
        tail.fill(0);
    }

    /// The view's bytes, zero tail included, as an owned buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(self.bytes());
        out.resize(self.len, 0);
        out
    }

    /// The view's bytes, zero tail included: borrowed when the buffer holds
    /// them all, copied out otherwise.
    pub fn padded(&self) -> Cow<'_, [u8]> {
        if self.stored.len() == self.len {
            Cow::Borrowed(self.bytes())
        } else {
            Cow::Owned(self.to_vec())
        }
    }
}

/// A copy of `bytes` in a buffer of its own.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload {
            data: bytes.into(),
            stored: 0..bytes.len(),
            len: bytes.len(),
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from(&bytes[..])
    }
}

/// A zeroed buffer with one owner, who fills it in and hands it on as a
/// [`Payload`] — to a reader, or to the device, which keeps a payload written
/// through `write_parts` as it is instead of copying it. The write-side
/// counterpart of a view: the bytes are written once, where flash will hold
/// them.
#[derive(Debug)]
pub struct PayloadBuf {
    data: Arc<[u8]>,
}

impl PayloadBuf {
    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        PayloadBuf {
            data: std::iter::repeat_n(0u8, len).collect(),
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The buffer, to write into. (`data` never leaves this type before
    /// [`PayloadBuf::freeze`], so it is always the only reference and
    /// `make_mut` never copies.)
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data)
    }

    /// The finished buffer as a view of all of it; nothing is copied.
    pub fn freeze(self) -> Payload {
        let len = self.data.len();
        Payload {
            data: self.data,
            stored: 0..len,
            len,
        }
    }
}

/// The payload of one accepted write (or copy) command, or of one piece of
/// it (see [`MediaStore::write`]).
struct Extent {
    /// First sector within the chunk.
    start: u32,
    sectors: u32,
    /// The buffer holding the payload minus its trailing zeros, at most
    /// `sectors` sectors of it: a copy, or the writer's own buffer, adopted
    /// (see [`MediaStore::write_parts`]).
    data: Arc<[u8]>,
    /// How many bytes at the end of `data` do not count: none of a copy; an
    /// adopted buffer may run on, in zeros, for less than a sector. (Two
    /// bytes, not a length: update workloads keep an extent per journal
    /// frame, and this way an extent is no larger than it was.)
    spare: u16,
}

impl Extent {
    fn end(&self) -> u32 {
        self.start + self.sectors
    }

    /// How many bytes of `data` count.
    fn held(&self) -> usize {
        self.data.len() - self.spare as usize
    }

    /// Where in `data` the extent holds `sectors` sectors starting at chunk
    /// sector `from` (which it contains): empty when they lie in its zero
    /// tail.
    fn stored_range(&self, from: u32, sectors: u32) -> Range<usize> {
        let held = self.held();
        let off = ((from - self.start) as usize * SECTOR_BYTES).min(held);
        off..(off + sectors as usize * SECTOR_BYTES).min(held)
    }

    fn stored(&self, from: u32, sectors: u32) -> &[u8] {
        &self.data[self.stored_range(from, sectors)]
    }
}

/// Zero tail of a sector from which on it is worth leaving out of memory:
/// a command is stored in one piece unless a sector inside it ends in at
/// least this many zero bytes.
const SPLIT_SLACK: usize = SECTOR_BYTES / 8;

/// Length of `data` without its trailing zero bytes. Every sector the device
/// accepts comes through here and padding is most of many of them, so the
/// tail is dropped 16 bytes at a time and only the last word bytewise.
fn used(data: &[u8]) -> usize {
    let mut live = data;
    while let Some((head, word)) = live.split_last_chunk::<16>() {
        if u128::from_ne_bytes(*word) != 0 {
            break;
        }
        live = head;
    }
    while let [head @ .., 0] = live {
        live = head;
    }
    live.len()
}

/// Per-chunk extent lists, indexed by the chunk's linear index and grown to
/// the highest chunk written: a mostly-empty multi-gigabyte device costs
/// memory proportional to what was written.
#[derive(Default)]
pub(crate) struct MediaStore {
    chunks: Vec<Vec<Extent>>,
    sectors: usize,
}

impl MediaStore {
    /// Stores the payload of a command accepted at `start`, the chunk's
    /// write pointer; `data` must be whole sectors. Zero tails are left out:
    /// the command's own, and that of any sector inside it that ends in
    /// [`SPLIT_SLACK`] zero bytes or more (a header sector in front of its
    /// data, a frame padded to the write unit) — the command is split into
    /// one extent per such piece, so host memory stays proportional to what
    /// was written while a payload without holes stays in one buffer.
    pub(crate) fn write(&mut self, chunk: usize, start: u32, data: &[u8]) {
        debug_assert!(data.len().is_multiple_of(SECTOR_BYTES));
        self.store(chunk, start, data, data.len() / SECTOR_BYTES, None);
    }

    /// [`MediaStore::write`] of the concatenation of `parts`, payloads the
    /// writer built in buffers the store can keep, each filed at its own
    /// sector offset. A part that `write` would store in one piece is
    /// *adopted* — the extent is the writer's buffer, nothing is copied —
    /// provided that leaves less than a sector of the buffer unused (the
    /// trimmed zero tail, or whatever else of the buffer the part is not a
    /// view of). Anything else — holes, a long zero tail — is copied exactly
    /// as `write` would copy it, so what is resident stays what was written,
    /// to within that sector per part. A part that holds nothing behind
    /// another (padding) joins that piece as zero tail, as it would in
    /// `write`; a part that ends inside a sector has the whole command
    /// copied.
    pub(crate) fn write_parts(&mut self, chunk: usize, start: u32, parts: &[Payload]) {
        if parts.iter().any(|p| !p.len.is_multiple_of(SECTOR_BYTES)) {
            self.write(chunk, start, &Payload::concat(parts));
            return;
        }
        let mut at = start;
        for part in parts.iter().filter(|p| !p.is_empty()) {
            let sectors = part.len / SECTOR_BYTES;
            let tail_of = self.chunks.get_mut(chunk).and_then(|list| list.last_mut());
            match tail_of {
                Some(piece) if at > start && part.stored.is_empty() => {
                    piece.sectors += sectors as u32;
                    self.sectors += sectors;
                }
                _ => {
                    let whole = (part.stored.start == 0).then_some(&part.data);
                    self.store(chunk, at, part.bytes(), sectors, whole);
                }
            }
            at += sectors as u32;
        }
    }

    /// Stores a command of `total` sectors whose bytes are `data` followed
    /// by zeros. `whole` is the buffer `data` is the head of, if the store
    /// may keep it.
    fn store(
        &mut self,
        chunk: usize,
        start: u32,
        data: &[u8],
        total: usize,
        whole: Option<&Arc<[u8]>>,
    ) {
        if self.chunks.len() <= chunk {
            self.chunks.resize_with(chunk + 1, Vec::new);
        }
        let list = &mut self.chunks[chunk];
        debug_assert_eq!(list.last().map_or(0, Extent::end), start);
        let total = total as u32;
        let mut push = |first: u32, end: u32, data_end: usize, keep: Option<&Arc<[u8]>>| {
            let from = first as usize * SECTOR_BYTES;
            let data: Arc<[u8]> = match keep {
                Some(buf) => buf.clone(),
                None => data[from..data_end.max(from)].into(),
            };
            list.push(Extent {
                start: start + first,
                sectors: end - first,
                // Less than a sector, or the buffer is not kept.
                spare: (data.len() - data_end.saturating_sub(from)) as u16,
                data,
            });
        };
        // The piece being gathered: its first sector, where its data ends,
        // and whether a zero tail has closed it to further data.
        let (mut first, mut data_end, mut closed) = (0, 0, false);
        // (Whole sectors apart from what is left over: `used` is at its best
        // on a slice of known length.)
        let whole_sectors = data.chunks_exact(SECTOR_BYTES);
        let rest = whole_sectors.remainder();
        let used_per_sector = whole_sectors
            .map(used)
            .chain((!rest.is_empty()).then(|| used(rest)));
        for (i, used) in used_per_sector.enumerate() {
            if used == 0 {
                closed = true;
                continue;
            }
            if closed {
                push(first, i as u32, data_end, None);
                first = i as u32;
            }
            data_end = i * SECTOR_BYTES + used;
            closed = SECTOR_BYTES - used >= SPLIT_SLACK;
        }
        // The only piece of its command, in a buffer that holds little else,
        // is kept as it is.
        let keep = whole.filter(|buf| first == 0 && buf.len() - data_end < SECTOR_BYTES);
        push(first, total, data_end, keep);
        self.sectors += total as usize;
    }

    /// The extent of `chunk` holding `sector`, if it is written.
    fn extent(&self, chunk: usize, sector: u32) -> Option<&Extent> {
        let list = self.chunks.get(chunk)?;
        let i = list.partition_point(|e| e.end() <= sector);
        list.get(i).filter(|e| e.start <= sector)
    }

    /// Copies `out.len() / SECTOR_BYTES` sectors starting at `start` into
    /// `out`; returns false if any of them is unwritten.
    pub(crate) fn read(&self, chunk: usize, start: u32, out: &mut [u8]) -> bool {
        debug_assert!(out.len().is_multiple_of(SECTOR_BYTES));
        let end = start + (out.len() / SECTOR_BYTES) as u32;
        let mut at = start;
        let mut out = out;
        while at < end {
            let Some(ext) = self.extent(chunk, at) else {
                return false;
            };
            let sectors = end.min(ext.end()) - at;
            let (head, rest) = out.split_at_mut(sectors as usize * SECTOR_BYTES);
            let stored = ext.stored(at, sectors);
            head[..stored.len()].copy_from_slice(stored);
            head[stored.len()..].fill(0);
            out = rest;
            at += sectors;
        }
        true
    }

    /// A view of `sectors` sectors starting at `start`: the extent's own
    /// buffer when one command wrote them all, a gathered copy otherwise.
    /// `None` if any of them is unwritten.
    pub(crate) fn view(&self, chunk: usize, start: u32, sectors: u32) -> Option<Payload> {
        let len = sectors as usize * SECTOR_BYTES;
        let ext = self.extent(chunk, start)?;
        if start + sectors <= ext.end() {
            return Some(Payload {
                data: ext.data.clone(),
                stored: ext.stored_range(start, sectors),
                len,
            });
        }
        Payload::filled(len, |out| {
            self.read(chunk, start, out).then_some(()).ok_or(())
        })
        .ok()
        .map(|(view, ())| view)
    }

    /// Device-internal copy: gathers the sectors `srcs` (chunk index, sector)
    /// into one new extent at `start`, the destination's write pointer.
    /// Returns false, storing nothing, if a source is unwritten.
    pub(crate) fn copy(&mut self, srcs: &[(usize, u32)], chunk: usize, start: u32) -> bool {
        let mut data = vec![0u8; srcs.len() * SECTOR_BYTES];
        for (&(src_chunk, sector), out) in srcs.iter().zip(data.chunks_exact_mut(SECTOR_BYTES)) {
            if !self.read(src_chunk, sector, out) {
                return false;
            }
        }
        self.write(chunk, start, &data);
        true
    }

    /// Discards a chunk's payloads from sector `from` on: everything for a
    /// reset (`from` = 0), the tail past the durable pointer for a crash
    /// rollback.
    pub(crate) fn truncate(&mut self, chunk: usize, from: u32) {
        let Some(list) = self.chunks.get_mut(chunk) else {
            return;
        };
        let keep = list.partition_point(|e| e.start < from);
        let mut dropped: usize = list.drain(keep..).map(|e| e.sectors as usize).sum();
        // Rollbacks land on command boundaries (durability is per command);
        // an extent that straddles the cut is shortened all the same.
        if let Some(last) = list.last_mut().filter(|e| e.end() > from) {
            let sectors = from - last.start;
            let data: Arc<[u8]> = last.stored(last.start, sectors).into();
            dropped += (last.sectors - sectors) as usize;
            last.sectors = sectors;
            last.spare = 0;
            last.data = data;
        }
        self.sectors -= dropped;
    }

    /// Number of sectors currently stored.
    pub(crate) fn len(&self) -> usize {
        self.sectors
    }

    /// Payload bytes `chunk`'s extents hold in memory.
    pub(crate) fn resident_bytes(&self, chunk: usize) -> usize {
        let extents = self.chunks.get(chunk).into_iter().flatten();
        extents.map(|e| e.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ox_sim::Prng;

    fn sectors(fills: &[u8]) -> Vec<u8> {
        fills
            .iter()
            .flat_map(|&f| std::iter::repeat_n(f, SECTOR_BYTES))
            .collect()
    }

    fn read(m: &MediaStore, chunk: usize, start: u32, n: u32) -> Option<Vec<u8>> {
        let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
        m.read(chunk, start, &mut out).then_some(out)
    }

    /// What `used` computes, one byte at a time: its oracle.
    fn used_bytewise(data: &[u8]) -> usize {
        data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1)
    }

    #[test]
    fn used_matches_the_bytewise_scan() {
        let check = |data: &[u8], what: &str, n: usize| {
            assert_eq!(used(data), used_bytewise(data), "{what} {n}");
        };
        // Every zero-tail length of a sector behind data; one live byte and
        // nothing else, and nothing at all, in buffers of every length.
        let zeros = vec![0u8; SECTOR_BYTES];
        for tail in 0..=SECTOR_BYTES {
            let mut data = vec![0xA5u8; SECTOR_BYTES];
            data[SECTOR_BYTES - tail..].fill(0);
            check(&data, "zero tail of", tail);
            data[1..].fill(0);
            check(&data[..SECTOR_BYTES - tail], "lone head byte, cut by", tail);
            check(&zeros[tail..], "all zeros, cut by", tail);
        }
        // A lone non-zero byte at every offset of the last three words.
        for back in 1..=48 {
            let mut data = vec![0u8; SECTOR_BYTES];
            data[SECTOR_BYTES - back] = 0x80;
            check(&data, "lone byte, from the end", back);
            check(&data[5..], "lone byte, unaligned, from the end", back);
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = MediaStore::default();
        m.write(2, 0, &sectors(&[7, 8]));
        assert_eq!(read(&m, 2, 0, 2), Some(sectors(&[7, 8])));
        assert_eq!(read(&m, 2, 1, 1), Some(sectors(&[8])));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unwritten_sectors_report_missing() {
        let mut m = MediaStore::default();
        assert_eq!(read(&m, 0, 0, 1), None);
        assert!(m.view(0, 0, 1).is_none());
        m.write(0, 0, &sectors(&[1]));
        assert_eq!(read(&m, 0, 0, 2), None, "second sector unwritten");
        assert!(m.view(0, 0, 2).is_none());
        assert_eq!(read(&m, 1, 0, 1), None, "other chunk untouched");
    }

    #[test]
    fn zero_tail_is_trimmed_and_read_back() {
        let mut m = MediaStore::default();
        let mut data = sectors(&[0, 0, 0]);
        data[5] = 9;
        m.write(0, 0, &data);
        assert_eq!(m.chunks[0].len(), 1);
        assert_eq!(m.chunks[0][0].data.len(), 6, "zero tail left out");
        assert_eq!(m.len(), 3, "zero sectors still count as stored");
        assert_eq!(read(&m, 0, 0, 3), Some(data.clone()));
        // A view into the trimmed tail holds nothing and reads as zeros.
        let tail = m.view(0, 1, 2).unwrap();
        assert!(tail.bytes().is_empty());
        assert_eq!(tail.to_vec(), sectors(&[0, 0]));
        let head = m.view(0, 0, 3).unwrap();
        assert_eq!(head.bytes(), &data[..6]);
        assert_eq!(head.to_vec(), data);
    }

    #[test]
    fn a_command_splits_where_a_sector_ends_in_a_long_zero_tail() {
        let mut m = MediaStore::default();
        // Header sector (20 bytes), two data sectors, a zero sector, a
        // sector that is all data but for a short zero tail, one more.
        let mut data = sectors(&[0, 3, 4, 0, 5, 6]);
        data[..20].fill(1);
        data[5 * SECTOR_BYTES - SPLIT_SLACK + 1..5 * SECTOR_BYTES].fill(0);
        m.write(0, 0, &data);
        let pieces: Vec<(u32, u32, usize)> = m.chunks[0]
            .iter()
            .map(|e| (e.start, e.sectors, e.data.len()))
            .collect();
        assert_eq!(
            pieces,
            vec![
                (0, 1, 20),
                (1, 3, 2 * SECTOR_BYTES),
                (4, 2, 2 * SECTOR_BYTES)
            ],
            "a short zero tail does not split"
        );
        assert_eq!(m.len(), 6);
        assert_eq!(read(&m, 0, 0, 6), Some(data.clone()));
        assert_eq!(m.view(0, 0, 6).unwrap().to_vec(), data);
        // An all-zero command is one extent that holds nothing.
        m.write(0, 6, &sectors(&[0, 0]));
        assert_eq!(m.chunks[0].len(), 4);
        assert!(m.chunks[0][3].data.is_empty());
        assert_eq!(read(&m, 0, 5, 3), Some(sectors(&[6, 0, 0])));
    }

    #[test]
    fn view_shares_one_extent_and_gathers_across_two() {
        let mut m = MediaStore::default();
        m.write(0, 0, &sectors(&[1, 2]));
        m.write(0, 2, &sectors(&[3, 4]));
        let inside = m.view(0, 1, 1).unwrap();
        assert!(Arc::ptr_eq(&inside.data, &m.chunks[0][0].data));
        assert_eq!(inside.to_vec(), sectors(&[2]));
        let across = m.view(0, 1, 2).unwrap();
        assert!(!Arc::ptr_eq(&across.data, &m.chunks[0][0].data));
        assert_eq!(across.to_vec(), sectors(&[2, 3]));
        let mut out = sectors(&[0xEE, 0xEE]);
        across.copy_to(&mut out);
        assert_eq!(out, sectors(&[2, 3]));
    }

    #[test]
    fn copy_gathers_into_a_new_extent() {
        let mut m = MediaStore::default();
        m.write(0, 0, &sectors(&[5, 6]));
        m.write(1, 0, &sectors(&[7, 0]));
        assert!(m.copy(&[(1, 0), (0, 1), (1, 1)], 2, 0));
        assert_eq!(read(&m, 2, 0, 3), Some(sectors(&[7, 6, 0])));
        assert_eq!(m.len(), 7);
        assert!(!m.copy(&[(0, 2)], 2, 3), "unwritten source");
        assert_eq!(m.len(), 7);
    }

    #[test]
    fn truncate_drops_the_tail_or_everything() {
        let mut m = MediaStore::default();
        m.write(0, 0, &sectors(&[1, 2]));
        m.write(0, 2, &sectors(&[3, 4]));
        m.write(1, 0, &sectors(&[9]));
        m.truncate(0, 2);
        assert_eq!(read(&m, 0, 0, 2), Some(sectors(&[1, 2])));
        assert_eq!(read(&m, 0, 2, 1), None);
        assert_eq!(m.len(), 3);
        // Mid-extent cut keeps the prefix.
        m.truncate(0, 1);
        assert_eq!(read(&m, 0, 0, 1), Some(sectors(&[1])));
        assert_eq!(read(&m, 0, 1, 1), None);
        assert_eq!(m.len(), 2);
        // The cut chunk is writable again from there.
        m.write(0, 1, &sectors(&[8]));
        assert_eq!(read(&m, 0, 0, 2), Some(sectors(&[1, 8])));
        m.truncate(0, 0);
        assert_eq!(read(&m, 0, 0, 1), None);
        assert_eq!(m.len(), 1, "chunk 1 untouched");
    }

    #[test]
    fn a_view_outlives_reset_and_rewrite() {
        let mut m = MediaStore::default();
        m.write(0, 0, &sectors(&[4]));
        let old = m.view(0, 0, 1).unwrap();
        m.truncate(0, 0);
        m.write(0, 0, &sectors(&[5]));
        assert_eq!(old.to_vec(), sectors(&[4]));
        assert_eq!(m.view(0, 0, 1).unwrap().to_vec(), sectors(&[5]));
        assert_eq!(Arc::strong_count(&old.data), 1, "the store let go of it");
    }

    /// `data` in a buffer of its own that the store may keep.
    fn owned(data: &[u8]) -> Payload {
        let mut buf = PayloadBuf::zeroed(data.len());
        buf.bytes_mut().copy_from_slice(data);
        buf.freeze()
    }

    /// What the store holds of `chunk`: per extent its start, its sectors,
    /// the bytes that count and the bytes of its buffer.
    fn pieces(m: &MediaStore, chunk: usize) -> Vec<(u32, u32, usize, usize)> {
        m.chunks[chunk]
            .iter()
            .map(|e| (e.start, e.sectors, e.held(), e.data.len()))
            .collect()
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_extent_is_as_small_as_before_it_could_be_adopted() {
        assert_eq!(std::mem::size_of::<Extent>(), 32);
    }

    #[test]
    fn a_payload_in_one_piece_is_adopted_not_copied() {
        let mut m = MediaStore::default();
        // Full sectors; a zero tail short of a sector; a short zero tail
        // inside (no split) — all one piece, all kept as they are.
        let full = owned(&sectors(&[1, 2, 3]));
        let mut tailed = sectors(&[4, 5]);
        tailed[2 * SECTOR_BYTES - 900..].fill(0);
        let tailed = owned(&tailed);
        let mut dented = sectors(&[6, 7]);
        dented[SECTOR_BYTES - SPLIT_SLACK + 1..SECTOR_BYTES].fill(0);
        let dented = owned(&dented);
        m.write_parts(0, 0, std::slice::from_ref(&full));
        m.write_parts(0, 3, std::slice::from_ref(&tailed));
        m.write_parts(0, 5, std::slice::from_ref(&dented));
        assert_eq!(
            pieces(&m, 0),
            vec![
                (0, 3, 3 * SECTOR_BYTES, 3 * SECTOR_BYTES),
                (3, 2, 2 * SECTOR_BYTES - 900, 2 * SECTOR_BYTES),
                (5, 2, 2 * SECTOR_BYTES, 2 * SECTOR_BYTES),
            ]
        );
        for (i, payload) in [&full, &tailed, &dented].into_iter().enumerate() {
            assert!(
                Arc::ptr_eq(&m.chunks[0][i].data, &payload.data),
                "extent {i}"
            );
        }
        assert_eq!(m.len(), 7);
        // Reads and views leave the zero tail out as if it had been trimmed.
        assert_eq!(read(&m, 0, 3, 2), Some(tailed.to_vec()));
        let view = m.view(0, 3, 2).unwrap();
        assert!(Arc::ptr_eq(&view.data, &tailed.data));
        assert_eq!(view.bytes().len(), 2 * SECTOR_BYTES - 900);
        assert_eq!(view.to_vec(), tailed.to_vec());
        assert!(m.view(0, 4, 1).unwrap().bytes().len() == SECTOR_BYTES - 900);
        // The store holds a reference of its own.
        let want = full.to_vec();
        drop(full);
        assert_eq!(read(&m, 0, 0, 3), Some(want));
    }

    #[test]
    fn a_payload_with_holes_or_a_long_tail_is_copied_as_write_copies_it() {
        let cases: Vec<Vec<u8>> = vec![
            // A header sector in front of its data: two pieces.
            {
                let mut d = sectors(&[0, 3, 4]);
                d[..20].fill(1);
                d
            },
            // A zero tail of a sector and more: one piece, trimmed.
            sectors(&[5, 0]),
            {
                let mut d = sectors(&[5, 6, 7]);
                d[SECTOR_BYTES + 10..].fill(0);
                d
            },
            // Nothing but zeros.
            sectors(&[0, 0]),
        ];
        for data in cases {
            let (mut copied, mut shared) = (MediaStore::default(), MediaStore::default());
            copied.write(0, 0, &data);
            let payload = owned(&data);
            shared.write_parts(0, 0, std::slice::from_ref(&payload));
            assert_eq!(pieces(&shared, 0), pieces(&copied, 0));
            assert!(shared.chunks[0]
                .iter()
                .all(|e| !Arc::ptr_eq(&e.data, &payload.data)));
            let n = (data.len() / SECTOR_BYTES) as u32;
            assert_eq!(read(&shared, 0, 0, n), Some(data));
            assert_eq!(shared.len(), copied.len());
            assert_eq!(shared.resident_bytes(0), copied.resident_bytes(0));
        }
    }

    #[test]
    fn a_view_is_adopted_only_if_it_is_most_of_its_buffer() {
        let mut m = MediaStore::default();
        m.write(0, 0, &sectors(&[1, 2, 3, 0]));
        // The head of a buffer that holds two sectors more: copied. All of
        // a three-sector buffer, read as four sectors: kept.
        let head = m.view(0, 0, 1).unwrap();
        let all = m.view(0, 0, 4).unwrap();
        let inner = m.view(0, 1, 2).unwrap();
        m.write_parts(1, 0, std::slice::from_ref(&head));
        m.write_parts(1, 1, std::slice::from_ref(&all));
        m.write_parts(1, 5, std::slice::from_ref(&inner));
        assert_eq!(
            pieces(&m, 1),
            vec![
                (0, 1, SECTOR_BYTES, SECTOR_BYTES),
                (1, 4, 3 * SECTOR_BYTES, 3 * SECTOR_BYTES),
                (5, 2, 2 * SECTOR_BYTES, 2 * SECTOR_BYTES),
            ]
        );
        let kept: Vec<bool> = m.chunks[1]
            .iter()
            .map(|e| Arc::ptr_eq(&e.data, &m.chunks[0][0].data))
            .collect();
        assert_eq!(kept, [false, true, false]);
        assert_eq!(read(&m, 1, 0, 7), Some(sectors(&[1, 1, 2, 3, 0, 2, 3])));
    }

    #[test]
    fn an_adopted_extent_is_cut_and_dropped_like_a_copied_one() {
        let mut m = MediaStore::default();
        let payload = owned(&sectors(&[1, 2, 3]));
        m.write_parts(0, 0, std::slice::from_ref(&payload));
        let before = m.view(0, 0, 3).unwrap();
        // A cut inside it keeps the prefix, in a buffer of the store's own.
        m.truncate(0, 2);
        assert_eq!(
            pieces(&m, 0),
            vec![(0, 2, 2 * SECTOR_BYTES, 2 * SECTOR_BYTES)]
        );
        assert!(!Arc::ptr_eq(&m.chunks[0][0].data, &payload.data));
        assert_eq!(read(&m, 0, 0, 2), Some(sectors(&[1, 2])));
        assert_eq!(read(&m, 0, 2, 1), None);
        assert_eq!(m.len(), 2);
        m.truncate(0, 0);
        assert_eq!(m.len(), 0);
        // Views taken before either keep what they saw.
        assert_eq!(before.to_vec(), sectors(&[1, 2, 3]));
        assert_eq!(
            Arc::strong_count(&payload.data),
            2,
            "the writer and the view"
        );
    }

    /// One command of `n` sectors as `write` gets it and as parts cut at
    /// random sector boundaries: buffers of their own, views of `src`'s
    /// extents, header sectors at their exact length, padding that holds
    /// nothing. Also returns how many parts the store may keep as they are.
    fn cut_into_parts(
        rng: &mut Prng,
        src: &mut MediaStore,
        n: usize,
    ) -> (Vec<u8>, Vec<Payload>, usize) {
        let (mut data, mut parts, mut keepable) = (Vec::new(), Vec::new(), 0);
        let mut left = n;
        while left > 0 {
            let n = 1 + rng.gen_range(left as u64) as usize;
            let mut bytes = vec![0u8; n * SECTOR_BYTES];
            let make = rng.gen_range(4);
            keepable += usize::from(make < 2);
            let part = match make {
                0 => {
                    rng.fill_bytes(&mut bytes);
                    owned(&bytes)
                }
                1 => {
                    let tail = rng.gen_range(600) as usize;
                    rng.fill_bytes(&mut bytes[..n * SECTOR_BYTES - tail]);
                    let at = src
                        .chunks
                        .first()
                        .and_then(|l| l.last())
                        .map_or(0, Extent::end);
                    src.write(0, at, &bytes);
                    src.view(0, at, n as u32).unwrap()
                }
                2 => {
                    let used = 1 + rng.gen_range(64) as usize;
                    rng.fill_bytes(&mut bytes[..used]);
                    bytes[used - 1] |= 1;
                    Payload::from(&bytes[..used]).zero_extended(bytes.len())
                }
                _ => Payload::zeros(bytes.len()),
            };
            data.extend_from_slice(&bytes);
            parts.push(part);
            left -= n;
        }
        (data, parts, keepable)
    }

    #[test]
    fn a_gathered_command_cut_anywhere_keeps_the_prefix_write_keeps() {
        let mut rng = Prng::seed_from_u64(0x9A7);
        let mut src = MediaStore::default();
        for round in 0..400 {
            let (mut copied, mut gathered) = (MediaStore::default(), MediaStore::default());
            // A command in front, so a cut may fall behind other extents.
            copied.write(0, 0, &sectors(&[1, 2]));
            gathered.write(0, 0, &sectors(&[1, 2]));
            let n = 1 + rng.gen_range(12) as u32;
            let (data, parts, keepable) = cut_into_parts(&mut rng, &mut src, n as usize);
            copied.write(0, 2, &data);
            gathered.write_parts(0, 2, &parts);
            let what = format!("round {round}");
            assert_eq!(
                read(&gathered, 0, 0, 2 + n),
                read(&copied, 0, 0, 2 + n),
                "{what}"
            );
            assert_eq!(gathered.len(), copied.len(), "{what}");
            let slack = keepable * (SECTOR_BYTES - 1);
            assert!(gathered.resident_bytes(0) <= copied.resident_bytes(0) + slack);
            let before = gathered.view(0, 2, n).unwrap();
            // A rollback through the middle of the command, or at its ends.
            let cut = 2 + rng.gen_range(n as u64 + 1) as u32;
            copied.truncate(0, cut);
            gathered.truncate(0, cut);
            assert_eq!(
                read(&gathered, 0, 0, cut),
                read(&copied, 0, 0, cut),
                "{what}"
            );
            assert_eq!(read(&gathered, 0, cut, 1), None, "{what}");
            assert_eq!(gathered.len(), copied.len(), "{what}");
            assert!(gathered.resident_bytes(0) <= copied.resident_bytes(0) + slack);
            assert_eq!(before.to_vec(), data, "{what}: a view outlives the cut");
        }
    }

    #[test]
    fn a_header_and_its_padding_hold_only_the_header() {
        let mut m = MediaStore::default();
        let header = Payload::from(&[9u8; 44][..]).zero_extended(SECTOR_BYTES);
        let data = owned(&sectors(&[5, 6]));
        let parts = [header, data.clone(), Payload::zeros(SECTOR_BYTES)];
        m.write_parts(0, 0, &parts);
        assert_eq!(
            pieces(&m, 0),
            vec![(0, 1, 44, 44), (1, 3, 2 * SECTOR_BYTES, 2 * SECTOR_BYTES)],
            "the padding is the data's zero tail, as `write` stores it"
        );
        assert!(Arc::ptr_eq(&m.chunks[0][1].data, &data.data));
        let mut want = sectors(&[0, 5, 6, 0]);
        want[..44].fill(9);
        assert_eq!(read(&m, 0, 0, 4), Some(want));
        assert_eq!(m.len(), 4);
        // A gathered command that is nothing but padding holds nothing.
        m.write_parts(
            0,
            4,
            &[Payload::zeros(SECTOR_BYTES), Payload::zeros(SECTOR_BYTES)],
        );
        assert_eq!(pieces(&m, 0)[2], (4, 2, 0, 0));
        assert_eq!(read(&m, 0, 4, 2), Some(sectors(&[0, 0])));
    }

    #[test]
    fn parts_that_end_inside_a_sector_are_written_as_their_bytes() {
        let (mut copied, mut gathered) = (MediaStore::default(), MediaStore::default());
        let data = sectors(&[3, 4]);
        copied.write(0, 0, &data);
        let (head, tail) = data.split_at(100);
        gathered.write_parts(0, 0, &[owned(head), owned(tail)]);
        assert_eq!(pieces(&gathered, 0), pieces(&copied, 0));
        assert_eq!(read(&gathered, 0, 0, 2), Some(data));
    }

    #[test]
    fn a_slice_is_a_view_of_the_same_buffer() {
        let mut m = MediaStore::default();
        let mut data = sectors(&[1, 2, 0]);
        data[2 * SECTOR_BYTES - 10..].fill(0);
        m.write(0, 0, &data);
        let view = m.view(0, 0, 3).unwrap();
        for (from, to) in [(0, 3), (1, 2), (2, 3), (0, 0), (1, 3)] {
            let range = from * SECTOR_BYTES..to * SECTOR_BYTES;
            let slice = view.slice(range.clone());
            assert!(Arc::ptr_eq(&slice.data, &view.data));
            assert_eq!(slice.to_vec(), data[range], "{from}..{to}");
        }
        assert_eq!(
            Payload::concat(&[view.slice(0..10), view.clone()]).len(),
            10 + data.len()
        );
    }

    #[test]
    fn filled_wraps_a_fresh_buffer() {
        let (p, n) = Payload::filled(8, |b| {
            b[1] = 3;
            Ok::<_, ()>(b.len())
        })
        .unwrap();
        assert_eq!((p.len(), n), (8, 8));
        assert_eq!(p.bytes(), &[0, 3, 0, 0, 0, 0, 0, 0]);
        assert!(Payload::filled(8, |_| Err::<(), _>(7)).is_err());
    }
}
