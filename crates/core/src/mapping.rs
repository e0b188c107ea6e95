//! Page-level mapping: logical page number (LPN) → physical sector (PPA).
//!
//! OX-Block maintains a 4 KB-granularity page-level mapping table (paper
//! §4.2). Alongside the forward map, the table keeps the reverse map
//! (physical sector → LPN) and per-chunk valid-sector counts, which garbage
//! collection uses for victim selection and relocation. The forward map can
//! be snapshotted to bytes for checkpointing.

use crate::codec::{crc32c, Decoder, Encoder};
use ocssd::{Geometry, Ppa};

/// Sentinel-free packed entry: 0 = unmapped, otherwise linear PPA + 1.
const UNMAPPED: u64 = 0;

/// Page-level L2P/P2L mapping with per-chunk valid counts.
pub struct PageMap {
    geo: Geometry,
    l2p: Vec<u64>,
    p2l: Vec<u64>,
    valid_per_chunk: Vec<u32>,
}

/// Outcome of a map update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapUpdate {
    /// The physical sector the LPN previously mapped to (now invalid).
    pub old: Option<Ppa>,
}

impl PageMap {
    /// An empty map for `logical_pages` LPNs over geometry `geo`.
    pub fn new(geo: Geometry, logical_pages: u64) -> Self {
        PageMap {
            geo,
            l2p: vec![UNMAPPED; logical_pages as usize],
            p2l: vec![UNMAPPED; geo.total_sectors() as usize],
            valid_per_chunk: vec![0; geo.total_chunks() as usize],
        }
    }

    /// Number of logical pages addressable.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Looks up the physical location of `lpn` (None if unmapped).
    pub fn lookup(&self, lpn: u64) -> Option<Ppa> {
        let e = *self.l2p.get(lpn as usize)?;
        if e == UNMAPPED {
            None
        } else {
            Some(Ppa::from_linear(&self.geo, e - 1))
        }
    }

    /// Maps `lpn` to `ppa`, invalidating any previous location. Returns the
    /// update describing the displaced sector, if any.
    pub fn map(&mut self, lpn: u64, ppa: Ppa) -> MapUpdate {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        debug_assert!(ppa.is_valid(&self.geo));
        let new_lin = ppa.linear(&self.geo);
        let old = self.unmap_internal(lpn);
        self.l2p[lpn as usize] = new_lin + 1;
        // If another LPN currently claims this sector (stale after chunk
        // reuse), drop that claim first.
        let prev_owner = self.p2l[new_lin as usize];
        if prev_owner != UNMAPPED {
            let owner_lpn = (prev_owner - 1) as usize;
            if self.l2p[owner_lpn] == new_lin + 1 {
                self.l2p[owner_lpn] = UNMAPPED;
            }
            self.dec_valid(new_lin);
        }
        self.p2l[new_lin as usize] = lpn + 1;
        self.inc_valid(new_lin);
        MapUpdate { old }
    }

    /// Unmaps `lpn` (trim). Returns the freed physical sector, if any.
    pub fn unmap(&mut self, lpn: u64) -> Option<Ppa> {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        self.unmap_internal(lpn)
    }

    fn unmap_internal(&mut self, lpn: u64) -> Option<Ppa> {
        let e = self.l2p[lpn as usize];
        if e == UNMAPPED {
            return None;
        }
        let lin = e - 1;
        self.l2p[lpn as usize] = UNMAPPED;
        if self.p2l[lin as usize] == lpn + 1 {
            self.p2l[lin as usize] = UNMAPPED;
            self.dec_valid(lin);
        }
        Some(Ppa::from_linear(&self.geo, lin))
    }

    fn chunk_of(&self, sector_lin: u64) -> usize {
        (sector_lin / self.geo.sectors_per_chunk as u64) as usize
    }

    fn inc_valid(&mut self, sector_lin: u64) {
        let c = self.chunk_of(sector_lin);
        self.valid_per_chunk[c] += 1;
    }

    fn dec_valid(&mut self, sector_lin: u64) {
        let c = self.chunk_of(sector_lin);
        debug_assert!(self.valid_per_chunk[c] > 0);
        self.valid_per_chunk[c] -= 1;
    }

    /// Valid (live) sectors in a chunk, by linear chunk index.
    pub fn valid_count(&self, chunk_linear: u64) -> u32 {
        self.valid_per_chunk[chunk_linear as usize]
    }

    /// All valid sectors of a chunk with their LPNs, in sector order.
    pub fn valid_sectors(&self, chunk_linear: u64) -> Vec<(Ppa, u64)> {
        let spc = self.geo.sectors_per_chunk as u64;
        let base = chunk_linear * spc;
        (base..base + spc)
            .filter_map(|lin| {
                let e = self.p2l[lin as usize];
                if e == UNMAPPED {
                    None
                } else {
                    Some((Ppa::from_linear(&self.geo, lin), e - 1))
                }
            })
            .collect()
    }

    /// Number of mapped LPNs.
    pub fn mapped_count(&self) -> u64 {
        self.l2p.iter().filter(|&&e| e != UNMAPPED).count() as u64
    }

    /// Serializes the forward map as `(lpn, ppa)` pairs with a CRC.
    pub fn snapshot(&self) -> Vec<u8> {
        let mapped = self.mapped_count();
        let mut out = Encoder::with_capacity(24 + mapped as usize * 16);
        // CRC and length of the body behind them: filled in below.
        out.u32(0).u32(0).u64(self.l2p.len() as u64).u64(mapped);
        for (lpn, &e) in self.l2p.iter().enumerate() {
            if e != UNMAPPED {
                out.u64(lpn as u64).u64(e - 1);
            }
        }
        let mut out = out.finish();
        let (head, body) = out.split_at_mut(8);
        head[..4].copy_from_slice(&crc32c(body).to_le_bytes());
        head[4..].copy_from_slice(&(body.len() as u32).to_le_bytes());
        out
    }

    /// Rebuilds a map from [`PageMap::snapshot`] bytes. Returns `None` on a
    /// torn or corrupt snapshot.
    pub fn from_snapshot(geo: Geometry, data: &[u8]) -> Option<PageMap> {
        let mut d = Decoder::new(data);
        let crc = d.u32().ok()?;
        let len = d.u32().ok()? as usize;
        let body = d.bytes(len).ok()?;
        if crc32c(body) != crc {
            return None;
        }
        let mut d = Decoder::new(body);
        let logical_pages = d.u64().ok()?;
        let count = d.u64().ok()?;
        let mut map = PageMap::new(geo, logical_pages);
        for _ in 0..count {
            let lpn = d.u64().ok()?;
            let lin = d.u64().ok()?;
            if lpn >= logical_pages || lin >= geo.total_sectors() {
                return None;
            }
            map.map(lpn, Ppa::from_linear(&geo, lin));
        }
        Some(map)
    }

    /// Size in bytes of a snapshot of the current state.
    pub fn snapshot_size(&self) -> usize {
        24 + self.mapped_count() as usize * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::ChunkAddr;

    fn geo() -> Geometry {
        Geometry::paper_tlc_scaled(22, 8)
    }

    fn pm() -> PageMap {
        PageMap::new(geo(), 1024)
    }

    #[test]
    fn lookup_unmapped_is_none() {
        let m = pm();
        assert_eq!(m.lookup(0), None);
        assert_eq!(m.lookup(1023), None);
        assert_eq!(m.mapped_count(), 0);
    }

    #[test]
    fn map_and_lookup() {
        let mut m = pm();
        let p = ChunkAddr::new(0, 0, 0).ppa(5);
        let u = m.map(42, p);
        assert_eq!(u.old, None);
        assert_eq!(m.lookup(42), Some(p));
        let lin = p.chunk_addr().linear(&geo());
        assert_eq!(m.valid_sectors(lin), vec![(p, 42)]);
        assert_eq!(m.mapped_count(), 1);
    }

    #[test]
    fn remap_invalidates_old_location() {
        let g = geo();
        let mut m = pm();
        let p1 = ChunkAddr::new(0, 0, 0).ppa(0);
        let p2 = ChunkAddr::new(1, 0, 0).ppa(0);
        m.map(7, p1);
        let u = m.map(7, p2);
        assert_eq!(u.old, Some(p1));
        assert_eq!(m.lookup(7), Some(p2));
        assert_eq!(m.valid_count(ChunkAddr::new(0, 0, 0).linear(&g)), 0);
        assert_eq!(m.valid_count(ChunkAddr::new(1, 0, 0).linear(&g)), 1);
    }

    #[test]
    fn unmap_frees_sector() {
        let g = geo();
        let mut m = pm();
        let p = ChunkAddr::new(2, 1, 3).ppa(10);
        m.map(9, p);
        assert_eq!(m.unmap(9), Some(p));
        assert_eq!(m.lookup(9), None);
        assert_eq!(m.valid_count(ChunkAddr::new(2, 1, 3).linear(&g)), 0);
        assert_eq!(m.unmap(9), None);
    }

    #[test]
    fn valid_counts_track_per_chunk() {
        let g = geo();
        let c0 = ChunkAddr::new(0, 0, 0);
        let mut m = pm();
        for s in 0..10 {
            m.map(s as u64, c0.ppa(s));
        }
        assert_eq!(m.valid_count(c0.linear(&g)), 10);
        m.unmap(3);
        m.map(4, ChunkAddr::new(1, 1, 1).ppa(0));
        assert_eq!(m.valid_count(c0.linear(&g)), 8);
        let valids = m.valid_sectors(c0.linear(&g));
        assert_eq!(valids.len(), 8);
        assert!(valids
            .iter()
            .all(|&(p, lpn)| p.sector != 3 && lpn != 4 || p.sector == 4));
    }

    #[test]
    fn valid_sectors_in_sector_order_with_lpns() {
        let g = geo();
        let c = ChunkAddr::new(3, 2, 1);
        let mut m = pm();
        m.map(100, c.ppa(7));
        m.map(200, c.ppa(2));
        let v = m.valid_sectors(c.linear(&g));
        assert_eq!(v, vec![(c.ppa(2), 200), (c.ppa(7), 100)]);
    }

    #[test]
    fn stale_physical_claim_is_dropped_on_reuse() {
        // After a chunk is GC'd and reset, new writes land on sectors whose
        // p2l entries could be stale if bookkeeping missed them; map() must
        // self-heal.
        let mut m = pm();
        let p = ChunkAddr::new(0, 1, 0).ppa(0);
        m.map(1, p);
        // Different LPN claims the same sector (chunk was reset behind our
        // back): old owner's forward entry must be cleared.
        m.map(2, p);
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.lookup(2), Some(p));
        let lin = p.chunk_addr().linear(&geo());
        assert_eq!(m.valid_sectors(lin), vec![(p, 2)]);
    }

    #[test]
    fn snapshot_round_trip() {
        let g = geo();
        let mut m = pm();
        for i in 0..100u64 {
            m.map(i * 3 % 1024, Ppa::from_linear(&g, i * 17));
        }
        let snap = m.snapshot();
        let m2 = PageMap::from_snapshot(g, &snap).expect("valid snapshot");
        assert_eq!(m2.logical_pages(), m.logical_pages());
        assert_eq!(m2.mapped_count(), m.mapped_count());
        for lpn in 0..1024 {
            assert_eq!(m.lookup(lpn), m2.lookup(lpn), "lpn {lpn}");
        }
        assert_eq!(snap.len(), m.snapshot_size());
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let g = geo();
        let mut m = pm();
        m.map(1, ChunkAddr::new(0, 0, 0).ppa(0));
        let mut snap = m.snapshot();
        let last = snap.len() - 1;
        snap[last] ^= 0xFF;
        assert!(PageMap::from_snapshot(g, &snap).is_none());
        assert!(PageMap::from_snapshot(g, &snap[..10]).is_none());
        assert!(PageMap::from_snapshot(g, &[]).is_none());
    }

    #[test]
    #[should_panic]
    fn out_of_range_lpn_panics() {
        let mut m = pm();
        m.map(5000, ChunkAddr::new(0, 0, 0).ppa(0));
    }
}
