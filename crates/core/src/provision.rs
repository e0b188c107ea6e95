//! Chunk provisioning: free pools and open write points per parallel unit.
//!
//! The provisioner decides *where* the next write unit lands. Two allocation
//! policies mirror the paper's Figure 4 placements:
//!
//! * **horizontal** — round-robin across every PU of the device, striping a
//!   logical stream over all available parallelism;
//! * **vertical** — confined to one group, so concurrent streams in
//!   different groups never interfere.
//!
//! FTLs that manage whole chunks themselves (LightLSM, OX-ELEOS) instead use
//! [`Provisioner::take_free_chunk`] to claim entire chunks from a PU's pool.

use ocssd::{ChunkAddr, ChunkInfo, ChunkState, Geometry};
use std::collections::BTreeSet;

/// A write slot: chunk plus starting sector for one `ws_min` unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteSlot {
    /// Target chunk.
    pub chunk: ChunkAddr,
    /// First sector of the slot (the chunk's write pointer).
    pub sector: u32,
}

#[derive(Clone, Copy, Debug)]
struct OpenChunk {
    chunk: u32,
    wp: u32,
}

/// Per-PU chunk pools and open write points.
pub struct Provisioner {
    geo: Geometry,
    /// Free chunk ids per PU (LIFO keeps recently erased chunks hot).
    free: Vec<Vec<u32>>,
    open: Vec<Option<OpenChunk>>,
    next_pu: u32,
    group_cursor: Vec<u32>,
    reserved: BTreeSet<u64>,
    offline: BTreeSet<u64>,
}

impl Provisioner {
    /// Builds pools from a device *report chunk* scan, excluding `reserved`
    /// chunks (linear indices). `Free` chunks enter the pools; `Open` data
    /// chunks resume as their PU's write point; `Closed` chunks are in use;
    /// `Offline` chunks are excluded.
    pub fn from_report(geo: Geometry, reserved: &[u64], report: &[(ChunkAddr, ChunkInfo)]) -> Self {
        let reserved: BTreeSet<u64> = reserved.iter().copied().collect();
        let mut p = Provisioner {
            geo,
            free: vec![Vec::new(); geo.total_pus() as usize],
            open: vec![None; geo.total_pus() as usize],
            next_pu: 0,
            group_cursor: vec![0; geo.num_groups as usize],
            reserved,
            offline: BTreeSet::new(),
        };
        for &(addr, info) in report {
            let lin = addr.linear(&geo);
            if p.reserved.contains(&lin) {
                continue;
            }
            let pu = addr.pu_linear(&geo) as usize;
            match info.state {
                ChunkState::Free => p.free[pu].push(addr.chunk),
                ChunkState::Open => {
                    // Resume the first open chunk per PU; any others count as
                    // in-use (they will become GC victims).
                    if p.open[pu].is_none() {
                        p.open[pu] = Some(OpenChunk {
                            chunk: addr.chunk,
                            wp: info.write_ptr,
                        });
                    }
                }
                ChunkState::Closed => {}
                ChunkState::Offline => {
                    p.offline.insert(lin);
                }
            }
        }
        p
    }

    /// A provisioner over an all-free device (fresh format).
    pub fn fresh(geo: Geometry, reserved: &[u64]) -> Self {
        let report: Vec<(ChunkAddr, ChunkInfo)> = (0..geo.total_chunks())
            .map(|i| {
                (
                    ChunkAddr::from_linear(&geo, i),
                    ChunkInfo {
                        state: ChunkState::Free,
                        write_ptr: 0,
                        wear: 0,
                    },
                )
            })
            .collect();
        Self::from_report(geo, reserved, &report)
    }

    /// Allocates the next `ws_min` write slot on a specific PU. Returns
    /// `None` when the PU has neither an open chunk nor free chunks.
    pub fn allocate_on_pu(&mut self, pu_linear: u32) -> Option<WriteSlot> {
        let pu = pu_linear as usize;
        if self.open[pu].is_none() {
            let chunk = self.free[pu].pop()?;
            self.open[pu] = Some(OpenChunk { chunk, wp: 0 });
        }
        let oc = self.open[pu].as_mut()?;
        let addr = ChunkAddr::new(
            pu_linear / self.geo.pus_per_group,
            pu_linear % self.geo.pus_per_group,
            oc.chunk,
        );
        let slot = WriteSlot {
            chunk: addr,
            sector: oc.wp,
        };
        oc.wp += self.geo.ws_min;
        if oc.wp >= self.geo.sectors_per_chunk {
            self.open[pu] = None; // chunk now closed
        }
        Some(slot)
    }

    /// Horizontal policy: next slot round-robin across all PUs. Skips PUs
    /// that are exhausted; returns `None` only when the whole device is out
    /// of space. Everything outside this crate places through
    /// [`crate::logspace::LogSpace`].
    pub(crate) fn allocate_horizontal(&mut self) -> Option<WriteSlot> {
        let total = self.geo.total_pus();
        for _ in 0..total {
            let pu = self.next_pu;
            self.next_pu = (self.next_pu + 1) % total;
            if let Some(slot) = self.allocate_on_pu(pu) {
                return Some(slot);
            }
        }
        None
    }

    /// Vertical policy: next slot round-robin across the PUs of one group.
    pub(crate) fn allocate_in_group(&mut self, group: u32) -> Option<WriteSlot> {
        let per = self.geo.pus_per_group;
        for _ in 0..per {
            let local = self.group_cursor[group as usize];
            self.group_cursor[group as usize] = (local + 1) % per;
            let pu = group * per + local;
            if let Some(slot) = self.allocate_on_pu(pu) {
                return Some(slot);
            }
        }
        None
    }

    /// Claims an entire free chunk on a PU (for FTLs that manage chunks
    /// whole). The chunk leaves the pool; return it with
    /// [`Provisioner::release_chunk`] after reset.
    pub fn take_free_chunk(&mut self, pu_linear: u32) -> Option<ChunkAddr> {
        let chunk = self.free[pu_linear as usize].pop()?;
        Some(ChunkAddr::new(
            pu_linear / self.geo.pus_per_group,
            pu_linear % self.geo.pus_per_group,
            chunk,
        ))
    }

    /// Returns a (reset) chunk to its PU's free pool.
    pub fn release_chunk(&mut self, addr: ChunkAddr) {
        let lin = addr.linear(&self.geo);
        debug_assert!(!self.reserved.contains(&lin), "reserved chunk released");
        if self.offline.contains(&lin) {
            return;
        }
        self.free[addr.pu_linear(&self.geo) as usize].push(addr.chunk);
    }

    /// Permanently removes a chunk from circulation (grown bad).
    pub fn mark_offline(&mut self, addr: ChunkAddr) {
        let lin = addr.linear(&self.geo);
        self.offline.insert(lin);
        let pu = addr.pu_linear(&self.geo) as usize;
        self.free[pu].retain(|&c| c != addr.chunk);
        if matches!(self.open[pu], Some(oc) if oc.chunk == addr.chunk) {
            self.open[pu] = None;
        }
    }

    /// Free chunks across the device (not counting open chunks).
    pub fn free_chunks(&self) -> u32 {
        self.free.iter().map(|v| v.len() as u32).sum()
    }

    /// Whether a chunk (linear index) is reserved for metadata: never
    /// allocated, collected or patrolled.
    pub fn is_reserved(&self, chunk_linear: u64) -> bool {
        self.reserved.contains(&chunk_linear)
    }

    /// Number of chunks marked offline.
    pub fn offline_chunks(&self) -> u32 {
        self.offline.len() as u32
    }

    /// The geometry this provisioner serves.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::paper_tlc_scaled(22, 8)
    }

    #[test]
    fn fresh_pools_hold_all_unreserved_chunks() {
        let g = geo();
        let reserved = [0u64, 1, 2];
        let p = Provisioner::fresh(g, &reserved);
        assert_eq!(p.free_chunks() as u64, g.total_chunks() - 3);
    }

    #[test]
    fn horizontal_allocation_round_robins_pus() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        let slots: Vec<WriteSlot> = (0..g.total_pus())
            .map(|_| p.allocate_horizontal().unwrap())
            .collect();
        let pus: Vec<u32> = slots.iter().map(|s| s.chunk.pu_linear(&g)).collect();
        let expect: Vec<u32> = (0..g.total_pus()).collect();
        assert_eq!(pus, expect);
        assert!(slots.iter().all(|s| s.sector == 0));
        // Second round hits the same chunks at the next write unit.
        let s = p.allocate_horizontal().unwrap();
        assert_eq!(s.chunk.pu_linear(&g), 0);
        assert_eq!(s.sector, g.ws_min);
    }

    #[test]
    fn vertical_allocation_stays_in_group() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        for _ in 0..50 {
            let s = p.allocate_in_group(3).unwrap();
            assert_eq!(s.chunk.group, 3);
        }
    }

    #[test]
    fn chunk_closes_and_next_opens() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        let units = g.write_units_per_chunk();
        let mut chunks_seen = BTreeSet::new();
        for i in 0..units + 1 {
            let s = p.allocate_on_pu(0).unwrap();
            chunks_seen.insert(s.chunk.chunk);
            if i < units {
                assert_eq!(s.sector, i * g.ws_min);
            } else {
                assert_eq!(s.sector, 0, "new chunk starts at 0");
            }
        }
        assert_eq!(chunks_seen.len(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = Geometry::small_slc();
        let mut p = Provisioner::fresh(g, &[]);
        let total_units = g.total_chunks() * g.write_units_per_chunk() as u64;
        for _ in 0..total_units {
            assert!(p.allocate_horizontal().is_some());
        }
        assert!(p.allocate_horizontal().is_none());
        assert!(p.allocate_in_group(0).is_none());
        assert!(p.allocate_on_pu(0).is_none());
    }

    #[test]
    fn take_and_release_whole_chunks() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        let before = p.free_chunks();
        let c = p.take_free_chunk(5).unwrap();
        assert_eq!(c.pu_linear(&g), 5);
        assert_eq!(p.free_chunks(), before - 1);
        p.release_chunk(c);
        assert_eq!(p.free_chunks(), before);
    }

    #[test]
    fn offline_chunks_leave_circulation() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        let c = p.take_free_chunk(0).unwrap();
        p.mark_offline(c);
        p.release_chunk(c); // ignored
        assert_eq!(p.offline_chunks(), 1);
        // The chunk never comes back from allocation either.
        let mut seen = BTreeSet::new();
        while let Some(k) = p.take_free_chunk(0) {
            seen.insert(k.chunk);
        }
        assert!(!seen.contains(&c.chunk));
    }

    #[test]
    fn from_report_resumes_open_chunks() {
        let g = geo();
        let mut report: Vec<(ChunkAddr, ChunkInfo)> = (0..g.total_chunks())
            .map(|i| {
                (
                    ChunkAddr::from_linear(&g, i),
                    ChunkInfo {
                        state: ChunkState::Free,
                        write_ptr: 0,
                        wear: 0,
                    },
                )
            })
            .collect();
        // PU 0: chunk 4 open at wp=48; chunk 5 closed; chunk 6 offline.
        report[4].1 = ChunkInfo {
            state: ChunkState::Open,
            write_ptr: 48,
            wear: 1,
        };
        report[5].1 = ChunkInfo {
            state: ChunkState::Closed,
            write_ptr: g.sectors_per_chunk,
            wear: 2,
        };
        report[6].1 = ChunkInfo {
            state: ChunkState::Offline,
            write_ptr: 0,
            wear: 9,
        };
        let mut p = Provisioner::from_report(g, &[], &report);
        assert_eq!(p.offline_chunks(), 1);
        let slot = p.allocate_on_pu(0).unwrap();
        assert_eq!(slot.chunk.chunk, 4);
        assert_eq!(slot.sector, 48);
        assert_eq!(
            p.free_chunks() as u64,
            g.total_chunks() - 3 // open + closed + offline
        );
    }

    #[test]
    fn group_counters() {
        let g = geo();
        let mut p = Provisioner::fresh(g, &[]);
        let per_group = g.pus_per_group * g.chunks_per_pu;
        let free_in = |p: &Provisioner, group: u32| -> u32 {
            let pus =
                (group * g.pus_per_group..(group + 1) * g.pus_per_group).map(|pu| pu as usize);
            pus.map(|pu| p.free[pu].len() as u32).sum()
        };
        assert_eq!(free_in(&p, 0), per_group);
        p.take_free_chunk(0).unwrap();
        assert_eq!(free_in(&p, 0), per_group - 1);
        assert_eq!(free_in(&p, 1), per_group);
    }
}
