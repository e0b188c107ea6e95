//! Device geometry, as reported by the OCSSD 2.0 geometry admin command.
//!
//! The defaults mirror the drive in Figure 4 of the paper: 8 groups ×
//! 4 parallel units × 1474 chunks × 6144 sectors of 4 KB, dual-plane TLC
//! (`ws_min` = 4 sectors/page × 3 paired pages × 2 planes = 24 sectors =
//! 96 KB). Benchmarks use [`Geometry::scaled`] to shrink chunk count and
//! chunk size while preserving the parallelism ratios that drive the
//! placement results.

use crate::cell::CellType;
use crate::SECTOR_BYTES;

/// Physical layout of an Open-Channel SSD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Number of groups. Groups never interfere; one channel per group.
    pub num_groups: u32,
    /// Parallel units (PUs) per group; operations serialize within a PU.
    pub pus_per_group: u32,
    /// Chunks per PU.
    pub chunks_per_pu: u32,
    /// Logical blocks (sectors) per chunk.
    pub sectors_per_chunk: u32,
    /// Minimum write size in sectors (`WS_MIN`): planes × paired pages ×
    /// sectors per page.
    pub ws_min: u32,
    /// Sectors that may still be buffered in device cache after a write
    /// (`MW_CUNITS`): reads of the last `mw_cunits` written sectors of an
    /// open chunk are served from cache, not media.
    pub mw_cunits: u32,
    /// NAND cell technology (drives latency and endurance).
    pub cell: CellType,
    /// Planes per die (pages at the same address across planes are
    /// programmed together).
    pub planes: u32,
    /// Sectors per flash page.
    pub sectors_per_page: u32,
    /// Program/erase cycles before a chunk wears out.
    pub endurance: u32,
}

impl Geometry {
    /// The paper's dual-plane TLC drive (Figure 4): 8 groups × 4 PUs ×
    /// 1474 chunks × 6144 × 4 KB sectors; `ws_min` = 96 KB; ~181 GB usable.
    pub fn paper_tlc() -> Self {
        let cell = CellType::Tlc;
        let planes = 2;
        let sectors_per_page = 4;
        Geometry {
            num_groups: 8,
            pus_per_group: 4,
            chunks_per_pu: 1474,
            sectors_per_chunk: 6144,
            ws_min: sectors_per_page * cell.paired_pages() * planes,
            mw_cunits: sectors_per_page * cell.paired_pages() * planes * 2,
            cell,
            planes,
            sectors_per_page,
            endurance: 3000,
        }
    }

    /// Same parallelism as [`Geometry::paper_tlc`] but with chunk count and
    /// chunk size divided by `chunk_div` and `size_div`, so experiments run
    /// in seconds. Ratios driving placement behaviour (groups, PUs, `ws_min`)
    /// are preserved.
    ///
    /// Panics unless both divisors divide the paper geometry evenly.
    pub fn paper_tlc_scaled(chunk_div: u32, size_div: u32) -> Self {
        let mut g = Self::paper_tlc();
        assert!(
            chunk_div > 0 && g.chunks_per_pu.is_multiple_of(chunk_div),
            "chunk_div {chunk_div} must divide {}",
            g.chunks_per_pu
        );
        assert!(
            size_div > 0 && g.sectors_per_chunk.is_multiple_of(size_div),
            "size_div {size_div} must divide {}",
            g.sectors_per_chunk
        );
        g.chunks_per_pu /= chunk_div;
        g.sectors_per_chunk /= size_div;
        assert!(
            g.sectors_per_chunk.is_multiple_of(g.ws_min),
            "scaled chunk no longer a multiple of ws_min"
        );
        g
    }

    /// A 16-group variant of the paper drive (the §4.3 GC-locality experiment
    /// contrasts 16-channel and 8-channel SSDs).
    pub fn paper_tlc_16ch() -> Self {
        let mut g = Self::paper_tlc();
        g.num_groups = 16;
        g.pus_per_group = 2;
        g
    }

    /// A small SLC device for ultra-low-latency experiments (Z-NAND-like).
    pub fn small_slc() -> Self {
        let cell = CellType::Slc;
        Geometry {
            num_groups: 4,
            pus_per_group: 2,
            chunks_per_pu: 64,
            sectors_per_chunk: 768,
            ws_min: 4,
            mw_cunits: 8,
            cell,
            planes: 1,
            sectors_per_page: 4,
            endurance: 50_000,
        }
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found, if any.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.num_groups == 0
            || self.pus_per_group == 0
            || self.chunks_per_pu == 0
            || self.sectors_per_chunk == 0
        {
            return Err("geometry dimensions must be non-zero".into());
        }
        if self.ws_min == 0 || !self.sectors_per_chunk.is_multiple_of(self.ws_min) {
            return Err(format!(
                "ws_min {} must be non-zero and divide sectors_per_chunk {}",
                self.ws_min, self.sectors_per_chunk
            ));
        }
        if self.sectors_per_page == 0 || !self.ws_min.is_multiple_of(self.sectors_per_page) {
            return Err("ws_min must be a multiple of the flash page".into());
        }
        if !self.mw_cunits.is_multiple_of(self.ws_min) {
            return Err("mw_cunits must be a multiple of ws_min".into());
        }
        Ok(())
    }

    /// Total parallel units on the device.
    pub fn total_pus(&self) -> u32 {
        self.num_groups * self.pus_per_group
    }

    /// Total chunks on the device.
    pub fn total_chunks(&self) -> u64 {
        self.total_pus() as u64 * self.chunks_per_pu as u64
    }

    /// Total sectors on the device.
    pub fn total_sectors(&self) -> u64 {
        self.total_chunks() * self.sectors_per_chunk as u64
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * SECTOR_BYTES as u64
    }

    /// Bytes per chunk.
    pub fn chunk_bytes(&self) -> u64 {
        self.sectors_per_chunk as u64 * SECTOR_BYTES as u64
    }

    /// Bytes of the minimum write unit (e.g. 96 KB on the paper drive).
    pub fn ws_min_bytes(&self) -> usize {
        self.ws_min as usize * SECTOR_BYTES
    }

    /// Minimum write units per chunk.
    pub fn write_units_per_chunk(&self) -> u32 {
        self.sectors_per_chunk / self.ws_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_figure4() {
        let g = Geometry::paper_tlc();
        g.validate().unwrap();
        assert_eq!(g.num_groups, 8);
        assert_eq!(g.pus_per_group, 4);
        assert_eq!(g.total_pus(), 32);
        assert_eq!(g.chunks_per_pu, 1474);
        assert_eq!(g.sectors_per_chunk, 6144);
        // Unit of write: 4 sectors/page × 3 paired pages × 2 planes = 24
        // sectors = 96 KB (paper §4.2).
        assert_eq!(g.ws_min, 24);
        assert_eq!(g.ws_min_bytes(), 96 * 1024);
        // Chunk size: 6144 × 4 KB = 24 MB (paper §4.3).
        assert_eq!(g.chunk_bytes(), 24 * 1024 * 1024);
        // SSTable sizing from the paper: 32 PUs × 24 MB = 768 MB.
        assert_eq!(g.total_pus() as u64 * g.chunk_bytes(), 768 * 1024 * 1024);
    }

    #[test]
    fn scaled_geometry_preserves_ratios() {
        let g = Geometry::paper_tlc_scaled(22, 8);
        g.validate().unwrap();
        assert_eq!(g.num_groups, 8);
        assert_eq!(g.pus_per_group, 4);
        assert_eq!(g.chunks_per_pu, 67);
        assert_eq!(g.sectors_per_chunk, 768);
        assert_eq!(g.ws_min, 24);
        assert_eq!(g.chunk_bytes(), 3 * 1024 * 1024);
    }

    #[test]
    #[should_panic]
    fn scaled_geometry_rejects_uneven_divisor() {
        Geometry::paper_tlc_scaled(7, 1);
    }

    #[test]
    fn sixteen_channel_variant() {
        let g = Geometry::paper_tlc_16ch();
        g.validate().unwrap();
        assert_eq!(g.num_groups, 16);
        assert_eq!(g.total_pus(), 32);
    }

    #[test]
    fn qlc_write_unit_is_256kb() {
        // Paper §2.1: QLC with 4 planes ⇒ unit of write 16 pages = 256 KB.
        let (cell, planes, sectors_per_page) = (CellType::Qlc, 4, 4);
        let g = Geometry {
            num_groups: 8,
            pus_per_group: 4,
            chunks_per_pu: 256,
            sectors_per_chunk: 6144,
            ws_min: sectors_per_page * cell.paired_pages() * planes,
            mw_cunits: sectors_per_page * cell.paired_pages() * planes * 2,
            cell,
            planes,
            sectors_per_page,
            endurance: 800,
        };
        g.validate().unwrap();
        assert_eq!(g.ws_min_bytes(), 256 * 1024);
    }

    #[test]
    fn slc_geometry_valid_and_small() {
        let g = Geometry::small_slc();
        g.validate().unwrap();
        assert_eq!(g.ws_min, 4);
        assert!(g.capacity_bytes() < 3 * 1024 * 1024 * 1024);
    }

    #[test]
    fn validate_catches_bad_ws_min() {
        let mut g = Geometry::paper_tlc();
        g.ws_min = 5;
        assert!(g.validate().is_err());
        g.ws_min = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_mw_cunits() {
        let mut g = Geometry::paper_tlc();
        g.mw_cunits = g.ws_min + 1;
        assert!(g.validate().is_err());
    }

    #[test]
    fn derived_sizes() {
        let g = Geometry::paper_tlc();
        assert_eq!(g.total_chunks(), 32 * 1474);
        assert_eq!(g.total_sectors(), 32 * 1474 * 6144);
        assert_eq!(g.write_units_per_chunk(), 256);
        assert_eq!(g.capacity_bytes(), 32 * 1474 * 6144 * 4096);
    }
}
