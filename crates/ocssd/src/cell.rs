//! NAND cell technologies and their timing/endurance profiles.
//!
//! Latency constants are datasheet-ballpark figures for contemporary NAND
//! (c. 2019): SLC/Z-NAND is read-latency optimized, QLC trades latency and
//! endurance for density (paper §3.1). Absolute values matter less than the
//! ratios across operations and cell types — those drive every figure shape.

use ox_sim::SimDuration;

/// NAND cell technology: bits stored per cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellType {
    /// 1 bit/cell — low latency, high endurance (Z-NAND-like).
    Slc,
    /// 2 bits/cell.
    Mlc,
    /// 3 bits/cell — the paper's drives.
    Tlc,
    /// 4 bits/cell — high density, slow, fragile.
    Qlc,
}

impl CellType {
    /// Bits stored per cell.
    pub const fn bits_per_cell(self) -> u32 {
        match self {
            CellType::Slc => 1,
            CellType::Mlc => 2,
            CellType::Tlc => 3,
            CellType::Qlc => 4,
        }
    }

    /// Paired pages per cell: all must be written before any can be read
    /// (paper §2.1). Equals bits per cell.
    pub const fn paired_pages(self) -> u32 {
        self.bits_per_cell()
    }

    /// Default timing profile for this cell type.
    pub fn profile(self) -> NandProfile {
        match self {
            CellType::Slc => NandProfile {
                read_page: SimDuration::from_micros(25),
                prog_unit: SimDuration::from_micros(200),
                erase_chunk: SimDuration::from_millis(2),
                bus_per_sector: SimDuration::from_nanos(3_300),
                cache_hit: SimDuration::from_micros(3),
            },
            CellType::Mlc => NandProfile {
                read_page: SimDuration::from_micros(55),
                prog_unit: SimDuration::from_micros(650),
                erase_chunk: SimDuration::from_millis(3),
                bus_per_sector: SimDuration::from_nanos(3_300),
                cache_hit: SimDuration::from_micros(3),
            },
            CellType::Tlc => NandProfile {
                read_page: SimDuration::from_micros(70),
                prog_unit: SimDuration::from_micros(900),
                erase_chunk: SimDuration::from_micros(3_500),
                bus_per_sector: SimDuration::from_nanos(3_300),
                cache_hit: SimDuration::from_micros(3),
            },
            CellType::Qlc => NandProfile {
                read_page: SimDuration::from_micros(140),
                prog_unit: SimDuration::from_micros(2_600),
                erase_chunk: SimDuration::from_millis(5),
                bus_per_sector: SimDuration::from_nanos(3_300),
                cache_hit: SimDuration::from_micros(3),
            },
        }
    }
}

/// Host link (PCIe) transfer time per 4 KB sector, whatever the media.
pub(crate) const HOST_LINK_PER_SECTOR: SimDuration = SimDuration::from_nanos(700);

/// Timing constants for one device's media.
///
/// `prog_unit` is the time to program one minimum write unit (`ws_min`
/// sectors): planes program in parallel and paired pages are programmed as
/// one multi-level operation, so the unit cost does not scale with plane
/// count — that is exactly why larger `ws_min` amortizes better. Reads get
/// the same plane parallelism: `read_page` senses one page address, the
/// same page on every plane ([`Geometry::page_addresses`]).
///
/// [`Geometry::page_addresses`]: crate::Geometry::page_addresses
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NandProfile {
    /// Media read of one page address (tR): one flash page, or the same
    /// page on every plane in one multi-plane read.
    pub read_page: SimDuration,
    /// Program of one minimum write unit (tPROG for the full paired set).
    pub prog_unit: SimDuration,
    /// Erase of one chunk (tBERS for its blocks, pipelined).
    pub erase_chunk: SimDuration,
    /// Channel bus transfer per 4 KB sector (to or from the host/controller).
    pub bus_per_sector: SimDuration,
    /// Latency of serving a read from the controller cache.
    pub cache_hit: SimDuration,
}

impl NandProfile {
    /// Media time to read `page_addresses` page addresses: one tR each, all
    /// planes of an address sensed at once (the PU is busy for this long).
    pub fn read_media_time(&self, page_addresses: u32) -> SimDuration {
        self.read_page * page_addresses as u64
    }

    /// Channel time to move `sectors` sectors over the bus.
    pub fn transfer_time(&self, sectors: u32) -> SimDuration {
        self.bus_per_sector * sectors as u64
    }

    /// Media time to program `units` minimum write units on one PU.
    pub fn program_time(&self, units: u32) -> SimDuration {
        self.prog_unit * units as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Geometry;

    #[test]
    fn density_orders_latency_and_pairing() {
        let cells = [CellType::Slc, CellType::Mlc, CellType::Tlc, CellType::Qlc];
        for w in cells.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            assert!(lo.bits_per_cell() < hi.bits_per_cell());
            assert!(lo.profile().read_page < hi.profile().read_page);
            assert!(lo.profile().prog_unit < hi.profile().prog_unit);
        }
        assert_eq!(CellType::Tlc.paired_pages(), 3);
        assert_eq!(CellType::Qlc.paired_pages(), 4);
    }

    #[test]
    fn read_media_time_counts_pages() {
        let p = CellType::Tlc.profile();
        let time =
            |geo: &Geometry, start, sectors| p.read_media_time(geo.page_addresses(start, sectors));
        // Dual-plane: a page address is 2 × 4 sectors.
        let dual = Geometry::paper_tlc();
        assert_eq!(dual.planes, 2);
        assert_eq!(time(&dual, 0, 24), p.read_page * 3, "one 96 KB unit");
        assert_eq!(time(&dual, 8, 8), p.read_page, "both planes of one address");
        assert_eq!(time(&dual, 7, 2), p.read_page * 2, "straddles an address");
        // Single-plane: a page address is one flash page.
        let single = Geometry { planes: 1, ..dual };
        assert_eq!(time(&single, 0, 1), p.read_page);
        assert_eq!(time(&single, 0, 4), p.read_page);
        assert_eq!(time(&single, 0, 5), p.read_page * 2);
        assert_eq!(time(&single, 0, 24), p.read_page * 6);
        assert_eq!(time(&single, 3, 2), p.read_page * 2);
    }

    #[test]
    fn transfer_scales_with_sectors() {
        let p = CellType::Tlc.profile();
        assert_eq!(p.transfer_time(24), p.bus_per_sector * 24);
        assert_eq!(p.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn program_scales_with_units() {
        let p = CellType::Tlc.profile();
        assert_eq!(p.program_time(3), p.prog_unit * 3);
    }

    #[test]
    fn writes_complete_faster_than_reads_via_cache() {
        // The write-back premise of the paper: cache hit ≪ media read.
        for c in [CellType::Slc, CellType::Mlc, CellType::Tlc, CellType::Qlc] {
            let p = c.profile();
            assert!(p.cache_hit < p.read_page);
        }
    }
}
