//! The tiny device the oxztl integration suites share.

use ocssd::{CellType, Geometry};
use oxztl::ZtlConfig;

/// Small device so short schedules actually fill zones, run GC and churn
/// the free pool: 4 PUs × 8 chunks × 24 sectors, 4-sector write unit —
/// 16 zones of 12 append units.
pub fn tiny_geometry() -> Geometry {
    Geometry {
        num_groups: 2,
        pus_per_group: 2,
        chunks_per_pu: 8,
        sectors_per_chunk: 24,
        ws_min: 4,
        mw_cunits: 8,
        cell: CellType::Slc,
        planes: 1,
        sectors_per_page: 4,
        endurance: 10_000,
    }
}

/// Two user streams (hot, cold) and one survivor stream.
pub fn tiny_cfg() -> ZtlConfig {
    ZtlConfig {
        chunks_per_zone: 2,
        open_zones: 2,
        gc_reserve_zones: 1,
        low_watermark_zones: 2,
        ..ZtlConfig::default()
    }
}
