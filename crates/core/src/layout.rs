//! On-device layout planning: which chunks hold the WAL, the checkpoint
//! areas, and which are available to the data path.
//!
//! Controller metadata I/O (log persistence, checkpointing) is synchronous in
//! OX (paper Figure 2), so metadata chunks are spread round-robin across
//! parallel units to keep log appends off any single PU's queue.

use ocssd::{ChunkAddr, Geometry};

/// Planned placement of FTL metadata regions.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Chunks dedicated to the write-ahead log, in append order.
    pub wal_chunks: Vec<ChunkAddr>,
    /// Chunks of checkpoint area A.
    pub checkpoint_a: Vec<ChunkAddr>,
    /// Chunks of checkpoint area B.
    pub checkpoint_b: Vec<ChunkAddr>,
}

/// Chunks per checkpoint area (two areas are allocated).
const CHECKPOINT_CHUNKS_PER_AREA: u32 = 2;

/// Layout sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct LayoutConfig {
    /// WAL capacity in chunks.
    pub wal_chunks: u32,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig { wal_chunks: 16 }
    }
}

impl Layout {
    /// Plans a layout on `geo`. Metadata chunks are assigned in PU-major
    /// round-robin order starting from chunk 0 of every PU, so consecutive
    /// WAL chunks sit on different parallel units.
    ///
    /// Panics if the geometry cannot host the requested metadata footprint.
    pub fn plan(geo: &Geometry, config: LayoutConfig) -> Layout {
        let total = config.wal_chunks + 2 * CHECKPOINT_CHUNKS_PER_AREA;
        assert!(
            (total as u64) < geo.total_chunks() / 2,
            "metadata footprint ({total} chunks) too large for device"
        );
        let mut iter = (0..geo.chunks_per_pu).flat_map(move |chunk| {
            (0..geo.num_groups).flat_map(move |group| {
                (0..geo.pus_per_group).map(move |pu| ChunkAddr::new(group, pu, chunk))
            })
        });
        let wal_chunks: Vec<ChunkAddr> = iter.by_ref().take(config.wal_chunks as usize).collect();
        let area = CHECKPOINT_CHUNKS_PER_AREA as usize;
        let checkpoint_a: Vec<ChunkAddr> = iter.by_ref().take(area).collect();
        let checkpoint_b: Vec<ChunkAddr> = iter.by_ref().take(area).collect();
        Layout {
            wal_chunks,
            checkpoint_a,
            checkpoint_b,
        }
    }

    /// All reserved chunks (linear indices), for exclusion from the data
    /// provisioner.
    pub fn reserved_linear(&self, geo: &Geometry) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .wal_chunks
            .iter()
            .chain(&self.checkpoint_a)
            .chain(&self.checkpoint_b)
            .map(|c| c.linear(geo))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_spreads_wal_across_pus() {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let l = Layout::plan(&geo, LayoutConfig::default());
        assert_eq!(l.wal_chunks.len(), 16);
        assert_eq!(l.checkpoint_a.len(), 2);
        assert_eq!(l.checkpoint_b.len(), 2);
        // First 16 WAL chunks land on 16 distinct PUs (device has 32).
        let pus: std::collections::BTreeSet<u32> =
            l.wal_chunks.iter().map(|c| c.pu_linear(&geo)).collect();
        assert_eq!(pus.len(), 16);
    }

    #[test]
    fn regions_are_disjoint() {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let l = Layout::plan(&geo, LayoutConfig::default());
        let reserved = l.reserved_linear(&geo);
        let unique: std::collections::BTreeSet<u64> = reserved.iter().copied().collect();
        assert_eq!(unique.len(), reserved.len(), "no overlap between regions");
        assert_eq!(reserved.len(), 16 + 2 + 2);
    }

    #[test]
    fn all_planned_chunks_valid() {
        let geo = Geometry::small_slc();
        let l = Layout::plan(&geo, LayoutConfig { wal_chunks: 4 });
        assert_eq!(l.checkpoint_a.len() + l.checkpoint_b.len(), 4);
        for c in l
            .wal_chunks
            .iter()
            .chain(&l.checkpoint_a)
            .chain(&l.checkpoint_b)
        {
            assert!(c.is_valid(&geo));
        }
    }

    #[test]
    #[should_panic]
    fn oversized_footprint_rejected() {
        let geo = Geometry::small_slc();
        // The WAL alone asks for the whole device.
        Layout::plan(
            &geo,
            LayoutConfig {
                wal_chunks: geo.total_chunks() as u32,
            },
        );
    }
}
