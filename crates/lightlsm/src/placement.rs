//! SSTable placement and block-location arithmetic (paper Figure 4).

use ocssd::{ChunkAddr, Geometry};
use ox_core::codec::{Decoder, Encoder};

/// SSTable placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Stripe across every parallel unit of the device.
    Horizontal,
    /// Confine to the parallel units of a single group.
    Vertical,
}

impl Placement {
    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Horizontal => "horizontal",
            Placement::Vertical => "vertical",
        }
    }
}

/// Where an SSTable lives on the device: an exclusive set of chunks, striped
/// in list order, `ws_min` logical blocks at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableExtent {
    /// Table identity.
    pub id: u64,
    /// Placement policy used.
    pub placement: Placement,
    /// Chunks in stripe order. Block `i` lives in `chunks[i % n]` at unit
    /// index `i / n` — which keeps every chunk's writes sequential.
    pub chunks: Vec<ChunkAddr>,
    /// Blocks (write units) actually written.
    pub blocks: u32,
}

impl TableExtent {
    /// Physical location of block `idx`: `(chunk, first sector)`.
    ///
    /// Panics if `idx >= self.blocks`.
    pub fn block_location(&self, geo: &Geometry, idx: u32) -> (ChunkAddr, u32) {
        assert!(idx < self.blocks, "block {idx} >= {}", self.blocks);
        let n = self.chunks.len() as u32;
        let chunk = self.chunks[(idx % n) as usize];
        let sector = (idx / n) * geo.ws_min;
        (chunk, sector)
    }

    /// Serializes the extent (for directory journaling/checkpointing).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.id);
        e.u8(match self.placement {
            Placement::Horizontal => 0,
            Placement::Vertical => 1,
        });
        e.u32(self.blocks);
        e.u32(self.chunks.len() as u32);
        for c in &self.chunks {
            e.u32(c.group).u32(c.pu).u32(c.chunk);
        }
    }

    /// Deserializes an extent.
    pub fn decode(d: &mut Decoder<'_>) -> Option<TableExtent> {
        let id = d.u64().ok()?;
        let placement = match d.u8().ok()? {
            0 => Placement::Horizontal,
            1 => Placement::Vertical,
            _ => return None,
        };
        let blocks = d.u32().ok()?;
        let n = d.u32().ok()? as usize;
        if n == 0 || n > 4096 {
            return None;
        }
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            chunks.push(ChunkAddr::new(d.u32().ok()?, d.u32().ok()?, d.u32().ok()?));
        }
        Some(TableExtent {
            id,
            placement,
            chunks,
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::paper_tlc_scaled(22, 8)
    }

    fn horizontal_extent(g: &Geometry, blocks: u32) -> TableExtent {
        // One chunk per PU, as in Figure 4.
        let chunks: Vec<ChunkAddr> = (0..g.total_pus())
            .map(|pu| ChunkAddr::new(pu / g.pus_per_group, pu % g.pus_per_group, 0))
            .collect();
        TableExtent {
            id: 1,
            placement: Placement::Horizontal,
            chunks,
            blocks,
        }
    }

    #[test]
    fn horizontal_striping_rotates_pus_and_stays_sequential() {
        let g = geo();
        let ext = horizontal_extent(&g, 96);
        // First 32 blocks land on 32 distinct PUs, sector 0.
        let mut pus = std::collections::BTreeSet::new();
        for i in 0..32 {
            let (c, s) = ext.block_location(&g, i);
            assert_eq!(s, 0);
            pus.insert(c.pu_linear(&g));
        }
        assert_eq!(pus.len(), 32);
        // Block 32 wraps to the first chunk, next unit.
        let (c0, s0) = ext.block_location(&g, 0);
        let (c32, s32) = ext.block_location(&g, 32);
        assert_eq!(c0, c32);
        assert_eq!(s32, g.ws_min);
        assert_eq!(s0, 0);
        // Per-chunk sectors are strictly increasing in block order.
        let (_, s64) = ext.block_location(&g, 64);
        assert_eq!(s64, 2 * g.ws_min);
    }

    #[test]
    fn vertical_extent_stays_in_group() {
        let g = geo();
        let chunks: Vec<ChunkAddr> = (0..8)
            .map(|i| ChunkAddr::new(3, i % g.pus_per_group, i / g.pus_per_group))
            .collect();
        let ext = TableExtent {
            id: 2,
            placement: Placement::Vertical,
            chunks,
            blocks: 64,
        };
        for i in 0..64 {
            let (c, _) = ext.block_location(&g, i);
            assert_eq!(c.group, 3);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_block_panics() {
        let g = geo();
        let ext = horizontal_extent(&g, 10);
        ext.block_location(&g, 10);
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = geo();
        let ext = horizontal_extent(&g, 77);
        let mut e = Encoder::new();
        ext.encode(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let back = TableExtent::decode(&mut d).unwrap();
        assert_eq!(back, ext);
        assert_eq!(d.remaining(), 0);
        // Corrupt placement byte rejected.
        let mut bad = buf.clone();
        bad[8] = 9;
        assert!(TableExtent::decode(&mut Decoder::new(&bad)).is_none());
    }
}
