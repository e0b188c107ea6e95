//! Bad-media bookkeeping.
//!
//! The device retires chunks (factory-bad, program/erase failures, wear-out)
//! and reports grown failures asynchronously. The FTL's bad-block table
//! ingests these events, removes the chunks from provisioning, and records
//! which logical pages were orphaned so the data path can re-place them
//! ("bad block information may be updated at any time", paper §4.1).

use crate::logspace::LogSpace;
use ocssd::{ChunkAddr, MediaEvent, Ppa};
use std::collections::HashSet;

/// A logical page stranded by a retired chunk, awaiting re-placement.
///
/// `ppa` is where the page lived when the chunk died. After a program
/// failure the chunk freezes with its written prefix intact, so the page is
/// still readable there; after wear-out or erase failure the chunk is
/// offline and the page must come from higher-level redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Orphan {
    /// The orphaned logical page.
    pub lpn: u64,
    /// The page's physical location on the retired chunk.
    pub ppa: Ppa,
}

/// FTL-side table of retired chunks.
#[derive(Default)]
pub struct BadBlockTable {
    retired: HashSet<(u32, u32, u32)>,
    /// Logical pages orphaned by retirements and not yet re-placed.
    orphans: HashSet<u64>,
    events_seen: u64,
    replaced: u64,
}

impl BadBlockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retired chunks.
    pub fn len(&self) -> usize {
        self.retired.len()
    }

    /// True if no chunks are retired.
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty()
    }

    /// Whether a chunk is known bad.
    pub fn contains(&self, addr: ChunkAddr) -> bool {
        self.retired.contains(&(addr.group, addr.pu, addr.chunk))
    }

    /// Total media events ingested.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Logical pages orphaned by retirements and still awaiting
    /// re-placement.
    pub fn orphans_pending(&self) -> usize {
        self.orphans.len()
    }

    /// Whether `lpn` is currently orphaned.
    pub fn is_orphaned(&self, lpn: u64) -> bool {
        self.orphans.contains(&lpn)
    }

    /// Orphans re-placed since construction.
    pub fn orphans_replaced(&self) -> u64 {
        self.replaced
    }

    /// Records that an orphaned page was rewritten to a healthy chunk (or
    /// its loss was resolved some other way, e.g. the host overwrote or
    /// trimmed it). Returns whether the page was in the orphan set.
    pub fn mark_replaced(&mut self, lpn: u64) -> bool {
        let was = self.orphans.remove(&lpn);
        if was {
            self.replaced += 1;
        }
        was
    }

    /// Ingests device events: retires the chunks from `space`'s
    /// provisioning, unmaps any logical pages that lived there, and returns
    /// the orphaned pages so the caller can re-place them. Each orphan stays
    /// in the pending set until [`BadBlockTable::mark_replaced`] confirms
    /// its rewrite.
    pub fn ingest(&mut self, events: &[MediaEvent], space: &mut LogSpace) -> Vec<Orphan> {
        let mut orphans = Vec::new();
        for ev in events {
            if !ev.kind.retires_chunk() {
                // Advisory events (refresh-due) do not retire the chunk;
                // scrub-aware FTLs consume them before ingest.
                continue;
            }
            self.events_seen += 1;
            let addr = ev.chunk;
            if !self.retired.insert((addr.group, addr.pu, addr.chunk)) {
                continue;
            }
            space.prov.mark_offline(addr);
            let lin = addr.linear(space.prov.geometry());
            for (ppa, lpn) in space.map.valid_sectors(lin) {
                space.map.unmap(lpn);
                self.orphans.insert(lpn);
                orphans.push(Orphan { lpn, ppa });
            }
        }
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PageMap;
    use crate::provision::Provisioner;
    use ocssd::{Geometry, MediaEventKind, Ppa};
    use ox_sim::SimTime;

    fn geo() -> Geometry {
        Geometry::paper_tlc_scaled(22, 8)
    }

    fn space(g: Geometry, pages: u64) -> LogSpace {
        LogSpace::new(PageMap::new(g, pages), Provisioner::fresh(g, &[]))
    }

    fn event(addr: ChunkAddr) -> MediaEvent {
        MediaEvent {
            at: SimTime::ZERO,
            chunk: addr,
            kind: MediaEventKind::ProgramFail,
        }
    }

    #[test]
    fn ingest_retires_and_orphans() {
        let g = geo();
        let mut table = BadBlockTable::new();
        let mut space = space(g, 1000);
        let bad = ChunkAddr::new(1, 2, 3);
        space.map.map(10, bad.ppa(0));
        space.map.map(11, bad.ppa(1));
        space.map.map(12, Ppa::new(0, 0, 0, 0));
        let orphans = table.ingest(&[event(bad)], &mut space);
        assert_eq!(
            orphans,
            vec![
                Orphan {
                    lpn: 10,
                    ppa: bad.ppa(0)
                },
                Orphan {
                    lpn: 11,
                    ppa: bad.ppa(1)
                },
            ]
        );
        assert!(table.contains(bad));
        assert_eq!(table.len(), 1);
        assert_eq!(space.map.lookup(10), None);
        assert_eq!(space.map.lookup(12), Some(Ppa::new(0, 0, 0, 0)));
        assert_eq!(space.prov.offline_chunks(), 1);
    }

    #[test]
    fn orphan_lifecycle_tracks_replacement() {
        let g = geo();
        let mut table = BadBlockTable::new();
        let mut space = space(g, 1000);
        let bad = ChunkAddr::new(1, 2, 3);
        space.map.map(10, bad.ppa(0));
        space.map.map(11, bad.ppa(1));
        let orphans = table.ingest(&[event(bad)], &mut space);
        assert_eq!(orphans.len(), 2);
        assert_eq!(table.orphans_pending(), 2);
        assert!(table.is_orphaned(10) && table.is_orphaned(11));

        // Re-placing one page removes exactly it from the pending set.
        assert!(table.mark_replaced(10));
        assert_eq!(table.orphans_pending(), 1);
        assert!(!table.is_orphaned(10));
        assert!(table.is_orphaned(11));
        assert_eq!(table.orphans_replaced(), 1);

        // Replacement is idempotent; unknown pages are a no-op.
        assert!(!table.mark_replaced(10));
        assert!(!table.mark_replaced(999));
        assert_eq!(table.orphans_replaced(), 1);

        // A second retirement of pages already in the set does not double
        // count, and the remaining orphan drains normally.
        assert!(table.mark_replaced(11));
        assert_eq!(table.orphans_pending(), 0);
        assert_eq!(table.orphans_replaced(), 2);
    }

    #[test]
    fn duplicate_events_ingested_once() {
        let g = geo();
        let mut table = BadBlockTable::new();
        let mut space = space(g, 10);
        let bad = ChunkAddr::new(0, 0, 0);
        table.ingest(&[event(bad), event(bad)], &mut space);
        assert_eq!(table.len(), 1);
        assert_eq!(table.events_seen(), 2);
        assert_eq!(space.prov.offline_chunks(), 1);
    }

    #[test]
    fn empty_table() {
        let table = BadBlockTable::new();
        assert!(table.is_empty());
        assert!(!table.contains(ChunkAddr::new(0, 0, 0)));
    }
}
