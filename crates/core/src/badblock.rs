//! Bad-media bookkeeping.
//!
//! The device retires chunks (program/erase failures, wear-out) and reports
//! grown failures asynchronously. [`retire_chunks`] is the one place a media
//! event takes a chunk out of provisioning — and the one place that knows an
//! advisory event (`RefreshDue`) must not. The FTL's bad-block table builds
//! on it and reports which logical pages were orphaned so the data path can
//! re-place them ("bad block information may be updated at any time", paper
//! §4.1).

use crate::logspace::LogSpace;
use crate::provision::Provisioner;
use ocssd::{ChunkAddr, MediaEvent, Ppa};
use std::collections::HashSet;

/// Takes the chunk of every event that retires one
/// ([`ocssd::MediaEventKind::retires_chunk`]) out of `prov`'s circulation
/// and returns those chunks in event order. Advisory events leave their
/// chunk in service: what to do about them (refresh early, or nothing) is
/// the caller's policy.
pub fn retire_chunks(events: &[MediaEvent], prov: &mut Provisioner) -> Vec<ChunkAddr> {
    let retiring = events.iter().filter(|ev| ev.kind.retires_chunk());
    let retired: Vec<ChunkAddr> = retiring.map(|ev| ev.chunk).collect();
    for &chunk in &retired {
        prov.mark_offline(chunk);
    }
    retired
}

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
    events_seen: u64,
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

    /// Ingests device events: retires the chunks from `space`'s
    /// provisioning ([`retire_chunks`]), unmaps any logical pages that
    /// lived there, and returns the orphaned pages so the caller can
    /// re-place them.
    pub fn ingest(&mut self, events: &[MediaEvent], space: &mut LogSpace) -> Vec<Orphan> {
        let mut orphans = Vec::new();
        for addr in retire_chunks(events, &mut space.prov) {
            self.events_seen += 1;
            if !self.retired.insert((addr.group, addr.pu, addr.chunk)) {
                continue;
            }
            let lin = addr.linear(space.prov.geometry());
            for (ppa, lpn) in space.map.valid_sectors(lin) {
                space.map.unmap(lpn);
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
    fn an_advisory_event_retires_nothing() {
        let g = geo();
        let mut space = space(g, 10);
        let free = space.prov.free_chunks();
        let (flagged, bad) = (ChunkAddr::new(0, 1, 2), ChunkAddr::new(1, 0, 0));
        let advisory = MediaEvent {
            kind: MediaEventKind::RefreshDue,
            ..event(flagged)
        };
        let retired = retire_chunks(&[advisory, event(bad)], &mut space.prov);
        assert_eq!(retired, vec![bad]);
        assert_eq!(space.prov.offline_chunks(), 1);
        assert_eq!(space.prov.free_chunks(), free - 1);
        let mut table = BadBlockTable::new();
        assert!(table.ingest(&[advisory], &mut space).is_empty());
        assert_eq!((table.len(), table.events_seen()), (0, 0));
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
