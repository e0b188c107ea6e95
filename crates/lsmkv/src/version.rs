//! The version set: which SSTables form each LSM level.
//!
//! L0 tables may overlap and are searched newest-first; L1+ levels hold
//! non-overlapping tables sorted by key range. The version is volatile —
//! LightLSM's journaled directory owns table durability (no MANIFEST).

use crate::sstable::TableHandle;
use std::sync::Arc;

/// Summary of one level (reporting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelMeta {
    /// Level number.
    pub level: usize,
    /// Tables in the level.
    pub tables: usize,
    /// Total data blocks.
    pub blocks: u64,
    /// Total entries.
    pub entries: u64,
}

/// The table layout across levels. Handles are shared, not copied: a scan
/// or a compaction that streams a table clones the `Arc`, never the index
/// and bloom filter behind it.
pub struct Version {
    /// `levels[0]` newest-first; deeper levels sorted by `min_key`.
    levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// An empty version with `max_levels` levels.
    pub fn new(max_levels: usize) -> Self {
        Version {
            levels: vec![Vec::new(); max_levels.max(2)],
        }
    }

    /// Number of levels.
    pub fn max_levels(&self) -> usize {
        self.levels.len()
    }

    /// Installs a memtable flush into L0, kept newest-first by flush
    /// sequence (concurrent background flushes may complete out of order).
    pub fn add_l0(&mut self, table: Arc<TableHandle>) {
        let pos = self.levels[0]
            .iter()
            .position(|t| t.seq < table.seq)
            .unwrap_or(self.levels[0].len());
        self.levels[0].insert(pos, table);
    }

    /// Tables in L0.
    pub fn l0_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Tables at a level.
    pub fn level(&self, level: usize) -> &[Arc<TableHandle>] {
        &self.levels[level]
    }

    /// Total data blocks at a level.
    pub fn level_blocks(&self, level: usize) -> u64 {
        self.levels[level]
            .iter()
            .map(|t| t.data_blocks as u64)
            .sum()
    }

    /// Per-level summaries.
    pub fn level_metas(&self) -> Vec<LevelMeta> {
        self.levels
            .iter()
            .enumerate()
            .map(|(level, tables)| LevelMeta {
                level,
                tables: tables.len(),
                blocks: tables.iter().map(|t| t.data_blocks as u64).sum(),
                entries: tables.iter().map(|t| t.entries).sum(),
            })
            .collect()
    }

    /// Number of non-empty levels.
    pub fn depth(&self) -> usize {
        self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Tables that may contain `key`, in the order a `get` probes them:
    /// L0 newest→oldest, then deeper levels, one table each at most. The
    /// caller resolves the winner by sequence number, not probe order.
    pub fn tables_for_get<'a>(
        &'a self,
        key: &'a [u8],
    ) -> impl Iterator<Item = &'a TableHandle> + 'a {
        self.all_tables()
            .filter(move |t| t.overlaps(key, key))
            .map(Arc::as_ref)
    }

    /// The sorted runs a scan from `start` merges, each in key order:
    /// every L0 table on its own (they overlap), then *one run per deeper
    /// level* — its tables hold disjoint keys, so the scan walks them one
    /// after the other and only ever has one of them open. A run starts at
    /// the first table whose `max_key` is ≥ `start`.
    pub fn scan_runs(&self, start: &[u8]) -> Vec<Vec<Arc<TableHandle>>> {
        let reaches = |t: &&Arc<TableHandle>| t.max_key.as_slice() >= start;
        let mut runs: Vec<Vec<Arc<TableHandle>>> = self.levels[0]
            .iter()
            .filter(reaches)
            .map(|t| vec![t.clone()])
            .collect();
        for level in &self.levels[1..] {
            let mut run: Vec<Arc<TableHandle>> = level.iter().filter(reaches).cloned().collect();
            if !run.is_empty() {
                run.sort_by(|a, b| a.max_key.cmp(&b.max_key));
                runs.push(run);
            }
        }
        runs
    }

    /// Largest sequence number recorded by any table (0 when empty). Used
    /// at recovery to re-seed the write sequence above all durable data.
    pub fn max_seq(&self) -> u64 {
        self.all_tables().map(|t| t.max_seq).max().unwrap_or(0)
    }

    /// Tables at `level` overlapping `[min, max]` (indices + handles).
    pub fn overlapping(&self, level: usize, min: &[u8], max: &[u8]) -> Vec<&Arc<TableHandle>> {
        self.levels[level]
            .iter()
            .filter(|t| t.overlaps(min, max))
            .collect()
    }

    /// Applies a compaction edit: removes tables by id from `from_level` and
    /// `to_level`, installs `outputs` into `to_level` (kept sorted).
    pub fn apply_edit(
        &mut self,
        from_level: usize,
        to_level: usize,
        removed: &[u64],
        outputs: Vec<Arc<TableHandle>>,
    ) {
        for lvl in [from_level, to_level] {
            self.levels[lvl].retain(|t| !removed.contains(&t.id));
        }
        self.levels[to_level].extend(outputs);
        if to_level > 0 {
            self.levels[to_level].sort_by(|a, b| a.min_key.cmp(&b.min_key));
        }
    }

    /// All table handles, L0 newest-first then deeper levels in key order.
    pub fn all_tables(&self) -> impl Iterator<Item = &Arc<TableHandle>> {
        self.levels.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::TableBuilder;

    /// A one-block table of the keys `min` and `max`.
    fn handle(id: u64, min: &str, max: &str) -> Arc<TableHandle> {
        let mut b = TableBuilder::new(4096, 10);
        b.add(min.as_bytes(), id, Some(b"v"));
        b.add(max.as_bytes(), id, Some(b"v"));
        let (_, mut handle) = b.finish();
        handle.id = id;
        handle.seq = id;
        Arc::new(handle)
    }

    #[test]
    fn l0_searched_newest_first() {
        let mut v = Version::new(4);
        v.add_l0(handle(1, "a", "m"));
        v.add_l0(handle(2, "a", "m"));
        let ids: Vec<u64> = v.tables_for_get(b"b").map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn deeper_levels_probe_one_table() {
        let mut v = Version::new(4);
        v.apply_edit(
            1,
            1,
            &[],
            vec![
                handle(10, "a", "f"),
                handle(11, "g", "m"),
                handle(12, "n", "z"),
            ],
        );
        let probes: Vec<u64> = v.tables_for_get(b"h").map(|t| t.id).collect();
        assert_eq!(probes, vec![11]);
        // Key in a gap between tables probes nothing extra.
        let mut v2 = Version::new(4);
        v2.apply_edit(1, 1, &[], vec![handle(1, "a", "c"), handle(2, "x", "z")]);
        assert_eq!(v2.tables_for_get(b"k").count(), 0);
    }

    #[test]
    fn overlapping_selection() {
        let mut v = Version::new(4);
        v.apply_edit(
            1,
            1,
            &[],
            vec![
                handle(1, "a", "f"),
                handle(2, "g", "m"),
                handle(3, "n", "z"),
            ],
        );
        let o = v.overlapping(1, b"e", b"h");
        let ids: Vec<u64> = o.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn apply_edit_moves_tables_between_levels() {
        let mut v = Version::new(4);
        v.add_l0(handle(1, "a", "m"));
        v.add_l0(handle(2, "n", "z"));
        v.apply_edit(0, 1, &[1, 2], vec![handle(3, "a", "z")]);
        assert_eq!(v.l0_count(), 0);
        assert_eq!(v.level(1).len(), 1);
        assert_eq!(v.level(1)[0].id, 3);
        assert_eq!(v.depth(), 1);
        assert!(v.level(0).is_empty());
    }

    #[test]
    fn level_metas_summarize() {
        let mut v = Version::new(3);
        v.add_l0(handle(1, "a", "b"));
        let metas = v.level_metas();
        assert_eq!(metas.len(), 3);
        assert_eq!(metas[0].tables, 1);
        assert_eq!(metas[0].blocks, 1);
        assert_eq!(metas[1].tables, 0);
    }
}
