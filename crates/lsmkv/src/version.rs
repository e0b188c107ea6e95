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
/// or a compaction that streams a table clones the `Arc`, never the index,
/// bloom filter and range tombstones behind it.
pub struct Version {
    /// `levels[0]` newest-first; deeper levels sorted by `min_key`.
    levels: Vec<Vec<Arc<TableHandle>>>,
    /// The live tables that carry range tombstones, in no particular order:
    /// few at any time, and every get and scan asks each of them.
    with_range_dels: Vec<Arc<TableHandle>>,
}

impl Version {
    /// An empty version with `max_levels` levels.
    pub fn new(max_levels: usize) -> Self {
        Version {
            levels: vec![Vec::new(); max_levels.max(2)],
            with_range_dels: Vec::new(),
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
        self.note_range_dels(&table);
        self.levels[0].insert(pos, table);
    }

    fn note_range_dels(&mut self, table: &Arc<TableHandle>) {
        if !table.range_dels.is_empty() {
            self.with_range_dels.push(table.clone());
        }
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
    /// L0 newest→oldest, then deeper levels. A level may yield several
    /// candidates — range-tombstone spans widen a table's key range past
    /// the point-data non-overlap invariant — so the caller resolves the
    /// winner by sequence number, not probe order.
    pub fn tables_for_get<'a>(
        &'a self,
        key: &'a [u8],
    ) -> impl Iterator<Item = &'a TableHandle> + 'a {
        self.all_tables()
            .filter(move |t| t.overlaps(key, key))
            .map(Arc::as_ref)
    }

    /// The sorted runs a scan of `[start, end)` merges, each in point-key
    /// order: every L0 table on its own (they overlap), then *one run per
    /// deeper level* — its tables hold disjoint point keys, so the scan
    /// walks them one after the other and only ever has one of them open.
    /// A run starts at the first table whose last point key is ≥ `start`;
    /// tables are ordered by that key rather than by `min_key`/`max_key`,
    /// which range tombstones widen past the point data. Tables without
    /// point data are left out.
    pub fn scan_runs(&self, start: &[u8], end: Option<&[u8]>) -> Vec<Vec<Arc<TableHandle>>> {
        let in_window = |t: &&Arc<TableHandle>| {
            t.last_point_key().is_some_and(|last| last >= start)
                && end.is_none_or(|e| t.min_key.as_slice() < e)
        };
        let mut runs: Vec<Vec<Arc<TableHandle>>> = self.levels[0]
            .iter()
            .filter(in_window)
            .map(|t| vec![t.clone()])
            .collect();
        for level in &self.levels[1..] {
            let mut run: Vec<Arc<TableHandle>> = level.iter().filter(in_window).cloned().collect();
            if !run.is_empty() {
                run.sort_by(|a, b| a.last_point_key().cmp(&b.last_point_key()));
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
        self.with_range_dels.retain(|t| !removed.contains(&t.id));
        for table in &outputs {
            self.note_range_dels(table);
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

    /// The live tables whose `range_dels` is not empty.
    pub fn tables_with_range_dels(&self) -> impl Iterator<Item = &Arc<TableHandle>> {
        self.with_range_dels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::RangeTombstone;
    use crate::sstable::TableBuilder;

    /// A one-block table of the keys `min` and `max`.
    fn handle(id: u64, min: &str, max: &str) -> Arc<TableHandle> {
        Arc::new(build(id, min, max, None))
    }

    fn build(id: u64, min: &str, max: &str, range_del: Option<(&str, &str)>) -> TableHandle {
        let mut b = TableBuilder::new(4096, 10);
        b.add(min.as_bytes(), id, Some(b"v"));
        b.add(max.as_bytes(), id, Some(b"v"));
        if let Some((start, end)) = range_del {
            b.add_range_del(RangeTombstone {
                start: start.as_bytes().to_vec(),
                end: end.as_bytes().to_vec(),
                seq: id,
            });
        }
        let (_, mut handle) = b.finish();
        handle.id = id;
        handle.seq = id;
        handle
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
    fn tables_with_range_dels_follow_the_live_set() {
        let ids = |v: &Version| -> Vec<u64> {
            let mut ids: Vec<u64> = v.tables_with_range_dels().map(|t| t.id).collect();
            ids.sort_unstable();
            ids
        };
        let with_rt = |id| Arc::new(build(id, "c", "k", Some(("d", "f"))));
        let mut v = Version::new(4);
        v.add_l0(handle(1, "a", "m"));
        v.add_l0(with_rt(2));
        v.add_l0(with_rt(3));
        assert_eq!(ids(&v), vec![2, 3]);
        // A compaction takes its inputs' tombstones along or drops them.
        v.apply_edit(0, 1, &[1, 2], vec![handle(4, "a", "b"), with_rt(5)]);
        assert_eq!(ids(&v), vec![3, 5]);
        v.apply_edit(0, 1, &[3, 5], vec![handle(6, "c", "k")]);
        assert_eq!(ids(&v), Vec::<u64>::new());
        for t in v.all_tables() {
            assert!(t.range_dels.is_empty());
        }
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
