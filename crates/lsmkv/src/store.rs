//! Table storage backends.
//!
//! [`TableStore`] is the narrow interface the LSM needs: flush a whole table
//! atomically, read one table block, delete a table. [`LightLsmStore`] is
//! the paper's configuration: the application-specific LightLSM FTL
//! (whole-chunk tables, atomic flush, erase-only deletes).

use lightlsm::{LightLsm, LightLsmError};
use ocssd::Payload;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

/// Storage backend failure.
#[derive(Clone, Debug)]
pub enum StoreError {
    /// LightLSM backend failure.
    LightLsm(LightLsmError),
    /// Unknown table.
    UnknownTable(u64),
    /// Table larger than the backend supports.
    TooLarge(usize),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::LightLsm(e) => write!(f, "lightlsm: {e}"),
            StoreError::UnknownTable(id) => write!(f, "unknown table {id}"),
            StoreError::TooLarge(n) => write!(f, "table of {n} bytes too large"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LightLsmError> for StoreError {
    fn from(e: LightLsmError) -> Self {
        StoreError::LightLsm(e)
    }
}

/// What the LSM needs from table storage.
pub trait TableStore {
    /// Block size in bytes (the unit of read and write).
    fn block_bytes(&self) -> usize;

    /// Maximum table size in bytes.
    fn table_capacity_bytes(&self) -> usize;

    /// Atomically persists a table; returns its id and completion time.
    fn flush_table(&self, now: SimTime, data: &[u8]) -> Result<(u64, SimTime), StoreError>;

    /// [`TableStore::flush_table`] of a table handed over as its blocks
    /// (each `block_bytes` long, as [`crate::TableBuilder::finish`] returns
    /// them); the same flush in every other respect. The default
    /// concatenates them and calls `flush_table`; a store whose media can
    /// keep the blocks' own buffers hands them on uncopied.
    fn flush_table_blocks(
        &self,
        now: SimTime,
        blocks: &[Payload],
    ) -> Result<(u64, SimTime), StoreError> {
        self.flush_table(now, &concat_blocks(blocks))
    }

    /// Reads block `block` of table `id` into `out` (`block_bytes` long).
    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, StoreError>;

    /// [`TableStore::read_block`] answered with a view of the block instead
    /// of a copy into the caller's buffer; the same read in every other
    /// respect. The default reads into a fresh buffer; a store whose media
    /// can share the device's own buffer hands that on.
    fn read_block_shared(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
    ) -> Result<(Payload, SimTime), StoreError> {
        Payload::filled(self.block_bytes(), |out| {
            self.read_block(now, id, block, out)
        })
    }

    /// Deletes a table; returns the completion time.
    fn delete_table(&self, now: SimTime, id: u64) -> Result<SimTime, StoreError>;

    /// Observability sinks of the stack underneath; a [`crate::Db`] opened
    /// over this store reads them once, at construction. Stores that carry
    /// none answer with a private pair nobody reads.
    fn obs(&self) -> Obs {
        Obs::default()
    }
}

/// The bytes of a table given as its blocks: one after the other, zero tails
/// included.
pub fn concat_blocks(blocks: &[Payload]) -> Vec<u8> {
    let mut data = Vec::with_capacity(blocks.iter().map(Payload::len).sum());
    for block in blocks {
        data.extend_from_slice(block.bytes());
        data.resize(data.len() + block.len() - block.bytes().len(), 0);
    }
    data
}

/// [`TableStore`] over the LightLSM FTL.
#[derive(Clone)]
pub struct LightLsmStore {
    ftl: Arc<Mutex<LightLsm>>,
}

impl LightLsmStore {
    /// Wraps a LightLSM instance.
    pub fn new(ftl: LightLsm) -> Self {
        LightLsmStore {
            ftl: Arc::new(Mutex::new(ftl)),
        }
    }

    /// Access the FTL (stats, experiment control).
    pub fn with_ftl<R>(&self, f: impl FnOnce(&mut LightLsm) -> R) -> R {
        f(&mut self.ftl.lock())
    }

    /// Tables surviving in the FTL's directory (after
    /// [`lightlsm::LightLsm::open`]), with their block counts — the input
    /// to [`crate::Db::open_with_tables`].
    pub fn surviving_tables(&self) -> Vec<(u64, u32)> {
        let ftl = self.ftl.lock();
        ftl.table_ids()
            .into_iter()
            .filter_map(|id| ftl.table(id).map(|e| (id, e.blocks)))
            .collect()
    }
}

impl TableStore for LightLsmStore {
    fn block_bytes(&self) -> usize {
        self.ftl.lock().block_bytes()
    }

    fn table_capacity_bytes(&self) -> usize {
        self.ftl.lock().table_capacity_bytes()
    }

    fn flush_table(&self, now: SimTime, data: &[u8]) -> Result<(u64, SimTime), StoreError> {
        Ok(self.ftl.lock().flush_table(now, data)?)
    }

    fn flush_table_blocks(
        &self,
        now: SimTime,
        blocks: &[Payload],
    ) -> Result<(u64, SimTime), StoreError> {
        Ok(self.ftl.lock().flush_table_blocks(now, blocks)?)
    }

    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, StoreError> {
        Ok(self.ftl.lock().read_block(now, id, block, out)?)
    }

    fn read_block_shared(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
    ) -> Result<(Payload, SimTime), StoreError> {
        Ok(self.ftl.lock().read_block_shared(now, id, block)?)
    }

    fn delete_table(&self, now: SimTime, id: u64) -> Result<SimTime, StoreError> {
        Ok(self.ftl.lock().delete_table(now, id)?)
    }

    fn obs(&self) -> Obs {
        self.ftl.lock().obs().clone()
    }
}

/// A LightLSM store on a fresh scaled paper drive, for this crate's unit
/// tests.
#[cfg(test)]
pub(crate) fn lightlsm_test_store(placement: lightlsm::Placement) -> LightLsmStore {
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn ox_core::Media> = Arc::new(ox_core::OcssdMedia::new(dev));
    let config = lightlsm::LightLsmConfig { placement };
    let (ftl, _) = LightLsm::format(media, config, SimTime::ZERO).unwrap();
    LightLsmStore::new(ftl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightlsm::Placement;

    fn lightlsm_store() -> LightLsmStore {
        lightlsm_test_store(Placement::Horizontal)
    }

    fn exercise(store: &dyn TableStore) {
        let unit = store.block_bytes();
        let data: Vec<u8> = (0..3 * unit).map(|i| (i / unit) as u8 + 1).collect();
        let (id, t1) = store.flush_table(SimTime::ZERO, &data).unwrap();
        let mut out = vec![0u8; unit];
        for b in 0..3u32 {
            store
                .read_block(t1 + ox_sim::SimDuration::from_secs(1), id, b, &mut out)
                .unwrap();
            assert_eq!(out[0], b as u8 + 1, "block {b}");
        }
        let t2 = store
            .delete_table(t1 + ox_sim::SimDuration::from_secs(2), id)
            .unwrap();
        assert!(store.read_block(t2, id, 0, &mut out).is_err());
    }

    /// Every block of a flushed table — the zero-padded last one included —
    /// read both ways on twin stores: same bytes, same completion time.
    fn shared_reads_match(by_copy: &dyn TableStore, by_view: &dyn TableStore) {
        let unit = by_copy.block_bytes();
        let mut data: Vec<u8> = (0..5 * unit).map(|i| (i % 251) as u8 + 1).collect();
        data.truncate(4 * unit + 77);
        let (id, t1) = by_copy.flush_table(SimTime::ZERO, &data).unwrap();
        assert_eq!(by_view.flush_table(SimTime::ZERO, &data).unwrap(), (id, t1));
        data.resize(5 * unit, 0);
        let mut t = t1 + ox_sim::SimDuration::from_secs(1);
        let mut out = vec![0u8; unit];
        for (b, want) in data.chunks_exact(unit).enumerate() {
            let done = by_copy.read_block(t, id, b as u32, &mut out).unwrap();
            let (view, done_view) = by_view.read_block_shared(t, id, b as u32).unwrap();
            assert!(out == want, "block {b}: copy");
            assert!(view.to_vec() == want, "block {b}: view");
            assert_eq!(done_view, done, "block {b}");
            t = done;
        }
        assert!(by_view.read_block_shared(t, id + 1, 0).is_err());
    }

    #[test]
    fn shared_block_reads_match_copies_on_both_backends() {
        let (a, b) = (lightlsm_store(), lightlsm_store());
        shared_reads_match(&a, &b);
        let reads = |s: &LightLsmStore| s.with_ftl(|f| f.stats().blocks_read);
        assert_eq!((reads(&a), reads(&b)), (5, 5));
    }

    #[test]
    fn lightlsm_backend_round_trips() {
        exercise(&lightlsm_store());
    }
}
