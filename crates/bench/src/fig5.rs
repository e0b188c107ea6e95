//! Figures 5 and 6: RocksDB-style throughput over LightLSM.
//!
//! Setup (paper §4.3): db_bench fill-sequential, read-sequential and
//! read-random with 1/2/4/8 clients, 16 B keys and 1 KB values, no
//! compression or caching, horizontal vs. vertical SSTable placement.
//! Read workloads run over the database left by fill-sequential. Figure 6
//! is the per-window completion-rate series of the oxblock fills
//! ([`BenchReport::series`]), printed from the same cells.
//!
//! Expected shapes:
//! * write throughput ≫ read throughput (write-back device cache);
//! * fill-sequential: horizontal ≫ vertical at 1 client (~4× in the paper);
//!   horizontal degrades with 4–8 clients while vertical scales, ending
//!   ~2× ahead at 8 clients;
//! * read-sequential ≫ read-random (block = unit of read *and* write);
//! * horizontal ≥ vertical for reads;
//! * Figure 6: horizontal sustains high throughput at 1–2 clients and takes
//!   visibly longer with oscillating lower throughput at 4–8; vertical shows
//!   a lower single-client peak but its completion time stays stable (or
//!   shrinks) as clients are added.

use crate::backend::BenchBackend;
use lightlsm::{LightLsm, LightLsmConfig, Placement};
use lsmkv::bench::{run_workload, BenchConfig, BenchReport, Workload, VALUE_BYTES};
use lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ocssd::{DeviceConfig, SharedDevice};
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// One (placement × clients) cell of the figure.
#[derive(Clone, Debug)]
pub struct Fig5Cell {
    /// Placement policy.
    pub placement: Placement,
    /// Client count.
    pub clients: usize,
    /// fill-sequential report.
    pub fill: BenchReport,
    /// read-sequential report.
    pub read_seq: BenchReport,
    /// read-random report.
    pub read_random: BenchReport,
}

/// Whole-figure output.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// All cells, placement-major then client count.
    pub cells: Vec<Fig5Cell>,
}

impl Fig5Result {
    /// Finds a cell.
    pub fn cell(&self, placement: Placement, clients: usize) -> &Fig5Cell {
        self.cells
            .iter()
            .find(|c| c.placement == placement && c.clients == clients)
            .expect("cell exists")
    }
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Config {
    /// Bytes each client writes during fill (the paper used 3 GB).
    pub fill_bytes_per_client: u64,
    /// read-sequential ops per client.
    pub read_seq_ops: u64,
    /// read-random ops per client.
    pub read_random_ops: u64,
    /// Throughput window for time series.
    pub window: SimDuration,
}

impl Fig5Config {
    /// Full-scale run (scaled from the paper's 3 GB/client to 96 MB/client
    /// to match the scaled device geometry).
    pub fn full() -> Self {
        Fig5Config {
            fill_bytes_per_client: 96 * 1024 * 1024,
            read_seq_ops: 24_000,
            read_random_ops: 3_000,
            window: SimDuration::from_millis(250),
        }
    }

    /// Quick run.
    pub fn quick() -> Self {
        Fig5Config {
            fill_bytes_per_client: 48 * 1024 * 1024,
            read_seq_ops: 8_000,
            read_random_ops: 1_000,
            window: SimDuration::from_millis(100),
        }
    }
}

/// Builds the Figure 5/6 database stack: small-chunk paper geometry
/// (768 KB chunks ⇒ 24 MB full-width SSTables) and paper-flavoured
/// RocksDB options. Every layer — device, LightLSM FTL, LSM database —
/// reports into `obs`. Also returns a handle on the LightLSM store (for FTL
/// statistics).
pub fn make_db(
    placement: Placement,
    backend: BenchBackend,
    obs: &Obs,
) -> (SharedDb, SharedDevice, Arc<LightLsmStore>) {
    // Chunk size ÷128 (192 KB chunks, 2 write units each) and chunk count
    // ÷2: a 4.5 GB device where a full-width SSTable is 32 chunks = 6 MB,
    // so fills reach compaction steady state within ~50 MB per client.
    let dev = crate::figure_device(DeviceConfig::paper_tlc_scaled(2, 128), obs);
    // `Oxztl` interposes the zone-translation layer: LightLSM's chunk
    // writes and resets become zone appends and durable trims, the
    // cross-interface leg of the ablation matrix.
    let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let media = backend.wrap_media(raw);
    let (ftl, _) =
        LightLsm::format(media, LightLsmConfig { placement }, SimTime::ZERO).expect("format");
    let store = Arc::new(LightLsmStore::new(ftl));
    let db_cfg = DbConfig {
        // Memtable = SSTable = one full-width stripe, as the paper sizes
        // them (768 MB on the real drive, 6 MB scaled).
        memtable_bytes: 11 * 512 * 1024,
        max_immutables: 8,
        l0_compaction_trigger: 4,
        l0_slowdown: 8,
        l0_stall: 12,
        level_base_blocks: 512, // L1 target 48 MB of 96 KB blocks
        level_multiplier: 8,
        max_levels: 3, // L0, L1, L2 — "3 levels of SSTables on disk"
        table_bytes: 6 * 1024 * 1024,
    };
    let db = Db::new(store.clone() as Arc<dyn TableStore>, db_cfg);
    (SharedDb::new(db), dev, store)
}

/// Runs one (placement, clients) column: fill, then read-seq, then
/// read-random over the same database.
fn run_cell(
    cfg: &Fig5Config,
    placement: Placement,
    clients: usize,
    backend: BenchBackend,
    obs: &Obs,
) -> Fig5Cell {
    let (db, dev, _store) = make_db(placement, backend, obs);
    let ops_per_client = cfg.fill_bytes_per_client / VALUE_BYTES as u64;
    let mut fill_cfg = BenchConfig::paper(Workload::FillSequential, clients, ops_per_client);
    fill_cfg.window = cfg.window;
    let (fill, t1) = run_workload(&db, fill_cfg, SimTime::ZERO);

    let key_space = clients as u64 * ops_per_client;
    let mut rs_cfg = BenchConfig::paper(Workload::ReadSequential, clients, cfg.read_seq_ops);
    rs_cfg.key_space = key_space;
    rs_cfg.window = cfg.window;
    let (read_seq, t2) = run_workload(&db, rs_cfg, t1);

    let mut rr_cfg = BenchConfig::paper(Workload::ReadRandom, clients, cfg.read_random_ops);
    rr_cfg.key_space = key_space;
    rr_cfg.window = cfg.window;
    let (read_random, t3) = run_workload(&db, rr_cfg, t2);
    dev.publish_pu_metrics(t3);
    dev.publish_health_metrics(t3);

    Fig5Cell {
        placement,
        clients,
        fill,
        read_seq,
        read_random,
    }
}

/// Runs the whole figure over `backend`'s media, reporting into `obs`
/// across all cells.
pub fn run(cfg: &Fig5Config, backend: BenchBackend, obs: &Obs) -> Fig5Result {
    let mut cells = Vec::new();
    for placement in [Placement::Horizontal, Placement::Vertical] {
        for clients in crate::CLIENT_COUNTS {
            cells.push(run_cell(cfg, placement, clients, backend, obs));
        }
    }
    Fig5Result { cells }
}
