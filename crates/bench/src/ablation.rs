//! Cross-interface ablation: the same YCSB point-op subset (A/B/C) over
//! three storage interfaces on identical devices.
//!
//! The paper's central claim is that the interface — not the media —
//! decides the FTL's cost profile. This experiment holds the device, the
//! key population, the zipfian skew and the record size fixed, and swaps
//! only the translation design underneath:
//!
//! * **oxblock** — the block-interface FTL ([`ox_block::BlockFtl`]): page
//!   mapping + WAL, records live at fixed logical pages.
//! * **oxztl** — the zone-translation layer ([`oxztl::ZtlFtl`]) over
//!   OX-ZNS: records become self-identifying zone appends, zone-aware GC
//!   reclaims behind the log.
//! * **kvssd** — the KV interface ([`ox_kvssd::KvSsd`]): hash index +
//!   value log, gets read exactly the value's sectors.
//!
//! Records are sized to one translation-layer append unit's payload so the
//! block and zone paths pay their respective padding taxes honestly (the
//! block FTL pads to `ws_min`, the ZTL spends one header sector per unit,
//! the KV-SSD coalesces across puts).
//!
//! Per backend and workload the report carries throughput in operations
//! per *virtual* second, steady-state write amplification measured over
//! the run phase from device counters, and p50/p99 latency.

use crate::ycsb::{
    self, YcsbBackend, YcsbConfig, YcsbGet, YcsbPut, YcsbReport, YcsbScan, YcsbWorkload,
};
use crate::Report;
use ocssd::{CellType, DeviceConfig, Geometry, SharedDevice, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig};
use ox_core::{Media, OcssdMedia};
use ox_kvssd::{KvSsd, KvSsdConfig};
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use oxztl::ZtlFtl;
use std::sync::Arc;

pub use oxztl::ZtlConfig;

/// Shared geometry: small chunks and a 4-sector write unit, so one record
/// (3 data sectors) fills exactly one ZTL append unit and zones recycle
/// within a few thousand operations.
pub fn ablation_geometry() -> Geometry {
    Geometry {
        num_groups: 4,
        pus_per_group: 2,
        chunks_per_pu: 40,
        sectors_per_chunk: 96,
        ws_min: 4,
        mw_cunits: 8,
        cell: CellType::Slc,
        planes: 1,
        sectors_per_page: 4,
        endurance: 10_000,
    }
}

/// Sectors per record (= ZTL unit payload for [`ablation_geometry`]).
pub const RECORD_SECTORS: u64 = 3;

const FAIL_BACKOFF: SimDuration = SimDuration::from_micros(100);

/// Recovers the key id [`workload_key`](crate::ycsb::workload_key) embeds in its low half.
fn key_id(key: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&key[8..16]);
    u64::from_be_bytes(raw)
}

fn pad_record(value: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; RECORD_SECTORS as usize * SECTOR_BYTES];
    let n = value.len().min(buf.len());
    buf[..n].copy_from_slice(&value[..n]);
    buf
}

/// [`YcsbBackend`] over the block-interface FTL: key id → fixed logical
/// page range, one record per [`RECORD_SECTORS`] pages.
#[derive(Clone)]
pub struct BlockAblation {
    ftl: Arc<Mutex<BlockFtl>>,
    value_bytes: usize,
}

impl BlockAblation {
    /// Formats `media` for OX-Block sized to `record_slots` records.
    pub fn format(
        media: Arc<dyn Media>,
        record_slots: u64,
        value_bytes: usize,
    ) -> (BlockAblation, SimTime) {
        let capacity = record_slots * RECORD_SECTORS * SECTOR_BYTES as u64;
        let (ftl, t) = BlockFtl::format(
            media,
            BlockFtlConfig::with_capacity(capacity),
            SimTime::ZERO,
        )
        .expect("oxblock format");
        (
            BlockAblation {
                ftl: Arc::new(Mutex::new(ftl)),
                value_bytes,
            },
            t,
        )
    }
}

impl YcsbBackend for BlockAblation {
    fn label(&self) -> &'static str {
        "oxblock"
    }

    fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> YcsbPut {
        let lpn = key_id(key) * RECORD_SECTORS;
        match self.ftl.lock().write(now, lpn, &pad_record(value)) {
            Ok(out) => YcsbPut::Done(out.done),
            Err(_) => YcsbPut::Failed(now + FAIL_BACKOFF),
        }
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> YcsbGet {
        let lpn = key_id(key) * RECORD_SECTORS;
        let mut buf = vec![0u8; RECORD_SECTORS as usize * SECTOR_BYTES];
        let mut ftl = self.ftl.lock();
        let mut done = now;
        for page in 0..RECORD_SECTORS {
            let off = page as usize * SECTOR_BYTES;
            match ftl.read(now, lpn + page, &mut buf[off..off + SECTOR_BYTES]) {
                Ok(c) => done = done.max(c.done),
                Err(_) => {
                    return YcsbGet {
                        value: None,
                        done: now + FAIL_BACKOFF,
                        failed: true,
                    }
                }
            }
        }
        drop(ftl);
        // An unwritten block range reads as zeros: no key bytes, no record.
        let value = if buf[..16].iter().all(|&b| b == 0) {
            None
        } else {
            Some(buf[..self.value_bytes].to_vec())
        };
        YcsbGet {
            value,
            done,
            failed: false,
        }
    }

    fn scan(&mut self, _now: SimTime, _start: &[u8], _limit: usize) -> YcsbScan {
        unreachable!("the ablation subset (A/B/C) issues no scans")
    }

    fn maintain(&mut self, now: SimTime) -> Option<SimTime> {
        let mut ftl = self.ftl.lock();
        if let Ok(Some(done)) = ftl.maybe_checkpoint(now) {
            return Some(done);
        }
        match ftl.maybe_gc(now) {
            Ok(Some(pass)) => Some(pass.done),
            _ => None,
        }
    }
}

/// [`YcsbBackend`] over the zone-translation layer: key id → fixed logical
/// sector range; GC and media-event ingestion run in maintenance.
#[derive(Clone)]
pub struct ZtlAblation {
    ftl: Arc<Mutex<ZtlFtl>>,
    value_bytes: usize,
}

impl ZtlAblation {
    /// Formats `media` as a zone-translation layer.
    pub fn format(media: Arc<dyn Media>, cfg: ZtlConfig) -> (ZtlAblation, SimTime) {
        let (ftl, t) = ZtlFtl::format(media, cfg, SimTime::ZERO).expect("oxztl format");
        (
            ZtlAblation {
                ftl: Arc::new(Mutex::new(ftl)),
                value_bytes: 0,
            },
            t,
        )
    }

    /// Records the value size (for get-side truncation).
    pub fn with_value_bytes(mut self, value_bytes: usize) -> ZtlAblation {
        self.value_bytes = value_bytes;
        self
    }
}

impl YcsbBackend for ZtlAblation {
    fn label(&self) -> &'static str {
        "oxztl"
    }

    fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> YcsbPut {
        let lpn = key_id(key) * RECORD_SECTORS;
        match self.ftl.lock().write_sectors(now, lpn, &pad_record(value)) {
            Ok(done) => YcsbPut::Done(done),
            Err(_) => YcsbPut::Failed(now + FAIL_BACKOFF),
        }
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> YcsbGet {
        let lpn = key_id(key) * RECORD_SECTORS;
        let mut buf = vec![0u8; RECORD_SECTORS as usize * SECTOR_BYTES];
        match self
            .ftl
            .lock()
            .read_sectors(now, lpn, RECORD_SECTORS as u32, &mut buf)
        {
            Ok(done) => YcsbGet {
                value: Some(buf[..self.value_bytes.min(buf.len())].to_vec()),
                done,
                failed: false,
            },
            Err(oxztl::ZtlError::Unmapped(_)) => YcsbGet {
                value: None,
                done: now + FAIL_BACKOFF,
                failed: false,
            },
            Err(_) => YcsbGet {
                value: None,
                done: now + FAIL_BACKOFF,
                failed: true,
            },
        }
    }

    fn scan(&mut self, _now: SimTime, _start: &[u8], _limit: usize) -> YcsbScan {
        unreachable!("the ablation subset (A/B/C) issues no scans")
    }

    fn maintain(&mut self, now: SimTime) -> Option<SimTime> {
        let mut ftl = self.ftl.lock();
        ftl.ingest_media_events();
        let before = ftl.stats().gc_passes;
        match ftl.maybe_gc(now) {
            Ok(done) if ftl.stats().gc_passes > before => Some(done),
            _ => None,
        }
    }
}

/// [`YcsbBackend`] over the KV-SSD: the interface carries keys natively,
/// so no id→page mapping exists on the host at all.
#[derive(Clone)]
pub struct KvAblation {
    kv: Arc<Mutex<KvSsd>>,
}

impl KvAblation {
    /// Formats `media` as a KV-SSD.
    pub fn format(media: Arc<dyn Media>) -> (KvAblation, SimTime) {
        let (kv, t) =
            KvSsd::format(media, KvSsdConfig::default(), SimTime::ZERO).expect("kvssd format");
        (
            KvAblation {
                kv: Arc::new(Mutex::new(kv)),
            },
            t,
        )
    }
}

impl YcsbBackend for KvAblation {
    fn label(&self) -> &'static str {
        "kvssd"
    }

    fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> YcsbPut {
        match self.kv.lock().put(now, key, value) {
            Ok(done) => YcsbPut::Done(done),
            Err(_) => YcsbPut::Failed(now + FAIL_BACKOFF),
        }
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> YcsbGet {
        match self.kv.lock().get(now, key) {
            Ok((value, done)) => YcsbGet {
                value,
                done,
                failed: false,
            },
            Err(_) => YcsbGet {
                value: None,
                done: now + FAIL_BACKOFF,
                failed: true,
            },
        }
    }

    fn scan(&mut self, _now: SimTime, _start: &[u8], _limit: usize) -> YcsbScan {
        unreachable!("the ablation subset (A/B/C) issues no scans")
    }

    fn maintain(&mut self, now: SimTime) -> Option<SimTime> {
        let mut kv = self.kv.lock();
        if kv.log_pressure() > 0.7 {
            return kv.truncate_log(now).ok();
        }
        None
    }
}

/// Ablation run parameters.
#[derive(Clone, Copy, Debug)]
pub struct AblationConfig {
    /// Records loaded (and the key population of every workload).
    pub record_count: u64,
    /// Measured operations per workload, and the warm-up operations
    /// (workload A, unmeasured) before the first measured phase, so WAF is
    /// sampled at steady state.
    pub operations: u64,
    /// Closed-loop clients.
    pub clients: usize,
}

/// Seed of every workload's operation stream.
const SEED: u64 = 0xAB1A;

impl AblationConfig {
    /// Full-scale run.
    pub fn full() -> AblationConfig {
        AblationConfig {
            record_count: 3072,
            operations: 8192,
            clients: 8,
        }
    }

    /// Quick run (same shapes, fraction of the ops).
    pub fn quick() -> AblationConfig {
        AblationConfig {
            record_count: 1024,
            operations: 2048,
            clients: 4,
        }
    }

    fn ycsb(&self, workload: YcsbWorkload) -> YcsbConfig {
        let mut cfg = YcsbConfig::new(workload);
        cfg.clients = self.clients;
        cfg.record_count = self.record_count;
        cfg.operations = self.operations;
        cfg.value_bytes = RECORD_SECTORS as usize * SECTOR_BYTES;
        cfg.seed = SEED;
        cfg
    }
}

/// One backend × workload cell of the ablation.
#[derive(Clone, Debug)]
pub struct AblationCell {
    /// Backend label.
    pub backend: &'static str,
    /// Workload.
    pub workload: YcsbWorkload,
    /// The YCSB report (virtual-time throughput and latency).
    pub report: YcsbReport,
    /// Physical bytes the device wrote during the measured phase
    /// (program traffic + internal copies).
    pub phys_write_bytes: u64,
    /// Logical bytes the workload's write legs submitted.
    pub user_write_bytes: u64,
}

impl AblationCell {
    /// Steady-state write amplification over the measured phase; 0 for
    /// read-only phases.
    pub fn waf(&self) -> f64 {
        if self.user_write_bytes == 0 {
            0.0
        } else {
            self.phys_write_bytes as f64 / self.user_write_bytes as f64
        }
    }
}

/// Whole-ablation output.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Backend-major, workload-minor cells.
    pub cells: Vec<AblationCell>,
}

impl AblationResult {
    /// Finds one cell.
    pub fn cell(&self, backend: &str, workload: YcsbWorkload) -> &AblationCell {
        self.cells
            .iter()
            .find(|c| c.backend == backend && c.workload == workload)
            .expect("cell exists")
    }
}

/// The measured workloads: the point-op subset. D/E need inserts past the
/// loaded population (unbounded address space), which the fixed-slot block
/// and zone mappings deliberately do not provide.
pub const WORKLOADS: [YcsbWorkload; 3] = [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C];

fn fresh_device(obs: &Obs) -> (SharedDevice, Arc<dyn Media>) {
    let dev = crate::figure_device(DeviceConfig::with_geometry(ablation_geometry()), obs);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    (dev, media)
}

/// Loads, warms and measures every workload on one backend, snapshotting
/// device write counters around each measured phase.
fn run_backend<B, F>(cfg: &AblationConfig, obs: &Obs, make: F) -> Vec<AblationCell>
where
    B: YcsbBackend,
    F: FnOnce(Arc<dyn Media>) -> (B, SimTime),
{
    let (dev, media) = fresh_device(obs);
    let (mut backend, t0) = make(media);

    // Load the population, then churn through an unmeasured workload-A
    // phase so every backend's GC/compaction reaches steady state.
    let warm = cfg.ycsb(YcsbWorkload::A);
    let t1 = ycsb::load(&mut backend, &warm, t0);
    let warm_obs = Obs::default(); // warm-up traffic stays out of the snapshot
    let (_, mut t) = ycsb::run_ycsb(&backend, &warm, &warm_obs, t1);

    let mut cells = Vec::new();
    for workload in WORKLOADS {
        let ycsb_cfg = cfg.ycsb(workload);
        let before = dev.with(|d| d.stats().clone());
        let (report, done) = ycsb::run_ycsb(&backend, &ycsb_cfg, obs, t);
        t = done;
        let after = dev.with(|d| d.stats().clone());
        let phys_write_bytes = (after.writes.bytes() - before.writes.bytes())
            + (after.copies.bytes() - before.copies.bytes());
        let user_write_bytes = report.writes.count() * RECORD_SECTORS * SECTOR_BYTES as u64;
        cells.push(AblationCell {
            backend: backend.label(),
            workload,
            report,
            phys_write_bytes,
            user_write_bytes,
        });
    }
    dev.publish_pu_metrics(t);
    dev.publish_health_metrics(t);
    cells
}

/// Runs the three-interface ablation.
pub fn run(cfg: &AblationConfig, obs: &Obs) -> AblationResult {
    let value_bytes = cfg.ycsb(YcsbWorkload::A).value_bytes;
    let mut cells = Vec::new();
    cells.extend(run_backend::<BlockAblation, _>(cfg, obs, |m| {
        // Slot space sized to the population; the device provides the
        // over-provisioning headroom.
        BlockAblation::format(m, cfg.record_count, value_bytes)
    }));
    cells.extend(run_backend::<ZtlAblation, _>(cfg, obs, |m| {
        let (b, t) = ZtlAblation::format(m, ZtlConfig::default());
        (b.with_value_bytes(value_bytes), t)
    }));
    cells.extend(run_backend::<KvAblation, _>(cfg, obs, KvAblation::format));
    AblationResult { cells }
}

/// The `fig_ablation` figure: [`run`], with the backend × workload
/// table and the per-workload comparison written to `out`.
pub fn report(cfg: &AblationConfig, obs: &Obs, out: &mut Report) {
    out.line("§5 — cross-interface ablation: YCSB A/B/C over oxblock, oxztl and kvssd");
    out.line(format!(
        "identical devices, {} records × {} KB, {ops} ops/workload after a {ops}-op warm-up\n",
        cfg.record_count,
        RECORD_SECTORS as usize * SECTOR_BYTES / 1024,
        ops = cfg.operations,
    ));
    let result = run(cfg, obs);

    let widths = [9usize, 8, 12, 10, 10, 10];
    out.row(
        &[
            "backend",
            "workload",
            "kops/vsec",
            "WAF",
            "p50 (µs)",
            "p99 (µs)",
        ],
        &widths,
    );
    out.sep(&widths);
    for cell in &result.cells {
        out.row(
            &[
                cell.backend.into(),
                format!("{:?}", cell.workload),
                format!("{:.1}", cell.report.kops_per_sec()),
                if cell.user_write_bytes == 0 {
                    "-".into()
                } else {
                    format!("{:.2}", cell.waf())
                },
                format!("{:.1}", cell.report.quantile_ns(0.50) as f64 / 1000.0),
                format!("{:.1}", cell.report.quantile_ns(0.99) as f64 / 1000.0),
            ],
            &widths,
        );
    }
    out.sep(&widths);

    out.line(
        "\n(WAF = device program + copy bytes over the measured phase ÷ submitted write bytes;",
    );
    out.line(" C is read-only, so no WAF.)");
    for w in WORKLOADS {
        out.line(format!(
            "  {:?}: kops/vsec oxblock {:.1} | oxztl {:.1} | kvssd {:.1}",
            w,
            result.cell("oxblock", w).report.kops_per_sec(),
            result.cell("oxztl", w).report.kops_per_sec(),
            result.cell("kvssd", w).report.kops_per_sec(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_interfaces_complete_the_point_op_subset() {
        let cfg = AblationConfig::quick();
        let r = run(&cfg, &Obs::default());
        assert_eq!(r.cells.len(), 9, "3 backends × 3 workloads");
        for cell in &r.cells {
            assert_eq!(
                cell.report.total_ops, cfg.operations,
                "{} {:?} must complete every op",
                cell.backend, cell.workload
            );
            assert_eq!(
                cell.report.failed_ops, 0,
                "{} {:?} must not surface failures on a clean device",
                cell.backend, cell.workload
            );
            if cell.workload == YcsbWorkload::C {
                assert_eq!(cell.user_write_bytes, 0, "C is read-only");
            } else {
                assert!(
                    cell.waf() >= 1.0,
                    "{} {:?}: WAF {} below 1 — phys counters missing traffic",
                    cell.backend,
                    cell.workload,
                    cell.waf()
                );
            }
        }
        // The zone path must actually be recycling zones at steady state.
        let a = r.cell("oxztl", YcsbWorkload::A);
        assert!(a.waf() > 1.0, "oxztl WAF must include header + GC traffic");
    }
}
