//! Wall-clock microbenchmarks for the hot paths of the stack: device command
//! processing, the payload store's zero-tail scan, FTL mapping, checkpoints,
//! WAL framing, CRC32C, bloom filters, SSTable blocks and tables, and the
//! merge under compactions and scans.
//!
//! These measure *host CPU cost* of the simulation/FTL code (real time),
//! complementing the virtual-time experiment binaries. The harness is
//! self-contained (no criterion): each benchmark is calibrated to run for
//! roughly `TARGET_MILLIS` of wall time and reports ns/op plus throughput
//! where a per-op byte count applies.
//!
//! Usage: `cargo bench -p ox-bench` (add `-- <filter>` to run a subset).

use lsmkv::{BlockBuilder, BloomFilter};
use ocssd::{ChunkAddr, DeviceConfig, Geometry, OcssdDevice, Ppa, SECTOR_BYTES};
use ox_core::checkpoint::CheckpointStore;
use ox_core::codec::crc32c;
use ox_core::mapping::PageMap;
use ox_core::wal::{Wal, WalRecord};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CALIBRATION_ITERS: u64 = 200;
const TARGET_MILLIS: u64 = 200;
const MAX_ITERS: u64 = 20_000_000;

struct Harness {
    filter: Option<String>,
}

impl Harness {
    fn new() -> Self {
        // `cargo bench` passes `--bench`; the first free argument filters by
        // benchmark name, as with criterion.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .map(|s| s.to_lowercase());
        println!(
            "{:<28} {:>12} {:>12} {:>12}",
            "benchmark", "iters", "ns/op", "MB/s"
        );
        Harness { filter }
    }

    /// Whether the filter lets `name` run (for set-up too costly to do for
    /// nothing).
    fn selected(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.to_lowercase().contains(filter.as_str()))
    }

    /// Runs `f` repeatedly and reports the mean wall-clock cost per call.
    /// `bytes_per_op` (when nonzero) additionally reports throughput.
    fn bench(&self, name: &str, bytes_per_op: u64, mut f: impl FnMut()) {
        if !self.selected(name) {
            return;
        }
        // Calibrate: estimate the per-op cost, then size the measured run.
        let start = Instant::now();
        for _ in 0..CALIBRATION_ITERS {
            f();
        }
        let per_op = start.elapsed().as_nanos().max(1) as u64 / CALIBRATION_ITERS;
        let iters = (TARGET_MILLIS * 1_000_000 / per_op.max(1)).clamp(CALIBRATION_ITERS, MAX_ITERS);

        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
        let throughput = if bytes_per_op > 0 {
            let mb = (iters * bytes_per_op) as f64 / (1 << 20) as f64;
            format!("{:.0}", mb / elapsed.as_secs_f64())
        } else {
            "-".to_string()
        };
        println!("{name:<28} {iters:>12} {ns_per_op:>12.1} {throughput:>12}");
    }
}

/// Writes `data` (whole write units) at one write pointer after the other,
/// chunk after chunk, starting over on a fresh device when this one is full.
fn bench_writes(h: &Harness, name: &str, geo: Geometry, data: &[u8]) {
    if !h.selected(name) {
        return;
    }
    let sectors = (data.len() / SECTOR_BYTES) as u32;
    let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
    let mut t = SimTime::ZERO;
    let mut chunk_lin = 0u64;
    let mut sector = 0u32;
    h.bench(name, data.len() as u64, || {
        let addr = ChunkAddr::from_linear(&geo, chunk_lin);
        let c = dev.write(t, addr.ppa(sector), data).unwrap();
        t = c.done;
        sector += sectors;
        if sector >= geo.sectors_per_chunk {
            sector = 0;
            chunk_lin += 1;
            if chunk_lin == geo.total_chunks() {
                chunk_lin = 0;
                dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
                t = SimTime::ZERO;
            }
        }
        black_box(c.done);
    });
}

fn bench_device(h: &Harness) {
    let geo = Geometry::paper_tlc_scaled(22, 8);
    let unit = geo.ws_min_bytes();
    bench_writes(h, "device/write_96k_unit", geo, &vec![7u8; unit]);

    // What the payload store's zero-tail scan (`ocssd::media::used`, once
    // per sector) sees on a 4-sector write unit: nothing but padding, a
    // 20-byte header per sector, and no padding at all; then the unit a WAL
    // commit hands the device — one put's 117-byte frame padded to 16 KB.
    // A few chunks per PU keep a device full of whole sectors under 100 MB.
    let slc = Geometry {
        chunks_per_pu: 4,
        ..Geometry::small_slc()
    };
    let sectors_of = |live: usize| -> Vec<u8> {
        let mut data = vec![0u8; slc.ws_min_bytes()];
        for sector in data.chunks_exact_mut(SECTOR_BYTES) {
            sector[..live].fill(0xA5);
        }
        data
    };
    bench_writes(h, "media/zero_tail_zero_4k", slc, &sectors_of(0));
    bench_writes(h, "media/zero_tail_header20_4k", slc, &sectors_of(20));
    bench_writes(h, "media/zero_tail_full_4k", slc, &sectors_of(SECTOR_BYTES));
    let mut frame = vec![0u8; slc.ws_min_bytes()];
    frame[..117].fill(0xA5);
    bench_writes(h, "device/write_16k_wal_frame", slc, &frame);

    {
        let mut dev = OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8));
        let data = vec![7u8; unit];
        let addr = ChunkAddr::new(0, 0, 0);
        dev.write(SimTime::ZERO, addr.ppa(0), &data).unwrap();
        let mut out = vec![0u8; unit];
        let t = SimTime::from_secs(10);
        h.bench("device/read_96k_block", unit as u64, || {
            let c = dev.read(t, addr.ppa(0), geo.ws_min, &mut out).unwrap();
            black_box(c.done);
        });
    }
}

/// One log-pressure checkpoint of an OX-Block map the size `blk-update`
/// carries (314 KB): snapshot it, frame it, write it to an area.
fn bench_checkpoint(h: &Harness) {
    let geo = Geometry::small_slc();
    let dev = ocssd::SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let mut store = CheckpointStore::new(
        media,
        vec![ChunkAddr::new(0, 0, 0)],
        vec![ChunkAddr::new(1, 0, 0)],
    );
    let mut map = PageMap::new(geo, 1 << 16);
    for i in 0..20_000 {
        map.map(i * 3, Ppa::from_linear(&geo, i * 7 % geo.total_sectors()));
    }
    let mut t = SimTime::ZERO;
    h.bench(
        "checkpoint/write_20k_entries",
        map.snapshot_size() as u64,
        || {
            t = store.write(t, 1, &map.snapshot()).unwrap().0;
            black_box(t);
        },
    );
}

fn bench_mapping(h: &Harness) {
    let geo = Geometry::paper_tlc_scaled(22, 8);

    {
        let mut map = PageMap::new(geo, 1 << 20);
        let mut rng = Prng::seed_from_u64(1);
        h.bench("mapping/map_update", 0, || {
            let lpn = rng.gen_range(1 << 20);
            let ppa = Ppa::from_linear(&geo, rng.gen_range(geo.total_sectors()));
            black_box(map.map(lpn, ppa));
        });
    }

    {
        let mut map = PageMap::new(geo, 1 << 20);
        let mut rng = Prng::seed_from_u64(2);
        for i in 0..(1 << 18) {
            map.map(i, Ppa::from_linear(&geo, i * 7 % geo.total_sectors()));
        }
        h.bench("mapping/lookup", 0, || {
            let lpn = rng.gen_range(1 << 18);
            black_box(map.lookup(lpn));
        });
    }

    {
        let mut map = PageMap::new(geo, 1 << 20);
        for i in 0..(1 << 18) {
            map.map(i, Ppa::from_linear(&geo, i * 7 % geo.total_sectors()));
        }
        h.bench("mapping/snapshot_256k", 0, || {
            black_box(map.snapshot().len());
        });
    }
}

fn bench_wal(h: &Harness) {
    let dev = ocssd::SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let chunks: Vec<ChunkAddr> = (0..16).map(|i| ChunkAddr::new(0, 0, i)).collect();
    let (mut wal, mut t) = Wal::format(media, chunks, SimTime::ZERO).unwrap();
    let mut txid = 0u64;
    h.bench("wal/commit_256_records", 0, || {
        txid += 1;
        wal.append(WalRecord::TxBegin { txid });
        for i in 0..256u64 {
            wal.append(WalRecord::MapUpdate {
                txid,
                lpn: i,
                ppa_linear: i * 13,
            });
        }
        wal.append(WalRecord::TxCommit { txid });
        t = wal.commit(t).unwrap();
        t = wal.truncate(t, wal.durable_lsn()).unwrap();
        black_box(t);
    });
}

fn bench_codec(h: &Harness) {
    for size in [64usize, 4096, 96 * 1024] {
        let data = vec![0xA5u8; size];
        h.bench(&format!("codec/crc32c_{size}"), size as u64, || {
            black_box(crc32c(&data));
        });
    }
}

fn bench_lsm_components(h: &Harness) {
    {
        let mut f = BloomFilter::new(100_000, 10);
        let mut i = 0u64;
        h.bench("lsm/bloom_insert", 0, || {
            i += 1;
            f.insert(&i.to_le_bytes());
        });
    }

    {
        let mut f = BloomFilter::new(100_000, 10);
        for i in 0..100_000u64 {
            f.insert(&i.to_le_bytes());
        }
        let mut i = 0u64;
        h.bench("lsm/bloom_probe", 0, || {
            i += 1;
            black_box(f.maybe_contains(&i.to_le_bytes()));
        });
    }

    {
        let value = vec![0u8; 1024];
        h.bench("lsm/block_build_96k", 96 * 1024, || {
            let mut builder = BlockBuilder::new(96 * 1024);
            let mut i = 0u64;
            while builder.fits(&i.to_be_bytes(), Some(&value)) {
                builder.add(&i.to_be_bytes(), i + 1, Some(&value));
                i += 1;
            }
            black_box(builder.finish().len());
        });
    }

    {
        let value = vec![0u8; 1024];
        let mut builder = BlockBuilder::new(96 * 1024);
        let mut i = 0u64;
        while builder.fits(&i.to_be_bytes(), Some(&value)) {
            builder.add(&i.to_be_bytes(), i + 1, Some(&value));
            i += 1;
        }
        let data = builder.finish().to_vec();
        let mut probe = 0u64;
        h.bench("lsm/block_find", 0, || {
            probe = (probe + 1) % i;
            black_box(lsmkv::BlockIter::find(&data, &probe.to_be_bytes()));
        });
        // The same lookup the way a get does it: from the block's anchor
        // below the key instead of from its first entry.
        let find_indexed = |data: &[u8], anchors: &lsmkv::BlockAnchors, probe: u64| {
            let key = probe.to_be_bytes();
            let from = anchors.seek(data, &key);
            black_box(lsmkv::BlockIter::at(data, from).visible(&key, u64::MAX));
        };
        let anchors = lsmkv::BlockAnchors::build(&data);
        h.bench("lsm/block_find_indexed", 0, || {
            probe = (probe + 1) % i;
            find_indexed(&data, &anchors, probe);
        });
        // One block is cache-resident after a few lookups; a database is
        // not. 256 MB of blocks visited in a scattered order: every entry
        // header the walk touches, and every anchor, comes from memory.
        if h.selected("lsm/block_find_cold") || h.selected("lsm/block_find_indexed_cold") {
            let blocks: Vec<Vec<u8>> = (0..(256 << 20) / data.len())
                .map(|_| data.clone())
                .collect();
            let anchors: Vec<lsmkv::BlockAnchors> = blocks
                .iter()
                .map(|b| lsmkv::BlockAnchors::build(b))
                .collect();
            let mut rng = Prng::seed_from_u64(16);
            let mut next = || {
                let block = rng.gen_range(blocks.len() as u64) as usize;
                (block, rng.gen_range(i))
            };
            h.bench("lsm/block_find_cold", 0, || {
                let (block, probe) = next();
                black_box(lsmkv::BlockIter::find(&blocks[block], &probe.to_be_bytes()));
            });
            h.bench("lsm/block_find_indexed_cold", 0, || {
                let (block, probe) = next();
                find_indexed(&blocks[block], &anchors[block], probe);
            });
        }
    }
}

fn bench_lsm_tables(h: &Harness) {
    use lightlsm::{LightLsm, LightLsmConfig};
    use lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, TableBuilder, TableStore};

    // What a compaction pays per output table, the merge aside: 6 MB of
    // 1 KB versions into 96 KB blocks, index, bloom filter and meta region.
    {
        let value = vec![0xA5u8; 1024];
        h.bench("sstable/build_6mb_table", 6 << 20, || {
            let mut b = TableBuilder::new(96 * 1024, 10);
            let mut i = 0u64;
            while b.estimated_bytes() <= 6 << 20 {
                b.add(&i.to_be_bytes(), i + 1, Some(&value));
                i += 1;
            }
            black_box(b.finish().0.len());
        });
    }

    // The k-way merge that compactions and scans share, one merged entry per
    // op: a scan over twelve level-0 tables that each span the whole key
    // space (what a deep level-0 compaction merges), block reads on the
    // simulated device and the copy of each pair handed out included.
    if h.selected("compaction/merge_12_streams") {
        let dev = ocssd::SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (ftl, mut t) =
            LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
        let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
        let config = DbConfig {
            memtable_bytes: 1 << 20,
            max_immutables: 4,
            l0_compaction_trigger: 64,
            l0_slowdown: 64,
            l0_stall: 64,
            ..DbConfig::default()
        };
        let mut db = Db::new(store, config);
        let value = vec![0x5Au8; 1024];
        let mut i = 0u64;
        while db.level_metas()[0].tables < 12 {
            i += 1;
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
            match db.put(t, &key, &value).unwrap() {
                PutOutcome::Done(done) => t = done,
                PutOutcome::Stalled(retry) => t = retry,
            }
            while let Some(done) = db.flush_once(t).unwrap() {
                t = done;
            }
        }
        let mut iter = db.scan_from(b"");
        h.bench("compaction/merge_12_streams", 0, || {
            if iter.next(&mut t).unwrap().is_none() {
                db.release_iter(&mut iter);
                iter = db.scan_from(b"");
            }
        });
        db.release_iter(&mut iter);
    }
}

fn bench_gc(h: &Harness) {
    // Pre-build an FTL with garbage, then measure collection passes.
    use ox_block::{BlockFtl, BlockFtlConfig};
    let dev = ocssd::SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (mut ftl, mut t) = BlockFtl::format(
        media,
        BlockFtlConfig::with_capacity(64 << 20),
        SimTime::ZERO,
    )
    .unwrap();
    let buf = vec![0u8; 96 * SECTOR_BYTES];
    for round in 0..2 {
        let mut lpn = 0u64;
        while lpn + 96 <= (64 << 20) / SECTOR_BYTES as u64 {
            t = ftl.write(t, lpn, &buf).unwrap().done;
            lpn += 96;
        }
        let _ = round;
    }
    h.bench("gc/block_ftl_gc_pass", 0, || {
        let pass = ftl.gc_once(t).unwrap();
        t = pass.done.max(t) + SimDuration::from_micros(10);
        black_box(pass.victims);
    });
}

fn main() {
    let h = Harness::new();
    bench_device(&h);
    bench_mapping(&h);
    bench_checkpoint(&h);
    bench_wal(&h);
    bench_codec(&h);
    bench_lsm_components(&h);
    bench_lsm_tables(&h);
    bench_gc(&h);
}
