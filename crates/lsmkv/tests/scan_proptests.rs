//! Property tests for iterator isolation: the LSM store agrees with a
//! `BTreeMap` model under random interleavings of puts, deletes, flushes,
//! compactions, bounded range scans and live iterators.
//!
//! An iterator is the snapshot a reader gets: it is paired with a *clone of
//! the model* taken when it opened, and however many writes, flushes and
//! compactions land while it is stepped, what it reads must keep matching
//! the frozen clone, to its end. Every seed is an independent case, so a
//! failure names the seed to replay.

use lightlsm::{LightLsm, LightLsmConfig};
use lsmkv::{Db, DbConfig, DbIter, LightLsmStore, PutOutcome, TableStore};
use ocssd::{matrix_seeds, DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Small key space so deletes and overwrites collide constantly.
const KEYS: u64 = 512;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Flush,
    Compact,
    Scan(u16, Option<u16>),
    OpenIter(u16),
    StepIter,
}

fn gen_op(rng: &mut Prng) -> Op {
    let k = |rng: &mut Prng| rng.gen_range(KEYS) as u16;
    match rng.gen_range(17) {
        0..=4 => Op::Put(k(rng), rng.gen_range(256) as u8),
        5..=8 => Op::Delete(k(rng)),
        9..=10 => Op::Get(k(rng)),
        11 => Op::Flush,
        12 => Op::Compact,
        13 => Op::Scan(k(rng), None),
        14 => {
            let start = k(rng);
            let span = 1 + rng.gen_range(128) as u16;
            Op::Scan(start, Some(span))
        }
        15 => Op::OpenIter(k(rng)),
        _ => Op::StepIter,
    }
}

fn key(k: u16) -> [u8; 16] {
    let mut out = [b'0'; 16];
    out[11..].copy_from_slice(format!("{k:05}").as_bytes());
    out
}

fn value(k: u16, v: u8) -> Vec<u8> {
    let mut out = vec![0u8; 200];
    out[..16].copy_from_slice(&key(k));
    out[16] = v;
    out
}

fn drain(db: &mut Db, mut t: SimTime) -> SimTime {
    loop {
        if let Some(done) = db.flush_once(t).unwrap() {
            t = done;
            continue;
        }
        if let Some(done) = db.compact_once(t).unwrap() {
            t = done;
            continue;
        }
        break;
    }
    t
}

fn db_with(config: DbConfig) -> Db {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
    Db::new(store, config)
}

fn fresh_db() -> Db {
    db_with(DbConfig {
        memtable_bytes: 8 * 1024, // tiny: rotations happen constantly
        level_base_blocks: 4,
        level_multiplier: 4,
        max_levels: 3,
        ..DbConfig::default()
    })
}

fn put_retry(db: &mut Db, mut t: SimTime, k: u16, v: &[u8]) -> SimTime {
    loop {
        match db.put(t, &key(k), v).unwrap() {
            PutOutcome::Done(done) => return done,
            PutOutcome::Stalled(r) => t = drain(db, r),
        }
    }
}

/// Scans `[start, start+span)` (or to the end) and compares the result
/// with the model.
fn check_scan(
    db: &mut Db,
    model: &BTreeMap<u16, u8>,
    start: u16,
    span: Option<u16>,
    t: SimTime,
    seed: u64,
) -> SimTime {
    let end = span.map(|s| start.saturating_add(s));
    let end_key = end.map(key);
    let mut iter = db.scan_from(&key(start));
    let mut tt = t;
    let mut got = Vec::new();
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        if end_key.is_some_and(|e| k.as_slice() >= &e[..]) {
            break;
        }
        got.push((k, v));
    }
    db.release_iter(&mut iter);
    let expect: Vec<(u16, u8)> = match end {
        Some(e) => model.range(start..e).map(|(&k, &v)| (k, v)).collect(),
        None => model.range(start..).map(|(&k, &v)| (k, v)).collect(),
    };
    if got.len() != expect.len() {
        let gks: Vec<String> = got
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        let eks: Vec<u16> = expect.iter().map(|(k, _)| *k).collect();
        panic!("seed {seed}: scan [{start}, {end:?}) got {gks:?} expect {eks:?}");
    }
    for ((gk, gv), (ek, ev)) in got.iter().zip(expect.iter()) {
        let ek_bytes = key(*ek);
        assert_eq!(gk.as_slice(), &ek_bytes[..], "seed {seed}: scan key");
        assert_eq!(gv[16], *ev, "seed {seed}: scan value for key {ek}");
    }
    tt
}

/// A live iterator and the model as it stood when the iterator opened.
struct Reader {
    iter: DbIter,
    frozen: BTreeMap<u16, u8>,
    /// Every key below this has been read.
    next: u16,
}

impl Reader {
    fn open(db: &mut Db, model: &BTreeMap<u16, u8>, start: u16) -> Reader {
        Reader {
            iter: db.scan_from(&key(start)),
            frozen: model.clone(),
            next: start,
        }
    }

    /// Reads up to `n` entries, each checked against the frozen model.
    /// Returns whether the iterator reached its end.
    fn step(&mut self, t: &mut SimTime, n: u64, seed: u64) -> bool {
        for _ in 0..n {
            let want = self.frozen.range(self.next..).next();
            let Some((k, v)) = self.iter.next(t).unwrap() else {
                assert_eq!(want, None, "seed {seed}: iterator ended early");
                return true;
            };
            let Some((&wk, &wv)) = want else {
                panic!("seed {seed}: iterator read {k:?} past its state");
            };
            assert_eq!(k, key(wk), "seed {seed}: iterator key");
            assert_eq!(v[16], wv, "seed {seed}: iterator value for key {wk}");
            self.next = wk + 1;
        }
        false
    }
}

#[test]
fn scans_and_snapshots_match_btreemap_model() {
    for seed in matrix_seeds(32) {
        let mut rng = Prng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..rng.gen_range_in(1, 250))
            .map(|_| gen_op(&mut rng))
            .collect();
        let mut db = fresh_db();
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        // Live iterators, each with the model frozen when it opened.
        let mut readers: Vec<Reader> = Vec::new();
        let mut t = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    loop {
                        match db.put(t, &key(k), &value(k, v)).unwrap() {
                            PutOutcome::Done(done) => {
                                t = done;
                                break;
                            }
                            PutOutcome::Stalled(r) => t = drain(&mut db, r),
                        }
                    }
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    loop {
                        match db.delete(t, &key(k)).unwrap() {
                            PutOutcome::Done(done) => {
                                t = done;
                                break;
                            }
                            PutOutcome::Stalled(r) => t = drain(&mut db, r),
                        }
                    }
                    model.remove(&k);
                }
                Op::Get(k) => {
                    let (got, done) = db.get(t, &key(k)).unwrap();
                    t = done;
                    match model.get(&k) {
                        Some(&v) => {
                            let got = got.unwrap_or_else(|| panic!("seed {seed}: key {k} missing"));
                            assert_eq!(got[16], v, "seed {seed}: key {k} wrong version");
                        }
                        None => assert_eq!(got, None, "seed {seed}: key {k} resurrected"),
                    }
                }
                Op::Flush => {
                    db.seal_memtable();
                    if let Some(done) = db.flush_once(t).unwrap() {
                        t = done;
                    }
                }
                Op::Compact => {
                    if let Some(done) = db.compact_once(t).unwrap() {
                        t = done;
                    }
                }
                Op::Scan(start, span) => {
                    t = check_scan(&mut db, &model, start, span, t, seed);
                }
                Op::OpenIter(start) => {
                    if readers.len() < 4 {
                        readers.push(Reader::open(&mut db, &model, start));
                    }
                }
                Op::StepIter => {
                    if readers.is_empty() {
                        continue;
                    }
                    let i = rng.gen_range(readers.len() as u64) as usize;
                    let n = rng.gen_range_in(1, 64);
                    if readers[i].step(&mut t, n, seed) {
                        let mut done = readers.swap_remove(i);
                        db.release_iter(&mut done.iter);
                    }
                }
            }
        }

        // Every iterator still open reads its own state to the end.
        t = drain(&mut db, t);
        for mut reader in readers {
            while !reader.step(&mut t, 64, seed) {}
            db.release_iter(&mut reader.iter);
        }
        // Final full agreement at the latest sequence.
        t = check_scan(&mut db, &model, 0, None, t, seed);
        t = drain(&mut db, t);
        for (&k, &v) in &model {
            let (got, done) = db.get(t, &key(k)).unwrap();
            t = done;
            let got = got.unwrap_or_else(|| panic!("seed {seed}: key {k} lost at end"));
            assert_eq!(got[16], v, "seed {seed}");
        }
    }
}

/// The paper's interface fallacy, as a bound: on LightLSM a block read is
/// a 96 KB media read whatever the scan wanted from it, so a short scan
/// may touch one block per sorted run — each L0 table, each deeper level —
/// plus two for runs that step over a block boundary, and no more. Every
/// scan is also checked against the model, so frugality cannot be bought
/// with a missed key.
#[test]
fn short_scans_read_one_block_per_sorted_run() {
    const SPACE: u16 = 60_000;
    for seed in matrix_seeds(2) {
        let mut rng = Prng::seed_from_u64(seed);
        // 96 KB blocks of ~300 entries, tables of ~7: L1 settles above 8
        // tables, the rest of ~17 MB lands in L2.
        let mut db = db_with(DbConfig {
            memtable_bytes: 512 * 1024,
            table_bytes: 8 * 96 * 1024,
            level_base_blocks: 110,
            level_multiplier: 8,
            max_levels: 3,
            ..DbConfig::default()
        });
        let wide = |k: u16, v: u8| {
            let mut out = value(k, v);
            out.resize(300, 0);
            out
        };
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        let mut t = SimTime::ZERO;
        // Keys arrive in random order, so every run spans the key space.
        let mut write = |db: &mut Db, t: SimTime, model: &mut BTreeMap<u16, u8>| {
            let (k, v) = (rng.gen_range(SPACE as u64) as u16, rng.gen_range(256) as u8);
            model.insert(k, v);
            put_retry(db, t, k, &wide(k, v))
        };
        for _ in 0..120_000 {
            t = write(&mut db, t, &mut model);
        }
        db.seal_memtable();
        t = drain(&mut db, t);
        // Two more L0 tables, left uncompacted, and a live memtable on top
        // of the levels.
        for _ in 0..2 {
            for _ in 0..500 {
                t = write(&mut db, t, &mut model);
            }
            db.seal_memtable();
            t = db.flush_once(t).unwrap().expect("a sealed memtable");
        }
        for _ in 0..50 {
            t = write(&mut db, t, &mut model);
        }
        let levels = db.level_metas();
        assert!(levels[0].tables >= 2, "seed {seed}: {levels:?}");
        assert!(levels[1].tables >= 8, "seed {seed}: {levels:?}");
        assert!(levels[2].tables >= 8, "seed {seed}: {levels:?}");
        let runs = (levels[0].tables + 2) as u64;

        let mut scan_rng = Prng::seed_from_u64(seed ^ 0x5CA9);
        for _ in 0..200 {
            let start = scan_rng.gen_range(SPACE as u64) as u16;
            let limit = scan_rng.gen_range_in(1, 17) as usize;
            let before = db.stats().scan_blocks_read;
            let mut iter = db.scan_from(&key(start));
            let mut got = Vec::new();
            while got.len() < limit {
                match iter.next(&mut t).unwrap() {
                    Some((k, v)) => got.push((k, v[16])),
                    None => break,
                }
            }
            db.release_iter(&mut iter);
            let want: Vec<(Vec<u8>, u8)> = model
                .range(start..)
                .take(limit)
                .map(|(&k, &v)| (key(k).to_vec(), v))
                .collect();
            assert_eq!(got, want, "seed {seed}: scan of {limit} from {start}");
            let blocks = db.stats().scan_blocks_read - before;
            assert!(
                blocks <= runs + 2,
                "seed {seed}: {limit} keys from {start} read {blocks} blocks over {runs} runs"
            );
        }
    }
}
