//! Crash + fault proptests for the LSM store: power cuts land between
//! operations (mid-flush-queue, mid-compaction-cascade) while tombstones are
//! live and iterators are open; recovery must never resurrect a deleted key
//! and never lose a durable one.
//!
//! Durability model: flushes commit whole memtable generations in FIFO
//! order, every generation's newest sequence number survives in its table
//! meta, and no compaction lowers the highest surviving one. The state
//! surviving a crash is therefore exactly the *sequence prefix* of the
//! write log up to the recovered store's `next_seq() - 1`. Each crash is
//! checked by replaying that prefix into a `BTreeMap` and comparing a full
//! scan. Fault plans come from the shared [`ox_core::faultharness`] case
//! generator ([`FaultCase::from_seed`]) — the slot-fingerprint protocol
//! itself does not speak key-value, so only the seeded plan half of the
//! harness is reused here.

use lightlsm::{LightLsm, LightLsmConfig};
use lsmkv::{Db, DbConfig, DbIter, LightLsmStore, PutOutcome, TableStore};
use ocssd::{
    matrix_seeds, ChunkAddr, DeviceConfig, FaultMix, Geometry, OcssdDevice, ReadFault, SharedDevice,
};
use ox_core::faultharness::FaultCase;
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Small key space so deletes and crashes collide constantly.
const KEYS: u64 = 256;

fn geometry() -> Geometry {
    Geometry::paper_tlc_scaled(22, 16)
}

fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 8 * 1024, // tiny: every few writes cross a flush
        level_base_blocks: 4,
        level_multiplier: 4,
        max_levels: 3,
        ..DbConfig::default()
    }
}

fn key(k: u16) -> [u8; 16] {
    let mut out = [b'0'; 16];
    out[11..].copy_from_slice(format!("{k:05}").as_bytes());
    out
}

/// A value of `len` bytes naming its key and its version `v`.
fn value_of(k: u16, v: u8, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    out[..16].copy_from_slice(&key(k));
    out[16] = v;
    out
}

fn value(k: u16, v: u8) -> Vec<u8> {
    value_of(k, v, 200)
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

/// Puts `value` under `k` (or deletes `k` for `None`), draining background
/// work while the store stalls.
fn write(db: &mut Db, mut t: SimTime, k: u16, value: Option<&[u8]>) -> SimTime {
    loop {
        let outcome = match value {
            Some(v) => db.put(t, &key(k), v),
            None => db.delete(t, &key(k)),
        };
        match outcome.unwrap() {
            PutOutcome::Done(done) => return done,
            PutOutcome::Stalled(r) => t = drain(db, r),
        }
    }
}

/// One logged mutation, keyed by the sequence number the store assigned.
#[derive(Debug, Clone)]
enum LogOp {
    Put(u16, u8),
    Delete(u16),
}

/// Replays the prefix of the write log with `seq <= upto` into a model.
fn replay(log: &[(u64, LogOp)], upto: u64) -> BTreeMap<u16, u8> {
    let mut model = BTreeMap::new();
    for (seq, op) in log {
        if *seq > upto {
            break;
        }
        match op {
            LogOp::Put(k, v) => {
                model.insert(*k, *v);
            }
            LogOp::Delete(k) => {
                model.remove(k);
            }
        }
    }
    model
}

/// Full-scan the store and compare against `model`; `ctx` names the crash.
fn check_state(db: &mut Db, model: &BTreeMap<u16, u8>, t: SimTime, ctx: &str) -> SimTime {
    let mut iter = db.scan_from(b"");
    let mut tt = t;
    let mut got = Vec::new();
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        got.push((k, v));
    }
    db.release_iter(&mut iter);
    let expect: Vec<(u16, u8)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got.len(), expect.len(), "{ctx}: state size diverged");
    for ((gk, gv), (ek, ev)) in got.iter().zip(expect.iter()) {
        let ek_bytes = key(*ek);
        assert_eq!(gk.as_slice(), &ek_bytes[..], "{ctx}: key set diverged");
        assert_eq!(gv[16], *ev, "{ctx}: value for key {ek} diverged");
    }
    tt
}

/// A live iterator over the whole store and the model as it stood when the
/// iterator opened.
struct Reader {
    iter: DbIter,
    frozen: BTreeMap<u16, u8>,
    /// Every key below this has been read.
    next: u16,
}

impl Reader {
    fn open(db: &mut Db, model: &BTreeMap<u16, u8>) -> Reader {
        Reader {
            iter: db.scan_from(b""),
            frozen: model.clone(),
            next: 0,
        }
    }

    /// Reads up to `n` entries, each checked against the frozen model.
    /// Returns whether the iterator reached its end.
    fn step(&mut self, t: &mut SimTime, n: u16, ctx: &str) -> bool {
        for _ in 0..n {
            let want = self.frozen.range(self.next..).next();
            let Some((k, v)) = self.iter.next(t).unwrap() else {
                assert_eq!(want, None, "{ctx}: iterator ended early");
                return true;
            };
            let Some((&wk, &wv)) = want else {
                panic!("{ctx}: iterator read {k:?} past its state");
            };
            assert_eq!(k, key(wk), "{ctx}: iterator key");
            assert_eq!(v[16], wv, "{ctx}: iterator value for key {wk}");
            self.next = wk + 1;
        }
        false
    }
}

/// Crashes the device at `t`, reopens the FTL and rebuilds the store from
/// the tables that survived. Returns it with the recovery completion time.
fn crash_and_reopen(dev: &SharedDevice, t: SimTime, config: DbConfig) -> (Db, SimTime) {
    dev.crash(t);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, t_open, _) = LightLsm::open(media, LightLsmConfig::default(), t).unwrap();
    let store = Arc::new(LightLsmStore::new(ftl));
    let tables = store.surviving_tables();
    let s: Arc<dyn TableStore> = store;
    Db::open_with_tables(s, config, &tables, t_open).unwrap()
}

/// Crash and reopen, and verify the recovered state equals the durable log
/// prefix. Returns the recovered store, its model and the time.
fn crash_and_verify(
    dev: &SharedDevice,
    log: &mut Vec<(u64, LogOp)>,
    t: SimTime,
    ctx: &str,
) -> (Db, BTreeMap<u16, u8>, SimTime) {
    let (mut db, t) = crash_and_reopen(dev, t, db_config());
    let durable_max = db.next_seq() - 1;
    let model = replay(log, durable_max);
    let t = check_state(&mut db, &model, t, ctx);
    log.retain(|(seq, _)| *seq <= durable_max);
    (db, model, t)
}

fn fresh_store(dev: &SharedDevice) -> Arc<dyn TableStore> {
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    Arc::new(LightLsmStore::new(ftl))
}

fn fresh_db(dev: &SharedDevice) -> Db {
    Db::new(fresh_store(dev), db_config())
}

/// The main proptest: random workloads with live tombstones, open iterators
/// and seeded fault plans; crashes at scripted points plus every injected
/// power cut the plan lands.
#[test]
fn recovery_equals_the_durable_prefix_across_power_cuts() {
    let geo = geometry();
    let mix = FaultMix {
        program_fails: 0, // flushes must succeed; crashes do the damage
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 0,
        latency_spikes: 1,
        power_cuts: 2,
    };
    let mut crashes = 0u64;
    // Crashes after a compaction dropped a tombstone: what a compaction
    // drops must not lower the sequence number recovery restarts from.
    let mut crashes_after_drops = 0u64;

    for seed in matrix_seeds(12) {
        let case = FaultCase::from_seed(seed, &geo, &mix, KEYS, 64);
        let mut plan = case.plan.clone();
        // Extra transient read faults aimed at the low chunks the LSM fills
        // first, so recovery's meta reads and compaction re-reads absorb
        // bounded retries under fire.
        let mut rng = Prng::seed_from_u64(seed ^ 0xC4A5);
        for pu in 0..4u32 {
            let chunk = ChunkAddr::new(pu % geo.num_groups, pu / geo.num_groups, {
                rng.gen_range(4) as u32
            });
            plan.read_fails.push(ReadFault {
                ppa: chunk.ppa(rng.gen_range(16) as u32),
                attempts: 1 + rng.gen_range(2) as u32,
            });
        }

        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let mut db = fresh_db(&dev);
        dev.set_fault_plan(plan); // armed after format: setup is fault-free
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        let mut log: Vec<(u64, LogOp)> = Vec::new();
        let mut readers: Vec<Reader> = Vec::new();
        let mut t = SimTime::ZERO;

        let total_ops = rng.gen_range_in(120, 320);
        // Two scripted crash points so every seed exercises recovery even
        // when the plan's power cuts never come due.
        let mut forced: Vec<u64> = (0..2).map(|_| rng.gen_range(total_ops)).collect();
        forced.sort_unstable();

        for opno in 0..total_ops {
            let mut crash_now = forced.first().is_some_and(|&f| f == opno);
            match rng.gen_range(17) {
                0..=5 => {
                    let k = rng.gen_range(KEYS) as u16;
                    let v = rng.gen_range(256) as u8;
                    t = write(&mut db, t, k, Some(&value(k, v)));
                    model.insert(k, v);
                    log.push((db.next_seq() - 1, LogOp::Put(k, v)));
                }
                6..=9 => {
                    let k = rng.gen_range(KEYS) as u16;
                    t = write(&mut db, t, k, None);
                    model.remove(&k);
                    log.push((db.next_seq() - 1, LogOp::Delete(k)));
                }
                10..=11 => {
                    let k = rng.gen_range(KEYS) as u16;
                    let (got, done) = db.get(t, &key(k)).unwrap();
                    t = done;
                    assert_eq!(
                        got.map(|v| v[16]),
                        model.get(&k).copied(),
                        "seed {seed}: live read of key {k}"
                    );
                }
                12..=13 => {
                    db.seal_memtable();
                    if let Some(done) = db.flush_once(t).unwrap() {
                        t = done;
                    }
                }
                14 => {
                    if let Some(done) = db.compact_once(t).unwrap() {
                        t = done;
                    }
                }
                15 => {
                    if readers.len() < 2 {
                        readers.push(Reader::open(&mut db, &model));
                    }
                }
                _ => {
                    if let Some(reader) = readers.first_mut() {
                        let n = 1 + rng.gen_range(KEYS) as u16 % 32;
                        let ctx = format!("seed {seed}: op {opno}");
                        if reader.step(&mut t, n, &ctx) {
                            let mut done = readers.remove(0);
                            db.release_iter(&mut done.iter);
                        }
                    }
                }
            }
            crash_now |= dev.take_power_cut(t);
            if crash_now {
                forced.retain(|&f| f != opno);
                crashes += 1;
                crashes_after_drops += u64::from(db.compaction_stats().tombstones_dropped > 0);
                let ctx = format!("seed {seed} crash at op {opno}");
                // Open iterators die with the process: drop, don't release.
                readers.clear();
                let (db2, model2, t2) = crash_and_verify(&dev, &mut log, t, &ctx);
                db = db2;
                model = model2;
                t = t2;
            }
        }

        // Final crash with whatever is in flight, then a clean drain check.
        crashes += 1;
        crashes_after_drops += u64::from(db.compaction_stats().tombstones_dropped > 0);
        readers.clear();
        let ctx = format!("seed {seed} final crash");
        let (mut db, model, t) = crash_and_verify(&dev, &mut log, t, &ctx);
        let t = drain(&mut db, t);
        check_state(&mut db, &model, t, &format!("seed {seed} after drain"));
    }

    assert!(crashes >= 24, "every seed must crash at least twice");
    assert!(
        crashes_after_drops > 0,
        "some crash must follow a compaction that dropped a tombstone"
    );
}

/// Deterministic regression: a crash with sealed-but-unflushed generations
/// pending loses only the tail — durable tombstones keep their keys dead
/// even though newer (lost) writes had re-populated some of them.
#[test]
fn crash_with_pending_immutables_loses_only_the_tail() {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geometry())));
    let mut db = fresh_db(&dev);
    let mut t = SimTime::ZERO;

    for k in 0..100u16 {
        t = write(&mut db, t, k, Some(&value(k, 1)));
    }
    t = drain(&mut db, t);

    // Durable tombstones over 20..40.
    for k in 20..40u16 {
        t = write(&mut db, t, k, None);
    }
    db.seal_memtable();
    while let Some(done) = db.flush_once(t).unwrap() {
        t = done;
    }

    // Re-populate some of them, but only in volatile state: one sealed
    // (unflushed) generation and one live memtable.
    for k in 25..30u16 {
        t = write(&mut db, t, k, Some(&value(k, 2)));
    }
    db.seal_memtable();
    for k in 30..33u16 {
        t = write(&mut db, t, k, Some(&value(k, 3)));
    }

    let (mut db, mut t) = crash_and_reopen(&dev, t, db_config());
    for k in 0..100u16 {
        let (got, done) = db.get(t, &key(k)).unwrap();
        t = done;
        if (20..40).contains(&k) {
            assert_eq!(got, None, "key {k}: deleted key resurrected");
        } else {
            let got = got.unwrap_or_else(|| panic!("key {k}: lost"));
            assert_eq!(got[16], 1, "key {k}: wrong surviving version");
        }
    }
}

/// Deterministic regression: a bottom-level compaction drops a tombstone
/// together with the versions it hides, and one that drops everything it
/// reads writes no table at all. Recovery restarts the write sequence one
/// above the highest sequence number of the surviving tables, so if the
/// newest deletes vanished with their victims, a crash would hand their
/// numbers out again — and the recovered store, whose state includes
/// those deletes, would claim an older prefix than the one it holds.
#[test]
fn a_compaction_never_lets_a_crash_reissue_a_sequence_number() {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geometry())));
    let store = fresh_store(&dev);
    let block = store.block_bytes();
    let config = DbConfig {
        table_bytes: 2 * block,
        ..db_config()
    };
    let mut db = Db::new(store, config);
    let mut model = BTreeMap::new();
    let mut t = SimTime::ZERO;
    for k in 0..40u16 {
        t = write(&mut db, t, k, Some(&value_of(k, 1, block / 4)));
        model.insert(k, 1);
    }
    t = drain(&mut db, t);
    for k in 0..12u16 {
        t = write(&mut db, t, k, None);
        model.remove(&k);
        if k % 3 == 2 {
            db.seal_memtable();
            while let Some(done) = db.flush_once(t).unwrap() {
                t = done;
            }
        }
    }
    t = drain(&mut db, t);
    assert!(
        db.compaction_stats().entries_shadowed > 0,
        "the deletes must purge what they hide at the bottom level"
    );
    let next_seq = db.next_seq();

    let (mut db, t) = crash_and_reopen(&dev, t, config);
    assert_eq!(
        db.next_seq(),
        next_seq,
        "recovery must restart above every write the store holds"
    );
    check_state(&mut db, &model, t, "after the crash");
}
