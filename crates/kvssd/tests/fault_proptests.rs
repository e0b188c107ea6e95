//! The KV-SSD under seeded media faults: program failures under the value
//! log and its collector's copies, erase failures under the collector's
//! resets, transient uncorrectable reads under gets. No power cut — the
//! KV-SSD cannot remount yet (ROADMAP, "every interface recovers").
//!
//! A put/overwrite/delete/get mix of mixed value sizes runs against a
//! `BTreeMap` model on a device small enough, and under a watermark high
//! enough, that the collector relocates throughout. Every operation must
//! succeed or be refused with the typed `OutOfSpace`; every acknowledged
//! value must read back. Seeds and geometry come from `OX_FAULT_SEED_BASE` /
//! `OX_FAULT_GEOMETRY`; failure messages name the seed to replay.

use ocssd::{
    matrix_geometry, matrix_seeds, DeviceConfig, FaultLedger, FaultMix, FaultPlan, Geometry,
    OcssdDevice, SharedDevice,
};
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::{Media, OcssdMedia};
use ox_kvssd::{KvError, KvSsd, KvSsdConfig};
use ox_sim::{Prng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const KEYS: u64 = 48;
const OPS: usize = 1200;

/// When an acknowledged write completed; `None` for one refused with the
/// typed `OutOfSpace`. Any other failure fails the test.
fn acked(seed: u64, op: &str, result: Result<SimTime, KvError>) -> Option<SimTime> {
    match result {
        Ok(done) => Some(done),
        Err(KvError::OutOfSpace) => None,
        Err(e) => panic!("seed {seed}: {op} must succeed or be out of space, got {e}"),
    }
}

#[test]
fn acknowledged_values_survive_seeded_media_faults() {
    // Eight write units a chunk, twelve chunks a PU: the log laps its chunks
    // and random fault sites are ones the run actually reaches.
    let base = matrix_geometry();
    let geo = Geometry {
        chunks_per_pu: 12,
        sectors_per_chunk: 8 * base.ws_min,
        ..base
    };
    let layout = Layout::plan(&geo, LayoutConfig::default());
    let data_chunks = geo.total_chunks() as u32 - layout.reserved_linear(&geo).len() as u32;
    let config = KvSsdConfig {
        // Collect from the second chunk a PU opens onwards.
        gc_watermark: data_chunks - 2 * geo.total_pus(),
        ..KvSsdConfig::default()
    };
    let mix = FaultMix {
        program_fails: 12,
        transient_read_fails: 12,
        permanent_read_fails: 0,
        erase_fails: 12,
        latency_spikes: 1,
        power_cuts: 0,
    };

    let mut fired = FaultLedger::default();
    let (mut failovers, mut gc_passes) = (0, 0);
    for seed in matrix_seeds(12) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut kv, mut t) = KvSsd::format(media, config, SimTime::ZERO).unwrap();
        // Arm after format so setup itself is fault-free.
        dev.set_fault_plan(FaultPlan::random(seed, &geo, &mix));

        let mut rng = Prng::seed_from_u64(seed ^ 0x6B76_5353);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // Keys whose last put or delete was refused: the refusal may have
        // come before or after the index changed, so either state is right
        // until the next acknowledged operation on the key settles it.
        let mut unsettled: BTreeSet<Vec<u8>> = BTreeSet::new();
        for i in 0..OPS {
            let key = format!("key{}", rng.gen_range(KEYS)).into_bytes();
            match rng.gen_range(10) {
                0..=5 => {
                    // One byte to two write units, sector-aligned or not.
                    let len = 1 + rng.gen_range(2 * geo.ws_min_bytes() as u64) as usize;
                    let mut value = vec![0u8; len];
                    rng.fill_bytes(&mut value);
                    if let Some(done) = acked(seed, "put", kv.put(t, &key, &value)) {
                        t = done;
                        unsettled.remove(&key);
                        model.insert(key, value);
                    } else {
                        unsettled.insert(key);
                    }
                }
                6 => {
                    if let Some(done) = acked(seed, "delete", kv.delete(t, &key)) {
                        t = done;
                        unsettled.remove(&key);
                        model.remove(&key);
                    } else {
                        unsettled.insert(key);
                    }
                }
                _ => {
                    let (got, done) = kv
                        .get(t, &key)
                        .unwrap_or_else(|e| panic!("seed {seed}: get #{i} failed: {e}"));
                    t = done;
                    if !unsettled.contains(&key) {
                        assert_eq!(got.as_ref(), model.get(&key), "seed {seed}: get #{i}");
                    }
                }
            }
            // Nothing checkpoints a KV-SSD's log; the host truncates it.
            if kv.log_pressure() > 0.5 {
                t = kv.truncate_log(t).unwrap();
            }
        }
        for (key, value) in &model {
            if !unsettled.contains(key) {
                let (got, done) = kv.get(t, key).unwrap();
                assert_eq!(got.as_ref(), Some(value), "seed {seed}: final read");
                t = done;
            }
        }

        let ledger = dev.fault_ledger();
        assert!(
            kv.stats().write_failovers <= ledger.program_fails,
            "seed {seed}: a failover without a program failure"
        );
        fired.program_fails += ledger.program_fails;
        fired.erase_fails += ledger.erase_fails;
        fired.read_fails += ledger.read_fails;
        failovers += kv.stats().write_failovers;
        gc_passes += kv.stats().gc_passes;
    }
    // Across the seeds every armed fault kind fired and both write paths —
    // puts and the collector — ran over them.
    assert!(
        fired.program_fails > 0 && fired.erase_fails > 0 && fired.read_fails > 0,
        "fault plans missed the workload: {fired:?}"
    );
    assert!(
        failovers > 0 && gc_passes > 0,
        "{failovers} failovers, {gc_passes} GC passes"
    );
}
