//! Property tests for the WAL: arbitrary record batches survive the
//! commit → media → scan round trip byte-exactly and in order, across ring
//! wraps and truncations.
//!
//! Record batches come from the in-repo seeded [`Prng`]; every seed is an
//! independent case, so a failure names the seed to replay.

use crate::wal::{self, Wal, WalRecord};
use crate::{Media, OcssdMedia};
use ocssd::{ChunkAddr, DeviceConfig, OcssdDevice, SharedDevice};
use ox_sim::{Prng, SimTime};
use std::sync::Arc;

fn gen_record(rng: &mut Prng) -> WalRecord {
    match rng.gen_range(5) {
        0 => WalRecord::TxBegin {
            txid: rng.next_u64(),
        },
        1 => WalRecord::MapUpdate {
            txid: rng.next_u64(),
            lpn: rng.next_u64(),
            ppa_linear: rng.next_u64(),
        },
        2 => WalRecord::Trim {
            txid: rng.next_u64(),
            lpn: rng.next_u64(),
        },
        3 => WalRecord::TxCommit {
            txid: rng.next_u64(),
        },
        _ => {
            let mut data = vec![0u8; rng.gen_range(200) as usize];
            rng.fill_bytes(&mut data);
            WalRecord::Blob {
                txid: rng.next_u64(),
                tag: rng.gen_range(256) as u8,
                data,
            }
        }
    }
}

fn setup(chunks: u32) -> (Arc<dyn Media>, Vec<ChunkAddr>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let addrs: Vec<ChunkAddr> = (0..chunks)
        .map(|i| ChunkAddr::new(i % 8, 0, i / 8))
        .collect();
    (media, addrs)
}

/// Every committed batch scans back byte-exactly, in LSN order.
#[test]
fn commit_scan_round_trip() {
    for seed in 0..24u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let batches: Vec<Vec<WalRecord>> = (0..rng.gen_range_in(1, 15))
            .map(|_| {
                let len = rng.gen_range_in(1, 20);
                (0..len).map(|_| gen_record(&mut rng)).collect()
            })
            .collect();
        let (media, chunks) = setup(8);
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        let mut expected: Vec<WalRecord> = Vec::new();
        for batch in &batches {
            for rec in batch {
                wal.append(rec.clone());
                expected.push(rec.clone());
            }
            t = wal.commit(t).unwrap();
        }
        let (frames, _, stats) = wal::scan(&media, &chunks, t);
        assert_eq!(stats.torn_frames, 0, "seed {seed}");
        assert_eq!(stats.frames as usize, batches.len(), "seed {seed}");
        let scanned: Vec<WalRecord> = frames.into_iter().flat_map(|f| f.records).collect();
        assert_eq!(scanned, expected, "seed {seed}");
    }
}

/// Truncation never loses records above the truncation point, across ring
/// wraps.
#[test]
fn truncation_preserves_suffix() {
    for seed in 0..24u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let rounds: Vec<(usize, bool)> = (0..rng.gen_range_in(5, 40))
            .map(|_| (rng.gen_range_in(1, 12) as usize, rng.gen_bool(0.5)))
            .collect();
        let (media, chunks) = setup(4);
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        // Records written since the last truncation (the live tail).
        let mut live: Vec<WalRecord> = Vec::new();
        let mut truncated_below = 0u64;
        for (recs, truncate_after) in rounds {
            for i in 0..recs {
                let rec = WalRecord::MapUpdate {
                    txid: truncated_below + i as u64,
                    lpn: i as u64,
                    ppa_linear: 7,
                };
                wal.append(rec.clone());
                live.push(rec);
            }
            t = wal.commit(t).unwrap();
            if truncate_after {
                t = wal.truncate(t, wal.durable_lsn()).unwrap();
                truncated_below = wal.durable_lsn();
                live.clear();
            }
        }
        let (frames, _, stats) = wal::scan(&media, &chunks, t);
        assert_eq!(stats.torn_frames, 0, "seed {seed}");
        // Everything scanned with LSN above the truncation point must be
        // exactly the live tail, in order.
        let mut scanned_tail: Vec<WalRecord> = Vec::new();
        for f in frames {
            for (i, rec) in f.records.into_iter().enumerate() {
                if f.first_lsn + i as u64 > truncated_below {
                    scanned_tail.push(rec);
                }
            }
        }
        assert_eq!(scanned_tail, live, "seed {seed}");
    }
}
