//! Model test for the memtable: random puts, deletes and re-puts of a small
//! key space against a `BTreeMap` of each key's versions, newest first —
//! the memtable's layout before its versions moved into an arena.
//!
//! Values are empty, small, 1 KB, tens of KB (so they land across the
//! arena's chunk boundaries) or larger than a chunk, and each one's bytes
//! are tagged with its sequence number, so a value read from the wrong
//! place shows. Seeds come from `OX_FAULT_SEED_BASE` (`ocssd::matrix_seeds`);
//! a failure names the seed to replay.

use lsmkv::Memtable;
use ocssd::matrix_seeds;
use ox_sim::Prng;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Every version of every key, newest first; `None` is a tombstone.
type Model = BTreeMap<Vec<u8>, Vec<(u64, Option<Vec<u8>>)>>;

/// A borrowed version: key, sequence number, value or tombstone.
type VersionRef<'a> = (&'a [u8], u64, Option<&'a [u8]>);

/// Keys "0" … "47": different lengths, one a prefix of another.
const KEYS: u64 = 48;

fn value_len(rng: &mut Prng) -> usize {
    (match rng.gen_range(10) {
        0 => 0,
        1..=3 => rng.gen_range(64),
        4..=6 => 1024,
        7..=8 => rng.gen_range_in(20_000, 70_000),
        _ => rng.gen_range_in(70_000, 200_000),
    }) as usize
}

/// `len` bytes that start with the sequence number and go on in a byte
/// of its own.
fn value(seq: u64, len: usize) -> Vec<u8> {
    let mut v = vec![seq as u8 ^ 0x5A; len];
    let n = len.min(8);
    v[..n].copy_from_slice(&seq.to_le_bytes()[..n]);
    v
}

/// What the model says `first_visible(from, snap)` returns.
fn model_first_visible<'a>(
    model: &'a Model,
    from: Bound<&[u8]>,
    snap: u64,
) -> Option<VersionRef<'a>> {
    model
        .range::<[u8], _>((from, Bound::Unbounded))
        .find_map(|(k, versions)| {
            let (seq, v) = versions.iter().find(|(seq, _)| *seq <= snap)?;
            Some((&k[..], *seq, v.as_deref()))
        })
}

/// Compares everything the memtable answers with the model.
fn check(mem: &Memtable, model: &Model, next_seq: u64, rng: &mut Prng, seed: u64) {
    let versions: usize = model.values().map(Vec::len).sum();
    assert_eq!(mem.len(), versions, "seed {seed}: len");
    assert_eq!(mem.is_empty(), model.is_empty(), "seed {seed}: is_empty");
    // The formula the memtable was always sized by: key + value + 40 per
    // version, tombstones included.
    let bytes: usize = model
        .iter()
        .flat_map(|(k, vs)| {
            vs.iter()
                .map(move |(_, v)| k.len() + v.as_ref().map_or(0, Vec::len) + 40)
        })
        .sum();
    assert_eq!(
        mem.approximate_bytes(),
        bytes,
        "seed {seed}: approximate_bytes"
    );

    let newest: Vec<VersionRef<'_>> = mem.iter_newest().collect();
    let want: Vec<VersionRef<'_>> = model
        .iter()
        .map(|(k, vs)| (&k[..], vs[0].0, vs[0].1.as_deref()))
        .collect();
    assert!(newest == want, "seed {seed}: iter_newest");

    for n in 0..KEYS {
        let k = n.to_string().into_bytes();
        let want = model.get(&k).map(|vs| (vs[0].0, vs[0].1.as_deref()));
        assert!(mem.newest(&k) == want, "seed {seed}: newest({n})");
    }

    // Each key's whole chain, newest first: a snapshot just below the
    // version found must find the next-older one, and below the oldest
    // the key is gone.
    for (k, vs) in model {
        let mut snap = u64::MAX;
        for &(seq, ref v) in vs {
            let got = mem.first_visible(Bound::Included(k), snap);
            assert!(
                got == Some((&k[..], seq, v.as_deref())),
                "seed {seed}: version {seq} of {:?}",
                String::from_utf8_lossy(k)
            );
            snap = seq - 1;
        }
        let below = mem.first_visible(Bound::Included(k), snap);
        assert!(
            below.is_none_or(|(key, ..)| key != &k[..]),
            "seed {seed}: below the oldest"
        );
    }

    for _ in 0..64 {
        let snap = rng.gen_range(next_seq + 1);
        let k = rng.gen_range(KEYS + 1).to_string().into_bytes();
        let from = match rng.gen_range(3) {
            0 => Bound::Included(&k[..]),
            1 => Bound::Excluded(&k[..]),
            _ => Bound::Unbounded,
        };
        assert!(
            mem.first_visible(from, snap) == model_first_visible(model, from, snap),
            "seed {seed}: first_visible({from:?}, {snap})"
        );
    }
}

#[test]
fn memtable_matches_a_btreemap_of_version_chains() {
    for seed in matrix_seeds(8) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut mem = Memtable::new();
        let mut model = Model::new();
        let mut seq = 1u64;
        check(&mem, &model, seq, &mut rng, seed);
        for op in 0..400 {
            let k = rng.gen_range(KEYS).to_string().into_bytes();
            // Gaps in the sequence, as a database with several memtables has.
            seq += 1 + rng.gen_range(3);
            let v = if rng.gen_range(4) == 0 {
                mem.delete(&k, seq);
                None
            } else {
                let v = value(seq, value_len(&mut rng));
                mem.put(&k, seq, &v);
                Some(v)
            };
            assert!(
                mem.newest(&k) == Some((seq, v.as_deref())),
                "seed {seed}: op {op}"
            );
            model.entry(k).or_default().insert(0, (seq, v));
            if op % 50 == 49 {
                check(&mem, &model, seq, &mut rng, seed);
            }
        }
    }
}
