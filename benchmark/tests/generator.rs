//! The generator is the benchmark's input: it must be a pure function of the
//! seed, differ between seeds, and have the skew the workloads claim.

use oxperf::gen::{self, Mix, OpKind, OpStream, Rng, Zipf, THETA};
use oxperf::stacks::UPDATE_RECORDS;
use std::collections::BTreeSet;

const MIXES: [Mix; 5] = [
    Mix::Fill,
    Mix::UniformGet,
    Mix::ZipfMixed,
    Mix::ZipfUpdate,
    Mix::ZipfPut,
];

/// FNV-1a over the first `ops` operations of every client's stream.
fn stream_hash(mix: Mix, seed: u64, clients: u64, records: u64, ops: u64) -> u64 {
    let zipf = Zipf::new(records, THETA);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for c in 0..clients {
        let mut s = OpStream::new(mix, seed, c, clients, records);
        for _ in 0..ops {
            let op = s.next(&zipf);
            eat(op.kind as u64);
            eat(op.id);
            eat(op.len as u64);
        }
    }
    h
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for mix in MIXES {
        let a = stream_hash(mix, 7, 4, 10_000, 2_000);
        assert_eq!(a, stream_hash(mix, 7, 4, 10_000, 2_000), "{mix:?}");
        if mix != Mix::Fill {
            // Fill's op stream is the id sequence; its seed shows in the keys.
            assert_ne!(a, stream_hash(mix, 8, 4, 10_000, 2_000), "{mix:?}");
        }
    }
    assert_ne!(gen::key(7, 42), gen::key(8, 42));
    assert_eq!(gen::key(7, 42), gen::key(7, 42));
}

#[test]
fn clients_draw_independent_streams() {
    let zipf = Zipf::new(1000, THETA);
    let mut a = OpStream::new(Mix::ZipfUpdate, 3, 0, 2, 1000);
    let mut b = OpStream::new(Mix::ZipfUpdate, 3, 1, 2, 1000);
    let same = (0..1000).filter(|_| a.next(&zipf) == b.next(&zipf)).count();
    assert!(same < 200, "client streams coincide on {same} of 1000 ops");
}

#[test]
fn fill_covers_every_id_exactly_once() {
    let zipf = Zipf::new(1001, THETA);
    let mut seen = BTreeSet::new();
    for c in 0..4u64 {
        let mut s = OpStream::new(Mix::Fill, 1, c, 4, 1001);
        for _ in 0..(1001 + 3 - c) / 4 {
            let op = s.next(&zipf);
            assert_eq!(op.kind, OpKind::Put);
            assert!(seen.insert(op.id), "id {} inserted twice", op.id);
        }
    }
    assert_eq!(seen.len(), 1001);
}

#[test]
fn zipfian_skew_is_in_range() {
    let n = UPDATE_RECORDS;
    let zipf = Zipf::new(n, THETA);
    let mut rng = Rng::new(11);
    let draws = 200_000u64;
    let mut by_rank = vec![0u64; n as usize];
    for _ in 0..draws {
        let r = zipf.rank(&mut rng);
        assert!(r < n);
        by_rank[r as usize] += 1;
    }
    // θ = 0.99 over 6 553 items: zeta ≈ 9.4, so the hottest rank draws about
    // a ninth of the load and the hottest 10 % of ranks about three quarters.
    let top = by_rank[0] as f64 / draws as f64;
    assert!((0.08..0.14).contains(&top), "hottest rank share {top}");
    let head: u64 = by_rank[..n as usize / 10].iter().sum();
    let head = head as f64 / draws as f64;
    assert!((0.65..0.85).contains(&head), "hottest decile share {head}");
    assert!(
        by_rank[n as usize / 2..].iter().any(|&c| c > 0),
        "tail never drawn"
    );
    // Scrambling spreads the hot ranks over the id space.
    let ids: BTreeSet<u64> = (0..64).map(|r| gen::mix64(r) % n).collect();
    assert!(ids.len() >= 60);
    assert!(ids.iter().any(|&id| id > n / 2) && ids.iter().any(|&id| id < n / 2));
}

#[test]
fn mixes_have_their_stated_shares() {
    let zipf = Zipf::new(5000, THETA);
    let mut s = OpStream::new(Mix::ZipfMixed, 5, 0, 1, 5000);
    let (mut get, mut rmw, mut scan) = (0u32, 0u32, 0u32);
    for _ in 0..100_000 {
        let op = s.next(&zipf);
        match op.kind {
            OpKind::Get => get += 1,
            OpKind::Rmw => rmw += 1,
            OpKind::Scan => {
                scan += 1;
                assert!((1..=gen::MAX_SCAN).contains(&op.len));
            }
            OpKind::Put => panic!("the mixed workload issues no blind puts"),
        }
    }
    assert!((49_000..51_000).contains(&rmw), "rmw {rmw}");
    assert!((46_500..48_500).contains(&get), "get {get}");
    assert!((2_000..3_000).contains(&scan), "scan {scan}");
}

#[test]
fn values_are_full_length_and_versioned() {
    let mut a = vec![0u8; 12_288];
    let mut b = vec![0u8; 12_288];
    gen::fill_value(9, 5, 1, &mut a);
    gen::fill_value(9, 5, 2, &mut b);
    assert_eq!(
        a[..16],
        [5u64.to_le_bytes(), 1u64.to_le_bytes()].concat()[..]
    );
    assert_eq!(
        b[..16],
        [5u64.to_le_bytes(), 2u64.to_le_bytes()].concat()[..]
    );
    assert_ne!(a[16..], b[16..], "a new version is a new payload");
    // No zero tail for the device's payload store to trim, in any sector.
    for sector in a.chunks(4096) {
        assert!(sector[4088..].iter().any(|&x| x != 0));
    }
    let zeros = a.iter().filter(|&&x| x == 0).count();
    assert!(zeros < a.len() / 64, "{zeros} zero bytes of {}", a.len());
    let mut again = vec![0u8; 12_288];
    gen::fill_value(9, 5, 1, &mut again);
    assert_eq!(a, again);
    gen::fill_value(10, 5, 1, &mut again);
    assert_ne!(a, again, "the run seed is part of the payload");
}

#[test]
fn keys_embed_their_id() {
    let mut keys = BTreeSet::new();
    for id in 0..10_000u64 {
        let k = gen::key(3, id);
        assert_eq!(gen::key_id(&k), Some(id));
        assert!(keys.insert(k));
    }
    // Key order is a shuffle of id order.
    let in_order = keys
        .iter()
        .zip(keys.iter().skip(1))
        .filter(|(a, b)| gen::key_id(*a) < gen::key_id(*b))
        .count();
    assert!(
        (4_000..6_000).contains(&in_order),
        "{in_order} ascending neighbours"
    );
}
