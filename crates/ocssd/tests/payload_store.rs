//! The extent payload store against what it replaced, and views against
//! copies.
//!
//! (a) A seeded model test: random write / read / `read_vector` / `copy` /
//! reset / crash sequences on the reduced SLC and the scaled TLC geometry,
//! checked against the per-sector map the store used to be — kept here as
//! the reference: every byte read, every `ReadUnwritten` and
//! `stored_sectors()` must agree.
//! (b) View ≡ copy: twin devices fed the same commands, one through `read`
//! and one through `read_shared`, must return the same bytes and
//! completions — or the same errors — and end with identical statistics and
//! metrics.
//! (c) A view is a snapshot: it survives the reset and rewrite of its chunk
//! unchanged (that the store lets go of the bytes, so dropping the view
//! frees them, is checked by reference count in the store's unit tests).
//!
//! (d) Adopted ≡ copied: twin devices fed the same commands, one through
//! `write` and one through `write_parts` — payloads in buffers the store
//! can keep, full, holed, short-tailed and all zero — must acknowledge at
//! the same times, read back the same bytes both ways, count the same
//! sectors, survive the same resets and power cuts and end with identical
//! statistics and metrics; what is resident may exceed the bytewise rule by
//! less than a sector per command. And the device shares what it adopted:
//! the writer's buffer is the one views point into, whatever becomes of the
//! writer's handle.
//! (e) Gathered ≡ concatenated: the same, for commands cut into parts at any
//! sector boundary — buffers of their own, views of other extents, header
//! sectors at their exact length, padding that holds nothing — and with a
//! view taken before each reset still reading the old bytes. (That a
//! rollback cut through the middle of a gathered command leaves the prefix
//! the concatenation leaves is checked on the store itself, in its unit
//! tests: the device only ever rolls back whole commands.)
//!
//! Seeds come from `OX_FAULT_SEED_BASE` like the fault property tests; a
//! failure names the seed and geometry to replay.

use ocssd::{
    matrix_seeds, ChunkAddr, DeviceConfig, DeviceError, FaultPlan, Geometry, OcssdDevice, Payload,
    PayloadBuf, Ppa, ReadFault, ReliabilityConfig, SECTOR_BYTES,
};
use ox_sim::{Prng, SimDuration, SimTime};
use std::collections::HashMap;

/// Chunks the workloads touch: two parallel units' worth of a few chunks.
const CHUNKS: u64 = 6;

fn geometries() -> [Geometry; 2] {
    [Geometry::small_slc(), Geometry::paper_tlc_scaled(22, 8)]
}

/// Spread over two PUs so copies cross parallel units.
fn chunk(geo: &Geometry, i: u64) -> ChunkAddr {
    let c = ChunkAddr::new(0, (i % 2) as u32, (i / 2) as u32);
    assert!(c.is_valid(geo));
    c
}

/// Length of `data` without its trailing zeros, one byte at a time: the rule
/// both references below are stated in.
fn used_bytewise(data: &[u8]) -> usize {
    data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1)
}

/// The per-sector store the device used before extents, verbatim: a map
/// from dense sector index to the sector's bytes minus its trailing zeros.
#[derive(Default)]
struct SectorMap {
    sectors: HashMap<u64, Box<[u8]>>,
}

impl SectorMap {
    fn write_sector(&mut self, index: u64, data: &[u8]) {
        self.sectors
            .insert(index, data[..used_bytewise(data)].into());
    }

    fn read_sector(&self, index: u64, out: &mut [u8]) -> bool {
        match self.sectors.get(&index) {
            Some(data) => {
                out[..data.len()].copy_from_slice(data);
                out[data.len()..].fill(0);
                true
            }
            None => false,
        }
    }

    fn copy_sector(&mut self, src: u64, dst: u64) -> bool {
        match self.sectors.get(&src) {
            Some(data) => {
                let cloned = data.clone();
                self.sectors.insert(dst, cloned);
                true
            }
            None => false,
        }
    }

    fn discard_range(&mut self, start: u64, end: u64) {
        for idx in start..end {
            self.sectors.remove(&idx);
        }
    }

    /// Reads `n` sectors from `first`; `None` if any is unwritten.
    fn read(&self, first: u64, n: u32) -> Option<Vec<u8>> {
        let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
        for (i, sector) in out.chunks_exact_mut(SECTOR_BYTES).enumerate() {
            if !self.read_sector(first + i as u64, sector) {
                return None;
            }
        }
        Some(out)
    }
}

/// Payloads with everything the store treats specially: full sectors, zero
/// sectors, short and long zero tails, a header-sized sector before data.
fn payload(rng: &mut Prng, sectors: u32) -> Vec<u8> {
    let mut data = vec![0u8; sectors as usize * SECTOR_BYTES];
    for sector in data.chunks_exact_mut(SECTOR_BYTES) {
        let used = match rng.gen_range(6) {
            0 => 0,
            1 => 1 + rng.gen_range(64) as usize,
            2 => SECTOR_BYTES - 1 - rng.gen_range(600) as usize,
            _ => SECTOR_BYTES,
        };
        rng.fill_bytes(&mut sector[..used]);
        if let Some(last) = sector[..used].last_mut() {
            *last |= 1;
        }
    }
    data
}

#[test]
fn extent_store_matches_the_per_sector_map() {
    for geo in geometries() {
        // What the seeds of this window exercised between them.
        let (mut copies, mut rollbacks, mut refused) = (0, 0, 0);
        for seed in matrix_seeds(12) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            let mut model = SectorMap::default();
            let mut rng = Prng::seed_from_u64(seed ^ 0x5107E);
            let spc = geo.sectors_per_chunk;
            let base = |c: ChunkAddr| c.linear(&geo) * spc as u64;
            let mut t = SimTime::ZERO;

            for step in 0..400u32 {
                let c = chunk(&geo, rng.gen_range(CHUNKS));
                let wp = dev.chunk_info(c).write_ptr;
                match rng.gen_range(10) {
                    // Write one to three units at the write pointer.
                    0..=3 => {
                        let room = (spc - wp) / geo.ws_min;
                        if room == 0 {
                            continue;
                        }
                        let units = 1 + rng.gen_range(room.min(3) as u64) as u32;
                        let data = payload(&mut rng, units * geo.ws_min);
                        t = dev.write(t, c.ppa(wp), &data).expect(&ctx).done;
                        for (i, s) in data.chunks_exact(SECTOR_BYTES).enumerate() {
                            model.write_sector(base(c) + wp as u64 + i as u64, s);
                        }
                    }
                    // Read a random range, often past the write pointer.
                    4..=5 => {
                        let start = rng.gen_range(spc as u64) as u32;
                        let n = 1 + rng.gen_range((spc - start).min(40) as u64) as u32;
                        let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
                        let got = dev.read(t, c.ppa(start), n, &mut out);
                        let shared = dev.read_shared(t, c.ppa(start), n);
                        match model.read(base(c) + start as u64, n) {
                            Some(want) => {
                                t = got.expect(&ctx).done;
                                assert!(out == want, "{ctx} step {step}: read");
                                let (view, _) = shared.expect(&ctx);
                                assert!(view.to_vec() == want, "{ctx} step {step}: view");
                            }
                            None => {
                                refused += 1;
                                assert!(
                                    matches!(got, Err(DeviceError::ReadUnwritten(_))),
                                    "{ctx} step {step}: {got:?}"
                                );
                                assert!(
                                    matches!(shared, Err(DeviceError::ReadUnwritten(_))),
                                    "{ctx} step {step}: view"
                                );
                            }
                        }
                    }
                    // Scatter read.
                    6 => {
                        let ppas: Vec<Ppa> = (0..1 + rng.gen_range(8))
                            .map(|_| {
                                chunk(&geo, rng.gen_range(CHUNKS))
                                    .ppa(rng.gen_range(spc as u64) as u32)
                            })
                            .collect();
                        let mut out = vec![0xEE; ppas.len() * SECTOR_BYTES];
                        let got = dev.read_vector(t, &ppas, &mut out);
                        let want: Option<Vec<u8>> = ppas
                            .iter()
                            .map(|p| model.read(p.linear(&geo), 1))
                            .collect::<Option<Vec<_>>>()
                            .map(|v| v.concat());
                        match want {
                            Some(want) => {
                                t = got.expect(&ctx).done;
                                assert!(out == want, "{ctx} step {step}: read_vector");
                            }
                            None => assert!(
                                matches!(got, Err(DeviceError::ReadUnwritten(_))),
                                "{ctx} step {step}: {got:?}"
                            ),
                        }
                    }
                    // Device-internal copy of scattered written sectors.
                    7 => {
                        let written: Vec<Ppa> = (0..CHUNKS)
                            .map(|i| chunk(&geo, i))
                            .filter(|s| *s != c)
                            .flat_map(|s| (0..dev.chunk_info(s).write_ptr).map(move |x| s.ppa(x)))
                            .collect();
                        if written.is_empty() || spc - wp < geo.ws_min {
                            continue;
                        }
                        let srcs: Vec<Ppa> = (0..geo.ws_min)
                            .map(|_| written[rng.gen_range(written.len() as u64) as usize])
                            .collect();
                        t = dev.copy(t, &srcs, c).expect(&ctx).done;
                        copies += 1;
                        for (i, src) in srcs.iter().enumerate() {
                            let ok =
                                model.copy_sector(src.linear(&geo), base(c) + wp as u64 + i as u64);
                            assert!(ok, "{ctx} step {step}: model lost a copy source");
                        }
                    }
                    // Reset.
                    8 => {
                        if wp == 0 {
                            assert!(
                                dev.reset_chunk(t, c).is_err(),
                                "{ctx}: reset of a free chunk"
                            );
                            continue;
                        }
                        t = dev.reset_chunk(t, c).expect(&ctx).done;
                        model.discard_range(base(c), base(c) + spc as u64);
                    }
                    // Power cut, sometimes before the cache has drained:
                    // every chunk rolls back to its durable prefix.
                    _ => {
                        if rng.gen_bool(0.5) {
                            t += SimDuration::from_millis(rng.gen_range(20));
                        }
                        dev.crash(t);
                        let before = model.sectors.len();
                        for i in 0..CHUNKS {
                            let c = chunk(&geo, i);
                            let wp = dev.chunk_info(c).write_ptr as u64;
                            model.discard_range(base(c) + wp, base(c) + spc as u64);
                        }
                        rollbacks += usize::from(model.sectors.len() < before);
                    }
                }
                assert_eq!(
                    dev.stored_sectors(),
                    model.sectors.len(),
                    "{ctx} step {step}: stored_sectors"
                );
            }
        }
        assert!(
            copies > 0 && rollbacks > 0 && refused > 0,
            "{:?}: {copies} copies, {rollbacks} rollbacks, {refused} refused reads",
            geo.cell
        );
    }
}

/// What a read returned, comparable across the two read paths.
type Outcome = Result<(Vec<u8>, SimTime, SimTime), String>;

fn by_copy(dev: &mut OcssdDevice, t: SimTime, ppa: Ppa, n: u32) -> Outcome {
    let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
    dev.read(t, ppa, n, &mut out)
        .map(|c| (out, c.submitted, c.done))
        .map_err(|e| e.to_string())
}

fn by_view(dev: &mut OcssdDevice, t: SimTime, ppa: Ppa, n: u32) -> Outcome {
    dev.read_shared(t, ppa, n)
        .map(|(view, c)| {
            assert_eq!(view.len(), n as usize * SECTOR_BYTES);
            let mut out = vec![0xEE; view.len()];
            view.copy_to(&mut out);
            assert_eq!(out, view.to_vec());
            assert!(out.starts_with(view.bytes()));
            (out, c.submitted, c.done)
        })
        .map_err(|e| e.to_string())
}

#[test]
fn views_and_copies_are_the_same_read() {
    for geo in geometries() {
        for seed in matrix_seeds(8) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut config = DeviceConfig::with_geometry(geo);
            // Injected ECC failures on sectors the workload reads, and a
            // reliability model stressed enough to fail reads by itself.
            config.fault = FaultPlan {
                read_fails: (0..4)
                    .map(|i| ReadFault {
                        ppa: chunk(&geo, i).ppa(i as u32 * 3),
                        attempts: 1 + i as u32 % 3,
                    })
                    .collect(),
                ..FaultPlan::default()
            };
            config.reliability = ReliabilityConfig {
                enabled: true,
                seed,
                base_error_ppm: 150_000,
                ..ReliabilityConfig::default()
            };
            let mut copy_dev = OcssdDevice::new(config.clone());
            let mut view_dev = OcssdDevice::new(config);
            let mut rng = Prng::seed_from_u64(seed ^ 0xB1E55);
            let spc = geo.sectors_per_chunk;
            let mut t = SimTime::ZERO;
            let mut failures = 0;

            for step in 0..300u32 {
                let c = chunk(&geo, rng.gen_range(CHUNKS));
                let wp = copy_dev.chunk_info(c).write_ptr;
                if rng.gen_bool(0.3) && spc - wp >= geo.ws_min {
                    let units = 1 + rng.gen_range(((spc - wp) / geo.ws_min).min(2) as u64);
                    let data = payload(&mut rng, units as u32 * geo.ws_min);
                    let a = copy_dev.write(t, c.ppa(wp), &data).expect(&ctx);
                    let b = view_dev.write(t, c.ppa(wp), &data).expect(&ctx);
                    assert_eq!(a, b, "{ctx} step {step}: write");
                    // Half the time read the unit back at the ack, while it
                    // is still cache-resident.
                    t = a.done;
                    if rng.gen_bool(0.5) {
                        let n = data.len() as u32 / SECTOR_BYTES as u32;
                        let a = by_copy(&mut copy_dev, t, c.ppa(wp), n);
                        let b = by_view(&mut view_dev, t, c.ppa(wp), n);
                        assert!(a == b, "{ctx} step {step}: cached read");
                    } else {
                        t += SimDuration::from_millis(50);
                    }
                    continue;
                }
                // Sub-extent, whole-extent and cross-extent ranges, mostly
                // of written sectors, sometimes running past them.
                let start = if wp > 0 && rng.gen_bool(0.8) {
                    rng.gen_range(wp as u64) as u32
                } else {
                    rng.gen_range(spc as u64) as u32
                };
                let n = match rng.gen_range(3) {
                    0 => 1,
                    1 => geo.ws_min,
                    _ => 1 + rng.gen_range(3 * geo.ws_min as u64) as u32,
                }
                .min(spc - start);
                let a = by_copy(&mut copy_dev, t, c.ppa(start), n);
                let b = by_view(&mut view_dev, t, c.ppa(start), n);
                assert!(a == b, "{ctx} step {step}: read of {n} at {start}");
                match a {
                    Ok((_, _, done)) => t = done,
                    Err(e) => failures += u32::from(e.contains("uncorrectable")),
                }
            }
            assert!(failures > 0, "{ctx}: no read failure was exercised");
            assert!(
                copy_dev.stats().cache_reads.ops() > 0 && copy_dev.stats().media_reads.ops() > 0,
                "{ctx}: both cache and media reads must be exercised"
            );
            assert_eq!(
                format!("{:?}", copy_dev.stats()),
                format!("{:?}", view_dev.stats()),
                "{ctx}: device statistics"
            );
            assert_eq!(
                copy_dev.obs().metrics.to_json(),
                view_dev.obs().metrics.to_json(),
                "{ctx}: metrics"
            );
            assert_eq!(
                format!("{:?}", copy_dev.fault_ledger()),
                format!("{:?}", view_dev.fault_ledger())
            );
            assert_eq!(
                format!("{:?}", copy_dev.health_ledger()),
                format!("{:?}", view_dev.health_ledger())
            );
        }
    }
}

#[test]
fn a_view_survives_reset_and_rewrite_of_its_chunk() {
    for geo in geometries() {
        let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
        let c = chunk(&geo, 0);
        let old = vec![0xA1; geo.ws_min_bytes()];
        let new = vec![0xB2; geo.ws_min_bytes()];
        let w = dev.write(SimTime::ZERO, c.ppa(0), &old).unwrap();
        let (view, r) = dev.read_shared(w.done, c.ppa(0), geo.ws_min).unwrap();
        let (alias, _) = dev.read_shared(r.done, c.ppa(1), 1).unwrap();
        let stored = dev.stored_sectors();

        let erased = dev.reset_chunk(r.done, c).unwrap();
        assert_eq!(dev.stored_sectors(), stored - geo.ws_min as usize);
        let w2 = dev.write(erased.done, c.ppa(0), &new).unwrap();

        // The old views still read the old bytes; the chunk reads the new.
        assert_eq!(view.to_vec(), old);
        assert_eq!(alias.to_vec(), old[..SECTOR_BYTES]);
        let (fresh, _) = dev.read_shared(w2.done, c.ppa(0), geo.ws_min).unwrap();
        assert_eq!(fresh.to_vec(), new);

        assert_eq!(dev.stored_sectors(), stored);
    }
}

/// What the store keeps in memory of one command, by the bytewise rule: a
/// sector up to its last non-zero byte, or whole when data follows it
/// directly and its zero tail is too short to be worth a split
/// (`SPLIT_SLACK` in `media.rs`).
fn resident_bytewise(data: &[u8]) -> usize {
    let used: Vec<usize> = data.chunks_exact(SECTOR_BYTES).map(used_bytewise).collect();
    (0..used.len())
        .map(|i| {
            let data_follows = used.get(i + 1).is_some_and(|&next| next > 0);
            let short_tail = SECTOR_BYTES - used[i] < SECTOR_BYTES / 8;
            if data_follows && short_tail {
                SECTOR_BYTES
            } else {
                used[i]
            }
        })
        .sum()
}

#[test]
fn resident_bytes_are_what_the_bytewise_rule_keeps() {
    for geo in geometries() {
        for seed in matrix_seeds(8) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            let mut rng = Prng::seed_from_u64(seed ^ 0x7A11);
            let mut want = [0usize; CHUNKS as usize];
            let mut t = SimTime::ZERO;
            for step in 0..200u32 {
                let i = rng.gen_range(CHUNKS);
                let c = chunk(&geo, i);
                let wp = dev.chunk_info(c).write_ptr;
                if geo.sectors_per_chunk - wp < geo.ws_min {
                    t = dev.reset_chunk(t, c).expect(&ctx).done;
                    want[i as usize] = 0;
                    continue;
                }
                let mut data = payload(&mut rng, geo.ws_min);
                let cut = rng.gen_range(data.len() as u64) as usize;
                match rng.gen_range(4) {
                    // A journal frame: a few bytes, then padding to the unit.
                    0 => data[1 + cut % 200..].fill(0),
                    // Padding cut at any byte, word-aligned or not.
                    1 => data[cut..].fill(0),
                    _ => {}
                }
                t = dev.write(t, c.ppa(wp), &data).expect(&ctx).done;
                want[i as usize] += resident_bytewise(&data);
                // Every third command is followed by a device copy of it,
                // sectors reversed: what is gathered goes through the same
                // trim.
                let room = geo.sectors_per_chunk - wp - geo.ws_min;
                if step % 3 == 0 && room >= geo.ws_min {
                    let srcs: Vec<Ppa> = (0..geo.ws_min).rev().map(|s| c.ppa(wp + s)).collect();
                    t = dev.copy(t, &srcs, c).expect(&ctx).done;
                    let gathered = data
                        .rchunks_exact(SECTOR_BYTES)
                        .collect::<Vec<_>>()
                        .concat();
                    want[i as usize] += resident_bytewise(&gathered);
                }
                assert_eq!(dev.resident_bytes(c), want[i as usize], "{ctx} step {step}");
            }
        }
    }
}

/// `data` in a buffer of its own, the way a block builder makes one.
fn built(data: &[u8]) -> Payload {
    let mut buf = PayloadBuf::zeroed(data.len());
    buf.bytes_mut().copy_from_slice(data);
    buf.freeze()
}

/// One write unit or two of a given make: 0 full, 1 a 20-byte header sector
/// in front of full ones, 2 full but for a zero tail shorter than a sector,
/// 3 all zero, anything else [`payload`]'s mix. Returns whether the store
/// may adopt it: one piece, less than a sector of zero tail.
fn shaped_payload(rng: &mut Prng, geo: &Geometry, shape: u64) -> (Vec<u8>, bool) {
    let sectors = geo.ws_min * (1 + rng.gen_range(2) as u32);
    let mut data = vec![0u8; sectors as usize * SECTOR_BYTES];
    if shape < 3 {
        rng.fill_bytes(&mut data);
        data.iter_mut().for_each(|b| *b |= 1);
    }
    match shape {
        0 => (data, true),
        1 => {
            data[20..SECTOR_BYTES].fill(0);
            (data, false)
        }
        2 => {
            let tail = 1 + rng.gen_range(SECTOR_BYTES as u64 - 1) as usize;
            let end = data.len();
            data[end - tail..].fill(0);
            (data, true)
        }
        3 => (data, false),
        _ => {
            let data = payload(rng, sectors);
            let one_piece = resident_bytewise(&data) == used_bytewise(&data);
            let adoptable = one_piece && data.len() - used_bytewise(&data) < SECTOR_BYTES;
            (data, adoptable)
        }
    }
}

#[test]
fn adopted_and_copied_payloads_are_the_same_write() {
    for geo in geometries() {
        let (mut adopted_cmds, mut copied_cmds, mut rollbacks) = (0, 0, 0);
        for seed in matrix_seeds(8) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let config = DeviceConfig::with_geometry(geo);
            let mut copy_dev = OcssdDevice::new(config.clone());
            let mut share_dev = OcssdDevice::new(config);
            let mut rng = Prng::seed_from_u64(seed ^ 0xAD0B7);
            let spc = geo.sectors_per_chunk;
            let mut t = SimTime::ZERO;
            // Per chunk, how far `share_dev` may be above the bytewise rule.
            let mut slack = [0usize; CHUNKS as usize];

            for step in 0..300u32 {
                let i = rng.gen_range(CHUNKS);
                let c = chunk(&geo, i);
                let wp = copy_dev.chunk_info(c).write_ptr;
                match rng.gen_range(10) {
                    0..=4 if spc - wp >= 2 * geo.ws_min => {
                        let shape = rng.gen_range(6);
                        let (data, adoptable) = shaped_payload(&mut rng, &geo, shape);
                        let handle = if rng.gen_bool(0.5) {
                            built(&data)
                        } else {
                            Payload::from(&data[..])
                        };
                        let a = copy_dev.write(t, c.ppa(wp), &data).expect(&ctx);
                        let b = share_dev
                            .write_parts(t, c.ppa(wp), std::slice::from_ref(&handle))
                            .expect(&ctx);
                        assert_eq!(a, b, "{ctx} step {step}: write");
                        t = a.done;
                        // The writer is done with its handle, sooner or later.
                        if rng.gen_bool(0.5) {
                            drop(handle);
                        }
                        if adoptable {
                            adopted_cmds += 1;
                            slack[i as usize] += SECTOR_BYTES - 1;
                        } else {
                            copied_cmds += 1;
                        }
                    }
                    0..=7 => {
                        let start = rng.gen_range(spc as u64) as u32;
                        let n = (1 + rng.gen_range(3 * geo.ws_min as u64) as u32).min(spc - start);
                        for (copy, share) in [
                            (
                                by_copy(&mut copy_dev, t, c.ppa(start), n),
                                by_copy(&mut share_dev, t, c.ppa(start), n),
                            ),
                            (
                                by_view(&mut copy_dev, t, c.ppa(start), n),
                                by_view(&mut share_dev, t, c.ppa(start), n),
                            ),
                        ] {
                            assert!(copy == share, "{ctx} step {step}: read of {n} at {start}");
                            if let Ok((_, _, done)) = copy {
                                t = done;
                            }
                        }
                    }
                    8 if wp > 0 => {
                        let a = copy_dev.reset_chunk(t, c).expect(&ctx);
                        let b = share_dev.reset_chunk(t, c).expect(&ctx);
                        assert_eq!(a, b, "{ctx} step {step}: reset");
                        t = a.done;
                        slack[i as usize] = 0;
                    }
                    _ => {
                        if rng.gen_bool(0.5) {
                            t += SimDuration::from_millis(rng.gen_range(20));
                        }
                        let before = copy_dev.stored_sectors();
                        copy_dev.crash(t);
                        share_dev.crash(t);
                        rollbacks += usize::from(copy_dev.stored_sectors() < before);
                    }
                }
                assert_eq!(
                    share_dev.stored_sectors(),
                    copy_dev.stored_sectors(),
                    "{ctx} step {step}: stored_sectors"
                );
                for i in 0..CHUNKS {
                    let c = chunk(&geo, i);
                    assert_eq!(
                        share_dev.chunk_info(c),
                        copy_dev.chunk_info(c),
                        "{ctx} step {step}"
                    );
                    let (copied, shared) =
                        (copy_dev.resident_bytes(c), share_dev.resident_bytes(c));
                    assert!(
                        (copied..=copied + slack[i as usize]).contains(&shared),
                        "{ctx} step {step}: {shared} resident against {copied}, slack {}",
                        slack[i as usize]
                    );
                }
            }
            assert_eq!(
                format!("{:?}", copy_dev.stats()),
                format!("{:?}", share_dev.stats()),
                "{ctx}: device statistics"
            );
            assert_eq!(
                copy_dev.obs().metrics.to_json(),
                share_dev.obs().metrics.to_json(),
                "{ctx}: metrics"
            );
        }
        assert!(
            adopted_cmds > 0 && copied_cmds > 0 && rollbacks > 0,
            "{:?}: {adopted_cmds} adoptable, {copied_cmds} not, {rollbacks} rollbacks",
            geo.cell
        );
    }
}

/// Whether `view` points into the buffer `handle` is a view of.
fn shares_buffer(view: &Payload, handle: &Payload) -> bool {
    std::ptr::eq(view.bytes().as_ptr(), handle.bytes().as_ptr())
}

#[test]
fn the_device_keeps_the_writers_buffer_and_a_reference_of_its_own() {
    for geo in geometries() {
        let unit = geo.ws_min_bytes();
        let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
        let c = chunk(&geo, 0);
        let mut rng = Prng::seed_from_u64(21);

        // A full block is adopted: what a reader is shown is the very buffer
        // the writer built, nothing more resident than its bytes.
        let (full, _) = shaped_payload(&mut rng, &geo, 0);
        let full = &full[..unit];
        let handle = built(full);
        let w = dev
            .write_parts(SimTime::ZERO, c.ppa(0), std::slice::from_ref(&handle))
            .unwrap();
        let (view, r) = dev.read_shared(w.done, c.ppa(0), geo.ws_min).unwrap();
        assert!(shares_buffer(&view, &handle));
        assert_eq!(dev.resident_bytes(c), unit);
        // The writer lets go; the device and the view do not.
        drop(handle);
        let mut out = vec![0u8; unit];
        let r = dev.read(r.done, c.ppa(0), geo.ws_min, &mut out).unwrap();
        assert!(out == full && view.to_vec() == full);

        // A block with a header-style hole is copied, in two pieces, exactly
        // as `write` copies it.
        let mut holed = full.to_vec();
        holed[20..SECTOR_BYTES].fill(0);
        let handle = built(&holed);
        let w = dev
            .write_parts(r.done, c.ppa(geo.ws_min), std::slice::from_ref(&handle))
            .unwrap();
        let (holed_view, r) = dev.read_shared(w.done, c.ppa(geo.ws_min), 1).unwrap();
        assert!(!shares_buffer(&holed_view, &handle));
        assert_eq!(holed_view.bytes(), &holed[..20]);
        assert_eq!(dev.resident_bytes(c), unit + resident_bytewise(&holed));
        assert_eq!(resident_bytewise(&holed), unit - SECTOR_BYTES + 20);

        // A view outlives the reset of its chunk; so does one taken of an
        // adopted block that a power cut then rolls back.
        let erased = dev.reset_chunk(r.done, c).unwrap();
        assert_eq!(dev.stored_sectors(), 0);
        assert!(view.to_vec() == full);
        let handle = built(full);
        let w = dev
            .write_parts(erased.done, c.ppa(0), std::slice::from_ref(&handle))
            .unwrap();
        let (cached, _) = dev.read_shared(w.done, c.ppa(0), geo.ws_min).unwrap();
        dev.crash(w.done);
        assert_eq!(
            dev.chunk_info(c).write_ptr,
            0,
            "acknowledged, not yet durable"
        );
        assert_eq!(dev.stored_sectors(), 0);
        assert!(matches!(
            dev.read_shared(w.done, c.ppa(0), 1),
            Err(DeviceError::ReadUnwritten(_))
        ));
        assert!(shares_buffer(&cached, &handle) && cached.to_vec() == full);
    }
}

/// Where views of other extents come from: a device of its own, written
/// through `write` (so its extents are the store's trimmed copies).
struct Sources {
    dev: OcssdDevice,
    geo: Geometry,
    chunk: u32,
    t: SimTime,
}

impl Sources {
    fn new(geo: Geometry) -> Sources {
        Sources {
            dev: OcssdDevice::new(DeviceConfig::with_geometry(geo)),
            geo,
            chunk: 0,
            t: SimTime::ZERO,
        }
    }

    /// `data` (at most a few units) written somewhere in a command of its
    /// own, at any offset in it, and read back as a view.
    fn view_of(&mut self, rng: &mut Prng, data: &[u8]) -> Payload {
        let geo = self.geo;
        let sectors = (data.len() / SECTOR_BYTES) as u32;
        let units = (sectors + 1).div_ceil(geo.ws_min);
        let at = rng.gen_range((units * geo.ws_min - sectors + 1) as u64) as u32;
        let mut c = ChunkAddr::new(0, 0, self.chunk);
        let mut wp = self.dev.chunk_info(c).write_ptr;
        if geo.sectors_per_chunk - wp < units * geo.ws_min {
            self.chunk = (self.chunk + 1) % 4;
            c = ChunkAddr::new(0, 0, self.chunk);
            if self.dev.chunk_info(c).write_ptr > 0 {
                self.t = self.dev.reset_chunk(self.t, c).unwrap().done;
            }
            wp = 0;
        }
        let mut command = payload(rng, units * geo.ws_min);
        let from = at as usize * SECTOR_BYTES;
        command[from..from + data.len()].copy_from_slice(data);
        self.t = self.dev.write(self.t, c.ppa(wp), &command).unwrap().done;
        let (view, done) = self
            .dev
            .read_shared(self.t, c.ppa(wp + at), sectors)
            .unwrap();
        self.t = done.done;
        view
    }
}

/// A command of `sectors` sectors cut into parts at random sector
/// boundaries, each of one make: 0 a buffer of its own, 1 a view of another
/// extent, 2 a header sector at its exact length, 3 padding that holds
/// nothing. Returns the parts, their concatenation, how many of them the
/// store may keep as they are, and which makes were used.
fn gathered(
    rng: &mut Prng,
    sources: &mut Sources,
    sectors: u32,
) -> (Vec<Payload>, Vec<u8>, usize, [bool; 4]) {
    let (mut parts, mut data, mut keepable, mut made) = (Vec::new(), Vec::new(), 0, [false; 4]);
    let mut left = sectors;
    while left > 0 {
        let n = 1 + rng.gen_range(left.min(2 * sources.geo.ws_min) as u64) as u32;
        let make = if n == 1 {
            rng.gen_range(4)
        } else {
            [0, 1, 3][rng.gen_range(3) as usize]
        };
        let bytes = match make {
            2 => {
                let mut sector = vec![0u8; SECTOR_BYTES];
                let used = 1 + rng.gen_range(200) as usize;
                rng.fill_bytes(&mut sector[..used]);
                sector[used - 1] |= 1;
                parts.push(Payload::from(&sector[..used]).zero_extended(SECTOR_BYTES));
                sector
            }
            3 => {
                parts.push(Payload::zeros(n as usize * SECTOR_BYTES));
                vec![0u8; n as usize * SECTOR_BYTES]
            }
            _ => {
                let bytes = payload(rng, n);
                parts.push(if make == 0 {
                    built(&bytes)
                } else {
                    sources.view_of(rng, &bytes)
                });
                keepable += 1;
                bytes
            }
        };
        made[make as usize] = true;
        data.extend_from_slice(&bytes);
        left -= n;
    }
    (parts, data, keepable, made)
}

#[test]
fn gathered_writes_are_the_write_of_their_concatenation() {
    for geo in geometries() {
        let (mut made, mut rollbacks, mut resets) = ([false; 4], 0, 0);
        for seed in matrix_seeds(8) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let config = DeviceConfig::with_geometry(geo);
            let mut copy_dev = OcssdDevice::new(config.clone());
            let mut parts_dev = OcssdDevice::new(config);
            let mut sources = Sources::new(geo);
            let mut rng = Prng::seed_from_u64(seed ^ 0x6A7E);
            let spc = geo.sectors_per_chunk;
            let mut t = SimTime::ZERO;
            // Per chunk, how far `parts_dev` may be above `copy_dev`: less
            // than a sector per part the store may keep as it is.
            let mut slack = [0usize; CHUNKS as usize];

            for step in 0..250u32 {
                let i = rng.gen_range(CHUNKS);
                let c = chunk(&geo, i);
                let wp = copy_dev.chunk_info(c).write_ptr;
                match rng.gen_range(10) {
                    0..=4 if spc - wp >= 2 * geo.ws_min => {
                        let units = 1 + rng.gen_range(2) as u32;
                        let (parts, data, keepable, kinds) =
                            gathered(&mut rng, &mut sources, units * geo.ws_min);
                        let a = copy_dev.write(t, c.ppa(wp), &data).expect(&ctx);
                        let b = parts_dev.write_parts(t, c.ppa(wp), &parts).expect(&ctx);
                        assert_eq!(a, b, "{ctx} step {step}: write");
                        t = a.done;
                        drop(parts);
                        slack[i as usize] += keepable * (SECTOR_BYTES - 1);
                        made.iter_mut().zip(kinds).for_each(|(m, k)| *m |= k);
                        let n = units * geo.ws_min;
                        let a = by_view(&mut copy_dev, t, c.ppa(wp), n).expect(&ctx);
                        let b = by_view(&mut parts_dev, t, c.ppa(wp), n).expect(&ctx);
                        assert!(a == b && a.0 == data, "{ctx} step {step}: read back");
                        t = a.2;
                    }
                    0..=6 => {
                        let start = rng.gen_range(spc as u64) as u32;
                        let n = (1 + rng.gen_range(3 * geo.ws_min as u64) as u32).min(spc - start);
                        for (copy, parts) in [
                            (
                                by_copy(&mut copy_dev, t, c.ppa(start), n),
                                by_copy(&mut parts_dev, t, c.ppa(start), n),
                            ),
                            (
                                by_view(&mut copy_dev, t, c.ppa(start), n),
                                by_view(&mut parts_dev, t, c.ppa(start), n),
                            ),
                        ] {
                            assert!(copy == parts, "{ctx} step {step}: read of {n} at {start}");
                            if let Ok((_, _, done)) = copy {
                                t = done;
                            }
                        }
                    }
                    7 | 8 if wp > 0 => {
                        // A view taken before the reset reads what it read.
                        let start = rng.gen_range(wp as u64) as u32;
                        let n = (1 + rng.gen_range(2 * geo.ws_min as u64) as u32).min(wp - start);
                        let before = by_copy(&mut copy_dev, t, c.ppa(start), n).expect(&ctx);
                        let (view, _) = parts_dev.read_shared(t, c.ppa(start), n).expect(&ctx);
                        assert!(view.to_vec() == before.0, "{ctx} step {step}: view");
                        let a = copy_dev.reset_chunk(t, c).expect(&ctx);
                        assert_eq!(a, parts_dev.reset_chunk(t, c).expect(&ctx), "{ctx}");
                        t = a.done;
                        slack[i as usize] = 0;
                        resets += 1;
                        assert!(view.to_vec() == before.0, "{ctx} step {step}: after reset");
                    }
                    _ => {
                        if rng.gen_bool(0.5) {
                            t += SimDuration::from_millis(rng.gen_range(20));
                        }
                        let before = copy_dev.stored_sectors();
                        copy_dev.crash(t);
                        parts_dev.crash(t);
                        rollbacks += usize::from(copy_dev.stored_sectors() < before);
                    }
                }
                assert_eq!(
                    parts_dev.stored_sectors(),
                    copy_dev.stored_sectors(),
                    "{ctx} step {step}: stored_sectors"
                );
                for i in 0..CHUNKS {
                    let c = chunk(&geo, i);
                    assert_eq!(parts_dev.chunk_info(c), copy_dev.chunk_info(c), "{ctx}");
                    let (copied, gathered) =
                        (copy_dev.resident_bytes(c), parts_dev.resident_bytes(c));
                    assert!(
                        gathered <= copied + slack[i as usize],
                        "{ctx} step {step}: {gathered} resident against {copied}, slack {}",
                        slack[i as usize]
                    );
                }
            }
            assert_eq!(
                format!("{:?}", copy_dev.stats()),
                format!("{:?}", parts_dev.stats()),
                "{ctx}: device statistics"
            );
            assert_eq!(
                copy_dev.obs().metrics.to_json(),
                parts_dev.obs().metrics.to_json(),
                "{ctx}: metrics"
            );
        }
        assert!(
            made == [true; 4] && rollbacks > 0 && resets > 0,
            "{:?}: parts made {made:?}, {rollbacks} rollbacks, {resets} resets",
            geo.cell
        );
    }
}
