//! What relocation puts on media, and what it costs in host memory.
//!
//! (a) A unit whose live sectors are one run goes back down as a view of the
//! victim's own buffer: after a collector step, before the victim is reset,
//! every relocated sector of such a unit is the very buffer the victim holds.
//! Units with dead sectors in them are gathered into a buffer of their own,
//! and read back right all the same.
//! (b) The on-media format does not move: a CRC over every written sector of
//! every chunk after a fixed schedule of writes, overwrites, trims, collector
//! steps and power cuts, taken when every unit still went down as one buffer
//! of bytes.

mod common;

use common::{tiny_cfg, tiny_geometry};
use ocssd::{ChunkAddr, DeviceConfig, OcssdDevice, Payload, SharedDevice, SECTOR_BYTES};
use ox_core::codec::crc32c;
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use oxztl::ZtlFtl;
use std::collections::HashMap;
use std::sync::Arc;

fn setup() -> (ZtlFtl, SharedDevice, SimTime) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        tiny_geometry(),
    )));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, t) = ZtlFtl::format(media, tiny_cfg(), SimTime::ZERO).unwrap();
    (ftl, dev, t)
}

/// `sectors` sectors of random bytes, none of them zero (so no sector has a
/// zero tail for the store to trim).
fn record(rng: &mut Prng, sectors: u64) -> Vec<u8> {
    let mut data = vec![0u8; sectors as usize * SECTOR_BYTES];
    rng.fill_bytes(&mut data);
    data.iter_mut().for_each(|b| *b |= 1);
    data
}

/// Every written sector of the device, as a view, by chunk and sector.
fn views(dev: &SharedDevice, t: SimTime) -> HashMap<(ChunkAddr, u32), Payload> {
    let mut all = HashMap::new();
    for (chunk, info) in dev.with(|d| d.report_all_chunks()) {
        for s in 0..info.write_ptr {
            let (view, _) = dev.read_shared(t, chunk.ppa(s), 1).unwrap();
            all.insert((chunk, s), view);
        }
    }
    all
}

/// Whether a sector view is a data sector (headers hold a few bytes).
fn is_data(view: &Payload) -> bool {
    view.bytes().len() == SECTOR_BYTES
}

/// Fills the device with three-sector records — one append unit each — and
/// rewrites some of them, whole or (`partly`) one sector at a time, until
/// the collector has work to do. Returns the device's contents by record.
fn churn(ftl: &mut ZtlFtl, t: &mut SimTime, partly: bool) -> HashMap<u64, Vec<u8>> {
    let mut rng = Prng::seed_from_u64(25);
    let records = ftl.capacity_sectors() / 3 * 6 / 10;
    let mut model = HashMap::new();
    for id in 0..records {
        let data = record(&mut rng, 3);
        *t = ftl.write_sectors(*t, id * 3, &data).unwrap();
        model.insert(id, data);
    }
    for _ in 0..records / 2 {
        let id = rng.gen_range(records);
        let data = model.get_mut(&id).unwrap();
        if partly {
            let s = rng.gen_range(3) as usize;
            let sector = record(&mut rng, 1);
            data[s * SECTOR_BYTES..(s + 1) * SECTOR_BYTES].copy_from_slice(&sector);
            *t = ftl.write_sectors(*t, id * 3 + s as u64, &sector).unwrap();
        } else {
            *data = record(&mut rng, 3);
            *t = ftl.write_sectors(*t, id * 3, data).unwrap();
        }
    }
    model
}

/// Collector steps until one relocates something; returns the sectors it
/// moved. The victim is not reset yet: that is the next step's work.
fn relocating_step(ftl: &mut ZtlFtl, t: &mut SimTime) -> u64 {
    for _ in 0..64 {
        let before = ftl.stats().gc_relocated_sectors;
        *t = ftl.maybe_gc(*t).unwrap().max(*t);
        let moved = ftl.stats().gc_relocated_sectors - before;
        if moved > 0 {
            return moved;
        }
        *t += SimDuration::from_micros(100);
    }
    panic!("the collector never relocated");
}

fn read_back(ftl: &mut ZtlFtl, t: SimTime, model: &HashMap<u64, Vec<u8>>) {
    let mut out = vec![0u8; 3 * SECTOR_BYTES];
    for (&id, want) in model {
        ftl.read_sectors(t, id * 3, 3, &mut out).unwrap();
        assert!(out == *want, "record {id}");
    }
}

/// Sectors written since `before` was taken, split into those that share a
/// buffer (and offset) with a sector `before` held, and those that do not.
fn relocated(
    before: &HashMap<(ChunkAddr, u32), Payload>,
    after: &HashMap<(ChunkAddr, u32), Payload>,
) -> (usize, usize) {
    let held: std::collections::HashSet<*const u8> =
        before.values().map(|v| v.bytes().as_ptr()).collect();
    let fresh = after
        .iter()
        .filter(|(at, view)| !before.contains_key(at) && is_data(view));
    fresh.fold((0, 0), |(shared, copied), (_, view)| {
        if held.contains(&view.bytes().as_ptr()) {
            (shared + 1, copied)
        } else {
            (shared, copied + 1)
        }
    })
}

#[test]
fn relocating_whole_units_appends_views_of_the_victims_own_buffers() {
    let (mut ftl, dev, mut t) = setup();
    let model = churn(&mut ftl, &mut t, false);
    t = ftl.sync(t).done;
    let before = views(&dev, t);
    let moved = relocating_step(&mut ftl, &mut t);
    let (shared, copied) = relocated(&before, &views(&dev, t));
    assert_eq!(
        (shared, copied),
        (moved as usize, 0),
        "every relocated sector is the victim's own buffer"
    );
    read_back(&mut ftl, t, &model);
    // The victim's reset lets go of its references; the copies keep theirs.
    for _ in 0..8 {
        t = ftl.maybe_gc(t).unwrap().max(t) + SimDuration::from_micros(100);
    }
    assert!(ftl.stats().zone_resets > 0);
    read_back(&mut ftl, t, &model);
}

#[test]
fn relocating_partly_dead_units_gathers_them_and_reads_back_right() {
    let (mut ftl, dev, mut t) = setup();
    let model = churn(&mut ftl, &mut t, true);
    t = ftl.sync(t).done;
    let before = views(&dev, t);
    let moved = relocating_step(&mut ftl, &mut t);
    let (shared, copied) = relocated(&before, &views(&dev, t));
    assert_eq!(shared + copied, moved as usize);
    assert!(copied > 0, "misaligned units are gathered: {shared} shared");
    read_back(&mut ftl, t, &model);
    for _ in 0..32 {
        t = ftl.maybe_gc(t).unwrap().max(t) + SimDuration::from_micros(100);
    }
    read_back(&mut ftl, t, &model);
}

/// CRC of every written sector of every chunk, in chunk order, after a fixed
/// schedule; and the collector's sector count, so the schedule is known to
/// have relocated.
fn on_media_digest() -> (u32, u64) {
    let (mut ftl, dev, mut t) = setup();
    let mut rng = Prng::seed_from_u64(0x0F0_12A7);
    let span = ftl.capacity_sectors() * 6 / 10;
    let mut relocated = 0;
    for step in 0..600u32 {
        match rng.gen_range(20) {
            0..=11 => {
                let sectors = 1 + rng.gen_range(7);
                let lpn = rng.gen_range(span - sectors);
                let mut data = vec![0u8; sectors as usize * SECTOR_BYTES];
                rng.fill_bytes(&mut data);
                // Now and then a zero tail, the kind the store trims.
                let cut = rng.gen_range(data.len() as u64) as usize;
                if rng.gen_bool(0.2) {
                    data[cut..].fill(0);
                }
                t = ftl.write_sectors(t, lpn, &data).unwrap();
            }
            12..=14 => {
                let sectors = 1 + rng.gen_range(6);
                t = ftl.trim(t, rng.gen_range(span - sectors), sectors).unwrap();
            }
            15..=18 => t = ftl.maybe_gc(t).unwrap().max(t),
            _ if step % 3 == 0 => {
                if rng.gen_bool(0.5) {
                    t = ftl.sync(t).done;
                }
                relocated += ftl.stats().gc_relocated_sectors;
                dev.crash(t);
                let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
                (ftl, t) = ZtlFtl::open(media, tiny_cfg(), t).unwrap();
            }
            _ => {}
        }
        t += SimDuration::from_micros(20);
    }
    relocated += ftl.stats().gc_relocated_sectors;
    let mut bytes = Vec::new();
    let mut sector = vec![0u8; SECTOR_BYTES];
    for (chunk, info) in dev.with(|d| d.report_all_chunks()) {
        for s in 0..info.write_ptr {
            dev.read(t, chunk.ppa(s), 1, &mut sector).unwrap();
            bytes.extend_from_slice(&sector);
        }
    }
    (crc32c(&bytes), relocated)
}

#[test]
fn relocation_leaves_the_bytes_on_media_that_copying_left() {
    // Taken at the commit before units went down in parts, with this very
    // function — when a header was a zero-filled sector, a unit one buffer
    // of bytes and every relocated sector a copy.
    assert_eq!(on_media_digest(), (1_461_582_543, 1_641));
}
