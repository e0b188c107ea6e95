//! `Media::read_shared` is `Media::read` without the copy, whatever the
//! media: twin stacks fed the same commands — one read through `read`, the
//! other through `read_shared` — must return the same bytes and completions
//! (or the same errors) and leave identical device statistics and metrics.
//! Checked on the raw device media, through a scheduler tenant, through the
//! ZTL's routed media, and through a foreign `Media` that implements only
//! the required methods (so it takes the provided `read_shared`); and once
//! more under `ox_core::retry`, where the retries must match too.
//!
//! `Media::write_parts` is its mirror image — `Media::write` of the
//! concatenation of payloads the media may keep instead of copying — and is
//! held to the same on the same four stacks: same completions or errors,
//! same bytes read back, same device statistics and metrics. Every media
//! that forwards it hands the device the writer's buffer: a view read back
//! is that buffer, on every stack but the foreign one, which takes the
//! concatenating default.

use iosched::{IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use ocssd::{
    ChunkAddr, ChunkInfo, Completion, DeviceConfig, FaultPlan, Geometry, MediaEvent, OcssdDevice,
    Payload, PayloadBuf, Ppa, ProgramFault, ReadFault, SharedDevice, SECTOR_BYTES,
};
use ox_core::retry::{read_shared_with_policy, read_with_policy};
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::{Prng, SimTime};
use oxztl::RoutedMedia;
use std::sync::Arc;

/// A media from outside the workspace's wrappers: forwards the required
/// methods and nothing else.
struct Foreign(Arc<dyn Media>);

impl Media for Foreign {
    fn geometry(&self) -> Geometry {
        self.0.geometry()
    }
    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> ocssd::Result<Completion> {
        self.0.write(now, ppa, data)
    }
    fn read(
        &self,
        now: SimTime,
        ppa: Ppa,
        sectors: u32,
        out: &mut [u8],
    ) -> ocssd::Result<Completion> {
        self.0.read(now, ppa, sectors, out)
    }
    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> ocssd::Result<Completion> {
        self.0.reset(now, chunk)
    }
    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> ocssd::Result<Completion> {
        self.0.copy(now, srcs, dst)
    }
    fn flush(&self, now: SimTime) -> Completion {
        self.0.flush(now)
    }
    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        self.0.flush_chunk(now, chunk)
    }
    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        self.0.chunk_info(chunk)
    }
    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        self.0.report_all()
    }
    fn drain_events(&self) -> Vec<MediaEvent> {
        self.0.drain_events()
    }
    fn obs(&self) -> Obs {
        self.0.obs()
    }
}

const KINDS: [&str; 4] = ["ocssd", "sched", "routed", "foreign"];

/// One stack of the given kind over a fresh device with read faults armed.
fn stack(kind: &str, geo: Geometry) -> (Arc<dyn Media>, SharedDevice) {
    let mut config = DeviceConfig::with_geometry(geo);
    config.fault = FaultPlan {
        read_fails: (0..6)
            .map(|i| ReadFault {
                ppa: ChunkAddr::new(0, 0, i % 3).ppa(i * 2),
                // Some within the shared retry budget, some beyond it.
                attempts: 1 + i,
            })
            .collect(),
        ..FaultPlan::default()
    };
    let dev = SharedDevice::new(OcssdDevice::new(config));
    let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let media: Arc<dyn Media> = match kind {
        "ocssd" => raw,
        "sched" => {
            let sched = SharedScheduler::new(IoScheduler::new(raw, SchedConfig::default()));
            let tenant = sched.add_tenant(TenantConfig::new("reader"));
            Arc::new(SchedMedia::new(sched, tenant))
        }
        "routed" => Arc::new(RoutedMedia::new(raw)),
        "foreign" => Arc::new(Foreign(raw)),
        other => panic!("unknown stack {other}"),
    };
    (media, dev)
}

/// What a read returned, comparable across the two paths.
type Outcome = Result<(Vec<u8>, Completion, u32), String>;

#[test]
fn read_shared_is_read_without_the_copy_on_every_media() {
    let geo = Geometry::small_slc();
    for kind in KINDS {
        for with_retry in [false, true] {
            let (by_copy, copy_dev) = stack(kind, geo);
            let (by_view, view_dev) = stack(kind, geo);
            let mut rng = Prng::seed_from_u64(0x5EED ^ kind.len() as u64);
            let mut t = SimTime::ZERO;
            let copy_metrics = copy_dev.obs().metrics;
            let view_metrics = view_dev.obs().metrics;
            let mut failed = 0;

            for step in 0..240u32 {
                let c = ChunkAddr::new(0, 0, rng.gen_range(3) as u32);
                let wp = by_copy.chunk_info(c).write_ptr;
                if rng.gen_bool(0.3) && wp < geo.sectors_per_chunk {
                    let mut data = vec![0u8; geo.ws_min_bytes()];
                    // A zero tail of random length: views of it come short.
                    let used = rng.gen_range(data.len() as u64 + 1) as usize;
                    rng.fill_bytes(&mut data[..used]);
                    let a = by_copy.write(t, c.ppa(wp), &data).unwrap();
                    let b = by_view.write(t, c.ppa(wp), &data).unwrap();
                    assert_eq!(a, b, "{kind} step {step}: write");
                    t = a.done;
                    continue;
                }
                // In one unit, across units, and past the write pointer.
                let start = rng.gen_range(wp.max(1) as u64) as u32;
                let n = 1 + rng.gen_range(3 * geo.ws_min as u64) as u32;
                let n = n.min(geo.sectors_per_chunk - start);
                let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
                let a: Outcome = if with_retry {
                    read_with_policy(
                        by_copy.as_ref(),
                        t,
                        c.ppa(start),
                        n,
                        &mut out,
                        Some(&copy_metrics),
                    )
                    .map(|o| (out, o.completion, o.retries))
                } else {
                    by_copy
                        .read(t, c.ppa(start), n, &mut out)
                        .map(|done| (out, done, 0))
                }
                .map_err(|e| e.to_string());
                let b: Outcome = if with_retry {
                    read_shared_with_policy(
                        by_view.as_ref(),
                        t,
                        c.ppa(start),
                        n,
                        Some(&view_metrics),
                    )
                    .map(|(view, o)| (view.to_vec(), o.completion, o.retries))
                } else {
                    by_view
                        .read_shared(t, c.ppa(start), n)
                        .map(|(view, done)| (view.to_vec(), done, 0))
                }
                .map_err(|e| e.to_string());
                assert!(a == b, "{kind} step {step}: {n} sectors at {start}");
                match a {
                    Ok((_, done, _)) => t = done.done,
                    Err(_) => failed += 1,
                }
            }
            assert!(
                failed > 0 && copy_dev.stats().injected_read_fails > 0,
                "{kind}: no failing read was exercised"
            );
            assert_eq!(
                format!("{:?}", copy_dev.stats()),
                format!("{:?}", view_dev.stats()),
                "{kind}: device statistics"
            );
            assert_eq!(
                copy_metrics.to_json(),
                view_metrics.to_json(),
                "{kind}: metrics"
            );
        }
    }
}

/// `data` (whole write units, or the view is just a copy) as a device hands
/// it back: a view that holds the bytes up to the zero tail only.
fn trimmed_view(data: &[u8]) -> Payload {
    let geo = Geometry::small_slc();
    let mut scratch = OcssdDevice::new(DeviceConfig::with_geometry(geo));
    let at = ChunkAddr::new(0, 0, 0).ppa(0);
    let Ok(w) = scratch.write(SimTime::ZERO, at, data) else {
        return Payload::from(data);
    };
    let sectors = (data.len() / SECTOR_BYTES) as u32;
    let (view, _) = scratch.read_shared(w.done, at, sectors).unwrap();
    view
}

#[test]
fn write_parts_is_write_of_the_concatenation_on_every_media() {
    let geo = Geometry::small_slc();
    for kind in KINDS {
        let (by_bytes, bytes_dev) = stack(kind, geo);
        let (by_handle, handle_dev) = stack(kind, geo);
        // A program failure on the way, on both: errors must match too.
        for dev in [&bytes_dev, &handle_dev] {
            dev.set_fault_plan(FaultPlan {
                program_fails: vec![ProgramFault {
                    chunk: ChunkAddr::new(0, 0, 1),
                    wp: 2 * geo.ws_min,
                }],
                ..FaultPlan::default()
            });
        }
        let mut rng = Prng::seed_from_u64(0xD0 ^ kind.len() as u64);
        let mut t = SimTime::ZERO;
        let (mut refused, mut failed) = (0, 0);

        for step in 0..200u32 {
            let c = ChunkAddr::new(0, 0, rng.gen_range(3) as u32);
            let wp = by_bytes.chunk_info(c).write_ptr;
            // Full units, zero tails of every length, a header-style hole;
            // now and then not at the write pointer, or not a whole unit.
            let mut data = vec![0u8; geo.ws_min_bytes() * (1 + rng.gen_range(2) as usize)];
            let used = rng.gen_range(data.len() as u64 + 1) as usize;
            rng.fill_bytes(&mut data[..used]);
            if rng.gen_bool(0.2) {
                data[20..SECTOR_BYTES].fill(0);
            }
            if rng.gen_bool(0.05) {
                data.truncate(data.len() - SECTOR_BYTES);
            }
            let at = if rng.gen_bool(0.05) {
                wp + geo.ws_min
            } else {
                wp
            };
            // Built in place, copied from a slice, or a view with its zero
            // tail left out (what a read of a device hands back); whole, or
            // in two parts cut at any sector.
            let handle = match rng.gen_range(3) {
                0 => {
                    let mut buf = PayloadBuf::zeroed(data.len());
                    buf.bytes_mut().copy_from_slice(&data);
                    buf.freeze()
                }
                1 => Payload::from(&data[..]),
                _ => trimmed_view(&data),
            };
            let a = by_bytes
                .write(t, c.ppa(at), &data)
                .map_err(|e| e.to_string());
            let cut = rng.gen_range((data.len() / SECTOR_BYTES) as u64 + 1) as usize * SECTOR_BYTES;
            let parts = if rng.gen_bool(0.5) {
                vec![handle.clone()]
            } else {
                vec![handle.slice(0..cut), handle.slice(cut..data.len())]
            };
            let b = by_handle
                .write_parts(t, c.ppa(at), &parts)
                .map_err(|e| e.to_string());
            assert_eq!(a, b, "{kind} step {step}: write of {} at {at}", data.len());
            drop((handle, parts));
            match a {
                Ok(done) => t = done.done,
                Err(e) if e.contains("media failure") => failed += 1,
                Err(_) => refused += 1,
            }
            // Read back what the chunk holds so far, both ways, on both.
            let wp = by_bytes.chunk_info(c).write_ptr;
            assert_eq!(wp, by_handle.chunk_info(c).write_ptr, "{kind} step {step}");
            if wp > 0 {
                let start = rng.gen_range(wp as u64) as u32;
                let n = (1 + rng.gen_range(2 * geo.ws_min as u64) as u32).min(wp - start);
                let mut out = vec![0xEE; n as usize * SECTOR_BYTES];
                let a = by_bytes
                    .read(t, c.ppa(start), n, &mut out)
                    .map(|done| (out, done))
                    .map_err(|e| e.to_string());
                let b = by_handle
                    .read_shared(t, c.ppa(start), n)
                    .map(|(view, done)| (view.to_vec(), done))
                    .map_err(|e| e.to_string());
                assert!(a == b, "{kind} step {step}: {n} sectors at {start}");
                if let Ok((_, done)) = a {
                    t = done.done;
                }
            }
            if wp == geo.sectors_per_chunk {
                let a = by_bytes.reset(t, c).unwrap();
                assert_eq!(a, by_handle.reset(t, c).unwrap(), "{kind} step {step}");
                t = a.done;
            }
        }
        assert!(
            refused > 0 && failed > 0,
            "{kind}: {refused} refused, {failed} failed"
        );
        assert_eq!(
            format!("{:?}", bytes_dev.stats()),
            format!("{:?}", handle_dev.stats()),
            "{kind}: device statistics"
        );
        assert_eq!(
            bytes_dev.obs().metrics.to_json(),
            handle_dev.obs().metrics.to_json(),
            "{kind}: metrics"
        );
        assert_eq!(
            bytes_dev.with(|d| d.stored_sectors()),
            handle_dev.with(|d| d.stored_sectors()),
            "{kind}"
        );
    }
}

#[test]
fn every_media_that_forwards_write_parts_hands_the_device_the_writers_buffer() {
    let geo = Geometry::small_slc();
    for kind in KINDS {
        let (media, _) = stack(kind, geo);
        let c = ChunkAddr::new(0, 0, 2);
        let mut rng = Prng::seed_from_u64(0xAD0);
        // A header at its exact length, a full block, padding that holds
        // nothing: only the block is worth keeping, and it is kept.
        let mut block = PayloadBuf::zeroed(geo.ws_min_bytes() - 2 * SECTOR_BYTES);
        rng.fill_bytes(block.bytes_mut());
        block.bytes_mut().iter_mut().for_each(|b| *b |= 1);
        let block = block.freeze();
        let header = Payload::from(&[7u8; 44][..]).zero_extended(SECTOR_BYTES);
        let parts = [header, block.clone(), Payload::zeros(SECTOR_BYTES)];
        let w = media.write_parts(SimTime::ZERO, c.ppa(0), &parts).unwrap();
        let sectors = (block.len() / SECTOR_BYTES) as u32;
        let (view, _) = media.read_shared(w.done, c.ppa(1), sectors).unwrap();
        assert_eq!(view.to_vec(), block.to_vec(), "{kind}");
        let kept = std::ptr::eq(view.bytes().as_ptr(), block.bytes().as_ptr());
        assert_eq!(kept, kind != "foreign", "{kind}: the block was adopted");
        let (whole, _) = media.read_shared(w.done, c.ppa(0), geo.ws_min).unwrap();
        assert_eq!(whole.to_vec(), Payload::concat(&parts).to_vec(), "{kind}");
    }
}
