//! Property tests for deterministic fault injection at the device layer.
//!
//! Random seeded [`FaultPlan`]s drive a random workload; the invariants:
//! the write pointer never advances past a failed program, retired chunks
//! reject I/O with the right [`DeviceError`], the [`FaultLedger`] reconciles
//! with [`DeviceStats`] and with the asynchronous `MediaEvent` stream, and
//! an *empty* plan leaves the device byte-identical to a plan-less one —
//! and, the plan and the reliability model being the device's only fault
//! sources, a device with neither armed never fails a legal command.
//!
//! Workloads come from the in-repo seeded [`Prng`]; every seed is an
//! independent case, run on both [`fault_geometries`], so an assertion
//! failure names the seed and the geometry to replay. `OX_FAULT_SEED_BASE`
//! shifts the seed window (see docs/fault-injection.md).

use ocssd::{
    fault_geometries, matrix_seeds, ChunkAddr, ChunkState, DeviceConfig, DeviceError, EraseFault,
    FaultMix, FaultPlan, Geometry, MediaEventKind, OcssdDevice, Ppa, ProgramFault, ReadFault,
    SECTOR_BYTES,
};
use ox_sim::{Prng, SimDuration, SimTime};

const CHUNKS: u32 = 8;

fn unit(geo: &Geometry, fill: u8) -> Vec<u8> {
    vec![fill; geo.ws_min_bytes()]
}

/// Builds a plan that mixes seeded-random sites with sites aimed at the
/// workload's chunks (group 0, PU 0, chunks 0..CHUNKS) so faults reliably
/// fire.
fn plan_for(seed: u64, geo: &Geometry) -> FaultPlan {
    let mix = FaultMix {
        program_fails: 3,
        transient_read_fails: 3,
        permanent_read_fails: 1,
        erase_fails: 2,
        latency_spikes: 2,
        power_cuts: 1,
    };
    let mut plan = FaultPlan::random(seed, geo, &mix);
    let mut rng = Prng::seed_from_u64(seed ^ 0x7A96E7);
    for _ in 0..3 {
        let chunk = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
        plan.program_fails.push(ProgramFault {
            chunk,
            wp: rng.gen_range(geo.write_units_per_chunk() as u64 / 4) as u32 * geo.ws_min,
        });
    }
    for _ in 0..2 {
        let chunk = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
        plan.read_fails.push(ReadFault {
            ppa: chunk.ppa(rng.gen_range(64) as u32),
            attempts: 1 + rng.gen_range(2) as u32,
        });
    }
    plan.erase_fails.push(EraseFault {
        chunk: ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32),
        at_wear: rng.gen_range(2) as u32,
    });
    plan
}

#[test]
fn failed_programs_never_advance_the_write_pointer() {
    for geo in fault_geometries() {
        for seed in matrix_seeds(20) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            dev.set_fault_plan(plan_for(seed, &geo));
            let mut rng = Prng::seed_from_u64(seed);
            let mut t = SimTime::ZERO;

            for step in 0..200u32 {
                let c = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
                let before = dev.chunk_info(c);
                match rng.gen_range(3) {
                    0 => {
                        let data = unit(&geo, step as u8);
                        match dev.write(t, c.ppa(before.write_ptr), &data) {
                            Ok(comp) => {
                                t = comp.done;
                                assert_eq!(
                                    dev.chunk_info(c).write_ptr,
                                    before.write_ptr + geo.ws_min,
                                    "{ctx} step {step}: accepted write advances wp"
                                );
                            }
                            Err(DeviceError::MediaFailure(_)) => {
                                let after = dev.chunk_info(c);
                                assert_eq!(
                                    after.write_ptr, before.write_ptr,
                                    "{ctx} step {step}: failed program advanced wp"
                                );
                                assert!(
                                    matches!(after.state, ChunkState::Closed | ChunkState::Offline),
                                    "{ctx} step {step}: failed chunk must freeze or die, \
                                 got {:?}",
                                    after.state
                                );
                            }
                            Err(
                                DeviceError::ChunkOffline(_)
                                | DeviceError::InvalidChunkState { .. },
                            ) => {
                                // Retired or frozen chunk correctly rejecting I/O.
                                assert_eq!(dev.chunk_info(c).write_ptr, before.write_ptr);
                            }
                            Err(e) => panic!("{ctx} step {step}: unexpected {e}"),
                        }
                    }
                    1 => match dev.reset_chunk(t, c) {
                        Ok(comp) => t = comp.done,
                        Err(DeviceError::MediaFailure(_)) => {
                            assert_eq!(
                                dev.chunk_info(c).state,
                                ChunkState::Offline,
                                "{ctx} step {step}: failed erase must retire the chunk"
                            );
                        }
                        Err(
                            DeviceError::ChunkOffline(_) | DeviceError::InvalidChunkState { .. },
                        ) => {}
                        Err(e) => panic!("{ctx} step {step}: unexpected {e}"),
                    },
                    _ => {
                        if before.write_ptr >= geo.ws_min && before.state != ChunkState::Offline {
                            let mut out = vec![0u8; geo.ws_min_bytes()];
                            match dev.read(t, c.ppa(0), geo.ws_min, &mut out) {
                                Ok(comp) => t = comp.done,
                                Err(DeviceError::UncorrectableRead(p)) => {
                                    assert!(
                                        p.chunk_addr() == c && p.sector < geo.ws_min,
                                        "{ctx} step {step}: uncorrectable read names a \
                                     sector outside the request: {p}"
                                    );
                                }
                                Err(e) => panic!("{ctx} step {step}: unexpected {e}"),
                            }
                        }
                    }
                }
            }

            // Retired chunks reject everything with ChunkOffline.
            for c in (0..CHUNKS).map(|i| ChunkAddr::new(0, 0, i)) {
                if dev.chunk_info(c).state != ChunkState::Offline {
                    continue;
                }
                let data = unit(&geo, 0);
                assert!(
                    matches!(
                        dev.write(t, c.ppa(0), &data),
                        Err(DeviceError::ChunkOffline(a)) if a == c
                    ),
                    "{ctx}: retired {c} accepted I/O"
                );
                let mut out = vec![0u8; geo.ws_min_bytes()];
                assert!(
                    matches!(
                        dev.read(t, c.ppa(0), geo.ws_min, &mut out),
                        Err(DeviceError::ChunkOffline(a)) if a == c
                    ),
                    "{ctx}: retired {c} accepted I/O"
                );
                assert!(
                    matches!(
                        dev.reset_chunk(t, c),
                        Err(DeviceError::ChunkOffline(a)) if a == c
                    ),
                    "{ctx}: retired {c} accepted I/O"
                );
            }
        }
    }
}

#[test]
fn ledger_reconciles_with_stats_and_media_events() {
    for geo in fault_geometries() {
        let mut any_program = 0u64;
        let mut any_erase = 0u64;
        let mut any_read = 0u64;
        for seed in matrix_seeds(20) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            dev.set_fault_plan(plan_for(seed, &geo));
            let mut rng = Prng::seed_from_u64(seed ^ 1);
            let mut t = SimTime::ZERO;
            let mut events = Vec::new();

            for step in 0..300u32 {
                let c = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
                let info = dev.chunk_info(c);
                match rng.gen_range(3) {
                    0 => {
                        if let Ok(comp) =
                            dev.write(t, c.ppa(info.write_ptr), &unit(&geo, step as u8))
                        {
                            t = comp.done;
                        }
                    }
                    1 => {
                        if let Ok(comp) = dev.reset_chunk(t, c) {
                            t = comp.done;
                        }
                    }
                    _ => {
                        if info.write_ptr >= geo.ws_min && info.state != ChunkState::Offline {
                            let mut out = vec![0u8; geo.ws_min_bytes()];
                            let _ = dev.read(t, c.ppa(0), geo.ws_min, &mut out);
                        }
                    }
                }
                if step % 50 == 0 {
                    events.extend(dev.drain_events());
                }
            }
            events.extend(dev.drain_events());

            let ledger = *dev.fault_ledger();
            let stats = dev.stats().clone();
            assert_eq!(stats.injected_program_fails, ledger.program_fails, "{ctx}");
            assert_eq!(stats.injected_read_fails, ledger.read_fails, "{ctx}");
            assert_eq!(stats.injected_erase_fails, ledger.erase_fails, "{ctx}");
            assert_eq!(
                stats.injected_latency_spikes, ledger.latency_spikes,
                "{ctx}"
            );
            assert_eq!(stats.injected_power_cuts, ledger.power_cuts, "{ctx}");

            // Every injected program/erase failure produced exactly one grown-
            // bad-block event of the matching kind (no natural failures are
            // configured in this test).
            let programs = events
                .iter()
                .filter(|e| e.kind == MediaEventKind::ProgramFail)
                .count() as u64;
            let erases = events
                .iter()
                .filter(|e| e.kind == MediaEventKind::EraseFail)
                .count() as u64;
            assert_eq!(programs, ledger.program_fails, "{ctx}: event counts");
            assert_eq!(erases, ledger.erase_fails, "{ctx}: event counts");
            any_program += ledger.program_fails;
            any_erase += ledger.erase_fails;
            any_read += ledger.read_fails;
        }
        let cell = geo.cell;
        assert!(
            any_program > 0,
            "{cell:?}: targeted program faults must fire"
        );
        assert!(any_erase > 0, "{cell:?}: targeted erase faults must fire");
        assert!(any_read > 0, "{cell:?}: targeted read faults must fire");
    }
}

/// A device armed with an empty plan is byte-identical to one never armed.
#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let geo = Geometry::small_slc();
    let run = |with_empty_plan: bool| {
        let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
        if with_empty_plan {
            dev.set_fault_plan(FaultPlan::default());
        }
        let mut rng = Prng::seed_from_u64(42);
        let mut t = SimTime::ZERO;
        let mut read_back = Vec::new();
        for step in 0..200u32 {
            let c = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
            let info = dev.chunk_info(c);
            match rng.gen_range(3) {
                0 => {
                    if let Ok(comp) = dev.write(t, c.ppa(info.write_ptr), &unit(&geo, step as u8)) {
                        t = comp.done;
                    }
                }
                1 => {
                    if let Ok(comp) = dev.reset_chunk(t, c) {
                        t = comp.done;
                    }
                }
                _ => {
                    if info.write_ptr >= geo.ws_min {
                        let mut out = vec![0u8; geo.ws_min_bytes()];
                        if dev.read(t, c.ppa(0), geo.ws_min, &mut out).is_ok() {
                            read_back.extend_from_slice(&out[..SECTOR_BYTES]);
                        }
                    }
                }
            }
        }
        let stats = dev.stats().clone();
        (t, read_back, stats.writes.ops(), stats.media_reads.ops())
    };
    let (t_a, data_a, w_a, r_a) = run(false);
    let (t_b, data_b, w_b, r_b) = run(true);
    assert_eq!(t_a, t_b, "virtual time must match to the nanosecond");
    assert_eq!(data_a, data_b, "read-back bytes must be identical");
    assert_eq!((w_a, r_a), (w_b, r_b));
}

/// The parallel units back-fill idle gaps, so a command issued later may run
/// before one issued earlier. Arrivals here jump up to 3 ms back and 1 ms
/// ahead of a moving base, over writes, copies, resets (each followed by a
/// write that arrives before it) and reads on two PUs.
/// Each program must still complete after its chunk's previous program and
/// last erase (at least one program time later), and a crash at a seeded
/// instant past every arrival must leave each chunk at the prefix of units
/// those completions make durable, with its bytes.
#[test]
fn chunk_order_holds_when_arrivals_go_backwards() {
    for geo in fault_geometries() {
        let chunks: Vec<ChunkAddr> = (0..2)
            .flat_map(|pu| (0..CHUNKS / 2).map(move |c| ChunkAddr::new(0, pu, c)))
            .collect();
        let mut crashes = 0;
        for seed in matrix_seeds(20) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            let prog = dev.profile().prog_unit;
            let mut rng = Prng::seed_from_u64(seed ^ 0xB4CF);
            // Per chunk: each unit's fill byte and program completion, and the
            // instant its next program may not complete one program time before.
            let mut units: Vec<Vec<(u8, SimTime)>> = vec![Vec::new(); chunks.len()];
            let mut floor = vec![SimTime::ZERO; chunks.len()];
            let mut base = SimTime::from_millis(5);
            let mut latest = SimTime::ZERO;
            let mut out = vec![0u8; geo.ws_min_bytes()];
            for step in 0..400u32 {
                let what = format!("{ctx} step {step}");
                base += SimDuration::from_micros(rng.gen_range(300));
                let at = base + SimDuration::from_micros(rng.gen_range(4_000))
                    - SimDuration::from_millis(3);
                latest = latest.max(at);
                let i = rng.gen_range(chunks.len() as u64) as usize;
                let c = chunks[i];
                let wp = dev.chunk_info(c).write_ptr;
                let mut programmed = None;
                match rng.gen_range(20) {
                    0..=8 if wp < geo.sectors_per_chunk => {
                        let fill = (step % 250) as u8 + 1;
                        dev.write(at, c.ppa(wp), &unit(&geo, fill)).expect(&what);
                        programmed = Some((i, fill));
                    }
                    9..=10 if wp > 0 => {
                        let j = rng.gen_range(chunks.len() as u64) as usize;
                        let d = chunks[j];
                        let dst_wp = dev.chunk_info(d).write_ptr;
                        if j != i && dst_wp < geo.sectors_per_chunk {
                            let k = rng.gen_range(units[i].len() as u64) as usize;
                            let srcs: Vec<Ppa> = (0..geo.ws_min)
                                .map(|s| c.ppa(k as u32 * geo.ws_min + s))
                                .collect();
                            dev.copy(at, &srcs, d).expect(&what);
                            programmed = Some((j, units[i][k].0));
                        }
                    }
                    11 if wp > 0 => {
                        floor[i] = dev.reset_chunk(at, c).expect(&what).done;
                        units[i].clear();
                        // Re-open the freed chunk at once, arriving before the
                        // erase was issued, as a collector's next step may.
                        let early = at - SimDuration::from_micros(rng.gen_range(2_000));
                        let fill = (step % 250) as u8 + 1;
                        dev.write(early, c.ppa(0), &unit(&geo, fill)).expect(&what);
                        programmed = Some((i, fill));
                    }
                    12 => {
                        let cut = latest + SimDuration::from_micros(rng.gen_range(3_000));
                        dev.crash(cut);
                        crashes += 1;
                        for (j, &c) in chunks.iter().enumerate() {
                            let durable = units[j].iter().take_while(|u| u.1 <= cut).count();
                            units[j].truncate(durable);
                            floor[j] = SimTime::ZERO;
                            assert_eq!(
                                dev.chunk_info(c).write_ptr,
                                durable as u32 * geo.ws_min,
                                "{what}: {c} after a crash at {cut:?}"
                            );
                            for (k, &(fill, _)) in units[j].iter().enumerate() {
                                dev.read(cut, c.ppa(k as u32 * geo.ws_min), geo.ws_min, &mut out)
                                    .expect(&what);
                                assert!(out.iter().all(|&b| b == fill), "{what}: {c} unit {k}");
                            }
                        }
                        base = cut + SimDuration::from_millis(5);
                        latest = cut;
                    }
                    _ if wp > 0 => {
                        let k = rng.gen_range(units[i].len() as u64) as usize;
                        dev.read(at, c.ppa(k as u32 * geo.ws_min), geo.ws_min, &mut out)
                            .expect(&what);
                        assert!(
                            out.iter().all(|&b| b == units[i][k].0),
                            "{what}: {c} unit {k}"
                        );
                    }
                    _ => {}
                }
                if let Some((j, fill)) = programmed {
                    // The unit just accepted is the chunk's latest pending drain.
                    let done = dev.flush_chunk(SimTime::ZERO, chunks[j]).done;
                    assert!(
                        done >= floor[j] + prog,
                        "{what}: a program on {} completed at {done:?}, less than one program \
                     after its chunk's previous program or last erase ({:?})",
                        chunks[j],
                        floor[j]
                    );
                    floor[j] = done;
                    units[j].push((fill, done));
                }
            }
        }
        assert!(
            crashes > 0,
            "{:?}: the stream must crash the device",
            geo.cell
        );
    }
}

/// The fault plan and the reliability model are the only things that make a
/// young device fail: with an empty plan and no model, a seeded stream of
/// legal writes, reads, resets and copies sees no error and no media event.
#[test]
fn a_device_with_no_fault_source_armed_never_fails() {
    for geo in fault_geometries() {
        for seed in matrix_seeds(20) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut dev = OcssdDevice::new(DeviceConfig::with_geometry(geo));
            dev.set_fault_plan(FaultPlan::default());
            let mut rng = Prng::seed_from_u64(seed ^ 0x1DE7);
            let mut t = SimTime::ZERO;
            let mut out = vec![0u8; geo.ws_min_bytes()];
            for step in 0..400u32 {
                let what = format!("{ctx} step {step}");
                let c = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
                let info = dev.chunk_info(c);
                let full = info.write_ptr == geo.sectors_per_chunk;
                let done = match rng.gen_range(4) {
                    0 if !full => dev.write(t, c.ppa(info.write_ptr), &unit(&geo, step as u8)),
                    1 if info.write_ptr > 0 && rng.gen_bool(0.2) => dev.reset_chunk(t, c),
                    2 if info.write_ptr > 0 => {
                        let sector = rng.gen_range((info.write_ptr / geo.ws_min) as u64) as u32;
                        dev.read(t, c.ppa(sector * geo.ws_min), geo.ws_min, &mut out)
                    }
                    3 if info.write_ptr > 0 => {
                        let dst = ChunkAddr::new(0, 1, c.chunk);
                        if dev.chunk_info(dst).write_ptr == geo.sectors_per_chunk {
                            dev.reset_chunk(t, dst).expect(&what);
                        }
                        let srcs: Vec<Ppa> = (0..geo.ws_min).map(|s| c.ppa(s)).collect();
                        dev.copy(t, &srcs, dst)
                    }
                    _ => continue,
                };
                t = done.unwrap_or_else(|e| panic!("{what}: {e}")).done;
            }
            assert!(dev.drain_events().is_empty(), "{ctx}: media events");
            assert_eq!(dev.stats().media_failures, 0, "{ctx}");
            assert_eq!(dev.grown_bad_blocks(), 0, "{ctx}");
            assert_eq!(dev.fault_ledger().total(), 0, "{ctx}");
            assert!(
                dev.stats().resets.ops() > 0 && dev.stats().copies.ops() > 0,
                "{ctx}: the stream must exercise resets and copies"
            );
        }
    }
}
