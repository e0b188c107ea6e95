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
//! independent case, so an assertion failure names the seed to replay. The
//! fault-matrix CI job sweeps the seed window and the geometry through
//! `OX_FAULT_SEED_BASE` / `OX_FAULT_GEOMETRY` (see docs/fault-injection.md).

use ocssd::{
    matrix_geometry, matrix_seeds, ChunkAddr, ChunkState, DeviceConfig, DeviceError, EraseFault,
    FaultMix, FaultPlan, Geometry, MediaEventKind, OcssdDevice, Ppa, ProgramFault, ReadFault,
    ReliabilityConfig, SECTOR_BYTES,
};
use ox_sim::{Prng, SimTime};

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
    for seed in matrix_seeds(20) {
        let geo = matrix_geometry();
        let mut config = DeviceConfig::with_geometry(geo);
        config.fault = plan_for(seed, &geo);
        let mut dev = OcssdDevice::new(config);
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
                                "seed {seed} step {step}: accepted write advances wp"
                            );
                        }
                        Err(DeviceError::MediaFailure(_)) => {
                            let after = dev.chunk_info(c);
                            assert_eq!(
                                after.write_ptr, before.write_ptr,
                                "seed {seed} step {step}: failed program advanced wp"
                            );
                            assert!(
                                matches!(after.state, ChunkState::Closed | ChunkState::Offline),
                                "seed {seed} step {step}: failed chunk must freeze or die, \
                                 got {:?}",
                                after.state
                            );
                        }
                        Err(
                            DeviceError::ChunkOffline(_) | DeviceError::InvalidChunkState { .. },
                        ) => {
                            // Retired or frozen chunk correctly rejecting I/O.
                            assert_eq!(dev.chunk_info(c).write_ptr, before.write_ptr);
                        }
                        Err(e) => panic!("seed {seed} step {step}: unexpected {e}"),
                    }
                }
                1 => match dev.reset_chunk(t, c) {
                    Ok(comp) => t = comp.done,
                    Err(DeviceError::MediaFailure(_)) => {
                        assert_eq!(
                            dev.chunk_info(c).state,
                            ChunkState::Offline,
                            "seed {seed} step {step}: failed erase must retire the chunk"
                        );
                    }
                    Err(DeviceError::ChunkOffline(_) | DeviceError::InvalidChunkState { .. }) => {}
                    Err(e) => panic!("seed {seed} step {step}: unexpected {e}"),
                },
                _ => {
                    if before.write_ptr >= geo.ws_min && before.state != ChunkState::Offline {
                        let mut out = vec![0u8; geo.ws_min_bytes()];
                        match dev.read(t, c.ppa(0), geo.ws_min, &mut out) {
                            Ok(comp) => t = comp.done,
                            Err(DeviceError::UncorrectableRead(p)) => {
                                assert!(
                                    p.chunk_addr() == c && p.sector < geo.ws_min,
                                    "seed {seed} step {step}: uncorrectable read names a \
                                     sector outside the request: {p}"
                                );
                            }
                            Err(e) => panic!("seed {seed} step {step}: unexpected {e}"),
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
            assert!(matches!(
                dev.write(t, c.ppa(0), &data),
                Err(DeviceError::ChunkOffline(a)) if a == c
            ));
            let mut out = vec![0u8; geo.ws_min_bytes()];
            assert!(matches!(
                dev.read(t, c.ppa(0), geo.ws_min, &mut out),
                Err(DeviceError::ChunkOffline(a)) if a == c
            ));
            assert!(matches!(
                dev.reset_chunk(t, c),
                Err(DeviceError::ChunkOffline(a)) if a == c
            ));
        }
    }
}

#[test]
fn ledger_reconciles_with_stats_and_media_events() {
    let mut any_program = 0u64;
    let mut any_erase = 0u64;
    let mut any_read = 0u64;
    for seed in matrix_seeds(20) {
        let geo = matrix_geometry();
        let mut config = DeviceConfig::with_geometry(geo);
        config.fault = plan_for(seed, &geo);
        let mut dev = OcssdDevice::new(config);
        let mut rng = Prng::seed_from_u64(seed ^ 1);
        let mut t = SimTime::ZERO;
        let mut events = Vec::new();

        for step in 0..300u32 {
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
        assert_eq!(
            stats.injected_program_fails, ledger.program_fails,
            "seed {seed}"
        );
        assert_eq!(stats.injected_read_fails, ledger.read_fails, "seed {seed}");
        assert_eq!(
            stats.injected_erase_fails, ledger.erase_fails,
            "seed {seed}"
        );
        assert_eq!(
            stats.injected_latency_spikes, ledger.latency_spikes,
            "seed {seed}"
        );
        assert_eq!(stats.injected_power_cuts, ledger.power_cuts, "seed {seed}");

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
        assert_eq!(programs, ledger.program_fails, "seed {seed}: event counts");
        assert_eq!(erases, ledger.erase_fails, "seed {seed}: event counts");
        any_program += ledger.program_fails;
        any_erase += ledger.erase_fails;
        any_read += ledger.read_fails;
    }
    assert!(any_program > 0, "targeted program faults must fire");
    assert!(any_erase > 0, "targeted erase faults must fire");
    assert!(any_read > 0, "targeted read faults must fire");
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let geo = Geometry::small_slc();
    let run = |with_empty_plan: bool| {
        let mut config = DeviceConfig::with_geometry(geo);
        if with_empty_plan {
            config.fault = FaultPlan::default();
        }
        let mut dev = OcssdDevice::new(config);
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

/// The fault plan and the reliability model are the only things that make a
/// young device fail: with an empty plan and the model switched off (every
/// other knob hot), a seeded stream of legal writes, reads, resets and
/// copies sees no error and no media event.
#[test]
fn a_device_with_no_fault_source_armed_never_fails() {
    for seed in matrix_seeds(20) {
        let geo = matrix_geometry();
        let mut config = DeviceConfig::with_geometry(geo);
        config.fault = FaultPlan::default();
        config.reliability = ReliabilityConfig {
            enabled: false,
            ..ReliabilityConfig::aged(seed)
        };
        let mut dev = OcssdDevice::new(config);
        let mut rng = Prng::seed_from_u64(seed ^ 0x1DE7);
        let mut t = SimTime::ZERO;
        let mut out = vec![0u8; geo.ws_min_bytes()];
        for step in 0..400u32 {
            let what = format!("seed {seed} step {step}");
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
        assert!(dev.drain_events().is_empty(), "seed {seed}: media events");
        assert_eq!(dev.stats().media_failures, 0, "seed {seed}");
        assert_eq!(dev.grown_bad_blocks(), 0, "seed {seed}");
        assert_eq!(dev.fault_ledger().total(), 0, "seed {seed}");
        assert!(
            dev.stats().resets.ops() > 0 && dev.stats().copies.ops() > 0,
            "seed {seed}: the stream must exercise resets and copies"
        );
    }
}
