//! Zone-state-machine proptests for OX-ZNS (ISSUE 10 satellite 2).
//!
//! Seeded random operation sequences are driven against [`ZnsFtl`] and a
//! pure in-memory model of the NVMe ZNS zone state machine, swept by the
//! fault-matrix seeds (`OX_FAULT_SEED_BASE`) under the matrix geometry
//! (`OX_FAULT_GEOMETRY`). Every assertion names the seed that reproduces a
//! failure.
//!
//! Checked properties:
//!
//! * **Write-pointer monotonicity** — a zone's write pointer never moves
//!   backwards except through a successful `reset_zone` (→ 0) or a
//!   media-failure retirement (zone → `Offline`).
//! * **Transition legality** — observed `ZoneState` changes follow the
//!   machine: `Empty → {Open, Full}`, `Open → Full`, `Full → Empty` only
//!   via reset, anything → `Offline` only on a device failure, and
//!   `Offline` is terminal.
//! * **Append-past-capacity and read-beyond-WP are rejected** with typed
//!   errors (`ZoneNotWritable`, `ReadBeyondWp`, `BadAppendSize`) and leave
//!   the zone untouched.
//! * **Readable prefix integrity** — every acknowledged append reads back
//!   byte-identical from the readable prefix, including across injected
//!   transient read faults (absorbed by the shared bounded-retry loop).

use ocssd::{
    matrix_geometry, matrix_seeds, DeviceConfig, FaultMix, FaultPlan, OcssdDevice, SharedDevice,
    SECTOR_BYTES,
};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimTime};
use ox_zns::{ZnsConfig, ZnsError, ZnsFtl, ZoneState};
use std::sync::Arc;

/// Zones exercised per case — few enough that fills, finishes and resets
/// all happen within the op budget.
const ZONES_IN_PLAY: u32 = 6;
const OPS_PER_CASE: usize = 160;

/// Pure model of one zone.
struct ZoneModel {
    state: ZoneState,
    wp: u64,
    readable: u64,
    /// Bytes of the readable prefix.
    data: Vec<u8>,
    /// A device fault fired underneath this zone: the media beneath may be
    /// frozen or offline, so further appends are allowed to fail with
    /// `Device` errors (but must not corrupt the acknowledged prefix).
    broken: bool,
}

impl ZoneModel {
    fn new() -> Self {
        ZoneModel {
            state: ZoneState::Empty,
            wp: 0,
            readable: 0,
            data: Vec::new(),
            broken: false,
        }
    }
}

fn legal_transition(from: ZoneState, to: ZoneState, was_reset: bool) -> bool {
    use ZoneState::*;
    match (from, to) {
        (a, b) if a == b => true,
        (Empty, Open) | (Empty, Full) | (Open, Full) => true,
        // Only a reset may rewind a zone to Empty.
        (Full, Empty) | (Open, Empty) => was_reset,
        // Retirement is reachable from anywhere but never reversed.
        (_, Offline) => true,
        (Offline, _) => false,
        _ => false,
    }
}

struct Case {
    ftl: ZnsFtl,
    model: Vec<ZoneModel>,
    t: SimTime,
    seed: u64,
    append_bytes: usize,
    zone_sectors: u64,
}

impl Case {
    fn new(seed: u64, plan: FaultPlan) -> Case {
        let geo = matrix_geometry();
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        dev.set_fault_plan(plan);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (ftl, t) = ZnsFtl::format(media, ZnsConfig { chunks_per_zone: 2 }, SimTime::ZERO)
            .unwrap_or_else(|e| panic!("seed {seed}: format failed: {e}"));
        let append_bytes = ftl.append_bytes();
        let zone_sectors = ftl.zone_sectors();
        let zones = ftl.zone_count().min(ZONES_IN_PLAY);
        Case {
            ftl,
            model: (0..zones).map(|_| ZoneModel::new()).collect(),
            t,
            seed,
            append_bytes,
            zone_sectors,
        }
    }

    /// Asserts the FTL's view of `zone` matches the model, and that the
    /// transition from the model's previous state was legal.
    fn check(&self, zone: u32, was_reset: bool) {
        let seed = self.seed;
        let m = &self.model[zone as usize];
        let info = self
            .ftl
            .zone_info(zone)
            .unwrap_or_else(|e| panic!("seed {seed}: zone_info({zone}): {e}"));
        assert!(
            legal_transition(m.state, info.state, was_reset),
            "seed {seed}: zone {zone} illegal transition {:?} -> {:?}",
            m.state,
            info.state,
        );
        if !m.broken {
            assert_eq!(
                info.state, m.state,
                "seed {seed}: zone {zone} state diverged from model"
            );
            assert_eq!(
                info.write_pointer, m.wp,
                "seed {seed}: zone {zone} write pointer diverged from model"
            );
        }
    }

    fn sync_from_ftl(&mut self, zone: u32) {
        let info = self.ftl.zone_info(zone).unwrap();
        let m = &mut self.model[zone as usize];
        m.state = info.state;
        m.wp = info.write_pointer;
        if info.state == ZoneState::Offline {
            m.readable = 0;
            m.data.clear();
        }
    }

    fn append(&mut self, rng: &mut Prng, units: u64) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let mut data = vec![0u8; units as usize * self.append_bytes];
        rng.fill_bytes(&mut data);
        let sectors = (data.len() / SECTOR_BYTES) as u64;
        let m = &self.model[zone as usize];
        let fits = matches!(m.state, ZoneState::Empty | ZoneState::Open)
            && m.wp + sectors <= self.zone_sectors;
        let prev_wp = m.wp;
        let prev_state = m.state;
        // In two parts split at any sector: a unit may take its bytes from both.
        let split = rng.gen_range(sectors + 1) as usize * SECTOR_BYTES;
        let parts = [data[..split].into(), data[split..].into()];
        match self.ftl.append(self.t, zone, &parts) {
            Ok((start, t)) => {
                assert!(
                    fits || m.broken,
                    "seed {seed}: zone {zone} append accepted in {prev_state:?} at wp {prev_wp}"
                );
                self.t = t;
                let m = &mut self.model[zone as usize];
                if !m.broken {
                    assert_eq!(start, prev_wp, "seed {seed}: append start != write pointer");
                    m.wp += sectors;
                    m.readable = m.wp;
                    m.data.extend_from_slice(&data);
                    m.state = if m.wp == self.zone_sectors {
                        ZoneState::Full
                    } else {
                        ZoneState::Open
                    };
                }
            }
            Err(ZnsError::ZoneNotWritable { .. }) => {
                assert!(
                    !fits || self.model[zone as usize].broken,
                    "seed {seed}: zone {zone} rejected a fitting append in {prev_state:?}"
                );
            }
            Err(ZnsError::Device(_)) => {
                // An injected fault fired under this zone. The in-memory
                // write pointer must not have advanced; the media beneath
                // may be frozen, so stop trusting this zone for appends.
                let info = self.ftl.zone_info(zone).unwrap();
                assert_eq!(
                    info.write_pointer, prev_wp,
                    "seed {seed}: zone {zone} wp moved on failed append"
                );
                self.model[zone as usize].broken = true;
            }
            Err(e) => panic!("seed {seed}: zone {zone} append: unexpected error {e}"),
        }
        self.check(zone, false);
    }

    /// Append that must be rejected: it would run past the zone's capacity.
    fn append_past_capacity(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let m = &self.model[zone as usize];
        let remaining_units = (self.zone_sectors - m.wp.min(self.zone_sectors))
            / (self.append_bytes / SECTOR_BYTES) as u64;
        let units = remaining_units + rng.gen_range_in(1, 3);
        let data = vec![0xEE; units as usize * self.append_bytes];
        let prev_wp = m.wp;
        match self.ftl.append(self.t, zone, &[data.into()]) {
            Err(ZnsError::ZoneNotWritable { .. }) => {}
            Ok(_) => panic!("seed {seed}: zone {zone} accepted append past capacity"),
            Err(e) => panic!("seed {seed}: zone {zone} oversized append: wrong error {e}"),
        }
        let info = self.ftl.zone_info(zone).unwrap();
        assert_eq!(
            info.write_pointer, prev_wp,
            "seed {seed}: zone {zone} wp moved on rejected append"
        );
        self.check(zone, false);
    }

    fn append_bad_size(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        // Empty, or not a multiple of the append granularity.
        let len = if rng.gen_bool(0.5) || self.append_bytes == SECTOR_BYTES {
            0
        } else {
            self.append_bytes - SECTOR_BYTES
        };
        match self.ftl.append(self.t, zone, &[vec![0u8; len].into()]) {
            Err(ZnsError::BadAppendSize(n)) => assert_eq!(n, len),
            other => panic!("seed {seed}: zone {zone} bad-size append: {other:?}"),
        }
        self.check(zone, false);
    }

    fn read_valid(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let m = &self.model[zone as usize];
        if m.readable == 0 {
            return;
        }
        let start = rng.gen_range(m.readable);
        let len = rng.gen_range_in(1, (m.readable - start).min(8) + 1) as u32;
        let mut out = vec![0u8; len as usize * SECTOR_BYTES];
        let t = self
            .ftl
            .read(self.t, zone, start, len, &mut out)
            .unwrap_or_else(|e| panic!("seed {seed}: zone {zone} read [{start}, +{len}): {e}"));
        self.t = t;
        let off = start as usize * SECTOR_BYTES;
        assert_eq!(
            out,
            &self.model[zone as usize].data[off..off + out.len()],
            "seed {seed}: zone {zone} readable prefix corrupted at sector {start}"
        );
        self.check(zone, false);
    }

    fn read_beyond_wp(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let m = &self.model[zone as usize];
        let start = m.readable; // first unreadable sector
        if start >= self.zone_sectors {
            return;
        }
        let mut out = vec![0u8; SECTOR_BYTES];
        match self.ftl.read(self.t, zone, start, 1, &mut out) {
            Err(ZnsError::ReadBeyondWp { zone: z, sector }) => {
                assert_eq!((z, sector), (zone, start), "seed {seed}: wrong rejection");
            }
            other => {
                panic!("seed {seed}: zone {zone} read beyond wp at {start} not rejected: {other:?}")
            }
        }
        self.check(zone, false);
    }

    fn finish(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let m = &self.model[zone as usize];
        let writable = matches!(m.state, ZoneState::Empty | ZoneState::Open);
        match self.ftl.finish_zone(zone) {
            Ok(()) => {
                assert!(
                    writable || m.broken,
                    "seed {seed}: zone {zone} finished from {:?}",
                    m.state
                );
                let m = &mut self.model[zone as usize];
                if !m.broken {
                    m.wp = self.zone_sectors;
                    m.state = ZoneState::Full;
                }
            }
            Err(ZnsError::ZoneNotWritable { .. }) => {
                assert!(
                    !writable || m.broken,
                    "seed {seed}: zone {zone} finish rejected from {:?}",
                    m.state
                );
            }
            Err(e) => panic!("seed {seed}: zone {zone} finish: {e}"),
        }
        self.check(zone, false);
    }

    fn reset(&mut self, rng: &mut Prng) {
        let seed = self.seed;
        let zone = rng.gen_range(self.model.len() as u64) as u32;
        let offline = self.model[zone as usize].state == ZoneState::Offline;
        match self.ftl.reset_zone(self.t, zone) {
            Ok(t) => {
                assert!(!offline, "seed {seed}: zone {zone} reset while Offline");
                self.t = t;
                let m = &mut self.model[zone as usize];
                m.state = ZoneState::Empty;
                m.wp = 0;
                m.readable = 0;
                m.data.clear();
                m.broken = false;
            }
            Err(ZnsError::ZoneNotWritable { .. }) => {
                assert!(
                    offline,
                    "seed {seed}: zone {zone} reset rejected while not Offline"
                );
            }
            Err(ZnsError::Device(_)) => {
                // Injected erase failure: the FTL retires the zone.
                self.check(zone, true);
                self.sync_from_ftl(zone);
                let m = &mut self.model[zone as usize];
                assert_eq!(
                    m.state,
                    ZoneState::Offline,
                    "seed {seed}: zone {zone} erase failure did not retire the zone"
                );
                return;
            }
            Err(e) => panic!("seed {seed}: zone {zone} reset: {e}"),
        }
        self.check(zone, true);
    }

    fn run(mut self) {
        let mut rng = Prng::seed_from_u64(self.seed ^ 0x5A4E_5321);
        for _ in 0..OPS_PER_CASE {
            match rng.gen_range(16) {
                0..=5 => {
                    let units = rng.gen_range_in(1, 5);
                    self.append(&mut rng, units);
                }
                6 => {
                    // Large append: fill most of the remaining capacity so
                    // zones actually reach Full within the op budget.
                    let zone = rng.gen_range(self.model.len() as u64) as u32;
                    let m = &self.model[zone as usize];
                    let unit_sectors = (self.append_bytes / SECTOR_BYTES) as u64;
                    let remaining =
                        (self.zone_sectors - m.wp.min(self.zone_sectors)) / unit_sectors;
                    if remaining > 0 {
                        self.append(&mut rng, remaining);
                    }
                }
                7 => self.append_past_capacity(&mut rng),
                8 => self.append_bad_size(&mut rng),
                9..=11 => self.read_valid(&mut rng),
                12 => self.read_beyond_wp(&mut rng),
                13 => self.finish(&mut rng),
                _ => self.reset(&mut rng),
            }
        }
        // Terminal sweep: every zone's final FTL state is self-consistent.
        for zone in 0..self.model.len() as u32 {
            let info = self.ftl.zone_info(zone).unwrap();
            match info.state {
                ZoneState::Empty => assert_eq!(info.write_pointer, 0),
                ZoneState::Full => assert_eq!(info.write_pointer, info.capacity),
                ZoneState::Open => assert!(
                    info.write_pointer > 0 && info.write_pointer < info.capacity,
                    "seed {}: zone {zone} Open with wp {}",
                    self.seed,
                    info.write_pointer
                ),
                ZoneState::Offline => {}
            }
        }
    }
}

#[test]
fn zone_state_machine_matches_model_on_clean_device() {
    for seed in matrix_seeds(8) {
        Case::new(seed, FaultPlan::default()).run();
    }
}

#[test]
fn zone_state_machine_matches_model_under_fault_matrix() {
    let geo = matrix_geometry();
    let mix = FaultMix {
        program_fails: 3,
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 2,
        latency_spikes: 1,
        power_cuts: 0,
    };
    for seed in matrix_seeds(8) {
        let plan = FaultPlan::random(seed, &geo, &mix);
        Case::new(seed, plan).run();
    }
}

/// The deterministic boundary cases, spelled out once without randomness.
#[test]
fn boundary_rejections_leave_zone_untouched() {
    let geo = matrix_geometry();
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (mut ftl, t0) =
        ZnsFtl::format(media, ZnsConfig { chunks_per_zone: 1 }, SimTime::ZERO).unwrap();
    let unit = ftl.append_bytes();
    let unit_sectors = (unit / SECTOR_BYTES) as u64;
    let cap_units = ftl.zone_sectors() / unit_sectors;

    // Fill to one unit short of capacity.
    let mut t = t0;
    let big = vec![0xAB; (cap_units - 1) as usize * unit];
    let (start, t1) = ftl.append(t, 0, &[big.into()]).unwrap();
    assert_eq!(start, 0);
    t = t1;

    // A two-unit append would run past capacity: rejected, wp unchanged.
    assert!(matches!(
        ftl.append(t, 0, &[vec![0u8; 2 * unit].into()]),
        Err(ZnsError::ZoneNotWritable { zone: 0, .. })
    ));
    assert_eq!(
        ftl.zone_info(0).unwrap().write_pointer,
        (cap_units - 1) * unit_sectors
    );

    // Read beyond the write pointer: rejected.
    let wp = ftl.zone_info(0).unwrap().write_pointer;
    let mut out = vec![0u8; SECTOR_BYTES];
    assert!(matches!(
        ftl.read(t, 0, wp, 1, &mut out),
        Err(ZnsError::ReadBeyondWp { zone: 0, .. })
    ));

    // The exactly-fitting unit is accepted and the zone becomes Full...
    let (_, t2) = ftl.append(t, 0, &[vec![0xCD; unit].into()]).unwrap();
    t = t2;
    assert_eq!(ftl.zone_info(0).unwrap().state, ZoneState::Full);

    // ...after which any append is rejected.
    assert!(matches!(
        ftl.append(t, 0, &[vec![0u8; unit].into()]),
        Err(ZnsError::ZoneNotWritable {
            zone: 0,
            state: ZoneState::Full
        })
    ));

    // Bad sizes are typed errors on any zone state.
    assert!(matches!(
        ftl.append(t, 1, &[]),
        Err(ZnsError::BadAppendSize(0))
    ));

    // Out-of-range zone ids are typed errors.
    let nz = ftl.zone_count();
    assert!(matches!(ftl.zone_info(nz), Err(ZnsError::NoSuchZone(z)) if z == nz));
    assert!(matches!(
        ftl.reset_zone(t, nz),
        Err(ZnsError::NoSuchZone(z)) if z == nz
    ));
}
