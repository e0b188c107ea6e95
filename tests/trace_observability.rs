//! Cross-crate observability integration test: one [`Obs`] handle, handed
//! to the device in its `DeviceConfig`, observes the full stack built on it
//! by plain constructors (device → LightLSM FTL → LSM KV store). A
//! fill-sequential workload runs end to end, and the resulting trace and
//! metrics are checked for internal consistency — matched begin/end spans,
//! strictly monotone sequence numbers, and per-subsystem byte counters that
//! reconcile with the independent `ocssd::stats` accounting.

use ox_workbench::iosched::{IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use ox_workbench::lightlsm::{LightLsm, LightLsmConfig};
use ox_workbench::lsmkv::bench::{run_workload, BenchConfig, Workload};
use ox_workbench::lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ox_workbench::ocssd::{
    ChunkAddr, DeviceConfig, Geometry, OcssdDevice, SharedDevice, SECTOR_BYTES,
};
use ox_workbench::ox_block::{BlockFtl, BlockFtlConfig};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::trace::{Obs, TracePhase};
use ox_workbench::ox_sim::SimTime;
use oxztl::{RoutedMedia, ZtlConfig, ZtlFtl, ZtlMedia};
use std::collections::HashMap;
use std::sync::Arc;

/// A device reporting into `obs`, and the raw media over it.
fn observed_device(obs: &Obs) -> (SharedDevice, Arc<dyn Media>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig {
        obs: obs.clone(),
        ..DeviceConfig::with_geometry(Geometry::paper_tlc_scaled(22, 32))
    }));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    (dev, media)
}

/// Builds the full stack the way the figure binaries do: the device carries
/// the observability handle, every layer above is a plain constructor.
fn observed_stack(obs: &Obs) -> (SharedDb, SharedDevice, Arc<LightLsmStore>) {
    let (dev, media) = observed_device(obs);
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    let store = Arc::new(LightLsmStore::new(ftl));
    let db = Db::new(
        store.clone() as Arc<dyn TableStore>,
        DbConfig {
            memtable_bytes: 1024 * 1024,
            level_base_blocks: 128,
            level_multiplier: 4,
            ..DbConfig::default()
        },
    );
    (SharedDb::new(db), dev, store)
}

#[test]
fn spans_pair_and_counters_reconcile_across_the_stack() {
    // A large cap so nothing is dropped: span pairing is only checkable on
    // a complete trace.
    let obs = Obs::new(1 << 20);
    obs.tracer.set_enabled(true);
    let (db, dev, store) = observed_stack(&obs);

    // Single client: completions are serialized, so event timestamps are
    // globally monotone per span.
    let cfg = BenchConfig::paper(Workload::FillSequential, 1, 8_000);
    let (report, _t) = run_workload(&db, cfg, SimTime::ZERO);
    assert_eq!(report.total_ops, 8_000);

    let events = obs.tracer.snapshot();
    assert_eq!(obs.tracer.dropped(), 0, "trace must be complete");
    assert!(!events.is_empty(), "instrumented stack must emit events");

    // Sequence numbers are strictly increasing in emission order.
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq must be strictly monotone");
    }

    // Every begin has exactly one end with the same span id, subsystem and
    // op, and the span does not close before it opens.
    let mut open: HashMap<u64, &ox_workbench::ox_sim::trace::TraceEvent> = HashMap::new();
    for ev in &events {
        match ev.phase {
            TracePhase::Begin => {
                assert!(ev.span != 0, "begin events carry a span id");
                let prev = open.insert(ev.span, ev);
                assert!(prev.is_none(), "span {} opened twice", ev.span);
            }
            TracePhase::End => {
                let begin = open
                    .remove(&ev.span)
                    .unwrap_or_else(|| panic!("end without begin for span {}", ev.span));
                assert_eq!(begin.subsystem, ev.subsystem, "span {}", ev.span);
                assert_eq!(begin.op, ev.op, "span {}", ev.span);
                assert!(ev.at >= begin.at, "span {} ends before it begins", ev.span);
            }
            TracePhase::Instant => assert_eq!(ev.span, 0, "instants carry no span id"),
        }
    }
    assert!(open.is_empty(), "unclosed spans: {:?}", open.keys());

    // Subsystems across all three layers actually show up.
    for subsystem in ["device", "wal", "lightlsm", "lsm"] {
        assert!(
            events.iter().any(|e| e.subsystem == subsystem),
            "no events from subsystem {subsystem}"
        );
    }

    // The metrics registry reconciles with the device's own accounting.
    let snap = obs.metrics.snapshot();
    let stats = dev.with(|d| d.stats().clone());
    let writes = &snap.counters["device.write"];
    assert_eq!(writes.ops(), stats.writes.ops(), "device.write ops");
    assert_eq!(writes.bytes(), stats.writes.bytes(), "device.write bytes");
    if let Some(media_reads) = snap.counters.get("device.read.media") {
        assert_eq!(media_reads.ops(), stats.media_reads.ops());
        assert_eq!(media_reads.bytes(), stats.media_reads.bytes());
    }

    // ...and with the FTL's and the KV store's independent stats.
    let fs = store.with_ftl(|f| f.stats());
    assert_eq!(
        snap.counters["lightlsm.flush"].ops(),
        fs.flushes,
        "lightlsm.flush ops == FTL flush count"
    );
    let cs = db.compaction_stats();
    assert_eq!(
        snap.counters["lsm.flush"].ops(),
        cs.flushes,
        "lsm.flush ops == LSM flush count"
    );
    if cs.compactions > 0 {
        assert_eq!(snap.counters["lsm.compaction"].ops(), cs.compactions);
    }

    // Traced device-write spans account for exactly the bytes the device
    // reports — the byte-level reconciliation across layers.
    let span_bytes: u64 = events
        .iter()
        .filter(|e| e.subsystem == "device" && e.op == "write" && e.phase == TracePhase::Begin)
        .map(|e| e.bytes)
        .sum();
    assert_eq!(
        span_bytes,
        stats.writes.bytes(),
        "trace bytes == device bytes"
    );

    // JSON export is well-formed enough to hand to tooling.
    let json = obs.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for key in [
        "\"events\"",
        "\"counters\"",
        "\"device.write\"",
        "\"lsm.flush\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}");
    }
}

#[test]
fn disabled_tracer_stays_silent_but_metrics_still_count() {
    let obs = Obs::new(4096); // tracer defaults to disabled
    let (db, dev, _store) = observed_stack(&obs);
    let cfg = BenchConfig::paper(Workload::FillSequential, 1, 1_000);
    run_workload(&db, cfg, SimTime::ZERO);

    assert!(obs.tracer.is_empty(), "disabled tracer records nothing");
    assert_eq!(obs.tracer.dropped(), 0);
    let snap = obs.metrics.snapshot();
    let stats = dev.with(|d| d.stats().clone());
    assert_eq!(snap.counters["device.write"].bytes(), stats.writes.bytes());
}

fn spans_of(obs: &Obs, subsystem: &str) -> Vec<&'static str> {
    let mut ops: Vec<&'static str> = obs
        .tracer
        .snapshot()
        .iter()
        .filter(|e| e.subsystem == subsystem && e.phase == TracePhase::Begin)
        .map(|e| e.op)
        .collect();
    ops.dedup();
    ops
}

/// What a layer does inside its constructor is observable: nothing is wired
/// after construction, so the sinks are in place from the first command.
#[test]
fn mount_and_recovery_traffic_of_plain_constructors_is_observed() {
    let obs = Obs::new(1 << 16);
    obs.tracer.set_enabled(true);
    let ops = |name: &str| obs.metrics.counter(name).ops();

    // OX-Block: the first transactional write commits through the WAL...
    let (dev, media) = observed_device(&obs);
    let cfg = BlockFtlConfig::with_capacity(64 << 20);
    let (mut ftl, t) = BlockFtl::format(media.clone(), cfg, SimTime::ZERO).unwrap();
    let t = ftl.write(t, 0, &[9u8; SECTOR_BYTES]).unwrap().done;
    assert!(ops("wal.commit") > 0, "WAL of a plainly formatted FTL");
    // ...and recovery reports each of its phases, the checkpoint it loads
    // and the one it writes before restarting the log.
    dev.crash(t);
    let (reads, writes) = (ops("checkpoint.read"), ops("checkpoint.write"));
    BlockFtl::recover(media, cfg, t).unwrap();
    assert_eq!(
        spans_of(&obs, "recovery"),
        ["checkpoint_load", "wal_scan", "replay", "rebuild"]
    );
    assert_eq!(ops("recovery.run"), 1);
    assert!(ops("checkpoint.read") > reads, "recovery-time load");
    assert!(ops("checkpoint.write") > writes, "recovery-time snapshot");

    // LightLSM rewrites its directory checkpoint inside `open`.
    let (dev, media) = observed_device(&obs);
    let (_, t) = LightLsm::format(media.clone(), LightLsmConfig::default(), SimTime::ZERO).unwrap();
    dev.crash(t);
    let writes = ops("checkpoint.write");
    LightLsm::open(media, LightLsmConfig::default(), t).unwrap();
    assert!(ops("checkpoint.write") > writes, "mount-time snapshot");

    // The zone-translation layer replays its records inside `open`.
    let (dev, media) = observed_device(&obs);
    let (mut ztl, t) = ZtlFtl::format(media.clone(), ZtlConfig::default(), SimTime::ZERO).unwrap();
    let sectors = ztl.unit_data_sectors() as usize;
    let t = ztl
        .write_sectors(t, 0, &vec![3u8; sectors * SECTOR_BYTES])
        .unwrap();
    let t = ztl.sync(t).done;
    dev.crash(t);
    ZtlFtl::open(media, ZtlConfig::default(), t).unwrap();
    assert_eq!(spans_of(&obs, "ztl"), ["write", "replay"]);
    assert_eq!(ops("ztl.replay.units"), 1);
}

/// Every in-repo [`Media`] wrapper answers `obs()` and `gc_route()` from
/// what it wraps instead of falling back to the trait's inert defaults, and
/// the route it names really is the scheduler's GC class.
#[test]
fn every_media_wrapper_forwards_obs_and_gc_route() {
    /// Raw media fronted by a scheduler's user tenant naming its GC tenant.
    fn scheduled(obs: &Obs) -> (SharedScheduler, Arc<dyn Media>) {
        let (_, raw) = observed_device(obs);
        let sched = SharedScheduler::new(IoScheduler::new(raw, SchedConfig::default()));
        let user = sched.add_tenant(TenantConfig::new("user"));
        let gc = sched.add_tenant(TenantConfig::new("gc").gc_class());
        let media = Arc::new(SchedMedia::with_gc(sched.clone(), user, gc));
        (sched, media)
    }

    let obs = Obs::new(16);
    let wrap_routed = |m: Arc<dyn Media>| -> Arc<dyn Media> { Arc::new(RoutedMedia::new(m)) };
    let wrap_ztl = |m: Arc<dyn Media>| -> Arc<dyn Media> {
        Arc::new(
            ZtlMedia::format(m, ZtlConfig::default(), SimTime::ZERO)
                .unwrap()
                .0,
        )
    };
    type Wrap<'a> = &'a dyn Fn(Arc<dyn Media>) -> Arc<dyn Media>;
    let cases: [(&str, Wrap); 3] = [
        ("SchedMedia", &|m| m),
        ("RoutedMedia", &wrap_routed),
        ("ZtlMedia", &wrap_ztl),
    ];

    // The bottom of every stack: sinks from the device, no background class.
    let (_, raw) = observed_device(&obs);
    raw.obs().metrics.record("probe.OcssdMedia", 0);
    assert_eq!(obs.metrics.counter("probe.OcssdMedia").ops(), 1);
    assert!(raw.gc_route().is_none());

    for (name, wrap) in cases {
        let (sched, bottom) = scheduled(&obs);
        let media = wrap(bottom);
        let probe = format!("probe.{name}");
        media.obs().metrics.record(&probe, 0);
        assert_eq!(obs.metrics.counter(&probe).ops(), 1, "{name}: obs()");

        let route = media
            .gc_route()
            .unwrap_or_else(|| panic!("{name}: gc_route() fell back to the default"));
        route.obs().metrics.record(&probe, 0);
        assert_eq!(obs.metrics.counter(&probe).ops(), 2, "{name}: route obs()");

        // Foreground write on the wrapper, read back over its route: only
        // the latter may reach the device in the GC class.
        let geo = media.geometry();
        let ppa = ChunkAddr::new(0, 0, 0).ppa(0);
        let data = vec![0x5Au8; geo.ws_min_bytes()];
        let w = media.write(SimTime::ZERO, ppa, &data).unwrap();
        assert_eq!(sched.stats().gc_dispatched, 0, "{name}: user write");
        let mut out = vec![0u8; geo.ws_min_bytes()];
        route.read(w.done, ppa, geo.ws_min, &mut out).unwrap();
        assert_eq!(out, data, "{name}: route reads the same address space");
        assert!(sched.stats().gc_dispatched > 0, "{name}: GC-class read");
    }
}
