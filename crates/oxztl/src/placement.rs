//! Placement policy: which append stream a unit joins, which closed zone is
//! collected next, and whether background collection runs at all.
//!
//! The paper's case for host-side FTLs (§2, §3.1) is that the host knows its
//! data and can place it so garbage collection stays cheap. This module is
//! that knowledge, and nothing else: it sees only *counts* (units live,
//! units a reset would free, units a pass would have to move) and *clocks*
//! (one tick per appended unit) — no zone, media or geometry type — so the
//! same policy can serve any log-structured engine in the workspace.
//!
//! * **Temperature** — a user unit is classified by how long ago its first
//!   logical sector was last written, measured against the number of live
//!   units: a uniformly overwritten store rewrites a unit about once per
//!   live-unit count of appends, so a much shorter interval marks data that
//!   will die soon and should share a zone with its like.
//! * **Survivors** — records that outlive their zone never rejoin a user
//!   stream; they are split by age into their own streams, because what
//!   survived one collection is the best candidate to survive the next.
//! * **Victims** — a closed zone scores `freed × √age ÷ cost`. Pure greedy
//!   (`freed ÷ cost`) collects a just-closed hot zone before it has had
//!   time to die; plain `× age` over-picks old, almost fully live cold
//!   zones. The square root sits between the two.
//! * **Pacing** — background collection runs only while the garbage a pass
//!   could reclaim exceeds a fixed fraction of live data, so a zone is
//!   given time to empty itself and space amplification stays bounded by
//!   that fraction rather than by how fast the collector can spin.

/// An append stream: three for user writes by temperature, two for
/// garbage-collection survivors by age.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stream {
    /// User data rewritten at a small fraction of the live-unit count.
    Hot,
    /// User data rewritten about once per live-unit count.
    Warm,
    /// First writes, rarely rewritten data and user trim records.
    #[default]
    Cold,
    /// Survivors written recently: likely to die before the next pass.
    GcYoung,
    /// Old survivors and carried trim records.
    GcOld,
}

/// Number of [`Stream`]s.
pub const STREAMS: usize = 5;

impl Stream {
    /// Every stream, hottest first.
    pub const ALL: [Stream; STREAMS] = [
        Stream::Hot,
        Stream::Warm,
        Stream::Cold,
        Stream::GcYoung,
        Stream::GcOld,
    ];

    /// Position in [`Stream::ALL`] (and in per-stream tables).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the stream takes relocated survivors rather than user writes.
    pub const fn is_gc(self) -> bool {
        matches!(self, Stream::GcYoung | Stream::GcOld)
    }

    /// Name of the stream's append counter in the metrics registry; the two
    /// survivor streams share one.
    pub const fn counter(self) -> &'static str {
        match self {
            Stream::Hot => "ztl.stream.hot.units",
            Stream::Warm => "ztl.stream.warm.units",
            Stream::Cold => "ztl.stream.cold.units",
            Stream::GcYoung | Stream::GcOld => "ztl.stream.gc.units",
        }
    }
}

/// A unit rewritten within this fraction of the live-unit count is hot.
const HOT_INTERVAL: f64 = 0.25;
/// … and within this multiple of it, warm. Anything slower is cold.
const WARM_INTERVAL: f64 = 2.0;
/// A survivor last written within this multiple of the live-unit count is
/// young.
const YOUNG_SURVIVOR: f64 = 2.0;
/// Background collection runs while reclaimable units exceed this fraction
/// of live units. Chosen so the `ztl-update` steady state occupies the space
/// the always-on collector it replaces settled at.
const GARBAGE_BUDGET: f64 = 0.20;

/// The placement policy for one layer instance: how its open-zone budget is
/// split over the streams.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    user_zones: u32,
    gc_zones: u32,
}

impl Placement {
    /// A policy keeping `user_zones` zones open for user writes and
    /// `gc_zones` for survivors (at least one each).
    pub fn new(user_zones: u32, gc_zones: u32) -> Placement {
        Placement {
            user_zones: user_zones.max(1),
            gc_zones: gc_zones.max(1),
        }
    }

    /// Open zones `stream` appends to in turn. A budget too small for every
    /// stream drops the middle classes first (their units join the coldest
    /// stream of their kind); one with room to spare gives the hot stream —
    /// most of the appends, and the records read most — a second zone, on
    /// another parallel unit.
    pub fn zones(&self, stream: Stream) -> usize {
        match stream {
            Stream::Hot => match self.user_zones {
                0..=1 => 0,
                2..=3 => 1,
                _ => 2,
            },
            Stream::Warm => usize::from(self.user_zones >= 3),
            Stream::GcYoung => usize::from(self.gc_zones >= 2),
            Stream::Cold | Stream::GcOld => 1,
        }
    }

    /// Whether this policy ever appends to `stream`.
    pub fn uses(&self, stream: Stream) -> bool {
        self.zones(stream) > 0
    }

    /// Stream for a user unit last written `interval` ticks ago (`None`:
    /// never written), with `live_units` units live. With fewer than three
    /// user streams the coldest classes merge.
    pub fn user_stream(&self, interval: Option<u64>, live_units: u64) -> Stream {
        let Some(interval) = interval else {
            return Stream::Cold;
        };
        let relative = interval as f64 / live_units.max(1) as f64;
        let class = if relative < HOT_INTERVAL {
            Stream::Hot
        } else if relative < WARM_INTERVAL {
            Stream::Warm
        } else {
            Stream::Cold
        };
        if self.uses(class) {
            class
        } else {
            Stream::Cold
        }
    }

    /// Stream for unit number `turn` of the bulk writes — writes spanning
    /// several units. Such data is written, read back and discarded as one,
    /// so it is not placed by temperature but striped over every open user
    /// zone in turn, to keep the device's parallelism for the read-back.
    pub fn bulk_stream(&self, turn: u64) -> Stream {
        let user = [Stream::Hot, Stream::Warm, Stream::Cold];
        let lanes: usize = user.iter().map(|&s| self.zones(s)).sum();
        // Round by round, every stream that still has a zone to offer.
        (0..lanes)
            .flat_map(|round| user.into_iter().filter(move |&s| self.zones(s) > round))
            .nth(turn as usize % lanes)
            .unwrap_or(Stream::Cold)
    }

    /// Stream for a survivor last written `age` ticks ago.
    pub fn survivor_stream(&self, age: u64, live_units: u64) -> Stream {
        let young = (age as f64) < YOUNG_SURVIVOR * live_units.max(1) as f64;
        if young && self.uses(Stream::GcYoung) {
            Stream::GcYoung
        } else {
            Stream::GcOld
        }
    }
}

/// Score of a closed zone as a victim (higher is collected first): units a
/// reset frees net of the copies, weighted by the square root of the ticks
/// since the zone's last append, per unit the pass must move. A zone with
/// nothing to move scores infinity.
pub fn victim_score(freed_units: u64, cost_units: u64, age: u64) -> f64 {
    freed_units as f64 * (age as f64).sqrt() / cost_units as f64
}

/// Whether `reclaimable_units` of garbage in closed zones is more than the
/// background collector tolerates beside `live_units` of live data.
pub fn over_budget(reclaimable_units: u64, live_units: u64) -> bool {
    reclaimable_units as f64 > GARBAGE_BUDGET * live_units as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_map_to_streams_hottest_first() {
        let p = Placement::new(4, 2);
        assert_eq!(p.user_stream(None, 1000), Stream::Cold);
        assert_eq!(p.user_stream(Some(10), 1000), Stream::Hot);
        assert_eq!(p.user_stream(Some(1000), 1000), Stream::Warm);
        assert_eq!(p.user_stream(Some(10_000), 1000), Stream::Cold);
        assert_eq!(p.survivor_stream(10, 1000), Stream::GcYoung);
        assert_eq!(p.survivor_stream(10_000, 1000), Stream::GcOld);
    }

    #[test]
    fn the_budget_is_never_exceeded_and_spare_room_goes_to_the_hot_stream() {
        for (user, gc) in [(1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (8, 4)] {
            let p = Placement::new(user, gc);
            let open = |gc_kind| -> usize {
                let kind = Stream::ALL.iter().filter(|s| s.is_gc() == gc_kind);
                kind.map(|&s| p.zones(s)).sum()
            };
            assert!(
                open(false) <= user.max(1) as usize,
                "user zones of ({user}, {gc})"
            );
            assert!(
                open(true) <= gc.max(1) as usize,
                "survivor zones of ({user}, {gc})"
            );
        }
        assert_eq!(Placement::new(4, 2).zones(Stream::Hot), 2);
        assert_eq!(Placement::new(3, 2).zones(Stream::Hot), 1);
    }

    #[test]
    fn bulk_units_take_every_user_zone_in_turn() {
        let p = Placement::new(4, 2);
        let lap: Vec<Stream> = (0..4).map(|t| p.bulk_stream(t)).collect();
        assert_eq!(lap, [Stream::Hot, Stream::Warm, Stream::Cold, Stream::Hot]);
        assert_eq!(p.bulk_stream(4), Stream::Hot);
        assert_eq!(Placement::new(1, 1).bulk_stream(7), Stream::Cold);
    }

    #[test]
    fn a_small_budget_merges_the_coldest_classes() {
        let two = Placement::new(2, 1);
        assert_eq!(two.user_stream(Some(10), 1000), Stream::Hot);
        assert_eq!(two.user_stream(Some(1000), 1000), Stream::Cold);
        assert_eq!(two.survivor_stream(10, 1000), Stream::GcOld);
        let one = Placement::new(1, 0);
        for s in Stream::ALL {
            assert_eq!(one.uses(s), matches!(s, Stream::Cold | Stream::GcOld));
        }
        assert_eq!(one.user_stream(Some(10), 1000), Stream::Cold);
    }

    #[test]
    fn score_prefers_emptier_and_older_but_age_is_sublinear() {
        // Same age: the emptier zone wins.
        assert!(victim_score(60, 4, 100) > victim_score(32, 32, 100));
        // Same liveness: the older zone wins.
        assert!(victim_score(32, 32, 400) > victim_score(32, 32, 100));
        // A 90 %-live zone needs to be far more than 9× older than a
        // half-empty one before it is picked.
        assert!(victim_score(6, 58, 81 * 100) < victim_score(32, 32, 100));
        assert_eq!(victim_score(64, 0, 1), f64::INFINITY);
    }

    #[test]
    fn budget_is_a_fraction_of_live_data() {
        assert!(!over_budget(0, 0));
        assert!(!over_budget(100, 1000));
        assert!(over_budget(300, 1000));
        assert!(over_budget(1, 0));
    }
}
