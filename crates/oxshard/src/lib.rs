//! # oxshard — sharded multi-device serving layer
//!
//! The horizontal layer of the workbench: a keyspace striped across N
//! independent simulated Open-Channel SSDs, each with its own OX-Block FTL,
//! garbage collector and `iosched` submission queues. The paper's §4.3
//! isolation story is vertical (tenants sharing one device); this crate is
//! the ROADMAP's "millions of users" answer — scale by adding devices, keep
//! per-device QoS, and survive device-local media decay by moving keyspace
//! away from failing shards.
//!
//! * [`router`] — pluggable consistent-hash or range sharding over a fixed
//!   2520-slot table with exact movement bounds.
//! * [`store`] — one shard: self-identifying one-page records over OX-Block,
//!   directory rebuilt from the mapping after a crash.
//! * [`cluster`] — the serving layer: routing, scatter-gather scans,
//!   bad-block-driven rebalancing, cluster-wide crash recovery.
//! * [`clients`] — thousands of cooperative virtual-time clients on the
//!   [`ox_sim::Executor`], with per-shard latency attribution.
//!
//! Correctness is proptest-driven (`tests/routing_proptests.rs`,
//! `tests/crash_fault_proptests.rs`), swept across seeds × shard counts ×
//! geometries by the `shard-matrix` CI job. See `docs/sharding.md`.

pub mod clients;
pub mod cluster;
pub mod error;
pub mod router;
pub mod store;

pub use clients::{drive, workload_key, DriveReport, SharedCluster, WorkloadConfig};
pub use cluster::{ClusterConfig, ClusterStats, ScanEntry, ShardCluster};
pub use error::ShardError;
pub use router::{Router, Sharding, SLOTS};
pub use store::{decode_record, encode_record, ShardStore, MAX_KEY_BYTES, MAX_VALUE_BYTES};

/// Shard-count leg of the CI shard matrix: `OX_SHARD_COUNT=n`, 2 to 8 so
/// routing and rebalancing properties stay meaningful (default 4). Any other
/// value ends the run ([`ocssd::matrix_knob`]).
pub fn matrix_shards() -> u32 {
    ocssd::matrix_knob("OX_SHARD_COUNT", parse_shards)
}

fn parse_shards(value: Option<&str>) -> Result<u32, String> {
    match value {
        None => Ok(4),
        Some(v) => v
            .parse()
            .ok()
            .filter(|n| (2..=8).contains(n))
            .ok_or_else(|| format!("OX_SHARD_COUNT={v}: accepted values are 2 to 8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_is_unset_or_in_range_or_refused() {
        assert_eq!(parse_shards(None), Ok(4));
        assert_eq!(parse_shards(Some("2")), Ok(2));
        assert_eq!(parse_shards(Some("8")), Ok(8));
        for refused in ["1", "9", "0", "-4", "four", "4 "] {
            assert_eq!(
                parse_shards(Some(refused)),
                Err(format!(
                    "OX_SHARD_COUNT={refused}: accepted values are 2 to 8"
                ))
            );
        }
    }
}
