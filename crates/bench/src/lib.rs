//! # ox-bench — experiment harness for the paper's tables and figures
//!
//! One module per reproduced artifact; the `src/bin/` binaries report the
//! paper-style rows through one [`Report`], and the smoke tests assert the
//! qualitative shapes.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`ablation`] | §5 — cross-interface YCSB ablation (block / ZTL / KV) |
//! | [`backend`] | `OX_BACKEND` knob — which storage interface a figure runs over |
//! | [`fig3`] | Figure 3 — checkpoint interval vs. recovery time |
//! | [`fig5`] | Figure 5 — db_bench throughput, horizontal vs. vertical |
//! | [`fig6`] | Figure 6 — fill-sequential throughput over time |
//! | [`fig7`] | Figure 7 — controller CPU vs. host write threads |
//! | [`gc_locality`] | §4.3 — GC interference locality (93.75 % / 87.5 %) |
//! | [`lifetime`] | ROADMAP — wear-coupled aging, scrub vs. no scrub |
//! | [`qos_tail`] | §4.3 — isolation as per-tenant read-latency percentiles |
//! | [`shard_scale`] | ROADMAP — aggregate throughput, 1→32 sharded devices |
//! | [`ycsb`] | ROADMAP — YCSB A–F over lsmkv and the oxshard layer |
//!
//! Scale note: the simulated drive uses the paper geometry with chunk count
//! and chunk size divided down (ratios preserved), and workload volumes are
//! scaled accordingly. Absolute ops/s differ from the paper's testbed; the
//! comparisons (who wins, by what factor, where behaviour changes) are the
//! reproduction targets. Each experiment reports its scaling.

#![warn(missing_docs)]

pub mod ablation;
pub mod backend;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod gc_locality;
pub mod lifetime;
pub mod qos_tail;
mod report;
pub mod shard_scale;
pub mod ycsb;

pub use report::Report;

use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
use ox_sim::trace::Obs;

/// A device for a figure run: `config`, reporting into `obs`. Every layer
/// built on its media reads the sinks from it, so this is the one place a
/// figure hands its [`Obs`] to a stack.
pub fn figure_device(config: DeviceConfig, obs: &Obs) -> SharedDevice {
    SharedDevice::new(OcssdDevice::new(DeviceConfig {
        obs: obs.clone(),
        ..config
    }))
}

/// Observability sinks for a figure run: metrics always collected, tracing
/// enabled with a bounded drop-oldest buffer (the tail of the run is kept).
pub fn figure_obs() -> Obs {
    let obs = Obs::new(65_536);
    obs.tracer.set_enabled(true);
    obs
}

/// True when quick mode is requested (`--quick` argument): smaller
/// workloads, same shapes.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
