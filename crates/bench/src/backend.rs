//! The `OX_BACKEND` knob: run a figure's storage stack over the native
//! Open-Channel media or over the zone-translation layer (`oxztl`).
//!
//! The paper's cross-interface question — "what does the block interface
//! cost compared to an application-specific FTL?" — needs the *same*
//! experiment to run over different media personalities. [`ZtlMedia`]
//! implements [`Media`] over OX-ZNS zones, so any stack written against
//! the trait runs unmodified on a zoned drive; this module picks the
//! personality from the environment so one binary serves both CI matrix
//! legs:
//!
//! * `OX_BACKEND=oxblock` (or unset) — the native path: the stack talks
//!   straight to the simulated Open-Channel device.
//! * `OX_BACKEND=oxztl` — the stack's media is a virtual device exported
//!   by the zone-translation FTL; every chunk write becomes a zone append
//!   and chunk resets become durable trims.
//!
//! Artifact names gain a `.oxztl` infix under the translated backend so a
//! matrix run never clobbers the native results.

use ox_core::Media;
use ox_sim::SimTime;
use oxztl::{ZtlConfig, ZtlMedia};
use std::sync::Arc;

/// Which media personality the figure binaries run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchBackend {
    /// Native Open-Channel media (the default).
    OxBlock,
    /// The zone-translation layer's virtual device over OX-ZNS.
    Oxztl,
}

impl BenchBackend {
    /// Reads `OX_BACKEND` (`oxblock` default, `oxztl` opt-in).
    pub fn from_env() -> BenchBackend {
        match std::env::var("OX_BACKEND") {
            Ok(v) if v == "oxztl" => BenchBackend::Oxztl,
            Ok(v) if v == "oxblock" || v.is_empty() => BenchBackend::OxBlock,
            Ok(v) => panic!("OX_BACKEND={v}: expected \"oxblock\" or \"oxztl\""),
            Err(_) => BenchBackend::OxBlock,
        }
    }

    /// Stack label for printed reports.
    pub fn label(&self) -> &'static str {
        match self {
            BenchBackend::OxBlock => "oxblock",
            BenchBackend::Oxztl => "oxztl",
        }
    }

    /// Artifact name for this backend: the native path keeps the historical
    /// name, the translated path tags it.
    pub fn artifact(&self, base: &str) -> String {
        match self {
            BenchBackend::OxBlock => base.to_string(),
            BenchBackend::Oxztl => format!("{base}.oxztl"),
        }
    }

    /// Wraps raw device media in this backend's personality. The `oxztl`
    /// leg formats a fresh translation layer (the figures all start from a
    /// formatted drive); it reports into the raw media's sinks, so `ztl.*`
    /// spans and counters land in the same snapshot as the stack above.
    pub fn wrap_media(&self, raw: Arc<dyn Media>) -> Arc<dyn Media> {
        match self {
            BenchBackend::OxBlock => raw,
            BenchBackend::Oxztl => {
                let (media, _) = ZtlMedia::format(raw, ZtlConfig::default(), SimTime::ZERO)
                    .expect("ztl format on a fresh device");
                Arc::new(media)
            }
        }
    }
}
