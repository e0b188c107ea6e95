//! Which media a figure's stack runs over.
//!
//! The paper's cross-interface question — "what does the block interface
//! cost compared to an application-specific FTL?" — needs the *same*
//! experiment to run over different personalities, so `fig5_throughput` and
//! `fig_qos_tail` run every one of [`MEDIA_BACKENDS`] in turn and print one
//! section each into the same report:
//!
//! * [`BenchBackend::OxBlock`] — the native path: the stack talks straight
//!   to the simulated Open-Channel device.
//! * [`BenchBackend::Oxztl`] — the stack's media is a virtual device
//!   exported by the zone-translation FTL ([`ZtlMedia`] implements [`Media`]
//!   over OX-ZNS zones); every chunk write becomes a zone append and chunk
//!   resets become durable trims.
//!
//! The key-value interface is not a [`Media`]; `fig_ablation` drives it
//! (with the other two) through its own adapters.

use crate::Report;
use ox_core::Media;
use ox_sim::SimTime;
use oxztl::{ZtlConfig, ZtlMedia};
use std::sync::Arc;

/// A media personality a figure's stack can run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchBackend {
    /// Native Open-Channel media.
    OxBlock,
    /// The zone-translation layer's virtual device over OX-ZNS.
    Oxztl,
}

/// The two media personalities a stack written against [`Media`] runs on,
/// in the order the figures print them.
pub const MEDIA_BACKENDS: [BenchBackend; 2] = [BenchBackend::OxBlock, BenchBackend::Oxztl];

/// Writes one section per [`MEDIA_BACKENDS`] entry into `out`, in order,
/// with a blank line between sections: the layout of the two-media figures'
/// tables.
pub fn media_sections(out: &mut Report, mut section: impl FnMut(BenchBackend, &mut Report)) {
    for (i, backend) in MEDIA_BACKENDS.into_iter().enumerate() {
        if i > 0 {
            out.line("");
        }
        section(backend, out);
    }
}

impl BenchBackend {
    /// Name in printed reports.
    pub fn label(&self) -> &'static str {
        match self {
            BenchBackend::OxBlock => "oxblock",
            BenchBackend::Oxztl => "oxztl",
        }
    }

    /// Wraps raw device media in this backend's personality. The `oxztl`
    /// personality formats a fresh translation layer (the figures all start
    /// from a formatted drive); it reports into the raw media's sinks, so
    /// `ztl.*` spans and counters land in the same snapshot as the stack
    /// above.
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
