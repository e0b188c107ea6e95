//! The `OX_BACKEND` knob: which storage interface a figure runs over.
//!
//! The paper's cross-interface question — "what does the block interface
//! cost compared to an application-specific FTL?" — needs the *same*
//! experiment to run over different personalities, so one binary serves
//! every CI matrix leg:
//!
//! * `OX_BACKEND=oxblock` — the native path: the stack talks straight to
//!   the simulated Open-Channel device (what the media figures do when the
//!   variable is unset).
//! * `OX_BACKEND=oxztl` — the stack's media is a virtual device exported
//!   by the zone-translation FTL ([`ZtlMedia`] implements [`Media`] over
//!   OX-ZNS zones); every chunk write becomes a zone append and chunk
//!   resets become durable trims.
//! * `OX_BACKEND=kvssd` — the key-value interface; only `fig_ablation`
//!   has a leg for it.
//!
//! Each binary names the personalities it has a leg for; any other value
//! ends the run with status 2 before a device is built. A run the variable
//! selected writes `.<backend>`-tagged artifacts ([`crate::Report`]), so it
//! never overwrites the committed default.

use ox_core::Media;
use ox_sim::SimTime;
use oxztl::{ZtlConfig, ZtlMedia};
use std::sync::Arc;

/// A storage personality a figure binary can be pointed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchBackend {
    /// Native Open-Channel media / the block-interface FTL.
    OxBlock,
    /// The zone-translation layer's virtual device over OX-ZNS.
    Oxztl,
    /// The KV-SSD interface.
    Kvssd,
}

/// The two media personalities a stack written against [`Media`] runs on.
pub const MEDIA_BACKENDS: [BenchBackend; 2] = [BenchBackend::OxBlock, BenchBackend::Oxztl];

/// Every interface of the cross-interface ablation.
pub const ALL_BACKENDS: [BenchBackend; 3] = [
    BenchBackend::OxBlock,
    BenchBackend::Oxztl,
    BenchBackend::Kvssd,
];

impl BenchBackend {
    /// The one `OX_BACKEND` parser: `None` when the variable is unset or
    /// empty, the personality it names when `supported` lists it, and
    /// otherwise the message to die with.
    pub fn parse(
        value: Option<&str>,
        supported: &[BenchBackend],
    ) -> Result<Option<BenchBackend>, String> {
        let Some(value) = value.filter(|v| !v.is_empty()) else {
            return Ok(None);
        };
        match supported.iter().find(|b| b.label() == value) {
            Some(&b) => Ok(Some(b)),
            None => {
                let accepted: Vec<&str> = supported.iter().map(|b| b.label()).collect();
                Err(format!(
                    "OX_BACKEND={value}: this binary accepts {}",
                    accepted.join(", ")
                ))
            }
        }
    }

    /// Reads `OX_BACKEND` for a binary with a leg for each of `supported`;
    /// a value outside that list exits with status 2 and the accepted list.
    pub fn from_env(supported: &[BenchBackend]) -> Option<BenchBackend> {
        ocssd::matrix_knob("OX_BACKEND", |value| BenchBackend::parse(value, supported))
    }

    /// Name in `OX_BACKEND`, printed reports and artifact tags.
    pub fn label(&self) -> &'static str {
        match self {
            BenchBackend::OxBlock => "oxblock",
            BenchBackend::Oxztl => "oxztl",
            BenchBackend::Kvssd => "kvssd",
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
            BenchBackend::Kvssd => {
                panic!("kvssd is a key-value interface, not one of MEDIA_BACKENDS")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ox_backend_is_unset_or_supported_or_refused_with_the_accepted_list() {
        for unset in [None, Some("")] {
            assert_eq!(BenchBackend::parse(unset, &ALL_BACKENDS), Ok(None));
        }
        assert_eq!(
            BenchBackend::parse(Some("kvssd"), &ALL_BACKENDS),
            Ok(Some(BenchBackend::Kvssd))
        );
        assert_eq!(
            BenchBackend::parse(Some("oxztl"), &MEDIA_BACKENDS),
            Ok(Some(BenchBackend::Oxztl))
        );
        // A personality another binary has a leg for is as wrong as a typo.
        for refused in ["kvssd", "oxzt1"] {
            let msg = BenchBackend::parse(Some(refused), &MEDIA_BACKENDS)
                .expect_err("not a media personality");
            assert_eq!(
                msg,
                format!("OX_BACKEND={refused}: this binary accepts oxblock, oxztl")
            );
        }
    }
}
