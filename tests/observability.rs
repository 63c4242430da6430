//! Observability integration: the tracing pipeline must not just be
//! passive (see `determinism.rs`) — it must be *right*. Under a known
//! fault, the slow-op ring and per-component attribution have to point at
//! the actual culprit.
//!
//! The scenario (`rablock_bench::scenarios::gray_config`): a 3-node
//! replicated cluster in the coupled Ptc pipeline
//! (writes wait for the device), with one device running 8x slow behind a
//! gray-failure window that covers the whole run. Every write replicates
//! across all three OSDs, so the gray device sits on every op's critical
//! path and must dominate both the slow-op span trees and the aggregate
//! latency attribution.

use rablock::sim::{Component, SimDuration, Track};
use rablock_bench::scenarios::{gray_config, GRAY_LOAD, GRAY_OSD};

/// The worst ops in the slow-op ring must attribute their dominant span to
/// the gray OSD's device, and the aggregate attribution must put the device
/// component in front of every other bucket.
#[test]
fn slow_ops_blame_the_gray_device() {
    let mut sim = GRAY_LOAD.sim(gray_config());
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(50));
    assert!(r.writes_done > 100, "run must make progress");

    let att = r.attribution.as_ref().expect("tracing was enabled");
    assert!(att.ops > 100, "attribution saw the measured ops");
    assert!(
        !att.slow_ops.is_empty(),
        "slow-op ring captured the worst ops"
    );

    // Every captured slow op carries a full span tree; the worst ones must
    // blame the gray device specifically — right component, right OSD.
    let blamed = att
        .slow_ops
        .iter()
        .filter(|op| {
            op.dominant_span()
                .is_some_and(|s| s.comp == Component::Device && s.track == Track::Osd(GRAY_OSD))
        })
        .count();
    assert!(
        blamed * 2 > att.slow_ops.len(),
        "majority of slow ops must blame the gray device: {blamed}/{}",
        att.slow_ops.len()
    );
    let worst = &att.slow_ops[0];
    let dom = worst.dominant_span().expect("worst op has spans");
    assert_eq!(
        (dom.comp, dom.track),
        (Component::Device, Track::Osd(GRAY_OSD)),
        "the single worst op's dominant span is the gray device ({}ns of {}ns total)",
        dom.dur.as_nanos(),
        worst.total.as_nanos()
    );

    // Aggregate attribution agrees: device is the top component overall.
    let device_share = att.share(Component::Device);
    for comp in [
        Component::Queue,
        Component::Service,
        Component::Network,
        Component::Nvm,
        Component::Retry,
        Component::Other,
    ] {
        assert!(
            device_share > att.share(comp),
            "device share {device_share:.3} must exceed {comp:?} share {:.3}",
            att.share(comp)
        );
    }
}
