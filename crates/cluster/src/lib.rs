//! # rablock-cluster — the distributed block-object cluster
//!
//! The cluster layer of the `rablock` workspace: a Ceph-like object storage
//! cluster rebuilt around the paper's three ideas (decoupled operation
//! processing, prioritized thread control, CPU-efficient object store),
//! together with every baseline it is measured against.
//!
//! * [`osd::Osd`] — the OSD daemon as a sans-io state machine, selectable
//!   via [`osd::PipelineMode`] between stock Ceph (`Original`), the roofline
//!   RTC variants, the `Cos`/`Ptc` ablations, the full `Dop` system, and
//!   the `Ideal` upper bound.
//! * [`placement`] — versioned cluster map with rendezvous-hash placement
//!   and a minimal monitor.
//! * [`sim_driver::ClusterSim`] — the deterministic simulation driver that
//!   regenerates the paper's figures: simulated cores/threads/devices,
//!   tagged CPU accounting, real backends inside.
//! * [`live_driver`] — the same protocol on real OS threads and channels.
//! * [`costs::CostModel`] — the per-stage CPU cost model (calibrated once
//!   against Fig. 1).
//! * [`invariants::HistoryChecker`] + [`retry::RetryPolicy`] — safety
//!   checking and the exactly-once client path for fault-injection runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml sets the threshold to 150: no handler grows back into a monolith.
#![warn(clippy::too_many_lines)]

pub mod costs;
pub mod invariants;
pub mod live_driver;
pub mod msg;
pub mod osd;
pub mod placement;
pub mod retry;
pub mod sim_driver;
