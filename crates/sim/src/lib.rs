//! # rablock-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under `rablock`'s benchmark harnesses: a discrete-event
//! simulation of CPU cores, schedulable threads, storage devices and network
//! links, with per-stage CPU accounting.
//!
//! The distributed block storage paper this workspace reproduces (ICDCS'21,
//! *Re-architecting Distributed Block Storage System…*) attributes its wins to
//! CPU-level phenomena — context-switch overhead, priority inversion between
//! latency-critical and batch work, and backend-store CPU burn. This kernel
//! models exactly those phenomena, deterministically, so the paper's figures
//! can be regenerated on a laptop:
//!
//! * [`Simulation`] — event loop over cores/threads/devices.
//! * [`ThreadCfg`]/[`Priority`] — thread-pool, run-to-completion and
//!   prioritized-thread-control scheduling policies are all expressible as
//!   affinity + priority configurations.
//! * [`Device`]/[`DeviceProfile`] — queued NVMe SSD and ramdisk-NVM timing
//!   models calibrated to the paper's hardware envelopes.
//! * [`Link`] — 100 GbE-like serialization + latency.
//! * [`Metrics`] — CPU% per stage tag (MP/RP/TP/OS/MT), context switches.
//!
//! ## Example
//!
//! ```
//! use rablock_sim::*;
//!
//! let mut sim: Simulation<&'static str> = Simulation::new(0xAB);
//! let core = sim.add_core();
//! let t = sim.add_thread(ThreadCfg::new("worker", vec![core], Priority::Normal));
//! let ssd = sim.add_device(Device::new("ssd0", DeviceProfile::nvme_pm1725a(SsdState::Steady)));
//!
//! sim.schedule(SimTime::ZERO, t, "write");
//! let mut done = false;
//! sim.run_to_completion(&mut |thread: usize, msg: &'static str, ctx: &mut Ctx<'_, &'static str>| {
//!     match msg {
//!         "write" => {
//!             ctx.spend("OS", SimDuration::micros(5));
//!             ctx.submit_io(ssd, IoRequest::write(4096), thread, "completed");
//!         }
//!         "completed" => done = true,
//!         _ => unreachable!(),
//!     }
//! });
//! assert!(done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod engine;
mod faults;
mod link;
mod metrics;
mod rng;
mod sched;
mod time;
pub mod trace;

pub use device::{Device, DeviceProfile, DeviceStats, IoKind, IoRequest, SsdState};
pub use engine::{
    CoreId, Ctx, DeviceId, Handler, Priority, RoundStats, Simulation, ThreadCfg, ThreadId,
    WorkerRoundStats,
};
pub use faults::{
    BitRotSchedule, CrashSchedule, FaultEvent, FaultPlan, GrayWindow, LinkFault, MessageFate,
    Partition, RotMedia,
};
pub use link::Link;
pub use metrics::{Metrics, StageTag};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{
    chrome_trace_json, AttributionReport, Component, LatSummary, Recorder, SlowOp, Span,
    TimeSeries, TraceId, Track,
};
