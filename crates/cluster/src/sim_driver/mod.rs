//! Deterministic cluster simulation driver.
//!
//! Maps the sans-io OSD core onto the `rablock-sim` kernel: real OSD state
//! machines (real backends, real NVM logs) execute inside simulated threads
//! on simulated cores, with every CPU slice tagged (MP/RP/TP/OS/MT), every
//! store I/O replayed against a timed NVMe model, and every message paying
//! network latency. This is the machine all paper figures run on.
//!
//! Thread layouts by [`PipelineMode`]:
//!
//! * `Original`/`Cos` — messenger threads relay to PG threads (the stock
//!   thread-pool: every request hops threads several times).
//! * `RtcV1..V3` — run-to-completion threads own connections end to end.
//! * `Ptc`/`Dop`/`Ideal` — priority threads pinned to dedicated cores handle
//!   MP/RP (and NVM logging); non-priority threads share the remaining
//!   cores for flushes and store reads; maintenance runs at low priority.
//!
//! One concern per file: `topology` builds the cluster, `world` holds the
//! event vocabulary and runs OSD inputs and effects, `wire` carries every
//! message, `client` is the load, `control` the monitor and the fault
//! timeline, `tracing` the per-op spans, `report` the results. This file
//! holds the configuration and [`ClusterSim`]'s public face.

mod client;
mod control;
mod report;
mod topology;
mod tracing;
mod wire;
mod world;

use std::collections::BTreeMap;
use std::sync::Arc;

use rablock_sim::{
    FaultEvent, FaultPlan, Link, SimDuration, SimRng, SimTime, Simulation, ThreadId, TimeSeries,
};
use rablock_storage::{GroupId, ObjectId, Payload};

use crate::costs::CostModel;
use crate::invariants::{diff_replica_digests, HistoryChecker, ObjectCopy, ReplicaListing};
use crate::osd::{Osd, OsdConfig, PgState, PipelineMode};
use crate::placement::{OsdId, OsdMap};
use crate::retry::RetryPolicy;

pub use report::{fingerprint_hash, Fingerprint, SimReport, Word};

use client::LatencyRecorder;
use report::SamplerState;
use topology::Topology;
use world::{Ev, World};

/// Pseudo-node index of the monitor in fault-plan partition queries: the
/// monitor runs on no storage node, so plans that want to cut an OSD off
/// from the monitor (false-positive failure detection) partition the OSD's
/// node against this index.
pub const MON_NODE: usize = usize::MAX;

/// One operation a connection wants to issue.
#[derive(Clone, Debug)]
pub enum WorkItem {
    /// Write `len` bytes at `offset` (payload filled with `fill`).
    Write {
        /// Target object.
        oid: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Fill byte for the payload.
        fill: u8,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Target object.
        oid: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
    },
}

/// A per-connection workload generator (fio job / YCSB client).
pub trait ConnWorkload: Send {
    /// The next operation, or `None` when the connection is done.
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem>;
}

impl<F: FnMut(&mut SimRng) -> Option<WorkItem> + Send> ConnWorkload for F {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        self(rng)
    }
}

/// Cluster-level simulation configuration.
pub struct ClusterSimConfig {
    /// Storage nodes.
    pub nodes: u32,
    /// OSD daemons per node.
    pub osds_per_node: u32,
    /// Logical cores per storage node.
    pub cores_per_node: usize,
    /// Logical groups (PGs).
    pub pg_count: u32,
    /// Replication factor.
    pub replication: usize,
    /// Per-OSD configuration template: which of the paper's systems to run
    /// (`osd.mode`, read by the driver too), backend sizes, flush threshold …
    pub osd: OsdConfig,
    /// Messenger threads per OSD (Original/Cos).
    pub messenger_threads: usize,
    /// PG threads per OSD (Original/Cos).
    pub pg_threads: usize,
    /// RTC threads per OSD (RtcV1..V3).
    pub rtc_threads: usize,
    /// Priority threads per OSD (Ptc/Dop/Ideal).
    pub priority_threads: usize,
    /// Non-priority threads per OSD (Ptc/Dop/Ideal).
    pub non_priority_threads: usize,
    /// CPU cost model.
    pub costs: CostModel,
    /// One-way network latency and bandwidth.
    pub link: Link,
    /// RNG seed.
    pub seed: u64,
    /// Queue depth per connection (closed loop); ignored when `pacing` set.
    pub queue_depth: usize,
    /// Open-loop pacing: fixed inter-arrival per connection.
    pub pacing: Option<SimDuration>,
    /// Periodic flush sweep interval (decoupled mode timeout flushes).
    pub flush_sweep: SimDuration,
    /// Cost charged when a core switches between threads.
    pub ctx_switch: SimDuration,
    /// Deterministic fault-injection plan (drops, dups, partitions, crashes,
    /// gray devices). Empty by default.
    pub faults: FaultPlan,
    /// Client timeout/retry policy. `None` keeps the legacy client that
    /// waits forever (no fault tolerance, no timer overhead).
    pub retry: Option<RetryPolicy>,
    /// Heartbeat emission period. `None` disables heartbeat failure
    /// detection (the map only changes through direct injection).
    pub heartbeat_period: Option<SimDuration>,
    /// Missed-heartbeat window after which the monitor marks an OSD down.
    pub heartbeat_grace: SimDuration,
    /// Check the no-lost-acked-write / read-your-writes invariants on every
    /// completed operation (fault-injection runs).
    pub check_history: bool,
    /// Scheduled cluster-map churn: admin weight changes applied at the monitor
    /// at fixed times (grow-under-load, drains, rebalances). Empty by default.
    /// The backfill/recovery throttle knobs themselves live on the per-OSD
    /// template (`osd.max_backfill_inflight`, `osd.backfill_bytes_per_tick`).
    pub churn: Vec<ChurnOp>,
    /// OSD ids that start weighted *out* of placement: fully provisioned
    /// and heartbeating but holding no data until a churn op weaves them
    /// in. This is how grow scenarios pre-provision their final topology.
    pub initially_out: Vec<u32>,
    /// Per-op span tracing + latency attribution. Purely observational:
    /// fingerprints are byte-identical with tracing on or off.
    pub trace: bool,
    /// How many worst ops the slow-op ring keeps (with full span trees)
    /// when tracing is on.
    pub slow_op_ring: usize,
    /// Windowed time-series sampling cadence. `None` disables the sampler.
    /// Sampling happens *between* engine slices, never through events, so it
    /// cannot perturb the run.
    pub telemetry_window: Option<SimDuration>,
    /// Background scrub cadence: every interval, each group's primary is
    /// asked to scrub. `None` disables scrubbing entirely.
    pub scrub_interval: Option<SimDuration>,
    /// Every Nth scrub round is a *deep* scrub (full data read + per-block
    /// checksum verify); the others are light (metadata/digest compare).
    /// 0 makes every round light.
    pub scrub_deep_every: u64,
    /// Worker threads driving the space-parallel engine. The simulation is
    /// always partitioned into `nodes + 1` domains (clients + monitor in
    /// domain 0, one domain per storage node); `shards` only chooses how
    /// many OS threads execute those domains, so every metric is
    /// byte-identical for any value — parallelism changes wall-clock only.
    pub shards: usize,
    /// Conservative-synchronization lookahead override for the LBTS window.
    /// `None` uses the floor the network model guarantees: every
    /// cross-domain message pays at least `link.lookahead()` of latency.
    /// Tests force 1 ns here to maximize synchronization rounds.
    pub lookahead: Option<SimDuration>,
}

/// One scheduled admin map mutation (elastic-operations churn).
#[derive(Debug, Clone, Copy)]
pub struct ChurnOp {
    /// When the administrator applies the change.
    pub at: SimTime,
    /// Target OSD id.
    pub osd: u32,
    /// New placement weight: 0 drains the OSD,
    /// [`crate::placement::DEFAULT_OSD_WEIGHT`] weaves it in at unit share.
    pub weight: u32,
}

impl ClusterSimConfig {
    /// A small but faithful default cluster: 4 nodes × 2 OSDs, 10 cores
    /// per node, replication 2 — the paper's testbed scaled to laptop size.
    pub fn defaults(mode: PipelineMode) -> Self {
        ClusterSimConfig {
            nodes: 4,
            osds_per_node: 2,
            cores_per_node: 10,
            pg_count: 32,
            replication: 2,
            osd: OsdConfig {
                mode,
                ..OsdConfig::default()
            },
            messenger_threads: 2,
            pg_threads: 4,
            rtc_threads: 4,
            priority_threads: 2,
            non_priority_threads: 4,
            costs: CostModel::default(),
            link: Link::gbe_100(),
            seed: 0x5EED,
            queue_depth: 16,
            pacing: None,
            flush_sweep: SimDuration::millis(2),
            ctx_switch: SimDuration::nanos(1_200),
            faults: FaultPlan::none(),
            retry: None,
            heartbeat_period: None,
            heartbeat_grace: SimDuration::millis(30),
            check_history: false,
            churn: Vec::new(),
            initially_out: Vec::new(),
            trace: false,
            slow_op_ring: 32,
            telemetry_window: None,
            scrub_interval: None,
            scrub_deep_every: 4,
            shards: 1,
            lookahead: None,
        }
    }
}

/// A fully wired simulated cluster.
///
/// The simulation is partitioned into `nodes + 1` engine domains: domain 0
/// holds the clients, the monitor and the driver's control events; domain `1 +
/// n` holds storage node `n` (its cores, threads, NVMe device and OSDs).
/// `parts[d]` is the handler state of domain `d`. The partition is fixed at
/// construction — [`ClusterSimConfig::shards`] only picks how many OS threads
/// execute the domains, so results are byte-identical for every shard count.
pub struct ClusterSim {
    sim: Simulation<Ev>,
    /// One handler part per engine domain (see type-level docs).
    parts: Vec<World>,
    node_cores: Vec<std::ops::Range<usize>>,
    /// Per stage-class threads, for the class CPU% and queue-depth columns.
    class_threads: BTreeMap<&'static str, Vec<ThreadId>>,
    osd_count: usize,
    /// The wiring shared with every part (configuration, thread tables).
    topo: Arc<Topology>,
    /// Measurement-window start for the trace replay: `run` sets it after
    /// warmup so warmup spans do not pollute attribution.
    trace_reset_at: Option<SimTime>,
    /// Windowed samples collected during the measured phase.
    timeseries: TimeSeries,
    /// Threads belonging to each OSD (deduped), for per-OSD CPU% columns.
    osd_threads: Vec<Vec<ThreadId>>,
    /// Counter snapshots at the previous sample instant.
    sampler: SamplerState,
}

impl ClusterSim {
    /// The part (domain) that owns OSD `osd`'s state.
    fn part_of_osd(&self, osd: usize) -> usize {
        1 + osd / self.topo.cfg.osds_per_node as usize
    }

    /// Immutable access to one OSD (inspection helpers; the hot path uses
    /// `World::osd` inside the owning part).
    fn osd_ref(&self, osd: usize) -> &Osd {
        self.parts[self.part_of_osd(osd)].osd(osd)
    }

    fn osd_mut_ref(&mut self, osd: usize) -> &mut Osd {
        let part = self.part_of_osd(osd);
        self.parts[part].osd_mut(osd)
    }

    /// Whether the owning part considers `osd` crashed.
    fn is_dead(&self, osd: usize) -> bool {
        self.parts[self.part_of_osd(osd)].is_dead(osd)
    }

    /// Every OSD, in id order.
    fn osds(&self) -> impl Iterator<Item = &Osd> {
        (0..self.osd_count).map(|i| self.osd_ref(i))
    }

    /// The newest map any live OSD holds: what post-run inspection takes for
    /// "the current map". `None` when every OSD is dead.
    fn current_map(&self) -> Option<OsdMap> {
        let live = (0..self.osd_count).filter(|&i| !self.is_dead(i));
        let holder = live.max_by_key(|&i| self.osd_ref(i).map().epoch)?;
        Some(self.osd_ref(holder).map().clone())
    }

    /// Creates every object of `objects` on all replicas directly in the
    /// backends (instant provisioning, like creating RBD images before the
    /// measured run), and tells the history checker, if armed, that their
    /// blocks start as zeros.
    pub fn prefill(&mut self, objects: &[(ObjectId, u64)]) {
        for &(oid, size) in objects {
            if let Some(checker) = self.parts[0].checker.as_mut() {
                checker.prefilled(oid);
            }
            let set = self.parts[0].map.acting_set(oid.group());
            for osd in set {
                self.osd_mut_ref(osd.0 as usize).bootstrap_object(oid, size);
            }
        }
    }

    /// The cluster map (object routing in workload builders).
    pub fn map(&self) -> &OsdMap {
        &self.parts[0].map
    }

    /// Schedules an OSD process kill at absolute time `at` (§IV-A-4
    /// scenario injection). Nobody is told directly: the monitor concludes
    /// the failure from missed heartbeats (arm `heartbeat_period`), then
    /// map distribution, survivor flush-but-keep, and replacement log-pull
    /// all run inside the simulation.
    pub fn fail_osd(&mut self, at: rablock_sim::SimTime, osd: OsdId) {
        // Deliver on the victim's own maintenance thread — the handler
        // mutates that OSD's part, so it must run in its home domain.
        let process = osd.0 as usize;
        let fault = FaultEvent::Crash {
            process,
            torn_tail: false,
        };
        let crash = Ev::Fault { fault, seed: 0 };
        self.sim
            .schedule(at, self.topo.threads[process].maint, crash);
    }

    /// Client operations surfaced as errors so far (fault-injection runs).
    pub fn client_errors(&self) -> u64 {
        self.parts[0].client_errors
    }

    /// Per-OSD logical fill: the bytes of every extent a live,
    /// placement-eligible OSD tracks for the groups it currently serves. The
    /// input to the capacity-imbalance invariant after quiesce — drained/dead
    /// OSDs are excluded (their stale extents are handoff residue, not load).
    pub fn osd_fill_bytes(&self) -> Vec<(OsdId, u64)> {
        let Some(map) = self.current_map() else {
            return Vec::new();
        };
        let mut fills = Vec::new();
        for o in map.in_osds() {
            let i = o.id.0 as usize;
            if self.is_dead(i) {
                continue;
            }
            let mut total = 0u64;
            for g in 0..map.pg_count {
                let group = GroupId(g);
                if !map.acting_set(group).contains(&o.id) {
                    continue;
                }
                total += self
                    .osd_ref(i)
                    .group_extent_map(group)
                    .iter()
                    .map(|&(_, len)| len)
                    .sum::<u64>();
            }
            fills.push((o.id, total));
        }
        fills
    }

    /// Relative capacity imbalance across eligible OSDs: the largest
    /// deviation above the mean fill, as a fraction of the mean (see
    /// [`crate::invariants::capacity_imbalance`]).
    pub fn capacity_imbalance(&self) -> f64 {
        let fills: Vec<u64> = self.osd_fill_bytes().into_iter().map(|(_, b)| b).collect();
        crate::invariants::capacity_imbalance(&fills)
    }

    /// The history checker, when `check_history` armed it.
    pub fn checker(&self) -> Option<&HistoryChecker> {
        self.parts[0].checker.as_ref()
    }

    /// Pending op-log entries of one group on one OSD (recovery tests).
    pub fn log_pending(&self, osd: OsdId, group: GroupId) -> usize {
        self.osd_ref(osd.0 as usize).log_pending(group)
    }

    /// Everything a finished run left unhealed, one line each; empty means
    /// healed. Syncs every live OSD's pending log records into its backend,
    /// then walks the groups of the current map once. A group is listed when
    /// its live primary does not report it Active, with the group's own
    /// outstanding pushes; a join, when a live acting-set member is still
    /// joining the group, with what it waits on; an object, when the
    /// group's live acting-set members disagree on it, by the digest of the
    /// bytes they serve or by the `(size, checksum-vector digest)` they
    /// persist (see [`diff_replica_digests`]). Mutates backends (log
    /// re-apply), so call it only after the run.
    pub fn unhealed(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(map) = self.current_map() else {
            return out;
        };
        for i in 0..self.osd_count {
            if !self.is_dead(i) {
                self.osd_mut_ref(i).sync_backend_with_log();
            }
        }
        for group in (0..map.pg_count).map(GroupId) {
            let live = |o: OsdId| Some(o.0 as usize).filter(|&i| !self.is_dead(i));
            if let Some(i) = map.try_primary(group).and_then(live) {
                let (osd, g) = (self.osd_ref(i), group.0);
                let state = osd.pg_state(group);
                if state != PgState::Active {
                    let outstanding = osd.outstanding(group);
                    out.push(format!(
                        "group {g}: {state:?} at osd{i}, {outstanding} objects outstanding"
                    ));
                }
            }
            let members: Vec<usize> = map.acting_set(group).into_iter().filter_map(live).collect();
            for &m in &members {
                if let Some(waits) = self.osd_ref(m).join_waits(group) {
                    out.push(format!(
                        "group {}: osd{m} still joining, waits for {waits}",
                        group.0
                    ));
                }
            }
            if members.len() >= 2 {
                let listings = self.replica_listings(group, &members);
                let diffs = diff_replica_digests(&listings).into_iter();
                out.extend(diffs.map(|d| format!("group {}: {d}", group.0)));
            }
        }
        out
    }

    /// Each member's copy of every object any member tracks for `group`,
    /// read at the longest extent any of them tracks. A member reports
    /// persisted checksums only for the objects it tracks itself.
    fn replica_listings(&mut self, group: GroupId, members: &[usize]) -> Vec<ReplicaListing> {
        let mut extents: BTreeMap<u64, (ObjectId, u64)> = BTreeMap::new();
        for &m in members {
            for (oid, len) in self.osd_ref(m).group_extent_map(group) {
                let e = extents.entry(oid.raw()).or_insert((oid, len));
                e.1 = e.1.max(len);
            }
        }
        let mut listings = Vec::with_capacity(members.len());
        for &m in members {
            let osd = self.osd_mut_ref(m);
            let tracked = osd.group_extent_map(group);
            let copies = extents.values().map(|&(oid, len)| {
                let tracks = tracked.binary_search_by_key(&oid.raw(), |(o, _)| o.raw());
                let csum = tracks.ok().and_then(|_| osd.object_csum_digest(oid));
                let content = osd.object_digest(oid, len);
                (oid.raw(), ObjectCopy { content, csum })
            });
            listings.push((format!("osd{m}"), copies.collect()));
        }
        listings
    }

    /// Raw object bytes as served by one OSD's backend once it applied the
    /// group's pending log records (diagnostics).
    pub fn object_bytes(&mut self, osd: usize, oid: ObjectId, len: u64) -> Option<Payload> {
        self.osd_mut_ref(osd).debug_read(oid, len)
    }

    /// Test hook: flip data bits on one OSD's backend right now, outside the
    /// fault timeline. Same deterministic stream as a plan's scheduled rot; returns
    /// how many flips landed on mapped blocks. Use fault-plan
    /// [`rablock_sim::BitRotSchedule`] entries for scheduled rot — this is
    /// for tests that need rot at a precise point between runs.
    pub fn inject_data_rot(&mut self, osd: usize, lo: u64, hi: u64, flips: u32, seed: u64) -> u64 {
        self.osd_mut_ref(osd).inject_data_rot(lo, hi, flips, seed)
    }

    /// Per-OSD scrub/read-verification counters `(errors_found,
    /// errors_repaired, read_checksum_errors)` — test observability.
    pub fn integrity_counters(&self, osd: usize) -> (u64, u64, u64) {
        let o = self.osd_ref(osd);
        (
            o.scrub_errors_found,
            o.scrub_errors_repaired,
            o.read_checksum_errors,
        )
    }

    /// Runs for `warmup`, discards all statistics, then runs for `measure`
    /// and reports. With `telemetry_window` configured, the measured phase
    /// is executed as a sequence of `run_until` slices with one telemetry
    /// sample between consecutive slices — the engine sees the exact same
    /// event sequence as a single uninterrupted run, so the schedule (and
    /// every fingerprint) is unchanged.
    pub fn run(&mut self, warmup: SimDuration, measure: SimDuration) -> SimReport {
        let t0 = SimTime::ZERO + warmup;
        self.sim.run_until_parts(&mut self.parts, t0);
        // Reset every counter.
        self.sim.reset_metrics_window(t0);
        for i in 0..self.sim.device_count() {
            self.sim.device_mut(i).reset_stats();
        }
        for part in &mut self.parts {
            for osd in &mut part.osds {
                osd.backend_mut().reset_stats();
            }
        }
        let w0 = &mut self.parts[0];
        w0.write_lat = LatencyRecorder::default();
        w0.read_lat = LatencyRecorder::default();
        w0.writes_done = 0;
        w0.reads_done = 0;
        if w0.trace.is_some() {
            // Warmup entries stay in the per-part logs; the replay resets
            // its aggregation window when it crosses t0 instead (in-flight
            // op traces stay open, matching the old inline recorder).
            self.trace_reset_at = Some(t0);
        }
        self.timeseries.clear();
        self.rebaseline_sampler();

        let t1 = t0 + measure;
        if let Some(win) = self.topo.cfg.telemetry_window {
            let mut next = t0 + win;
            while next < t1 {
                self.sim.run_until_parts(&mut self.parts, next);
                self.sample_window();
                next += win;
            }
            self.sim.run_until_parts(&mut self.parts, t1);
            self.sample_window();
        } else {
            self.sim.run_until_parts(&mut self.parts, t1);
        }
        self.report(measure)
    }
}

#[cfg(test)]
mod tests;
