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

use std::collections::{BTreeMap, HashMap};

use rablock_sim::{
    chrome_trace_json, AttributionReport, Component, Ctx, Device, DeviceProfile, DeviceStats,
    FaultEvent, FaultPlan, IoRequest, LatSummary, Link, Priority, Recorder, RotMedia, SimDuration,
    SimRng, SimTime, Simulation, SsdState, ThreadCfg, ThreadId, TimeSeries, TraceId, Track,
};
use rablock_storage::{GroupId, ObjectId, Payload, StoreError, StoreStats, TraceKind};

use crate::costs::{CostModel, CLIENT, MP, MT, OS, RP, TP};
use crate::invariants::{HistoryChecker, ReplicaListing};
use crate::msg::{ClientId, ClientReply, ClientReq, MonMsg, OpId, PeerMsg};
use crate::osd::{Osd, OsdConfig, OsdEffect, OsdInput, PgState, PipelineMode, StoreTokenOp};
use crate::placement::{Monitor, OsdId, OsdMap};
use crate::retry::RetryPolicy;

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
    /// Which of the paper's systems to run.
    pub mode: PipelineMode,
    /// Storage nodes.
    pub nodes: u32,
    /// OSD daemons per node.
    pub osds_per_node: u32,
    /// Logical cores per storage node.
    pub cores_per_node: usize,
    /// SSD wear state for the device model.
    pub ssd_state: SsdState,
    /// Logical groups (PGs).
    pub pg_count: u32,
    /// Replication factor.
    pub replication: usize,
    /// Per-OSD configuration template (backend sizes, flush threshold …).
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
    /// Scheduled cluster-map churn: admin weight changes applied at the
    /// monitor at fixed times (grow-under-load, drains, rebalances). Empty
    /// by default. The backfill/recovery throttle knobs themselves live on
    /// the per-OSD template (`osd.max_backfill_inflight`,
    /// `osd.backfill_bytes_per_tick`).
    pub churn: Vec<ChurnOp>,
    /// OSD ids that start weighted *out* of placement: fully provisioned
    /// and heartbeating but holding no data until a churn op weaves them
    /// in. This is how grow scenarios pre-provision their final topology.
    pub initially_out: Vec<u32>,
    /// Flap dampening: rejoining this many times within `flap_window`
    /// holds an OSD out for `flap_holdout`. 0 disables dampening.
    pub flap_threshold: u32,
    /// See `flap_threshold`.
    pub flap_window: SimDuration,
    /// See `flap_threshold`.
    pub flap_holdout: SimDuration,
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
            mode,
            nodes: 4,
            osds_per_node: 2,
            cores_per_node: 10,
            ssd_state: SsdState::Steady,
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
            flap_threshold: crate::placement::DEFAULT_FLAP_THRESHOLD,
            flap_window: SimDuration::nanos(crate::placement::DEFAULT_FLAP_WINDOW_NANOS),
            flap_holdout: SimDuration::nanos(crate::placement::DEFAULT_FLAP_HOLDOUT_NANOS),
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

/// Simulation events.
enum Ev {
    /// (Client thread) issue more work on a connection.
    ClientKick { conn: usize },
    /// (Client thread) a reply arrived for a connection.
    ClientDone { conn: usize, reply: ClientReply },
    /// (Messenger thread) relay an inbound client request (Original/Cos).
    MsgrClientIn {
        osd: usize,
        from: ClientId,
        req: ClientReq,
    },
    /// (Messenger thread) relay an inbound peer message (Original/Cos).
    MsgrPeerIn {
        osd: usize,
        from: OsdId,
        msg: PeerMsg,
    },
    /// (Messenger thread) relay an outbound reply (Original/Cos).
    MsgrReplyOut {
        osd: usize,
        to: ClientId,
        reply: ClientReply,
    },
    /// (Messenger thread) relay an outbound peer message (Original/Cos).
    MsgrPeerOut { osd: usize, to: OsdId, msg: PeerMsg },
    /// (Logic thread) process an OSD input; `charge_mp` if the messenger
    /// work happens in the same item (non-relay modes).
    OsdIn {
        osd: usize,
        input: OsdInput,
        charge_mp: Option<u64>,
    },
    /// (Any) one device I/O of a store token completed.
    IoDone { osd: usize, token: u64 },
    /// (Flusher thread) periodic timeout flush of pending groups.
    FlushSweep { osd: usize },
    /// (Maintenance thread) drip-feed one background I/O to the device —
    /// models the compaction I/O throttling every real LSM applies so
    /// background bursts do not jam the foreground queue.
    BgIo {
        osd: usize,
        ios: Vec<rablock_storage::TraceIo>,
        pos: usize,
    },
    /// (Any thread) an OSD process dies. Nobody else is told: detection
    /// happens through missed heartbeats (§IV-A-4 step ② is the monitor's
    /// own conclusion, not an oracle's).
    CrashOsd { osd: usize, torn_tail: bool },
    /// (Any thread) a crashed OSD restarts from its durable state.
    RestartOsd { osd: usize },
    /// (Any thread) a gray-failure window edge: scale a device's service
    /// time without killing anything.
    GraySet { device: usize, multiplier: f64 },
    /// (Frontend thread) an OSD's heartbeat timer fired.
    HeartbeatTick { osd: usize },
    /// (Monitor thread) a heartbeat beacon arrived at the monitor.
    MonHeartbeat { osd: usize },
    /// (Monitor thread) the monitor's periodic liveness sweep.
    MonSweep,
    /// (Client thread) the retry timer for an outstanding op fired.
    ClientTimeout { conn: usize, op: u64, attempt: u32 },
    /// (Driver thread) a scheduled admin map mutation (grow/drain/reweight)
    /// reaches the monitor. Index into the config's churn plan.
    Churn { idx: usize },
    /// (Driver thread) silent media corruption from the fault plan's
    /// timeline: flip bits on one OSD's SSD data blocks or NVM log ring.
    /// `seed` drives a self-contained target stream (never the scheduler
    /// RNG), so every shard count rots the exact same bits.
    BitRot {
        osd: usize,
        lo: u64,
        hi: u64,
        flips: u32,
        media: RotMedia,
        seed: u64,
    },
    /// (Driver thread) periodic scrub sweep: ask every group's live primary
    /// to start a scrub round.
    ScrubSweep { round: u64 },
}

#[derive(Clone)]
struct OsdThreads {
    /// Frontend (messenger/RTC/priority) threads.
    msgr: Vec<ThreadId>,
    /// Logic threads (PG threads for relay modes; same as msgr otherwise).
    logic: Vec<ThreadId>,
    /// Non-priority threads (flush / deferred reads), empty for stock modes.
    flusher: Vec<ThreadId>,
    /// Maintenance thread.
    maint: ThreadId,
    /// Device id of this OSD's NVMe SSD.
    device: usize,
    node: usize,
}

#[derive(Clone, Debug, Default)]
struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    fn record(&mut self, d: SimDuration) {
        if self.samples.len() < 4_000_000 {
            self.samples.push(d.as_nanos());
        }
    }

    fn summary(&self) -> LatSummary {
        LatSummary::from_samples(&self.samples)
    }
}

/// Identity of a traced op as known *locally* to one shard.
///
/// The client-side shard knows the real [`TraceId`] (connection + op). A
/// replica shard only knows the replication key `(primary_osd, seq)` its
/// message carried — the key→id join lives on the primary's shard and is
/// resolved at replay time, never across shards at simulation time.
#[derive(Copy, Clone, Debug)]
enum TraceRef {
    Tid(TraceId),
    Rep(u32, u64),
}

/// One recorder call, logged shard-locally and replayed after the run.
#[derive(Debug)]
enum TraceOp {
    Begin {
        id: TraceId,
        is_write: bool,
    },
    Span {
        id: TraceRef,
        name: &'static str,
        track: Track,
        start: SimTime,
        dur: SimDuration,
        comp: Component,
    },
    Retry {
        id: TraceId,
    },
    RegisterRep {
        primary: u32,
        seq: u64,
        id: TraceRef,
    },
    Finish {
        id: TraceId,
    },
    Abandon {
        id: TraceId,
    },
}

/// Per-shard tracing state. Tracing is purely observational, so shards log
/// recorder calls instead of sharing a recorder: each entry is stamped with
/// the simulated instant it was emitted, and [`ClusterSim::replay_recorder`]
/// merges the logs in `(time, shard, index)` order — a total order that is
/// identical for any worker count — and replays them into one [`Recorder`].
/// Cross-shard joins (replication key → trace id) resolve during replay:
/// registration on the primary precedes any replica-side use by at least
/// one network lookahead of simulated time, so the merge order is always
/// registration-first.
struct PartTrace {
    log: Vec<(SimTime, TraceOp)>,
    /// `(osd, token)` → (trace ref, submit time) for in-flight store I/O —
    /// submitted and completed on the same shard.
    io_trace: HashMap<(usize, u64), (TraceRef, SimTime)>,
    /// NVM nanoseconds charged by effects of the item being handled
    /// (split out of the service span).
    pending_nvm: u64,
}

impl PartTrace {
    fn new() -> PartTrace {
        PartTrace {
            log: Vec::new(),
            io_trace: HashMap::new(),
            pending_nvm: 0,
        }
    }
}

#[derive(Default)]
struct RtcGate {
    busy: bool,
    deferred: std::collections::VecDeque<Ev>,
}

/// One outstanding client operation.
struct Pending {
    is_write: bool,
    issued: SimTime,
    /// Attempt number of the most recent transmission (1-based). A timeout
    /// event only acts when its attempt matches, so stale timers are inert.
    attempt: u32,
    /// The request itself, kept when retries or history checking need it.
    req: Option<ClientReq>,
    /// Checksum-mismatch replies seen for this op. A non-zero count makes
    /// the retransmission rotate the read through the acting set instead of
    /// re-hitting the primary's rotten copy (redirect-on-corruption).
    csum_redirects: u32,
}

struct ConnState {
    id: ClientId,
    thread: ThreadId,
    workload: Box<dyn ConnWorkload>,
    outstanding: HashMap<u64, Pending>,
    next_op: u64,
    exhausted: bool,
}

/// Aggregated results of one measured window.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured wall-clock (simulated) duration.
    pub duration: SimDuration,
    /// Completed writes (and creates) in the window.
    pub writes_done: u64,
    /// Completed reads in the window.
    pub reads_done: u64,
    /// Write IOPS.
    pub write_iops: f64,
    /// Read IOPS.
    pub read_iops: f64,
    /// Write latency summary (mean / p50 / p95 / p99 / p99.9).
    pub write_lat: LatSummary,
    /// Read latency summary (mean / p50 / p95 / p99 / p99.9).
    pub read_lat: LatSummary,
    /// CPU usage per storage node (% of one core, paper convention).
    pub node_cpu_pct: Vec<f64>,
    /// CPU usage per stage tag across the cluster.
    pub tag_cpu_pct: BTreeMap<&'static str, f64>,
    /// CPU usage per thread class across the cluster.
    pub class_cpu_pct: BTreeMap<&'static str, f64>,
    /// Context switches charged in the window.
    pub context_switches: u64,
    /// Scheduler work items executed in the window (DES events that ran a
    /// handler) — the denominator for wall-clock events/sec.
    pub events_processed: u64,
    /// Aggregated backend store statistics (WAF).
    pub store: StoreStats,
    /// Aggregated device statistics.
    pub device: DeviceStats,
    /// Total NVM bytes written (operation logs).
    pub nvm_bytes: u64,
    /// Forced synchronous flushes because NVM filled up.
    pub nvm_full_stalls: u64,
    /// Client operations surfaced as errors (retry budget exhausted or an
    /// error reply under fault injection).
    pub client_errors: u64,
    /// Recovery pushes sent by all OSDs (log replay and backfill).
    pub recovery_pushes: u64,
    /// Bytes pushed by full-object backfill across all OSDs.
    pub backfill_bytes: u64,
    /// Recovery pushes deferred by the backfill throttle across all OSDs.
    pub backfill_queued: u64,
    /// Simulated time OSDs spent in throttled backfill windows (summed).
    pub backfill_throttled_nanos: u64,
    /// Rejoins the monitor's flap dampening refused.
    pub flaps_damped: u64,
    /// Objects still known missing on some peer at the end of the window
    /// (outstanding recovery work; zero once the cluster healed).
    pub degraded_objects: u64,
    /// Largest pending-event population the scheduler's queue reached over
    /// the whole run (cold-start sizing signal for the timing wheel).
    pub queue_high_water: u64,
    /// Scrub rounds completed across all OSDs.
    pub scrubs_completed: u64,
    /// Replica inconsistencies scrub comparison flagged (bad copies).
    pub scrub_errors_found: u64,
    /// Flagged inconsistencies repaired (self-heal fetches + peer pushes).
    pub scrub_errors_repaired: u64,
    /// Bytes deep scrub read back and re-verified.
    pub scrub_bytes: u64,
    /// Simulated time deep-scrub starts spent throttled behind the shared
    /// backfill byte budget (summed over OSDs).
    pub scrub_throttled_nanos: u64,
    /// Client reads the storage read path rejected with a checksum
    /// mismatch (each one triggers read-repair on the serving OSD).
    pub read_checksum_errors: u64,
    /// Per-component latency attribution (present when tracing is on).
    /// Excluded from determinism fingerprints: it is derived observational
    /// data, not simulation state.
    pub attribution: Option<AttributionReport>,
}

impl SimReport {
    /// Total client IOPS.
    pub fn total_iops(&self) -> f64 {
        self.write_iops + self.read_iops
    }

    /// Mean CPU usage per node.
    pub fn mean_node_cpu(&self) -> f64 {
        if self.node_cpu_pct.is_empty() {
            0.0
        } else {
            self.node_cpu_pct.iter().sum::<f64>() / self.node_cpu_pct.len() as f64
        }
    }

    /// Position of `queue_high_water` in [`SimReport::fingerprint`]. It is
    /// the one word that measures the *engine* rather than the simulation:
    /// how many events sit pending at once depends on when cross-domain
    /// events merge into the destination queue, which is what the lookahead
    /// window batches — so a comparison across window sizes masks it.
    pub const FINGERPRINT_QUEUE_HIGH_WATER: usize = 10;

    /// Everything a run is allowed to vary by between two executions of the
    /// same seed — nothing — flattened to integers so equality is
    /// byte-for-byte: raw counters, latency percentiles in nanoseconds, CPU
    /// percentages as IEEE-754 bit patterns, store/device accounting, and
    /// (when history checking is on) the checker's `(writes_acked,
    /// reads_checked)` verdict counts.
    pub fn fingerprint(&self, checker: Option<(u64, u64)>) -> Vec<u64> {
        // Exhaustive on purpose: a new report field does not compile until
        // someone decides here whether it is fingerprinted.
        let SimReport {
            duration,
            writes_done,
            reads_done,
            write_iops,
            read_iops,
            write_lat,
            read_lat,
            node_cpu_pct,
            tag_cpu_pct,
            class_cpu_pct,
            context_switches,
            events_processed,
            store,
            device,
            nvm_bytes,
            nvm_full_stalls,
            client_errors,
            recovery_pushes,
            backfill_bytes,
            backfill_queued,
            backfill_throttled_nanos,
            flaps_damped,
            degraded_objects,
            queue_high_water,
            scrubs_completed,
            scrub_errors_found,
            scrub_errors_repaired,
            scrub_bytes,
            scrub_throttled_nanos,
            read_checksum_errors,
            // Only exists when tracing is armed; traced must equal untraced.
            attribution: _,
        } = self;
        let StoreStats {
            user_bytes,
            wal_bytes,
            flush_bytes,
            compaction_bytes,
            data_bytes,
            metadata_bytes,
            superblock_bytes,
            read_bytes,
            transactions,
        } = *store;
        let DeviceStats {
            reads,
            writes,
            flushes,
            bytes_read,
            bytes_written,
            total_latency_ns,
        } = *device;
        let mut v = vec![
            duration.as_nanos(),
            *writes_done,
            *reads_done,
            write_iops.to_bits(),
            read_iops.to_bits(),
            *context_switches,
            *events_processed,
            *nvm_bytes,
            *nvm_full_stalls,
            *client_errors,
            *queue_high_water,
            *recovery_pushes,
            *backfill_bytes,
            *degraded_objects,
            *backfill_queued,
            *backfill_throttled_nanos,
            *flaps_damped,
            *scrubs_completed,
            *scrub_errors_found,
            *scrub_errors_repaired,
            *scrub_bytes,
            *scrub_throttled_nanos,
            *read_checksum_errors,
        ];
        debug_assert_eq!(v[Self::FINGERPRINT_QUEUE_HIGH_WATER], *queue_high_water);
        let lat = write_lat.fields().into_iter().chain(read_lat.fields());
        v.extend(lat.map(|d| d.as_nanos()));
        let cpu = node_cpu_pct
            .iter()
            .chain(tag_cpu_pct.values())
            .chain(class_cpu_pct.values());
        v.extend(cpu.map(|p| p.to_bits()));
        v.extend([
            user_bytes,
            wal_bytes,
            flush_bytes,
            compaction_bytes,
            data_bytes,
            metadata_bytes,
            superblock_bytes,
            read_bytes,
            transactions,
            reads,
            writes,
            flushes,
            bytes_read,
            bytes_written,
            total_latency_ns,
        ]);
        v.extend(
            checker
                .into_iter()
                .flat_map(|(acked, checked)| [acked, checked]),
        );
        v
    }
}

/// FNV-1a over fingerprint words: one hash line to print and compare.
pub fn fingerprint_hash(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

struct World {
    /// Which domain this part handles: 0 = clients + monitor + driver,
    /// `1 + n` = storage node `n`. The engine routes every event to the
    /// part owning its target thread, so each part only ever touches the
    /// state it owns; the remaining fields are immutable topology clones.
    part: u32,
    mode: PipelineMode,
    relay: bool,
    /// Proposed-system event-driven messenger (cheaper MP).
    lean: bool,
    costs: CostModel,
    /// This part's view of the cluster map. Part 0 (the monitor's part)
    /// installs new epochs directly; storage parts converge through the
    /// `MapUpdate` inputs the monitor broadcasts (monotone by epoch).
    map: OsdMap,
    /// Sparse, globally indexed: `Some` only for the OSDs this part owns.
    osds: Vec<Option<Osd>>,
    threads: Vec<OsdThreads>,
    /// Part 0 only (client events execute there); empty elsewhere.
    conns: Vec<ConnState>,
    /// Client thread per connection, cloned into every part so storage
    /// parts can address replies without touching part 0's `conns`.
    conn_threads: Vec<ThreadId>,
    /// Egress link per storage node, plus one shared client-side link.
    /// Every part holds the full vector but only drives its own entry
    /// (node egress for storage parts, the client link for part 0).
    links: Vec<Link>,
    /// Minimum latency a cross-domain control-plane send must pay so it
    /// never lands inside the engine's conservative lookahead window
    /// (equals the link latency the data plane already pays).
    net_hold: SimDuration,
    io_wait: HashMap<(usize, u64), usize>,
    /// OSDs that have failed (their events are dropped). Globally indexed;
    /// only the slots of this part's own OSDs are ever written.
    dead: Vec<bool>,
    /// Run-to-completion gating: a busy RTC thread defers new client
    /// requests until the in-flight operation replies (paper §III-B).
    rtc_gate: HashMap<ThreadId, RtcGate>,
    write_lat: LatencyRecorder,
    read_lat: LatencyRecorder,
    writes_done: u64,
    reads_done: u64,
    queue_depth: usize,
    pacing: Option<SimDuration>,
    flush_sweep: SimDuration,
    pg_count: u32,
    /// The fault plan for this run (empty = clean run, zero overhead).
    /// Stateless queries — cloning one per part changes nothing.
    faults: FaultPlan,
    /// The monitor: authoritative map plus heartbeat bookkeeping. Real on
    /// part 0, an inert placeholder elsewhere.
    monitor: Monitor,
    /// Client retry policy; `None` = legacy wait-forever client.
    retry: Option<RetryPolicy>,
    /// Heartbeat emission period, when detection is armed.
    heartbeat_period: Option<SimDuration>,
    /// Pending torn-tail flag per crashed OSD, applied at restart.
    crash_torn: Vec<bool>,
    /// Scheduled admin map mutations, indexed by `Ev::Churn`.
    churn: Vec<ChurnOp>,
    /// Safety-invariant checker, when armed.
    checker: Option<HistoryChecker>,
    client_errors: u64,
    /// Reusable effect buffer: `Osd::handle_into` appends here and
    /// `apply_effects` drains it, so the per-event `Vec` allocation the
    /// old `handle()` return paid is gone from the hot loop.
    fx_scratch: Vec<OsdEffect>,
    /// Interned write payloads keyed by `(fill, len)`. Workload generators
    /// produce constant-fill buffers, so identical ops can share one
    /// allocation (a `Payload` clone is a refcount bump) instead of paying
    /// a fresh memset + copy per issued write.
    payload_cache: HashMap<(u8, u64), rablock_storage::Payload>,
    /// Per-op span tracing; `None` when disabled (the common case).
    trace: Option<Box<PartTrace>>,
    /// Background scrub cadence (`None`: scrubbing off).
    scrub_interval: Option<SimDuration>,
    /// Every Nth scrub round reads and verifies data (0: never deep).
    scrub_deep_every: u64,
}

impl World {
    /// The given OSD, which must be owned by this part.
    fn osd(&self, i: usize) -> &Osd {
        self.osds[i].as_ref().unwrap_or_else(|| {
            panic!(
                "osd{i} not owned by part {} (event routed to wrong domain)",
                self.part
            )
        })
    }

    /// The given OSD, mutably; must be owned by this part.
    fn osd_mut(&mut self, i: usize) -> &mut Osd {
        self.osds[i]
            .as_mut()
            .expect("OSD not owned by this part (event routed to wrong domain)")
    }

    /// Runs one OSD input through the reusable effect scratch buffer.
    /// `cur` is the trace ref the input belongs to (span attribution for
    /// the effects it emits); `None` when untraced or tracing is off.
    fn handle_with_scratch(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        input: OsdInput,
        flush_batch: bool,
        cur: Option<TraceRef>,
    ) {
        let mut fx = std::mem::take(&mut self.fx_scratch);
        fx.clear();
        self.osd_mut(osd).handle_into(input, &mut fx);
        self.apply_effects(ctx, thread, osd, &mut fx, flush_batch, cur);
        self.fx_scratch = fx;
    }

    // ---- tracing helpers ---------------------------------------------
    //
    // Everything below is purely observational: trace refs are derived
    // from message content the handlers already carry (client id + op id
    // pack into a `TraceId`; replication sub-operations keep their
    // `(primary, seq)` wire key as a symbolic ref that the post-run
    // replay joins back to the parent op). No wire format changes, no
    // extra events, no RNG draws — with `self.trace == None` every
    // helper is a cheap no-op, which is what keeps fingerprints
    // byte-identical tracing on or off.

    /// Trace id of a client op: connections map 1:1 to `ClientId`.
    fn tid_of(client: ClientId, op: OpId) -> TraceId {
        TraceId::from_conn_op(client.0, op.0)
    }

    /// Appends one op to this part's trace log (no-op when tracing is off).
    fn trace_log(&mut self, at: SimTime, op: TraceOp) {
        if let Some(tr) = self.trace.as_mut() {
            tr.log.push((at, op));
        }
    }

    /// The trace ref a replicated-write sub-message belongs to.
    /// `Repop`/`RepopNvm` are keyed by the *sender* (the primary);
    /// acks are keyed by the *receiver* (also the primary). Replay
    /// resolves the key; an unregistered key simply drops the span, the
    /// same way the old inline lookup returned `None`.
    fn trace_of_peer_msg(&self, primary_osd: u32, from: OsdId, msg: &PeerMsg) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match msg {
            PeerMsg::Repop { seq, .. } | PeerMsg::RepopNvm { seq, .. } => {
                Some(TraceRef::Rep(from.0, *seq))
            }
            PeerMsg::RepAck { seq, .. } | PeerMsg::RepNack { seq, .. } => {
                Some(TraceRef::Rep(primary_osd, *seq))
            }
            _ => None,
        }
    }

    /// Classifies a store token back to the client op it serves.
    fn trace_of_store_op(&self, op: StoreTokenOp) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match op {
            StoreTokenOp::PrimaryWrite { client, op } | StoreTokenOp::Read { client, op } => {
                Some(TraceRef::Tid(Self::tid_of(client, op)))
            }
            StoreTokenOp::ReplicaPersist { primary, seq } => Some(TraceRef::Rep(primary.0, seq)),
            StoreTokenOp::Flush | StoreTokenOp::Background => None,
        }
    }

    /// Trace ref of the op behind a pending store I/O token, if any.
    fn trace_of_token(&self, osd: usize, token: u64) -> Option<TraceRef> {
        self.osd(osd)
            .store_token_op(token)
            .and_then(|op| self.trace_of_store_op(op))
    }

    /// Resolves the trace ref an OSD input belongs to, *before* the input
    /// is handled (the lookups consult OSD state the handler consumes).
    fn trace_of_input(&self, osd: usize, input: &OsdInput) -> Option<TraceRef> {
        self.trace.as_ref()?;
        match input {
            OsdInput::Client { from, req } => Some(TraceRef::Tid(Self::tid_of(*from, req.op()))),
            OsdInput::Peer { from, msg } => self.trace_of_peer_msg(self.osd(osd).id.0, *from, msg),
            OsdInput::StoreDurable { token } => self.trace_of_token(osd, *token),
            OsdInput::ReadFromStore { token } => self
                .osd(osd)
                .deferred_read_op(*token)
                .map(|(c, o)| TraceRef::Tid(Self::tid_of(c, o))),
            OsdInput::SubmitDeferred { token } => self
                .osd(osd)
                .deferred_submit_op(*token)
                .and_then(|op| self.trace_of_store_op(op)),
            _ => None,
        }
    }

    /// Span label for the stage an input runs in (mirrors `charge_input`).
    fn input_span_name(input: &OsdInput) -> &'static str {
        match input {
            OsdInput::Client { req, .. } => match req {
                ClientReq::Read { .. } => "rp.read",
                _ => "rp.primary",
            },
            OsdInput::Peer { msg, .. } => match msg {
                PeerMsg::Repop { .. } => "rp.replica",
                PeerMsg::RepopNvm { .. } => "rp.replica_nvm",
                PeerMsg::RepAck { .. } | PeerMsg::RepNack { .. } => "rp.ack",
                _ => "tp.recovery",
            },
            OsdInput::StoreDurable { .. } => "tp.complete",
            OsdInput::ReadFromStore { .. } => "os.read",
            OsdInput::SubmitDeferred { .. } => "os.submit",
            OsdInput::FlushGroup { .. } => "os.flush",
            _ => "osd",
        }
    }

    /// The fixed NVM-append CPU `charge_input` folds into this input, in
    /// nanoseconds (attributed to `Component::Nvm`, not `Service`).
    fn nvm_charge_of(&self, input: &OsdInput) -> u64 {
        match input {
            OsdInput::Client { req, .. }
                if matches!(req, ClientReq::Write { .. } | ClientReq::Create { .. })
                    && self.mode.decoupled() =>
            {
                self.costs.nvm_append.as_nanos()
            }
            OsdInput::Peer {
                msg: PeerMsg::RepopNvm { .. },
                ..
            } => self.costs.nvm_append.as_nanos(),
            _ => 0,
        }
    }

    /// Records the queue-wait / stage-service / NVM spans for one handled
    /// OSD input. Called after the handler ran, so `ctx.spent_so_far()`
    /// covers the item's full CPU charge.
    fn trace_osd_work(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        id: TraceRef,
        name: &'static str,
        nvm_static_ns: u64,
    ) {
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        let now = ctx.now();
        let track = Track::Osd(osd as u32);
        let queued = ctx.queued_for();
        if !queued.is_zero() {
            let start = SimTime::from_nanos(now.nanos().saturating_sub(queued.as_nanos()));
            tr.log.push((
                now,
                TraceOp::Span {
                    id,
                    name: "queue",
                    track,
                    start,
                    dur: queued,
                    comp: Component::Queue,
                },
            ));
        }
        let nvm_ns = nvm_static_ns + std::mem::take(&mut tr.pending_nvm);
        let service = ctx.spent_so_far().as_nanos().saturating_sub(nvm_ns);
        tr.log.push((
            now,
            TraceOp::Span {
                id,
                name,
                track,
                start: now,
                dur: SimDuration::nanos(service),
                comp: Component::Service,
            },
        ));
        if nvm_ns > 0 {
            tr.log.push((
                now,
                TraceOp::Span {
                    id,
                    name: "nvm.append",
                    track,
                    start: now,
                    dur: SimDuration::nanos(nvm_ns),
                    comp: Component::Nvm,
                },
            ));
        }
    }

    /// Records queue-wait plus messenger CPU for a relay-thread hop.
    fn trace_relay_work(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        id: TraceRef,
        name: &'static str,
    ) {
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        let now = ctx.now();
        let track = Track::Osd(osd as u32);
        let queued = ctx.queued_for();
        if !queued.is_zero() {
            let start = SimTime::from_nanos(now.nanos().saturating_sub(queued.as_nanos()));
            tr.log.push((
                now,
                TraceOp::Span {
                    id,
                    name: "queue",
                    track,
                    start,
                    dur: queued,
                    comp: Component::Queue,
                },
            ));
        }
        tr.log.push((
            now,
            TraceOp::Span {
                id,
                name,
                track,
                start: now,
                dur: ctx.spent_so_far(),
                comp: Component::Service,
            },
        ));
    }

    /// Records a network-hop span (message in flight for `delay` from
    /// `at`); `log_at` is the emitting event's own instant, which orders
    /// the entry in the replay merge.
    fn trace_net(
        &mut self,
        id: TraceRef,
        name: &'static str,
        track: Track,
        at: SimTime,
        delay: SimDuration,
        log_at: SimTime,
    ) {
        self.trace_log(
            log_at,
            TraceOp::Span {
                id,
                name,
                track,
                start: at,
                dur: delay,
                comp: Component::Network,
            },
        );
    }

    /// Joins an outgoing `Repop`/`RepopNvm` to its parent op so the
    /// replay can resolve replica-side and ack-side refs. The sender's
    /// part logs the registration at send time; any consumer of the key
    /// runs at least one network lookahead later in simulated time, so
    /// the replay merge always sees the registration first.
    fn trace_register_rep(
        &mut self,
        ctx: &Ctx<'_, Ev>,
        osd: usize,
        msg: &PeerMsg,
        cur: Option<TraceRef>,
    ) {
        if self.trace.is_none() {
            return;
        }
        let primary = self.osd(osd).id.0;
        let Some(id) = cur else {
            return;
        };
        if let PeerMsg::Repop { seq, .. } | PeerMsg::RepopNvm { seq, .. } = msg {
            self.trace_log(
                ctx.now(),
                TraceOp::RegisterRep {
                    primary,
                    seq: *seq,
                    id,
                },
            );
        }
    }

    /// One shared allocation per distinct `(fill, len)` payload pattern.
    fn intern_payload(&mut self, fill: u8, len: u64) -> rablock_storage::Payload {
        self.payload_cache
            .entry((fill, len))
            .or_insert_with(|| vec![fill; len as usize].into())
            .clone()
    }

    fn frontend_thread(&self, osd: usize, conn_hint: u64) -> ThreadId {
        let t = &self.threads[osd].msgr;
        t[(conn_hint as usize) % t.len()]
    }

    fn logic_thread(&self, osd: usize, group: GroupId) -> ThreadId {
        let t = &self.threads[osd].logic;
        t[group.0 as usize % t.len()]
    }

    fn flusher_thread(&self, osd: usize, hint: u64) -> ThreadId {
        let t = &self.threads[osd].flusher;
        if t.is_empty() {
            self.logic_thread(osd, GroupId(hint as u32 % self.pg_count))
        } else {
            t[hint as usize % t.len()]
        }
    }

    fn net_delay(&mut self, from_node: usize, now: SimTime, bytes: u64) -> SimDuration {
        let arrive = self.links[from_node].transfer(now, bytes);
        arrive.duration_since(now)
    }

    fn client_link(&self) -> usize {
        self.links.len() - 1
    }

    /// Pseudo-node index of the client side in partition queries. Equal to
    /// the client link index (one past the last storage node).
    fn client_node(&self) -> usize {
        self.client_link()
    }

    /// Queries the fault plan for one message's fate. Returns `None` when
    /// the message is dropped, otherwise `(extra_delay, Some(dup_gap))` when
    /// a duplicate must also be delivered `dup_gap` after the original.
    fn fate(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        link: usize,
        src: usize,
        dst: usize,
    ) -> Option<(SimDuration, Option<SimDuration>)> {
        if self.faults.is_empty() {
            return Some((SimDuration::ZERO, None));
        }
        let f = self
            .faults
            .message_fate(link, src, dst, ctx.now(), ctx.rng());
        if f.dropped {
            return None;
        }
        Some((f.extra_delay, f.duplicated.then_some(f.dup_gap)))
    }

    /// Publishes a new map: the monitor part's routing view changes and
    /// every OSD receives a `MapUpdate` one network hop later. Map
    /// distribution is the monitor's control plane and is modelled as
    /// reliable (data-plane faults come from the plan's link faults on
    /// OSD/client traffic). Liveness is the *receiving* part's business:
    /// a dead OSD's `OsdIn` handler drops the update, so the monitor
    /// part never needs another part's `dead` flags.
    fn install_map(&mut self, ctx: &mut Ctx<'_, Ev>, map: OsdMap) {
        self.map = map;
        for peer in 0..self.osds.len() {
            let t = self.logic_thread(peer, GroupId(0));
            let input = OsdInput::MapUpdate(self.map.clone());
            ctx.send_after(
                t,
                Ev::OsdIn {
                    osd: peer,
                    input,
                    charge_mp: None,
                },
                self.net_hold,
            );
        }
    }

    /// Dispatches an input to an OSD's logic thread.
    fn dispatch_logic(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        osd: usize,
        group_hint: GroupId,
        input: OsdInput,
        charge_mp: Option<u64>,
        delay: SimDuration,
    ) {
        let thread = self.logic_thread(osd, group_hint);
        ctx.send_after(
            thread,
            Ev::OsdIn {
                osd,
                input,
                charge_mp,
            },
            delay,
        );
    }

    /// Dispatches an incoming peer message to the right lane: recovery
    /// traffic (peering, pushes, backfill) rides the low-priority flusher
    /// threads under PTC so foreground IOPS degrade gracefully, everything
    /// else goes to the group's logic thread.
    fn dispatch_peer(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        osd: usize,
        from: OsdId,
        msg: PeerMsg,
        charge_mp: Option<u64>,
        delay: SimDuration,
    ) {
        let group = msg.group();
        let thread = if self.mode.prioritized() && msg.is_recovery() {
            self.flusher_thread(osd, group.0 as u64)
        } else {
            self.logic_thread(osd, group)
        };
        ctx.send_after(
            thread,
            Ev::OsdIn {
                osd,
                input: OsdInput::Peer { from, msg },
                charge_mp,
            },
            delay,
        );
    }

    #[allow(dead_code)] // kept: useful for future routing policies
    fn group_of_input(input: &OsdInput) -> GroupId {
        match input {
            OsdInput::Client { req, .. } => req.oid().group(),
            OsdInput::Peer { msg, .. } => msg.group(),
            OsdInput::FlushGroup { group } => *group,
            _ => GroupId(0),
        }
    }

    /// Charges stage CPU for processing `input` on the current thread.
    fn charge_input(&self, ctx: &mut Ctx<'_, Ev>, input: &OsdInput, charge_mp: Option<u64>) {
        let c = &self.costs;
        if let Some(bytes) = charge_mp {
            let lean = self.lean;
            ctx.spend(MP, c.recv(bytes, lean));
        }
        match input {
            OsdInput::Client { req, .. } => match req {
                ClientReq::Write { .. } | ClientReq::Create { .. } => {
                    ctx.spend(RP, c.rp_primary);
                    if self.mode.null_transaction() {
                        // MP+RP only.
                    } else if self.mode.decoupled() {
                        ctx.spend(RP, c.nvm_append);
                    } else if self.mode.prioritized() {
                        // PTC: TP/OS charged when the non-priority thread
                        // runs the deferred submit.
                    } else {
                        ctx.spend(TP, c.tp);
                        if !self.mode.null_store() {
                            let submit = if self.mode.lsm_backend() {
                                c.os_lsm_submit
                            } else {
                                c.os_cos_submit
                            };
                            ctx.spend(OS, submit);
                        }
                    }
                }
                ClientReq::Read { .. } => {
                    if self.mode.null_transaction() {
                        // immediate reply
                    } else if self.mode.decoupled() {
                        ctx.spend(RP, c.log_read);
                    } else if self.mode.prioritized() {
                        ctx.spend(RP, c.wake);
                    } else {
                        ctx.spend(TP, c.tp);
                        ctx.spend(OS, c.os_read);
                    }
                }
            },
            OsdInput::Peer { msg, .. } => match msg {
                PeerMsg::Repop { .. } => {
                    ctx.spend(RP, c.rp_replica);
                    if !self.mode.null_transaction()
                        && !self.mode.null_store()
                        && !self.mode.prioritized()
                    {
                        ctx.spend(TP, c.tp);
                        let submit = if self.mode.lsm_backend() {
                            c.os_lsm_submit
                        } else {
                            c.os_cos_submit
                        };
                        ctx.spend(OS, submit);
                    }
                }
                PeerMsg::RepopNvm { .. } => {
                    ctx.spend(RP, c.rp_replica);
                    ctx.spend(RP, c.nvm_append);
                }
                PeerMsg::RepAck { .. } | PeerMsg::RepNack { .. } => ctx.spend(RP, c.tp_complete),
                PeerMsg::PullLog { .. }
                | PeerMsg::LogRecords { .. }
                | PeerMsg::Backfill { .. }
                | PeerMsg::PgQuery { .. }
                | PeerMsg::PgInfo { .. }
                | PeerMsg::PushObject { .. }
                | PeerMsg::PushAck { .. }
                | PeerMsg::ScrubRequest { .. }
                | PeerMsg::ScrubMap { .. }
                | PeerMsg::ScrubFetch { .. } => ctx.spend(TP, c.tp),
            },
            OsdInput::StoreDurable { .. } => ctx.spend(TP, c.tp_complete),
            OsdInput::FlushGroup { .. } => {
                // Per-record costs are charged via the StoreIo trace below.
            }
            OsdInput::ReadFromStore { .. } => ctx.spend(OS, c.os_read),
            OsdInput::SubmitDeferred { .. } => {
                ctx.spend(TP, c.tp);
                let submit = if self.mode.lsm_backend() {
                    c.os_lsm_submit
                } else {
                    c.os_cos_submit
                };
                ctx.spend(OS, submit);
            }
            OsdInput::ScrubStart { .. } => ctx.spend(TP, c.tp),
            OsdInput::MaintStep => {}
            OsdInput::HeartbeatTick => ctx.spend(RP, c.wake),
            OsdInput::MapUpdate(_) => ctx.spend(TP, c.tp),
        }
    }

    fn apply_effects(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        thread: ThreadId,
        osd: usize,
        effects: &mut Vec<OsdEffect>,
        flush_batch: bool,
        cur: Option<TraceRef>,
    ) {
        let node = self.threads[osd].node;
        for effect in effects.drain(..) {
            match effect {
                OsdEffect::SendPeer { to, msg } => {
                    // Register replication sub-ops while the originating
                    // op's trace ref is in hand (both branches need it: the
                    // relay path re-resolves the ref at MsgrPeerOut time).
                    self.trace_register_rep(ctx, osd, &msg, cur);
                    let off_priority =
                        self.mode.prioritized() && !self.threads[osd].msgr.contains(&thread);
                    if self.relay || off_priority {
                        // Hand to a messenger/priority thread for the send
                        // side (§IV-B: sends go through the owning thread).
                        let t = self.frontend_thread(osd, to.0 as u64);
                        ctx.send(t, Ev::MsgrPeerOut { osd, to, msg });
                    } else {
                        ctx.spend(MP, self.costs.send(msg.wire_bytes(), self.lean));
                        let dest = to.0 as usize;
                        let dest_node = self.threads[dest].node;
                        let Some((extra, dup)) = self.fate(ctx, node, node, dest_node) else {
                            continue;
                        };
                        let bytes = msg.wire_bytes();
                        let delay = self.net_delay(node, ctx.now(), bytes) + extra;
                        // Outgoing direction: replication ops key on the
                        // sender (this OSD), acks on the receiver (`to`).
                        if let Some(id) = self.trace_of_peer_msg(to.0, self.osd(osd).id, &msg) {
                            self.trace_net(
                                id,
                                "net.peer",
                                Track::Osd(to.0),
                                ctx.now(),
                                delay,
                                ctx.now(),
                            );
                        }
                        let from = self.osd(osd).id;
                        if let Some(gap) = dup {
                            self.dispatch_peer(
                                ctx,
                                dest,
                                from,
                                msg.clone(),
                                Some(bytes),
                                delay + gap,
                            );
                        }
                        self.dispatch_peer(ctx, dest, from, msg, Some(bytes), delay);
                    }
                }
                OsdEffect::Reply { to, msg } => {
                    if self.mode.run_to_completion() {
                        if let Some(gate) = self.rtc_gate.get_mut(&thread) {
                            gate.busy = false;
                            if let Some(ev) = gate.deferred.pop_front() {
                                ctx.send(thread, ev);
                            }
                        }
                    }
                    let off_priority =
                        self.mode.prioritized() && !self.threads[osd].msgr.contains(&thread);
                    if self.relay || off_priority {
                        let t = self.frontend_thread(osd, to.0 as u64);
                        ctx.send(
                            t,
                            Ev::MsgrReplyOut {
                                osd,
                                to,
                                reply: msg,
                            },
                        );
                    } else {
                        ctx.spend(MP, self.costs.send(msg.wire_bytes(), self.lean));
                        let client_node = self.client_node();
                        let Some((extra, dup)) = self.fate(ctx, node, node, client_node) else {
                            continue;
                        };
                        let delay = self.net_delay(node, ctx.now(), msg.wire_bytes()) + extra;
                        let conn = to.0 as usize;
                        if self.trace.is_some() {
                            self.trace_net(
                                TraceRef::Tid(Self::tid_of(to, msg.op())),
                                "net.reply",
                                Track::Client(to.0),
                                ctx.now(),
                                delay,
                                ctx.now(),
                            );
                        }
                        let ct = self.conn_threads[conn];
                        if let Some(gap) = dup {
                            let reply = msg.clone();
                            ctx.send_after(ct, Ev::ClientDone { conn, reply }, delay + gap);
                        }
                        ctx.send_after(ct, Ev::ClientDone { conn, reply: msg }, delay);
                    }
                }
                OsdEffect::StoreIo { token, trace, wait } => {
                    // Stamp the device-queue span open: closed by the last
                    // `IoDone` for the token. The estimate charges device
                    // time from the moment the submitting item's CPU is
                    // spent (I/O overlaps any later CPU in the same item).
                    if self.trace.is_some() && wait {
                        if let Some(id) = self.trace_of_token(osd, token) {
                            let at = SimTime::from_nanos(
                                ctx.now().nanos() + ctx.spent_so_far().as_nanos(),
                            );
                            if let Some(tr) = self.trace.as_mut() {
                                tr.io_trace.insert((osd, token), (id, at));
                            }
                        }
                    }
                    let dev = self.threads[osd].device;
                    if !wait {
                        // Background work (compaction, write-back): throttle
                        // the I/Os so they interleave with foreground ops,
                        // as RocksDB's rate limiter does.
                        let ios: Vec<_> = trace
                            .into_iter()
                            .filter(|io| !matches!(io.kind, TraceKind::Flush))
                            .collect();
                        if !ios.is_empty() {
                            ctx.send(thread, Ev::BgIo { osd, ios, pos: 0 });
                        }
                        continue;
                    }
                    let mut ios = 0usize;
                    for io in &trace {
                        let req = match io.kind {
                            TraceKind::Read => IoRequest::read(io.bytes),
                            TraceKind::Write => IoRequest::write(io.bytes),
                            TraceKind::Flush => continue,
                        };
                        ios += 1;
                        ctx.submit_io(dev, req, thread, Ev::IoDone { osd, token });
                        if flush_batch && io.kind == TraceKind::Write {
                            // Amortized per-record store CPU for batch flushes.
                            ctx.spend(OS, self.costs.os_cos_submit);
                        }
                    }
                    if ios == 0 {
                        ctx.send(thread, Ev::IoDone { osd, token });
                        self.io_wait.insert((osd, token), 1);
                    } else {
                        self.io_wait.insert((osd, token), ios);
                    }
                }
                OsdEffect::NvmWritten { bytes } => {
                    let cost = self.costs.nvm_per_byte * bytes;
                    ctx.spend(RP, cost);
                    if let Some(tr) = self.trace.as_mut() {
                        // Folded out of the item's service span into the
                        // Nvm component by `trace_osd_work`.
                        tr.pending_nvm += cost.as_nanos();
                    }
                }
                OsdEffect::WakeFlush { group } => {
                    ctx.spend(RP, self.costs.wake);
                    let t = self.flusher_thread(osd, group.0 as u64);
                    ctx.send(
                        t,
                        Ev::OsdIn {
                            osd,
                            input: OsdInput::FlushGroup { group },
                            charge_mp: None,
                        },
                    );
                }
                OsdEffect::WakeRead { token } => {
                    ctx.spend(RP, self.costs.wake);
                    let t = self.flusher_thread(osd, token);
                    ctx.send(
                        t,
                        Ev::OsdIn {
                            osd,
                            input: OsdInput::ReadFromStore { token },
                            charge_mp: None,
                        },
                    );
                }
                OsdEffect::WakeSubmit { token } => {
                    ctx.spend(RP, self.costs.wake);
                    let t = self.flusher_thread(osd, token);
                    ctx.send(
                        t,
                        Ev::OsdIn {
                            osd,
                            input: OsdInput::SubmitDeferred { token },
                            charge_mp: None,
                        },
                    );
                }
                OsdEffect::WakeMaintenance => {
                    let t = self.threads[osd].maint;
                    ctx.send(
                        t,
                        Ev::OsdIn {
                            osd,
                            input: OsdInput::MaintStep,
                            charge_mp: None,
                        },
                    );
                }
                OsdEffect::Heartbeat => {
                    let beacon = MonMsg::Heartbeat {
                        osd: self.osd(osd).id,
                    };
                    ctx.spend(MP, self.costs.send(beacon.wire_bytes(), self.lean));
                    // Heartbeats cross the node's egress link and can be cut
                    // off from the monitor by a `MON_NODE` partition.
                    if let Some((extra, dup)) = self.fate(ctx, node, node, MON_NODE) {
                        let delay = self.net_delay(node, ctx.now(), beacon.wire_bytes()) + extra;
                        let mt = self.conn_threads[0];
                        ctx.send_after(mt, Ev::MonHeartbeat { osd }, delay);
                        if let Some(gap) = dup {
                            ctx.send_after(mt, Ev::MonHeartbeat { osd }, delay + gap);
                        }
                    }
                }
                OsdEffect::Maintained { bytes, .. } => {
                    ctx.spend(MT, self.costs.maintenance(bytes));
                }
            }
        }
    }

    fn issue_client_ops(&mut self, ctx: &mut Ctx<'_, Ev>, conn: usize) {
        loop {
            let open_loop = self.pacing.is_some();
            let budget = if open_loop {
                1
            } else {
                self.queue_depth
                    .saturating_sub(self.conns[conn].outstanding.len())
            };
            if budget == 0 || self.conns[conn].exhausted {
                return;
            }
            let item = {
                let c = &mut self.conns[conn];
                c.workload.next(ctx.rng())
            };
            let Some(item) = item else {
                self.conns[conn].exhausted = true;
                return;
            };
            let op = {
                let c = &mut self.conns[conn];
                let op = OpId(c.next_op);
                c.next_op += 1;
                op
            };
            let (req, is_write) = match item {
                WorkItem::Write {
                    oid,
                    offset,
                    len,
                    fill,
                } => (
                    ClientReq::Write {
                        op,
                        oid,
                        offset,
                        data: self.intern_payload(fill, len),
                    },
                    true,
                ),
                WorkItem::Read { oid, offset, len } => (
                    ClientReq::Read {
                        op,
                        oid,
                        offset,
                        len,
                    },
                    false,
                ),
            };
            let op_raw = req.op().0;
            if let Some(checker) = self.checker.as_mut() {
                if let ClientReq::Write {
                    oid, offset, data, ..
                } = &req
                {
                    let fill = data.first().copied().unwrap_or(0);
                    let id = self.conns[conn].id;
                    checker.write_issued(id, OpId(op_raw), *oid, *offset, data.len() as u64, fill);
                }
            }
            let keep_req = self.retry.is_some() || self.checker.is_some();
            let pending = Pending {
                is_write,
                issued: ctx.now(),
                attempt: 1,
                req: keep_req.then(|| req.clone()),
                csum_redirects: 0,
            };
            self.conns[conn].outstanding.insert(op_raw, pending);
            let begin_id = Self::tid_of(ClientId(conn as u32), OpId(op_raw));
            self.trace_log(
                ctx.now(),
                TraceOp::Begin {
                    id: begin_id,
                    is_write,
                },
            );
            if let Some(r) = self.retry {
                let thread = self.conns[conn].thread;
                let ev = Ev::ClientTimeout {
                    conn,
                    op: op_raw,
                    attempt: 1,
                };
                ctx.send_after(thread, ev, SimDuration::nanos(r.timeout_nanos));
            }
            self.send_client_req(ctx, conn, req, SimDuration::ZERO, 0);
            if open_loop {
                let pace = self.pacing.expect("open loop");
                let thread = self.conns[conn].thread;
                ctx.send_after(thread, Ev::ClientKick { conn }, pace);
                return;
            }
        }
    }

    /// Transmits `req` from `conn` toward the group's current primary,
    /// paying client CPU, link transfer and the plan's message fates.
    /// `hold` delays the transmission itself (retry backoff). A dropped
    /// message simply never arrives — the op stays outstanding until its
    /// retry timer fires (or forever, without a retry policy).
    fn send_client_req(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        conn: usize,
        req: ClientReq,
        hold: SimDuration,
        redirect: u32,
    ) {
        let group = req.oid().group();
        // Reads that bounced off a rotten replica rotate through the acting
        // set (redirect > 0) instead of re-reading the same damaged copy;
        // writes and first transmissions always target the primary.
        let target = if redirect > 0 && matches!(req, ClientReq::Read { .. }) {
            let set = self.map.acting_set(group);
            (!set.is_empty()).then(|| set[redirect as usize % set.len()])
        } else {
            self.map.try_primary(group)
        };
        let Some(primary) = target else {
            // Every OSD that could serve the group is down or weighted out:
            // a send can race a map change, so this must not panic. Surface
            // a retryable Degraded error — with a retry policy the op is
            // re-queued until a survivor map arrives, without one it is
            // accounted as a client error.
            let reply = ClientReply::Error {
                op: req.op(),
                error: StoreError::Degraded,
            };
            let thread = self.conns[conn].thread;
            ctx.send_after(
                thread,
                Ev::ClientDone { conn, reply },
                hold + SimDuration::micros(1),
            );
            return;
        };
        let osd = primary.0 as usize;
        let bytes = req.wire_bytes();
        ctx.spend(CLIENT, SimDuration::micros(2));
        let client_link = self.client_link();
        let client_node = self.client_node();
        let dest_node = self.threads[osd].node;
        let Some((extra, dup)) = self.fate(ctx, client_link, client_node, dest_node) else {
            return;
        };
        let delay = {
            let arrive = self.links[client_link].transfer(ctx.now(), bytes);
            arrive.duration_since(ctx.now())
        } + hold
            + extra;
        let from = self.conns[conn].id;
        if self.trace.is_some() {
            let id = TraceRef::Tid(Self::tid_of(from, req.op()));
            let track = Track::Client(from.0);
            if !hold.is_zero() {
                // Retry backoff: the op sits on the client before the
                // retransmission leaves.
                self.trace_log(
                    ctx.now(),
                    TraceOp::Span {
                        id,
                        name: "retry.backoff",
                        track,
                        start: ctx.now(),
                        dur: hold,
                        comp: Component::Retry,
                    },
                );
            }
            self.trace_net(
                id,
                "net.request",
                track,
                SimTime::from_nanos(ctx.now().nanos() + hold.as_nanos()),
                delay.saturating_sub(hold),
                ctx.now(),
            );
        }
        if self.relay {
            let t = self.frontend_thread(osd, conn as u64);
            if let Some(gap) = dup {
                let req = req.clone();
                ctx.send_after(t, Ev::MsgrClientIn { osd, from, req }, delay + gap);
            }
            ctx.send_after(t, Ev::MsgrClientIn { osd, from, req }, delay);
        } else {
            // Route by group so replication acks (also routed by group)
            // return to the thread that owns the operation.
            let t = self.logic_thread(osd, group);
            if let Some(gap) = dup {
                let input = OsdInput::Client {
                    from,
                    req: req.clone(),
                };
                ctx.send_after(
                    t,
                    Ev::OsdIn {
                        osd,
                        input,
                        charge_mp: Some(bytes),
                    },
                    delay + gap,
                );
            }
            let input = OsdInput::Client { from, req };
            ctx.send_after(
                t,
                Ev::OsdIn {
                    osd,
                    input,
                    charge_mp: Some(bytes),
                },
                delay,
            );
        }
    }
}

impl rablock_sim::Handler<Ev> for World {
    fn handle(&mut self, thread: ThreadId, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::ClientKick { conn } => {
                self.issue_client_ops(ctx, conn);
            }
            Ev::ClientDone { conn, reply } => {
                ctx.spend(CLIENT, SimDuration::micros(1));
                let op = reply.op().0;
                // A reply for an op that is no longer outstanding is a
                // duplicate (retried op acked twice, or a reply that arrived
                // after the retry budget gave up): ignore it entirely
                // instead of recording it a second time.
                let Some(p) = self.conns[conn].outstanding.remove(&op) else {
                    return;
                };
                let id = self.conns[conn].id;
                match &reply {
                    ClientReply::Error { error, .. } => {
                        if matches!(error, StoreError::Degraded | StoreError::ChecksumMismatch)
                            && self.retry.is_some()
                        {
                            // Retryable rejection: put the op back; its
                            // already-armed timeout retransmits with backoff
                            // until quorum returns / a clean replica answers
                            // (or the budget runs out and surfaces the
                            // error). A checksum mismatch additionally bumps
                            // the redirect cursor so the retry reads from
                            // the next acting-set member while the rotten
                            // copy read-repairs itself in the background.
                            let mut p = p;
                            if matches!(error, StoreError::ChecksumMismatch) {
                                p.csum_redirects += 1;
                            }
                            self.conns[conn].outstanding.insert(op, p);
                            return;
                        }
                        if self.faults.is_empty() && self.retry.is_none() {
                            panic!("client observed error: {error}");
                        }
                        self.client_errors += 1;
                        // Failed op: the replay drops the trace without
                        // folding it into the attribution histograms.
                        self.trace_log(
                            ctx.now(),
                            TraceOp::Abandon {
                                id: Self::tid_of(id, OpId(op)),
                            },
                        );
                    }
                    ok => {
                        let lat = ctx.now().duration_since(p.issued);
                        if p.is_write {
                            self.write_lat.record(lat);
                            self.writes_done += 1;
                        } else {
                            self.read_lat.record(lat);
                            self.reads_done += 1;
                        }
                        self.trace_log(
                            ctx.now(),
                            TraceOp::Finish {
                                id: Self::tid_of(id, OpId(op)),
                            },
                        );
                        if let Some(checker) = self.checker.as_mut() {
                            match (ok, &p.req) {
                                (ClientReply::Done { .. }, _) if p.is_write => {
                                    checker.write_acked(id, OpId(op));
                                }
                                (
                                    ClientReply::Data { data, .. },
                                    Some(ClientReq::Read {
                                        oid, offset, len, ..
                                    }),
                                ) => {
                                    checker.read_checked(*oid, *offset, *len, data);
                                }
                                _ => {}
                            }
                        }
                    }
                }
                if self.pacing.is_none() {
                    self.issue_client_ops(ctx, conn);
                }
            }
            Ev::MsgrClientIn { osd, from, req } => {
                ctx.spend(MP, self.costs.recv(req.wire_bytes(), self.lean));
                if self.trace.is_some() {
                    let id = TraceRef::Tid(Self::tid_of(from, req.op()));
                    self.trace_relay_work(ctx, osd, id, "mp.recv");
                }
                let group = req.oid().group();
                self.dispatch_logic(
                    ctx,
                    osd,
                    group,
                    OsdInput::Client { from, req },
                    None,
                    SimDuration::ZERO,
                );
            }
            Ev::MsgrPeerIn { osd, from, msg } => {
                ctx.spend(MP, self.costs.recv(msg.wire_bytes(), self.lean));
                if let Some(id) = self.trace_of_peer_msg(self.osd(osd).id.0, from, &msg) {
                    self.trace_relay_work(ctx, osd, id, "mp.recv");
                }
                self.dispatch_peer(ctx, osd, from, msg, None, SimDuration::ZERO);
            }
            Ev::MsgrReplyOut { osd, to, reply } => {
                ctx.spend(MP, self.costs.send(reply.wire_bytes(), self.lean));
                let node = self.threads[osd].node;
                let client_node = self.client_node();
                let Some((extra, dup)) = self.fate(ctx, node, node, client_node) else {
                    return;
                };
                let delay = self.net_delay(node, ctx.now(), reply.wire_bytes()) + extra;
                if self.trace.is_some() {
                    let id = TraceRef::Tid(Self::tid_of(to, reply.op()));
                    self.trace_relay_work(ctx, osd, id, "mp.send");
                    self.trace_net(
                        id,
                        "net.reply",
                        Track::Client(to.0),
                        ctx.now(),
                        delay,
                        ctx.now(),
                    );
                }
                let conn = to.0 as usize;
                let ct = self.conn_threads[conn];
                if let Some(gap) = dup {
                    let reply = reply.clone();
                    ctx.send_after(ct, Ev::ClientDone { conn, reply }, delay + gap);
                }
                ctx.send_after(ct, Ev::ClientDone { conn, reply }, delay);
            }
            Ev::MsgrPeerOut { osd, to, msg } => {
                ctx.spend(MP, self.costs.send(msg.wire_bytes(), self.lean));
                let node = self.threads[osd].node;
                let dest = to.0 as usize;
                let dest_node = self.threads[dest].node;
                let Some((extra, dup)) = self.fate(ctx, node, node, dest_node) else {
                    return;
                };
                let bytes = msg.wire_bytes();
                let delay = self.net_delay(node, ctx.now(), bytes) + extra;
                if let Some(id) = self.trace_of_peer_msg(to.0, self.osd(osd).id, &msg) {
                    self.trace_relay_work(ctx, osd, id, "mp.send");
                    self.trace_net(
                        id,
                        "net.peer",
                        Track::Osd(to.0),
                        ctx.now(),
                        delay,
                        ctx.now(),
                    );
                }
                let t = self.frontend_thread(dest, self.osd(osd).id.0 as u64);
                let from = self.osd(osd).id;
                if let Some(gap) = dup {
                    let msg = msg.clone();
                    ctx.send_after(
                        t,
                        Ev::MsgrPeerIn {
                            osd: dest,
                            from,
                            msg,
                        },
                        delay + gap,
                    );
                }
                ctx.send_after(
                    t,
                    Ev::MsgrPeerIn {
                        osd: dest,
                        from,
                        msg,
                    },
                    delay,
                );
            }
            Ev::OsdIn {
                osd,
                input,
                charge_mp,
            } => {
                // Track the monitor's broadcasts in this part's own map
                // view (monotone by epoch) — even for dead OSDs, since the
                // part-level view stands in for "what the network knows"
                // when a restarted OSD asks for the current map.
                if let OsdInput::MapUpdate(m) = &input {
                    if m.epoch > self.map.epoch {
                        self.map = m.clone();
                    }
                }
                if self.dead[osd] {
                    return; // failed OSDs process nothing
                }
                if self.mode.run_to_completion() && matches!(input, OsdInput::Client { .. }) {
                    let gate = self.rtc_gate.entry(thread).or_default();
                    if gate.busy {
                        gate.deferred.push_back(Ev::OsdIn {
                            osd,
                            input,
                            charge_mp,
                        });
                        return;
                    }
                    gate.busy = true;
                }
                let cur = self.trace_of_input(osd, &input);
                let span_name = Self::input_span_name(&input);
                let nvm_static = if cur.is_some() {
                    self.nvm_charge_of(&input)
                } else {
                    0
                };
                if let Some(tr) = self.trace.as_mut() {
                    tr.pending_nvm = 0;
                }
                self.charge_input(ctx, &input, charge_mp);
                let flush_batch = matches!(input, OsdInput::FlushGroup { .. });
                self.handle_with_scratch(ctx, thread, osd, input, flush_batch, cur);
                if let Some(id) = cur {
                    self.trace_osd_work(ctx, osd, id, span_name, nvm_static);
                }
            }
            Ev::CrashOsd { osd, torn_tail } => {
                // Process kill only: no oracle tells the monitor. Survivors
                // and clients find out through missed heartbeats and
                // timeouts. Pending device completions for the dead process
                // are forgotten so a post-restart token cannot collide.
                self.dead[osd] = true;
                self.crash_torn[osd] = torn_tail;
                self.io_wait.retain(|&(o, _), _| o != osd);
            }
            Ev::RestartOsd { osd } => {
                if !self.dead[osd] {
                    return;
                }
                self.dead[osd] = false;
                let torn = std::mem::replace(&mut self.crash_torn[osd], false);
                let _ = self.osd_mut(osd).restart_after_crash(torn);
                // Hand the restarted OSD the monitor's current view — it is
                // usually marked down in it, so the mark-up broadcast that
                // follows its first heartbeat triggers its log pull.
                let t = self.logic_thread(osd, GroupId(0));
                let input = OsdInput::MapUpdate(self.map.clone());
                ctx.send(
                    t,
                    Ev::OsdIn {
                        osd,
                        input,
                        charge_mp: None,
                    },
                );
            }
            Ev::GraySet { device, multiplier } => {
                ctx.set_device_service_multiplier(device, multiplier);
            }
            Ev::HeartbeatTick { osd } => {
                let Some(period) = self.heartbeat_period else {
                    return;
                };
                // Keep ticking even while dead, so a restarted OSD resumes
                // beaconing (and rejoins) without driver help.
                ctx.send_after(thread, Ev::HeartbeatTick { osd }, period);
                if self.dead[osd] {
                    return;
                }
                self.charge_input(ctx, &OsdInput::HeartbeatTick, None);
                self.handle_with_scratch(ctx, thread, osd, OsdInput::HeartbeatTick, false, None);
            }
            Ev::MonHeartbeat { osd } => {
                let now = ctx.now().duration_since(SimTime::ZERO).as_nanos();
                if let Some(MonMsg::MapUpdate { map }) =
                    self.monitor.heartbeat(OsdId(osd as u32), now)
                {
                    self.install_map(ctx, map);
                }
            }
            Ev::MonSweep => {
                let Some(period) = self.heartbeat_period else {
                    return;
                };
                ctx.send_after(thread, Ev::MonSweep, period);
                let now = ctx.now().duration_since(SimTime::ZERO).as_nanos();
                if let Some(MonMsg::MapUpdate { map }) = self.monitor.check_liveness(now) {
                    self.install_map(ctx, map);
                }
            }
            Ev::Churn { idx } => {
                // An administrator reweights an OSD at the monitor: grow
                // (0 → w weaves a pre-provisioned spare in), drain (w → 0
                // hands its groups off while it stays up), or rebalance.
                let op = self.churn[idx];
                if let Some(MonMsg::MapUpdate { map }) =
                    self.monitor.admin_set_weight(OsdId(op.osd), op.weight)
                {
                    self.install_map(ctx, map);
                }
            }
            Ev::BitRot {
                osd,
                lo,
                hi,
                flips,
                media,
                seed,
            } => {
                // Media rot is physical: it lands whether or not the OSD
                // process is alive (a crashed OSD's SSD keeps decaying).
                match media {
                    RotMedia::CosData => {
                        self.osd_mut(osd).inject_data_rot(lo, hi, flips, seed);
                    }
                    RotMedia::NvmLog => {
                        self.osd_mut(osd).inject_nvm_rot(flips, seed);
                    }
                }
            }
            Ev::ScrubSweep { round } => {
                let Some(every) = self.scrub_interval else {
                    return;
                };
                ctx.send_after(thread, Ev::ScrubSweep { round: round + 1 }, every);
                let deep = self.scrub_deep_every > 0
                    && round % self.scrub_deep_every == self.scrub_deep_every - 1;
                for g in 0..self.pg_count {
                    let group = GroupId(g);
                    let Some(p) = self.map.try_primary(group) else {
                        continue;
                    };
                    let osd = p.0 as usize;
                    // Scrub is maintenance traffic: under PTC it rides the
                    // low-priority lane like the rest of recovery. The
                    // request crosses the network (the driver part does not
                    // own OSD liveness — a dead primary just drops it).
                    let t = if self.mode.prioritized() {
                        self.flusher_thread(osd, group.0 as u64)
                    } else {
                        self.logic_thread(osd, group)
                    };
                    ctx.send_after(
                        t,
                        Ev::OsdIn {
                            osd,
                            input: OsdInput::ScrubStart { group, deep },
                            charge_mp: None,
                        },
                        self.net_hold,
                    );
                }
            }
            Ev::ClientTimeout { conn, op, attempt } => {
                let Some(r) = self.retry else {
                    return;
                };
                // Only the timer of the *current* attempt may act; a reply
                // or a newer retransmission makes older timers inert.
                match self.conns[conn].outstanding.get_mut(&op) {
                    Some(p) if p.attempt == attempt => {
                        if r.should_retry(attempt) {
                            p.attempt += 1;
                        } else {
                            // Budget exhausted: surface the failure.
                            self.conns[conn].outstanding.remove(&op);
                            self.client_errors += 1;
                            self.trace_log(
                                ctx.now(),
                                TraceOp::Abandon {
                                    id: Self::tid_of(ClientId(conn as u32), OpId(op)),
                                },
                            );
                            if self.pacing.is_none() {
                                self.issue_client_ops(ctx, conn);
                            }
                            return;
                        }
                    }
                    _ => return,
                }
                let p = &self.conns[conn].outstanding[&op];
                let redirect = p.csum_redirects;
                let req = p.req.clone().expect("retrying client stores the request");
                self.trace_log(
                    ctx.now(),
                    TraceOp::Retry {
                        id: Self::tid_of(ClientId(conn as u32), OpId(op)),
                    },
                );
                let next = attempt + 1;
                let jitter = ctx.rng().unit_f64();
                let backoff = SimDuration::nanos(r.backoff_nanos(attempt, jitter));
                // Retransmit after the backoff (re-routed by the map as of
                // now — a published failover redirects the retry), then arm
                // the next attempt's timer.
                self.send_client_req(ctx, conn, req, backoff, redirect);
                let thread = self.conns[conn].thread;
                let ev = Ev::ClientTimeout {
                    conn,
                    op,
                    attempt: next,
                };
                ctx.send_after(thread, ev, backoff + SimDuration::nanos(r.timeout_nanos));
            }
            Ev::IoDone { osd, token } => {
                if self.dead[osd] {
                    return;
                }
                // Background (wait:false) I/Os also land here; only tracked
                // tokens owe a StoreDurable to the state machine.
                let Some(remaining) = self.io_wait.get_mut(&(osd, token)) else {
                    return;
                };
                *remaining -= 1;
                if *remaining == 0 {
                    self.io_wait.remove(&(osd, token));
                    // Close the device-queue span: submit → last completion.
                    let now = ctx.now();
                    let cur = if let Some(tr) = self.trace.as_mut() {
                        tr.pending_nvm = 0;
                        if let Some((id, submitted)) = tr.io_trace.remove(&(osd, token)) {
                            tr.log.push((
                                now,
                                TraceOp::Span {
                                    id,
                                    name: "device",
                                    track: Track::Osd(osd as u32),
                                    start: submitted,
                                    dur: now.saturating_since(submitted),
                                    comp: Component::Device,
                                },
                            ));
                            Some(id)
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                    self.charge_input(ctx, &OsdInput::StoreDurable { token }, None);
                    self.handle_with_scratch(
                        ctx,
                        thread,
                        osd,
                        OsdInput::StoreDurable { token },
                        false,
                        cur,
                    );
                    if let Some(id) = cur {
                        self.trace_osd_work(ctx, osd, id, "tp.complete", 0);
                    }
                }
            }
            Ev::BgIo { osd, ios, pos } => {
                if self.dead[osd] {
                    return; // crashed: its queued background work evaporates
                }
                let dev = self.threads[osd].device;
                let io = ios[pos];
                let req = match io.kind {
                    TraceKind::Read => IoRequest::read(io.bytes),
                    TraceKind::Write => IoRequest::write(io.bytes),
                    TraceKind::Flush => unreachable!("filtered at enqueue"),
                };
                // Fire-and-forget: completion tokens 0 are ignored by IoDone.
                ctx.submit_io(dev, req, thread, Ev::IoDone { osd, token: 0 });
                // ~640 MB/s throttle for 64 KiB chunks.
                let delay = SimDuration::nanos(1 + io.bytes * 100_000 / (64 << 10));
                if pos + 1 < ios.len() {
                    ctx.send_after(
                        thread,
                        Ev::BgIo {
                            osd,
                            ios,
                            pos: pos + 1,
                        },
                        delay,
                    );
                }
            }
            Ev::FlushSweep { osd } => {
                // Re-arm first so the sweep survives a crash window and
                // resumes once the OSD restarts.
                ctx.send_after(thread, Ev::FlushSweep { osd }, self.flush_sweep);
                if self.dead[osd] {
                    return;
                }
                let pending = self.osd(osd).pending_groups();
                for group in pending {
                    self.handle_with_scratch(
                        ctx,
                        thread,
                        osd,
                        OsdInput::FlushGroup { group },
                        true,
                        None,
                    );
                }
            }
        }
    }
}

/// A fully wired simulated cluster.
///
/// The simulation is partitioned into `nodes + 1` engine domains: domain 0
/// holds the clients, the monitor and the driver's control events; domain
/// `1 + n` holds storage node `n` (its cores, threads, NVMe device and
/// OSDs). `parts[d]` is the handler state of domain `d`. The partition is
/// fixed at construction — [`ClusterSimConfig::shards`] only picks how many
/// OS threads execute the domains, so results are byte-identical for every
/// shard count.
pub struct ClusterSim {
    sim: Simulation<Ev>,
    /// One handler part per engine domain (see type-level docs).
    parts: Vec<World>,
    node_cores: Vec<std::ops::Range<usize>>,
    class_threads: BTreeMap<&'static str, Vec<ThreadId>>,
    osds_per_node: usize,
    osd_count: usize,
    /// Slow-op ring capacity for the replayed trace recorder.
    slow_op_ring: usize,
    /// Measurement-window start for the trace replay: `run` sets it after
    /// warmup so warmup spans do not pollute attribution.
    trace_reset_at: Option<SimTime>,
    /// Sampling cadence for the telemetry time-series (`None`: disabled).
    telemetry_window: Option<SimDuration>,
    /// Windowed samples collected during the measured phase.
    timeseries: TimeSeries,
    /// Threads belonging to each OSD (deduped), for per-OSD CPU% columns.
    osd_threads: Vec<Vec<ThreadId>>,
    /// Counter snapshots at the previous sample instant.
    sampler: SamplerState,
}

/// Snapshot of cumulative counters at the last telemetry sample, so each
/// window reports deltas. Sampling happens *between* `run_until` slices —
/// never inside the event loop — so it cannot perturb event order.
struct SamplerState {
    last: SimTime,
    writes: u64,
    reads: u64,
    throttled: u64,
    scrub_errors: u64,
    osd_busy: Vec<u64>,
}

impl ClusterSim {
    /// Builds the cluster: nodes, cores, threads, devices, OSDs, and one
    /// client connection per entry of `workloads`.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (more pinned priority threads
    /// than cores, zero threads, …).
    pub fn new(cfg: ClusterSimConfig, workloads: Vec<Box<dyn ConnWorkload>>) -> Self {
        assert!(!workloads.is_empty(), "at least one connection required");
        // Steady-state event population: every in-flight client op keeps a
        // handful of events live across its replica fan-out, plus one
        // CoreFree per busy core. Sizing the wheel up front avoids mid-run
        // regrowth on paper-scale scenarios.
        let queue_hint = workloads.len() * cfg.queue_depth * cfg.replication
            + cfg.nodes as usize * cfg.cores_per_node;
        let mut sim: Simulation<Ev> = Simulation::with_queue_hint(cfg.seed, queue_hint);
        sim.set_context_switch_cost(cfg.ctx_switch);
        // Partition: domain 0 = clients + monitor + driver control, domain
        // 1 + n = storage node n. Must happen before any entity is added.
        sim.set_domains(cfg.nodes as usize + 1);
        // Conservative lookahead: every cross-domain message rides a network
        // link, so the one-way link latency bounds how far ahead any domain
        // can safely run. Test overrides may shrink the window (torture
        // tests force 1 ns) but never widen it past the physical floor.
        let net_hold = cfg.link.lookahead();
        sim.set_lookahead(cfg.lookahead.unwrap_or(net_hold).min(net_hold));
        sim.set_workers(cfg.shards.max(1));
        let mut map = OsdMap::new(cfg.nodes, cfg.osds_per_node, cfg.pg_count, cfg.replication);
        // Spares for grow scenarios start weighted out of placement. Applied
        // before any map is distributed or asked for an acting set, so no
        // epoch bump (and no cache reset) is needed — every OSD and the
        // monitor begin from this same epoch-1 map.
        for &spare in &cfg.initially_out {
            map.osds[spare as usize].weight = 0;
        }

        let mut node_cores = Vec::new();
        let mut threads: Vec<OsdThreads> = Vec::new();
        let mut class_threads: BTreeMap<&'static str, Vec<ThreadId>> = BTreeMap::new();
        let mut osds = Vec::new();

        for node in 0..cfg.nodes as usize {
            let cores = sim.add_cores_in(1 + node, cfg.cores_per_node);
            node_cores.push(cores.clone());
            let all: Vec<_> = cores.clone().collect();
            // Dedicated cores for priority threads come off the front.
            let mut next_dedicated = cores.start;
            for local in 0..cfg.osds_per_node as usize {
                let osd_idx = node * cfg.osds_per_node as usize + local;
                let (msgr, logic, flusher): (Vec<_>, Vec<_>, Vec<_>) = match cfg.mode {
                    PipelineMode::Original | PipelineMode::Cos => {
                        let msgr: Vec<_> = (0..cfg.messenger_threads)
                            .map(|i| {
                                sim.add_thread_in(
                                    1 + node,
                                    ThreadCfg::new(
                                        format!("n{node}.osd{osd_idx}.msgr{i}"),
                                        all.clone(),
                                        Priority::Normal,
                                    ),
                                )
                            })
                            .collect();
                        let logic: Vec<_> = (0..cfg.pg_threads)
                            .map(|i| {
                                sim.add_thread_in(
                                    1 + node,
                                    ThreadCfg::new(
                                        format!("n{node}.osd{osd_idx}.pg{i}"),
                                        all.clone(),
                                        Priority::Normal,
                                    ),
                                )
                            })
                            .collect();
                        class_threads.entry("msgr").or_default().extend(&msgr);
                        class_threads.entry("pg").or_default().extend(&logic);
                        (msgr, logic, Vec::new())
                    }
                    PipelineMode::RtcV1 | PipelineMode::RtcV2 | PipelineMode::RtcV3 => {
                        let rtc: Vec<_> = (0..cfg.rtc_threads)
                            .map(|i| {
                                sim.add_thread_in(
                                    1 + node,
                                    ThreadCfg::new(
                                        format!("n{node}.osd{osd_idx}.rtc{i}"),
                                        all.clone(),
                                        Priority::Normal,
                                    ),
                                )
                            })
                            .collect();
                        class_threads.entry("rtc").or_default().extend(&rtc);
                        (rtc.clone(), rtc, Vec::new())
                    }
                    PipelineMode::Ptc | PipelineMode::Dop | PipelineMode::Ideal => {
                        let prio: Vec<_> = (0..cfg.priority_threads)
                            .map(|i| {
                                let core = next_dedicated;
                                next_dedicated += 1;
                                assert!(
                                    core < cores.end,
                                    "not enough cores on node {node} to pin priority threads"
                                );
                                sim.add_thread_in(
                                    1 + node,
                                    ThreadCfg::new(
                                        format!("n{node}.osd{osd_idx}.prio{i}"),
                                        vec![core],
                                        Priority::High,
                                    ),
                                )
                            })
                            .collect();
                        class_threads.entry("priority").or_default().extend(&prio);
                        (prio.clone(), prio, Vec::new()) // flusher filled below
                    }
                };
                threads.push(OsdThreads {
                    msgr,
                    logic,
                    flusher,
                    maint: 0, // fixed up below
                    device: 0,
                    node,
                });
                let _ = osd_idx;
            }
            // Non-priority threads share the remaining (non-dedicated) cores
            // plus, at lower priority, the dedicated ones ("leave it to the
            // OS scheduler" in the paper).
            if matches!(
                cfg.mode,
                PipelineMode::Ptc | PipelineMode::Dop | PipelineMode::Ideal
            ) {
                let shared: Vec<_> = (next_dedicated..cores.end).collect();
                assert!(!shared.is_empty(), "no shared cores left on node {node}");
                for local in 0..cfg.osds_per_node as usize {
                    let osd_idx = node * cfg.osds_per_node as usize + local;
                    let mut aff = shared.clone();
                    aff.extend(cores.start..next_dedicated);
                    let flusher: Vec<_> = (0..cfg.non_priority_threads)
                        .map(|i| {
                            sim.add_thread_in(
                                1 + node,
                                ThreadCfg::new(
                                    format!("n{node}.osd{osd_idx}.nprio{i}"),
                                    aff.clone(),
                                    Priority::Normal,
                                ),
                            )
                        })
                        .collect();
                    class_threads
                        .entry("non-priority")
                        .or_default()
                        .extend(&flusher);
                    threads[osd_idx].flusher = flusher;
                }
            }
            // Maintenance threads: low priority on the node's shared cores.
            for local in 0..cfg.osds_per_node as usize {
                let osd_idx = node * cfg.osds_per_node as usize + local;
                let maint = sim.add_thread_in(
                    1 + node,
                    ThreadCfg::new(
                        format!("n{node}.osd{osd_idx}.maint"),
                        all.clone(),
                        Priority::Low,
                    ),
                );
                class_threads.entry("maint").or_default().push(maint);
                threads[osd_idx].maint = maint;
            }
        }

        // Devices: one NVMe SSD model per OSD (the paper partitions each
        // physical SSD across OSDs; per-OSD devices with proportional
        // capability are equivalent for queueing purposes).
        for t in threads.iter_mut() {
            let dev = sim.add_device_in(
                1 + t.node,
                Device::new(
                    format!("nvme.osd{}", osds.len()),
                    DeviceProfile::nvme_pm1725a(cfg.ssd_state),
                ),
            );
            t.device = dev;
        }

        // Denominate the backfill throttle's per-tick byte budget in actual
        // heartbeat periods when detection is armed, so throttled time is
        // accounted in the same clock the retries run on.
        let mut osd_cfg = cfg.osd.clone();
        if let Some(period) = cfg.heartbeat_period {
            osd_cfg.backfill_tick_nanos = period.as_nanos();
        }
        for id in 0..(cfg.nodes * cfg.osds_per_node) {
            osds.push(Osd::new(OsdId(id), osd_cfg.clone(), map.clone()));
        }

        // Client threads: one core per two connections on client "nodes".
        let conn_count = workloads.len();
        let client_cores = sim.add_cores(conn_count.div_ceil(2).max(1));
        let client_core_list: Vec<_> = client_cores.collect();
        let mut conns = Vec::new();
        for (i, workload) in workloads.into_iter().enumerate() {
            let core = client_core_list[i % client_core_list.len()];
            let thread = sim.add_thread(ThreadCfg::new(
                format!("client{i}"),
                vec![core],
                Priority::Normal,
            ));
            class_threads.entry("client").or_default().push(thread);
            conns.push(ConnState {
                id: ClientId(i as u32),
                thread,
                workload,
                outstanding: HashMap::new(),
                next_op: 1,
                exhausted: false,
            });
        }

        let links: Vec<Link> = (0..cfg.nodes as usize + 1)
            .map(|_| cfg.link.clone())
            .collect();

        let mut monitor = Monitor::new(map.clone());
        monitor.set_grace_nanos(cfg.heartbeat_grace.as_nanos());
        monitor.set_flap_policy(
            cfg.flap_threshold,
            cfg.flap_window.as_nanos(),
            cfg.flap_holdout.as_nanos(),
        );

        // One handler part per domain. Part 0 owns the connections, the real
        // monitor, the checker and the client-side counters; part 1 + n owns
        // node n's OSDs. Immutable wiring (threads, links, costs, fault
        // plans) is cloned into every part so handlers never reach across.
        let total_osds = (cfg.nodes * cfg.osds_per_node) as usize;
        let osds_per_node = cfg.osds_per_node as usize;
        let conn_threads: Vec<ThreadId> = conns.iter().map(|c| c.thread).collect();
        let mut osd_slots: Vec<Option<Osd>> = osds.into_iter().map(Some).collect();
        let mut conns_slot = Some(conns);
        let mut monitor_slot = Some(monitor);
        let parts: Vec<World> = (0..cfg.nodes as usize + 1)
            .map(|part| World {
                part: part as u32,
                mode: cfg.mode,
                relay: matches!(cfg.mode, PipelineMode::Original | PipelineMode::Cos),
                lean: cfg.mode.prioritized(),
                costs: cfg.costs.clone(),
                map: map.clone(),
                osds: (0..total_osds)
                    .map(|i| {
                        if part >= 1 && i / osds_per_node == part - 1 {
                            osd_slots[i].take()
                        } else {
                            None
                        }
                    })
                    .collect(),
                threads: threads.clone(),
                conns: if part == 0 {
                    conns_slot.take().unwrap()
                } else {
                    Vec::new()
                },
                conn_threads: conn_threads.clone(),
                links: links.clone(),
                net_hold,
                io_wait: HashMap::new(),
                dead: vec![false; total_osds],
                rtc_gate: HashMap::new(),
                write_lat: LatencyRecorder::default(),
                read_lat: LatencyRecorder::default(),
                writes_done: 0,
                reads_done: 0,
                queue_depth: cfg.queue_depth,
                pacing: cfg.pacing,
                flush_sweep: cfg.flush_sweep,
                pg_count: cfg.pg_count,
                faults: cfg.faults.clone(),
                monitor: if part == 0 {
                    monitor_slot.take().unwrap()
                } else {
                    Monitor::new(map.clone())
                },
                retry: cfg.retry,
                heartbeat_period: cfg.heartbeat_period,
                crash_torn: vec![false; total_osds],
                churn: cfg.churn.clone(),
                checker: if part == 0 {
                    cfg.check_history.then(HistoryChecker::new)
                } else {
                    None
                },
                client_errors: 0,
                fx_scratch: Vec::new(),
                payload_cache: HashMap::new(),
                trace: cfg.trace.then(|| Box::new(PartTrace::new())),
                scrub_interval: cfg.scrub_interval,
                scrub_deep_every: cfg.scrub_deep_every,
            })
            .collect();

        // Telemetry bookkeeping: which threads belong to each OSD (CPU%
        // columns) and the column schema. Thread classes and OSD count are
        // fixed at construction, so the schema is stable for the run.
        let osd_threads: Vec<Vec<ThreadId>> = threads
            .iter()
            .map(|t| {
                let mut set: std::collections::BTreeSet<ThreadId> =
                    std::collections::BTreeSet::new();
                set.extend(&t.msgr);
                set.extend(&t.logic);
                set.extend(&t.flusher);
                set.insert(t.maint);
                set.into_iter().collect()
            })
            .collect();
        let mut cols: Vec<String> = [
            "write_iops",
            "read_iops",
            "outstanding",
            "degraded",
            "backfill_throttle_ms",
            "scrub_errors",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for class in class_threads.keys() {
            cols.push(format!("q_{}", class.replace('-', "_")));
        }
        for i in 0..osd_threads.len() {
            cols.push(format!("cpu_osd{i}"));
        }

        let mut this = ClusterSim {
            sim,
            parts,
            node_cores,
            class_threads,
            osds_per_node,
            osd_count: total_osds,
            slow_op_ring: cfg.slow_op_ring,
            trace_reset_at: None,
            telemetry_window: cfg.telemetry_window,
            timeseries: TimeSeries::new(cols),
            osd_threads,
            sampler: SamplerState {
                last: SimTime::ZERO,
                writes: 0,
                reads: 0,
                throttled: 0,
                scrub_errors: 0,
                osd_busy: Vec::new(),
            },
        };
        this.sampler.osd_busy = vec![0; this.osd_threads.len()];
        // Kick every connection at t=0 and start flush sweeps.
        for (conn, &t) in conn_threads.iter().enumerate() {
            this.sim.schedule(SimTime::ZERO, t, Ev::ClientKick { conn });
        }
        if cfg.mode.decoupled() {
            for (osd, th) in threads.iter().enumerate().take(total_osds) {
                let t = th.flusher[0];
                this.sim
                    .schedule(SimTime::ZERO + cfg.flush_sweep, t, Ev::FlushSweep { osd });
            }
        }
        // Heartbeat detection: stagger the per-OSD beacons so they do not
        // synchronize, and sweep liveness on the monitor every period.
        if let Some(period) = cfg.heartbeat_period {
            for (osd, th) in threads.iter().enumerate().take(total_osds) {
                let t = th.msgr[0];
                let stagger = SimDuration::nanos(1 + osd as u64 * period.as_nanos() / 7);
                this.sim
                    .schedule(SimTime::ZERO + stagger, t, Ev::HeartbeatTick { osd });
            }
            let mt = conn_threads[0];
            this.sim.schedule(SimTime::ZERO + period, mt, Ev::MonSweep);
        }
        // Scheduled (non-probabilistic) faults from the plan's timeline.
        // Crash/restart/rot events mutate OSD state, so they fire on the
        // target OSD's own maintenance thread (its home domain); only the
        // monitor/churn control events stay on the part-0 driver thread.
        let driver_thread = conn_threads[0];
        for (at, fault) in cfg.faults.timeline() {
            let (thread, ev) = match fault {
                FaultEvent::Crash { process, torn_tail } => (
                    threads[process].maint,
                    Ev::CrashOsd {
                        osd: process,
                        torn_tail,
                    },
                ),
                FaultEvent::Restart { process } => {
                    (threads[process].maint, Ev::RestartOsd { osd: process })
                }
                FaultEvent::GraySet { device, multiplier } => {
                    (threads[device].maint, Ev::GraySet { device, multiplier })
                }
                FaultEvent::BitRot {
                    process,
                    object_lo,
                    object_hi,
                    flips,
                    media,
                } => {
                    // Rot targets derive from their own seed stream, mixed
                    // from run seed + strike coordinates — never from the
                    // scheduler RNG — so every shard count rots the same
                    // bits no matter how event order interleaves.
                    let mut seed = cfg
                        .seed
                        .wrapping_add((process as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add(at.nanos().wrapping_mul(0xA24B_AED4_963E_E407));
                    if media == RotMedia::NvmLog {
                        seed = seed.wrapping_add(0x632B_E59B_D9B4_E019);
                    }
                    (
                        threads[process].maint,
                        Ev::BitRot {
                            osd: process,
                            lo: object_lo,
                            hi: object_hi,
                            flips,
                            media,
                            seed,
                        },
                    )
                }
            };
            this.sim.schedule(at, thread, ev);
        }
        // Background scrub cadence, staggered off t=0 so the first sweep
        // never coincides with client kick-off.
        if let Some(every) = cfg.scrub_interval {
            this.sim.schedule(
                SimTime::ZERO + every,
                driver_thread,
                Ev::ScrubSweep { round: 0 },
            );
        }
        // Scheduled admin churn (grow/drain/reweight) on the same driver
        // thread; the handler only touches monitor + driver state.
        for (idx, op) in cfg.churn.iter().enumerate() {
            this.sim.schedule(op.at, driver_thread, Ev::Churn { idx });
        }
        this
    }

    /// The part (domain) that owns OSD `osd`'s state.
    fn part_of_osd(&self, osd: usize) -> usize {
        1 + osd / self.osds_per_node
    }

    /// Immutable access to one OSD (inspection helpers; the hot path uses
    /// `World::osd` inside the owning part).
    fn osd_ref(&self, osd: usize) -> &Osd {
        self.parts[self.part_of_osd(osd)].osds[osd]
            .as_ref()
            .expect("OSD missing from its home part")
    }

    fn osd_mut_ref(&mut self, osd: usize) -> &mut Osd {
        let part = self.part_of_osd(osd);
        self.parts[part].osds[osd]
            .as_mut()
            .expect("OSD missing from its home part")
    }

    /// Whether the owning part considers `osd` crashed.
    fn is_dead(&self, osd: usize) -> bool {
        self.parts[self.part_of_osd(osd)].dead[osd]
    }

    /// Creates every object of `objects` on all replicas directly in the
    /// backends (instant provisioning, like creating RBD images before the
    /// measured run).
    pub fn prefill(&mut self, objects: &[(ObjectId, u64)]) {
        for &(oid, size) in objects {
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
        let t = self.parts[0].threads[osd.0 as usize].maint;
        self.sim.schedule(
            at,
            t,
            Ev::CrashOsd {
                osd: osd.0 as usize,
                torn_tail: false,
            },
        );
    }

    /// Client operations surfaced as errors so far (fault-injection runs).
    pub fn client_errors(&self) -> u64 {
        self.parts[0].client_errors
    }

    /// Rejoins the monitor's flap dampening has refused so far.
    pub fn flaps_damped(&self) -> u64 {
        self.parts[0].monitor.flaps_damped()
    }

    /// Per-OSD logical fill: the bytes of every extent a live,
    /// placement-eligible OSD tracks for the groups it currently serves.
    /// The input to the capacity-imbalance invariant after quiesce —
    /// drained/dead OSDs are excluded (their stale extents are handoff
    /// residue, not load).
    pub fn osd_fill_bytes(&self) -> Vec<(OsdId, u64)> {
        let live: Vec<usize> = (0..self.osd_count).filter(|&i| !self.is_dead(i)).collect();
        let Some(&holder) = live.iter().max_by_key(|&&i| self.osd_ref(i).map().epoch) else {
            return Vec::new();
        };
        let map = self.osd_ref(holder).map().clone();
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

    /// True when no live primary has recovery in flight and every group
    /// with a live primary reports [`PgState::Active`]. Post-quiesce chaos
    /// runs assert this: all peering rounds finished and every peer acked
    /// its last push.
    pub fn all_pgs_active(&self) -> bool {
        let live: Vec<usize> = (0..self.osd_count).filter(|&i| !self.is_dead(i)).collect();
        let Some(&holder) = live.iter().max_by_key(|&&i| self.osd_ref(i).map().epoch) else {
            return true;
        };
        let map = self.osd_ref(holder).map().clone();
        (0..map.pg_count).all(|g| {
            let group = GroupId(g);
            match map.try_primary(group) {
                Some(p) if !self.is_dead(p.0 as usize) => {
                    self.osd_ref(p.0 as usize).pg_state(group) == PgState::Active
                }
                _ => true,
            }
        })
    }

    /// Flushes every live OSD's pending log records into its backend, then
    /// compares replica contents object by object: for each group, every
    /// live acting-set member must serve byte-identical data. Returns
    /// human-readable mismatch descriptions; empty means the replicas
    /// converged. Mutates backends (log re-apply), so call only after the
    /// run finished.
    pub fn replica_divergence(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let live: Vec<usize> = (0..self.osd_count).filter(|&i| !self.is_dead(i)).collect();
        for &i in &live {
            self.osd_mut_ref(i).sync_backend_with_log();
        }
        let Some(&holder) = live.iter().max_by_key(|&&i| self.osd_ref(i).map().epoch) else {
            return out;
        };
        let map = self.osd_ref(holder).map().clone();
        for g in 0..map.pg_count {
            let group = GroupId(g);
            let members: Vec<usize> = map
                .acting_set(group)
                .into_iter()
                .map(|o| o.0 as usize)
                .filter(|&i| !self.is_dead(i))
                .collect();
            if members.len() < 2 {
                continue;
            }
            // Union of the extents any member tracks for the group.
            let mut extents: BTreeMap<u64, (ObjectId, u64)> = BTreeMap::new();
            for &m in &members {
                for (oid, len) in self.osd_ref(m).group_extent_map(group) {
                    let e = extents.entry(oid.raw()).or_insert((oid, len));
                    e.1 = e.1.max(len);
                }
            }
            let extents: Vec<(ObjectId, u64)> = extents.into_values().collect();
            let mut listings: Vec<ReplicaListing> = Vec::with_capacity(members.len());
            for &m in &members {
                let osd = self.osd_mut_ref(m);
                let entries = extents
                    .iter()
                    .map(|&(oid, len)| (oid.raw(), osd.object_digest(oid, len)))
                    .collect();
                listings.push((format!("osd{m}"), entries));
            }
            for d in crate::invariants::diff_replica_digests(&listings) {
                out.push(format!("group {}: {d}", group.0));
            }
        }
        out
    }

    /// Persistent-checksum consistency across live acting replicas: every
    /// member of every group must persist the same `(size, checksum-vector
    /// digest)` for every object it holds (see
    /// [`crate::invariants::replica_digest_consistency`]). Metadata-only —
    /// no data blocks are read — and vacuously clean for backends that do
    /// not persist checksums. Mutates backends (log re-apply), so call only
    /// after the run finished.
    pub fn replica_digest_inconsistency(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let live: Vec<usize> = (0..self.osd_count).filter(|&i| !self.is_dead(i)).collect();
        for &i in &live {
            self.osd_mut_ref(i).sync_backend_with_log();
        }
        let Some(&holder) = live.iter().max_by_key(|&&i| self.osd_ref(i).map().epoch) else {
            return out;
        };
        let map = self.osd_ref(holder).map().clone();
        for g in 0..map.pg_count {
            let group = GroupId(g);
            let members: Vec<usize> = map
                .acting_set(group)
                .into_iter()
                .map(|o| o.0 as usize)
                .filter(|&i| !self.is_dead(i))
                .collect();
            if members.len() < 2 {
                continue;
            }
            let listings: Vec<crate::invariants::DigestListing> = members
                .iter()
                .map(|&m| {
                    let entries = self
                        .osd_ref(m)
                        .group_extent_map(group)
                        .into_iter()
                        .filter_map(|(oid, _)| {
                            self.osd_ref(m)
                                .object_csum_digest(oid)
                                .map(|(size, digest)| (oid.raw(), size, digest))
                        })
                        .collect();
                    (format!("osd{m}"), entries)
                })
                .collect();
            for d in crate::invariants::replica_digest_consistency(&listings) {
                out.push(format!("group {}: {d}", group.0));
            }
        }
        out
    }

    /// Raw object bytes as served by one OSD's backend (diagnostics; call
    /// after [`ClusterSim::replica_divergence`] so logs are synced).
    pub fn object_bytes(&mut self, osd: usize, oid: ObjectId, len: u64) -> Option<Payload> {
        self.osd_mut_ref(osd).debug_read(oid, len)
    }

    /// Test hook: flip data bits on one OSD's backend right now, outside the
    /// fault timeline. Same deterministic stream as [`Ev::BitRot`]; returns
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

    /// One line per non-Active PG at its current primary, plus its count of
    /// outstanding recovery pushes (diagnostics for stuck recovery).
    pub fn stuck_pgs(&self) -> Vec<String> {
        let live: Vec<usize> = (0..self.osd_count).filter(|&i| !self.is_dead(i)).collect();
        let Some(&holder) = live.iter().max_by_key(|&&i| self.osd_ref(i).map().epoch) else {
            return Vec::new();
        };
        let map = self.osd_ref(holder).map().clone();
        let mut out = Vec::new();
        for g in 0..map.pg_count {
            let group = GroupId(g);
            if let Some(p) = map.try_primary(group) {
                let i = p.0 as usize;
                if !self.is_dead(i) {
                    let state = self.osd_ref(i).pg_state(group);
                    if state != PgState::Active {
                        out.push(format!(
                            "group {g}: {state:?} at osd{i}, {} objects outstanding",
                            self.osd_ref(i).degraded_objects(),
                        ));
                    }
                }
            }
        }
        out
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
            for osd in part.osds.iter_mut().flatten() {
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
        if let Some(win) = self.telemetry_window {
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

    /// Re-anchors the sampler's counter snapshots to "now" (post-reset).
    fn rebaseline_sampler(&mut self) {
        self.sampler.last = self.sim.now();
        self.sampler.writes = self.parts[0].writes_done;
        self.sampler.reads = self.parts[0].reads_done;
        self.sampler.throttled = (0..self.osd_count)
            .map(|i| self.osd_ref(i).backfill_throttled_nanos)
            .sum();
        self.sampler.scrub_errors = (0..self.osd_count)
            .map(|i| self.osd_ref(i).scrub_errors_found)
            .sum();
        let metrics = self.sim.metrics();
        for (i, ts) in self.osd_threads.iter().enumerate() {
            self.sampler.osd_busy[i] = ts.iter().map(|&t| metrics.thread_busy(t)).sum();
        }
    }

    /// Takes one telemetry sample covering the window since the last one.
    /// Reads counters only — called between event-loop slices, it cannot
    /// change simulation behavior.
    fn sample_window(&mut self) {
        let now = self.sim.now();
        let dt = now.saturating_since(self.sampler.last);
        if dt.is_zero() {
            return;
        }
        let secs = dt.as_secs_f64();
        let outstanding: usize = self.parts[0]
            .conns
            .iter()
            .map(|c| c.outstanding.len())
            .sum();
        let degraded: u64 = (0..self.osd_count)
            .map(|i| self.osd_ref(i).degraded_objects())
            .sum();
        let throttled: u64 = (0..self.osd_count)
            .map(|i| self.osd_ref(i).backfill_throttled_nanos)
            .sum();
        let scrub_errors: u64 = (0..self.osd_count)
            .map(|i| self.osd_ref(i).scrub_errors_found)
            .sum();
        let mut vals = vec![
            (self.parts[0].writes_done - self.sampler.writes) as f64 / secs,
            (self.parts[0].reads_done - self.sampler.reads) as f64 / secs,
            outstanding as f64,
            degraded as f64,
            throttled.saturating_sub(self.sampler.throttled) as f64 / 1e6,
            scrub_errors.saturating_sub(self.sampler.scrub_errors) as f64,
        ];
        for ids in self.class_threads.values() {
            let depth: usize = ids.iter().map(|&t| self.sim.thread_queue_len(t)).sum();
            vals.push(depth as f64);
        }
        let metrics = self.sim.metrics();
        for (i, ts) in self.osd_threads.iter().enumerate() {
            let busy: u64 = ts.iter().map(|&t| metrics.thread_busy(t)).sum();
            let delta = busy.saturating_sub(self.sampler.osd_busy[i]);
            self.sampler.osd_busy[i] = busy;
            vals.push(delta as f64 / dt.as_nanos() as f64 * 100.0);
        }
        self.sampler.last = now;
        self.sampler.writes = self.parts[0].writes_done;
        self.sampler.reads = self.parts[0].reads_done;
        self.sampler.throttled = throttled;
        self.sampler.scrub_errors = scrub_errors;
        self.timeseries.push(now, vals);
    }

    /// The engine's account of its parallel rounds (see
    /// [`Simulation::round_stats`]): zeros unless
    /// [`ClusterSimConfig::shards`] put the run on several workers.
    pub fn round_stats(&self) -> &rablock_sim::RoundStats {
        self.sim.round_stats()
    }

    /// The telemetry time-series sampled during the measured phase (empty
    /// unless [`ClusterSimConfig::telemetry_window`] was set).
    pub fn telemetry(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The telemetry series rendered as CSV (header + one row per window).
    pub fn telemetry_csv(&self) -> String {
        self.timeseries.to_csv()
    }

    /// Chrome trace-event JSON (Perfetto-loadable) of the slow-op ring
    /// plus the telemetry counter tracks; `None` when tracing is off.
    /// Each span carries the shard (domain) that executed it, and the
    /// export includes a shard-topology process so Perfetto shows which
    /// OSDs ran on which shard.
    pub fn trace_chrome_json(&self) -> Option<String> {
        let rec = self.replay_recorder()?;
        let shard_of_osd: Vec<u32> = (0..self.osd_count)
            .map(|i| self.part_of_osd(i) as u32)
            .collect();
        Some(chrome_trace_json(
            &rec.report().slow_ops,
            Some(&self.timeseries),
            Some(&shard_of_osd),
        ))
    }

    /// Replays the per-part trace logs into one [`Recorder`].
    ///
    /// Each part logs `(time, op)` pairs while its domain executes; the
    /// replay merges them in `(time, part, log-index)` order — a total
    /// order that depends only on the partition (fixed at construction),
    /// never on the worker count. Replica-side spans reference their op by
    /// `(primary, seq)` and are resolved against the registrations the
    /// primaries logged, which always precede them in merged order because
    /// cross-domain messages travel at least one lookahead window apart.
    /// `None` when tracing is off.
    fn replay_recorder(&self) -> Option<Recorder> {
        self.parts[0].trace.as_ref()?;
        let mut entries: Vec<(SimTime, usize, usize, &TraceOp)> = Vec::new();
        for (pi, part) in self.parts.iter().enumerate() {
            if let Some(tr) = part.trace.as_deref() {
                for (idx, (at, op)) in tr.log.iter().enumerate() {
                    entries.push((*at, pi, idx, op));
                }
            }
        }
        entries.sort_by_key(|&(at, pi, idx, _)| (at, pi, idx));
        let mut rec = Recorder::new(self.slow_op_ring);
        let mut rep: HashMap<(u32, u64), TraceId> = HashMap::new();
        let resolve = |rep: &HashMap<(u32, u64), TraceId>, r: TraceRef| match r {
            TraceRef::Tid(id) => Some(id),
            TraceRef::Rep(p, s) => rep.get(&(p, s)).copied(),
        };
        let mut pending_reset = self.trace_reset_at;
        for (at, _, _, op) in entries {
            // Drop warmup aggregates once the measured phase starts
            // (warmup's run_until horizon is inclusive, so entries at
            // exactly t0 still belong to warmup).
            if pending_reset.is_some_and(|t0| at > t0) {
                rec.reset_window();
                pending_reset = None;
            }
            match *op {
                TraceOp::Begin { id, is_write } => rec.begin(id, is_write, at),
                TraceOp::Span {
                    id,
                    name,
                    track,
                    start,
                    dur,
                    comp,
                } => {
                    if let Some(id) = resolve(&rep, id) {
                        rec.span(id, name, track, start, dur, comp);
                    }
                }
                TraceOp::Retry { id } => rec.retry(id),
                TraceOp::RegisterRep { primary, seq, id } => {
                    if let Some(id) = resolve(&rep, id) {
                        if rep.insert((primary, seq), id).is_none() {
                            rec.note_rep_key(id, primary, seq);
                        }
                    }
                }
                TraceOp::Finish { id } => {
                    if let Some(fin) = rec.finish(id, at) {
                        for k in fin.rep_keys {
                            rep.remove(&k);
                        }
                    }
                }
                TraceOp::Abandon { id } => {
                    if let Some(keys) = rec.abandon(id) {
                        for k in keys {
                            rep.remove(&k);
                        }
                    }
                }
            }
        }
        Some(rec)
    }

    fn report(&self, duration: SimDuration) -> SimReport {
        let now = self.sim.now();
        let metrics = self.sim.metrics();
        let win = now
            .saturating_since(metrics.window_start())
            .as_nanos()
            .max(1);
        let node_cpu_pct = self
            .node_cores
            .iter()
            .map(|r| metrics.cores_busy(r.clone()) as f64 / win as f64 * 100.0)
            .collect();
        let mut tag_cpu_pct = BTreeMap::new();
        for (tag, ns) in metrics.tags() {
            tag_cpu_pct.insert(tag, ns as f64 / win as f64 * 100.0);
        }
        let mut class_cpu_pct = BTreeMap::new();
        for (class, ids) in &self.class_threads {
            let ns: u64 = ids.iter().map(|&t| metrics.thread_busy(t)).sum();
            class_cpu_pct.insert(*class, ns as f64 / win as f64 * 100.0);
        }
        let mut store = StoreStats::default();
        for osd in (0..self.osd_count).map(|i| self.osd_ref(i)) {
            let s = osd.backend().stats();
            store.user_bytes += s.user_bytes;
            store.wal_bytes += s.wal_bytes;
            store.flush_bytes += s.flush_bytes;
            store.compaction_bytes += s.compaction_bytes;
            store.data_bytes += s.data_bytes;
            store.metadata_bytes += s.metadata_bytes;
            store.superblock_bytes += s.superblock_bytes;
            store.read_bytes += s.read_bytes;
            store.transactions += s.transactions;
        }
        let mut device = DeviceStats::default();
        for i in 0..self.sim.device_count() {
            let d = self.sim.device(i).stats();
            device.reads += d.reads;
            device.writes += d.writes;
            device.flushes += d.flushes;
            device.bytes_read += d.bytes_read;
            device.bytes_written += d.bytes_written;
            device.total_latency_ns += d.total_latency_ns;
        }
        let secs = duration.as_secs_f64();
        let w0 = &self.parts[0];
        let osds = || (0..self.osd_count).map(|i| self.osd_ref(i));
        SimReport {
            duration,
            writes_done: w0.writes_done,
            reads_done: w0.reads_done,
            write_iops: w0.writes_done as f64 / secs,
            read_iops: w0.reads_done as f64 / secs,
            write_lat: w0.write_lat.summary(),
            read_lat: w0.read_lat.summary(),
            attribution: self.replay_recorder().map(|r| r.report()),
            node_cpu_pct,
            tag_cpu_pct,
            class_cpu_pct,
            context_switches: metrics.context_switches,
            events_processed: metrics.items_run,
            store,
            device,
            nvm_bytes: osds().map(Osd::nvm_bytes_written).sum(),
            nvm_full_stalls: osds().map(|o| o.nvm_full_stalls).sum(),
            client_errors: w0.client_errors,
            recovery_pushes: osds().map(|o| o.recovery_pushes).sum(),
            backfill_bytes: osds().map(|o| o.backfill_bytes).sum(),
            backfill_queued: osds().map(|o| o.backfill_queued).sum(),
            backfill_throttled_nanos: osds().map(|o| o.backfill_throttled_nanos).sum(),
            flaps_damped: w0.monitor.flaps_damped(),
            degraded_objects: osds().map(Osd::degraded_objects).sum(),
            queue_high_water: self.sim.queue_high_water(),
            scrubs_completed: osds().map(|o| o.scrubs_completed).sum(),
            scrub_errors_found: osds().map(|o| o.scrub_errors_found).sum(),
            scrub_errors_repaired: osds().map(|o| o.scrub_errors_repaired).sum(),
            scrub_bytes: osds().map(|o| o.scrub_bytes).sum(),
            scrub_throttled_nanos: osds().map(|o| o.scrub_throttled_nanos).sum(),
            read_checksum_errors: osds().map(|o| o.read_checksum_errors).sum(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rablock_cos::CosOptions;
    use rablock_lsm::LsmOptions;

    pub(crate) fn small_cfg_pub(mode: PipelineMode) -> ClusterSimConfig {
        small_cfg(mode)
    }

    pub(crate) fn objects_pub(n: u64) -> Vec<(ObjectId, u64)> {
        objects(n)
    }

    pub(crate) fn randwrite_conn_pub(objs: u64, seed: u64) -> Box<dyn ConnWorkload> {
        randwrite_conn(objs, seed)
    }

    fn small_cfg(mode: PipelineMode) -> ClusterSimConfig {
        let mut cfg = ClusterSimConfig::defaults(mode);
        cfg.nodes = 2;
        cfg.osds_per_node = 1;
        cfg.cores_per_node = 6;
        cfg.priority_threads = 3;
        cfg.non_priority_threads = 3;
        cfg.pg_count = 24;
        cfg.osd = OsdConfig {
            mode,
            device_bytes: 64 << 20,
            nvm_bytes: 8 << 20,
            ring_bytes: 256 << 10,
            flush_threshold: 16,
            lsm: LsmOptions {
                memtable_bytes: 1 << 20,
                ..LsmOptions::default()
            },
            cos: CosOptions {
                partitions: 2,
                onode_slots: 1024,
                ..CosOptions::default()
            },
            ..OsdConfig::default()
        };
        cfg.queue_depth = 8;
        cfg
    }

    fn objects(n: u64) -> Vec<(ObjectId, u64)> {
        // 1 MiB objects: small enough that every OSD can hold every object
        // in these 2-OSD test clusters.
        (0..n)
            .map(|i| (ObjectId::new(GroupId((i % 24) as u32), i), 1 << 20))
            .collect()
    }

    fn randwrite_conn(objs: u64, seed_offset: u64) -> Box<dyn ConnWorkload> {
        let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(seed_offset + 1);
        Box::new(move |_rng: &mut SimRng| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 16) % objs;
            let block = (x >> 40) % 256; // within the 1 MiB object, 4 KiB blocks
            Some(WorkItem::Write {
                oid: ObjectId::new(GroupId((i % 24) as u32), i),
                offset: block * 4096,
                len: 4096,
                fill: (x % 251) as u8,
            })
        })
    }

    fn run_mode(mode: PipelineMode, conns: usize) -> SimReport {
        let cfg = small_cfg(mode);
        let workloads: Vec<Box<dyn ConnWorkload>> =
            (0..conns).map(|c| randwrite_conn(32, c as u64)).collect();
        let mut sim = ClusterSim::new(cfg, workloads);
        sim.prefill(&objects(32));
        sim.run(SimDuration::millis(30), SimDuration::millis(80))
    }

    #[test]
    fn dop_cluster_completes_writes() {
        let r = run_mode(PipelineMode::Dop, 4);
        assert!(r.writes_done > 500, "writes done: {}", r.writes_done);
        assert!(r.write_iops > 10_000.0, "iops: {}", r.write_iops);
        assert!(r.nvm_bytes > 0, "NVM log used");
        assert!(
            r.mean_node_cpu() > 10.0,
            "some CPU burned: {}",
            r.mean_node_cpu()
        );
    }

    #[test]
    fn original_cluster_completes_writes_with_lsm_waf() {
        let r = run_mode(PipelineMode::Original, 4);
        assert!(r.writes_done > 200, "writes done: {}", r.writes_done);
        assert!(r.store.waf() > 1.5, "LSM waf: {}", r.store.waf());
        assert!(r.tag_cpu_pct.contains_key("MT") || r.store.compaction_bytes == 0);
    }

    #[test]
    fn proposed_beats_original_on_random_writes() {
        let orig = run_mode(PipelineMode::Original, 6);
        let dop = run_mode(PipelineMode::Dop, 6);
        assert!(
            dop.write_iops > orig.write_iops * 1.5,
            "proposed {} vs original {}",
            dop.write_iops,
            orig.write_iops
        );
        assert!(
            dop.write_lat.mean < orig.write_lat.mean,
            "proposed latency {} vs original {}",
            dop.write_lat.mean,
            orig.write_lat.mean
        );
    }

    #[test]
    fn ablation_order_matches_table_ii() {
        let orig = run_mode(PipelineMode::Original, 6).write_iops;
        let cos = run_mode(PipelineMode::Cos, 6).write_iops;
        let ptc = run_mode(PipelineMode::Ptc, 6).write_iops;
        let dop = run_mode(PipelineMode::Dop, 6).write_iops;
        assert!(cos > orig, "COS {cos} > Original {orig}");
        assert!(ptc >= cos * 0.9, "PTC {ptc} vs COS {cos}");
        assert!(dop > ptc, "DOP {dop} > PTC {ptc}");
    }

    #[test]
    fn reads_return_written_data() {
        // Write then read the same blocks; verify the data round-trips
        // through the whole simulated cluster.
        let cfg = small_cfg(PipelineMode::Dop);
        let mut counter = 0u64;
        let wl: Box<dyn ConnWorkload> = Box::new(move |_rng: &mut SimRng| {
            let i = counter;
            counter += 1;
            let oid = ObjectId::new(GroupId((i / 8 % 24) as u32), i / 8 % 16);
            if i < 64 {
                Some(WorkItem::Write {
                    oid,
                    offset: (i % 8) * 4096,
                    len: 4096,
                    fill: (i % 251) as u8,
                })
            } else if i < 128 {
                let j = i - 64;
                let oid = ObjectId::new(GroupId((j / 8 % 24) as u32), j / 8 % 16);
                Some(WorkItem::Read {
                    oid,
                    offset: (j % 8) * 4096,
                    len: 4096,
                })
            } else {
                None
            }
        });
        let mut sim = ClusterSim::new(cfg, vec![wl]);
        sim.prefill(&objects(16));
        let r = sim.run(SimDuration::ZERO, SimDuration::millis(200));
        assert_eq!(r.writes_done + r.reads_done, 128, "all ops completed");
        assert_eq!(r.reads_done, 64);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_mode(PipelineMode::Dop, 3);
        let b = run_mode(PipelineMode::Dop, 3);
        assert_eq!(a.writes_done, b.writes_done);
        assert_eq!(a.context_switches, b.context_switches);
        assert_eq!(a.nvm_bytes, b.nvm_bytes);
    }

    #[test]
    fn rtc_gating_limits_per_thread_concurrency() {
        let v2 = run_mode(PipelineMode::RtcV2, 6);
        let v3 = run_mode(PipelineMode::RtcV3, 6);
        // v3 strips TP/OS relative to v2: strictly less work, >= IOPS.
        assert!(
            v3.write_iops >= v2.write_iops * 0.95,
            "v3 {} vs v2 {}",
            v3.write_iops,
            v2.write_iops
        );
        // Both complete and stay below the Ideal unbounded pipeline.
        assert!(v2.writes_done > 100);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    /// Unloaded (queue-depth-1, single-connection) write latency must sit in
    /// a calibrated envelope per pipeline mode. At qd=1 there is no queueing,
    /// so the latency distribution collapses (p95 ≈ p50), throughput is the
    /// reciprocal of latency, and decoupled operation processing (Dop) must
    /// ack well below the coupled Ptc pipeline because the device write is
    /// off the ack path. Envelope centers were calibrated from the
    /// deterministic run itself; ±10% leaves room for cost-model tuning
    /// without letting a pipeline regression slip through.
    #[test]
    fn unloaded_latency_envelope() {
        use super::tests::*;
        let envelope_ns = [
            (PipelineMode::Ptc, 204_521u64),
            (PipelineMode::Dop, 130_337u64),
        ];
        let mut measured = Vec::new();
        for (mode, center) in envelope_ns {
            let mut cfg = small_cfg_pub(mode);
            cfg.queue_depth = 1;
            let workloads: Vec<Box<dyn ConnWorkload>> = vec![randwrite_conn_pub(32, 0)];
            let mut sim = ClusterSim::new(cfg, workloads);
            sim.prefill(&objects_pub(32));
            let r = sim.run(SimDuration::millis(10), SimDuration::millis(50));
            let mean = r.write_lat.mean.as_nanos();
            let (lo, hi) = (center * 9 / 10, center * 11 / 10);
            assert!(
                (lo..=hi).contains(&mean),
                "{mode:?} qd1 mean {mean}ns outside calibrated envelope [{lo}, {hi}]"
            );
            // No queueing at qd=1: the distribution collapses to a point.
            let (p50, p95) = (r.write_lat.p50.as_nanos(), r.write_lat.p95.as_nanos());
            assert!(
                p95 <= p50 + p50 / 20,
                "{mode:?} qd1: p95 {p95}ns should be within 5% of p50 {p50}ns"
            );
            // Closed loop at qd=1: throughput is the reciprocal of latency.
            let expected_iops = 1e9 / mean as f64;
            assert!(
                (r.write_iops - expected_iops).abs() / expected_iops < 0.05,
                "{mode:?} qd1: iops {:.0} should be ~1e9/mean = {expected_iops:.0}",
                r.write_iops
            );
            measured.push(mean);
        }
        assert!(
            measured[1] < measured[0] * 4 / 5,
            "Dop unloaded latency ({}) must undercut Ptc ({}) by >20%: the \
             device write is off the ack path",
            measured[1],
            measured[0]
        );
    }
}
