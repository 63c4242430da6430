//! The scenario kit: every chaos, churn and integrity run builds from here.
//!
//! The paper's §IV-A-4 recovery story is checked on one small cluster, one
//! fault-tolerant client and one per-connection write-then-read workload;
//! the fig7 load, the fixed chaos scenario, the grow-under-load topology, the
//! gray-device scenario and the 256-OSD scale scenario are each written
//! once. The integration tests, the `chaos_demo`, `scrub_repair` and
//! `elastic_grow` examples and the `wallclock` binary take a recipe and state
//! where they differ as a field override on the returned config, so a pinned
//! seed means the same run wherever it is replayed.

use rablock::sim::{
    ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, Fingerprint,
    GrayWindow, LinkFault, Partition, RetryPolicy, SimDuration, SimReport, SimRng, SimTime, Word,
    WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

use crate::{randwrite_conns, Dataset};

/// `n` milliseconds into a run.
pub fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

/// Proptest case count: `PROPTEST_CASES` when set, `default` otherwise. The
/// vendored proptest stand-in reads no environment variable, so the suites
/// CI dials up pass this to `with_cases`.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Object `k` of connection `conn`: raw id `conn * 100 + k`, in group
/// `id % pgs`. Objects are namespaced per connection so no block has two
/// writers, and the history checker's last-acked-value rule has one answer.
pub fn conn_oid(conn: u64, k: u64, pgs: u32) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % u64::from(pgs)) as u32), i)
}

/// One connection over its 8 objects: `writes` 4 KiB writes that fill block
/// `b` of every object before block `b + 1` (16 blocks, then round again),
/// each with a fill derived from connection, object and block; then `reads`
/// reads in the same order from block 0. `writes = u64::MAX` never stops.
pub struct ConnStream {
    conn: u64,
    pgs: u32,
    writes: u64,
    reads: u64,
    cursor: u64,
}

impl ConnWorkload for ConnStream {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < self.writes {
            let k = i % 8;
            let block = (i / 8) % 16;
            Some(WorkItem::Write {
                oid: conn_oid(self.conn, k, self.pgs),
                offset: block * 4096,
                len: 4096,
                fill: ((self.conn * 97 + k * 31 + block) % 251) as u8,
            })
        } else if i - self.writes < self.reads {
            let j = i - self.writes;
            Some(WorkItem::Read {
                oid: conn_oid(self.conn, j % 8, self.pgs),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

/// `conns` connections, each a [`ConnStream`] of `writes` then `reads`, with
/// every object prefilled to `object_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ConnLoad {
    /// Connections.
    pub conns: u64,
    /// Writes per connection.
    pub writes: u64,
    /// Reads per connection, after its writes.
    pub reads: u64,
    /// Prefilled size of each object.
    pub object_bytes: u64,
}

impl ConnLoad {
    /// Operations the whole load issues.
    pub fn total_ops(&self) -> u64 {
        self.conns * (self.writes + self.reads)
    }

    /// One [`ConnStream`] per connection, its objects in `pgs` groups.
    pub fn workloads(&self, pgs: u32) -> Vec<Box<dyn ConnWorkload>> {
        (0..self.conns)
            .map(|conn| {
                Box::new(ConnStream {
                    conn,
                    pgs,
                    writes: self.writes,
                    reads: self.reads,
                    cursor: 0,
                }) as Box<dyn ConnWorkload>
            })
            .collect()
    }

    /// Every object of every connection with its prefill size.
    pub fn objects(&self, pgs: u32) -> Vec<(ObjectId, u64)> {
        (0..self.conns)
            .flat_map(|c| (0..8).map(move |k| (conn_oid(c, k, pgs), self.object_bytes)))
            .collect()
    }

    /// A simulation of `cfg` under this load, prefilled, its objects spread
    /// over `cfg.pg_count` groups.
    pub fn sim(&self, cfg: ClusterSimConfig) -> ClusterSim {
        let pgs = cfg.pg_count;
        let mut sim = ClusterSim::new(cfg, self.workloads(pgs));
        sim.prefill(&self.objects(pgs));
        sim
    }

    /// Runs [`ConnLoad::sim`] of `cfg` for `measure` and returns its outcome.
    pub fn run(&self, cfg: ClusterSimConfig, measure: SimDuration) -> Outcome {
        let mut sim = self.sim(cfg);
        let report = sim.run(SimDuration::ZERO, measure);
        Outcome::of(&mut sim, &report)
    }
}

/// A run's full metric fingerprint with the history checker's verdicts
/// (writes acked, reads checked) folded in.
pub fn checked_fingerprint(sim: &ClusterSim, report: &SimReport) -> Fingerprint {
    let checker = sim.checker().expect("history checking enabled");
    report.fingerprint(Some((checker.writes_acked(), checker.reads_checked())))
}

/// The verdict of one finished fault run: its [`checked_fingerprint`] and
/// what it left unhealed ([`ClusterSim::unhealed`]). Two runs of one seed
/// must give equal outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Every simulated result of the run, with the checker's verdicts.
    pub fingerprint: Fingerprint,
    /// Non-Active groups and differing replicas after the run.
    pub unhealed: Vec<String>,
}

impl Outcome {
    /// The outcome of `sim`, whose run reported `report`. This syncs every
    /// backend with its log, so read anything else of `sim` first.
    pub fn of(sim: &mut ClusterSim, report: &SimReport) -> Outcome {
        let fingerprint = checked_fingerprint(sim, report);
        let unhealed = sim.unhealed();
        Outcome {
            fingerprint,
            unhealed,
        }
    }

    /// The fingerprint's counter `name` (`writes_done`, `recovery_pushes`).
    pub fn count(&self, name: &str) -> u64 {
        match self.fingerprint.iter().find(|(n, _)| n == name) {
            Some(&(_, Word::Count(n))) => n,
            _ => panic!("the fingerprint has no counter {name}"),
        }
    }

    /// The fault run of `load` converged: every op resolved (done or
    /// surfaced as an error), at least half the writes done, every counted
    /// write and read vetted by the history checker, and nothing left
    /// unhealed.
    pub fn converged(&self, load: ConnLoad) -> Result<(), String> {
        let [writes, reads, errors, acked, checked] = [
            "writes_done",
            "reads_done",
            "client_errors",
            "writes_acked",
            "reads_checked",
        ]
        .map(|name| self.count(name));
        let total = load.total_ops();
        if writes + reads + errors < total {
            return Err(format!(
                "ops unresolved: {writes}+{reads}+{errors} of {total}"
            ));
        }
        if writes < load.conns * load.writes / 2 {
            return Err(format!("fewer than half the writes done: {writes}"));
        }
        if acked < writes || checked < reads {
            let vetted =
                format!("{acked} acks for {writes} writes, {checked} checks for {reads} reads");
            return Err(format!("the checker missed ops: {vetted}"));
        }
        if !self.unhealed.is_empty() {
            return Err(format!("unhealed after quiesce: {:?}", self.unhealed));
        }
        Ok(())
    }
}

/// Storage nodes of the small cluster, one OSD each.
pub const SMALL_NODES: u32 = 3;
/// Groups of the small cluster.
pub const SMALL_PGS: u32 = 8;

/// The small cluster: 3 nodes × 1 OSD, so replication 2 survives one node
/// failure; 8 cores, 2 priority and 3 non-priority threads, 8 PGs, queue
/// depth 4, a 64 MiB device and 8 MiB of NVM per OSD, flush threshold 8 and
/// `tiny()` stores. The seed is the default's.
pub fn small_cluster(mode: PipelineMode) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(mode);
    cfg.nodes = SMALL_NODES;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 3;
    cfg.pg_count = SMALL_PGS;
    cfg.queue_depth = 4;
    cfg.osd = OsdConfig {
        mode,
        device_bytes: 64 << 20,
        nvm_bytes: 8 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        ..OsdConfig::default()
    };
    cfg
}

/// `cfg` with the fault-tolerant client armed. Heartbeats every 1 ms with a
/// 5 ms grace: the monitor learns of a dead OSD from missed beacons alone.
/// A 10 ms op timeout retried with 1 ms backoff doubling per attempt, 20 %
/// jitter and 8 attempts: ops stranded on a dead OSD go to the new map's
/// primary instead of being abandoned. And the history checker, which vets
/// every read against the acked writes.
pub fn fault_tolerant(mut cfg: ClusterSimConfig) -> ClusterSimConfig {
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    cfg.heartbeat_grace = SimDuration::millis(5);
    cfg.retry = Some(RetryPolicy {
        timeout_nanos: 10_000_000,
        backoff_base_nanos: 1_000_000,
        backoff_multiplier: 2.0,
        jitter_frac: 0.2,
        max_attempts: 8,
    });
    cfg.check_history = true;
    cfg
}

/// Message noise on every link for the first 10 s: `drop_p` of messages
/// dropped, half as many duplicated, 5 % reordered by up to 200 µs and 2 %
/// held back by a 500 µs spike.
pub fn noisy_link(drop_p: f64) -> LinkFault {
    LinkFault {
        link: None,
        from: SimTime::ZERO,
        until: ms(10_000),
        drop_p,
        dup_p: drop_p / 2.0,
        reorder_p: 0.05,
        reorder_max: SimDuration::nanos(200_000),
        spike_p: 0.02,
        spike: SimDuration::nanos(500_000),
    }
}

/// The chaos scenario's load: 4 connections of 400 writes then 100 reads
/// over 1 MiB objects.
pub const CHAOS_LOAD: ConnLoad = ConnLoad {
    conns: 4,
    writes: 400,
    reads: 100,
    object_bytes: 1 << 20,
};

/// The fixed chaos scenario, seed `0xC0FFEE`, on the small fault-tolerant
/// cluster: noisy links throughout, nodes 0 and 1 partitioned over 8–18 ms,
/// device 1 eight times slow over 2–25 ms, and OSD 0 crashed at 6 ms with a
/// torn NVM tail and restarted at 40 ms.
pub fn chaos_config() -> ClusterSimConfig {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.seed = 0xC0FFEE;
    cfg.faults = FaultPlan::none()
        .with_link_fault(noisy_link(0.01))
        .with_partition(Partition {
            a: 0,
            b: 1,
            from: ms(8),
            until: ms(18),
        })
        .with_gray_window(GrayWindow {
            device: 1,
            from: ms(2),
            until: ms(25),
            multiplier: 8.0,
        })
        .with_crash(CrashSchedule {
            process: 0,
            at: ms(6),
            restart_at: Some(ms(40)),
            torn_tail: true,
        });
    cfg
}

/// The elastic-operations cluster: `nodes` × 4 OSDs of 6 cores, 1 priority
/// and 2 non-priority threads, queue depth 4, a 32 MiB device and 4 MiB of
/// NVM per OSD, and a backfill throttle tight enough (2 objects in flight,
/// 1 MiB per tick) that a large wave of joiners queues.
pub fn elastic_cluster(nodes: u32, pgs: u32) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = nodes;
    cfg.osds_per_node = 4;
    cfg.cores_per_node = 6;
    cfg.priority_threads = 1;
    cfg.non_priority_threads = 2;
    cfg.pg_count = pgs;
    cfg.queue_depth = 4;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        device_bytes: 32 << 20,
        nvm_bytes: 4 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        max_backfill_inflight: 2,
        backfill_bytes_per_tick: 1 << 20,
    };
    cfg
}

/// Storage nodes of the grow topology, 4 OSDs each.
const GROW_NODES: u32 = 16;
/// Groups of the grow topology.
const GROW_PGS: u32 = 32;

/// The grow scenario's load: 3 connections of `writes` then `reads` over
/// 256 KiB objects.
pub const fn grow_load(writes: u64, reads: u64) -> ConnLoad {
    ConnLoad {
        conns: 3,
        writes,
        reads,
        object_bytes: 256 << 10,
    }
}

/// Grow 4 → 8 → 64 OSDs under load, on the fault-tolerant 16 × 4 elastic
/// cluster with no link noise. With `churn`, only the first OSD of nodes 0–3
/// starts in service; the first OSD of nodes 4–7 is woven in at 8 ms and the
/// other 56 from 20 ms, 100 µs apart. Without it all 64 serve from the
/// start: the control that frames the expansion's cost.
pub fn grow_config(seed: u64, churn: bool) -> ClusterSimConfig {
    const OSDS: u32 = GROW_NODES * 4;
    let mut cfg = fault_tolerant(elastic_cluster(GROW_NODES, GROW_PGS));
    cfg.seed = seed;
    if churn {
        let seed_osds = [0u32, 4, 8, 12];
        let second = [16u32, 20, 24, 28];
        cfg.initially_out = (0..OSDS).filter(|id| !seed_osds.contains(id)).collect();
        let mut ops: Vec<ChurnOp> = second
            .iter()
            .map(|&osd| ChurnOp {
                at: ms(8),
                osd,
                weight: DEFAULT_OSD_WEIGHT,
            })
            .collect();
        let rest = (0..OSDS).filter(|id| !seed_osds.contains(id) && !second.contains(id));
        ops.extend(rest.enumerate().map(|(i, osd)| ChurnOp {
            at: ms(20) + SimDuration::nanos(100_000) * i as u64,
            osd,
            weight: DEFAULT_OSD_WEIGHT,
        }));
        cfg.churn = ops;
    }
    cfg
}

/// The OSD whose device the gray scenario slows.
pub const GRAY_OSD: u32 = 1;

/// The gray scenario's load: 2 connections of 600 writes over 1 MiB objects.
pub const GRAY_LOAD: ConnLoad = ConnLoad {
    conns: 2,
    writes: 600,
    reads: 0,
    object_bytes: 1 << 20,
};

/// The small cluster in the coupled Ptc pipeline (writes wait for the
/// device), seed `0x6BA1`, with [`GRAY_OSD`]'s device eight times slow for
/// the whole run and nothing else failing; traced, with a 16-op slow ring.
pub fn gray_config() -> ClusterSimConfig {
    let mut cfg = small_cluster(PipelineMode::Ptc);
    cfg.seed = 0x6BA1;
    cfg.faults = FaultPlan::none().with_gray_window(GrayWindow {
        device: GRAY_OSD as usize,
        from: SimTime::ZERO,
        until: ms(10_000),
        multiplier: 8.0,
    });
    cfg.trace = true;
    cfg.slow_op_ring = 16;
    cfg
}

/// Connections of the fig7 load.
const FIG7_CONNS: usize = 16;

/// A simulation of `cfg` (the paper cluster, in `crate::paper_cluster`) under
/// the fig7 load: 16 connections of 4 KiB random writes, one 16 MiB image
/// each, prefilled.
pub fn fig7_sim(cfg: ClusterSimConfig) -> ClusterSim {
    let dataset = Dataset::default_for(FIG7_CONNS);
    let mut sim = ClusterSim::new(cfg, randwrite_conns(dataset, FIG7_CONNS));
    sim.prefill(&dataset.all_objects());
    sim
}

/// Client connections of the scale scenario, one image each.
const SCALE_CONNS: usize = 10_000;

/// The scale scenario's cluster: 256 OSDs (32 nodes × 8) of 24 cores, two
/// threads of each kind per OSD, 512 PGs, replication 2, queue depth 2, seed
/// `0x5CA1E`. Each OSD has a 512 MiB device, 16 MiB of NVM, flush threshold 8
/// and a `tiny()` store with 4 partitions and 1 024 onode slots.
pub fn scale256_config() -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 32;
    cfg.osds_per_node = 8;
    // 8 OSDs x 2 pinned priority threads + a shared pool, matching the
    // paper testbed's 44-logical-core nodes in spirit.
    cfg.cores_per_node = 24;
    cfg.pg_count = 512;
    cfg.replication = 2;
    cfg.queue_depth = 2;
    cfg.seed = 0x5CA1E;
    cfg.messenger_threads = 2;
    cfg.pg_threads = 2;
    cfg.rtc_threads = 2;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 2;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        // A device holds only what was written, so a roomy one is cheap;
        // PG-placement skew can pile ~3x the mean PG count onto one OSD and
        // the hash can pile those PGs onto one partition, so each partition
        // needs slack over the ~20 MiB mean.
        device_bytes: 512 << 20,
        nvm_bytes: 16 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        // ~156 objects land on each OSD (10k objects x 2 replicas over
        // 256 OSDs); tiny()'s 128 onode slots are too few.
        cos: CosOptions {
            partitions: 4,
            onode_slots: 1024,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    cfg
}

/// A simulation of `cfg` under the scale scenario's load: 10 000 connections
/// of 4 KiB random writes, one 256 KiB image each, prefilled as one object
/// sized to the image (not the 1 MiB stripe default), so 20 000 replicas
/// over 256 OSDs fit the partition the group hash picks, with skew headroom.
pub fn scale256_sim(cfg: ClusterSimConfig) -> ClusterSim {
    let dataset = Dataset {
        images: SCALE_CONNS as u64,
        image_bytes: 256 << 10,
    };
    let mut sim = ClusterSim::new(cfg, randwrite_conns(dataset, SCALE_CONNS));
    let objects: Vec<(ObjectId, u64)> = (0..dataset.images)
        .map(|image| (dataset.object(image, 0).0, dataset.image_bytes))
        .collect();
    sim.prefill(&objects);
    sim
}
