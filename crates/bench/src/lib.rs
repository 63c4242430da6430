//! # rablock-bench — the paper's experiments
//!
//! One path leads from the code to the paper's numbers: [`sweep`]
//! enumerates every table and figure as a grid of simulation cells, and
//! [`claims`] checks the paper's values against the merged cell lines. The
//! `figures` binary runs both. This library also holds what the cells
//! share: the scaled-down cluster recipe and workload adapters from
//! `rablock-workload` generators onto the simulation's per-connection
//! interface. [`scenarios`] is the kit every chaos, churn and integrity run
//! builds from: the small fault-tolerant cluster, its per-connection
//! write-then-read workload, and the fig7, chaos, grow, gray-device and
//! 256-OSD scale scenarios, shared by the integration tests, the examples
//! and `wallclock`. `wallclock` is the diagnosing tool: it replays the fixed
//! scenarios once and prints their fingerprints, the grow scenario's p99
//! degradation window, the engine's per-worker round breakdown and, on
//! request, their traces. It times nothing; the simulator's speed and memory
//! are measured by the `benchmark/` package at the workspace root.
//!
//! ## Scaling
//!
//! The paper's testbed is 4 storage nodes × 8 OSDs × 44 logical cores with
//! 25 fio connections at queue depth 16×2. The simulation reproduces the
//! *architecture* at reduced scale — 4 nodes × 2 OSDs × 16 cores, 3–16
//! connections — so each cell finishes in seconds while preserving every
//! ratio the paper's claims rest on (who wins, by what factor, where the
//! knees are). Absolute IOPS are therefore lower than the paper's numbers
//! by roughly the scale factor; EXPERIMENTS.md records both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod scenarios;
pub mod sweep;

use rablock::sim::{ClusterSim, ClusterSimConfig, ConnWorkload, SimDuration, SimRng, WorkItem};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;
use rablock_workload::{AccessPattern, FioJob, WlKind, WlOp, YcsbWorkload};

/// Number of logical groups used by all harness clusters.
pub const PG_COUNT: u32 = 128;
/// Object size used by harness images (scaled from RBD's 4 MiB).
pub const OBJECT_BYTES: u64 = 1 << 20;

/// The scaled-down paper cluster: 4 nodes × 2 OSDs, replication 2.
pub fn paper_cluster(mode: PipelineMode) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(mode);
    cfg.nodes = 4;
    cfg.osds_per_node = 2;
    cfg.cores_per_node = 16;
    cfg.pg_count = PG_COUNT;
    cfg.replication = 2;
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

/// The workload's shared view of the dataset: `images` images of
/// `image_bytes` each, striped into [`OBJECT_BYTES`] objects.
#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    /// Number of images (one per connection, like the paper's fio setup).
    pub images: u64,
    /// Bytes per image.
    pub image_bytes: u64,
}

impl Dataset {
    /// Default dataset: scaled from the paper's 30 GB images.
    pub fn default_for(conns: usize) -> Dataset {
        Dataset {
            images: conns as u64,
            image_bytes: 16 << 20,
        }
    }

    /// Objects per image.
    pub fn objects_per_image(&self) -> u64 {
        self.image_bytes.div_ceil(OBJECT_BYTES)
    }

    /// The object backing byte `offset` of `image`.
    pub fn object(&self, image: u64, offset: u64) -> (ObjectId, u64) {
        let idx = offset / OBJECT_BYTES;
        let within = offset % OBJECT_BYTES;
        // Spread (image, idx) over groups deterministically.
        let mut x = (image << 32) ^ idx;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let group = GroupId((x % PG_COUNT as u64) as u32);
        // COS radix keys carry the object index in 32 bits; a 12-bit idx
        // field (4 GiB images) leaves 2^20 images for scale scenarios.
        debug_assert!(idx < (1 << 12) && image < (1 << 20));
        let index = (image << 12) | idx;
        (ObjectId::new(group, index), within)
    }

    /// Every object of every image with its size (prefill).
    pub fn all_objects(&self) -> Vec<(ObjectId, u64)> {
        let mut out = Vec::new();
        for image in 0..self.images {
            for idx in 0..self.objects_per_image() {
                let (oid, _) = self.object(image, idx * OBJECT_BYTES);
                out.push((oid, OBJECT_BYTES));
            }
        }
        out
    }

    /// Converts an abstract byte-space op on `image` into simulator work
    /// items, splitting at object boundaries.
    pub fn work_items(&self, image: u64, op: WlOp) -> Vec<WorkItem> {
        let mut out = Vec::new();
        let mut at = op.offset;
        let end = op.offset + op.len;
        while at < end {
            let (oid, within) = self.object(image, at);
            let chunk = (OBJECT_BYTES - within).min(end - at);
            out.push(match op.kind {
                WlKind::Write => WorkItem::Write {
                    oid,
                    offset: within,
                    len: chunk,
                    fill: (at % 251) as u8,
                },
                WlKind::Read => WorkItem::Read {
                    oid,
                    offset: within,
                    len: chunk,
                },
            });
            at += chunk;
        }
        out
    }
}

/// Adapts a fio job over one image into a simulation connection workload.
pub struct FioConn {
    dataset: Dataset,
    image: u64,
    job: FioJob,
    queue: Vec<WorkItem>,
}

impl FioConn {
    /// A connection driving `job` against `image` of `dataset`.
    pub fn new(dataset: Dataset, image: u64, job: FioJob) -> Self {
        FioConn {
            dataset,
            image,
            job,
            queue: Vec::new(),
        }
    }
}

impl ConnWorkload for FioConn {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        if let Some(item) = self.queue.pop() {
            return Some(item);
        }
        let op = self.job.next_op(rng);
        let mut items = self.dataset.work_items(self.image, op);
        items.reverse();
        let first = items.pop()?;
        self.queue = items;
        Some(first)
    }
}

/// Adapts a YCSB workload over one image into a connection workload.
pub struct YcsbConn {
    dataset: Dataset,
    image: u64,
    wl: YcsbWorkload,
    queue: Vec<WorkItem>,
}

impl YcsbConn {
    /// A connection driving `wl` against `image` of `dataset`.
    pub fn new(dataset: Dataset, image: u64, wl: YcsbWorkload) -> Self {
        YcsbConn {
            dataset,
            image,
            wl,
            queue: Vec::new(),
        }
    }
}

impl ConnWorkload for YcsbConn {
    fn next(&mut self, rng: &mut SimRng) -> Option<WorkItem> {
        if let Some(item) = self.queue.pop() {
            return Some(item);
        }
        let step = self.wl.next(rng);
        let mut items: Vec<WorkItem> = step
            .ops
            .iter()
            .flat_map(|op| self.dataset.work_items(self.image, *op))
            .collect();
        items.reverse();
        let first = items.pop()?;
        self.queue = items;
        Some(first)
    }
}

/// For sequential-read experiments (Fig. 9): write the whole image once
/// (so reads hit the device, not a sparse hole or a memtable), then read
/// 128 KiB blocks sequentially forever.
pub struct SeqWriteThenRead {
    dataset: Dataset,
    image: u64,
    cursor: u64,
    queue: Vec<WorkItem>,
}

impl SeqWriteThenRead {
    /// A connection priming `image` of `dataset` then reading it in a loop.
    pub fn new(dataset: Dataset, image: u64) -> Self {
        SeqWriteThenRead {
            dataset,
            image,
            cursor: 0,
            queue: Vec::new(),
        }
    }
}

impl ConnWorkload for SeqWriteThenRead {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        if let Some(item) = self.queue.pop() {
            return Some(item);
        }
        let blocks = self.dataset.image_bytes / (128 << 10);
        let phase_writes = blocks; // one full pass of writes first
        let (kind, block) = if self.cursor < phase_writes {
            (WlKind::Write, self.cursor)
        } else {
            (WlKind::Read, (self.cursor - phase_writes) % blocks)
        };
        self.cursor += 1;
        let op = WlOp {
            kind,
            offset: block * (128 << 10),
            len: 128 << 10,
        };
        let mut items = self.dataset.work_items(self.image, op);
        items.reverse();
        let first = items.pop()?;
        self.queue = items;
        Some(first)
    }
}

/// Builds a cluster, prefills the dataset, runs warmup + measurement, on
/// the config's own `shards` workers.
pub fn run_sim(
    cfg: ClusterSimConfig,
    dataset: Dataset,
    workloads: Vec<Box<dyn ConnWorkload>>,
    warmup: SimDuration,
    measure: SimDuration,
) -> rablock::sim::SimReport {
    let mut sim = ClusterSim::new(cfg, workloads);
    sim.prefill(&dataset.all_objects());
    sim.run(warmup, measure)
}

/// Default warmup and measurement windows of a sweep cell.
pub fn windows() -> (SimDuration, SimDuration) {
    (SimDuration::millis(40), SimDuration::millis(120))
}

/// Standard banner for a harness.
pub fn banner(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("paper: ICDCS'21 'Re-architecting Distributed Block Storage…'");
    println!("==============================================================");
}

/// A 4 KiB random-write fio connection set (Figures 1, 7, 11; Tables I, II).
pub fn randwrite_conns(dataset: Dataset, conns: usize) -> Vec<Box<dyn ConnWorkload>> {
    (0..conns)
        .map(|c| {
            let job = FioJob::new(AccessPattern::RandWrite, 4096, dataset.image_bytes);
            Box::new(FioConn::new(dataset, c as u64 % dataset.images, job)) as Box<dyn ConnWorkload>
        })
        .collect()
}

/// A 4 KiB random-read fio connection set (Fig. 7-b).
pub fn randread_conns(dataset: Dataset, conns: usize) -> Vec<Box<dyn ConnWorkload>> {
    (0..conns)
        .map(|c| {
            let job = FioJob::new(AccessPattern::RandRead, 4096, dataset.image_bytes);
            Box::new(FioConn::new(dataset, c as u64 % dataset.images, job)) as Box<dyn ConnWorkload>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_objects_cover_images() {
        let d = Dataset {
            images: 2,
            image_bytes: 3 << 20,
        };
        assert_eq!(d.all_objects().len(), 6);
    }

    #[test]
    fn work_items_split_at_object_boundary() {
        let d = Dataset {
            images: 1,
            image_bytes: 4 << 20,
        };
        let op = WlOp {
            kind: WlKind::Write,
            offset: OBJECT_BYTES - 100,
            len: 300,
        };
        let items = d.work_items(0, op);
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn fio_conn_emits_items() {
        let d = Dataset::default_for(1);
        let job = FioJob::new(AccessPattern::RandWrite, 4096, d.image_bytes);
        let mut conn = FioConn::new(d, 0, job);
        let mut rng = SimRng::seed(1);
        for _ in 0..100 {
            assert!(conn.next(&mut rng).is_some());
        }
    }
}
