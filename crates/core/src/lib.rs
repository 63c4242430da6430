//! # rablock — a re-architected distributed block storage system
//!
//! A from-scratch Rust implementation of the system described in
//! *Re-architecting Distributed Block Storage System for Improving Random
//! Write Performance* (ICDCS 2021): a Ceph-like replicated object cluster
//! serving virtual block devices, rebuilt around three ideas:
//!
//! 1. **Decoupled operation processing** — writes are logged to an NVM
//!    operation log and acknowledged as soon as all replicas have logged
//!    them; a best-effort bottom half batch-flushes to the backend store
//!    (`rablock-oplog`).
//! 2. **Prioritized thread control** — latency-critical message/replication
//!    work runs on priority threads pinned to dedicated cores; storage
//!    processing runs on a non-priority pool (`rablock-cluster`).
//! 3. **A CPU-efficient object store** — in-place updates on a raw device,
//!    pre-allocated fixed-size objects, sharded partitions, and an NVM
//!    metadata cache, eliminating LSM compaction entirely (`rablock-cos`).
//!
//! Every baseline from the paper is included too: stock Ceph's thread-pool
//! OSD over a BlueStore-like LSM backend (`rablock-lsm`), and the
//! run-to-completion roofline variants.
//!
//! ## Quick start
//!
//! ```
//! use rablock::{BlockImage, ClusterBuilder, ImageSpec, PipelineMode};
//!
//! # fn main() -> Result<(), rablock::StoreError> {
//! // A 2-node cluster running the full proposed system.
//! let cluster = ClusterBuilder::new(PipelineMode::Dop)
//!     .nodes(2)
//!     .osds_per_node(1)
//!     .pg_count(16)
//!     .device_bytes(64 << 20)
//!     .start_live();
//!
//! // An 8 MiB virtual block device striped over 4 MiB objects.
//! let image = BlockImage::create(&cluster, ImageSpec::new(1, 8 << 20, 16))?;
//! image.write(4096, b"hello block storage")?;
//! assert_eq!(image.read(4096, 19)?, b"hello block storage");
//!
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! For the deterministic simulation used to regenerate the paper's figures,
//! see [`sim`] and the `rablock-bench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod image;
mod verify;

pub use client::BlockImage;
pub use cluster::ClusterBuilder;
pub use image::{ImageSpec, DEFAULT_OBJECT_BYTES};
pub use verify::ModelChecker;

pub use rablock_cluster::live_driver::{LiveClient, LiveCluster};
pub use rablock_cluster::osd::PipelineMode;
pub use rablock_storage::{GroupId, ObjectId, Payload, StoreError};

/// Deterministic cluster simulation (re-exported from `rablock-cluster`).
pub mod sim {
    pub use rablock_cluster::costs::CostModel;
    pub use rablock_cluster::invariants::HistoryChecker;
    pub use rablock_cluster::retry::RetryPolicy;
    pub use rablock_cluster::sim_driver::{
        fingerprint_hash, ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, Fingerprint,
        SimReport, Word, WorkItem, MON_NODE,
    };
    pub use rablock_sim::{
        chrome_trace_json, AttributionReport, BitRotSchedule, Component, CrashSchedule, FaultEvent,
        FaultPlan, GrayWindow, LatSummary, LinkFault, Partition, RotMedia, SimDuration, SimRng,
        SimTime, SlowOp, SsdState, TimeSeries, TraceId, Track,
    };
}
