//! A fio-style random-write benchmark against a live (real threads) cluster.
//!
//! Compares the stock architecture (`Original`) to the proposed system
//! (`Dop`) functionally: same workload, real concurrency, throughput from
//! wall-clock time. (The paper's *performance* figures come from the
//! deterministic simulation in `rablock-bench`, where CPU and devices are
//! modeled; this example shows the systems really run.)
//!
//! ```sh
//! cargo run --release --example fio_randwrite
//! ```

use std::time::Instant;

use rand::SeedableRng;

use rablock::{BlockImage, ClusterBuilder, ImageSpec, PipelineMode, StoreError};
use rablock_workload::{AccessPattern, FioJob, LogHistogram, WlKind};

const WORKERS: usize = 4;
const OPS_PER_WORKER: u64 = 2_000;
const IMAGE_BYTES: u64 = 16 << 20;

fn run(mode: PipelineMode) -> Result<(), StoreError> {
    println!("--- {mode:?} ---");
    let cluster = ClusterBuilder::new(mode)
        .nodes(2)
        .osds_per_node(2)
        .pg_count(32)
        .device_bytes(128 << 20)
        .start_live();

    let mut handles = Vec::new();
    let start = Instant::now();
    for w in 0..WORKERS {
        let image = BlockImage::create(
            &cluster,
            ImageSpec::with_object_size(w as u8 + 1, IMAGE_BYTES, 32, 1 << 20),
        )?;
        handles.push(std::thread::spawn(
            move || -> Result<LogHistogram, StoreError> {
                let mut hist = LogHistogram::new();
                let mut job = FioJob::new(AccessPattern::RandWrite, 4096, IMAGE_BYTES);
                let mut rng = rand::rngs::SmallRng::seed_from_u64(0xF10 + w as u64);
                for i in 0..OPS_PER_WORKER {
                    let op = job.next_op(&mut rng);
                    assert_eq!(op.kind, WlKind::Write);
                    let t0 = Instant::now();
                    image.write(op.offset, &vec![(i % 251) as u8; op.len as usize])?;
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
                Ok(hist)
            },
        ));
    }
    let mut hist = LogHistogram::new();
    for h in handles {
        hist.merge(&h.join().expect("worker thread")?);
    }
    let elapsed = start.elapsed();
    let total = WORKERS as u64 * OPS_PER_WORKER;
    println!(
        "  {total} x 4KiB random writes in {:.2?}: {:.0} IOPS (wall clock)",
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "  latency: mean={:.1}µs p50={:.1}µs p95={:.1}µs p99={:.1}µs",
        us(hist.mean()),
        us(hist.percentile(0.50)),
        us(hist.percentile(0.95)),
        us(hist.percentile(0.99)),
    );
    cluster.shutdown();
    Ok(())
}

fn main() -> Result<(), StoreError> {
    println!(
        "fio-style: {WORKERS} workers x {OPS_PER_WORKER} x 4KiB random writes, replication 2\n"
    );
    run(PipelineMode::Original)?;
    run(PipelineMode::Dop)?;
    println!(
        "\n(for the paper's figures, run `cargo run --release -p rablock-bench --bin figures`)"
    );
    Ok(())
}
