//! Drives the elastic-operations layer end to end through the public API:
//! a cluster boots with half its OSDs weighted out of placement, then an
//! admin weaves them in at full weight while clients keep writing — so new
//! OSDs peer, pull history, and backfill in under a tight throttle, and the
//! rebalance is visible in the report counters and the capacity spread.
//!
//! Usage: `cargo run --release --example elastic_grow [seed]`

use rablock::sim::{ChurnOp, ClusterSimConfig, SimDuration};
use rablock::PipelineMode;
use rablock_bench::scenarios::{fault_tolerant, ms, small_cluster, ConnLoad, Outcome};
use rablock_cluster::invariants::capacity_imbalance;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;

/// Two connections of 256 writes then 64 reads over 256 KiB objects.
const LOAD: ConnLoad = ConnLoad {
    conns: 2,
    writes: 256,
    reads: 64,
    object_bytes: 256 << 10,
};

fn config(seed: u64) -> ClusterSimConfig {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.nodes = 4;
    cfg.osds_per_node = 2;
    cfg.pg_count = 16;
    cfg.seed = seed;
    // A deliberately tight backfill throttle so the rebalance queues.
    cfg.osd.max_backfill_inflight = 2;
    cfg.osd.backfill_bytes_per_tick = 1 << 20;
    // OSD ids are node-major (node*2, node*2+1): boot on the even OSD of
    // each node, keep the odd ones provisioned but weighted out…
    cfg.initially_out = (0..8).filter(|o| o % 2 == 1).collect();
    // …then an admin weaves them in at unit weight, 100 µs apart, at 8 ms.
    cfg.churn = (0..8)
        .filter(|o| o % 2 == 1)
        .map(|o| ChurnOp {
            at: ms(8) + SimDuration::micros(100) * o as u64,
            osd: o,
            weight: DEFAULT_OSD_WEIGHT,
        })
        .collect();
    cfg
}

/// The run's outcome and the fill of every OSD in service at its end.
fn run(seed: u64) -> (Outcome, Vec<u64>) {
    let mut sim = LOAD.sim(config(seed));
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(2));
    let fills = sim.osd_fill_bytes().into_iter().map(|(_, b)| b).collect();
    (Outcome::of(&mut sim, &report), fills)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(42, |s| s.parse().expect("seed: u64"));
    println!("elastic grow demo: seed={seed}");
    println!("4 nodes x 2 OSDs; boots on 4 OSDs, the other 4 weave in at 8 ms under load");

    let first = run(seed);
    let (outcome, fills) = &first;
    let [w, r, e, acked, checked, pushes, bf_bytes, bf_queued] = [
        "writes_done",
        "reads_done",
        "client_errors",
        "writes_acked",
        "reads_checked",
        "recovery_pushes",
        "backfill_bytes",
        "backfill_queued",
    ]
    .map(|name| outcome.count(name));
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("recovery_pushes={pushes} backfill_bytes={bf_bytes} backfill_queued={bf_queued}");
    let filled = fills.iter().filter(|&&b| b > 0).count();
    println!(
        "capacity: {} of {} OSDs hold data, max/mean fill imbalance {:.2}",
        filled,
        fills.len(),
        capacity_imbalance(fills)
    );
    outcome.converged(LOAD).expect("the cluster converges");
    assert!(pushes >= 1, "the expansion must move data");
    assert!(filled >= 6, "joiners must take a share of the data");

    let second = run(seed);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — rebalance lost no acknowledged write.");
}
