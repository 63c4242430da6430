//! Drives the elastic-operations layer end to end through the public API:
//! a cluster boots with half its OSDs weighted out of placement, then an
//! admin weaves them in at full weight while clients keep writing — so new
//! OSDs peer, pull history, and backfill in under a tight throttle, and the
//! rebalance is visible in the report counters and the capacity spread.
//!
//! Usage: `cargo run --release --example elastic_grow [seed]`

use rablock::sim::{ChurnOp, ClusterSim, ConnWorkload, SimDuration, SimRng, WorkItem};
use rablock::{ObjectId, PipelineMode};
use rablock_bench::scenarios::{conn_oid, fault_tolerant, ms, small_cluster};
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;

const PGS: u32 = 16;

fn oid(conn: u64, i: u64) -> ObjectId {
    conn_oid(conn, i, PGS)
}

struct Conn {
    conn: u64,
    cursor: u64,
}

impl ConnWorkload for Conn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < 256 {
            Some(WorkItem::Write {
                oid: oid(self.conn, i % 8),
                offset: ((i / 8) % 16) * 4096,
                len: 4096,
                fill: ((self.conn * 97 + i) % 251) as u8,
            })
        } else if i < 320 {
            let j = i - 256;
            Some(WorkItem::Read {
                oid: oid(self.conn, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

fn build(seed: u64) -> ClusterSim {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.nodes = 4;
    cfg.osds_per_node = 2;
    cfg.pg_count = PGS;
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
    let conns = (0..2)
        .map(|c| Box::new(Conn { conn: c, cursor: 0 }) as Box<dyn ConnWorkload>)
        .collect();
    ClusterSim::new(cfg, conns)
}

#[allow(clippy::type_complexity)]
fn run(seed: u64) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
    let mut sim = build(seed);
    let objects: Vec<_> = (0..2u64)
        .flat_map(|c| (0..8u64).map(move |i| (oid(c, i), 256 << 10)))
        .collect();
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(2));
    let checker = sim.checker().expect("history checking enabled");
    (
        report.writes_done,
        report.reads_done,
        report.client_errors,
        checker.writes_acked(),
        checker.reads_checked(),
        report.recovery_pushes,
        report.backfill_bytes,
        report.backfill_queued,
        sim.capacity_imbalance().to_bits(),
        sim.osd_fill_bytes().into_iter().map(|(_, b)| b).collect(),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(42, |s| s.parse().expect("seed: u64"));
    println!("elastic grow demo: seed={seed}");
    println!("4 nodes x 2 OSDs; boots on 4 OSDs, the other 4 weave in at 8 ms under load");

    let first = run(seed);
    let (w, r, e, acked, checked, pushes, bf_bytes, bf_queued, imb, ref fills) = first;
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("recovery_pushes={pushes} backfill_bytes={bf_bytes} backfill_queued={bf_queued}");
    let filled = fills.iter().filter(|&&b| b > 0).count();
    println!(
        "capacity: {} of {} OSDs hold data, max/mean fill imbalance {:.2}",
        filled,
        fills.len(),
        f64::from_bits(imb)
    );
    assert!(w + r + e >= 2 * 320, "all ops resolved");
    assert!(checked >= r, "every read vetted against acked writes");
    assert!(pushes >= 1, "the expansion must move data");
    assert!(filled >= 6, "joiners must take a share of the data");

    let second = run(seed);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — rebalance lost no acknowledged write.");
}
