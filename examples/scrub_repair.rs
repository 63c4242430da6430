//! Drives the end-to-end data-integrity loop through the public API: a
//! seeded bit-rot fault silently corrupts one OSD's committed object data
//! mid-run, per-block checksums keep the rotten bytes away from clients,
//! and the background deep scrub finds the bad copies, votes blame, and
//! repairs them through the recovery push machinery — all while the
//! history checker vets every read against acked writes.
//!
//! Usage: `cargo run --release --example scrub_repair [seed] [flips]`

use rablock::sim::{
    BitRotSchedule, ClusterSim, ConnWorkload, FaultPlan, RotMedia, SimDuration, SimRng, WorkItem,
};
use rablock::{ObjectId, PipelineMode};
use rablock_bench::scenarios::{conn_oid, fault_tolerant, ms, small_cluster, Outcome, SMALL_PGS};

const OBJECTS: u64 = 8;
const BLOCKS: u64 = 16;
const WRITES: u64 = OBJECTS * BLOCKS;
const BALLAST: u64 = 256;
const READS: u64 = WRITES;

fn oid(i: u64) -> ObjectId {
    conn_oid(0, i, SMALL_PGS)
}

/// Ballast objects live far from the real ones (ids 1000..1008, the
/// objects of a connection 10 that does not exist); their writes keep the
/// cluster busy long enough for the rot strike and the scrub sweeps to
/// land inside the run, and push earlier records through the flush window.
fn ballast_oid(j: u64) -> ObjectId {
    conn_oid(10, j % 8, SMALL_PGS)
}

/// Writes, ballast, then a full read-back sweep of every written block —
/// the reads run after the rot strike, so correct contents prove the
/// checksum/redirect/repair path end to end.
struct Conn {
    cursor: u64,
}

impl ConnWorkload for Conn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < WRITES {
            Some(WorkItem::Write {
                oid: oid(i % OBJECTS),
                offset: (i / OBJECTS) * 4096,
                len: 4096,
                fill: (i % 251) as u8,
            })
        } else if i < WRITES + BALLAST {
            let j = i - WRITES;
            Some(WorkItem::Write {
                oid: ballast_oid(j),
                offset: (j / 8) * 4096,
                len: 4096,
                fill: (j % 251) as u8,
            })
        } else if i < WRITES + BALLAST + READS {
            let j = i - WRITES - BALLAST;
            Some(WorkItem::Read {
                oid: oid(j % OBJECTS),
                offset: (j / OBJECTS) * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

fn build(seed: u64, flips: u32) -> ClusterSim {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.seed = seed;
    // tiny() models the paper's checksum-free store; integrity needs the
    // per-block CRCs on.
    cfg.osd.cos.checksums = true;
    // Silent corruption against osd 1's committed data, mid-ballast: any
    // flushed block of any object it holds is fair game.
    cfg.faults = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 1,
        at: ms(6),
        object_lo: 0,
        object_hi: u64::MAX,
        flips,
        media: RotMedia::CosData,
    });
    // Deep scrub every sweep, fast cadence so detection lands in-run.
    cfg.scrub_interval = Some(SimDuration::millis(4));
    cfg.scrub_deep_every = 1;
    ClusterSim::new(
        cfg,
        vec![Box::new(Conn { cursor: 0 }) as Box<dyn ConnWorkload>],
    )
}

fn run(seed: u64, flips: u32) -> Outcome {
    let mut sim = build(seed, flips);
    let mut objects: Vec<(ObjectId, u64)> = (0..OBJECTS).map(|i| (oid(i), BLOCKS * 4096)).collect();
    objects.extend((0..8).map(|j| (ballast_oid(j), (BALLAST / 8) * 4096)));
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    Outcome::of(&mut sim, &report)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(11, |s| s.parse().expect("seed: u64"));
    let flips: u32 = args.next().map_or(64, |s| s.parse().expect("flips: u32"));
    println!("scrub repair demo: seed={seed} flips={flips}");
    println!("fault: {flips} silent bit flips on osd1's committed data @6ms; deep scrub every 4ms");

    let first = run(seed, flips);
    let [w, r, e, acked, checked, scrubs, found, repaired, read_csum] = [
        "writes_done",
        "reads_done",
        "client_errors",
        "writes_acked",
        "reads_checked",
        "scrubs_completed",
        "scrub_errors_found",
        "scrub_errors_repaired",
        "read_checksum_errors",
    ]
    .map(|name| first.count(name));
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("scrubs_completed={scrubs} errors_found={found} errors_repaired={repaired} read_checksum_errors={read_csum}");
    assert_eq!(e, 0, "no client ever sees the corruption");
    assert!(checked >= r, "every read vetted against acked writes");
    assert!(scrubs > 0, "scrub cadence ran");
    assert!(found > 0, "deep scrub must catch the rotten copies");
    assert!(repaired > 0, "scrub repair must heal them");
    let unhealed = &first.unhealed;
    assert!(
        unhealed.is_empty(),
        "replicas must agree at quiesce: {unhealed:?}"
    );

    let second = run(seed, flips);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — rot was found, blamed, and healed; no client saw a corrupt byte.");
}
