//! End-to-end data integrity: bit-rot chaos, background scrub, read-path
//! verification, and self-healing repair.
//!
//! The headline invariant: under bit-rot plans that corrupt fewer than
//! `size` replicas of any object (all rot lands on one OSD per case), every
//! acknowledged write remains readable with exactly the bytes acknowledged
//! (the history checker panics otherwise), every PG returns to Active, all
//! surviving replicas end byte-identical with consistent checksum metadata
//! — and the entire history, including which bits rotted, replays
//! byte-identically from the seed.

use proptest::prelude::*;
use rablock::sim::{
    BitRotSchedule, ClusterSim, ClusterSimConfig, ConnWorkload, CrashSchedule, FaultPlan, RotMedia,
    SimDuration, SimRng, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_bench::scenarios::{
    cases, conn_oid, fault_tolerant, ms, small_cluster, ConnLoad, Outcome, SMALL_NODES, SMALL_PGS,
};
use rablock_cluster::placement::OsdMap;

const NODES: usize = SMALL_NODES as usize;
const WRITES_PER_CONN: u64 = 96;
/// Blocks the write phase maps per object (96 writes / 8 objects = 12
/// sequential 4 KiB blocks each). Prefill declares exactly this size so
/// every rot-eligible block is one a write actually mapped — rot that lands
/// always lands on real data, never on a hole.
const BLOCKS_PER_OBJECT: u64 = WRITES_PER_CONN / 8;
const OBJECT_BYTES: u64 = BLOCKS_PER_OBJECT * 4096;
/// Two connections of 96 writes then 24 reads, the chaos suite's shape. The
/// stream wraps at 16 blocks, but 96 writes stop at block 11, so every write
/// lands inside its 12-block object.
const LOAD: ConnLoad = ConnLoad {
    conns: 2,
    writes: WRITES_PER_CONN,
    reads: 24,
    object_bytes: OBJECT_BYTES,
};

/// Object `k` of connection `conn`.
fn oid(conn: u64, k: u64) -> ObjectId {
    conn_oid(conn, k, SMALL_PGS)
}

/// Ballast objects for [`FullSweepConn`]: one per group, outside the rot
/// strike's object range, written purely to stretch wall time and to keep
/// per-group records flowing so every real write gets flushed to the
/// backend before the read sweep begins. They take the ids a connection 10
/// would use (1000..1008); no connection of the run has that number.
const BALLAST_WRITES: u64 = 384;

fn ballast_oid(j: u64) -> ObjectId {
    oid(10, j % 8)
}

/// One connection, five phases: (1) write every block of its 8 objects,
/// (2) ballast writes that flush the real blocks out of the NVM log,
/// (3) a first full read sweep, (4) a second long ballast phase — the rot
/// strike lands here, well clear of both sweeps' timing — and (5) a second
/// full read sweep that is therefore guaranteed to read every rotted block
/// from the backend. Read-repair alone (no scrub) must heal the replica
/// set.
struct FullSweepConn {
    cursor: u64,
}

const SWEEP_WRITES: u64 = 8 * BLOCKS_PER_OBJECT;
const SWEEP_TOTAL_OPS: u64 = SWEEP_WRITES + 2 * BALLAST_WRITES + 2 * SWEEP_WRITES;

impl ConnWorkload for FullSweepConn {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        let read = |j: u64| {
            Some(WorkItem::Read {
                oid: oid(0, j % 8),
                offset: (j / 8) * 4096,
                len: 4096,
            })
        };
        let ballast = |j: u64| {
            Some(WorkItem::Write {
                oid: ballast_oid(j),
                offset: (j / 8 % BLOCKS_PER_OBJECT) * 4096,
                len: 4096,
                fill: ((j * 13) % 251) as u8,
            })
        };
        if i < SWEEP_WRITES {
            let k = i % 8;
            let block = i / 8;
            Some(WorkItem::Write {
                oid: oid(0, k),
                offset: block * 4096,
                len: 4096,
                fill: ((k * 31 + block) % 251) as u8,
            })
        } else if i < SWEEP_WRITES + BALLAST_WRITES {
            ballast(i - SWEEP_WRITES)
        } else if i < SWEEP_WRITES + BALLAST_WRITES + SWEEP_WRITES {
            read(i - SWEEP_WRITES - BALLAST_WRITES)
        } else if i < SWEEP_WRITES + 2 * BALLAST_WRITES + SWEEP_WRITES {
            ballast(i - 2 * SWEEP_WRITES - BALLAST_WRITES)
        } else if i < SWEEP_TOTAL_OPS {
            read(i - SWEEP_WRITES - 2 * BALLAST_WRITES - SWEEP_WRITES)
        } else {
            None
        }
    }
}

fn base_config(seed: u64, faults: FaultPlan) -> ClusterSimConfig {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.seed = seed;
    // tiny() models the paper's store (no data checksums); integrity
    // tests need the read-path CRCs on.
    cfg.osd.cos.checksums = true;
    cfg.faults = faults;
    cfg
}

/// One bit-rot chaos case: where the rot lands, how hard, and how the scrub
/// cadence is tuned. All strikes target a single OSD, so no object ever has
/// `size` (= 2) corrupt replicas — the regime the headline invariant covers.
#[derive(Debug, Clone, Copy)]
struct RotScenario {
    seed: u64,
    rot_osd: u8,
    flips: u32,
    rot_at_ms: u64,
    second_strike: bool,
    deep_every: u64,
}

fn rot_scenarios() -> impl Strategy<Value = RotScenario> {
    (
        any::<u64>(),
        0u8..NODES as u8,
        16u32..96,
        6u64..40,
        any::<bool>(),
        1u64..4,
    )
        .prop_map(
            |(seed, rot_osd, flips, rot_at_ms, second_strike, deep_every)| RotScenario {
                seed,
                rot_osd,
                flips,
                rot_at_ms,
                second_strike,
                deep_every,
            },
        )
}

fn rot_config(s: &RotScenario) -> ClusterSimConfig {
    let mut plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: s.rot_osd as usize,
        at: ms(s.rot_at_ms),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: s.flips,
        media: RotMedia::CosData,
    });
    if s.second_strike {
        plan = plan.with_bit_rot(BitRotSchedule {
            process: s.rot_osd as usize,
            at: ms(s.rot_at_ms + 25),
            object_lo: 0,
            object_hi: 1 << 16,
            flips: s.flips / 2 + 1,
            media: RotMedia::CosData,
        });
    }
    let mut cfg = base_config(s.seed, plan);
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = s.deep_every;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Headline invariant: bit rot on one OSD, background deep scrub armed.
    /// No acked write is lost, no corrupt byte is ever returned to a client
    /// (checker), and the cluster quiesces Active with byte-identical,
    /// digest-consistent replicas.
    #[test]
    fn scrub_heals_single_osd_bit_rot(s in rot_scenarios()) {
        let o = LOAD.run(rot_config(&s), SimDuration::secs(5));
        o.converged(LOAD).map_err(TestCaseError::fail)?;
        let scrubs = o.count("scrubs_completed");
        prop_assert!(scrubs >= 1, "scrub actually ran: {scrubs}");
        let found = o.count("scrub_errors_found");
        let repaired = o.count("scrub_errors_repaired");
        prop_assert!(
            repaired <= found,
            "repairs never exceed findings: {repaired} repaired of {found} found"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(3)))]

    /// The whole rot history — which bits rotted, what scrub found, every
    /// counter and latency — replays byte-identically from the seed.
    #[test]
    fn bit_rot_history_is_seed_reproducible(s in rot_scenarios()) {
        let a = LOAD.run(rot_config(&s), SimDuration::secs(5));
        let b = LOAD.run(rot_config(&s), SimDuration::secs(5));
        prop_assert_eq!(&a, &b, "same seed: identical history");
        a.converged(LOAD).map_err(TestCaseError::fail)?;
    }
}

/// Rot in the NVM operation log is latent — the in-memory mirror stays
/// clean — until a crash forces recovery to replay the log from the device.
/// Truncating recovery drops the damaged suffix, peering re-heals the lost
/// tail from the surviving replicas, and deep scrub mops up anything the
/// log replay re-applied over rotted backend state.
#[test]
fn nvm_log_rot_surfaces_at_crash_and_heals() {
    let plan = FaultPlan::none()
        .with_bit_rot(BitRotSchedule {
            process: 1,
            at: ms(6),
            object_lo: 0,
            object_hi: 1 << 16,
            flips: 24,
            media: RotMedia::NvmLog,
        })
        .with_crash(CrashSchedule {
            process: 1,
            at: ms(10),
            restart_at: Some(ms(20)),
            torn_tail: false,
        });
    let mut cfg = base_config(0xB17_0707, plan);
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    let o = LOAD.run(cfg, SimDuration::secs(5));
    o.converged(LOAD).unwrap_or_else(|e| panic!("{e}"));
}

/// The dedicated read-path story, scrub disabled so read-repair carries the
/// whole load: corrupt one object's blocks on the primary that serves it,
/// read every block back. Each corrupt read must surface internally as a
/// checksum mismatch (never as wrong bytes — the checker vets every read),
/// the client must redirect to a clean replica, and the detection must
/// leave a repaired replica behind: byte-identical, digest-consistent.
#[test]
fn corrupted_replica_read_redirects_and_heals() {
    // Object raw id g lives in group g; rot the primary of group 0 and
    // restrict the strike to exactly that object.
    let primary = OsdMap::new(SMALL_NODES, 1, SMALL_PGS, 2)
        .try_primary(GroupId(0))
        .expect("a full map always has a primary")
        .0 as usize;
    let plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: primary,
        at: ms(24),
        object_lo: 0,
        object_hi: 1,
        flips: 64,
        media: RotMedia::CosData,
    });
    let cfg = base_config(0x0DD_B175, plan); // scrub_interval stays None
    let wl: Vec<Box<dyn ConnWorkload>> = vec![Box::new(FullSweepConn { cursor: 0 })];
    let objects: Vec<(ObjectId, u64)> = (0..8)
        .map(|k| (oid(0, k), OBJECT_BYTES))
        .chain((0..8).map(|j| (ballast_oid(j), OBJECT_BYTES)))
        .collect();
    let mut sim = ClusterSim::new(cfg, wl);
    sim.prefill(&objects);
    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    let o = Outcome::of(&mut sim, &report);
    let [writes, reads, errors] =
        ["writes_done", "reads_done", "client_errors"].map(|w| o.count(w));
    let total = SWEEP_TOTAL_OPS;
    assert!(
        writes + reads + errors >= total,
        "all ops resolved: {writes}+{reads}+{errors} of {total}"
    );
    assert_eq!(errors, 0, "redirects absorb every checksum mismatch");
    let detected = o.count("read_checksum_errors");
    assert!(
        detected >= 1,
        "the corrupt read was detected on the rotted primary: {detected}"
    );
    assert_eq!(
        o.count("scrubs_completed"),
        0,
        "scrub stayed out of this one"
    );
    assert!(
        o.unhealed.is_empty(),
        "read-repair left a healed replica behind: {:?}",
        o.unhealed
    );
}

/// A repair rewrites the damaged copy with a pushed object: every block of
/// it then sits on the device as a view of the *sender's* buffers, with the
/// sender's checksum memo. Rot that later lands under such a block must
/// still be found by the next deep scrub, and repaired again.
#[test]
fn rot_under_a_pushed_block_is_found_by_the_next_deep_scrub() {
    let mut cfg = base_config(0x9A5E_D0B1, FaultPlan::none());
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    let mut sim = LOAD.sim(cfg);
    // All writes land and flush; scrubs find nothing.
    let clean = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert_eq!(clean.scrub_errors_found, 0);
    assert!(clean.scrubs_completed >= 1);

    // Strike one object on a non-primary holder: the primary's deep scrub
    // sees the damaged copy and pushes the object over it.
    let target = oid(0, 0);
    let victim = *sim.map().acting_set(target.group()).last().unwrap();
    let victim = victim.0 as usize;
    let strike = |sim: &mut ClusterSim, seed| {
        let landed = sim.inject_data_rot(victim, target.raw(), target.raw() + 1, 16, seed);
        assert!(landed > 0, "rot landed on mapped blocks");
    };
    let found = |sim: &ClusterSim| -> (u64, u64) {
        (0..NODES).fold((0, 0), |(f, r), i| {
            let (found, repaired, _) = sim.integrity_counters(i);
            (f + found, r + repaired)
        })
    };
    strike(&mut sim, 1);
    let first = sim.run(SimDuration::millis(100), SimDuration::millis(100));
    let (found_1, repaired_1) = found(&sim);
    assert!(found_1 >= 1, "the first strike was found");
    assert_eq!(repaired_1, found_1, "and repaired");
    assert!(
        first.recovery_pushes > clean.recovery_pushes,
        "by a push: {} after {}",
        first.recovery_pushes,
        clean.recovery_pushes
    );

    // Every block of the victim's copy arrived by that push. Strike again.
    strike(&mut sim, 2);
    sim.run(SimDuration::millis(200), SimDuration::millis(100));
    let (found_2, repaired_2) = found(&sim);
    assert!(
        found_2 > found_1,
        "rot under pushed blocks was found: {found_2} after {found_1}"
    );
    assert_eq!(repaired_2, found_2, "and repaired");
    let unhealed = sim.unhealed();
    assert!(unhealed.is_empty(), "{unhealed:?}");
    assert_eq!(sim.client_errors(), 0);
}

/// A pre-allocated object no write touches reads, block by block, as the
/// device's shared zero view, which deep scrub and checked reads trust
/// without reading it. Rot that lands there writes the block, so it is no
/// longer that view: a checked read of the copy must fail, and the next deep
/// scrub must find and repair it.
#[test]
fn rot_in_a_never_written_block_is_found_by_deep_scrub_and_a_checked_read() {
    let mut cfg = base_config(0x2E80_B10C, FaultPlan::none());
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    // No connection writes `idle`; it only exists.
    let idle = oid(LOAD.conns, 0);
    let mut objects = LOAD.objects(SMALL_PGS);
    objects.push((idle, OBJECT_BYTES));
    let mut sim = ClusterSim::new(cfg, LOAD.workloads(SMALL_PGS));
    sim.prefill(&objects);
    let clean = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert_eq!(clean.scrub_errors_found, 0);
    assert!(clean.scrubs_completed >= 1);

    let victim = sim.map().acting_set(idle.group()).last().unwrap().0 as usize;
    let zeros = vec![0u8; OBJECT_BYTES as usize];
    assert_eq!(
        sim.object_bytes(victim, idle, OBJECT_BYTES),
        Some(zeros.clone().into())
    );
    let landed = sim.inject_data_rot(victim, idle.raw(), idle.raw() + 1, 8, 3);
    assert!(landed > 0, "rot landed on never-written blocks");
    assert_eq!(
        sim.object_bytes(victim, idle, OBJECT_BYTES),
        None,
        "a checked read of the rotted copy fails"
    );

    sim.run(SimDuration::millis(100), SimDuration::millis(100));
    let (found, repaired) = (0..NODES).fold((0, 0), |(f, r), i| {
        let (found, repaired, _) = sim.integrity_counters(i);
        (f + found, r + repaired)
    });
    assert!(found >= 1, "deep scrub found the rot");
    assert_eq!(repaired, found, "and repaired it");
    assert_eq!(
        sim.object_bytes(victim, idle, OBJECT_BYTES),
        Some(zeros.into())
    );
    let unhealed = sim.unhealed();
    assert!(unhealed.is_empty(), "{unhealed:?}");
    assert_eq!(sim.client_errors(), 0);
}

/// Deep scrub charges the shared recovery byte budget. With a budget
/// smaller than one group's tracked bytes, scrub rounds must defer across
/// throttle windows — visible as `scrub_throttled_nanos` in the report —
/// yet still complete and heal.
#[test]
fn deep_scrub_is_throttle_bounded() {
    let plan = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 2,
        at: ms(8),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: 128,
        media: RotMedia::CosData,
    });
    let mut cfg = base_config(0x7807_713D, plan);
    // Two 48 KiB objects per group; a 64 KiB budget admits at most one
    // group per 1 ms window, so concurrent deep scrubs must queue.
    cfg.osd.backfill_bytes_per_tick = 64 << 10;
    cfg.scrub_interval = Some(SimDuration::millis(5));
    cfg.scrub_deep_every = 1;
    let o = LOAD.run(cfg, SimDuration::secs(5));
    o.converged(LOAD).unwrap_or_else(|e| panic!("{e}"));
    assert!(o.count("scrubs_completed") >= 1, "deep scrub ran");
    let throttled = o.count("scrub_throttled_nanos");
    assert!(
        throttled > 0,
        "the byte budget actually deferred scrub work: {throttled}"
    );
}

/// Scrub is a background citizen: on a healthy cluster, running it must not
/// change anything a client can see — same completed ops, same checker
/// verdicts, no errors either way. (Latency and CPU accounting may shift;
/// correctness may not.)
#[test]
fn scrub_on_vs_off_client_outcomes_identical() {
    let off = LOAD.run(
        base_config(0x5C12B, FaultPlan::none()),
        SimDuration::secs(5),
    );
    let mut on_cfg = base_config(0x5C12B, FaultPlan::none());
    on_cfg.scrub_interval = Some(SimDuration::millis(5));
    on_cfg.scrub_deep_every = 2;
    let on = LOAD.run(on_cfg, SimDuration::secs(5));
    assert_eq!(off.count("scrubs_completed"), 0);
    assert!(
        on.count("scrubs_completed") >= 1,
        "scrub ran in the armed config"
    );
    assert_eq!(
        on.count("scrub_errors_found"),
        0,
        "a healthy cluster scrubs clean"
    );
    for o in [&off, &on] {
        assert_eq!(
            o.count("client_errors"),
            0,
            "no client errors on a healthy cluster"
        );
        assert!(o.unhealed.is_empty(), "{:?}", o.unhealed);
    }
    let seen = ["writes_done", "reads_done", "writes_acked", "reads_checked"];
    assert_eq!(
        seen.map(|w| off.count(w)),
        seen.map(|w| on.count(w)),
        "client-visible outcomes identical with scrub on vs off"
    );
}
