//! Workspace-level determinism guarantees.
//!
//! Every benchmark harness must be reproducible bit-for-bit: same seed →
//! same IOPS, same context-switch count, same byte counters. These tests
//! pin that property across pipeline modes and config dimensions.

use proptest::prelude::*;
use rablock::sim::{
    fingerprint_hash, BitRotSchedule, ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload,
    FaultPlan, LinkFault, RetryPolicy, RotMedia, SimDuration, SimReport, SimRng, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_bench::paper_cluster;
use rablock_bench::scenarios::{
    self, checked_fingerprint, elastic_cluster, fault_tolerant, ms, noisy_link, ConnLoad,
    CHAOS_LOAD, SMALL_PGS,
};
use rablock_cluster::osd::OsdConfig;
use rablock_cluster::placement::DEFAULT_OSD_WEIGHT;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;

fn config(mode: PipelineMode, seed: u64) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(mode);
    cfg.nodes = 2;
    cfg.osds_per_node = 1;
    cfg.cores_per_node = 8;
    cfg.priority_threads = 2;
    cfg.pg_count = 16;
    cfg.seed = seed;
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

fn workloads(conns: usize) -> Vec<Box<dyn ConnWorkload>> {
    (0..conns)
        .map(|c| {
            let mut x = 0xABCDu64.wrapping_add(c as u64);
            Box::new(move |_rng: &mut SimRng| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (x >> 8) % 16;
                Some(WorkItem::Write {
                    oid: ObjectId::new(GroupId((i % 16) as u32), i),
                    offset: ((x >> 40) % 128) * 4096,
                    len: 4096,
                    fill: (x % 251) as u8,
                })
            }) as Box<dyn ConnWorkload>
        })
        .collect()
}

fn fingerprint(mode: PipelineMode, seed: u64) -> (u64, u64, u64, u64) {
    let mut sim = ClusterSim::new(config(mode, seed), workloads(4));
    sim.prefill(
        &(0..16u64)
            .map(|i| (ObjectId::new(GroupId(i as u32 % 16), i), 1 << 20))
            .collect::<Vec<_>>(),
    );
    let r = sim.run(SimDuration::millis(10), SimDuration::millis(40));
    (
        r.writes_done,
        r.context_switches,
        r.nvm_bytes,
        r.device.bytes_written,
    )
}

#[test]
fn identical_seeds_give_identical_runs() {
    for mode in [PipelineMode::Original, PipelineMode::Dop, PipelineMode::Ptc] {
        assert_eq!(fingerprint(mode, 7), fingerprint(mode, 7), "mode {mode:?}");
    }
}

#[test]
fn different_seeds_still_complete_work() {
    let a = fingerprint(PipelineMode::Dop, 1);
    let b = fingerprint(PipelineMode::Dop, 2);
    assert!(
        a.0 > 100 && b.0 > 100,
        "both seeds make progress: {a:?} {b:?}"
    );
}

#[test]
fn repeated_triple_runs_are_stable() {
    let runs: Vec<_> = (0..3).map(|_| fingerprint(PipelineMode::Dop, 99)).collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

/// One run of the kit's fig7 load on the paper cluster over the 20 ms window
/// `wallclock --smoke` replays, with its full metric fingerprint.
fn fig7_fingerprint(trace: bool, shards: usize) -> Vec<u64> {
    let mut cfg = paper_cluster(PipelineMode::Dop);
    cfg.trace = trace;
    cfg.shards = shards;
    if trace {
        cfg.telemetry_window = Some(SimDuration::millis(2));
    }
    let mut sim = scenarios::fig7_sim(cfg);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(20));
    assert!(r.writes_done > 0, "fig7 run must make progress");
    r.fingerprint(None)
}

#[test]
fn fig7_double_run_is_byte_identical() {
    let a = fig7_fingerprint(false, 1);
    let b = fig7_fingerprint(false, 1);
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(a, b, "fig7: same seed must replay identical metrics");
}

fn chaos_fingerprint_traced(seed: u64, trace: bool) -> Vec<u64> {
    chaos_fingerprint_opts(seed, trace, 1, None, 100)
}

/// The chaos fingerprint with the space-parallel knobs exposed: worker
/// shard count, an optional lookahead override (the torture tests force
/// 1 ns to maximize synchronization rounds), and the measure window.
fn chaos_fingerprint_opts(
    seed: u64,
    trace: bool,
    shards: usize,
    lookahead: Option<SimDuration>,
    measure_ms: u64,
) -> Vec<u64> {
    let mut cfg = scenarios::chaos_config();
    cfg.seed = seed;
    cfg.trace = trace;
    cfg.shards = shards;
    cfg.lookahead = lookahead;
    if trace {
        cfg.telemetry_window = Some(SimDuration::millis(5));
    }
    let mut sim = CHAOS_LOAD.sim(cfg);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(measure_ms));
    assert!(r.writes_done > 0, "chaos run must make progress");
    checked_fingerprint(&sim, &r)
}

#[test]
fn chaos_seed_double_run_is_byte_identical() {
    let a = chaos_fingerprint_traced(0xC0FFEE, false);
    let b = chaos_fingerprint_traced(0xC0FFEE, false);
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(
        a, b,
        "chaos: faults, retries, and checker verdicts must replay identically"
    );
}

/// Tracing must be purely passive: arming per-op spans, latency
/// attribution, the slow-op ring, and the windowed telemetry sampler must
/// not move a single event, so the full metric fingerprint is byte-identical
/// tracing off vs on, on both the clean fig7 scenario and the fault-heavy
/// chaos scenario.
#[test]
fn tracing_is_invisible_to_fingerprint_fig7_wheel() {
    let off = fig7_fingerprint(false, 1);
    let on = fig7_fingerprint(true, 1);
    assert_eq!(off, on, "fig7: tracing must not perturb the run");
}

#[test]
fn tracing_is_invisible_to_fingerprint_chaos_wheel() {
    let off = chaos_fingerprint_traced(0xC0FFEE, false);
    let on = chaos_fingerprint_traced(0xC0FFEE, true);
    assert_eq!(off, on, "chaos: tracing must not perturb the run");
}

/// Elastic-operations scenario: a 4-node x 4-OSD topology starts with only
/// the first OSD of each node in service, grows to 16 via two weight-churn
/// waves, while one OSD flaps through 6 down/up cycles (tripping the
/// monitor's dampening) and the backfill throttle is tightened enough to
/// queue. Exercises every counter the elastic-operations work added.
fn churn_config(seed: u64) -> ClusterSimConfig {
    let mut cfg = fault_tolerant(elastic_cluster(4, SMALL_PGS));
    cfg.seed = seed;
    cfg.faults = FaultPlan::none()
        .with_link_fault(LinkFault {
            dup_p: 0.002,
            ..noisy_link(0.005)
        })
        .with_flapping(0, ms(3), 6, SimDuration::millis(10), SimDuration::millis(7));
    // Seed members: first OSD of each node (ids 0, 4, 8, 12).
    let seed_osds = [0u32, 4, 8, 12];
    cfg.initially_out = (0..16u32).filter(|id| !seed_osds.contains(id)).collect();
    let mut churn: Vec<ChurnOp> = [1u32, 5, 9, 13]
        .iter()
        .map(|&osd| ChurnOp {
            at: ms(8),
            osd,
            weight: DEFAULT_OSD_WEIGHT,
        })
        .collect();
    churn.extend(
        (0..16u32)
            .filter(|id| id % 4 >= 2)
            .enumerate()
            .map(|(i, osd)| ChurnOp {
                at: ms(20) + SimDuration::nanos(100_000) * i as u64,
                osd,
                weight: DEFAULT_OSD_WEIGHT,
            }),
    );
    cfg.churn = churn;
    cfg
}

fn churn_fingerprint_sharded(seed: u64, shards: usize) -> Vec<u64> {
    let mut cfg = churn_config(seed);
    cfg.shards = shards;
    let load = ConnLoad {
        object_bytes: 256 << 10,
        ..CHAOS_LOAD
    };
    let mut sim = load.sim(cfg);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert!(r.writes_done > 0, "churn run must make progress");
    let mut fp = checked_fingerprint(&sim, &r);
    fp.push(sim.capacity_imbalance().to_bits());
    fp
}

#[test]
fn churn_seed_double_run_is_byte_identical() {
    let a = churn_fingerprint_sharded(0xE1A5, 1);
    let b = churn_fingerprint_sharded(0xE1A5, 1);
    assert!(a.len() > 20, "fingerprint covers the full report");
    assert_eq!(
        a, b,
        "churn: weight churn, flap dampening, and throttle accounting must replay identically"
    );
}

/// Integrity scenario for the shard-invariance suite: bit rot strikes one
/// OSD mid-run with background deep scrub armed, so the fingerprint covers
/// the scrub/repair counters on top of the usual metric set.
fn scrub_config(seed: u64) -> ClusterSimConfig {
    let mut cfg = scenarios::chaos_config();
    cfg.seed = seed;
    cfg.faults = FaultPlan::none().with_bit_rot(BitRotSchedule {
        process: 1,
        at: ms(6),
        object_lo: 0,
        object_hi: 1 << 16,
        flips: 32,
        media: RotMedia::CosData,
    });
    cfg.osd.cos.checksums = true;
    cfg.scrub_interval = Some(SimDuration::millis(10));
    cfg.scrub_deep_every = 1;
    cfg
}

fn scrub_fingerprint_sharded(seed: u64, shards: usize) -> Vec<u64> {
    let mut cfg = scrub_config(seed);
    cfg.shards = shards;
    let mut sim = CHAOS_LOAD.sim(cfg);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert!(r.writes_done > 0, "scrub run must make progress");
    assert!(r.scrubs_completed > 0, "scrub must actually run");
    checked_fingerprint(&sim, &r)
}

// ---------------------------------------------------------------------------
// Space-parallel execution: `shards` picks how many worker threads run the
// engine's per-node domains. The partition and the cross-domain merge order
// are fixed at construction, so the full metric fingerprint must be
// byte-identical for every worker count, on every scenario family the
// workspace has: clean (fig7), fault-heavy (chaos), elastic (churn and
// grow), integrity (bit rot + scrub) and scale (256 OSDs). Each family runs
// at an odd worker count too: three workers leave the round-robin lists
// uneven, which is where workers steal each other's domains.
// ---------------------------------------------------------------------------

#[test]
fn shard_count_is_invisible_to_fingerprint_fig7() {
    let base = fig7_fingerprint(false, 1);
    for shards in [2usize, 3, 4] {
        let sharded = fig7_fingerprint(false, shards);
        assert_eq!(
            base, sharded,
            "fig7: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_chaos() {
    let base = chaos_fingerprint_opts(0xC0FFEE, false, 1, None, 100);
    for shards in [2usize, 3, 4] {
        let sharded = chaos_fingerprint_opts(0xC0FFEE, false, shards, None, 100);
        assert_eq!(
            base, sharded,
            "chaos: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_churn() {
    let base = churn_fingerprint_sharded(0xE1A5, 1);
    for shards in [2usize, 3, 4] {
        let sharded = churn_fingerprint_sharded(0xE1A5, shards);
        assert_eq!(
            base, sharded,
            "churn: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_scrub() {
    let base = scrub_fingerprint_sharded(0xD00D, 1);
    for shards in [2usize, 3, 4] {
        let sharded = scrub_fingerprint_sharded(0xD00D, shards);
        assert_eq!(
            base, sharded,
            "scrub: {shards} worker shards must replay the single-thread fingerprint"
        );
    }
}

/// The grow scenario at 1 to 4 workers, traced and not. Untraced, every
/// worker count replays the one-worker fingerprint. Traced with a 2 ms
/// telemetry window, it replays it too, except `queue_high_water` (see its
/// index constant on `SimReport`): a window boundary clips the engine round
/// in progress, so cross-domain events merge into a queue at another moment
/// and the peak pending population can move by one; no event moves.
#[test]
fn shard_count_and_tracing_are_invisible_to_fingerprint_grow() {
    let mask = |mut v: Vec<u64>| {
        v[SimReport::FINGERPRINT_QUEUE_HIGH_WATER] = 0;
        v
    };
    let base = grow_fingerprint(true);
    for shards in [1usize, 2, 3, 4] {
        if shards > 1 {
            let sharded = grow_fingerprint_opts(true, false, shards);
            assert_eq!(
                base, sharded,
                "grow: {shards} worker shards must replay the single-thread fingerprint"
            );
        }
        let traced = grow_fingerprint_opts(true, true, shards);
        assert_eq!(
            mask(base.clone()),
            mask(traced),
            "grow/{shards} shards: tracing must not perturb the run"
        );
    }
}

/// The kit's 256-OSD, 10 000-connection scale scenario over the 4 ms window
/// `wallclock --smoke --only scale256` replays, at 1, 2, 4 and 8 workers
/// over its 33 domains (clients and monitor, then one per node). The
/// fingerprint is pinned, so this is a golden row as well. About 10 s in a
/// debug build.
#[test]
fn shard_count_is_invisible_to_fingerprint_scale256() {
    for shards in [1usize, 2, 4, 8] {
        let mut cfg = scenarios::scale256_config();
        cfg.shards = shards;
        let mut sim = scenarios::scale256_sim(cfg);
        let r = sim.run(SimDuration::ZERO, SimDuration::millis(4));
        assert_eq!(
            fingerprint_hash(&r.fingerprint(None)),
            0xe133_720b_f857_da21,
            "scale256: {shards} worker shards must replay the pinned fingerprint"
        );
    }
}

/// Tracing must stay passive under parallel execution too: the per-part
/// trace logs merge into one recorder in a total order, so arming them on
/// a 4-shard run must not move a single event.
#[test]
fn tracing_is_invisible_to_fingerprint_sharded_chaos() {
    let off = chaos_fingerprint_opts(0xC0FFEE, false, 4, None, 100);
    let on = chaos_fingerprint_opts(0xC0FFEE, true, 4, None, 100);
    assert_eq!(off, on, "chaos/4 shards: tracing must not perturb the run");
}

/// Torture variant: a 1 ns lookahead shrinks every LBTS window to a single
/// timestamp, maximizing synchronization rounds and cross-shard merge
/// traffic. Within that window size the worker count must still be fully
/// invisible; and against the default-window run, every *simulation*
/// metric must match — window size is pure batching, never semantics.
/// The sole exception is `queue_high_water` (see its index constant on
/// `SimReport`): batching is precisely what a pending-population gauge
/// measures, so it is masked in the cross-window comparison only — across
/// worker counts at a fixed window it must match like everything else. (The
/// driver clamps the override to the network model's floor, so a config can
/// only shrink windows, not widen them.)
#[test]
fn one_nanosecond_lookahead_is_pure_batching() {
    let torture_la = Some(SimDuration::nanos(1));
    let base = chaos_fingerprint_opts(0xC0FFEE, false, 1, torture_la, 20);
    for shards in [2usize, 4] {
        let tortured = chaos_fingerprint_opts(0xC0FFEE, false, shards, torture_la, 20);
        assert_eq!(
            base, tortured,
            "chaos: 1 ns lookahead at {shards} shards must replay the 1-shard fingerprint"
        );
    }
    let mask = |mut v: Vec<u64>| {
        v[SimReport::FINGERPRINT_QUEUE_HIGH_WATER] = 0;
        v
    };
    let wide = chaos_fingerprint_opts(0xC0FFEE, false, 1, None, 20);
    assert_ne!(
        base[SimReport::FINGERPRINT_QUEUE_HIGH_WATER],
        0,
        "high-water gauge populated (masking a live field, not a dead one)"
    );
    assert_eq!(
        mask(wide),
        mask(base),
        "chaos: window size must change only merge batching, never a simulation metric"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property form of shard invariance: any seed drives the chaos
    /// scenario (fault injection + crash recovery + history checking) to
    /// the same full fingerprint at 1, 2, and 4 worker shards.
    #[test]
    fn sharded_chaos_matches_sequential(seed in 1u64..1_000_000) {
        let base = chaos_fingerprint_opts(seed, false, 1, None, 40);
        for shards in [2usize, 4] {
            let sharded = chaos_fingerprint_opts(seed, false, shards, None, 40);
            prop_assert_eq!(&base, &sharded, "shards {}", shards);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: every test above compares two runs of the *same*
// build; these compare a run with constants recorded at commit 58538a5 (the
// last one with `osd.rs` and `sim_driver.rs` as single files). A refactor
// that keeps every simulated byte, event and cost keeps them; they change
// only together with a deliberate change of protocol, cost model or report,
// re-recorded in a commit that does nothing else.
// ---------------------------------------------------------------------------

/// Writes and read-backs over the small cluster's 16 objects, 70 / 30.
fn mixed_workloads(conns: usize) -> Vec<Box<dyn ConnWorkload>> {
    (0..conns)
        .map(|c| {
            let mut x = 0x1234_5678u64.wrapping_add(c as u64);
            Box::new(move |_rng: &mut SimRng| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (x >> 8) % 16;
                let oid = ObjectId::new(GroupId((i % 16) as u32), i);
                let offset = ((x >> 40) % 128) * 4096;
                Some(if (x >> 20) % 10 < 7 {
                    WorkItem::Write {
                        oid,
                        offset,
                        len: 4096,
                        fill: (x % 251) as u8,
                    }
                } else {
                    WorkItem::Read {
                        oid,
                        offset,
                        len: 4096,
                    }
                })
            }) as Box<dyn ConnWorkload>
        })
        .collect()
}

/// The small `config(mode, seed)` cluster under a light link-fault plan
/// (drops, duplicates, reordering on every link) with client retries and
/// heartbeats armed, so every wire direction takes its drop and its
/// duplicate branch: through the messenger relay (`Original`, `Cos`),
/// directly, through the off-priority relay of `Ptc` / `Dop`, and past the
/// run-to-completion gate.
fn faulty_mixed_hash(mode: PipelineMode) -> u64 {
    let mut cfg = config(mode, 0x601D);
    cfg.faults = FaultPlan::none().with_link_fault(LinkFault {
        spike_p: 0.0,
        spike: SimDuration::ZERO,
        ..noisy_link(0.02)
    });
    cfg.retry = Some(RetryPolicy {
        timeout_nanos: 2_000_000,
        backoff_base_nanos: 200_000,
        backoff_multiplier: 2.0,
        jitter_frac: 0.2,
        max_attempts: 8,
    });
    cfg.heartbeat_period = Some(SimDuration::millis(1));
    let mut sim = ClusterSim::new(cfg, mixed_workloads(4));
    sim.prefill(
        &(0..16u64)
            .map(|i| (ObjectId::new(GroupId(i as u32 % 16), i), 1 << 20))
            .collect::<Vec<_>>(),
    );
    let r = sim.run(SimDuration::millis(10), SimDuration::millis(40));
    assert!(r.writes_done > 0 && r.reads_done > 0, "{mode:?} progresses");
    fingerprint_hash(&r.fingerprint(None))
}

/// The grow scenario `wallclock --only grow` replays over 150 ms, here over a
/// 30 ms window that holds both churn waves; the churn-free control warms up
/// 25 ms first, as it does there.
fn grow_fingerprint(churn: bool) -> Vec<u64> {
    grow_fingerprint_opts(churn, false, 1)
}

/// [`grow_fingerprint`] on `shards` engine workers, traced or not.
fn grow_fingerprint_opts(churn: bool, trace: bool, shards: usize) -> Vec<u64> {
    let mut cfg = scenarios::grow_config(0xE1A5, churn);
    cfg.trace = trace;
    cfg.shards = shards;
    if trace {
        cfg.telemetry_window = Some(SimDuration::millis(2));
    }
    let mut sim = scenarios::grow_load(u64::MAX, 0).sim(cfg);
    let warmup = if churn {
        SimDuration::ZERO
    } else {
        SimDuration::millis(25)
    };
    let r = sim.run(warmup, SimDuration::millis(30));
    checked_fingerprint(&sim, &r)
}

/// `tests/observability.rs`'s gray-device scenario.
fn gray_fingerprint() -> Vec<u64> {
    let mut sim = scenarios::GRAY_LOAD.sim(scenarios::gray_config());
    sim.run(SimDuration::ZERO, SimDuration::millis(50))
        .fingerprint(None)
}

#[test]
fn golden_fingerprints_are_what_they_were() {
    let modes = [
        (PipelineMode::Original, 0x739e_4d4a_c15b_1c7cu64),
        (PipelineMode::RtcV1, 0x4599_94c2_1a8f_e382),
        (PipelineMode::RtcV2, 0x5705_883f_c4c9_7f03),
        (PipelineMode::RtcV3, 0x3a06_3662_b7b6_2a2e),
        (PipelineMode::Cos, 0x40cc_7a80_941f_80b1),
        (PipelineMode::Ptc, 0x0bff_eb37_cbe9_a892),
        (PipelineMode::Dop, 0xd7a8_81c4_acb2_3f1b),
        (PipelineMode::Ideal, 0x4c07_22db_1b58_66a2),
    ];
    let mut rows: Vec<(String, u64, u64)> = modes
        .into_iter()
        .map(|(mode, want)| {
            (
                format!("faulty mixed {mode:?}"),
                faulty_mixed_hash(mode),
                want,
            )
        })
        .collect();
    for (name, words, want) in [
        (
            "chaos",
            chaos_fingerprint_opts(0xC0FFEE, false, 1, None, 100),
            0x0593_7503_8bd6_3f12,
        ),
        (
            "churn",
            churn_fingerprint_sharded(0xE1A5, 1),
            0x71f1_58da_8e11_d888,
        ),
        (
            "scrub",
            scrub_fingerprint_sharded(0xD00D, 1),
            0x4822_59ed_c368_db96,
        ),
        ("grow", grow_fingerprint(true), 0x28ce_5435_49cb_a3e1),
        (
            "grow control",
            grow_fingerprint(false),
            0x4c75_65ec_aec9_68e9,
        ),
        ("gray ptc", gray_fingerprint(), 0xfc0b_b9a2_c619_3b54),
    ] {
        rows.push((name.into(), fingerprint_hash(&words), want));
    }
    // All rows in one message, so a deliberate re-record is one run.
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "fingerprints moved:\n{}",
        moved.join("\n")
    );
}
