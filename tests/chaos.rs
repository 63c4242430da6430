//! Chaos testing: randomized fault schedules over a replicated workload.
//!
//! Each proptest case derives a seeded [`FaultPlan`] combining every fault
//! class — probabilistic link drops/duplicates/reordering/latency spikes, a
//! node-pair partition window, a gray-failure device slowdown, and an OSD
//! crash with restart (optionally with a torn NVM log tail) — and runs a
//! 3-node replicated write/read workload through it with heartbeat failure
//! detection, client timeout/retry, and the history checker armed.
//!
//! Two properties:
//! 1. No acknowledged write is ever lost and every read is explainable
//!    (the checker panics the run otherwise).
//! 2. The whole fault history is seed-reproducible: running the identical
//!    configuration twice yields the same [`Outcome`], fingerprint and all.

use proptest::prelude::*;
use rablock::sim::{
    ChurnOp, ClusterSimConfig, CrashSchedule, FaultPlan, GrayWindow, LinkFault, Partition,
    SimDuration,
};
use rablock::{GroupId, PipelineMode};
use rablock_bench::scenarios::{
    self, cases, fault_tolerant, grow_load, ms, noisy_link, small_cluster, ConnLoad, Outcome,
    SMALL_NODES, SMALL_PGS,
};
use rablock_cluster::placement::OsdMap;

const NODES: usize = SMALL_NODES as usize;
/// Two connections of 96 writes then 24 reads over 1 MiB objects.
const LOAD: ConnLoad = ConnLoad {
    conns: 2,
    writes: 96,
    reads: 24,
    object_bytes: 1 << 20,
};

/// Everything one chaos case is derived from.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    drop_p: f64,
    /// Which link pair to partition: 0..3 = storage pairs, 3 = client↔node.
    pair: u8,
    part_from_ms: u64,
    part_len_ms: u64,
    crash_osd: u8,
    torn_tail: bool,
    gray_mult: f64,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        0.002f64..0.03,
        0u8..8,
        (3u64..20, 5u64..20),
        (0u8..3, any::<bool>()),
        2.0f64..24.0,
    )
        .prop_map(
            |(
                seed,
                drop_p,
                pair,
                (part_from_ms, part_len_ms),
                (crash_osd, torn_tail),
                gray_mult,
            )| {
                Scenario {
                    seed,
                    drop_p,
                    pair: pair % 4,
                    part_from_ms,
                    part_len_ms,
                    crash_osd,
                    torn_tail,
                    gray_mult,
                }
            },
        )
}

/// Builds the fault plan for one scenario: all four fault classes at once.
fn plan(s: &Scenario) -> FaultPlan {
    // The client pseudo-node index is one past the last storage node.
    let client = NODES;
    let (a, b) = match s.pair {
        0 => (0, 1),
        1 => (1, 2),
        2 => (0, 2),
        _ => (client, (s.part_from_ms % NODES as u64) as usize),
    };
    FaultPlan::none()
        .with_link_fault(noisy_link(s.drop_p))
        .with_partition(Partition {
            a,
            b,
            from: ms(s.part_from_ms),
            until: ms(s.part_from_ms + s.part_len_ms),
        })
        .with_gray_window(GrayWindow {
            // Device index mirrors OSD index; slow a survivor of the crash.
            device: (s.crash_osd as usize + 1) % NODES,
            from: ms(2),
            until: ms(25),
            multiplier: s.gray_mult,
        })
        .with_crash(CrashSchedule {
            process: s.crash_osd as usize,
            at: ms(4 + s.part_from_ms % 5),
            restart_at: Some(ms(30 + s.part_len_ms)),
            torn_tail: s.torn_tail,
        })
}

fn base_config(seed: u64, faults: FaultPlan) -> ClusterSimConfig {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.seed = seed;
    // tiny() models the paper's store (no data checksums); keep the
    // read-path CRCs on so the digest-consistency invariant has teeth.
    cfg.osd.cos.checksums = true;
    cfg.faults = faults;
    cfg
}

fn config(s: &Scenario) -> ClusterSimConfig {
    base_config(s.seed, plan(s))
}

/// One run of [`LOAD`] on the small cluster for 5 s.
fn run(cfg: ClusterSimConfig) -> Outcome {
    LOAD.run(cfg, SimDuration::secs(5))
}

/// Everything a convergence case is derived from. Unlike [`Scenario`],
/// faults here all end by 60 ms so the long fault-free tail of the run must
/// leave the cluster fully healed: every PG Active, replicas byte-identical.
#[derive(Debug, Clone, Copy)]
struct Convergence {
    seed: u64,
    drop_p: f64,
    crash_at_ms: u64,
    down_for_ms: u64,
    torn_tail: bool,
}

fn convergence_scenarios() -> impl Strategy<Value = Convergence> {
    (
        any::<u64>(),
        0.002f64..0.02,
        1u64..6,
        8u64..25,
        any::<bool>(),
    )
        .prop_map(
            |(seed, drop_p, crash_at_ms, down_for_ms, torn_tail)| Convergence {
                seed,
                drop_p,
                crash_at_ms,
                down_for_ms,
                torn_tail,
            },
        )
}

/// Background message chaos confined to the first 60 ms of the run.
fn converging_link_fault(drop_p: f64) -> LinkFault {
    LinkFault {
        until: ms(60),
        ..noisy_link(drop_p)
    }
}

/// A crash-and-restart run converged, and recovery ran to get there.
fn recovered(o: &Outcome) -> Result<(), TestCaseError> {
    o.converged(LOAD).map_err(TestCaseError::fail)?;
    let pushes = o.count("recovery_pushes");
    prop_assert!(pushes >= 1, "recovery actually ran: {pushes} pushes");
    Ok(())
}

/// Crash-and-restart faults for the primary of group 0 (the kill-primary
/// convergence scenario, shared with the pinned regressions below).
fn primary_crash_faults(c: &Convergence) -> FaultPlan {
    let primary = OsdMap::new(SMALL_NODES, 1, SMALL_PGS, 2)
        .try_primary(GroupId(0))
        .expect("a full map always has a primary")
        .0 as usize;
    FaultPlan::none()
        .with_link_fault(converging_link_fault(c.drop_p))
        .with_crash(CrashSchedule {
            process: primary,
            at: ms(c.crash_at_ms),
            restart_at: Some(ms(c.crash_at_ms + c.down_for_ms)),
            torn_tail: c.torn_tail,
        })
}

/// Historical chaos cases that exposed real healing bugs, pinned so they
/// cannot regress silently:
///
/// * The first lost acked tail writes on surviving replicas: a map-change
///   safety flush cleared the in-flight flush window's `flushing` flag, two
///   windows overlapped, and the count-based completion drain discarded
///   records it had never submitted (fixed by version-watermark drains). It
///   also left per-block holes that the old per-object push guard then
///   ack'd away instead of healing.
/// * The second wedged a PG in `Recovering` forever: a primary that lost
///   its log tail to a torn NVM write could never out-version the replica's
///   newest entry, and the replica silently refused every (byte-identical)
///   push.
/// * Both once caught a restarted primary that pushes before its own pull
///   of the group has landed (its snapshot lacks the writes the replica
///   took while it was down). Since a join is a peering round, a joining
///   primary diffs only after its pull: with the joining sender's hold
///   deleted, none of the first 1 000 kill-primary cases fails, and
///   `a_joining_primary_holds_its_pushes_until_its_pull_lands` pins the
///   hold on its other pushes. The second is the case
///   `kill_primary_mid_replication_converges` draws at case seed
///   `0x95e310c32d8bf83`.
#[test]
fn healed_cluster_regressions() {
    let cases = [
        Convergence {
            seed: 1004802654027966023,
            drop_p: 0.016139760121552025,
            crash_at_ms: 5,
            down_for_ms: 9,
            torn_tail: false,
        },
        Convergence {
            seed: 13176095356723387667,
            drop_p: 0.009078494301908317,
            crash_at_ms: 1,
            down_for_ms: 18,
            torn_tail: true,
        },
    ];
    for c in cases {
        let outcome = run(base_config(c.seed, primary_crash_faults(&c)));
        recovered(&outcome).unwrap_or_else(|e| panic!("case {c:?}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Under a randomized mix of drops, duplicates, reordering, a partition,
    /// a gray device, and a crash/restart: no acked write is lost, every
    /// read is explainable (checker panics otherwise), the cluster makes
    /// progress and has healed by the end of the 5 s run, and the same seed
    /// replays the identical history.
    #[test]
    fn invariants_hold_and_history_replays(s in scenarios()) {
        let first = run(config(&s));
        first.converged(LOAD).map_err(TestCaseError::fail)?;
        // Determinism: an identical configuration replays byte-identically.
        let second = run(config(&s));
        prop_assert_eq!(first, second, "same seed, same fault history, same outcome");
    }

    /// Crash the primary of group 0 while client writes are replicating
    /// through it, restart it later, and require full healing: the surviving
    /// peers re-peer and push what the new member lacks, the restarted node
    /// pulls what it missed, and after quiesce every PG is Active with
    /// byte-identical replicas. The whole history is seed-reproducible.
    #[test]
    fn kill_primary_mid_replication_converges(c in convergence_scenarios()) {
        let first = run(base_config(c.seed, primary_crash_faults(&c)));
        recovered(&first)?;
        let second = run(base_config(c.seed, primary_crash_faults(&c)));
        prop_assert_eq!(first, second, "same seed, same recovery history");
    }

    /// Restart every node in sequence (one down at a time) and require the
    /// cluster to re-peer and heal after each membership change: after
    /// quiesce every PG is Active, replicas are byte-identical, and no
    /// acked write was lost across any of the three restarts.
    #[test]
    fn rolling_restart_converges(c in convergence_scenarios()) {
        let faults = || {
            let mut f = FaultPlan::none().with_link_fault(converging_link_fault(c.drop_p));
            for n in 0..NODES {
                // Staggered so each node is back (and re-peered) well before
                // the next one goes down.
                let at = 3 + n as u64 * 15;
                f = f.with_crash(CrashSchedule {
                    process: n,
                    at: ms(at),
                    restart_at: Some(ms(at + c.down_for_ms.min(10))),
                    torn_tail: c.torn_tail,
                });
            }
            f
        };
        let first = run(base_config(c.seed, faults()));
        recovered(&first)?;
        let second = run(base_config(c.seed, faults()));
        prop_assert_eq!(first, second, "same seed, same recovery history");
    }
}

// ---------------------------------------------------------------------------
// Elastic cluster operations: weighted growth, drains, and flapping storms.
//
// These scenarios exercise the admin map-mutation path (weight churn through
// the monitor), the backfill throttle, and the monitor's flap dampening, all
// under sustained client load with the history checker armed. Test names are
// prefixed `churn_` so CI can dial their intensity independently.
// ---------------------------------------------------------------------------

const GROW_LOAD: ConnLoad = grow_load(512, 64);
/// Declared capacity-imbalance tolerance for the grown cluster. With 16
/// data-bearing groups x 2 replicas over 64 OSDs the placement is sparse,
/// so (max-mean)/mean is inherently a few multiples of the mean; the
/// no-rebalance catastrophe (everything still on the 4 seed OSDs) sits at
/// ~15 and must stay well outside the bound.
const GROW_IMBALANCE_TOLERANCE: f64 = 9.0;

/// The grow-4->8->64-under-load scenario (`scenarios::grow_config`) with
/// the read-path CRCs on and background message chaos confined to the
/// first 60 ms: its outcome, how many OSDs hold data at the end, and the
/// capacity imbalance.
fn run_grow(seed: u64, drop_p: f64) -> (Outcome, usize, f64) {
    let mut cfg = scenarios::grow_config(seed, true);
    cfg.osd.cos.checksums = true;
    cfg.faults = FaultPlan::none().with_link_fault(converging_link_fault(drop_p));
    let mut sim = GROW_LOAD.sim(cfg);
    let report = sim.run(SimDuration::ZERO, SimDuration::millis(600));
    let fills = sim.osd_fill_bytes();
    let filled = fills.iter().filter(|&&(_, bytes)| bytes > 0).count();
    let imbalance = sim.capacity_imbalance();
    (Outcome::of(&mut sim, &report), filled, imbalance)
}

/// Drain scenario on the small 3-OSD topology: one member is weighted to
/// zero mid-load, its groups re-home to the survivors, and it must end the
/// run out of every acting set with the survivors byte-identical.
fn drain_config(seed: u64, drop_p: f64, drained: u32, at_ms: u64) -> ClusterSimConfig {
    let mut cfg = base_config(
        seed,
        FaultPlan::none().with_link_fault(converging_link_fault(drop_p)),
    );
    cfg.churn = vec![ChurnOp {
        at: ms(at_ms),
        osd: drained,
        weight: 0,
    }];
    cfg
}

/// The drain property's case 12 (case seed `0x8b179907f9223378`): a read
/// raced the first write of a prefilled block and returned the block's
/// initial zeros, which the history checker rejected while it knew no
/// initial value. It failed the `churn` CI job until the checker took the
/// prefill as each block's initial value.
#[test]
fn churn_drain_case_12_reads_a_prefilled_blocks_zeros() {
    let cfg = drain_config(13060207049244768755, 0.011380791027007182, 2, 10);
    let outcome = run(cfg);
    outcome.converged(LOAD).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        outcome.count("recovery_pushes") >= 1,
        "the drain re-homed data"
    );
}

/// Flapping storm: one OSD bounces down/up for `cycles` cycles while the
/// workload runs. Downtime exceeds the heartbeat grace so every cycle is a
/// real map-churn event the monitor must dampen.
fn flap_config(seed: u64, drop_p: f64, flapper: usize, cycles: usize) -> ClusterSimConfig {
    base_config(
        seed,
        FaultPlan::none()
            .with_link_fault(converging_link_fault(drop_p))
            .with_flapping(
                flapper,
                ms(3),
                cycles,
                SimDuration::millis(10),
                SimDuration::millis(7),
            ),
    )
}

/// Rolling upgrade: every node restarted in turn, one at a time, with the
/// monitor's dampening active (a clean walk must never trip it).
fn rolling_upgrade_config(seed: u64, drop_p: f64, downtime_ms: u64) -> ClusterSimConfig {
    base_config(
        seed,
        FaultPlan::none()
            .with_link_fault(converging_link_fault(drop_p))
            .with_rolling_upgrade(
                0..NODES,
                ms(3),
                SimDuration::millis(downtime_ms),
                SimDuration::millis(downtime_ms + 15),
            ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(3)))]

    /// Grow 4 -> 8 -> 64 OSDs under sustained client load: no acked write
    /// is lost, every PG is Active after the dust settles, replicas are
    /// byte-identical, data actually spread onto the new OSDs, capacity
    /// imbalance stays within the declared tolerance, the tightened
    /// backfill throttle visibly queued work, and the whole elastic history
    /// is seed-reproducible.
    #[test]
    fn churn_grow_4_to_8_to_64_under_load_converges(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.015,
    ) {
        let first = run_grow(seed, drop_p);
        let (outcome, filled, imbalance) = &first;
        outcome.converged(GROW_LOAD).map_err(TestCaseError::fail)?;
        let pushes = outcome.count("recovery_pushes");
        let bytes = outcome.count("backfill_bytes");
        prop_assert!(
            pushes >= 1 && bytes > 0,
            "expansion actually moved data: {pushes} pushes, {bytes} bytes"
        );
        let queued = outcome.count("backfill_queued");
        prop_assert!(
            queued >= 1,
            "the 56-OSD wave must queue against the throttle: {queued} queued"
        );
        prop_assert!(*filled >= 12, "data spread onto the new OSDs: {filled} hold bytes");
        prop_assert!(
            imbalance.is_finite() && *imbalance <= GROW_IMBALANCE_TOLERANCE,
            "capacity imbalance within tolerance: {imbalance:.2} <= {GROW_IMBALANCE_TOLERANCE}"
        );
        let second = run_grow(seed, drop_p);
        prop_assert_eq!(first, second, "same seed, same elastic history");
    }

    /// Drain one OSD (weight -> 0) mid-load: its groups re-home, nothing
    /// acked is lost, and the run is seed-reproducible.
    #[test]
    fn churn_drain_osd_under_load_converges(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        drained in 0u32..3,
        at_ms in 2u64..12,
    ) {
        let first = run(drain_config(seed, drop_p, drained, at_ms));
        first.converged(LOAD).map_err(TestCaseError::fail)?;
        let pushes = first.count("recovery_pushes");
        prop_assert!(pushes >= 1, "drain re-homed data via pushes: {pushes}");
        let second = run(drain_config(seed, drop_p, drained, at_ms));
        prop_assert_eq!(first, second, "same seed, same drain history");
    }

    /// Flapping storm: >= 5 down/up cycles on one OSD under load. The
    /// monitor's dampening must trip (observable in `flaps_damped`), the
    /// cluster must still converge to all-Active with byte-identical
    /// replicas, and the storm must replay deterministically.
    #[test]
    fn churn_flapping_osd_storm_converges_with_dampening(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        flapper in 0usize..3,
        cycles in 5usize..8,
    ) {
        let first = run(flap_config(seed, drop_p, flapper, cycles));
        first.converged(LOAD).map_err(TestCaseError::fail)?;
        let damped = first.count("flaps_damped");
        prop_assert!(damped >= 1, "dampening tripped on the storm: {damped} refused rejoins");
        let second = run(flap_config(seed, drop_p, flapper, cycles));
        prop_assert_eq!(first, second, "same seed, same storm history");
    }

    /// Rolling upgrade: every node restarted in sequence, one down at a
    /// time. A clean maintenance walk must never trip flap dampening, and
    /// the cluster heals after each step.
    #[test]
    fn churn_rolling_upgrade_converges_without_dampening(
        seed in any::<u64>(),
        drop_p in 0.002f64..0.02,
        downtime_ms in 6u64..10,
    ) {
        let first = run(rolling_upgrade_config(seed, drop_p, downtime_ms));
        first.converged(LOAD).map_err(TestCaseError::fail)?;
        let damped = first.count("flaps_damped");
        prop_assert!(damped == 0, "a clean rolling upgrade never trips dampening: {damped}");
        let second = run(rolling_upgrade_config(seed, drop_p, downtime_ms));
        prop_assert_eq!(first, second, "same seed, same upgrade history");
    }
}
