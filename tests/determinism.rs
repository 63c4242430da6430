//! Workspace-level determinism guarantees.
//!
//! Same seed → same results, bit for bit. Each pinned scenario's fingerprint
//! is `results/golden/<scenario>.txt`, one `name = value` line per word;
//! every run of it here, at any worker count, traced or not, must match that
//! file, and a mismatch names each moved word. To accept a deliberate move,
//! copy the files the golden test wrote to `$CARGO_TARGET_TMPDIR/golden/`
//! into `results/golden/`, in a commit that does nothing else.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use proptest::prelude::*;
use rablock::sim::{
    BitRotSchedule, ChurnOp, ClusterSim, ClusterSimConfig, ConnWorkload, FaultPlan, Fingerprint,
    LinkFault, RetryPolicy, RotMedia, SimDuration, SimReport, SimRng, Word, WorkItem,
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

/// Four connections over the small cluster's 16 objects, each op a write
/// `writes_in_10` times in 10 and otherwise a read-back, the whole cluster
/// prefilled.
fn small_sim(cfg: ClusterSimConfig, lcg_seed: u64, writes_in_10: u64) -> ClusterSim {
    let workloads = (0..4u64)
        .map(|c| {
            let mut x = lcg_seed.wrapping_add(c);
            Box::new(move |_rng: &mut SimRng| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (x >> 8) % 16;
                let oid = ObjectId::new(GroupId((i % 16) as u32), i);
                let offset = ((x >> 40) % 128) * 4096;
                Some(if (x >> 20) % 10 < writes_in_10 {
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
        .collect();
    let mut sim = ClusterSim::new(cfg, workloads);
    sim.prefill(
        &(0..16u64)
            .map(|i| (ObjectId::new(GroupId(i as u32 % 16), i), 1 << 20))
            .collect::<Vec<_>>(),
    );
    sim
}

/// Every seed drives the small cluster, not only the pinned ones.
#[test]
fn different_seeds_still_complete_work() {
    for seed in [1, 2] {
        let mut sim = small_sim(config(PipelineMode::Dop, seed), 0xABCD, 10);
        let r = sim.run(SimDuration::millis(10), SimDuration::millis(40));
        assert!(r.writes_done > 100, "seed {seed}: {} writes", r.writes_done);
    }
}

/// One run of the kit's fig7 load on the paper cluster over the 20 ms window
/// `wallclock --smoke` replays, with its full metric fingerprint.
fn fig7_fingerprint(trace: bool, shards: usize) -> Fingerprint {
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

/// The chaos fingerprint with the space-parallel knobs exposed: worker
/// shard count, an optional lookahead override (the torture tests force
/// 1 ns to maximize synchronization rounds), and the measure window.
fn chaos_fingerprint(
    seed: u64,
    trace: bool,
    shards: usize,
    lookahead: Option<SimDuration>,
    measure_ms: u64,
) -> Fingerprint {
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

/// Tracing must be purely passive: arming per-op spans, latency
/// attribution, the slow-op ring, and the windowed telemetry sampler must
/// not move a single event, so the traced run matches the untraced golden
/// word for word, on both the clean fig7 scenario and the fault-heavy
/// chaos scenario.
#[test]
fn tracing_is_invisible_to_fingerprint_fig7_wheel() {
    assert_golden("fig7", "traced", &fig7_fingerprint(true, 1), &[]);
}

#[test]
fn tracing_is_invisible_to_fingerprint_chaos_wheel() {
    let traced = chaos_fingerprint(0xC0FFEE, true, 1, None, 100);
    assert_golden("chaos", "traced", &traced, &[]);
}

/// Elastic-operations scenario: a 4-node x 4-OSD topology starts with only
/// the first OSD of each node in service, grows to 16 via two weight-churn
/// waves, while one OSD flaps through 6 down/up cycles (tripping the
/// monitor's dampening) and the backfill throttle is tightened enough to
/// queue. Exercises every counter the elastic-operations work added.
fn churn_run(shards: usize) -> (ClusterSim, SimReport) {
    let mut cfg = fault_tolerant(elastic_cluster(4, SMALL_PGS));
    cfg.seed = 0xE1A5;
    cfg.shards = shards;
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
    let load = ConnLoad {
        object_bytes: 256 << 10,
        ..CHAOS_LOAD
    };
    let mut sim = load.sim(cfg);
    let r = sim.run(SimDuration::ZERO, SimDuration::millis(100));
    assert!(r.writes_done > 0, "churn run must make progress");
    (sim, r)
}

/// The churn scenario's fingerprint, with the run's `capacity_imbalance`.
fn churn_fingerprint(shards: usize) -> Fingerprint {
    let (sim, r) = churn_run(shards);
    let mut fp = checked_fingerprint(&sim, &r);
    let imbalance = sim.capacity_imbalance().to_bits();
    fp.push(("capacity_imbalance".into(), Word::Real(imbalance)));
    fp
}

/// Integrity scenario for the shard-invariance suite: bit rot strikes one
/// OSD mid-run with background deep scrub armed, so the fingerprint covers
/// the scrub/repair counters on top of the usual metric set.
fn scrub_fingerprint(shards: usize) -> Fingerprint {
    let mut cfg = scenarios::chaos_config();
    cfg.seed = 0xD00D;
    cfg.shards = shards;
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
// grow), integrity (bit rot + scrub) and scale (256 OSDs). The one-worker
// run is the golden itself, so each test runs the other counts only. Each
// family runs at an odd worker count too: three workers leave the
// round-robin lists uneven, which is where workers steal each other's
// domains.
// ---------------------------------------------------------------------------

#[test]
fn shard_count_is_invisible_to_fingerprint_fig7() {
    for shards in [2usize, 3, 4] {
        let run = format!("{shards} worker shards");
        assert_golden("fig7", &run, &fig7_fingerprint(false, shards), &[]);
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_chaos() {
    for shards in [2usize, 3, 4] {
        let sharded = chaos_fingerprint(0xC0FFEE, false, shards, None, 100);
        assert_golden("chaos", &format!("{shards} worker shards"), &sharded, &[]);
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_churn() {
    for shards in [2usize, 3, 4] {
        let run = format!("{shards} worker shards");
        assert_golden("churn", &run, &churn_fingerprint(shards), &[]);
    }
}

#[test]
fn shard_count_is_invisible_to_fingerprint_scrub() {
    for shards in [2usize, 3, 4] {
        let run = format!("{shards} worker shards");
        assert_golden("scrub", &run, &scrub_fingerprint(shards), &[]);
    }
}

/// The grow scenario at 1 to 4 workers, traced and not. Untraced, every
/// worker count replays the golden. Traced with a 2 ms telemetry window, it
/// replays it too, except `queue_high_water`: a window boundary clips the
/// engine round in progress, so cross-domain events merge into a queue at
/// another moment and the peak pending population can move by one; no
/// event moves.
#[test]
fn shard_count_and_tracing_are_invisible_to_fingerprint_grow() {
    for shards in [1usize, 2, 3, 4] {
        if shards > 1 {
            let run = format!("{shards} worker shards");
            assert_golden("grow", &run, &grow_fingerprint(true, false, shards), &[]);
        }
        let traced = grow_fingerprint(true, true, shards);
        let run = format!("{shards} worker shards, traced");
        assert_golden("grow", &run, &traced, &["queue_high_water"]);
    }
}

/// The kit's 256-OSD, 10 000-connection scale scenario over the 4 ms window
/// `wallclock --smoke --only scale256` replays, over its 33 domains (clients
/// and monitor, then one per node).
fn scale256_fingerprint(shards: usize) -> Fingerprint {
    let mut cfg = scenarios::scale256_config();
    cfg.shards = shards;
    let mut sim = scenarios::scale256_sim(cfg);
    sim.run(SimDuration::ZERO, SimDuration::millis(4))
        .fingerprint(None)
}

/// The scale scenario at 2, 4 and 8 workers; about 1 s at the test profile
/// on 2 vCPUs.
#[test]
fn shard_count_is_invisible_to_fingerprint_scale256() {
    for shards in [2usize, 4, 8] {
        let run = format!("{shards} worker shards");
        assert_golden("scale256", &run, &scale256_fingerprint(shards), &[]);
    }
}

/// Tracing must stay passive under parallel execution too: the per-part
/// trace logs merge into one recorder in a total order, so arming them on
/// a 4-shard run must not move a single event.
#[test]
fn tracing_is_invisible_to_fingerprint_sharded_chaos() {
    let traced = chaos_fingerprint(0xC0FFEE, true, 4, None, 100);
    assert_golden("chaos", "4 worker shards, traced", &traced, &[]);
}

/// Torture variant: a 1 ns lookahead shrinks every LBTS window to a single
/// timestamp, maximizing synchronization rounds and cross-shard merge
/// traffic. Within that window size the worker count must still be fully
/// invisible; and against the default-window run, every *simulation*
/// metric must match — window size is pure batching, never semantics.
/// The sole exception is `queue_high_water`: batching is precisely what a
/// pending-population gauge measures, so it is masked in the cross-window
/// comparison only — across worker counts at a fixed window it must match
/// like everything else. (The driver clamps the override to the network
/// model's floor, so a config can only shrink windows, not widen them.)
#[test]
fn one_nanosecond_lookahead_is_pure_batching() {
    let torture_la = Some(SimDuration::nanos(1));
    let base = chaos_fingerprint(0xC0FFEE, false, 1, torture_la, 20);
    for shards in [2usize, 4] {
        let tortured = chaos_fingerprint(0xC0FFEE, false, shards, torture_la, 20);
        assert_eq!(
            base, tortured,
            "chaos: 1 ns lookahead at {shards} shards must replay the 1-shard fingerprint"
        );
    }
    let gauge = |(name, _): &(String, Word)| name == "queue_high_water";
    let mask = |mut fp: Fingerprint| {
        fp.retain(|w| !gauge(w));
        fp
    };
    let wide = chaos_fingerprint(0xC0FFEE, false, 1, None, 20);
    assert!(
        base.iter().any(|w| gauge(w) && w.1 != Word::Count(0)),
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
        let base = chaos_fingerprint(seed, false, 1, None, 40);
        for shards in [2usize, 4] {
            let sharded = chaos_fingerprint(seed, false, shards, None, 40);
            prop_assert_eq!(&base, &sharded, "shards {}", shards);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: the recorded results every test above compares with.
// The fingerprints of the eight pipeline modes, chaos, churn, scrub, grow and
// its control, and gray were recorded at commit 58538a5 (the last one with
// `osd.rs` and `sim_driver.rs` as single files); a refactor that keeps every
// simulated byte, event and cost keeps them all.
// ---------------------------------------------------------------------------

/// The small `config(mode, seed)` cluster, 70 % writes, under a light
/// link-fault plan (drops, duplicates, reordering on every link) with client
/// retries and heartbeats armed, so every wire direction takes its drop and
/// its duplicate branch: through the messenger relay (`Original`, `Cos`),
/// directly, through the off-priority relay of `Ptc` / `Dop`, and past the
/// run-to-completion gate.
fn faulty_mixed(mode: PipelineMode) -> Fingerprint {
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
    let mut sim = small_sim(cfg, 0x1234_5678, 7);
    let r = sim.run(SimDuration::millis(10), SimDuration::millis(40));
    assert!(r.writes_done > 0 && r.reads_done > 0, "{mode:?} progresses");
    r.fingerprint(None)
}

/// The grow scenario `wallclock --only grow` replays over 150 ms, here over a
/// 30 ms window that holds both churn waves; the churn-free control warms up
/// 25 ms first, as it does there.
fn grow_run(churn: bool, trace: bool, shards: usize) -> (ClusterSim, SimReport) {
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
    (sim, r)
}

fn grow_fingerprint(churn: bool, trace: bool, shards: usize) -> Fingerprint {
    let (sim, r) = grow_run(churn, trace, shards);
    checked_fingerprint(&sim, &r)
}

/// The churn scenario and the churn-free grow control end their windows
/// with every join closed and no group owing a push: `unhealed()` is empty
/// (it names every member still joining and every group's outstanding
/// pushes), and the report's `degraded_objects` is 0. Two joiners that each
/// wait for the other to answer first would leave both joins open here.
#[test]
fn churn_and_grow_control_end_with_no_open_join() {
    let runs = [
        ("churn", churn_run(1)),
        ("grow_control", grow_run(false, false, 1)),
    ];
    for (scenario, (mut sim, r)) in runs {
        assert_eq!(sim.unhealed(), Vec::<String>::new(), "{scenario}");
        assert_eq!(r.degraded_objects, 0, "{scenario}");
    }
}

/// `tests/observability.rs`'s gray-device scenario.
fn gray_fingerprint() -> Fingerprint {
    let mut sim = scenarios::GRAY_LOAD.sim(scenarios::gray_config());
    sim.run(SimDuration::ZERO, SimDuration::millis(50))
        .fingerprint(None)
}

/// A pinned scenario's untraced one-worker run.
type Run = fn() -> Fingerprint;

/// Every scenario `results/golden/` pins, by file name, with its run.
const PINNED: [(&str, Run); 16] = [
    ("faulty_mixed_original", || {
        faulty_mixed(PipelineMode::Original)
    }),
    ("faulty_mixed_rtcv1", || faulty_mixed(PipelineMode::RtcV1)),
    ("faulty_mixed_rtcv2", || faulty_mixed(PipelineMode::RtcV2)),
    ("faulty_mixed_rtcv3", || faulty_mixed(PipelineMode::RtcV3)),
    ("faulty_mixed_cos", || faulty_mixed(PipelineMode::Cos)),
    ("faulty_mixed_ptc", || faulty_mixed(PipelineMode::Ptc)),
    ("faulty_mixed_dop", || faulty_mixed(PipelineMode::Dop)),
    ("faulty_mixed_ideal", || faulty_mixed(PipelineMode::Ideal)),
    ("chaos", || chaos_fingerprint(0xC0FFEE, false, 1, None, 100)),
    ("churn", || churn_fingerprint(1)),
    ("scrub", || scrub_fingerprint(1)),
    ("grow", || grow_fingerprint(true, false, 1)),
    ("grow_control", || grow_fingerprint(false, false, 1)),
    ("gray_ptc", gray_fingerprint),
    ("fig7", || fig7_fingerprint(false, 1)),
    ("scale256", || scale256_fingerprint(1)),
];

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden");

/// Reads one golden file. A missing file, or a line that is not
/// `name = value`, is an error that names the path and the line.
fn read_golden(path: &Path) -> Result<Fingerprint, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_golden(path, &text)
}

fn parse_golden(path: &Path, text: &str) -> Result<Fingerprint, String> {
    let word = |(i, line): (usize, &str)| {
        let malformed = || format!("{}:{}: not `name = value`: {line:?}", path.display(), i + 1);
        let (name, value) = line.split_once(" = ").ok_or_else(malformed)?;
        Ok((name.to_string(), value.parse().map_err(|_| malformed())?))
    };
    text.lines().enumerate().map(word).collect()
}

/// Each word of `got` that differs from `scenario`'s golden, as
/// `scenario.word: old → new` (`-` where one side lacks the word), the words
/// named in `ignore` aside; or why the golden could not be read.
fn moved(scenario: &str, got: &Fingerprint, ignore: &[&str]) -> Vec<String> {
    let want = match read_golden(&Path::new(GOLDEN_DIR).join(format!("{scenario}.txt"))) {
        Ok(want) => want,
        Err(e) => return vec![e],
    };
    let keep = |(name, _): &&(String, Word)| !ignore.contains(&name.as_str());
    let old: BTreeMap<_, _> = want.iter().filter(keep).cloned().collect();
    let new: BTreeMap<_, _> = got.iter().filter(keep).cloned().collect();
    let show = |words: &BTreeMap<_, Word>, n| words.get(n).map_or("-".into(), Word::to_string);
    let names: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut lines: Vec<String> = (names.into_iter())
        .filter(|n| old.get(*n) != new.get(*n))
        .map(|n| format!("{scenario}.{n}: {} → {}", show(&old, n), show(&new, n)))
        .collect();
    if lines.is_empty() && want.iter().map(|w| &w.0).ne(got.iter().map(|w| &w.0)) {
        lines.push(format!("{scenario}: the same words in another order"));
    }
    lines
}

/// Panics naming every word of `got` (the `run` of `scenario`) that moved
/// from the golden, the words named in `ignore` aside.
fn assert_golden(scenario: &str, run: &str, got: &Fingerprint, ignore: &[&str]) {
    let moved = moved(scenario, got, ignore);
    assert!(moved.is_empty(), "{scenario}, {run}:\n{}", moved.join("\n"));
}

/// Every pinned scenario against its golden, every moved word of every
/// scenario in one failure.
#[test]
fn golden_fingerprints_are_what_they_were() {
    let observed = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    fs::create_dir_all(&observed).expect("create the observed-golden directory");
    let mut all_moved = Vec::new();
    for (scenario, run) in PINNED {
        let got = run();
        let text: String = got.iter().map(|(n, w)| format!("{n} = {w}\n")).collect();
        fs::write(observed.join(format!("{scenario}.txt")), text).expect("write a golden");
        all_moved.extend(moved(scenario, &got, &[]));
    }
    assert!(
        all_moved.is_empty(),
        "fingerprints moved (if on purpose: cp {}/*.txt {}/):\n{}",
        observed.display(),
        GOLDEN_DIR,
        all_moved.join("\n")
    );
}

/// `results/golden/` holds one readable file per pinned scenario and nothing
/// else: a stale file or an unpinned scenario fails here, and a missing or
/// malformed file names its path and line.
#[test]
fn golden_dir_holds_exactly_the_pinned_scenarios() {
    let name = |e: std::io::Result<fs::DirEntry>| e.expect("an entry").file_name();
    let entries = fs::read_dir(GOLDEN_DIR).expect("results/golden/ exists");
    let files: BTreeSet<String> = entries.map(|e| name(e).to_string_lossy().into()).collect();
    let pinned: BTreeSet<String> = PINNED.iter().map(|(s, _)| format!("{s}.txt")).collect();
    assert_eq!(files, pinned, "stale or missing goldens");
    for file in &files {
        let words = read_golden(&Path::new(GOLDEN_DIR).join(file));
        assert!(words.unwrap_or_else(|e| panic!("{e}")).len() > 20, "{file}");
    }
    let path = Path::new("x.txt");
    let line_2 = parse_golden(path, "writes_done = 1\nreads_done 2\n").unwrap_err();
    let line_1 = parse_golden(path, "writes_done = one").unwrap_err();
    assert!(line_2.starts_with("x.txt:2: ") && line_1.starts_with("x.txt:1: "));
    let missing = read_golden(Path::new("no_such.txt")).unwrap_err();
    assert!(missing.starts_with("no_such.txt: "), "{missing}");
}
