//! Drives the fault-injection layer end to end through the public API:
//! lossy links, a partition, a gray device, and an OSD crash/restart with a
//! torn NVM tail — while heartbeat detection, client retries, and the
//! history checker keep the cluster honest.
//!
//! Usage: `cargo run --release --example chaos_demo [seed] [drop_p]`

use rablock::sim::{CrashSchedule, FaultPlan, GrayWindow, Partition, SimDuration};
use rablock::PipelineMode;
use rablock_bench::scenarios::{fault_tolerant, ms, noisy_link, small_cluster, ConnLoad, Outcome};

/// One connection of 192 writes then 48 reads over 1 MiB objects.
const LOAD: ConnLoad = ConnLoad {
    conns: 1,
    writes: 192,
    reads: 48,
    object_bytes: 1 << 20,
};

fn run(seed: u64, drop_p: f64) -> Outcome {
    let mut cfg = fault_tolerant(small_cluster(PipelineMode::Dop));
    cfg.seed = seed;
    cfg.faults = FaultPlan::none()
        .with_link_fault(noisy_link(drop_p))
        .with_partition(Partition {
            a: 0,
            b: 1,
            from: ms(6),
            until: ms(14),
        })
        .with_gray_window(GrayWindow {
            device: 1,
            from: ms(2),
            until: ms(25),
            multiplier: 8.0,
        })
        .with_crash(CrashSchedule {
            process: 2,
            at: ms(5),
            restart_at: Some(ms(35)),
            torn_tail: true,
        });
    LOAD.run(cfg, SimDuration::secs(5))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(7, |s| s.parse().expect("seed: u64"));
    let drop_p: f64 = args
        .next()
        .map_or(0.01, |s| s.parse().expect("drop_p: f64"));
    println!("chaos demo: seed={seed} drop_p={drop_p}");
    println!("faults: lossy links + partition(0,1)@6-14ms + gray(dev1,x8)@2-25ms + crash(osd2)@5ms restart@35ms torn-tail");

    let first = run(seed, drop_p);
    let [w, r, e, acked, checked, cs, nvm] = [
        "writes_done",
        "reads_done",
        "client_errors",
        "writes_acked",
        "reads_checked",
        "context_switches",
        "nvm_bytes",
    ]
    .map(|name| first.count(name));
    println!("writes_done={w} reads_done={r} client_errors={e} writes_acked={acked} reads_checked={checked}");
    println!("context_switches={cs} nvm_bytes={nvm}");
    first.converged(LOAD).expect("the cluster converges");

    let second = run(seed, drop_p);
    assert_eq!(first, second, "same seed must replay the identical history");
    println!("determinism: second run identical — no acknowledged write was lost.");
}
