//! Cluster-level failure recovery inside the deterministic simulation.
//!
//! §IV-A-4 end to end: a replica crashes mid-workload; the monitor notices
//! purely through missed heartbeats and publishes a new map; survivors
//! flush-but-keep their logs; the replacement pulls the operation log;
//! clients retry timed-out ops and keep writing and reading throughout, and
//! no acknowledged data is lost (checked by the history checker).

use rablock::sim::{
    ClusterSim, ClusterSimConfig, ConnWorkload, SimDuration, SimRng, SimTime, WorkItem,
};
use rablock::{GroupId, ObjectId, PipelineMode};
use rablock_bench::scenarios::{conn_oid, fault_tolerant, small_cluster, SMALL_PGS};
use rablock_cluster::placement::OsdId;

fn oid(i: u64) -> ObjectId {
    conn_oid(0, i, SMALL_PGS)
}

/// Three nodes, so replication 2 survives one node failure. Failure
/// detection is heartbeat-driven: `fail_osd` only kills the process, and
/// the monitor learns of it from the missed-beacon window. Ops stranded on
/// the dead OSD time out and are retried against the post-failover map.
fn config() -> ClusterSimConfig {
    fault_tolerant(small_cluster(PipelineMode::Dop))
}

struct WriteThenVerify {
    phase_writes: u64,
    cursor: u64,
}

impl ConnWorkload for WriteThenVerify {
    fn next(&mut self, _rng: &mut SimRng) -> Option<WorkItem> {
        let i = self.cursor;
        self.cursor += 1;
        if i < self.phase_writes {
            // Deterministic fill per (object, block) so reads can verify.
            let obj = i % 16;
            let block = (i / 16) % 32;
            Some(WorkItem::Write {
                oid: oid(obj),
                offset: block * 4096,
                len: 4096,
                fill: ((obj * 31 + block) % 251) as u8,
            })
        } else if i < self.phase_writes + 64 {
            let j = i - self.phase_writes;
            let obj = j % 16;
            let block = (j / 16) % 4;
            Some(WorkItem::Read {
                oid: oid(obj),
                offset: block * 4096,
                len: 4096,
            })
        } else {
            None
        }
    }
}

#[test]
fn cluster_survives_replica_failure_mid_workload() {
    let cfg = config();
    let wl: Vec<Box<dyn ConnWorkload>> = vec![Box::new(WriteThenVerify {
        phase_writes: 512,
        cursor: 0,
    })];
    let mut sim = ClusterSim::new(cfg, wl);
    sim.prefill(&(0..16u64).map(|i| (oid(i), 1 << 20)).collect::<Vec<_>>());

    // Find an OSD that is a *replica* (not primary) for most groups so the
    // workload keeps its primaries after the failure... any OSD works with
    // rendezvous placement; kill osd.2.
    sim.fail_osd(SimTime::from_nanos(3_000_000), OsdId(2));

    let report = sim.run(SimDuration::ZERO, SimDuration::secs(5));
    // With timeout/retry, ops stranded on the dead OSD are retransmitted to
    // the post-failover primary, so (almost) every op completes.
    let total = report.writes_done + report.reads_done;
    assert!(
        total >= 512 + 64 - 16,
        "completed {total} ops across the failure"
    );
    assert!(
        report.reads_done >= 48,
        "verification reads completed: {}",
        report.reads_done
    );
    // The history checker vetted every read against acked writes.
    let checker = sim.checker().expect("history checking enabled");
    assert!(
        checker.reads_checked() >= 48,
        "reads checked: {}",
        checker.reads_checked()
    );
    // The map change was driven by missed heartbeats alone — `fail_osd`
    // never told the monitor anything.
    let info = sim
        .map()
        .osds
        .iter()
        .find(|o| o.id == OsdId(2))
        .expect("osd 2 registered");
    assert!(
        !info.up,
        "monitor marked the silent OSD down from missed heartbeats"
    );
}

#[test]
fn failure_triggers_log_pull_to_replacement() {
    let cfg = config();
    // Steady writes to one group, then fail its secondary.
    let g = GroupId(0);
    let mut sim = ClusterSim::new(
        cfg,
        vec![Box::new({
            let mut i = 0u64;
            move |_rng: &mut SimRng| {
                i += 1;
                if i > 200 {
                    return None;
                }
                Some(WorkItem::Write {
                    oid: ObjectId::new(g, 1),
                    offset: (i % 8) * 4096,
                    len: 4096,
                    fill: (i % 251) as u8,
                })
            }
        }) as Box<dyn ConnWorkload>],
    );
    sim.prefill(&[(ObjectId::new(g, 1), 1 << 20)]);
    let set = sim.map().acting_set(g);
    let secondary = set[1];
    let spare = (0..3)
        .map(OsdId)
        .find(|o| !set.contains(o))
        .expect("spare exists");

    sim.fail_osd(SimTime::from_nanos(2_000_000), secondary);
    sim.run(SimDuration::ZERO, SimDuration::secs(5));

    // After recovery the spare must be in the acting set and hold (or have
    // flushed) the group's log — either way, it participated in the pull.
    let new_set = sim.map().acting_set(g);
    assert!(
        new_set.contains(&spare),
        "spare joined the acting set: {new_set:?}"
    );
    assert!(
        !new_set.contains(&secondary),
        "dead OSD left the acting set"
    );
}
