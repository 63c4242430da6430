//! What [`ClusterSim::new`] builds: the engine's domains, the cores,
//! threads and device of every OSD in the layout its pipeline mode asks for,
//! the client connections, one handler part per domain, and the events that
//! start everything.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use rablock_sim::{
    Device, DeviceProfile, FaultEvent, Priority, RotMedia, SimDuration, SimTime, Simulation,
    SsdState, ThreadCfg, ThreadId, TimeSeries,
};
use rablock_storage::FxHashMap;

use super::client::{ConnState, LatencyRecorder};
use super::report::SamplerState;
use super::tracing::PartTrace;
use super::world::{Ev, World};
use super::{ClusterSim, ClusterSimConfig, ConnWorkload};
use crate::invariants::HistoryChecker;
use crate::msg::ClientId;
use crate::osd::{Osd, StoragePath, Threading};
use crate::placement::{Monitor, OsdId, OsdMap};

pub(super) struct OsdThreads {
    /// Frontend (messenger/RTC/priority) threads.
    pub(super) msgr: Vec<ThreadId>,
    /// Logic threads (PG threads for relay modes; same as msgr otherwise).
    pub(super) logic: Vec<ThreadId>,
    /// Non-priority threads (flush / deferred reads), empty for stock modes.
    pub(super) flusher: Vec<ThreadId>,
    /// Maintenance thread.
    pub(super) maint: ThreadId,
    /// Device id of this OSD's NVMe SSD.
    pub(super) device: usize,
    pub(super) node: usize,
}

/// The immutable wiring every part shares: the configuration, and the
/// thread and connection tables built from it.
pub(super) struct Topology {
    pub(super) cfg: ClusterSimConfig,
    /// How the mode lays out each OSD's threads.
    pub(super) threading: Threading,
    /// Where the mode runs storage work.
    pub(super) storage: StoragePath,
    /// The prioritized layout's event-driven messenger (cheaper MP).
    pub(super) lean: bool,
    pub(super) threads: Vec<OsdThreads>,
    /// Client thread per connection, so storage parts can address replies
    /// without touching part 0's connections.
    pub(super) conn_threads: Vec<ThreadId>,
    /// Minimum latency a cross-domain control-plane send must pay so it
    /// never lands inside the engine's conservative lookahead window
    /// (equals the link latency the data plane already pays).
    pub(super) net_hold: SimDuration,
}

/// Adds threads to the simulation and files them under their class.
struct Spawner {
    sim: Simulation<Ev>,
    classes: BTreeMap<&'static str, Vec<ThreadId>>,
}

impl Spawner {
    fn thread(
        &mut self,
        class: &'static str,
        domain: usize,
        name: String,
        cores: Vec<usize>,
        priority: Priority,
    ) -> ThreadId {
        let cfg = ThreadCfg::new(name, cores, priority);
        let id = self.sim.add_thread_in(domain, cfg);
        self.classes.entry(class).or_default().push(id);
        id
    }

    /// `count` normal-priority threads `{name}0..` of one OSD on `node`,
    /// free to run on any of `cores`.
    fn pool(
        &mut self,
        class: &'static str,
        node: usize,
        name: String,
        count: usize,
        cores: &[usize],
    ) -> Vec<ThreadId> {
        (0..count)
            .map(|i| {
                let name = format!("{name}{i}");
                self.thread(class, 1 + node, name, cores.to_vec(), Priority::Normal)
            })
            .collect()
    }

    /// The cores and the per-OSD threads of storage node `node`, in the
    /// layout `cfg.osd.mode` asks for.
    fn storage_node(
        &mut self,
        cfg: &ClusterSimConfig,
        node: usize,
        threads: &mut Vec<OsdThreads>,
    ) -> Range<usize> {
        let cores = self.sim.add_cores_in(1 + node, cfg.cores_per_node);
        let all: Vec<_> = cores.clone().collect();
        let (threading, _) = cfg.osd.mode.shape();
        // Dedicated cores for priority threads come off the front.
        let mut next_dedicated = cores.start;
        let first = threads.len();
        let osds = first..first + cfg.osds_per_node as usize;
        for osd in osds.clone() {
            let name = format!("n{node}.osd{osd}");
            let (msgr, logic) = match threading {
                Threading::RunToCompletion => {
                    let rtc = format!("{name}.rtc");
                    let rtc = self.pool("rtc", node, rtc, cfg.rtc_threads, &all);
                    (rtc.clone(), rtc)
                }
                Threading::Prioritized => {
                    let prio: Vec<_> = (0..cfg.priority_threads)
                        .map(|i| {
                            let core = next_dedicated;
                            next_dedicated += 1;
                            assert!(
                                core < cores.end,
                                "not enough cores on node {node} to pin priority threads"
                            );
                            let name = format!("{name}.prio{i}");
                            self.thread("priority", 1 + node, name, vec![core], Priority::High)
                        })
                        .collect();
                    (prio.clone(), prio)
                }
                Threading::Pool => {
                    let msgr = format!("{name}.msgr");
                    let msgr = self.pool("msgr", node, msgr, cfg.messenger_threads, &all);
                    let pg = self.pool("pg", node, format!("{name}.pg"), cfg.pg_threads, &all);
                    (msgr, pg)
                }
            };
            threads.push(OsdThreads {
                msgr,
                logic,
                flusher: Vec::new(), // filled below for the prioritized modes
                maint: 0,
                device: 0,
                node,
            });
        }
        // Non-priority threads share the remaining (non-dedicated) cores
        // plus, at lower priority, the dedicated ones ("leave it to the
        // OS scheduler" in the paper).
        if threading == Threading::Prioritized {
            let mut aff: Vec<_> = (next_dedicated..cores.end).collect();
            assert!(!aff.is_empty(), "no shared cores left on node {node}");
            aff.extend(cores.start..next_dedicated);
            for osd in osds.clone() {
                let name = format!("n{node}.osd{osd}.nprio");
                threads[osd].flusher =
                    self.pool("non-priority", node, name, cfg.non_priority_threads, &aff);
            }
        }
        // Maintenance threads: low priority on the node's shared cores.
        for osd in osds {
            let name = format!("n{node}.osd{osd}.maint");
            threads[osd].maint = self.thread("maint", 1 + node, name, all.clone(), Priority::Low);
        }
        cores
    }
}

impl ClusterSim {
    /// Builds the cluster: nodes, cores, threads, devices, OSDs, and one
    /// client connection per entry of `workloads`.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (more pinned priority threads
    /// than cores, zero threads, …).
    pub fn new(cfg: ClusterSimConfig, workloads: Vec<Box<dyn ConnWorkload>>) -> Self {
        assert!(!workloads.is_empty(), "at least one connection required");
        // Steady-state event population, sized up front so paper-scale
        // scenarios do not regrow a wheel mid-run. Every in-flight client op
        // keeps a reply or timer pending in the clients' domain and a handful
        // of events across its replica fan-out in the storage nodes', plus
        // one CoreFree per busy core; each domain's wheel is sized by its
        // own share.
        let in_flight = workloads.len() * cfg.queue_depth;
        let client_cores = workloads.len().div_ceil(2).max(1);
        let nodes = cfg.nodes as usize;
        let per_node = (in_flight * cfg.replication).div_ceil(nodes.max(1)) + cfg.cores_per_node;
        let queue_hint = in_flight * cfg.replication + nodes * cfg.cores_per_node;
        let mut sim: Simulation<Ev> = Simulation::with_queue_hint(cfg.seed, queue_hint);
        sim.set_context_switch_cost(cfg.ctx_switch);
        // Partition: domain 0 = clients + monitor + driver control, domain
        // 1 + n = storage node n. Must happen before any entity is added.
        let mut hints = vec![per_node; nodes + 1];
        hints[0] = in_flight + client_cores;
        sim.set_domains_sized(&hints);
        // Conservative lookahead: every cross-domain message rides a network
        // link, so the one-way link latency bounds how far ahead any domain
        // can safely run. Test overrides may shrink the window (torture
        // tests force 1 ns) but never widen it past the physical floor.
        let net_hold = cfg.link.lookahead();
        sim.set_lookahead(cfg.lookahead.unwrap_or(net_hold).min(net_hold));
        sim.set_workers(cfg.shards.max(1));
        let mut map = OsdMap::new(cfg.nodes, cfg.osds_per_node, cfg.pg_count, cfg.replication);
        // Spares for grow scenarios start weighted out of placement. Applied
        // before any map is distributed or asked for an acting set, so no
        // epoch bump (and no cache reset) is needed — every OSD and the
        // monitor begin from this same epoch-1 map.
        for &spare in &cfg.initially_out {
            map.osds[spare as usize].weight = 0;
        }

        let mut spawner = Spawner {
            sim,
            classes: BTreeMap::new(),
        };
        let mut threads: Vec<OsdThreads> = Vec::new();
        let node_cores = (0..nodes)
            .map(|node| spawner.storage_node(&cfg, node, &mut threads))
            .collect();
        // Devices: one NVMe SSD model per OSD (the paper partitions each
        // physical SSD across OSDs; per-OSD devices with proportional
        // capability are equivalent for queueing purposes).
        for (i, t) in threads.iter_mut().enumerate() {
            let profile = DeviceProfile::nvme_pm1725a(SsdState::Steady);
            let device = Device::new(format!("nvme.osd{i}"), profile);
            t.device = spawner.sim.add_device_in(1 + t.node, device);
        }

        let osd_cfg = cfg.osd.clone();
        let mut osds =
            (0..threads.len() as u32).map(|id| Osd::new(OsdId(id), osd_cfg.clone(), map.clone()));

        // Client threads: one core per two connections on client "nodes".
        let client_cores: Vec<_> = spawner.sim.add_cores(client_cores).collect();
        let mut conns = Vec::new();
        for (i, workload) in workloads.into_iter().enumerate() {
            let core = client_cores[i % client_cores.len()];
            let name = format!("client{i}");
            let thread = spawner.thread("client", 0, name, vec![core], Priority::Normal);
            conns.push(ConnState {
                id: ClientId(i as u32),
                thread,
                workload,
                outstanding: FxHashMap::default(),
                next_op: 1,
                exhausted: false,
            });
        }

        let mut monitor = Monitor::new(map.clone());
        monitor.set_grace_nanos(cfg.heartbeat_grace.as_nanos());

        // One handler part per domain. Part 0 owns the connections, the real
        // monitor, the checker and the client-side counters; part 1 + n owns
        // node n's OSDs and egress link. The immutable wiring is shared.
        let Spawner { sim, classes } = spawner;
        let osds_per_node = cfg.osds_per_node as usize;
        let total_osds = threads.len();
        let (threading, storage) = cfg.osd.mode.shape();
        let topo = Arc::new(Topology {
            threading,
            storage,
            lean: threading == Threading::Prioritized,
            conn_threads: conns.iter().map(|c| c.thread).collect(),
            threads,
            net_hold,
            cfg,
        });
        let cfg = &topo.cfg;
        let mut conns = Some(conns);
        let mut monitor = Some(monitor);
        // Parts 1.. take the OSDs in id order, one node's range each.
        let parts: Vec<World> = (0..nodes + 1)
            .map(|part| {
                let owned = if part == 0 { 0 } else { osds_per_node };
                let osds: Vec<Osd> = osds.by_ref().take(owned).collect();
                (part, osds)
            })
            .map(|(part, osds)| World {
                node: part.checked_sub(1).unwrap_or(nodes),
                topo: topo.clone(),
                map: map.clone(),
                first_osd: part.saturating_sub(1) * osds_per_node,
                dead: vec![false; osds.len()],
                crash_torn: vec![false; osds.len()],
                osds,
                conns: conns.take_if(|_| part == 0).unwrap_or_default(),
                link: cfg.link.clone(),
                io_wait: FxHashMap::default(),
                rtc_gate: FxHashMap::default(),
                write_lat: LatencyRecorder::default(),
                read_lat: LatencyRecorder::default(),
                writes_done: 0,
                reads_done: 0,
                monitor: monitor
                    .take_if(|_| part == 0)
                    .unwrap_or_else(|| Monitor::new(map.clone())),
                checker: (part == 0 && cfg.check_history).then(HistoryChecker::new),
                client_errors: 0,
                fx_scratch: Vec::new(),
                payload_cache: FxHashMap::default(),
                trace: cfg.trace.then(Box::<PartTrace>::default),
            })
            .collect();

        // Telemetry bookkeeping: which threads belong to each OSD (CPU%
        // columns) and the column schema. Thread classes and OSD count are
        // fixed at construction, so the schema is stable for the run.
        let osd_threads: Vec<Vec<ThreadId>> = topo
            .threads
            .iter()
            .map(|t| {
                let mut set: BTreeSet<ThreadId> = BTreeSet::new();
                set.extend(&t.msgr);
                set.extend(&t.logic);
                set.extend(&t.flusher);
                set.insert(t.maint);
                set.into_iter().collect()
            })
            .collect();
        let mut cols: Vec<String> = [
            "write_iops",
            "read_iops",
            "outstanding",
            "degraded",
            "backfill_throttle_ms",
            "scrub_errors",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for class in classes.keys() {
            cols.push(format!("q_{}", class.replace('-', "_")));
        }
        for i in 0..osd_threads.len() {
            cols.push(format!("cpu_osd{i}"));
        }

        let mut this = ClusterSim {
            sim,
            parts,
            node_cores,
            class_threads: classes,
            osd_count: total_osds,
            trace_reset_at: None,
            timeseries: TimeSeries::new(cols),
            sampler: SamplerState::default(),
            osd_threads,
            topo,
        };
        this.schedule_start();
        this
    }

    /// Schedules what sets the run in motion: the connections' first kick,
    /// the periodic sweeps and timers, and the plan's timed faults.
    fn schedule_start(&mut self) {
        let topo = self.topo.clone();
        let (cfg, threads) = (&topo.cfg, &topo.threads);
        // Kick every connection at t=0 and start flush sweeps.
        for (conn, &t) in topo.conn_threads.iter().enumerate() {
            self.sim.schedule(SimTime::ZERO, t, Ev::ClientKick { conn });
        }
        if topo.storage == StoragePath::NvmLog {
            for (osd, th) in threads.iter().enumerate() {
                let at = SimTime::ZERO + cfg.flush_sweep;
                self.sim.schedule(at, th.flusher[0], Ev::FlushSweep { osd });
            }
        }
        // The monitor, the driver's control events and the scrub scheduler
        // all run on the first client thread.
        let driver_thread = topo.conn_threads[0];
        // Heartbeat detection: stagger the per-OSD beacons so they do not
        // synchronize, and sweep liveness on the monitor every period.
        if let Some(period) = cfg.heartbeat_period {
            for (osd, th) in threads.iter().enumerate() {
                let stagger = SimDuration::nanos(1 + osd as u64 * period.as_nanos() / 7);
                let at = SimTime::ZERO + stagger;
                self.sim.schedule(at, th.msgr[0], Ev::HeartbeatTick { osd });
            }
            self.sim
                .schedule(SimTime::ZERO + period, driver_thread, Ev::MonSweep);
        }
        // Scheduled (non-probabilistic) faults from the plan's timeline.
        // Crash/restart/rot events mutate OSD state, so they fire on the
        // target OSD's own maintenance thread (its home domain); only the
        // monitor/churn control events stay on the part-0 driver thread.
        for (at, fault) in cfg.faults.timeline() {
            let osd = match fault {
                FaultEvent::Crash { process, .. }
                | FaultEvent::Restart { process }
                | FaultEvent::BitRot { process, .. } => process,
                FaultEvent::GraySet { device, .. } => device,
            };
            // Rot targets derive from their own seed stream, mixed from run
            // seed + strike coordinates — never from the scheduler RNG — so
            // every shard count rots the same bits no matter how event order
            // interleaves.
            let mut seed = cfg
                .seed
                .wrapping_add((osd as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(at.nanos().wrapping_mul(0xA24B_AED4_963E_E407));
            if let FaultEvent::BitRot { media, .. } = fault {
                if media == RotMedia::NvmLog {
                    seed = seed.wrapping_add(0x632B_E59B_D9B4_E019);
                }
            }
            let fault = Ev::Fault { fault, seed };
            self.sim.schedule(at, threads[osd].maint, fault);
        }
        // Background scrub cadence, staggered off t=0 so the first sweep
        // never coincides with client kick-off.
        if let Some(every) = cfg.scrub_interval {
            let sweep = Ev::ScrubSweep { round: 0 };
            self.sim
                .schedule(SimTime::ZERO + every, driver_thread, sweep);
        }
        // Scheduled admin churn (grow/drain/reweight) on the same driver
        // thread; the handler only touches monitor + driver state.
        for (idx, op) in cfg.churn.iter().enumerate() {
            self.sim.schedule(op.at, driver_thread, Ev::Churn { idx });
        }
    }
}
