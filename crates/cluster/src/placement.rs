//! Cluster map and placement: logical groups → OSDs.
//!
//! Stands in for Ceph's CRUSH + monitor-maintained osdmap (§II-B): a
//! versioned map of OSDs and a deterministic, failure-stable mapping from
//! each logical group to its acting set via rendezvous (highest-random-
//! weight) hashing. When an OSD goes down only the groups it served move —
//! the property CRUSH provides that simple modulo hashing does not.

use std::sync::{Arc, OnceLock};

use rablock_storage::SmallVec;

use crate::msg::MonMsg;

/// Identifies one OSD daemon in the cluster.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OsdId(pub u32);

impl std::fmt::Display for OsdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "osd.{}", self.0)
    }
}

/// Identifies a storage node (failure domain).
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One OSD's entry in the map.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OsdInfo {
    /// The OSD.
    pub id: OsdId,
    /// The node hosting it (replicas avoid sharing a node).
    pub node: NodeId,
    /// Whether the monitor believes it is alive.
    pub up: bool,
    /// Placement weight in 16.16 fixed point ([`DEFAULT_OSD_WEIGHT`] = 1.0).
    /// Weight 0 takes the OSD *out* of placement without declaring it dead:
    /// it still heartbeats and serves as a handoff source while draining,
    /// but no acting set will select it. Distinct from `up`, which tracks
    /// liveness.
    pub weight: u32,
}

impl OsdInfo {
    /// Whether this OSD participates in placement: alive *and* weighted in.
    pub fn in_set(&self) -> bool {
        self.up && self.weight > 0
    }
}

/// Unit placement weight (1.0 in 16.16 fixed point).
pub const DEFAULT_OSD_WEIGHT: u32 = 1 << 16;

/// An acting set: at most the replication factor of OSDs (inline up to 4).
pub type ActingSet = SmallVec<OsdId, 4>;

/// The versioned cluster map.
///
/// Placement is a function of `osds` and `replication`. Change them only
/// through the mutators below (each starts a new epoch and a new acting-set
/// cache), or directly on a map that has not answered a lookup yet — as the
/// simulation driver does when it weights spares out of the very first map.
#[derive(Clone)]
pub struct OsdMap {
    /// Monotonic epoch; bumped by the monitor on every change.
    pub epoch: u64,
    /// All OSDs ever registered.
    pub osds: Vec<OsdInfo>,
    /// Number of logical groups (placement groups).
    pub pg_count: u32,
    /// Replication factor (2 in the paper's evaluation).
    pub replication: usize,
    /// Write quorum: a group accepts writes only while its acting set holds
    /// at least this many members. Defaults to a Ceph-style majority floor
    /// (`replication - replication / 2`, i.e. 1 for 2×, 2 for 3×); below it
    /// the primary returns a retryable [`StoreError::Degraded`] instead of
    /// acknowledging under-replicated data.
    ///
    /// [`StoreError::Degraded`]: rablock_storage::StoreError::Degraded
    pub min_size: usize,
    /// Memoized acting set of each group below `pg_count`, filled on first
    /// lookup. Clones of a map share the cells — the monitor's broadcast
    /// reaches every OSD as a clone, so a set is ranked once per epoch, not
    /// once per OSD — and every mutator leaves them behind for fresh ones,
    /// so a cell only ever holds the answer for the `osds` it was filled
    /// from. Purely a lookup accelerator: excluded from equality and `Debug`.
    cache: Arc<[OnceLock<ActingSet>]>,
}

fn empty_cache(pg_count: u32) -> Arc<[OnceLock<ActingSet>]> {
    (0..pg_count).map(|_| OnceLock::new()).collect()
}

impl PartialEq for OsdMap {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.osds == other.osds
            && self.pg_count == other.pg_count
            && self.replication == other.replication
            && self.min_size == other.min_size
    }
}
impl Eq for OsdMap {}

impl std::fmt::Debug for OsdMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsdMap")
            .field("epoch", &self.epoch)
            .field("osds", &self.osds)
            .field("pg_count", &self.pg_count)
            .field("replication", &self.replication)
            .field("min_size", &self.min_size)
            .finish()
    }
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl OsdMap {
    /// A fresh map with `nodes × osds_per_node` OSDs, all up.
    pub fn new(nodes: u32, osds_per_node: u32, pg_count: u32, replication: usize) -> Self {
        let mut osds = Vec::new();
        for n in 0..nodes {
            for i in 0..osds_per_node {
                osds.push(OsdInfo {
                    id: OsdId(n * osds_per_node + i),
                    node: NodeId(n),
                    up: true,
                    weight: DEFAULT_OSD_WEIGHT,
                });
            }
        }
        OsdMap {
            epoch: 1,
            osds,
            pg_count,
            replication,
            min_size: (replication - replication / 2).max(1),
            cache: empty_cache(pg_count),
        }
    }

    /// Info for one OSD.
    pub fn osd(&self, id: OsdId) -> &OsdInfo {
        &self.osds[id.0 as usize]
    }

    /// All currently-up OSDs.
    pub fn up_osds(&self) -> impl Iterator<Item = &OsdInfo> {
        self.osds.iter().filter(|o| o.up)
    }

    /// All OSDs eligible for placement: up *and* weight > 0.
    pub fn in_osds(&self) -> impl Iterator<Item = &OsdInfo> {
        self.osds.iter().filter(|o| o.in_set())
    }

    /// The acting set of a group: up to `replication` up OSDs ranked by
    /// rendezvous hash, at most one per node. The first entry is primary.
    ///
    /// When fewer distinct up nodes exist than the replication factor the
    /// set is *degraded*: the survivors are returned (possibly none when
    /// every OSD is down) and it is the caller's job to gate writes on
    /// [`OsdMap::min_size`]. Placement itself never panics — losing nodes
    /// must degrade service, not crash it.
    pub fn acting_set(&self, group: rablock_storage::GroupId) -> ActingSet {
        match self.cache.get(group.0 as usize) {
            Some(cell) => cell.get_or_init(|| self.compute_acting_set(group)).clone(),
            None => self.compute_acting_set(group),
        }
    }

    /// Weighted rendezvous-hash ranking behind [`OsdMap::acting_set`]'s
    /// cache. Each eligible OSD scores `mix(group, id) × weight` in 128-bit
    /// space, so equal weights reproduce the unweighted ranking exactly (the
    /// common factor preserves order) while a 2× weight draws ~2× the
    /// groups. `mix` is a bijection on u64, so scores only collide across
    /// different weights; ids break those ties deterministically.
    fn compute_acting_set(&self, group: rablock_storage::GroupId) -> ActingSet {
        let score = |o: &OsdInfo| {
            let h = mix((group.0 as u64) << 32 | o.id.0 as u64);
            (h as u128) * (o.weight as u128)
        };
        let mut set = ActingSet::new();
        let mut used_nodes: SmallVec<NodeId, 4> = SmallVec::new();
        // One pass per member instead of a sort of all OSDs: the best score
        // (lowest id on a tie) among the nodes not used yet. Running out of
        // nodes early is degraded placement: the survivors are returned and
        // writes are gated on `min_size`.
        while let Some(best) = self
            .in_osds()
            .filter(|o| !used_nodes.contains(&o.node))
            .max_by_key(|o| (score(o), std::cmp::Reverse(o.id)))
        {
            used_nodes.push(best.node);
            set.push(best.id);
            if set.len() == self.replication {
                break;
            }
        }
        set
    }

    /// Whether a group's acting set currently holds fewer members than the
    /// replication factor (some replicas are missing).
    pub fn is_degraded(&self, group: rablock_storage::GroupId) -> bool {
        self.acting_set(group).len() < self.replication
    }

    /// The primary OSD of a group, or `None` when every OSD that could
    /// serve it is down.
    pub fn try_primary(&self, group: rablock_storage::GroupId) -> Option<OsdId> {
        self.acting_set(group).first().copied()
    }

    /// The primary OSD of a group.
    ///
    /// # Panics
    ///
    /// Panics when the acting set is empty (no OSD up at all); callers that
    /// must survive total outage use [`OsdMap::try_primary`].
    pub fn primary(&self, group: rablock_storage::GroupId) -> OsdId {
        self.acting_set(group)[0]
    }

    /// Starts the next epoch: placement inputs changed, so this map stops
    /// sharing acting sets with the clones of the previous one.
    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.cache = empty_cache(self.pg_count);
    }

    /// Marks an OSD down and bumps the epoch.
    pub fn mark_down(&mut self, id: OsdId) {
        self.osds[id.0 as usize].up = false;
        self.next_epoch();
    }

    /// Marks an OSD up (replacement joined) and bumps the epoch.
    pub fn mark_up(&mut self, id: OsdId) {
        self.osds[id.0 as usize].up = true;
        self.next_epoch();
    }

    /// Registers a new OSD on `node` with the given placement weight and
    /// bumps the epoch. Ids are dense: the new OSD's id equals the previous
    /// map length, so per-OSD driver state indexed by id stays valid.
    pub fn add_osd(&mut self, node: NodeId, weight: u32) -> OsdId {
        let id = OsdId(self.osds.len() as u32);
        self.osds.push(OsdInfo {
            id,
            node,
            up: true,
            weight,
        });
        self.next_epoch();
        id
    }

    /// Removes an OSD from service and bumps the epoch. The entry is
    /// tombstoned (down, weight 0) rather than deleted so ids stay dense;
    /// drain first via [`OsdMap::set_weight`]`(id, 0)` so replicas hand off
    /// while the OSD is still up.
    pub fn remove_osd(&mut self, id: OsdId) {
        let o = &mut self.osds[id.0 as usize];
        o.up = false;
        o.weight = 0;
        self.next_epoch();
    }

    /// Changes an OSD's placement weight, bumping the epoch when it actually
    /// changed. Weight 0 drains the OSD: it leaves every acting set (handing
    /// groups to the next-ranked member) while staying up as a push source.
    /// Returns whether the map changed.
    pub fn set_weight(&mut self, id: OsdId, weight: u32) -> bool {
        let o = &mut self.osds[id.0 as usize];
        if o.weight == weight {
            return false;
        }
        o.weight = weight;
        self.next_epoch();
        true
    }
}

/// The monitor: owns the authoritative map, reacts to failure reports, and
/// detects failures itself from missed heartbeats.
///
/// Time is a plain `u64` nanosecond counter supplied by the caller, so the
/// same monitor serves the deterministic simulation (simulated nanoseconds)
/// and the live driver (wall-clock nanoseconds since start).
#[derive(Debug, Clone)]
pub struct Monitor {
    map: OsdMap,
    /// Last heartbeat receipt per OSD, in caller nanoseconds. Every OSD
    /// starts at 0, i.e. "seen at startup".
    last_heartbeat: Vec<u64>,
    /// Declare an OSD down after this long without a heartbeat.
    grace_nanos: u64,
    /// Rejoin (down→up) count per OSD within the current flap window.
    flap_count: Vec<u32>,
    /// Start of each OSD's current flap-counting window.
    flap_window_start: Vec<u64>,
    /// While `now < held_until[i]` a flapping OSD's rejoins are refused.
    held_until: Vec<u64>,
    /// Rejoining this many times within `flap_window_nanos` trips dampening.
    flap_threshold: u32,
    /// Width of the flap-counting window.
    flap_window_nanos: u64,
    /// How long a tripped OSD is held out before it may rejoin.
    flap_holdout_nanos: u64,
    /// Total rejoins refused by flap dampening (monitor metric).
    flaps_damped: u64,
}

/// Default heartbeat grace window: generous enough that drivers which never
/// feed heartbeats (report-only operation) do not spuriously mark OSDs down.
pub const DEFAULT_HEARTBEAT_GRACE_NANOS: u64 = u64::MAX;

/// Default flap-dampening policy: a 4th rejoin within a 100 ms window holds
/// the OSD out for 20 ms. Generous against ordinary crash/restart cycles
/// (which rejoin once), decisive against sub-window flapping storms.
pub const DEFAULT_FLAP_THRESHOLD: u32 = 4;
/// See [`DEFAULT_FLAP_THRESHOLD`].
pub const DEFAULT_FLAP_WINDOW_NANOS: u64 = 100_000_000;
/// See [`DEFAULT_FLAP_THRESHOLD`].
pub const DEFAULT_FLAP_HOLDOUT_NANOS: u64 = 20_000_000;

impl Monitor {
    /// Creates a monitor owning `map`. Heartbeat detection is effectively
    /// disabled until [`Monitor::set_grace_nanos`] arms it.
    pub fn new(map: OsdMap) -> Self {
        let n = map.osds.len();
        Monitor {
            map,
            last_heartbeat: vec![0; n],
            grace_nanos: DEFAULT_HEARTBEAT_GRACE_NANOS,
            flap_count: vec![0; n],
            flap_window_start: vec![0; n],
            held_until: vec![0; n],
            flap_threshold: DEFAULT_FLAP_THRESHOLD,
            flap_window_nanos: DEFAULT_FLAP_WINDOW_NANOS,
            flap_holdout_nanos: DEFAULT_FLAP_HOLDOUT_NANOS,
            flaps_damped: 0,
        }
    }

    /// Sets the missed-heartbeat window after which an OSD is declared down.
    pub fn set_grace_nanos(&mut self, grace_nanos: u64) {
        self.grace_nanos = grace_nanos;
    }

    /// Sets the flap-dampening policy: `threshold` rejoins within
    /// `window_nanos` hold the OSD out for `holdout_nanos`. A threshold of 0
    /// disables dampening.
    pub fn set_flap_policy(&mut self, threshold: u32, window_nanos: u64, holdout_nanos: u64) {
        self.flap_threshold = threshold;
        self.flap_window_nanos = window_nanos;
        self.flap_holdout_nanos = holdout_nanos;
    }

    /// The current map.
    pub fn map(&self) -> &OsdMap {
        &self.map
    }

    /// How many rejoins flap dampening has refused so far.
    pub fn flaps_damped(&self) -> u64 {
        self.flaps_damped
    }

    /// Whether `osd` is currently held out by flap dampening at `now_nanos`.
    pub fn is_held_out(&self, osd: OsdId, now_nanos: u64) -> bool {
        now_nanos < self.held_until[osd.0 as usize]
    }

    /// Grows per-OSD bookkeeping after the owned map gained OSDs (e.g. via
    /// [`Monitor::admin_add_osd`]). New entries are "seen at `now_nanos`".
    fn sync_osd_count(&mut self, now_nanos: u64) {
        let n = self.map.osds.len();
        self.last_heartbeat.resize(n, now_nanos);
        self.flap_count.resize(n, 0);
        self.flap_window_start.resize(n, now_nanos);
        self.held_until.resize(n, 0);
    }

    /// Records a heartbeat from `osd` at `now_nanos`. A heartbeat from an
    /// OSD currently marked down means it restarted: the monitor marks it up
    /// and returns the map broadcast announcing the rejoin — unless the OSD
    /// has flapped [`Monitor::set_flap_policy`]-many times recently, in
    /// which case the rejoin is refused until the holdout expires.
    pub fn heartbeat(&mut self, osd: OsdId, now_nanos: u64) -> Option<MonMsg> {
        let i = osd.0 as usize;
        self.last_heartbeat[i] = now_nanos;
        if self.map.osd(osd).up {
            return None;
        }
        if now_nanos < self.held_until[i] {
            // Dampened: the flapper keeps reporting in (so liveness state
            // stays fresh) but is not woven back into placement yet.
            self.flaps_damped += 1;
            return None;
        }
        if self.flap_threshold > 0 {
            if now_nanos.saturating_sub(self.flap_window_start[i]) > self.flap_window_nanos {
                self.flap_window_start[i] = now_nanos;
                self.flap_count[i] = 0;
            }
            self.flap_count[i] += 1;
            if self.flap_count[i] >= self.flap_threshold {
                // Tripped: refuse this rejoin and hold the OSD out until it
                // has been stable for the holdout period.
                self.held_until[i] = now_nanos + self.flap_holdout_nanos;
                self.flap_count[i] = 0;
                self.flap_window_start[i] = now_nanos;
                self.flaps_damped += 1;
                return None;
            }
        }
        self.map.mark_up(osd);
        Some(MonMsg::MapUpdate {
            map: self.map.clone(),
        })
    }

    /// Admin: changes an OSD's placement weight and returns the map
    /// broadcast if the map changed. Weight 0 drains; restoring a positive
    /// weight weaves the OSD back in (grow).
    pub fn admin_set_weight(&mut self, osd: OsdId, weight: u32) -> Option<MonMsg> {
        self.map.set_weight(osd, weight).then(|| MonMsg::MapUpdate {
            map: self.map.clone(),
        })
    }

    /// Admin: registers a brand-new OSD and returns its id plus the map
    /// broadcast announcing it.
    pub fn admin_add_osd(&mut self, node: NodeId, weight: u32, now_nanos: u64) -> (OsdId, MonMsg) {
        let id = self.map.add_osd(node, weight);
        self.sync_osd_count(now_nanos);
        (
            id,
            MonMsg::MapUpdate {
                map: self.map.clone(),
            },
        )
    }

    /// Sweeps for OSDs whose last heartbeat is older than the grace window,
    /// marks them down, and returns the map broadcast if anything changed.
    pub fn check_liveness(&mut self, now_nanos: u64) -> Option<MonMsg> {
        let mut changed = false;
        for i in 0..self.map.osds.len() {
            let stale = now_nanos.saturating_sub(self.last_heartbeat[i]) > self.grace_nanos;
            if stale && self.map.osds[i].up {
                self.map.mark_down(OsdId(i as u32));
                changed = true;
            }
        }
        changed.then(|| MonMsg::MapUpdate {
            map: self.map.clone(),
        })
    }

    /// Handles a monitor message; returns the broadcast to send (if any).
    ///
    /// `Heartbeat` messages arriving through this entry point only handle
    /// the rejoin case (no timestamp available); drivers that want liveness
    /// detection call [`Monitor::heartbeat`] / [`Monitor::check_liveness`]
    /// with their clock.
    pub fn handle(&mut self, msg: MonMsg) -> Option<MonMsg> {
        match msg {
            MonMsg::ReportFailure { osd } => {
                if !self.map.osd(osd).up {
                    return None; // already known
                }
                self.map.mark_down(osd);
                Some(MonMsg::MapUpdate {
                    map: self.map.clone(),
                })
            }
            MonMsg::Heartbeat { osd } => {
                if self.map.osd(osd).up {
                    return None;
                }
                self.map.mark_up(osd);
                Some(MonMsg::MapUpdate {
                    map: self.map.clone(),
                })
            }
            MonMsg::MapUpdate { map } => {
                if map.epoch > self.map.epoch {
                    self.map = map;
                    self.sync_osd_count(0);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::GroupId;

    fn map() -> OsdMap {
        OsdMap::new(4, 2, 64, 2)
    }

    #[test]
    fn acting_sets_are_deterministic_and_sized() {
        let m = map();
        for pg in 0..64 {
            let a = m.acting_set(GroupId(pg));
            let b = m.acting_set(GroupId(pg));
            assert_eq!(a, b);
            assert_eq!(a.len(), 2);
            assert_ne!(m.osd(a[0]).node, m.osd(a[1]).node, "replicas span nodes");
        }
    }

    #[test]
    fn groups_spread_across_osds() {
        let m = map();
        let mut counts = vec![0usize; 8];
        for pg in 0..256 {
            for id in m.acting_set(GroupId(pg)) {
                counts[id.0 as usize] += 1;
            }
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 0, "every OSD serves groups: {counts:?}");
        assert!(max < min * 3, "reasonable balance: {counts:?}");
    }

    #[test]
    fn failure_moves_only_affected_groups() {
        let mut m = map();
        let before: Vec<_> = (0..256).map(|pg| m.acting_set(GroupId(pg))).collect();
        m.mark_down(OsdId(3));
        let mut moved = 0;
        for (pg, old) in before.iter().enumerate() {
            let new = m.acting_set(GroupId(pg as u32));
            if old.contains(&OsdId(3)) {
                assert!(!new.contains(&OsdId(3)), "pg{pg} must leave the dead osd");
            } else if *old != new {
                moved += 1;
            }
        }
        // Rendezvous hashing: groups not touching the failed OSD stay put.
        assert_eq!(moved, 0, "unaffected groups must not move");
    }

    #[test]
    fn monitor_bumps_epoch_once_per_failure() {
        let mut mon = Monitor::new(map());
        let e0 = mon.map().epoch;
        let update = mon.handle(MonMsg::ReportFailure { osd: OsdId(1) });
        assert!(matches!(update, Some(MonMsg::MapUpdate { .. })));
        assert_eq!(mon.map().epoch, e0 + 1);
        assert!(mon
            .handle(MonMsg::ReportFailure { osd: OsdId(1) })
            .is_none());
    }

    #[test]
    fn missed_heartbeats_mark_osd_down() {
        let ms = |n: u64| n * 1_000_000;
        let mut mon = Monitor::new(map());
        mon.set_grace_nanos(ms(30));
        // Everyone reports in at 5 ms except osd.3.
        for i in [0, 1, 2, 4, 5, 6, 7] {
            assert!(mon.heartbeat(OsdId(i), ms(5)).is_none());
        }
        // Within grace: no change.
        assert!(mon.check_liveness(ms(20)).is_none());
        // Past grace for osd.3 only (last seen at 0).
        let update = mon.check_liveness(ms(35));
        assert!(matches!(update, Some(MonMsg::MapUpdate { .. })));
        assert!(!mon.map().osd(OsdId(3)).up);
        assert!(mon.map().osd(OsdId(0)).up);
        // Idempotent: re-sweeping at the same instant changes nothing (the
        // other OSDs' 5 ms heartbeats are still within grace at 35 ms).
        assert!(mon.check_liveness(ms(35)).is_none());
    }

    #[test]
    fn heartbeat_from_down_osd_rejoins_it() {
        let ms = |n: u64| n * 1_000_000;
        let mut mon = Monitor::new(map());
        mon.set_grace_nanos(ms(10));
        for i in 0..7 {
            mon.heartbeat(OsdId(i), ms(5));
        }
        assert!(mon.check_liveness(ms(20)).is_some());
        assert!(!mon.map().osd(OsdId(7)).up);
        let e = mon.map().epoch;
        let update = mon.heartbeat(OsdId(7), ms(25));
        assert!(matches!(update, Some(MonMsg::MapUpdate { .. })));
        assert!(mon.map().osd(OsdId(7)).up);
        assert_eq!(mon.map().epoch, e + 1);
        // And it stays up through the next sweep.
        assert!(mon.check_liveness(ms(30)).is_none());
    }

    #[test]
    fn under_replication_returns_survivors() {
        let mut m = OsdMap::new(2, 1, 8, 2);
        m.mark_down(OsdId(0));
        for pg in 0..8 {
            let set = m.acting_set(GroupId(pg));
            assert_eq!(
                set.as_slice(),
                &[OsdId(1)],
                "pg{pg} degrades to the survivor"
            );
            assert!(m.is_degraded(GroupId(pg)));
            assert_eq!(m.try_primary(GroupId(pg)), Some(OsdId(1)));
        }
        // One survivor still satisfies the 2× majority floor (min_size 1).
        assert_eq!(m.min_size, 1);
        assert!(m.acting_set(GroupId(0)).len() >= m.min_size);
    }

    #[test]
    fn total_outage_yields_empty_sets_without_panicking() {
        let mut m = OsdMap::new(2, 1, 8, 2);
        m.mark_down(OsdId(0));
        m.mark_down(OsdId(1));
        assert!(m.acting_set(GroupId(3)).is_empty());
        assert!(m.try_primary(GroupId(3)).is_none());
        assert!(m.acting_set(GroupId(3)).len() < m.min_size, "below quorum");
    }

    #[test]
    fn min_size_is_a_majority_floor() {
        assert_eq!(OsdMap::new(2, 1, 8, 1).min_size, 1);
        assert_eq!(OsdMap::new(2, 1, 8, 2).min_size, 1);
        assert_eq!(OsdMap::new(3, 1, 8, 3).min_size, 2);
    }

    #[test]
    fn zero_weight_excludes_osd_from_placement() {
        let mut m = map();
        m.set_weight(OsdId(3), 0);
        for pg in 0..256 {
            assert!(
                !m.acting_set(GroupId(pg)).contains(&OsdId(3)),
                "drained osd must leave every acting set"
            );
        }
        // Still up: a drained OSD serves as a handoff source.
        assert!(m.osd(OsdId(3)).up);
        assert!(!m.osd(OsdId(3)).in_set());
    }

    #[test]
    fn drain_moves_only_affected_groups() {
        let mut m = map();
        let before: Vec<_> = (0..256).map(|pg| m.acting_set(GroupId(pg))).collect();
        m.set_weight(OsdId(5), 0);
        for (pg, old) in before.iter().enumerate() {
            let new = m.acting_set(GroupId(pg as u32));
            if !old.contains(&OsdId(5)) {
                assert_eq!(&new, old, "pg{pg} moved needlessly on drain");
            }
        }
    }

    #[test]
    fn add_osd_gets_dense_id_and_moves_few_groups() {
        let mut m = map();
        let before: Vec<_> = (0..256).map(|pg| m.acting_set(GroupId(pg))).collect();
        let id = m.add_osd(NodeId(4), DEFAULT_OSD_WEIGHT);
        assert_eq!(id, OsdId(8), "ids stay dense");
        let mut moved = 0;
        for (pg, old) in before.iter().enumerate() {
            let new = m.acting_set(GroupId(pg as u32));
            if &new != old {
                assert!(new.contains(&id), "pg{pg} may only move onto the new osd");
                moved += 1;
            }
        }
        // Rendezvous: the newcomer captures ~replication/(n+1) of the groups.
        assert!(moved > 0, "a unit-weight newcomer must attract some groups");
        assert!(
            moved <= 2 * 2 * 256 / 9 + 8,
            "movement stays near the minimal share: {moved}"
        );
    }

    #[test]
    fn double_weight_attracts_roughly_double_share() {
        let mut m = map();
        m.set_weight(OsdId(0), 2 * DEFAULT_OSD_WEIGHT);
        let mut counts = vec![0usize; 8];
        for pg in 0..1024 {
            for id in m.acting_set(GroupId(pg)) {
                counts[id.0 as usize] += 1;
            }
        }
        let others = counts[1..].iter().sum::<usize>() / 7;
        assert!(
            counts[0] > others * 3 / 2,
            "2x-weight osd should hold well over its equal share: {counts:?}"
        );
    }

    #[test]
    fn mutations_bump_epoch_monotonically() {
        let mut m = map();
        let mut last = m.epoch;
        let id = m.add_osd(NodeId(4), DEFAULT_OSD_WEIGHT);
        assert!(m.epoch > last);
        last = m.epoch;
        assert!(m.set_weight(id, 3 * DEFAULT_OSD_WEIGHT));
        assert!(m.epoch > last);
        last = m.epoch;
        // No-op weight change leaves the epoch alone.
        assert!(!m.set_weight(id, 3 * DEFAULT_OSD_WEIGHT));
        assert_eq!(m.epoch, last);
        m.remove_osd(id);
        assert!(m.epoch > last);
        assert!(!m.osd(id).up);
        assert_eq!(m.osd(id).weight, 0);
    }

    /// The ranking as the full sort `compute_acting_set` used to do.
    fn by_full_sort(m: &OsdMap, group: GroupId) -> ActingSet {
        let mut ranked: Vec<(u128, OsdId, NodeId)> = m
            .in_osds()
            .map(|o| {
                let h = mix((group.0 as u64) << 32 | o.id.0 as u64);
                ((h as u128) * (o.weight as u128), o.id, o.node)
            })
            .collect();
        ranked.sort_by_key(|r| (std::cmp::Reverse(r.0), r.1));
        let mut set = ActingSet::new();
        let mut used_nodes: Vec<NodeId> = Vec::new();
        for (_, id, node) in ranked {
            if set.len() < m.replication && !used_nodes.contains(&node) {
                used_nodes.push(node);
                set.push(id);
            }
        }
        set
    }

    #[test]
    fn member_by_member_selection_matches_a_full_sort() {
        let mut x = 0x9E37_79B9u64;
        let mut next = move |n: u64| {
            x = mix(x);
            x % n
        };
        for round in 0..200 {
            let (nodes, per_node) = (1 + next(6) as u32, 1 + next(4) as u32);
            let mut m = OsdMap::new(nodes, per_node, 16, 1 + next(3) as usize);
            for _ in 0..next(8) {
                let id = OsdId(next(m.osds.len() as u64) as u32);
                match next(4) {
                    0 => m.mark_down(id),
                    1 => {
                        m.set_weight(id, next(3) as u32 * DEFAULT_OSD_WEIGHT / 2);
                    }
                    2 => {
                        m.add_osd(NodeId(next(8) as u32), 1 + next(1 << 18) as u32);
                    }
                    _ => m.mark_up(id),
                }
            }
            for g in 0..20 {
                let got = m.acting_set(GroupId(g));
                assert_eq!(got, by_full_sort(&m, GroupId(g)), "round {round}, {m:?}");
            }
        }
    }

    #[test]
    fn clones_share_acting_sets_until_one_is_mutated() {
        let a = map();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.cache, &b.cache));
        let set = b.acting_set(GroupId(5));
        assert_eq!(a.cache[5].get(), Some(&set), "ranked once for both");
        assert_eq!(a.acting_set(GroupId(5)), set);
        let victim = set[0];
        b.mark_down(victim);
        assert!(!Arc::ptr_eq(&a.cache, &b.cache));
        assert!(!b.acting_set(GroupId(5)).contains(&victim));
        assert_eq!(a.acting_set(GroupId(5)), set, "the old epoch still answers");
        // Groups past pg_count are ranked on every call, never stored.
        assert_eq!(a.acting_set(GroupId(64)), a.compute_acting_set(GroupId(64)));
    }

    #[test]
    fn flapping_osd_is_held_out_until_stable() {
        let ms = |n: u64| n * 1_000_000;
        let mut mon = Monitor::new(map());
        mon.set_grace_nanos(ms(10));
        mon.set_flap_policy(3, ms(100), ms(50));
        // Three down/up cycles in quick succession: the third rejoin trips
        // the damper.
        let mut rejoined = 0;
        for cycle in 0..3u64 {
            let t = ms(5 + cycle * 10);
            mon.map.mark_down(OsdId(2));
            if mon.heartbeat(OsdId(2), t).is_some() {
                rejoined += 1;
            }
        }
        assert_eq!(rejoined, 2, "third rejoin within the window is refused");
        assert_eq!(mon.flaps_damped(), 1);
        assert!(!mon.map().osd(OsdId(2)).up);
        assert!(mon.is_held_out(OsdId(2), ms(30)));
        // Still held: rejoin attempts during the holdout are counted and
        // refused.
        assert!(mon.heartbeat(OsdId(2), ms(40)).is_none());
        assert_eq!(mon.flaps_damped(), 2);
        // After the holdout the OSD is readmitted.
        let update = mon.heartbeat(OsdId(2), ms(80));
        assert!(matches!(update, Some(MonMsg::MapUpdate { .. })));
        assert!(mon.map().osd(OsdId(2)).up);
    }

    #[test]
    fn admin_mutations_broadcast_map_updates() {
        let mut mon = Monitor::new(map());
        let e0 = mon.map().epoch;
        let update = mon.admin_set_weight(OsdId(1), 0);
        assert!(matches!(update, Some(MonMsg::MapUpdate { .. })));
        assert_eq!(mon.map().epoch, e0 + 1);
        // Idempotent: re-applying the same weight is a no-op.
        assert!(mon.admin_set_weight(OsdId(1), 0).is_none());
        let (id, _) = mon.admin_add_osd(NodeId(9), DEFAULT_OSD_WEIGHT, 0);
        assert_eq!(id, OsdId(8));
        // The monitor's liveness bookkeeping grew with the map.
        assert!(mon.heartbeat(id, 1).is_none());
    }
}
