//! Peering: who holds what after the map changed. The bounded per-group
//! write log (pg_log) is its currency. A primary that holds a group asks its
//! acting-set peers for theirs (`PgQuery` / `PgInfo`), diffs them against
//! its own and cuts the missing sets `recovery.rs` then pushes. A member
//! that does not hold a group clean joins it in the same round (§IV-A-4):
//! it asks every up member of every acting set the group has had since it
//! last held it clean, and pulls object contents and log records, in one
//! `PullReply`, from the one the evidence names; survivors flush their
//! operation logs but keep them for it. A joining primary diffs once its
//! join has ended.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rablock_oplog::{GroupLog, LogRecord};
use rablock_storage::{FxHashMap, GroupId, ObjectId, Segments, Transaction};

use super::digest::digest_op;
use super::flush::StoreCtx;
use super::recovery::whole_object_txn;
use super::{Osd, OsdEffect, StoragePath, PG_LOG_LIMIT};
use crate::msg::{PeerMsg, PgLogEntry};
use crate::placement::{OsdId, OsdMap};

/// Externally visible state of one placement group at its primary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PgState {
    /// Fully replicated; no recovery in flight.
    Active,
    /// Serving I/O with fewer than `replication` members (above `min_size`).
    Degraded,
    /// The primary is collecting pg_log infos, or joining the group.
    Peering,
    /// Log-replay recovery: pushing individually missing objects to peers
    /// whose logs overlap the primary's.
    Recovering,
    /// Full-object backfill: at least one peer fell off the log tail and is
    /// receiving every object of the group.
    Backfilling,
    /// A scrub found replicas that disagree (or failed their checksums);
    /// repair pushes/fetches are in flight. Clears back to Active once
    /// every damaged copy is healed.
    Inconsistent,
}

/// Where a join stands: asking the candidates for their infos, or pulling
/// from the one they named, which answered as joining or not.
#[derive(Copy, Clone, Debug)]
enum Join {
    Asking,
    Pulling(OsdId, bool),
}

/// One group's round at this OSD for the current map epoch: at a primary
/// that holds the group, its peering and recovery, dropped once every peer
/// acked its last push; at a member that does not hold it clean, its join.
pub(super) struct PgRecovery {
    /// Map epoch this peering round belongs to; stale replies are ignored.
    pub(super) epoch: u64,
    /// Peering, Recovering, or Backfilling.
    pub(super) state: PgState,
    /// Peers whose [`PeerMsg::PgInfo`] has not arrived yet.
    awaiting_infos: BTreeSet<OsdId>,
    /// Collected peer infos (by peer): whether it is joining, and its log.
    infos: BTreeMap<OsdId, (bool, Vec<PgLogEntry>)>,
    /// Outstanding pushes per peer, keyed by raw object id for stable order.
    pub(super) missing: BTreeMap<OsdId, BTreeMap<u64, ObjectId>>,
    /// Peers being healed by full backfill rather than log replay.
    pub(super) backfill_peers: BTreeSet<OsdId>,
    /// The join, while this OSD is joining the group.
    join: Option<Join>,
}

impl PgRecovery {
    pub(super) fn new(epoch: u64, state: PgState, awaiting_infos: BTreeSet<OsdId>) -> Self {
        PgRecovery {
            epoch,
            state,
            awaiting_infos,
            infos: BTreeMap::new(),
            missing: BTreeMap::new(),
            backfill_peers: BTreeSet::new(),
            join: None,
        }
    }
}

/// Peering's volatile state. The pg_log is rebuilt from the recovered NVM
/// log on restart; everything else is re-derived from the next map.
#[derive(Default)]
pub(super) struct Peering {
    /// Bounded versioned write log per group (`(epoch, version, oid,
    /// digest)` per applied op): the peering currency.
    pub(super) pg_log: FxHashMap<GroupId, VecDeque<PgLogEntry>>,
    /// This epoch's rounds: peering and recovery of the groups this OSD
    /// leads, and its joins.
    pub(super) rounds: BTreeMap<GroupId, PgRecovery>,
    /// The groups this OSD does not hold clean (decoupled mode), each with
    /// the members of every acting set the group has had since it last did
    /// (the candidates a join asks), and whether it left the group holding
    /// it clean (its copy whole as of then). A join's end removes the group.
    pub(super) unclean: BTreeMap<GroupId, (BTreeSet<OsdId>, bool)>,
}

impl Peering {
    /// True while this OSD is itself still joining the group: it is not
    /// authoritative for it yet, and its flushes and cold store reads
    /// wait, so the pulled objects cannot clobber newer data.
    pub(super) fn joining(&self, group: GroupId) -> bool {
        self.rounds.get(&group).is_some_and(|r| r.join.is_some())
    }

    /// Appends to the group's pg_log, evicting the oldest entries first so
    /// the deque never outgrows (and never doubles past) the bound.
    pub(super) fn log_push(&mut self, group: GroupId, entry: PgLogEntry) {
        let log = self.pg_log.entry(group).or_default();
        while log.len() >= PG_LOG_LIMIT {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// The group's pg_log entries, oldest first (none if it has no log).
    fn log(&self, group: GroupId) -> impl Iterator<Item = &PgLogEntry> {
        self.pg_log.get(&group).into_iter().flatten()
    }
}

/// A candidate's rank in the source rule: its newest pg_log entry, then
/// whether it is in the group's acting set `set` (a member takes every
/// write from here on), then the lower id.
type Rank = ((u64, u64), bool, Reverse<OsdId>);

fn rank<'a>(osd: OsdId, log: impl Iterator<Item = &'a PgLogEntry>, set: &[OsdId]) -> Rank {
    let newest = log.map(|e| (e.epoch, e.version)).max();
    (newest.unwrap_or_default(), set.contains(&osd), Reverse(osd))
}

/// The one source rule, over each candidate's `(joining, rank)`. A joiner
/// pulls from the best candidate that is not joining. When every candidate
/// is joining, the best of them and this OSD (ranked `me`) ends its join
/// and answers from its store: `None` when that is this OSD. Two joiners
/// that are each other's only candidates rank the same evidence, so they
/// name the same one.
fn pick_source(me: Rank, infos: &[(bool, Rank)]) -> Option<(bool, OsdId)> {
    let clean = infos.iter().filter(|i| !i.0).max_by_key(|i| i.1);
    let itself = (true, me);
    let all = infos.iter().chain([&itself]);
    let &(joining, (_, _, Reverse(best))) = clean.or_else(|| all.max_by_key(|i| i.1))?;
    (best != me.2 .0).then_some((joining, best))
}

impl Osd {
    /// Drops the pg_log entries of a version whose apply failed: claiming
    /// history we do not hold would make peering skip a push we need.
    pub(super) fn pg_log_unnote(&mut self, group: GroupId, version: u64) {
        if let Some(log) = self.peering.pg_log.get_mut(&group) {
            log.retain(|e| e.version != version);
        }
    }

    /// Appends one pg_log entry per log-worthy op of `txn` (version =
    /// primary-assigned replication seq), trimming to the bound.
    pub(super) fn pg_log_note(&mut self, group: GroupId, version: u64, txn: &Transaction) {
        let epoch = self.map.epoch;
        for op in txn.ops.iter() {
            if let Some((oid, digest)) = digest_op(op) {
                let entry = PgLogEntry {
                    epoch,
                    version,
                    oid,
                    digest,
                };
                self.peering.log_push(group, entry);
            }
        }
    }

    /// The newest `(epoch, version)` this OSD's pg_log holds for an object,
    /// or `(0, 0)` if the object never appears (fell off the tail or never
    /// written here). Recovery pushes are applied only when they beat this.
    pub(super) fn pg_latest(&self, group: GroupId, oid: ObjectId) -> (u64, u64) {
        let newest = self.newest_entry(group, oid);
        (newest.epoch, newest.version)
    }

    /// The newest pg_log entry this OSD holds for an object, or an epoch-0 /
    /// version-0 sentinel when none survives (fell off the tail or never
    /// written here). The sentinel never beats a real entry, so receivers
    /// apply such contents only over objects with no history at all, and do
    /// not log them.
    pub(super) fn newest_entry(&self, group: GroupId, oid: ObjectId) -> PgLogEntry {
        let entries = self.peering.log(group).filter(|e| e.oid == oid);
        let newest = entries.max_by_key(|e| (e.epoch, e.version)).copied();
        newest.unwrap_or(PgLogEntry {
            epoch: 0,
            version: 0,
            oid,
            digest: 0,
        })
    }

    /// The state of one group as seen by this OSD (meaningful at the
    /// group's primary): an active recovery round reports its phase,
    /// otherwise the acting-set size decides Active vs Degraded.
    pub fn pg_state(&self, group: GroupId) -> PgState {
        if let Some(rec) = self.peering.rounds.get(&group) {
            return rec.state;
        }
        if self.scrub_inconsistent(group) {
            return PgState::Inconsistent;
        }
        if self.map.acting_set(group).len() < self.map.replication {
            PgState::Degraded
        } else {
            PgState::Active
        }
    }

    /// Objects of the group this primary knows to be missing on some
    /// acting-set peer: its round's outstanding pushes.
    pub fn outstanding(&self, group: GroupId) -> u64 {
        let round = self.peering.rounds.get(&group);
        round.map_or(0, |r| r.missing.values().map(|m| m.len() as u64).sum())
    }

    /// [`Osd::outstanding`] over every group. Zero once the cluster healed.
    pub fn degraded_objects(&self) -> u64 {
        let groups = self.peering.rounds.keys();
        groups.map(|&g| self.outstanding(g)).sum()
    }

    /// What this OSD's join of the group waits on, if it is joining it: the
    /// candidates yet to answer, or the one it pulls from.
    pub fn join_waits(&self, group: GroupId) -> Option<String> {
        let round = self.peering.rounds.get(&group)?;
        Some(match round.join? {
            Join::Asking => format!("infos from {:?}", round.awaiting_infos),
            Join::Pulling(from, _) => format!("a pull from {from}"),
        })
    }

    fn pg_query(&mut self, to: OsdId, group: GroupId, epoch: u64) {
        let from = self.id;
        self.send(to, PeerMsg::PgQuery { group, epoch, from });
    }

    fn pull(&mut self, to: OsdId, group: GroupId) {
        let from = self.id;
        self.send(to, PeerMsg::PullLog { group, from });
    }

    /// Records what a map change from acting set `was` to `now` says of a
    /// group this OSD does not hold clean: if it held the group and is out
    /// of it now, it left it clean; otherwise the group gains both sets as
    /// candidates, and one it is back in is no longer left clean.
    fn note_holders(&mut self, group: GroupId, was: &[OsdId], now: &[OsdId]) {
        let id = self.id;
        let tracked = self.peering.unclean.contains_key(&group);
        let held = was.contains(&id) && !tracked;
        // A set that did not move changes no standing the last map gave.
        if (held && now.contains(&id)) || (was == now && (tracked || held)) {
            return;
        }
        let past = self.peering.unclean.entry(group);
        let (candidates, left_clean) = past.or_insert((BTreeSet::new(), held));
        *left_clean &= !now.contains(&id);
        candidates.extend(was.iter().chain(now).filter(|&&o| o != id));
    }

    /// Opens the group's round at this epoch, if it has one. A member that
    /// does not hold the group clean joins it and asks every up candidate;
    /// a primary that holds it asks its acting-set peers.
    pub(super) fn open_round(&mut self, group: GroupId) {
        self.peering.rounds.remove(&group);
        let (map, id) = (&self.map, self.id);
        let set = map.acting_set(group);
        let joins = set.contains(&id) && self.peering.unclean.contains_key(&group);
        let ask: BTreeSet<OsdId> = if joins {
            let candidates = self.peering.unclean[&group].0.iter().copied();
            candidates.filter(|&o| map.osd(o).up).collect()
        } else if set.first() == Some(&id) && set.len() >= 2 {
            set.into_iter().filter(|&o| o != id).collect()
        } else {
            return;
        };
        let round = PgRecovery::new(map.epoch, PgState::Peering, ask);
        let join = joins.then_some(Join::Asking);
        self.peering
            .rounds
            .insert(group, PgRecovery { join, ..round });
        self.ask(group);
    }

    /// Asks every peer the group's round still awaits for its info. A join
    /// that awaits no answer chooses its source at once.
    fn ask(&mut self, group: GroupId) {
        let round = &self.peering.rounds[&group];
        let (epoch, peers) = (round.epoch, round.awaiting_infos.clone());
        let chooses = round.join.is_some() && peers.is_empty();
        for peer in peers {
            self.pg_query(peer, group, epoch);
        }
        if chooses {
            self.choose_source(group);
        }
    }

    /// Every candidate answered: the source rule names whom this joiner
    /// pulls from, or ends its join here.
    fn choose_source(&mut self, group: GroupId) {
        let set = self.map.acting_set(group);
        let me = rank(self.id, self.peering.log(group), &set);
        let round = self.peering.rounds.get_mut(&group).expect("a join");
        let infos = std::mem::take(&mut round.infos).into_iter();
        let infos: Vec<_> = infos
            .map(|(o, (j, log))| (j, rank(o, log.iter(), &set)))
            .collect();
        match pick_source(me, &infos) {
            Some((joining, from)) => {
                round.join = Some(Join::Pulling(from, joining));
                self.pull(from, group);
            }
            None => self.end_join(group),
        }
    }

    /// The join ends: this OSD holds the group clean, and a primary goes on
    /// to the diff against its peers, asking them afresh. The flushes and
    /// cold reads the join held go now.
    fn end_join(&mut self, group: GroupId) {
        self.peering.unclean.remove(&group);
        self.open_round(group);
        self.background_io();
        self.kick_maintenance();
        let due = self
            .logs
            .get(&group)
            .is_some_and(|l| l.pending() >= l.flush_threshold);
        let rt = self.rt(group);
        if (due || !rt.waiting_reads.is_empty()) && !rt.flushing {
            self.fx.push(OsdEffect::WakeFlush { group });
        }
    }

    /// All peer infos arrived: diff each peer's log against ours, cut the
    /// per-peer missing sets, and start pushing. A peer whose log shares no
    /// history with ours (empty while we have entries) fell off the log tail
    /// and gets a full backfill of every object we track for the group.
    fn finish_peering(&mut self, group: GroupId) {
        // Newest entry per object on our side.
        let mut latest: BTreeMap<u64, PgLogEntry> = BTreeMap::new();
        for e in self.peering.log(group) {
            let slot = latest.entry(e.oid.raw()).or_insert(*e);
            if (e.epoch, e.version) > (slot.epoch, slot.version) {
                *slot = *e;
            }
        }
        let all_extents = self.group_extent_map(group);
        let rec = self.peering.rounds.get_mut(&group).expect("a round");
        for (peer, (_, entries)) in std::mem::take(&mut rec.infos) {
            let need: BTreeMap<u64, ObjectId> = if entries.is_empty() && !latest.is_empty() {
                // No shared history: backfill everything we track.
                rec.backfill_peers.insert(peer);
                all_extents
                    .iter()
                    .map(|&(oid, _)| (oid.raw(), oid))
                    .collect()
            } else {
                // Log replay: push the objects whose newest entry the peer
                // lacks. Entries the peer has that *we* lack (e.g. a write
                // we lost to a torn NVM tail while down) are deliberately
                // left alone: overwriting them could destroy an acked write
                // the peer is authoritative for — the joiner pull on our own
                // rejoin is what heals us from the peer, never the reverse.
                let keys: BTreeSet<_> = entries.iter().map(PgLogEntry::key).collect();
                let lacks = latest.values().filter(|e| !keys.contains(&e.key()));
                lacks.map(|e| (e.oid.raw(), e.oid)).collect()
            };
            if !need.is_empty() {
                rec.missing.insert(peer, need);
            }
        }
        if rec.missing.is_empty() {
            self.peering.rounds.remove(&group);
            return;
        }
        rec.state = if rec.backfill_peers.is_empty() {
            PgState::Recovering
        } else {
            PgState::Backfilling
        };
        self.push_missing(group);
    }

    /// Heartbeat-driven retries, so a dropped message can never wedge a
    /// round: lost queries are re-asked (a peer gone down is no longer
    /// awaited) and outstanding pushes re-sent. A pull is re-sent to a
    /// source that is up and answered as not joining (the pull or its reply
    /// may have been lost, or the store refused the reply); one that
    /// answered as joining may have chosen otherwise since, so the join
    /// asks every candidate again, as it does when its source went down.
    pub(super) fn retry_recovery(&mut self) {
        let groups: Vec<GroupId> = self.peering.rounds.keys().copied().collect();
        for group in groups {
            let map = &self.map;
            let round = self.peering.rounds.get_mut(&group).expect("listed");
            match round.join {
                Some(Join::Pulling(from, false)) if map.osd(from).up => self.pull(from, group),
                Some(Join::Pulling(..)) => self.open_round(group),
                _ if round.state == PgState::Peering => {
                    round.awaiting_infos.retain(|&o| map.osd(o).up);
                    self.ask(group);
                }
                _ => self.push_missing(group),
            }
        }
    }

    /// A joiner pulls: ship it the group's full object contents and the
    /// pending log records on top, in one reply.
    pub(super) fn on_pull_log(&mut self, group: GroupId, requester: OsdId) {
        if self.peering.joining(group) {
            // Not authoritative yet: answering would hand the requester a
            // copy this OSD has not finished. The requester asks again on
            // its heartbeat once this join has ended.
            return;
        }
        // Bring the backend up to date with the group's pending records first,
        // so the shipped contents include every write this survivor has acked.
        // A store that refuses them leaves the pull unanswered for a retry.
        if self.sync_group_log(group).is_err() {
            return;
        }
        let mut objects = Vec::new();
        for (oid, len) in self.group_extent_map(group) {
            if let Ok(data) = self.backend.read_segments(oid, 0, len) {
                objects.push((oid, data));
            }
        }
        self.background_io();
        let records = self
            .logs
            .get(&group)
            .map_or_else(Vec::new, GroupLog::export_records);
        let reply = PeerMsg::PullReply {
            group,
            objects,
            records,
        };
        self.send(requester, reply);
    }

    /// The pull's reply lands, and with it the join ends. Each object is
    /// applied whole: the joiner may hold nothing of the group. The records
    /// go into an empty log. A log that is not empty already holds newer
    /// data written here, and a ring that cannot hold them says `NoSpace`;
    /// either way the records go to the store instead, where the objects
    /// (read after the source synced) already hold their bytes. A store
    /// that refuses an object or a record leaves the join open: the
    /// heartbeat pulls again, re-applying whole objects is idempotent, and
    /// a condition that persists shows up in `ClusterSim::unhealed` instead
    /// of killing the process.
    pub(super) fn on_pull_reply(
        &mut self,
        group: GroupId,
        objects: Vec<(ObjectId, Segments)>,
        records: Vec<LogRecord>,
    ) {
        if !self.peering.joining(group) {
            // Duplicate or unsolicited: the first reply won; applying
            // another could resurrect stale data.
            return;
        }
        for (oid, data) in objects {
            self.seq += 1;
            let txn = whole_object_txn(group, self.seq, oid, data);
            self.note_txn(&txn);
            if self.backend.submit(txn).is_err() {
                return;
            }
        }
        for r in &records {
            self.note_txn(&r.txn);
        }
        let empty = self.log_for(group).is_ok_and(|log| log.pending() == 0);
        let (log, nvm) = (self.logs.get_mut(&group), &mut self.nvm);
        if empty && log.is_some_and(|log| log.import_records(nvm, &records).is_ok()) {
            let bytes = records.iter().map(LogRecord::encoded_len).sum();
            self.fx.push(OsdEffect::NvmWritten { bytes });
        } else {
            let mut pulled = records.into_iter();
            if pulled.try_for_each(|r| self.backend.submit(r.txn)).is_err() {
                return;
            }
        }
        self.end_join(group);
    }

    /// Answers a round's ask with this OSD's pg_log for the group, and
    /// whether it is joining: it holds no finished copy, because it is
    /// joining the group or left it (or crashed) before its join ended.
    pub(super) fn on_pg_query(&mut self, group: GroupId, epoch: u64, requester: OsdId) {
        let entries = self.peering.log(group).copied().collect();
        let past = self.peering.unclean.get(&group);
        let joining = past.is_some_and(|&(_, left_clean)| !left_clean);
        let from = self.id;
        let info = PeerMsg::PgInfo {
            group,
            epoch,
            from,
            joining,
            entries,
        };
        self.send(requester, info);
    }

    pub(super) fn on_pg_info(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        joining: bool,
        entries: Vec<PgLogEntry>,
    ) {
        // A stale epoch, no round in flight, or a duplicate is a reply
        // from a superseded ask; drop it.
        let round = self.peering.rounds.get_mut(&group);
        let Some(rec) = round.filter(|r| r.epoch == epoch) else {
            return;
        };
        if !rec.awaiting_infos.remove(&peer) {
            return;
        }
        rec.infos.insert(peer, (joining, entries));
        match (rec.awaiting_infos.is_empty(), rec.join.is_some()) {
            (true, true) => self.choose_source(group),
            (true, false) => self.finish_peering(group),
            (false, _) => {}
        }
    }

    /// §IV-A-4 failure handling: on a map change, surviving members flush
    /// their logs *without* removing entries (step ④), and a member that
    /// does not hold a group clean joins it (steps ⑥–⑦).
    pub(super) fn on_map_update(&mut self, map: OsdMap) {
        if map.epoch <= self.map.epoch {
            return;
        }
        let old = std::mem::replace(&mut self.map, map);
        self.abort_scrubs();
        let storage = self.cfg.mode.storage();
        let (logged, rounds) = (storage == StoragePath::NvmLog, storage.keeps_data());
        for group in (0..self.map.pg_count).map(GroupId) {
            let now = self.map.acting_set(group);
            if logged {
                self.note_holders(group, &old.acting_set(group), &now);
            }
            // The rounds of the last epoch end, but an open join of a group
            // this OSD is still in goes on.
            let member = now.contains(&self.id);
            if rounds && !(member && self.peering.joining(group)) {
                self.open_round(group);
            }
            let pending = self.logs.get(&group).is_some_and(|l| l.pending() > 0);
            let survivor = logged && member && !self.peering.joining(group);
            if survivor && pending && self.submit_pending(group).is_ok() {
                // Persist pending data but keep the log so a joiner can
                // synchronize from it. No flush window opens: nothing
                // drains when it completes. Refused records stay pending.
                self.store_io(StoreCtx::Background, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{Op, Payload};

    use super::super::testkit::*;
    use super::super::{OsdConfig, OsdInput, PgState, PipelineMode};
    use super::*;
    use crate::msg::{ClientId, ClientReply, ClientReq, OpId};
    use crate::placement::OsdMap;

    fn entry(version: u64) -> PgLogEntry {
        let oid = ObjectId::new(GroupId(0), version % 7);
        PgLogEntry {
            epoch: 1,
            version,
            oid,
            digest: version * 3,
        }
    }

    /// After four times the bound the log holds exactly the newest
    /// `PG_LOG_LIMIT` entries, oldest first, and its deque never grew past
    /// the bound.
    #[test]
    fn the_pg_log_keeps_the_newest_entries_within_its_bound() {
        let (mut peering, g) = (Peering::default(), GroupId(0));
        let total = 4 * PG_LOG_LIMIT as u64;
        for version in 1..=total {
            peering.log_push(g, entry(version));
            assert!(peering.pg_log[&g].capacity() <= PG_LOG_LIMIT);
        }
        let kept: Vec<PgLogEntry> = peering.log(g).copied().collect();
        let newest: Vec<PgLogEntry> = (total - PG_LOG_LIMIT as u64 + 1..=total)
            .map(entry)
            .collect();
        assert_eq!(kept, newest);
    }

    /// A spare that has just sent `PullLog` for group 0 after a map change
    /// took a member away, and the OSD it pulls from: the one up candidate,
    /// which answered its ask as holding the group clean.
    fn joiner(cfg: OsdConfig) -> (Osd, OsdId) {
        let map = OsdMap::new(3, 1, 8, 2);
        let g = GroupId(0);
        let set = map.acting_set(g);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut next = map.clone();
        next.mark_down(set[1]);
        let mut joiner = Osd::new(spare, cfg, map);
        let fx = joiner.handle(OsdInput::MapUpdate(next.clone()));
        assert_eq!(asks_of(&fx, g), vec![set[0]], "the joiner asks: {fx:?}");
        let (epoch, from) = (next.epoch, set[0]);
        let msg = info(g, epoch, from, false);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert_eq!(pulls_of(&fx), vec![(set[0], g)], "the joiner pulls: {fx:?}");
        (joiner, set[0])
    }

    /// Whom the effects ask for their infos on `group`.
    fn asks_of(fx: &[OsdEffect], group: GroupId) -> Vec<OsdId> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: PeerMsg::PgQuery { group: g, .. },
                } if *g == group => Some(*to),
                _ => None,
            })
            .collect()
    }

    /// The one message of `kind` among the effects, taken out.
    fn sent(fx: Vec<OsdEffect>, kind: impl Fn(&PeerMsg) -> bool) -> PeerMsg {
        let mut msgs = fx.into_iter().filter_map(|e| match e {
            OsdEffect::SendPeer { msg, .. } if kind(&msg) => Some(msg),
            _ => None,
        });
        let msg = msgs.next().expect("the message is sent");
        assert!(msgs.next().is_none(), "one such message");
        msg
    }

    /// The map that moves group 0 off both its members onto the other two
    /// of four OSDs, which join it as each other's only up candidates.
    fn both_members_down() -> (OsdMap, OsdMap, GroupId) {
        let (map, g) = (OsdMap::new(4, 1, 8, 2), GroupId(0));
        let mut next = map.clone();
        for o in map.acting_set(g) {
            next.mark_down(o);
        }
        (map, next, g)
    }

    /// Two joiners that are each other's only candidates. Each answers the
    /// other's ask as joining, both rank the same evidence, and the one it
    /// names ends its join and answers from its store: the newer pg_log
    /// entry (`evidence`: the higher id logged a write before the map
    /// moved), else the lower id. The other's pull lands and ends its join
    /// too. Returns the OSD that answered from its store.
    fn two_joiners(evidence: bool) -> OsdId {
        let (map, next, g) = both_members_down();
        let set = next.acting_set(g);
        let (lo, hi) = (set[0].min(set[1]), set[0].max(set[1]));
        let cfg = cfg(PipelineMode::Dop, 16);
        let mut osds = [lo, hi].map(|id| Osd::new(id, cfg.clone(), map.clone()));
        if evidence {
            let create = Op::Create {
                oid: oid_in(g, 1),
                size: 0,
            };
            let txn = Transaction::new(g, 1, vec![create]);
            let msg = PeerMsg::Repop {
                group: g,
                seq: 1,
                txn,
            };
            osds[1].handle(OsdInput::Peer { from: lo, msg });
        }
        let is_ask = |m: &PeerMsg| matches!(m, PeerMsg::PgQuery { group, .. } if group.0 == 0);
        let asks = osds.each_mut().map(|o| {
            let fx = o.handle(OsdInput::MapUpdate(next.clone()));
            assert_eq!(asks_of(&fx, g).len(), 1, "{fx:?}");
            sent(fx, is_ask)
        });
        let is_info = |m: &PeerMsg| matches!(m, PeerMsg::PgInfo { joining: true, .. });
        let infos = asks.map(|ask| {
            let PeerMsg::PgQuery { from, .. } = ask else {
                unreachable!()
            };
            let o = osds.iter_mut().find(|o| o.id != from).expect("the other");
            sent(o.handle(OsdInput::Peer { from, msg: ask }), is_info)
        });
        let mut pulls = Vec::new();
        for (i, info) in infos.into_iter().enumerate() {
            let from = osds[1 - i].id;
            let fx = osds[i].handle(OsdInput::Peer { from, msg: info });
            pulls.extend(pulls_of(&fx).into_iter().map(|(to, _)| (i, to)));
        }
        let [(joiner, source)] = pulls[..] else {
            panic!("exactly one joiner pulls: {pulls:?}");
        };
        let store = 1 - joiner;
        assert_eq!(osds[store].id, source);
        assert!(!osds[store].peering.joining(g), "answers from its store");
        let waits = osds[joiner].join_waits(g);
        assert_eq!(waits, Some(format!("a pull from {source}")));
        let from = osds[joiner].id;
        let msg = PeerMsg::PullLog { group: g, from };
        let is_reply = |m: &PeerMsg| matches!(m, PeerMsg::PullReply { .. });
        let reply = sent(osds[store].handle(OsdInput::Peer { from, msg }), is_reply);
        let from = source;
        osds[joiner].handle(OsdInput::Peer { from, msg: reply });
        assert_eq!(osds[joiner].join_waits(g), None, "joined");
        source
    }

    #[test]
    fn two_joiners_that_are_each_others_only_candidates_both_end_their_joins() {
        let (_, next, g) = both_members_down();
        let set = next.acting_set(g);
        let (lo, hi) = (set[0].min(set[1]), set[0].max(set[1]));
        assert_eq!(two_joiners(false), lo, "a tie goes to the lower id");
        assert_eq!(two_joiners(true), hi, "the newer entry wins");
    }

    fn pulls_of(fx: &[OsdEffect]) -> Vec<(OsdId, GroupId)> {
        fx.iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: PeerMsg::PullLog { group, .. },
                } => Some((*to, *group)),
                _ => None,
            })
            .collect()
    }

    /// A pull's reply for group 0: each `(oid, len)` of `objects` whole,
    /// `len` bytes of 7s, and one record that writes `record_len` bytes of
    /// 7s to object 1 (no record if `record_len` is 0).
    fn reply(objects: &[(ObjectId, usize)], record_len: usize) -> PeerMsg {
        let g = GroupId(0);
        let fill = |len: usize| Payload::from(vec![7u8; len]);
        let objects = objects
            .iter()
            .map(|&(oid, len)| (oid, fill(len).into()))
            .collect();
        let write = Op::Write {
            oid: oid_in(g, 1),
            offset: 0,
            data: fill(record_len),
        };
        let txn = Transaction::new(g, 1, vec![write]);
        let record = LogRecord {
            version: 1,
            seq: 1,
            txn,
        };
        let records = if record_len == 0 {
            vec![]
        } else {
            vec![record]
        };
        PeerMsg::PullReply {
            group: g,
            objects,
            records,
        }
    }

    /// Pulled records the joiner's ring cannot hold (`import_records` says
    /// `NoSpace`) go to the store instead, and the join ends with them.
    #[test]
    fn records_the_ring_cannot_hold_go_to_the_store_and_end_the_join() {
        let config = cfg(PipelineMode::Dop, 16);
        let len = config.ring_bytes as usize;
        let (mut joiner, from) = joiner(config);
        let g = GroupId(0);
        let oid = oid_in(g, 1);
        let fx = joiner.handle(OsdInput::Peer {
            from,
            msg: reply(&[], len),
        });
        assert!(!joiner.peering.joining(g), "joined: {fx:?}");
        assert_eq!(joiner.log_pending(g), 0, "nothing imported");
        let stored = joiner.debug_read(oid, len as u64);
        assert_eq!(stored, Some(Payload::from(vec![7u8; len])));
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(!pulls_of(&fx).contains(&(from, g)), "{fx:?}");
    }

    /// Records neither the ring nor the store can take leave the join
    /// open, though the objects before them applied; the heartbeat asks
    /// again, and a reply whose records fit ends the join.
    #[test]
    fn records_the_store_refuses_leave_the_join_open() {
        let small = OsdConfig {
            device_bytes: 8 << 20,
            ..cfg(PipelineMode::Dop, 16)
        };
        let (mut joiner, source) = joiner(small);
        let (g, from) = (GroupId(0), source);
        let other = oid_in(g, 2);
        let msg = reply(&[(other, 4096)], 12 << 20);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(joiner.peering.joining(g), "still joining: {fx:?}");
        assert_eq!(joiner.log_pending(g), 0);
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        let msg = reply(&[(other, 4096)], 4096);
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.joining(g));
        assert_eq!(joiner.log_pending(g), 1, "imported");
    }

    /// An object that does not fit the joiner's device used to abort it
    /// (`backfill apply: NoSpace`); a condition that persists now shows as a
    /// group that stays un-joined instead.
    #[test]
    fn backfill_that_does_not_fit_leaves_the_joiner_waiting_for_a_retry() {
        let small = OsdConfig {
            device_bytes: 8 << 20,
            ..cfg(PipelineMode::Dop, 16)
        };
        let (mut joiner, source) = joiner(small);
        let (g, from) = (GroupId(0), source);
        let (fits, too_big) = (oid_in(g, 1), oid_in(g, 2));
        let msg = reply(&[(too_big, 12 << 20)], 0);
        let fx = joiner.handle(OsdInput::Peer { from, msg });
        assert!(fx.is_empty(), "the partial trace is dropped: {fx:?}");
        assert!(joiner.peering.joining(g), "still waiting");
        let fx = joiner.handle(OsdInput::HeartbeatTick);
        assert!(pulls_of(&fx).contains(&(source, g)), "{fx:?}");
        // What fits lands, re-applied whole, and ends the wait.
        let msg = reply(&[(fits, 64 << 10)], 0);
        joiner.handle(OsdInput::Peer { from, msg });
        assert!(!joiner.peering.joining(g));
        assert!(joiner.object_digest(fits, 64 << 10).is_some());
    }

    /// A joiner holds a cold store read and a due flush of the group until
    /// the pull's reply applies, then lets both go: the flush opens its
    /// window, and the read, served once the window closes, sees the
    /// pulled object.
    #[test]
    fn a_joiner_releases_its_parked_read_and_due_flush_with_the_reply() {
        let (mut joiner, from) = joiner(cfg(PipelineMode::Dop, 2));
        let g = GroupId(0);
        for seq in 1..=2 {
            let write = Op::Write {
                oid: oid_in(g, seq),
                offset: 0,
                data: Payload::from(vec![1u8; 4096]),
            };
            let txn = Transaction::new(g, seq, vec![write]);
            let msg = PeerMsg::Repop { group: g, seq, txn };
            joiner.handle(OsdInput::Peer { from, msg });
        }
        assert_eq!(joiner.log_pending(g), 2, "a flush is due");
        let cold = oid_in(g, 3);
        let read = ClientReq::Read {
            op: OpId(7),
            oid: cold,
            offset: 0,
            len: 4096,
        };
        let fx = joiner.handle(OsdInput::Client {
            from: ClientId(1),
            req: read,
        });
        assert!(fx.is_empty(), "the cold read parks: {fx:?}");
        let fx = joiner.handle(OsdInput::FlushGroup { group: g });
        assert!(fx.is_empty(), "the flush is held: {fx:?}");

        let fx = joiner.handle(OsdInput::Peer {
            from,
            msg: reply(&[(cold, 4096)], 0),
        });
        let wake = |e: &OsdEffect| matches!(e, OsdEffect::WakeFlush { group } if *group == g);
        assert!(fx.iter().any(wake), "the reply re-arms the flush: {fx:?}");
        let fx = joiner.handle(OsdInput::FlushGroup { group: g });
        let tokens = tokens_of(&fx);
        assert_eq!(tokens.len(), 1, "the flush window opens: {fx:?}");
        let fx = joiner.handle(OsdInput::StoreDurable { token: tokens[0] });
        let fx = match tokens_of(&fx)[..] {
            [token] => joiner.handle(OsdInput::StoreDurable { token }),
            _ => fx,
        };
        let data = fx.iter().find_map(|e| match e {
            OsdEffect::Reply {
                msg: ClientReply::Data { op: OpId(7), data },
                ..
            } => Some(data.clone()),
            _ => None,
        });
        assert_eq!(data, Some(Payload::from(vec![7u8; 4096])), "{fx:?}");
        assert_eq!(joiner.log_pending(g), 0);
    }

    #[test]
    fn survivor_keeps_log_and_new_member_pulls_it() {
        // Three nodes so replication 2 survives one failure.
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = cfg(PipelineMode::Dop, 16);
        // Find a group and its acting set.
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        // Log a few writes at the primary.
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        assert_eq!(prim.log_pending(g), 3);
        // Secondary dies; map moves the group to include the spare.
        let mut new_map = map3.clone();
        new_map.mark_down(secondary);
        let new_set = new_map.acting_set(g);
        assert!(new_set.contains(&spare), "spare takes over");
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        // Survivor flushed-but-kept its log.
        assert_eq!(prim.log_pending(g), 3, "entries kept for peer sync");
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsdEffect::StoreIo { wait: true, .. })));
        // Spare joins: asks the survivor, which holds the group clean, and
        // pulls the log from it.
        let mut joiner = Osd::new(spare, cfg, map3.clone());
        let fx = joiner.handle(OsdInput::MapUpdate(new_map.clone()));
        assert_eq!(asks_of(&fx, g), vec![primary], "the one up candidate");
        let (group, epoch, from) = (g, new_map.epoch, spare);
        let ask = PeerMsg::PgQuery { group, epoch, from };
        let fx = prim.handle(OsdInput::Peer { from, msg: ask });
        let info = sent(fx, |m| matches!(m, PeerMsg::PgInfo { joining: false, .. }));
        let fx = joiner.handle(OsdInput::Peer {
            from: primary,
            msg: info,
        });
        let pull = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PullLog { group, .. },
            } => Some((*to, *group)),
            _ => None,
        });
        let (peer, group) = pull.expect("joiner pulls the log");
        assert_eq!(group, g);
        // Route the pull to the survivor and the records back.
        let fx = prim.handle(OsdInput::Peer {
            from: peer,
            msg: PeerMsg::PullLog {
                group: g,
                from: spare,
            },
        });
        let reply = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: msg @ PeerMsg::PullReply { .. },
                    ..
                } => Some(msg),
                _ => None,
            })
            .expect("survivor answers the pull");
        let PeerMsg::PullReply { records, .. } = &reply else {
            unreachable!()
        };
        assert_eq!(records.len(), 3, "survivor exports records");
        joiner.handle(OsdInput::Peer {
            from: primary,
            msg: reply,
        });
        assert_eq!(
            joiner.log_pending(g),
            3,
            "log replicated to the replacement"
        );
        // The joiner can now serve a strongly consistent read from its log.
        let fx = joiner.handle(OsdInput::Client {
            from: ClientId(9),
            req: ClientReq::Read {
                op: OpId(99),
                oid: oid_in(g, 2),
                offset: 0,
                len: 4096,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Data { .. },
                ..
            }
        )));
    }

    #[test]
    fn peering_backfills_a_peer_with_no_shared_history() {
        let map3 = OsdMap::new(3, 1, 8, 2);
        let cfg = cfg(PipelineMode::Dop, 16);
        let g = GroupId(0);
        let set = map3.acting_set(g);
        let (primary, secondary) = (set[0], set[1]);
        let spare = (0..3).map(OsdId).find(|o| !set.contains(o)).unwrap();
        let mut prim = Osd::new(primary, cfg.clone(), map3.clone());
        let mut peer = Osd::new(secondary, cfg, map3.clone());
        for i in 0..3 {
            prim.handle(OsdInput::Client {
                from: ClientId(1),
                req: write_req(i, oid_in(g, i)),
            });
        }
        // Epoch bump that keeps the acting set: the primary re-peers.
        let mut new_map = map3.clone();
        new_map.mark_down(spare);
        let fx = prim.handle(OsdInput::MapUpdate(new_map.clone()));
        let query = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PgQuery { group, epoch, .. },
            } if *group == g => Some((*to, *epoch)),
            _ => None,
        });
        let (to, epoch) = query.expect("primary queries the acting set");
        assert_eq!(to, secondary);
        assert_eq!(epoch, new_map.epoch);
        assert_eq!(prim.pg_state(g), PgState::Peering);
        // The secondary answers with an empty log (it has nothing): the
        // primary backfills every object it tracks.
        let fx = prim.handle(OsdInput::Peer {
            from: secondary,
            msg: info(g, epoch, secondary, false),
        });
        assert_eq!(prim.pg_state(g), PgState::Backfilling);
        let pushes: Vec<PeerMsg> = fx
            .iter()
            .filter_map(|e| match e {
                OsdEffect::SendPeer {
                    to,
                    msg: msg @ PeerMsg::PushObject { .. },
                } if *to == secondary => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(pushes.len(), 3, "all three objects pushed: {fx:?}");
        assert!(prim.backfill_bytes > 0);
        // Applying the pushes at the peer acks each one back; feeding the
        // acks to the primary ends the round.
        peer.handle(OsdInput::MapUpdate(new_map));
        for push in pushes {
            let fx = peer.handle(OsdInput::Peer {
                from: primary,
                msg: push,
            });
            let ack = fx
                .into_iter()
                .find_map(|e| match e {
                    OsdEffect::SendPeer {
                        msg: msg @ PeerMsg::PushAck { .. },
                        ..
                    } => Some(msg),
                    _ => None,
                })
                .expect("peer acks an applied push");
            prim.handle(OsdInput::Peer {
                from: secondary,
                msg: ack,
            });
        }
        assert_eq!(prim.pg_state(g), PgState::Active);
        assert_eq!(prim.degraded_objects(), 0);
        // The pushed bytes are now readable at the peer.
        assert_eq!(
            peer.object_digest(oid_in(g, 1), 4096),
            prim.object_digest(oid_in(g, 1), 4096),
        );
    }

    /// An object created with size 0 is tracked at length 0, so a pull ships
    /// it with empty content. The joiner used to panic on it (`backfill
    /// apply: InvalidArgument("zero-length write")`).
    #[test]
    fn backfill_of_a_zero_length_object_applies_the_bare_create() {
        let mut survivor = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&survivor);
        let oid = oid_in(g, 1);
        survivor.handle(OsdInput::Client {
            from: ClientId(1),
            req: ClientReq::Create {
                op: OpId(1),
                oid,
                size: 0,
            },
        });
        let fx = survivor.handle(OsdInput::Peer {
            from: OsdId(1),
            msg: PeerMsg::PullLog {
                group: g,
                from: OsdId(1),
            },
        });
        let backfill = fx
            .into_iter()
            .find_map(|e| match e {
                OsdEffect::SendPeer {
                    msg: msg @ PeerMsg::PullReply { .. },
                    ..
                } => Some(msg),
                _ => None,
            })
            .expect("the pull is answered");
        let PeerMsg::PullReply { objects, .. } = &backfill else {
            unreachable!()
        };
        assert_eq!(objects.len(), 1);
        assert!(objects[0].1.is_empty(), "shipped with no content");

        let mut joiner = osd(PipelineMode::Dop, 1);
        join_from(&mut joiner, g, OsdId(0));
        joiner.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: backfill,
        });
        assert_eq!(joiner.group_extent_map(g), vec![(oid, 0)]);
        assert!(joiner.object_digest(oid, 0).is_some(), "the object exists");
    }
}
