//! Scrub: a group's primary collects one object map per acting-set member
//! (`ScrubRequest` / `ScrubMap`; light rounds compare checksum metadata,
//! deep rounds read and verify every byte), votes an authoritative copy per
//! object, and repairs the others through recovery pushes. A copy this OSD
//! finds rotten itself — by scrub or on the read path — is healed by asking
//! a peer to push it back (`ScrubFetch`).

use std::collections::{BTreeMap, BTreeSet};

use rablock_storage::{GroupId, ObjectId};

use super::digest::digest_segments;
use super::Osd;
use crate::msg::{PeerMsg, ScrubEntry};
use crate::placement::OsdId;

/// One scrub round at a group's primary: collect a [`ScrubEntry`] map from
/// every acting-set member (self included), compare, then repair.
#[derive(Default)]
struct ScrubRound {
    /// Map epoch the round runs at; stale replies are ignored and a map
    /// change aborts the round (peering supersedes it).
    epoch: u64,
    /// Deep (read everything) vs light (metadata digests only).
    deep: bool,
    /// Peers whose [`PeerMsg::ScrubMap`] has not arrived yet.
    awaiting: BTreeSet<OsdId>,
    /// Collected maps by member (the primary's own map included).
    maps: BTreeMap<OsdId, Vec<ScrubEntry>>,
    /// Maps compared, repairs cut; the round now only tracks repairs.
    compared: bool,
    /// Local damaged objects awaiting a [`PeerMsg::ScrubFetch`] heal.
    self_wait: BTreeMap<u64, ObjectId>,
    /// Objects to push to damaged/divergent peers (deferred while the
    /// object is still in `self_wait` — never push bytes we hold rotten).
    peer_repairs: BTreeMap<u64, (ObjectId, BTreeSet<OsdId>)>,
}

/// Scrub's volatile state.
#[derive(Default)]
pub(super) struct Scrub {
    /// Active scrub rounds for groups this OSD leads.
    rounds: BTreeMap<GroupId, ScrubRound>,
    /// Scrub starts deferred by the throttle or a recovery in flight,
    /// retried on the heartbeat; `true` = deep (deep wins over light).
    queue: BTreeMap<GroupId, bool>,
    /// Outstanding self-heal fetches (`(group, raw oid)` → object + the
    /// peer currently asked), fed by scrub rounds and read-path checksum
    /// failures; retried with source rotation on the heartbeat.
    fetches: BTreeMap<(GroupId, u64), (ObjectId, OsdId)>,
}

impl Scrub {
    fn enqueue(&mut self, group: GroupId, deep: bool) {
        *self.queue.entry(group).or_insert(deep) |= deep;
    }
}

impl Osd {
    /// True while scrub knows of a bad copy in the group that is not healed
    /// yet: a compared round with repairs out, or a self-heal fetch.
    pub(super) fn scrub_inconsistent(&self, group: GroupId) -> bool {
        let scrub_repairing =
            self.scrub.rounds.get(&group).is_some_and(|r| {
                r.compared && (!r.self_wait.is_empty() || !r.peer_repairs.is_empty())
            });
        scrub_repairing || self.scrub.fetches.keys().any(|&(g, _)| g == group)
    }

    /// A new epoch re-peers everything; in-flight scrub rounds are stale
    /// (their repairs would race recovery pushes) and abort. Heals of our
    /// own copies stay queued when we still serve the group — rot does not
    /// go away with a map change.
    pub(super) fn abort_scrubs(&mut self) {
        self.scrub.rounds.clear();
        self.scrub.queue.clear();
        let (map, id) = (&self.map, self.id);
        let fetches = &mut self.scrub.fetches;
        fetches.retain(|key, _| map.acting_set(key.0).contains(&id));
    }

    fn scrub_request(&mut self, to: OsdId, group: GroupId, epoch: u64, deep: bool) {
        let from = self.id;
        let request = PeerMsg::ScrubRequest {
            group,
            epoch,
            deep,
            from,
        };
        self.send(to, request);
    }

    fn scrub_fetch(&mut self, to: OsdId, group: GroupId, oid: ObjectId) {
        let (epoch, from) = (self.map.epoch, self.id);
        let fetch = PeerMsg::ScrubFetch {
            group,
            epoch,
            oid,
            from,
        };
        self.send(to, fetch);
    }

    /// Starts a scrub round for `group` (primary only). A round already running
    /// keeps running; starts blocked by an active recovery, an unfinished join,
    /// or the deep-read throttle are queued and retried on the heartbeat.
    pub(super) fn on_scrub_start(&mut self, group: GroupId, deep: bool) {
        if !self.cfg.mode.storage().keeps_data() {
            return; // no data to scrub
        }
        if self.map.try_primary(group) != Some(self.id) {
            return;
        }
        if let Some(rec) = self.scrub.rounds.get(&group) {
            if !rec.deep && deep {
                // Upgrade request while a light round runs: queue the deep
                // pass instead of losing it.
                self.scrub.enqueue(group, true);
            }
            return;
        }
        if self.peering.rounds.contains_key(&group) {
            // Peering, a join or recovery owns the group right now; scrub
            // once it settles.
            self.scrub.enqueue(group, deep);
            return;
        }
        if deep {
            // Deep scrubs read every tracked byte; charge the shared
            // background budget so scrub and backfill together stay under
            // the same ceiling.
            let total: u64 = self
                .group_extents
                .get(&group)
                .map(|m| m.values().sum())
                .unwrap_or(0);
            if !self.budget.admit_scan(total) {
                self.scrub.enqueue(group, deep);
                return;
            }
        }
        let epoch = self.map.epoch;
        let peers: BTreeSet<OsdId> = self.replicas_of(group).into_iter().collect();
        let local = self.scrub_local_map(group, deep);
        let mut maps = BTreeMap::new();
        maps.insert(self.id, local);
        for &peer in &peers {
            self.scrub_request(peer, group, epoch, deep);
        }
        let done = peers.is_empty();
        let round = ScrubRound {
            epoch,
            deep,
            awaiting: peers,
            maps,
            ..ScrubRound::default()
        };
        self.scrub.rounds.insert(group, round);
        if done {
            // Solo group: nothing to compare against; a deep pass still
            // surfaces local rot through the read-repair fetch path.
            self.finish_scrub(group);
        }
    }

    /// Builds this OSD's scrub map of `group`: one [`ScrubEntry`] per
    /// tracked object. Light scrubs use checksum metadata where the backend
    /// has it (no data reads) and fall back to digesting the bytes; deep
    /// scrubs always read everything, so rotted blocks trip their checksum
    /// and mark the entry damaged.
    fn scrub_local_map(&mut self, group: GroupId, deep: bool) -> Vec<ScrubEntry> {
        // A refused re-apply leaves the map describing what the store holds.
        let _ = self.sync_group_log(group);
        let extents = self.group_extent_map(group);
        let mut entries = Vec::with_capacity(extents.len());
        for (oid, len) in extents {
            if len == 0 {
                continue;
            }
            let (epoch, version) = self.pg_latest(group, oid);
            let entry = |size, digest, damaged| ScrubEntry {
                oid_raw: oid.raw(),
                size,
                digest,
                damaged,
                epoch,
                version,
            };
            let metadata = if deep {
                self.scrub_bytes += len;
                None
            } else {
                self.backend.csum_digest(oid)
            };
            entries.push(match metadata {
                Some((size, digest)) => entry(size, digest, false),
                // Deep, or no checksum metadata (LSM backend: light degrades
                // to digesting the bytes); Err meaning the copy is gone.
                None => match self.backend.read_segments(oid, 0, len) {
                    Ok(data) => entry(len, digest_segments(&data), false),
                    Err(_) => entry(len, 0, true),
                },
            });
        }
        self.background_io();
        entries
    }

    /// All scrub maps arrived: vote an authoritative `(size, digest)` per
    /// object (majority of undamaged copies; ties go to the copy held by the
    /// smallest OSD id) and cut the repair sets. Copies that are damaged,
    /// missing, or divergent are errors; objects with no good copy anywhere are
    /// counted but unrepairable and dropped so the group can return to Active.
    fn finish_scrub(&mut self, group: GroupId) {
        let Some(rec) = self.scrub.rounds.get_mut(&group) else {
            return;
        };
        let maps = std::mem::take(&mut rec.maps);
        rec.compared = true;
        // Union of objects over every member's map.
        let mut all: BTreeMap<u64, Vec<(OsdId, ScrubEntry)>> = BTreeMap::new();
        for (&member, entries) in &maps {
            for e in entries {
                all.entry(e.oid_raw).or_default().push((member, *e));
            }
        }
        let members: Vec<OsdId> = maps.keys().copied().collect();
        let mut self_wait: BTreeMap<u64, ObjectId> = BTreeMap::new();
        let mut peer_repairs: BTreeMap<u64, (ObjectId, BTreeSet<OsdId>)> = BTreeMap::new();
        let mut errors = 0u64;
        for (raw, copies) in &all {
            let oid = ObjectId::from_raw(*raw);
            // Maps are collected at different instants, so a client write
            // landing mid-round leaves the copies at different pg_log
            // versions with honestly different bytes. That is replication in
            // progress, not damage: skip the object and let the next round
            // see it at rest. Same-version divergence is the real thing.
            let mut stamps = copies
                .iter()
                .filter(|(_, e)| !e.damaged)
                .map(|(_, e)| (e.epoch, e.version));
            let first = stamps.next();
            if first.is_some() && !stamps.all(|s| Some(s) == first) {
                continue;
            }
            // Vote among undamaged copies.
            let mut votes: BTreeMap<(u64, u64), Vec<OsdId>> = BTreeMap::new();
            for (member, e) in copies {
                if !e.damaged {
                    votes.entry((e.size, e.digest)).or_default().push(*member);
                }
            }
            let authoritative = votes
                .iter()
                .max_by_key(|(_, holders)| {
                    (
                        holders.len(),
                        // Tie → prefer the digest the smallest id holds
                        // (Reverse of min id sorts it last = max).
                        std::cmp::Reverse(holders.iter().min().copied()),
                    )
                })
                .map(|(key, _)| *key);
            let Some(auth) = authoritative else {
                // Every copy is damaged: nothing to heal from. Count each
                // bad copy and move on — re-writes recompute checksums and
                // heal the object from above.
                errors += copies.len() as u64;
                continue;
            };
            for &member in &members {
                let good = copies
                    .iter()
                    .any(|(m, e)| *m == member && !e.damaged && (e.size, e.digest) == auth);
                if good {
                    continue;
                }
                errors += 1;
                if member == self.id {
                    self_wait.insert(*raw, oid);
                } else {
                    peer_repairs
                        .entry(*raw)
                        .or_insert_with(|| (oid, BTreeSet::new()))
                        .1
                        .insert(member);
                }
            }
        }
        self.scrub_errors_found += errors;
        let rec = self.scrub.rounds.get_mut(&group).expect("round exists");
        rec.self_wait = self_wait;
        rec.peer_repairs = peer_repairs;
        self.drive_scrub_repairs(group);
        self.scrub_maybe_done(group);
    }

    /// Issues the round's outstanding repairs: fetches for locally damaged
    /// objects, pushes (through the throttled recovery push machinery) for
    /// peers — but never of an object still awaiting its own heal, so
    /// rotten bytes are never propagated.
    fn drive_scrub_repairs(&mut self, group: GroupId) {
        let Some(rec) = self.scrub.rounds.get(&group) else {
            return;
        };
        if !rec.compared {
            return;
        }
        let epoch = rec.epoch;
        let fetch: Vec<ObjectId> = rec.self_wait.values().copied().collect();
        let push: Vec<(ObjectId, Vec<OsdId>)> = rec
            .peer_repairs
            .iter()
            .filter(|(raw, _)| !rec.self_wait.contains_key(raw))
            .map(|(_, (oid, peers))| (*oid, peers.iter().copied().collect()))
            .collect();
        for oid in fetch {
            self.request_object_fetch(group, oid);
        }
        for (oid, peers) in push {
            for peer in peers {
                self.push_object_to(group, epoch, peer, oid, false);
            }
        }
    }

    /// Drops a finished scrub round (maps compared, no repairs left).
    fn scrub_maybe_done(&mut self, group: GroupId) {
        let done = self
            .scrub
            .rounds
            .get(&group)
            .is_some_and(|r| r.compared && r.self_wait.is_empty() && r.peer_repairs.is_empty());
        if done {
            self.scrub.rounds.remove(&group);
            self.scrubs_completed += 1;
        }
    }

    /// Asks an acting-set peer to push `oid` back to this OSD (self-heal of
    /// a copy that failed its checksum). Deduplicated per object; the
    /// heartbeat retries with source rotation, so one rotten or dead peer
    /// cannot wedge the heal.
    pub(super) fn request_object_fetch(&mut self, group: GroupId, oid: ObjectId) {
        let key = (group, oid.raw());
        if self.scrub.fetches.contains_key(&key) {
            return;
        }
        let Some(&src) = self.replicas_of(group).first() else {
            return; // nobody to heal from; a later map/scrub retries
        };
        self.scrub.fetches.insert(key, (oid, src));
        self.scrub_fetch(src, group, oid);
    }

    /// A pushed object applied cleanly over a copy this OSD was trying to
    /// heal: settle the fetch, credit the scrub round, and release any
    /// peer repairs that were waiting on our own copy becoming good.
    pub(super) fn note_object_healed(&mut self, group: GroupId, oid: ObjectId) {
        self.scrub.fetches.remove(&(group, oid.raw()));
        let mut drive = false;
        if let Some(rec) = self.scrub.rounds.get_mut(&group) {
            if rec.compared && rec.self_wait.remove(&oid.raw()).is_some() {
                self.scrub_errors_repaired += 1;
                drive = true;
            }
        }
        if drive {
            self.drive_scrub_repairs(group);
            self.scrub_maybe_done(group);
        }
    }

    /// Heartbeat-driven scrub progress: queued starts re-attempted (budget
    /// has replenished), un-replied map requests re-sent, repair pushes
    /// re-offered into the new throttle window, and self-heal fetches
    /// retried against the next acting-set member.
    pub(super) fn retry_scrubs(&mut self) {
        let queued: Vec<(GroupId, bool)> =
            std::mem::take(&mut self.scrub.queue).into_iter().collect();
        for (group, deep) in queued {
            self.on_scrub_start(group, deep);
        }
        let groups: Vec<GroupId> = self.scrub.rounds.keys().copied().collect();
        for group in groups {
            let rec = &self.scrub.rounds[&group];
            if !rec.compared {
                let (epoch, deep) = (rec.epoch, rec.deep);
                let waiting: Vec<OsdId> = rec.awaiting.iter().copied().collect();
                for peer in waiting {
                    self.scrub_request(peer, group, epoch, deep);
                }
            } else {
                self.drive_scrub_repairs(group);
            }
        }
        let keys: Vec<(GroupId, u64)> = self.scrub.fetches.keys().copied().collect();
        for key in keys {
            let (oid, cur) = self.scrub.fetches[&key];
            let group = key.0;
            let set = self.replicas_of(group);
            if set.is_empty() {
                continue;
            }
            let next = match set.iter().position(|&o| o == cur) {
                Some(i) => set[(i + 1) % set.len()],
                None => set[0],
            };
            self.scrub.fetches.insert(key, (oid, next));
            self.scrub_fetch(next, group, oid);
        }
    }

    pub(super) fn on_scrub_request(
        &mut self,
        group: GroupId,
        epoch: u64,
        deep: bool,
        requester: OsdId,
    ) {
        if !self.cfg.mode.storage().keeps_data() {
            return;
        }
        if self.peering.joining(group) {
            // Mid-join: our map would be hollow and every absent
            // object would look damaged. Stay silent; the primary
            // re-requests on its heartbeat once we have the data.
            return;
        }
        let entries = self.scrub_local_map(group, deep);
        let from = self.id;
        let map = PeerMsg::ScrubMap {
            group,
            epoch,
            from,
            entries,
        };
        self.send(requester, map);
    }

    pub(super) fn on_scrub_map(
        &mut self,
        group: GroupId,
        epoch: u64,
        peer: OsdId,
        entries: Vec<ScrubEntry>,
    ) {
        let finish = match self.scrub.rounds.get_mut(&group) {
            Some(rec) if rec.epoch == epoch && !rec.compared => {
                if rec.awaiting.remove(&peer) {
                    rec.maps.insert(peer, entries);
                }
                rec.awaiting.is_empty()
            }
            // Stale epoch, duplicate, or no round: drop it.
            _ => false,
        };
        if finish {
            self.finish_scrub(group);
        }
    }

    pub(super) fn on_scrub_fetch(
        &mut self,
        group: GroupId,
        epoch: u64,
        oid: ObjectId,
        requester: OsdId,
    ) {
        // Serve the heal through the throttled push machinery; if we are
        // still joining the group, or our own copy turns out rotten too,
        // the push is silently skipped and the requester's rotation finds
        // another peer.
        self.push_object_to(group, epoch, requester, oid, false);
    }

    /// A recovery push this OSD sent as a scrub repair was acked: that copy
    /// is settled.
    pub(super) fn scrub_repair_acked(
        &mut self,
        group: GroupId,
        epoch: u64,
        oid: ObjectId,
        peer: OsdId,
    ) {
        let mut scrub_done = false;
        if let Some(rec) = self.scrub.rounds.get_mut(&group) {
            if rec.epoch == epoch && rec.compared {
                if let Some((_, peers)) = rec.peer_repairs.get_mut(&oid.raw()) {
                    if peers.remove(&peer) {
                        self.scrub_errors_repaired += 1;
                        if peers.is_empty() {
                            rec.peer_repairs.remove(&oid.raw());
                        }
                        scrub_done = true;
                    }
                }
            }
        }
        if scrub_done {
            self.scrub_maybe_done(group);
        }
    }
}
