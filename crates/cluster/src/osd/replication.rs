//! Primary-backup replication: `Repop` at the replica (persisted as the
//! primary persists its own write, then acked), `RepAck` / `RepNack` back at
//! the primary, and the retransmits that keep a write moving when either
//! direction loses a message.

use rablock_storage::{GroupId, ObjectId, StoreError, Transaction};

use super::digest::digest_op;
use super::flush::StoreCtx;
use super::peering::{PgRecovery, PgState};
use super::Osd;
use crate::msg::PeerMsg;
use crate::placement::OsdId;

impl Osd {
    /// Re-sends the replication message for an in-flight write to every
    /// replica that has not acked yet: the write's own transaction, shared.
    /// Nothing is re-applied locally; the client will be answered by the
    /// original operation when it completes.
    pub(super) fn retransmit_pending(&mut self, seq: u64) {
        let Some(w) = self.top.inflight.get(&seq) else {
            return;
        };
        let (group, txn) = (w.group, w.txn.clone());
        for r in w.waiting_acks.clone() {
            let txn = txn.clone();
            self.send(r, PeerMsg::Repop { group, seq, txn });
        }
    }

    fn replica_already_applied(&self, group: GroupId, seq: u64) -> bool {
        self.top
            .replica_applied
            .get(&group)
            .is_some_and(|w| w.contains(seq))
    }

    /// Forgets a provisionally noted replication seq after a failed apply,
    /// so a primary retransmit is applied for real instead of re-acked.
    fn unnote_replica_applied(&mut self, group: GroupId, seq: u64) {
        if let Some(w) = self.top.replica_applied.get_mut(&group) {
            w.forget(seq);
        }
    }

    fn note_replica_applied(&mut self, group: GroupId, seq: u64) {
        let window = self.top.replica_applied.entry(group).or_default();
        window.remember(seq);
    }

    /// A failed apply must not kill the OSD: withdraw the provisional
    /// bookkeeping and NACK, so the primary can mark this peer missing and
    /// re-drive recovery.
    pub(super) fn nack_failed_apply(
        &mut self,
        primary: OsdId,
        group: GroupId,
        seq: u64,
        error: StoreError,
    ) {
        self.unnote_replica_applied(group, seq);
        self.pg_log_unnote(group, seq);
        let from = self.id;
        let nack = PeerMsg::RepNack {
            group,
            seq,
            from,
            error,
        };
        self.send(primary, nack);
    }

    /// Heartbeat-driven replication retransmit: an in-flight write still
    /// waiting on replica acks after two ticks has very likely lost either
    /// the repop or the ack; re-send to the laggards. This is what guarantees
    /// replicas converge even when the *client* has given up on the op. A
    /// write of a group this OSD no longer leads fails retryably instead:
    /// the new primary drops its repops, and the client retries there.
    pub(super) fn retransmit_stale_inflight(&mut self) {
        let mut seqs: Vec<u64> = self.top.inflight.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            let w = &self.top.inflight[&seq];
            if w.waiting_acks.is_empty() {
                continue;
            }
            if self.map.try_primary(w.group) != Some(self.id) {
                self.fail_write(seq, StoreError::Degraded);
                continue;
            }
            let w = self.top.inflight.get_mut(&seq).expect("listed");
            w.ticks += 1;
            if w.ticks >= 2 {
                w.ticks = 0;
                self.retransmit_pending(seq);
            }
        }
    }

    /// Replication at the replica: the write persists as the primary's own
    /// does, through [`Osd::persist`], and the ack follows when it is done —
    /// at once from NVM (§IV-A), once the store has it otherwise.
    pub(super) fn on_repop(&mut self, from: OsdId, group: GroupId, seq: u64, txn: Transaction) {
        if self.map.try_primary(group) == Some(self.id) {
            // From an OSD that led the group before the map moved and took
            // a write late: this OSD numbers the group's writes now.
            return;
        }
        if self.replica_already_applied(group, seq) {
            // Primary retransmit after a lost ack: re-ack only.
            self.rep_ack(from, group, seq);
            return;
        }
        self.note_replica_applied(group, seq);
        self.note_txn(&txn);
        self.pg_log_note(group, seq, &txn);
        let primary = from;
        self.persist(
            txn,
            StoreCtx::ReplicaPersist {
                primary,
                group,
                seq,
            },
        );
    }

    pub(super) fn on_rep_ack(&mut self, seq: u64, replica: OsdId) {
        if let Some(wop) = self.top.inflight.get_mut(&seq) {
            wop.waiting_acks.retain(|&o| o != replica);
        }
        self.try_complete_write(seq);
    }

    /// The replica could not apply our repop. Stop waiting for its ack (the
    /// write completes degraded) and schedule a recovery push of the
    /// affected objects so it converges later.
    pub(super) fn on_rep_nack(&mut self, group: GroupId, seq: u64, replica: OsdId) {
        let ops = self.top.inflight.get(&seq).map_or(&[][..], |w| &w.txn.ops);
        let oids: Vec<ObjectId> = ops.iter().filter_map(|op| Some(digest_op(op)?.0)).collect();
        self.on_rep_ack(seq, replica);
        if oids.is_empty() || self.map.try_primary(group) != Some(self.id) {
            return;
        }
        let epoch = self.map.epoch;
        let rec = self
            .peering
            .rounds
            .entry(group)
            .or_insert_with(|| PgRecovery::new(epoch, PgState::Recovering, Default::default()));
        let slot = rec.missing.entry(replica).or_default();
        for oid in &oids {
            slot.insert(oid.raw(), *oid);
        }
        let epoch = rec.epoch;
        for oid in oids {
            self.push_object_to(group, epoch, replica, oid, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use rablock_storage::{Op, StoreError, Transaction};

    use super::super::testkit::*;
    use super::super::{OsdEffect, OsdInput, PgState, PipelineMode};
    use crate::msg::{ClientId, ClientReply, PeerMsg};
    use crate::placement::OsdId;

    #[test]
    fn replica_acks_only_after_durable() {
        let mut o = osd(PipelineMode::Original, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(!fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { .. },
                ..
            }
        )));
        let toks = tokens_of(&fx);
        let fx = o.handle(OsdInput::StoreDurable { token: toks[0] });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { seq: 5, .. },
                ..
            }
        )));
    }

    #[test]
    fn decoupled_replica_acks_immediately_from_nvm() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { .. },
                ..
            }
        )));
        assert_eq!(o.log_pending(g), 1);
    }

    #[test]
    fn duplicate_replication_reacks_without_reapplying() {
        let mut o = osd(PipelineMode::Dop, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        let txn = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![1; 4096].into(),
            }],
        );
        o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn: txn.clone(),
            },
        });
        assert_eq!(o.log_pending(g), 1);
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::SendPeer {
                msg: PeerMsg::RepAck { seq: 5, .. },
                ..
            }
        )));
        assert_eq!(o.log_pending(g), 1, "duplicate not re-logged");
    }

    #[test]
    fn replica_apply_failure_nacks_instead_of_panicking() {
        let mut o = osd(PipelineMode::Original, 1);
        let g = a_group_led_by_another(&o);
        let oid = oid_in(g, 1);
        // A zero-length write is rejected by every backend.
        let bad = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: Vec::new().into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn: bad,
            },
        });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    to: OsdId(0),
                    msg: PeerMsg::RepNack { seq: 5, .. },
                }
            )),
            "failed apply NACKs back to the primary: {fx:?}"
        );
        // The failed seq was un-noted: a retransmit with a good payload is
        // applied for real (store I/O), not re-acked from the dedup window.
        let good = Transaction::new(
            g,
            5,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![3; 4096].into(),
            }],
        );
        let fx = o.handle(OsdInput::Peer {
            from: OsdId(0),
            msg: PeerMsg::Repop {
                group: g,
                seq: 5,
                txn: good,
            },
        });
        assert_eq!(tokens_of(&fx).len(), 1, "retransmit applied: {fx:?}");
    }

    #[test]
    fn rep_nack_completes_write_degraded_and_pushes_recovery() {
        let mut o = osd(PipelineMode::Original, 0);
        let g = a_group_with_primary(&o);
        let oid = oid_in(g, 1);
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid),
        });
        let toks = tokens_of(&fx);
        o.handle(OsdInput::StoreDurable { token: toks[0] });
        // Replica refuses the repop: the write completes without it and the
        // primary immediately pushes the object to heal the divergence.
        let replica = o.map().acting_set(g)[1];
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::RepNack {
                group: g,
                seq: 1,
                from: replica,
                error: StoreError::NoSpace,
            },
        });
        assert!(fx.iter().any(|e| matches!(
            e,
            OsdEffect::Reply {
                msg: ClientReply::Done { .. },
                ..
            }
        )));
        let push = fx.iter().find_map(|e| match e {
            OsdEffect::SendPeer {
                to,
                msg: PeerMsg::PushObject { entry, .. },
            } => Some((*to, **entry)),
            _ => None,
        });
        let (to, entry) = push.expect("recovery push follows the NACK");
        assert_eq!(to, replica);
        assert_eq!(entry.oid, oid);
        assert!(o.degraded_objects() > 0);
        // The replica's ack for the push clears the recovery round.
        let fx = o.handle(OsdInput::Peer {
            from: replica,
            msg: PeerMsg::PushAck {
                group: g,
                epoch: o.map().epoch,
                oid,
                from: replica,
            },
        });
        assert!(fx.is_empty(), "{fx:?}");
        assert_eq!(o.degraded_objects(), 0);
        assert_eq!(o.pg_state(g), PgState::Active);
    }

    #[test]
    fn heartbeat_retransmits_stale_inflight_writes() {
        let mut o = osd(PipelineMode::Dop, 0);
        let g = a_group_with_primary(&o);
        o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(1, oid_in(g, 1)),
        });
        // The repop (or its ack) was lost; after two heartbeat ticks the
        // primary re-sends it on its own, without any client retry.
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::Repop { .. },
                    ..
                }
            )),
            "first tick only ages the op"
        );
        let fx = o.handle(OsdInput::HeartbeatTick);
        assert!(
            fx.iter().any(|e| matches!(
                e,
                OsdEffect::SendPeer {
                    msg: PeerMsg::Repop { seq: 1, .. },
                    ..
                }
            )),
            "second tick retransmits: {fx:?}"
        );
    }
}
