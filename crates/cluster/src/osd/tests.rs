//! The unit tests `osd.rs` had before it was split by protocol that have
//! not yet moved beside the protocol they test, one sans-io `Osd` (or two)
//! driven input by input. Tests written since sit beside their code.

use rablock_storage::{GroupId, StoreError};

use super::testkit::*;
use super::*;

#[test]
fn coupled_write_completes_after_local_persist_and_ack() {
    let mut o = osd(PipelineMode::Original, 0);
    let g = a_group_with_primary(&o);
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid_in(g, 1)),
    });
    // Repop sent, local store submitted, no reply yet.
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::SendPeer {
            msg: PeerMsg::Repop { .. },
            ..
        }
    )));
    assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
    let toks = tokens_of(&fx);
    assert_eq!(toks.len(), 1);
    // Local durable alone: still waiting for the replica.
    let fx = o.handle(OsdInput::StoreDurable { token: toks[0] });
    assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
    // Replica ack: now the client gets its reply.
    let replica = o.map().acting_set(g)[1];
    let fx = o.handle(OsdInput::Peer {
        from: replica,
        msg: PeerMsg::RepAck {
            group: g,
            seq: 1,
            from: replica,
        },
    });
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::Reply {
            msg: ClientReply::Done { .. },
            ..
        }
    )));
}

#[test]
fn decoupled_write_acks_without_store() {
    let mut o = osd(PipelineMode::Dop, 0);
    let g = a_group_with_primary(&o);
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid_in(g, 1)),
    });
    // NVM logged + Repop sent; no store I/O on the write path.
    assert!(fx.iter().any(|e| matches!(e, OsdEffect::NvmWritten { .. })));
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::SendPeer {
            msg: PeerMsg::Repop { .. },
            ..
        }
    )));
    assert!(tokens_of(&fx).is_empty());
    // One replica ack completes the op.
    let replica = o.map().acting_set(g)[1];
    let fx = o.handle(OsdInput::Peer {
        from: replica,
        msg: PeerMsg::RepAck {
            group: g,
            seq: 1,
            from: replica,
        },
    });
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::Reply {
            msg: ClientReply::Done { .. },
            ..
        }
    )));
}

#[test]
fn decoupled_read_served_from_log() {
    let mut o = osd(PipelineMode::Dop, 0);
    let g = a_group_with_primary(&o);
    let oid = oid_in(g, 1);
    o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid),
    });
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: ClientReq::Read {
            op: OpId(2),
            oid,
            offset: 100,
            len: 200,
        },
    });
    let reply = fx.iter().find_map(|e| match e {
        OsdEffect::Reply {
            msg: ClientReply::Data { data, .. },
            ..
        } => Some(data.clone()),
        _ => None,
    });
    assert_eq!(
        reply,
        Some(vec![7u8; 200].into()),
        "read served from the operation log"
    );
}

#[test]
fn rtc_v3_skips_storage_entirely() {
    let mut o = osd(PipelineMode::RtcV3, 0);
    let g = a_group_with_primary(&o);
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid_in(g, 1)),
    });
    assert!(tokens_of(&fx).is_empty(), "no store I/O in RTC-v3");
    let replica = o.map().acting_set(g)[1];
    let fx = o.handle(OsdInput::Peer {
        from: replica,
        msg: PeerMsg::RepAck {
            group: g,
            seq: 1,
            from: replica,
        },
    });
    assert!(fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
}

#[test]
fn maintenance_reschedules_until_clean() {
    let mut o = osd(PipelineMode::Original, 0);
    let g = a_group_with_primary(&o);
    // Pump enough writes to trigger LSM maintenance.
    let mut woke = false;
    for i in 0..200 {
        let fx = o.handle(OsdInput::Client {
            from: ClientId(1),
            req: write_req(i, oid_in(g, i % 4)),
        });
        woke |= fx.iter().any(|e| matches!(e, OsdEffect::WakeMaintenance));
        for t in tokens_of(&fx) {
            o.handle(OsdInput::StoreDurable { token: t });
        }
    }
    assert!(woke, "LSM backend requested maintenance");
    let mut steps = 0;
    loop {
        let fx = o.handle(OsdInput::MaintStep);
        steps += 1;
        let more = fx
            .iter()
            .any(|e| matches!(e, OsdEffect::Maintained { more: true, .. }));
        if !more || steps > 100 {
            break;
        }
    }
    assert!(steps >= 1, "maintenance ran");
    assert!(!o.backend().needs_maintenance(), "backend eventually clean");
}

#[test]
fn retried_write_applies_exactly_once() {
    let mut o = osd(PipelineMode::Dop, 0);
    let g = a_group_with_primary(&o);
    let oid = oid_in(g, 1);
    let repops = |fx: &[OsdEffect]| {
        fx.iter()
            .filter(|e| {
                matches!(
                    e,
                    OsdEffect::SendPeer {
                        msg: PeerMsg::Repop { .. },
                        ..
                    }
                )
            })
            .count()
    };
    // First attempt: logged once, replicated once.
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid),
    });
    assert_eq!(repops(&fx), 1);
    assert_eq!(o.log_pending(g), 1);
    // Retry while the replica ack is outstanding (the original repop may
    // have been dropped): retransmit only, no second application.
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid),
    });
    assert_eq!(
        repops(&fx),
        1,
        "replication retransmitted to the laggard replica"
    );
    assert!(!fx.iter().any(|e| matches!(e, OsdEffect::NvmWritten { .. })));
    assert!(!fx.iter().any(|e| matches!(e, OsdEffect::Reply { .. })));
    assert_eq!(o.log_pending(g), 1, "no second log entry");
    // The ack completes the original op.
    let replica = o.map().acting_set(g)[1];
    let fx = o.handle(OsdInput::Peer {
        from: replica,
        msg: PeerMsg::RepAck {
            group: g,
            seq: 1,
            from: replica,
        },
    });
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::Reply {
            msg: ClientReply::Done { .. },
            ..
        }
    )));
    // A late retry after completion: re-acked from the dedup window.
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid),
    });
    assert_eq!(repops(&fx), 0);
    assert_eq!(o.log_pending(g), 1, "still exactly one application");
    assert!(fx.iter().any(|e| matches!(
        e,
        OsdEffect::Reply {
            msg: ClientReply::Done { .. },
            ..
        }
    )));
}

#[test]
fn heartbeat_tick_emits_beacon() {
    let mut o = osd(PipelineMode::Dop, 0);
    let fx = o.handle(OsdInput::HeartbeatTick);
    assert!(fx.iter().any(|e| matches!(e, OsdEffect::Heartbeat)));
}

#[test]
fn writes_below_min_size_quorum_return_degraded() {
    // Replication 3 => min_size 2.
    let mut map3 = OsdMap::new(3, 1, 8, 3);
    assert_eq!(map3.min_size, 2);
    let cfg = cfg(PipelineMode::Dop, 16);
    map3.mark_down(OsdId(1));
    map3.mark_down(OsdId(2));
    let mut o = Osd::new(OsdId(0), cfg, map3);
    let g = GroupId(0);
    assert_eq!(o.pg_state(g), PgState::Degraded);
    let fx = o.handle(OsdInput::Client {
        from: ClientId(1),
        req: write_req(1, oid_in(g, 1)),
    });
    let err = fx.iter().find_map(|e| match e {
        OsdEffect::Reply {
            msg: ClientReply::Error { error, .. },
            ..
        } => Some(error.clone()),
        _ => None,
    });
    assert_eq!(err, Some(StoreError::Degraded));
    assert!(
        !fx.iter()
            .any(|e| matches!(e, OsdEffect::SendPeer { .. } | OsdEffect::NvmWritten { .. })),
        "rejected write neither logged nor replicated: {fx:?}"
    );
}
