//! The unit tests `osd.rs` had before it was split by protocol that have
//! not yet moved beside the protocol they test, one sans-io `Osd` (or two)
//! driven input by input. Tests written since sit beside their code.

use rablock_storage::{GroupId, Payload, Segments, StoreError};

use super::pipeline::pglog_key;
use super::testkit::*;
use super::*;

/// Digests are compared between OSDs of one build only, but a pure
/// speed-up has no business changing them: values of the one-shot loop
/// this streaming form replaced.
#[test]
fn digest_values_are_what_they_were() {
    for (n, want) in [
        (0usize, 0xc6bd_f78e_2c98_a2a3u64),
        (1, 0x4d6e_4995_c75c_5af9),
        (7, 0x5246_9eb8_85bb_7b58),
        (8, 0x4da3_d777_dafb_73f9),
        (31, 0x3998_9f98_c352_a43a),
        (32, 0xa44e_f23e_2597_6be9),
        (33, 0xc990_a899_e04a_e04b),
        (1000, 0xc75a_2974_f3c1_daa0),
        (4096, 0x3c74_4173_6d66_3ba3),
    ] {
        assert_eq!(digest_bytes(&ramp(n)), want, "{n} bytes");
    }
}

mod digest_model {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The streaming digest equals `digest_bytes` of the
        /// concatenation for any segmentation: cuts of 1, 7, 31, 32 and
        /// 33 bytes (around the 32-byte lane block), whole 4 KiB blocks
        /// and arbitrary lengths, in any mix. Any view may be a zero view
        /// — a slice of a `Payload::zeros` at any offset, or a hole
        /// `push_zeros` makes — which is digested without being read,
        /// whatever partial tail the views before it left.
        #[test]
        fn streaming_digest_matches_digest_of_the_concatenation(
            cuts in proptest::collection::vec(
                (
                    prop_oneof![
                        Just(1usize), Just(7), Just(31), Just(32), Just(33),
                        (1..4usize).prop_map(|b| b * 4096),
                        0..5000usize
                    ],
                    0..3u8,
                ),
                0..24,
            ),
            lead in 0..64usize,
        ) {
            let data = ramp(cuts.iter().map(|&(cut, _)| cut).sum());
            // Every data view sits at an odd offset of a buffer of its own.
            let (mut segs, mut flat) = (Segments::new(), Vec::new());
            for (cut, kind) in cuts {
                let at = flat.len();
                match kind {
                    0 => {
                        let mut backing = vec![0xEE; lead];
                        backing.extend_from_slice(&data[at..at + cut]);
                        segs.push(Payload::from(backing).slice(lead, cut));
                        flat.extend_from_slice(&data[at..at + cut]);
                        continue;
                    }
                    1 => segs.push(Payload::zeros(lead + cut).slice(lead, cut)),
                    _ => segs.push_zeros(cut),
                }
                flat.resize(at + cut, 0);
            }
            prop_assert_eq!(digest_segments(&segs), digest_bytes(&flat));
            prop_assert_eq!(
                digest_segments(&Payload::from(flat.clone()).into()),
                digest_bytes(&flat)
            );
        }
    }
}

#[test]
fn pglog_key_matches_format() {
    for (g, seq) in [
        (0, 0),
        (7, 9),
        (10, 100),
        (u32::MAX, u64::MAX),
        (123, 1 << 40),
    ] {
        assert_eq!(
            pglog_key(GroupId(g), seq),
            format!("pglog.{g}.{seq}").into_bytes()
        );
    }
}

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
