//! Shared helpers of the OSD unit tests.

pub(super) use rablock_cos::CosOptions;
pub(super) use rablock_lsm::LsmOptions;
use rablock_storage::{GroupId, ObjectId};

use super::{Osd, OsdConfig, OsdEffect, OsdInput, PipelineMode};
use crate::msg::{ClientReq, OpId, PeerMsg};
use crate::placement::{OsdId, OsdMap};

pub(super) fn map() -> OsdMap {
    OsdMap::new(2, 1, 8, 2)
}

/// A small OSD configuration on the tiny backends.
pub(super) fn cfg(mode: PipelineMode, flush_threshold: usize) -> OsdConfig {
    OsdConfig {
        mode,
        device_bytes: 32 << 20,
        nvm_bytes: 4 << 20,
        ring_bytes: 128 << 10,
        flush_threshold,
        lsm: LsmOptions::tiny(),
        cos: CosOptions::tiny(),
        ..OsdConfig::default()
    }
}

pub(super) fn osd(mode: PipelineMode, id: u32) -> Osd {
    Osd::new(OsdId(id), cfg(mode, 4), map())
}

pub(super) fn ramp(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 7 + i / 256) as u8).collect()
}

pub(super) fn a_group_with_primary(o: &Osd) -> GroupId {
    (0..8)
        .map(GroupId)
        .find(|&g| o.map().primary(g) == o.id)
        .expect("some group has this primary")
}

pub(super) fn a_group_led_by_another(o: &Osd) -> GroupId {
    (0..8)
        .map(GroupId)
        .find(|&g| o.map().primary(g) != o.id)
        .expect("some group has another primary")
}

pub(super) fn oid_in(group: GroupId, i: u64) -> ObjectId {
    ObjectId::new(group, i)
}

pub(super) fn write_req(op: u64, oid: ObjectId) -> ClientReq {
    ClientReq::Write {
        op: OpId(op),
        oid,
        offset: 0,
        data: vec![7; 4096].into(),
    }
}

pub(super) fn tokens_of(fx: &[OsdEffect]) -> Vec<u64> {
    fx.iter()
        .filter_map(|e| match e {
            OsdEffect::StoreIo {
                token, wait: true, ..
            } => Some(*token),
            _ => None,
        })
        .collect()
}

/// `from`'s answer to an ask for `group` at `epoch`: an empty pg_log, and
/// whether `from` is joining the group.
pub(super) fn info(group: GroupId, epoch: u64, from: OsdId, joining: bool) -> PeerMsg {
    PeerMsg::PgInfo {
        group,
        epoch,
        from,
        joining,
        entries: Vec::new(),
    }
}

/// Opens `o`'s join of `group` with `source` as its one candidate, and has
/// `source` answer the ask as holding the group clean: `o` pulls from it.
/// Returns the effects, the ask and the pull among them.
pub(super) fn join_from(o: &mut Osd, group: GroupId, source: OsdId) -> Vec<OsdEffect> {
    let candidates = [source].into();
    o.peering.unclean.insert(group, (candidates, false));
    o.open_round(group);
    let msg = info(group, o.map().epoch, source, false);
    o.handle(OsdInput::Peer { from: source, msg })
}
