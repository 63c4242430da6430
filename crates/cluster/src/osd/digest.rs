//! Content digests: what recovery pushes are verified with, what replicas
//! are compared by, and what keeps pg_log entries of different primaries
//! apart. The digest itself lives beside the CRC in `rablock-storage`, so a
//! payload can memoize it.

use rablock_storage::{ObjectId, Op};

pub use rablock_storage::digest::{digest_bytes, digest_segments};

/// Digest of one log-worthy op (offset + payload for writes, size for
/// creates) so pg_log entries from different primaries never falsely match.
pub(super) fn digest_op(op: &Op) -> Option<(ObjectId, u64)> {
    let (oid, offset, content) = match op {
        Op::Create { oid, size } => {
            return Some((*oid, digest_bytes(&size.to_le_bytes()) ^ 0x5EED))
        }
        Op::Write { oid, offset, data } => (oid, offset, data.digest()),
        Op::WriteV { oid, offset, data } => (oid, offset, digest_segments(data)),
        _ => return None,
    };
    let h = digest_bytes(&offset.to_le_bytes()) ^ content.rotate_left(17);
    Some((*oid, h))
}
