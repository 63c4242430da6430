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

#[cfg(test)]
mod tests {
    use super::super::testkit::ramp;
    use super::*;
    use proptest::prelude::*;
    use rablock_storage::{Payload, Segments};

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
