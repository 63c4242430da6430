//! The content digest: what recovery pushes are verified with, what
//! replicas are compared by, and what keeps pg_log entries of different
//! primaries apart. [`Payload::digest`](crate::Payload::digest) memoizes it per
//! buffer.

use crate::payload::Segments;

/// FNV-style digest over a byte slice: the checksum recovery pushes are
/// verified with and the unit replica contents are compared by.
///
/// Digests are only ever compared against digests computed by this same
/// function (never persisted, never in a report fingerprint), so the exact
/// constants are free to favor throughput: four independent FNV lanes over
/// 8-byte words break the multiply dependency chain that made the classic
/// byte-at-a-time loop the hottest function in write-path profiles (every
/// 4 KiB write is digested for its pg_log entry).
pub fn digest_bytes(data: &[u8]) -> u64 {
    let mut digest = Digest::new();
    digest.update(data);
    digest.finish()
}

/// [`digest_bytes`] of the concatenation of `data`'s views, computed
/// without concatenating them: the same value for any segmentation. A view
/// that says it is zeros ([`Payload::is_zeros`](crate::Payload::is_zeros)) is
/// not read at all.
pub fn digest_segments(data: &Segments) -> u64 {
    let mut digest = Digest::new();
    for part in data.iter() {
        if part.is_zeros() {
            digest.update_zeros(part.len());
        } else {
            digest.update(part);
        }
    }
    digest.finish()
}

/// The state of [`digest_bytes`] over a byte string fed in pieces: the four
/// lanes consume whole 32-byte blocks, so up to 31 bytes wait in `tail` for
/// the next piece (or for `finish`, which folds the lanes and the rest).
struct Digest {
    lanes: [u64; 4],
    tail: [u8; 32],
    tail_len: usize,
}

impl Digest {
    const P: u64 = 0x0000_0100_0000_01B3;

    #[inline]
    fn new() -> Digest {
        const SEED: u64 = 0xCBF2_9CE4_8422_2325;
        Digest {
            lanes: [
                SEED,
                SEED ^ 0x9E37_79B9_7F4A_7C15,
                SEED.rotate_left(13),
                SEED.rotate_left(31),
            ],
            tail: [0; 32],
            tail_len: 0,
        }
    }

    /// Folds whole 32-byte blocks into the lanes; returns what is left over.
    #[inline]
    fn blocks<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        // In locals, so the four multiply chains stay in registers.
        let mut lanes = self.lanes;
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *lane = (*lane ^ w).wrapping_mul(Self::P);
            }
        }
        self.lanes = lanes;
        blocks.remainder()
    }

    #[inline]
    fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.blocks(&tail);
        }
        let rest = self.blocks(data);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// [`Digest::update`] with `len` zero bytes. A block of zeros turns each
    /// lane `l` into `(l ^ 0) * P`, so `k` blocks multiply it by `P^k`
    /// (wrapping, like the scan; `wrapping_pow` squares): O(log len) instead
    /// of a pass over zeros.
    fn update_zeros(&mut self, mut len: usize) {
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(len);
            self.tail[self.tail_len..self.tail_len + take].fill(0);
            self.tail_len += take;
            len -= take;
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.blocks(&tail);
        }
        let blocks = u32::try_from(len / 32).expect("a view under 128 GiB");
        let factor = Self::P.wrapping_pow(blocks);
        for lane in &mut self.lanes {
            *lane = lane.wrapping_mul(factor);
        }
        self.tail_len = len % 32;
        self.tail[..self.tail_len].fill(0);
    }

    #[inline]
    fn finish(self) -> u64 {
        let mut h = self.lanes[0];
        for &lane in &self.lanes[1..] {
            h = (h ^ lane).wrapping_mul(Self::P);
        }
        let mut words = self.tail[..self.tail_len].chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(Self::P);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(Self::P);
        }
        h
    }
}
