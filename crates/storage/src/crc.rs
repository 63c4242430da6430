//! The storage crates' one CRC-32 (IEEE 802.3 polynomial, reflected).
//!
//! Every framed storage format — oplog records, the LSM's WAL, SST footers
//! and manifest, COS onodes and block checksums — uses this function, and
//! [`Payload::crc32`] memoizes it per shared buffer. Besides the flat
//! [`crc32`] there is a streaming form ([`crc32_update`]) and
//! [`crc32_splice`], which folds an already-known block checksum into a
//! stream without touching the block's bytes. [`FrameCrc`] puts the three
//! together: a record that embeds large shared payloads is checksummed in
//! O(record − payloads).

use crate::payload::Payload;

const POLY: u32 = 0xEDB8_8320;

/// Payloads at least this long contribute their (memoized) checksum to a
/// frame's CRC through [`crc32_splice`] instead of being scanned, and are
/// held by reference in a [`Frame`](crate::Frame) instead of copied.
pub(crate) const SPLICE_MIN: usize = 512;

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Streaming form: feeds `data` into a raw (pre-inversion) CRC state, so a
/// record's checksum can be computed piecewise as its body is built.
/// `crc32(d) == !crc32_update(!0, d)`, and resuming with more bytes extends
/// the checksummed stream.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    // Slice-by-8: eight derived tables let the hot loop fold 8 input bytes
    // per iteration instead of one. Identical output to the classic
    // byte-at-a-time form (same polynomial, same reflection).
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// `sum ^= mat * vec` over GF(2): `mat` is a 32×32 bit matrix stored as
/// column vectors, `vec` a 32-bit vector.
fn gf2_matrix_times(mat: &[u32; 32], vec: u32) -> u32 {
    // Branch-free: the bits of `vec` are data, and a mispredicted branch per
    // bit costs more than 32 masked xors (every spliced payload pays this).
    mat.iter().enumerate().fold(0, |sum, (i, column)| {
        sum ^ (column & ((vec >> i) & 1).wrapping_neg())
    })
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// The GF(2) operator that advances a finalized CRC-32 past `len` zero
/// bytes — i.e. multiplication by `x^(8·len)` mod the CRC polynomial.
/// Building it costs ~2·log₂(len) matrix squarings, so operators are
/// memoized per distinct length (payload sizes cluster on a handful of
/// values per workload).
fn crc32_shift_op(len: u64) -> [u32; 32] {
    use std::cell::RefCell;
    use std::collections::HashMap;
    thread_local! {
        static OPS: RefCell<HashMap<u64, [u32; 32]>> = RefCell::new(HashMap::new());
    }
    OPS.with(|ops| {
        if let Some(op) = ops.borrow().get(&len) {
            return *op;
        }
        // Operator for one zero byte (shift by 8 bits), as in zlib's
        // crc32_combine: odd = poly operator, square twice per bit of len.
        let mut odd = [0u32; 32];
        odd[0] = POLY;
        let mut row = 1u32;
        for entry in odd.iter_mut().skip(1) {
            *entry = row;
            row <<= 1;
        }
        let mut even = [0u32; 32];
        gf2_matrix_square(&mut even, &odd); // 2 bits
        gf2_matrix_square(&mut odd, &even); // 4 bits

        // Identity operator, then fold in a squaring per bit of `len`.
        let mut acc = [0u32; 32];
        for (n, entry) in acc.iter_mut().enumerate() {
            *entry = 1 << n;
        }
        let mut remaining = len;
        loop {
            gf2_matrix_square(&mut even, &odd); // 8·2^k bits
            if remaining & 1 != 0 {
                acc = {
                    let mut next = [0u32; 32];
                    for (n, entry) in next.iter_mut().enumerate() {
                        *entry = gf2_matrix_times(&even, acc[n]);
                    }
                    next
                };
            }
            remaining >>= 1;
            if remaining == 0 {
                break;
            }
            gf2_matrix_square(&mut odd, &even);
            if remaining & 1 != 0 {
                acc = {
                    let mut next = [0u32; 32];
                    for (n, entry) in next.iter_mut().enumerate() {
                        *entry = gf2_matrix_times(&odd, acc[n]);
                    }
                    next
                };
            }
            remaining >>= 1;
            if remaining == 0 {
                break;
            }
        }
        ops.borrow_mut().insert(len, acc);
        acc
    })
}

/// Splices a precomputed block checksum into a streaming CRC: given the raw
/// state after some prefix `A` and the finalized `crc32(B)`, returns the
/// raw state after `A || B` without touching `B`'s bytes. Identical to
/// feeding `B` through [`crc32_update`] (zlib's crc32_combine, restated on
/// raw states).
pub fn crc32_splice(state: u32, block_crc: u32, block_len: u64) -> u32 {
    if block_len == 0 {
        return state;
    }
    let op = crc32_shift_op(block_len);
    // Finalized prefix CRC shifted past the block, xor the block's CRC,
    // back to raw state.
    !(gf2_matrix_times(&op, !state) ^ block_crc)
}

/// The CRC-32 of a frame kept while the frame is built in a `Vec<u8>`.
///
/// Bytes the caller appends to the frame itself are scanned lazily; a large
/// payload appended through [`FrameCrc::append_payload_by_ref`] stays out of
/// the frame and enters the checksum through its memoized
/// [`Payload::crc32`] — the same shared buffer is framed once per replica
/// and once per log, and scanned once in all (a [`Frame`](crate::Frame)
/// holds it in its place). The result is exactly the CRC a flat scan of the
/// finished stream would give.
#[derive(Debug)]
pub struct FrameCrc {
    /// Raw CRC state over `frame[start..scanned]`.
    state: u32,
    scanned: usize,
}

impl FrameCrc {
    /// Starts a checksum covering the frame from byte `start` on.
    pub fn new(start: usize) -> Self {
        FrameCrc {
            state: !0,
            scanned: start,
        }
    }

    /// Takes `payload` as the frame's next bytes without copying a large
    /// one: a payload long enough to splice enters only the checksum and
    /// `true` is returned — its bytes belong after everything `frame` holds
    /// now, and the caller keeps the view in their place. A shorter one is
    /// copied into `frame` like any other bytes (`false`). With held
    /// payloads, `frame` is the rest of the stream and
    /// [`FrameCrc::finish`] still gives the CRC of the whole.
    pub fn append_payload_by_ref(&mut self, frame: &mut Vec<u8>, payload: &Payload) -> bool {
        if payload.len() < SPLICE_MIN {
            frame.extend_from_slice(payload);
            return false;
        }
        self.state = crc32_update(self.state, &frame[self.scanned..]);
        self.state = crc32_splice(self.state, payload.crc32(), payload.len() as u64);
        self.scanned = frame.len();
        true
    }

    /// The CRC-32 of `frame[start..]` (with every held payload in its place).
    pub fn finish(self, frame: &[u8]) -> u32 {
        !crc32_update(self.state, &frame[self.scanned..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_bit_flip() {
        assert_ne!(crc32(b"hello world"), crc32(b"hello worle"));
    }

    #[test]
    fn update_resumes_the_stream() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let state = crc32_update(!0, &data[..split]);
            assert_eq!(!crc32_update(state, &data[split..]), crc32(&data));
        }
    }

    #[test]
    fn spliced_crc_matches_direct_scan() {
        // The streaming + splice path must produce the exact CRC a flat
        // scan of the body would, for any split of prefix/block/tail.
        let a: Vec<u8> = (0u8..=255).cycle().take(733).collect();
        let b: Vec<u8> = (0u8..=255).rev().cycle().take(4096).collect();
        let c: Vec<u8> = vec![0xA5; 17];
        let whole: Vec<u8> = [a.as_slice(), b.as_slice(), c.as_slice()].concat();
        let mut state = crc32_update(!0, &a);
        state = crc32_splice(state, crc32(&b), b.len() as u64);
        state = crc32_update(state, &c);
        assert_eq!(!state, crc32(&whole));
        // Zero-length block is the identity.
        assert_eq!(crc32_splice(state, crc32(&[]), 0), state);
    }

    #[test]
    fn frame_crc_equals_flat_crc_around_the_splice_threshold() {
        let backing: Payload = (0u8..=255).cycle().take(9000).collect::<Vec<u8>>().into();
        let payloads = [
            Payload::empty(),
            backing.slice(0, SPLICE_MIN - 1),
            backing.slice(7, SPLICE_MIN),
            backing.slice(123, 4096), // a window: never memoized
            backing.clone(),          // the full buffer: memoized
            backing.clone(),
        ];
        // The stream flat, as the reference.
        let mut frame = vec![0xEE; 8]; // header, outside the checksum
        for (i, p) in payloads.iter().enumerate() {
            frame.extend_from_slice(&(i as u32).to_le_bytes());
            frame.extend_from_slice(p);
            frame.push(0x5A);
        }
        assert_eq!(FrameCrc::new(3).finish(&[1, 2, 3]), crc32(&[]));

        // The same stream with the large payloads held out of the frame.
        let mut runs = vec![0xEE; 8];
        let mut crc = FrameCrc::new(8);
        let mut held = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            runs.extend_from_slice(&(i as u32).to_le_bytes());
            if crc.append_payload_by_ref(&mut runs, p) {
                held.push(p.len());
            }
            runs.push(0x5A);
        }
        assert_eq!(held, [SPLICE_MIN, 4096, 9000, 9000]);
        assert_eq!(runs.len() + held.iter().sum::<usize>(), frame.len());
        assert_eq!(crc.finish(&runs), crc32(&frame[8..]));
    }
}
