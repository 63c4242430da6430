//! Byte streams whose large payloads are held by reference.
//!
//! A [`Frame`] is what a writer that keeps payloads out of its encoded bytes
//! builds, and what a store that keeps them by reference reads back: the
//! encoded bytes with each held [`Payload`] spliced in at its place. A
//! write-ahead-log batch and an SST file are framed this way, so neither
//! copies the 4 KiB values it carries, and [`MemDisk`](crate::MemDisk)
//! keeps those values as the writer's buffers. An operation-log record is
//! not framed: [`NvmRegion`](crate::NvmRegion) holds it as a
//! [`Record`](crate::Record) and encodes it only when its bytes are read.

use crate::crc::{FrameCrc, SPLICE_MIN};
use crate::payload::Payload;

/// One piece of a byte stream that is partly held by reference: what a
/// frame is made of, and what a medium is written as.
#[derive(Debug, Clone, Copy)]
pub enum NvmPiece<'a> {
    /// Plain bytes (of a byte write or of a frame).
    Bytes(&'a [u8]),
    /// (Part of) a payload held by reference.
    Held(&'a Payload),
}

impl<'a> NvmPiece<'a> {
    /// The bytes of the piece, whichever side holds them.
    pub fn as_bytes(&self) -> &'a [u8] {
        match *self {
            NvmPiece::Bytes(run) => run,
            NvmPiece::Held(payload) => payload.as_slice(),
        }
    }
}

/// A byte stream whose large payloads are held by reference: `bytes` with
/// each held payload spliced in before the byte it is recorded at.
///
/// ```
/// use rablock_storage::{Frame, Payload};
/// let value = Payload::from(vec![7u8; 4096]);
/// let mut frame = Frame::new();
/// frame.bytes_mut().extend_from_slice(b"key");
/// frame.append_payload(&value); // held: 4 KiB is not copied
/// frame.append_payload(&Payload::from(&b"!"[..])); // copied: too short to hold
/// assert_eq!((frame.len(), frame.bytes(), frame.held().len()), (4100, &b"key!"[..], 1));
/// assert_eq!(frame.to_vec(), [&b"key"[..], &[7; 4096], b"!"].concat());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Frame {
    bytes: Vec<u8>,
    /// The held payloads in stream order, each with the position in `bytes`
    /// it sits before; none is empty.
    held: Vec<(usize, Payload)>,
    /// Total length of `held`.
    held_len: u64,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Length of the stream: every byte, held or not.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64 + self.held_len
    }

    /// True when the stream has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stream's own bytes, without the held payloads.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The stream's own bytes, for an encoder to append fields to or to
    /// backpatch. A payload held before byte `at` stays before it.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// The held payloads, each with the position in [`Frame::bytes`] it
    /// sits before, in stream order.
    pub fn held(&self) -> &[(usize, Payload)] {
        &self.held
    }

    /// Empties the frame (keeping its byte buffer) and lets go of every
    /// held payload.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.held.clear();
        self.held_len = 0;
    }

    /// Appends `payload` by reference. A view that continues the previous
    /// held one in the same buffer, with no bytes between, joins it: a
    /// value a medium keeps in two pieces reads back as one view.
    pub fn hold(&mut self, payload: Payload) {
        if payload.is_empty() {
            return;
        }
        self.held_len += payload.len() as u64;
        let at = self.bytes.len();
        if let Some((last_at, last)) = self.held.last_mut() {
            if *last_at == at {
                if let Some(joined) = last.joined(&payload) {
                    *last = joined;
                    return;
                }
            }
        }
        self.held.push((at, payload));
    }

    /// Appends `payload`: held by reference when it is large, copied when
    /// it is too short to be worth holding (the threshold of
    /// [`FrameCrc::append_payload_by_ref`]).
    pub fn append_payload(&mut self, payload: &Payload) {
        if payload.len() < SPLICE_MIN {
            self.bytes.extend_from_slice(payload);
        } else {
            self.hold(payload.clone());
        }
    }

    /// [`Frame::append_payload`] in a frame whose bytes from some point on
    /// `crc` checksums: a held payload enters the checksum through its
    /// memoized CRC, unscanned.
    pub fn append_payload_crc(&mut self, crc: &mut FrameCrc, payload: &Payload) {
        if crc.append_payload_by_ref(&mut self.bytes, payload) {
            self.hold(payload.clone());
        }
    }

    /// The stream in order, as byte runs and held payloads; no piece is
    /// empty.
    pub fn pieces(&self) -> impl Iterator<Item = NvmPiece<'_>> {
        let mut from = 0;
        let tail = self.held.last().map_or(0, |(at, _)| *at);
        self.held
            .iter()
            .flat_map(move |(at, payload)| {
                let run = &self.bytes[from..*at];
                from = *at;
                [NvmPiece::Bytes(run), NvmPiece::Held(payload)]
            })
            .chain(std::iter::once(NvmPiece::Bytes(&self.bytes[tail..])))
            .filter(|piece| !piece.as_bytes().is_empty())
    }

    /// Cuts the stream into consecutive parts, given as `(place, length)`
    /// (a place is whatever the caller writes a part at), and hands each to
    /// `each` with its place, as a frame of its own: byte runs copied, held
    /// payloads as views of the same buffers (one that straddles a cut is
    /// sliced in two). A single part as long as the stream is the frame
    /// itself.
    ///
    /// # Errors
    ///
    /// The first error `each` returns; no later part is handed over.
    ///
    /// # Panics
    ///
    /// Panics if the lengths add up to more than [`Frame::len`].
    pub fn split<E>(
        &self,
        parts: impl IntoIterator<Item = (u64, u64)>,
        mut each: impl FnMut(u64, &Frame) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut parts = parts.into_iter().peekable();
        if let Some(&(place, len)) = parts.peek() {
            if len == self.len() {
                return each(place, self);
            }
        }
        let mut pieces = self.pieces();
        // The piece being cut, and how much of it earlier parts took.
        let mut current: Option<(NvmPiece<'_>, usize)> = None;
        let mut part = Frame::new();
        for (place, len) in parts {
            part.clear();
            let mut want = len as usize;
            while want > 0 {
                let (piece, at) = current
                    .take()
                    .unwrap_or_else(|| (pieces.next().expect("parts within the frame"), 0));
                let piece_len = piece.as_bytes().len();
                let take = (piece_len - at).min(want);
                match piece {
                    NvmPiece::Bytes(run) => part.bytes.extend_from_slice(&run[at..at + take]),
                    NvmPiece::Held(payload) if take == piece_len => part.hold(payload.clone()),
                    NvmPiece::Held(payload) => part.hold(payload.slice(at, take)),
                }
                if at + take < piece_len {
                    current = Some((piece, at + take));
                }
                want -= take;
            }
            each(place, &part)?;
        }
        Ok(())
    }

    /// The stream as one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for piece in self.pieces() {
            out.extend_from_slice(piece.as_bytes());
        }
        out
    }

    /// A reader of the stream from its start.
    pub fn reader(&self) -> FrameReader<'_> {
        FrameReader::new(&self.bytes, &self.held)
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Frame {
        Frame {
            bytes: bytes.to_vec(),
            ..Frame::default()
        }
    }
}

/// Reads a [`Frame`]'s stream front to back, field by field. A field is
/// read whole or not at all: a method that returns `None` has consumed
/// nothing.
#[derive(Debug, Clone)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    /// Position in `bytes`.
    pos: usize,
    /// The held payloads not yet passed.
    held: &'a [(usize, Payload)],
    /// Stream bytes not yet read.
    left: u64,
}

impl<'a> FrameReader<'a> {
    /// A reader of the stream that is `bytes` with each `held` payload
    /// spliced in before the byte it is recorded at (a [`Frame`]'s parts).
    pub fn new(bytes: &'a [u8], held: &'a [(usize, Payload)]) -> FrameReader<'a> {
        let held_len: usize = held.iter().map(|(_, payload)| payload.len()).sum();
        FrameReader {
            bytes,
            pos: 0,
            held,
            left: (bytes.len() + held_len) as u64,
        }
    }

    /// Stream bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// The next `len` bytes, when no held payload sits among them.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.bytes.len() || self.held.first().is_some_and(|(at, _)| *at < end) {
            return None;
        }
        let run = &self.bytes[self.pos..end];
        self.pos = end;
        self.left -= len as u64;
        Some(run)
    }

    /// The next `len` bytes, when they are exactly one held payload.
    pub fn held(&mut self, len: usize) -> Option<&'a Payload> {
        let (first, rest) = self.held.split_first()?;
        let (at, payload) = first;
        if *at != self.pos || payload.len() != len {
            return None;
        }
        self.held = rest;
        self.left -= len as u64;
        Some(payload)
    }

    /// The next `len` bytes as one payload: the held payload itself when
    /// one is exactly those bytes, otherwise a copy assembled from byte
    /// runs and whole held payloads. `None` when the stream is shorter, or
    /// a held payload reaches past the `len` bytes.
    pub fn payload(&mut self, len: usize) -> Option<Payload> {
        if len as u64 > self.left {
            return None;
        }
        if let Some(whole) = self.held(len) {
            return Some(whole.clone());
        }
        let mut ahead = self.clone();
        let out = Payload::build(len, |buf| {
            let mut got = 0;
            while got < len {
                let want = len - got;
                let piece: &[u8] = match ahead.held.first() {
                    Some((at, held)) if *at == ahead.pos && held.len() <= want => {
                        ahead.held(held.len()).ok_or(())?
                    }
                    Some((at, _)) if *at == ahead.pos => return Err(()),
                    next => {
                        let run_end = next.map_or(ahead.bytes.len(), |(at, _)| *at);
                        ahead.take((run_end - ahead.pos).min(want)).ok_or(())?
                    }
                };
                if piece.is_empty() {
                    return Err(());
                }
                buf[got..got + piece.len()].copy_from_slice(piece);
                got += piece.len();
            }
            Ok(())
        })
        .ok()?;
        *self = ahead;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> (Frame, Vec<u8>, Payload) {
        let backing: Payload = (0..10_000u32)
            .map(|i| (i / 3) as u8)
            .collect::<Vec<_>>()
            .into();
        let mut frame = Frame::new();
        frame.bytes_mut().extend_from_slice(b"head");
        frame.append_payload(&backing.slice(0, 4000));
        frame.append_payload(&backing.slice(4000, 100)); // copied
        frame.append_payload(&backing.slice(5000, 3000));
        frame.hold(backing.slice(8000, 2000)); // joins the view before it
        frame.bytes_mut().extend_from_slice(b"tail");
        let flat = [
            &b"head"[..],
            &backing[..4100],
            &backing[5000..10_000],
            b"tail",
        ]
        .concat();
        (frame, flat, backing)
    }

    #[test]
    fn pieces_parts_and_readers_see_the_flat_stream() {
        let (frame, flat, backing) = stream();
        assert_eq!(frame.len(), flat.len() as u64);
        assert_eq!(frame.to_vec(), flat);
        assert_eq!(frame.held().len(), 2, "the adjacent views joined");
        assert!(std::ptr::eq(
            frame.held()[1].1.as_ptr(),
            backing[5000..].as_ptr()
        ));
        for lens in [
            &[9108][..],
            &[2, 4000, 3, 200, 4903],
            &[4104, 5000, 4],
            &[0, 9000],
        ] {
            let mut from = 0;
            let parts = lens.iter().enumerate().map(|(i, &len)| (i as u64, len));
            frame
                .split(parts, |i, part| {
                    let to = from + lens[i as usize] as usize;
                    assert_eq!(part.to_vec(), flat[from..to], "part {i} of {lens:?}");
                    from = to;
                    Ok::<_, ()>(())
                })
                .unwrap();
            assert_eq!(from, lens.iter().sum::<u64>() as usize);
        }
        let mut whole = None;
        frame
            .split([(7, frame.len())], |at, part| {
                whole = Some((at, std::ptr::eq(part, &frame)));
                Ok::<_, ()>(())
            })
            .unwrap();
        assert_eq!(whole, Some((7, true)), "one part is the frame itself");
        let mut r = frame.reader();
        assert_eq!(r.take(4), Some(&b"head"[..]));
        assert!(
            r.take(1).is_none() && r.payload(3999).is_none(),
            "into a held view"
        );
        let first = r.payload(4000).unwrap();
        assert!(
            std::ptr::eq(first.as_ptr(), backing.as_ptr()),
            "the held view"
        );
        assert_eq!(r.payload(5104).unwrap(), flat[4004..].to_vec());
        assert_eq!(r.remaining(), 0);
        let mut r = frame.reader();
        r.take(4);
        assert_eq!(
            r.payload(4100).unwrap(),
            backing[..4100].to_vec(),
            "assembled"
        );
        assert!(r.held(5000).is_some());
    }
}
