//! Log-record encoding: transactions serialized into NVM.
//!
//! Each appended record carries the paper's §IV-A-1 fields — logical group
//! id, version, sequence number — plus the full transaction (offset, data,
//! operation type per op), CRC-framed so recovery can trust what it reads.
//!
//! A record is framed as a [`Frame`]: the encoded stream with its large
//! write payloads left out by reference, so appending a client's 4 KiB write
//! copies the few dozen bytes around it, not the write.

use rablock_storage::crc::{crc32_splice, crc32_update, FrameCrc};
use rablock_storage::{
    Frame, FrameReader, GroupId, ObjectId, Op, Payload, StoreError, Transaction,
};

/// One durable record in a group's operation log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Group version at append time (paper: version per logical group).
    pub version: u64,
    /// Global sequence number of the transaction.
    pub seq: u64,
    /// The logged transaction.
    pub txn: Transaction,
}

/// Length prefix plus CRC in front of every record body.
const FRAME_HEADER: usize = 8;

/// Frames the record `(version, seq, txn)` into `frame`, replacing its
/// contents: the encoded stream with its large write payloads held by
/// reference, so appending a client's 4 KiB write copies the few dozen bytes
/// around it, not the write. Which payloads are large enough is
/// [`FrameCrc`]'s splice threshold.
pub(crate) fn frame_record(frame: &mut Frame, version: u64, seq: u64, txn: &Transaction) {
    frame.clear();
    let body = frame.bytes_mut();
    // The 8-byte frame (length + CRC) is reserved up front and
    // backpatched once the body is known.
    body.extend_from_slice(&[0u8; FRAME_HEADER]);
    // The record CRC is kept while the body is built, so large write
    // payloads contribute a *memoized* checksum instead of being
    // re-scanned for every replica's append of the same shared buffer.
    let mut crc = FrameCrc::new(FRAME_HEADER);
    put_u64(body, version);
    put_u64(body, seq);
    put_u32(body, txn.group.0);
    put_u64(body, txn.seq);
    put_u32(body, txn.ops.len() as u32);
    for op in txn.ops.iter() {
        let body = frame.bytes_mut();
        match op {
            Op::Create { oid, size } => {
                body.push(0);
                put_u64(body, oid.raw());
                put_u64(body, *size);
            }
            Op::Write { oid, offset, data } => {
                put_write(frame, &mut crc, *oid, *offset, data);
            }
            // Flattened: the log has one kind of write. (No caller logs
            // one of these: pushes and backfill bypass the log.)
            Op::WriteV { oid, offset, data } => {
                let flat = data.clone().into_payload();
                put_write(frame, &mut crc, *oid, *offset, &flat);
            }
            Op::SetXattr { oid, key, value } => {
                body.push(2);
                put_u64(body, oid.raw());
                put_bytes(body, key.as_bytes());
                put_bytes(body, value);
            }
            Op::MetaPut { key, value } => {
                body.push(3);
                put_bytes(body, key);
                put_bytes(body, value);
            }
            Op::MetaDelete { key } => {
                body.push(4);
                put_bytes(body, key);
            }
            Op::Delete { oid } => {
                body.push(5);
                put_u64(body, oid.raw());
            }
        }
    }
    let crc = crc.finish(frame.bytes());
    let body_len = (frame.len() - FRAME_HEADER as u64) as u32;
    let header = &mut frame.bytes_mut()[..FRAME_HEADER];
    header[0..4].copy_from_slice(&body_len.to_le_bytes());
    header[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the record `frame` holds. A write payload the frame holds in one
/// piece comes back as that very buffer, unscanned.
pub(crate) fn decode_frame(frame: &Frame) -> Result<LogRecord, StoreError> {
    parse(frame.bytes(), frame.held())
}

/// Exactly the bytes a record of `txn` takes in the log: a sum of field
/// sizes, so whether it fits can be known without framing it.
pub(crate) fn encoded_len(txn: &Transaction) -> u64 {
    let bytes = |b: usize| 4 + b;
    let ops: usize = txn
        .ops
        .iter()
        .map(|op| {
            1 + match op {
                Op::Create { .. } => 16,
                Op::Write { data, .. } => 16 + bytes(data.len()),
                Op::WriteV { data, .. } => 16 + bytes(data.len()),
                Op::SetXattr { key, value, .. } => 8 + bytes(key.len()) + bytes(value.len()),
                Op::MetaPut { key, value } => bytes(key.len()) + bytes(value.len()),
                Op::MetaDelete { key } => bytes(key.len()),
                Op::Delete { .. } => 8,
            }
        })
        .sum();
    (FRAME_HEADER + 32 + ops) as u64
}

/// Frames one data write; a payload long enough to stay out of the framed
/// bytes is held in its place.
fn put_write(frame: &mut Frame, crc: &mut FrameCrc, oid: ObjectId, offset: u64, data: &Payload) {
    let body = frame.bytes_mut();
    body.push(1);
    put_u64(body, oid.raw());
    put_u64(body, offset);
    put_u32(body, data.len() as u32);
    frame.append_payload_crc(crc, data);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Reads a record's fields out of its stream, failing on a truncated one.
struct Reader<'a>(FrameReader<'a>);

impl<'a> Reader<'a> {
    /// The next `len` bytes, which must all lie in one byte run.
    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        self.0.take(len).ok_or_else(trunc)
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn byte(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// The next length-prefixed payload: the held buffer itself where
    /// exactly one makes it up, a copy assembled from byte runs and held
    /// pieces otherwise (an inline payload, or one part of which rot made
    /// the region take back as bytes).
    fn payload(&mut self) -> Result<Payload, StoreError> {
        let len = self.u32()? as usize;
        self.0.payload(len).ok_or_else(trunc)
    }
}

fn trunc() -> StoreError {
    StoreError::Corrupt("truncated operation-log record".into())
}

/// Decodes the record whose stream is `bytes` with each `held` payload
/// spliced in before `bytes[at]`: exactly one record, nothing after it.
fn parse(bytes: &[u8], held: &[(usize, Payload)]) -> Result<LogRecord, StoreError> {
    let mut r = Reader(FrameReader::new(bytes, held));
    let stream_len = r.0.remaining();
    let len = r.u32()? as u64;
    let stored_crc = r.u32()?;
    if FRAME_HEADER as u64 + len != stream_len {
        return Err(trunc());
    }
    // A held payload is immutable, so its memoized checksum stands in for
    // its bytes; every byte run is scanned.
    let mut state = !0;
    let mut scanned = FRAME_HEADER;
    for (at, payload) in held {
        let run = bytes.get(scanned..*at).ok_or_else(trunc)?;
        state = crc32_splice(
            crc32_update(state, run),
            payload.crc32(),
            payload.len() as u64,
        );
        scanned = *at;
    }
    if !crc32_update(state, &bytes[scanned..]) != stored_crc {
        return Err(StoreError::Corrupt(
            "operation-log record crc mismatch".into(),
        ));
    }
    let version = r.u64()?;
    let seq = r.u64()?;
    let group = GroupId(r.u32()?);
    let txn_seq = r.u64()?;
    let nops = r.u32()? as usize;
    let mut ops = Vec::with_capacity(nops.min(bytes.len()));
    for _ in 0..nops {
        let tag = r.byte()?;
        ops.push(match tag {
            0 => Op::Create {
                oid: ObjectId::from_raw(r.u64()?),
                size: r.u64()?,
            },
            1 => Op::Write {
                oid: ObjectId::from_raw(r.u64()?),
                offset: r.u64()?,
                data: r.payload()?,
            },
            2 => {
                let oid = ObjectId::from_raw(r.u64()?);
                let key = String::from_utf8(r.bytes()?.to_vec())
                    .map_err(|_| StoreError::Corrupt("non-utf8 xattr key".into()))?;
                let value = r.bytes()?.to_vec();
                Op::SetXattr { oid, key, value }
            }
            3 => Op::MetaPut {
                key: r.bytes()?.to_vec(),
                value: r.bytes()?.to_vec(),
            },
            4 => Op::MetaDelete {
                key: r.bytes()?.to_vec(),
            },
            5 => Op::Delete {
                oid: ObjectId::from_raw(r.u64()?),
            },
            t => return Err(StoreError::Corrupt(format!("unknown op tag {t}"))),
        });
    }
    if r.0.held_left() > 0 {
        return Err(StoreError::Corrupt(
            "operation-log record holds a payload outside its writes".into(),
        ));
    }
    Ok(LogRecord {
        version,
        seq,
        txn: Transaction::new(group, txn_seq, ops),
    })
}

impl LogRecord {
    /// Exactly the bytes this record takes in the log, and in its encoded
    /// form ([`LogRecord::encode`]).
    pub fn encoded_len(&self) -> u64 {
        encoded_len(&self.txn)
    }

    /// Serializes the record (length, CRC, header, ops) into a fresh buffer.
    /// Recovery, backfill and tests use this; the append path keeps large
    /// payloads out of the bytes it frames.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Frame::new();
        frame_record(&mut frame, self.version, self.seq, &self.txn);
        frame.to_vec()
    }

    /// Decodes one record from the start of `raw`; returns the record and
    /// the encoded length consumed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or CRC mismatch (expected crash
    /// residue at the ring head).
    pub fn decode(raw: &[u8]) -> Result<(LogRecord, usize), StoreError> {
        let prefix = raw.get(..4).ok_or_else(trunc)?;
        let len = FRAME_HEADER + u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        let record = raw.get(..len).ok_or_else(trunc)?;
        Ok((parse(record, &[])?, len))
    }
}

#[cfg(test)]
use rablock_storage::crc::crc32;

/// The record format written out flat, with no frame and no splice: the
/// reference the segmented framing is pinned against.
#[cfg(test)]
pub(crate) fn reference_encode(rec: &LogRecord) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, rec.version);
    put_u64(&mut body, rec.seq);
    put_u32(&mut body, rec.txn.group.0);
    put_u64(&mut body, rec.txn.seq);
    put_u32(&mut body, rec.txn.ops.len() as u32);
    for op in rec.txn.ops.iter() {
        match op {
            Op::Create { oid, size } => {
                body.push(0);
                put_u64(&mut body, oid.raw());
                put_u64(&mut body, *size);
            }
            Op::Write { oid, offset, data } => {
                body.push(1);
                put_u64(&mut body, oid.raw());
                put_u64(&mut body, *offset);
                put_bytes(&mut body, data);
            }
            Op::WriteV { .. } => unreachable!("the reference knows flat writes only"),
            Op::SetXattr { oid, key, value } => {
                body.push(2);
                put_u64(&mut body, oid.raw());
                put_bytes(&mut body, key.as_bytes());
                put_bytes(&mut body, value);
            }
            Op::MetaPut { key, value } => {
                body.push(3);
                put_bytes(&mut body, key);
                put_bytes(&mut body, value);
            }
            Op::MetaDelete { key } => {
                body.push(4);
                put_bytes(&mut body, key);
            }
            Op::Delete { oid } => {
                body.push(5);
                put_u64(&mut body, oid.raw());
            }
        }
    }
    let mut raw = Vec::new();
    put_u32(&mut raw, body.len() as u32);
    put_u32(&mut raw, crc32(&body));
    raw.extend_from_slice(&body);
    raw
}

/// Records around the by-reference threshold: write payloads of 0, 511, 512
/// and 4096 bytes, a slice of a larger buffer, and several writes (held and
/// inline) in one transaction between other ops.
#[cfg(test)]
pub(crate) fn threshold_records() -> Vec<LogRecord> {
    let group = GroupId(3);
    let oid = ObjectId::new(group, 9);
    let backing: Payload = (0..3 * 4096)
        .map(|i| (i / 5) as u8)
        .collect::<Vec<_>>()
        .into();
    let write = |offset: u64, data: Payload| Op::Write { oid, offset, data };
    let xattr = Op::SetXattr {
        oid,
        key: "oi".into(),
        value: vec![0xA5; 64],
    };
    let ops: Vec<Vec<Op>> = vec![
        vec![write(0, Payload::empty())],
        vec![write(7, backing.slice(1, 511)), xattr.clone()],
        vec![write(8, backing.slice(2, 512)), xattr.clone()],
        vec![write(4096, vec![0xCD; 4096].into()), xattr.clone()],
        vec![write(8192, backing.slice(4000, 4096))],
        vec![
            Op::Create { oid, size: 4 << 20 },
            write(0, backing.slice(0, 4096)),
            xattr,
            write(4096, backing.slice(100, 100)),
            write(8192, backing.slice(4096, 8192)),
            Op::MetaPut {
                key: b"pglog.3.7".to_vec(),
                value: vec![0x5A; 180],
            },
        ],
    ];
    ops.into_iter()
        .zip(1u64..)
        .map(|(ops, seq)| LogRecord {
            version: seq,
            seq: 100 + seq,
            txn: Transaction::new(group, 100 + seq, ops),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::NvmPiece;

    #[test]
    fn frame_stream_is_the_flat_reference_with_large_payloads_by_reference() {
        let mut frame = Frame::default();
        for rec in threshold_records().into_iter().chain([sample()]) {
            let flat = reference_encode(&rec);
            assert_eq!(rec.encode(), flat, "record {}", rec.version);
            assert_eq!(encoded_len(&rec.txn), flat.len() as u64);
            frame_record(&mut frame, rec.version, rec.seq, &rec.txn);
            assert_eq!(frame.len(), flat.len() as u64);
            // Exactly the write payloads of at least 512 bytes stay views of
            // the writer's buffer; everything else is framed bytes.
            let large: Vec<&Payload> = rec
                .txn
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Write { data, .. } if data.len() >= 512 => Some(data),
                    _ => None,
                })
                .collect();
            assert_eq!(frame.held().len(), large.len());
            for ((_, held), data) in frame.held().iter().zip(large) {
                assert!(std::ptr::eq(held.as_ptr(), data.as_ptr()));
            }
            let (back, used) = LogRecord::decode(&flat).unwrap();
            assert_eq!((back, used), (rec, flat.len()));
        }
    }

    #[test]
    fn a_frame_decodes_to_its_record_however_nvm_holds_the_payloads() {
        let mut frame = Frame::default();
        for rec in threshold_records() {
            frame_record(&mut frame, rec.version, rec.seq, &rec.txn);
            let back = decode_frame(&frame).unwrap();
            assert_eq!(back, rec);
            for (op, original) in back.txn.ops.iter().zip(rec.txn.ops.iter()) {
                if let (Op::Write { data, .. }, Op::Write { data: written, .. }) = (op, original) {
                    let by_ref = std::ptr::eq(data.as_ptr(), written.as_ptr());
                    assert_eq!(by_ref, data.len() >= 512, "{} bytes", data.len());
                }
            }
            // Read back in other pieces: every held payload as two views
            // (of two buffers, so that the frame cannot join them again), or
            // with its first part taken back as bytes (rot).
            let (mut split, mut mixed) = (Frame::default(), Frame::default());
            for piece in frame.pieces() {
                match piece {
                    NvmPiece::Bytes(run) => {
                        split.bytes_mut().extend_from_slice(run);
                        mixed.bytes_mut().extend_from_slice(run);
                    }
                    NvmPiece::Held(payload) => {
                        let (head, tail) = (
                            payload.slice(0, 100),
                            payload.slice(100, payload.len() - 100),
                        );
                        split.hold(head.to_vec().into());
                        split.hold(tail.clone());
                        mixed.bytes_mut().extend_from_slice(&head);
                        mixed.hold(tail);
                    }
                }
            }
            assert_eq!(decode_frame(&split).unwrap(), rec);
            assert_eq!(decode_frame(&mixed).unwrap(), rec);
            assert_eq!(mixed.to_vec(), frame.to_vec());
        }
        // A held piece where fields are expected is not a record of ours.
        let raw = sample().encode();
        let mut odd = Frame::default();
        odd.bytes_mut().extend_from_slice(&raw[..20]);
        odd.hold(raw[20..30].into());
        odd.bytes_mut().extend_from_slice(&raw[30..]);
        assert_eq!(odd.to_vec(), raw);
        assert!(matches!(decode_frame(&odd), Err(StoreError::Corrupt(_))));
    }

    fn sample() -> LogRecord {
        let oid = ObjectId::new(GroupId(3), 42);
        LogRecord {
            version: 7,
            seq: 1001,
            txn: Transaction::new(
                GroupId(3),
                1001,
                vec![
                    Op::Create { oid, size: 4 << 20 },
                    Op::Write {
                        oid,
                        offset: 8192,
                        data: vec![0xCD; 4096].into(),
                    },
                    Op::SetXattr {
                        oid,
                        key: "oi".into(),
                        value: vec![1, 2],
                    },
                    Op::MetaPut {
                        key: b"pglog.3.7".to_vec(),
                        value: vec![5; 30],
                    },
                    Op::MetaDelete {
                        key: b"pglog.3.1".to_vec(),
                    },
                    Op::Delete { oid },
                ],
            ),
        }
    }

    #[test]
    fn encode_crc_identical_with_and_without_splice() {
        // A record whose payload crosses the splice threshold must encode
        // byte-identically to the flat computation (decode re-checks the
        // CRC over the raw bytes, so a mismatch would fail here).
        let oid = ObjectId::new(GroupId(3), 9);
        let rec = LogRecord {
            version: 5,
            seq: 11,
            txn: Transaction::new(
                GroupId(3),
                11,
                vec![Op::Write {
                    oid,
                    offset: 8192,
                    data: vec![0x5A; 4096].into(),
                }],
            ),
        };
        let raw = rec.encode();
        let stored = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        assert_eq!(stored, crc32(&raw[8..]));
        let (back, used) = LogRecord::decode(&raw).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, raw.len());
    }

    #[test]
    fn encode_decode_round_trip() {
        let rec = sample();
        let raw = rec.encode();
        let (decoded, consumed) = LogRecord::decode(&raw).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn decode_consumes_exact_length_with_trailing_garbage() {
        let rec = sample();
        let mut raw = rec.encode();
        let len = raw.len();
        raw.extend_from_slice(&[0xFF; 32]);
        let (decoded, consumed) = LogRecord::decode(&raw).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(consumed, len);
    }

    #[test]
    fn corruption_detected() {
        let mut raw = sample().encode();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        assert!(matches!(
            LogRecord::decode(&raw),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let raw = sample().encode();
        for cut in [0, 3, 7, raw.len() - 1] {
            assert!(LogRecord::decode(&raw[..cut]).is_err(), "cut at {cut}");
        }
    }
}
