//! Log-record encoding: transactions serialized into NVM.
//!
//! Each appended record carries the paper's §IV-A-1 fields — logical group
//! id, version, sequence number — plus the full transaction (offset, data,
//! operation type per op), CRC-framed so recovery can trust what it reads.
//!
//! The log never encodes a record to append it: the NVM region holds the
//! record itself (a [`LogRecord`] is an [`Encode`] value) and encodes it
//! only when something reads those bytes — recovery, fault injection,
//! tests. Its length is a sum of field sizes, known without encoding.

use rablock_storage::crc::crc32;
use rablock_storage::{Encode, GroupId, ObjectId, Op, Payload, StoreError, Transaction};

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

/// Exactly the bytes a record of `txn` takes in the log: a sum of field
/// sizes, so whether it fits can be known without encoding it.
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

/// The fields of a data write before its bytes.
fn put_write_header(buf: &mut Vec<u8>, oid: ObjectId, offset: u64, len: usize) {
    buf.push(1);
    put_u64(buf, oid.raw());
    put_u64(buf, offset);
    put_u32(buf, len as u32);
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

/// Reads a record's fields out of its bytes, failing on a truncated one.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `len` bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        if len > self.0.len() {
            return Err(trunc());
        }
        let (field, rest) = self.0.split_at(len);
        self.0 = rest;
        Ok(field)
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

    /// The next length-prefixed payload, copied out.
    fn payload(&mut self) -> Result<Payload, StoreError> {
        Ok(self.bytes()?.into())
    }
}

fn trunc() -> StoreError {
    StoreError::Corrupt("truncated operation-log record".into())
}

/// Decodes the record whose bytes are `bytes`: exactly one record, nothing
/// after it.
fn parse(bytes: &[u8]) -> Result<LogRecord, StoreError> {
    let mut r = Reader(bytes);
    let len = r.u32()? as usize;
    let stored_crc = r.u32()?;
    if FRAME_HEADER + len != bytes.len() {
        return Err(trunc());
    }
    if crc32(&bytes[FRAME_HEADER..]) != stored_crc {
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
                let value = r.payload()?;
                Op::SetXattr { oid, key, value }
            }
            3 => Op::MetaPut {
                key: r.bytes()?.into(),
                value: r.payload()?,
            },
            4 => Op::MetaDelete {
                key: r.bytes()?.into(),
            },
            5 => Op::Delete {
                oid: ObjectId::from_raw(r.u64()?),
            },
            t => return Err(StoreError::Corrupt(format!("unknown op tag {t}"))),
        });
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

    /// Serializes the record (length, CRC, header, ops) into a fresh buffer:
    /// the bytes it takes in the log, which only a read of the ring, fault
    /// injection and tests ask for.
    pub fn encode(&self) -> Vec<u8> {
        let mut raw = Vec::with_capacity(self.encoded_len() as usize);
        // The 8-byte frame (length + CRC) is reserved up front and
        // backpatched once the body is known.
        raw.extend_from_slice(&[0u8; FRAME_HEADER]);
        put_u64(&mut raw, self.version);
        put_u64(&mut raw, self.seq);
        put_u32(&mut raw, self.txn.group.0);
        put_u64(&mut raw, self.txn.seq);
        put_u32(&mut raw, self.txn.ops.len() as u32);
        for op in self.txn.ops.iter() {
            match op {
                Op::Create { oid, size } => {
                    raw.push(0);
                    put_u64(&mut raw, oid.raw());
                    put_u64(&mut raw, *size);
                }
                Op::Write { oid, offset, data } => {
                    put_write_header(&mut raw, *oid, *offset, data.len());
                    raw.extend_from_slice(data);
                }
                // Flattened: the log has one kind of write. (No caller logs
                // one of these: pushes and backfill bypass the log.)
                Op::WriteV { oid, offset, data } => {
                    put_write_header(&mut raw, *oid, *offset, data.len());
                    data.iter().for_each(|view| raw.extend_from_slice(view));
                }
                Op::SetXattr { oid, key, value } => {
                    raw.push(2);
                    put_u64(&mut raw, oid.raw());
                    put_bytes(&mut raw, key.as_bytes());
                    put_bytes(&mut raw, value);
                }
                Op::MetaPut { key, value } => {
                    raw.push(3);
                    put_bytes(&mut raw, key);
                    put_bytes(&mut raw, value);
                }
                Op::MetaDelete { key } => {
                    raw.push(4);
                    put_bytes(&mut raw, key);
                }
                Op::Delete { oid } => {
                    raw.push(5);
                    put_u64(&mut raw, oid.raw());
                }
            }
        }
        let body_len = (raw.len() - FRAME_HEADER) as u32;
        let crc = crc32(&raw[FRAME_HEADER..]);
        raw[0..4].copy_from_slice(&body_len.to_le_bytes());
        raw[4..8].copy_from_slice(&crc.to_le_bytes());
        raw
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
        Ok((parse(record)?, len))
    }
}

impl Encode for LogRecord {
    fn encoded_len(&self) -> u64 {
        LogRecord::encoded_len(self)
    }

    fn encode(&self) -> Vec<u8> {
        #[cfg(test)]
        ENCODES.with(|n| n.set(n.get() + 1));
        LogRecord::encode(self)
    }
}

#[cfg(test)]
thread_local! {
    /// Records this thread's media encoded (through [`Encode`]).
    pub(crate) static ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Records of many shapes: write payloads of 0, 511, 512 and 4096 bytes, a
/// slice of a larger buffer, and several writes in one transaction between
/// other ops.
#[cfg(test)]
pub(crate) fn varied_records() -> Vec<LogRecord> {
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
        value: vec![0xA5; 64].into(),
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
                key: b"pglog.3.7".into(),
                value: vec![0x5A; 180].into(),
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

    #[test]
    fn the_encoding_is_the_pinned_format() {
        let mut all = Vec::new();
        for rec in varied_records().into_iter().chain([sample()]) {
            let raw = rec.encode();
            assert_eq!(encoded_len(&rec.txn), raw.len() as u64);
            let (back, used) = LogRecord::decode(&raw).unwrap();
            assert_eq!((back, used), (rec, raw.len()));
            all.extend_from_slice(&raw);
        }
        // What the frame-splicing encoder wrote for the same records (its
        // flat reference, `reference_encode`, agreed byte for byte).
        assert_eq!((all.len(), crc32(&all)), (26_824, 0xC37D_894D));
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
                        value: vec![1, 2].into(),
                    },
                    Op::MetaPut {
                        key: b"pglog.3.7".into(),
                        value: vec![5; 30].into(),
                    },
                    Op::MetaDelete {
                        key: b"pglog.3.1".into(),
                    },
                    Op::Delete { oid },
                ],
            ),
        }
    }

    #[test]
    fn the_stored_crc_is_the_crc_of_the_body() {
        // Decode re-checks the CRC over the raw bytes, so a mismatch would
        // fail there too.
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
