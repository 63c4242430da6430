//! Log-record encoding: transactions serialized into NVM.
//!
//! Each appended record carries the paper's §IV-A-1 fields — logical group
//! id, version, sequence number — plus the full transaction (offset, data,
//! operation type per op), CRC-framed so recovery can trust what it reads.

use rablock_storage::crc::{crc32, FrameCrc};
use rablock_storage::{GroupId, ObjectId, Op, StoreError, Transaction};

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

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, StoreError> {
        let end = self.pos + 4;
        if end > self.data.len() {
            return Err(trunc());
        }
        let v = u32::from_le_bytes(self.data[self.pos..end].try_into().expect("4 bytes"));
        self.pos = end;
        Ok(v)
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        let end = self.pos + 8;
        if end > self.data.len() {
            return Err(trunc());
        }
        let v = u64::from_le_bytes(self.data[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }
    fn byte(&mut self) -> Result<u8, StoreError> {
        if self.pos >= self.data.len() {
            return Err(trunc());
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }
    fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        let end = self.pos + len;
        if end > self.data.len() {
            return Err(trunc());
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

fn trunc() -> StoreError {
    StoreError::Corrupt("truncated operation-log record".into())
}

impl LogRecord {
    /// Serializes the record (header + ops + trailing CRC) into a fresh
    /// buffer. Recovery, backfill and tests use this; the append path frames
    /// into a buffer it keeps.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_into(&mut body);
        body
    }

    /// Serializes the record into `body`, replacing its contents.
    pub(crate) fn encode_into(&self, body: &mut Vec<u8>) {
        // Sized for the common case (a few ops dominated by write payloads);
        // the 8-byte frame (length + CRC) is reserved up front and
        // backpatched, avoiding a second full-record copy.
        body.clear();
        body.reserve(8 + 32 + self.txn.user_bytes() as usize + self.txn.ops.len() * 64);
        body.extend_from_slice(&[0u8; 8]);
        // The record CRC is kept while the body is built, so large write
        // payloads contribute a *memoized* checksum instead of being
        // re-scanned for every replica's append of the same shared buffer.
        let mut crc = FrameCrc::new(8);
        put_u64(body, self.version);
        put_u64(body, self.seq);
        put_u32(body, self.txn.group.0);
        put_u64(body, self.txn.seq);
        put_u32(body, self.txn.ops.len() as u32);
        for op in &self.txn.ops {
            match op {
                Op::Create { oid, size } => {
                    body.push(0);
                    put_u64(body, oid.raw());
                    put_u64(body, *size);
                }
                Op::Write { oid, offset, data } => {
                    body.push(1);
                    put_u64(body, oid.raw());
                    put_u64(body, *offset);
                    put_u32(body, data.len() as u32);
                    crc.append_payload(body, data);
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
        let body_len = (body.len() - 8) as u32;
        let crc = crc.finish(body);
        body[0..4].copy_from_slice(&body_len.to_le_bytes());
        body[4..8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Decodes one record from the start of `raw`; returns the record and
    /// the encoded length consumed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or CRC mismatch (expected crash
    /// residue at the ring head).
    pub fn decode(raw: &[u8]) -> Result<(LogRecord, usize), StoreError> {
        let mut r = Reader { data: raw, pos: 0 };
        let len = r.u32()? as usize;
        let stored_crc = r.u32()?;
        if r.pos + len > raw.len() {
            return Err(trunc());
        }
        let body = &raw[r.pos..r.pos + len];
        if crc32(body) != stored_crc {
            return Err(StoreError::Corrupt(
                "operation-log record crc mismatch".into(),
            ));
        }
        let mut b = Reader { data: body, pos: 0 };
        let version = b.u64()?;
        let seq = b.u64()?;
        let group = GroupId(b.u32()?);
        let txn_seq = b.u64()?;
        let nops = b.u32()? as usize;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            let tag = b.byte()?;
            ops.push(match tag {
                0 => Op::Create {
                    oid: ObjectId::from_raw(b.u64()?),
                    size: b.u64()?,
                },
                1 => {
                    let oid = ObjectId::from_raw(b.u64()?);
                    let offset = b.u64()?;
                    let data = b.bytes()?.into();
                    Op::Write { oid, offset, data }
                }
                2 => {
                    let oid = ObjectId::from_raw(b.u64()?);
                    let key = String::from_utf8(b.bytes()?.to_vec())
                        .map_err(|_| StoreError::Corrupt("non-utf8 xattr key".into()))?;
                    let value = b.bytes()?.to_vec();
                    Op::SetXattr { oid, key, value }
                }
                3 => Op::MetaPut {
                    key: b.bytes()?.to_vec(),
                    value: b.bytes()?.to_vec(),
                },
                4 => Op::MetaDelete {
                    key: b.bytes()?.to_vec(),
                },
                5 => Op::Delete {
                    oid: ObjectId::from_raw(b.u64()?),
                },
                t => return Err(StoreError::Corrupt(format!("unknown op tag {t}"))),
            });
        }
        Ok((
            LogRecord {
                version,
                seq,
                txn: Transaction::new(group, txn_seq, ops),
            },
            8 + len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
