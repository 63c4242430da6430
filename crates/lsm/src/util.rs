//! Encoding helpers: little-endian record framing.

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte slice (`u32` length).
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// A cursor for decoding the formats written by the `put_*` helpers.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads a `u32`; `None` if truncated.
    pub fn get_u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        if end > self.data.len() {
            return None;
        }
        let v = u32::from_le_bytes(self.data[self.pos..end].try_into().unwrap());
        self.pos = end;
        Some(v)
    }

    /// Reads a `u64`; `None` if truncated.
    pub fn get_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        if end > self.data.len() {
            return None;
        }
        let v = u64::from_le_bytes(self.data[self.pos..end].try_into().unwrap());
        self.pos = end;
        Some(v)
    }

    /// Reads `n` raw bytes (no length prefix); `None` if truncated.
    pub fn get_bytes_raw(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads a length-prefixed byte slice; `None` if truncated.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u32()? as usize;
        let end = self.pos.checked_add(len)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_round_trips() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_bytes(&mut buf, b"payload");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u32(), Some(7));
        assert_eq!(c.get_u64(), Some(u64::MAX - 3));
        assert_eq!(c.get_bytes(), Some(&b"payload"[..]));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_handles_truncation() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abcdef");
        let mut c = Cursor::new(&buf[..buf.len() - 2]);
        assert_eq!(c.get_bytes(), None);
        let mut c2 = Cursor::new(&buf[..2]);
        assert_eq!(c2.get_u32(), None);
    }
}
