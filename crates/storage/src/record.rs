//! Records a medium holds by reference and encodes only when read.
//!
//! An operation log writes every record to NVM, and nothing reads those
//! bytes back but recovery, fault injection and tests. So the log hands the
//! medium the record itself, as a [`Record`]: a view of a shared
//! [`Encoded`] value. The medium keeps the view as an extent, counts its
//! length, and asks for the bytes only when a read needs them. The first
//! read encodes the value and keeps the encoding beside it, so every view
//! of the value — the parts a cut or a byte write leaves, a clone of the
//! medium — reads the one encoding.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A value with a byte encoding: what a [`Record`] is a view of.
pub trait Encode: Send + Sync + fmt::Debug {
    /// The length of [`Encode::encode`]'s bytes, without encoding.
    fn encoded_len(&self) -> u64;

    /// The value's bytes.
    fn encode(&self) -> Vec<u8>;
}

/// A value and, once something has read its bytes, their encoding: the
/// shared part of every [`Record`] view of it.
///
/// ```
/// use std::sync::Arc;
/// use rablock_storage::{Encode, Encoded, Record};
///
/// #[derive(Debug)]
/// struct Greeting;
/// impl Encode for Greeting {
///     fn encoded_len(&self) -> u64 {
///         5
///     }
///     fn encode(&self) -> Vec<u8> {
///         b"hello".to_vec()
///     }
/// }
///
/// let shared = Arc::new(Encoded::new(Greeting));
/// let record = Record::new(shared.clone()); // not encoded: its length is known
/// assert_eq!(record.len(), 5);
/// assert_eq!(record.slice(1, 3).bytes(), b"ell"); // encoded, and kept
/// assert!(std::ptr::eq(record.bytes(), shared.bytes()));
/// ```
pub struct Encoded<T: ?Sized> {
    bytes: OnceLock<Box<[u8]>>,
    value: T,
}

impl<T> Encoded<T> {
    /// `value`, not yet encoded.
    pub fn new(value: T) -> Encoded<T> {
        Encoded {
            bytes: OnceLock::new(),
            value,
        }
    }
}

impl<T: ?Sized + Encode> Encoded<T> {
    /// The value's bytes: encoded by the first call, the same bytes after.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| {
            let bytes = self.value.encode();
            debug_assert_eq!(bytes.len() as u64, self.value.encoded_len());
            bytes.into_boxed_slice()
        })
    }
}

impl<T: ?Sized> Deref for Encoded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Encoded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Encoded")
            .field("value", &&self.value)
            .field("encoded", &self.bytes.get().is_some())
            .finish()
    }
}

/// A view of the bytes of a shared [`Encoded`] value: what a medium holds
/// for a record written by reference. `Clone` and [`Record::slice`] share
/// the value, and with it the one encoding. The window is two `u32`s, so
/// a value encodes to under 4 GiB.
#[derive(Clone)]
pub struct Record {
    shared: Arc<Encoded<dyn Encode>>,
    from: u32,
    len: u32,
}

impl Record {
    /// A view of all of `shared`'s bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value encodes to 4 GiB or more.
    pub fn new<T: Encode + 'static>(shared: Arc<Encoded<T>>) -> Record {
        let len = u32::try_from(shared.encoded_len()).expect("a record is under 4 GiB");
        Record {
            shared,
            from: 0,
            len,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> u64 {
        self.len.into()
    }

    /// True for a view of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `len` bytes of this view from `from` on, a view of the same
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the view.
    pub fn slice(&self, from: u64, len: u64) -> Record {
        assert!(from + len <= self.len(), "slice past the record view");
        // Both fit: the window lies in a value of under 4 GiB.
        Record {
            shared: self.shared.clone(),
            from: self.from + from as u32,
            len: len as u32,
        }
    }

    /// The view's bytes, encoding the value if nothing has yet.
    pub fn bytes(&self) -> &[u8] {
        let (from, len) = (self.from as usize, self.len as usize);
        &self.shared.bytes()[from..from + len]
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("from", &self.from)
            .field("len", &self.len)
            .field("encoded", &self.shared.bytes.get().is_some())
            .finish()
    }
}

/// Bytes as a value, counting how often they are encoded: what the tests
/// of the media write as records.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Counted {
    bytes: Vec<u8>,
    encodes: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl Counted {
    /// `bytes` as a shared value, and a view of all of it.
    pub(crate) fn record(bytes: Vec<u8>) -> (Arc<Encoded<Counted>>, Record) {
        let shared = Arc::new(Encoded::new(Counted {
            bytes,
            encodes: Default::default(),
        }));
        let record = Record::new(shared.clone());
        (shared, record)
    }

    /// How often the value was encoded.
    pub(crate) fn encodes(&self) -> usize {
        self.encodes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The bytes it was made of.
    pub(crate) fn original(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
impl Encode for Counted {
    fn encoded_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn encode(&self) -> Vec<u8> {
        self.encodes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.bytes.clone()
    }
}
