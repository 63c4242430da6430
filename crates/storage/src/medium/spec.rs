//! The one spec of the medium, run against each of its faces.
//!
//! A face beside a flat byte array, and beside each byte who holds it: no
//! one (it reads as zero), the medium (a byte write's copy), the writer (a
//! view of the writer's very byte), the medium's own copy of a block (the
//! one copy an odd segmentation costs [`MemDisk`]), or a record (a view of
//! a value the medium encodes when read). Reads by bytes and (where the
//! face has them) by frame and by payload must agree with the array; a
//! frame read must hand each byte back as the kind of piece its holder
//! says; the medium must own exactly the bytes the model says are owned;
//! every record is encoded at most once, whatever its views went through;
//! and after `clone()` the two copies diverge without reaching each other
//! or any buffer or value a writer or a reader still holds.

use std::sync::Arc;

use proptest::prelude::*;

use crate::blockdev::{BlockDevice, DevCounters, MemDisk};
use crate::error::StoreError;
use crate::frame::Frame;
use crate::medium::{Medium, ZONE_BYTES};
use crate::nvm::NvmRegion;
use crate::payload::{zero_block, Payload, Segments};
use crate::record::{Counted, Encoded, Record};

/// Five zones and a bit: writes cross zone and page boundaries and the end.
pub(crate) const MODEL_BYTES: usize = 5 * ZONE_BYTES as usize + 100;

/// What one face of the medium offers the spec.
pub(crate) trait Face: Clone {
    /// Its counters count calls, not only bytes.
    const CALLS: bool;
    /// An aligned multi-view write keeps one view per 4 KiB block, copying
    /// a block that straddles two.
    const BLOCK_COPIES: bool;

    fn medium(&self) -> &Medium;
    fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError>;
    /// `None` (for this and every other `Option`) where the face has no
    /// such call.
    fn write_views(&mut self, offset: u64, data: &Segments) -> Option<Result<(), StoreError>>;
    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Option<Result<(), StoreError>>;
    fn write_record(&mut self, offset: u64, record: Record) -> Option<Result<(), StoreError>>;
    fn release(&mut self, offset: u64, len: u64) -> Option<Result<(), StoreError>>;
    fn read_bytes(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError>;
    fn read_frame(&mut self, offset: u64, len: usize) -> Option<Result<Frame, StoreError>>;
    /// `None` where the face has no payload read.
    fn read_payload(&mut self, offset: u64, len: usize) -> Option<Result<Payload, StoreError>>;
    fn traffic(&self) -> DevCounters;
}

impl Face for MemDisk {
    const CALLS: bool = true;
    const BLOCK_COPIES: bool = true;

    fn medium(&self) -> &Medium {
        self.medium()
    }
    fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.write_at(offset, data)
    }
    fn write_views(&mut self, offset: u64, data: &Segments) -> Option<Result<(), StoreError>> {
        Some(self.write_segments_at(offset, data))
    }
    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Option<Result<(), StoreError>> {
        Some(BlockDevice::write_frame(self, offset, frame))
    }
    fn write_record(&mut self, _: u64, _: Record) -> Option<Result<(), StoreError>> {
        None
    }
    fn release(&mut self, _: u64, _: u64) -> Option<Result<(), StoreError>> {
        None
    }
    fn read_bytes(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_at(offset, buf)
    }
    fn read_frame(&mut self, offset: u64, len: usize) -> Option<Result<Frame, StoreError>> {
        let mut frame = Frame::new();
        let read = BlockDevice::read_frame(self, offset, len, &mut frame);
        Some(read.map(|()| frame))
    }
    fn read_payload(&mut self, offset: u64, len: usize) -> Option<Result<Payload, StoreError>> {
        Some(self.read_payload_at(offset, len))
    }
    fn traffic(&self) -> DevCounters {
        self.counters()
    }
}

impl Face for NvmRegion {
    const CALLS: bool = false;
    const BLOCK_COPIES: bool = false;

    fn medium(&self) -> &Medium {
        self.medium()
    }
    fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.write(offset, data)
    }
    fn write_views(&mut self, _: u64, _: &Segments) -> Option<Result<(), StoreError>> {
        None
    }
    fn write_frame(&mut self, _: u64, _: &Frame) -> Option<Result<(), StoreError>> {
        None
    }
    fn write_record(&mut self, offset: u64, record: Record) -> Option<Result<(), StoreError>> {
        Some(NvmRegion::write_record(self, offset, record))
    }
    fn release(&mut self, offset: u64, len: u64) -> Option<Result<(), StoreError>> {
        Some(NvmRegion::release(self, offset, len))
    }
    fn read_bytes(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_into(offset, buf)
    }
    fn read_frame(&mut self, _: u64, _: usize) -> Option<Result<Frame, StoreError>> {
        None
    }
    fn read_payload(&mut self, _: u64, _: usize) -> Option<Result<Payload, StoreError>> {
        None
    }
    fn traffic(&self) -> DevCounters {
        DevCounters {
            bytes_written: self.bytes_written(),
            bytes_read: self.bytes_read(),
            ..DevCounters::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act {
    /// A byte write.
    Bytes,
    /// A by-reference write of views of one buffer, in `parts`.
    Views,
    /// A frame: byte runs and held views, alternating, in `parts`.
    Frame,
    /// Views of one record, in `parts`, each written on its own at the
    /// next offset (as a log ring writes a record that wraps its end, but
    /// in order).
    Record,
    Release,
}

#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// Which of the two copies (after the fork) the step acts on.
    on_fork: bool,
    act: Act,
    offset: u64,
    /// Lengths of the parts of the write; their sum is its length.
    parts: Vec<usize>,
    /// Bytes of the backing buffer before the written views.
    lead: usize,
    fill: u8,
    read: (u64, usize),
}

impl Step {
    fn len(&self) -> usize {
        self.parts.iter().sum()
    }
}

fn an_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..6u64, -40..40i64).prop_map(|(z, d)| (z * ZONE_BYTES).saturating_add_signed(d)),
        (0..21u64).prop_map(|b| b * 4096),
        0..MODEL_BYTES as u64 + 50,
    ]
}

fn a_len() -> impl Strategy<Value = usize> {
    // Short runs, 4 KiB-ish, whole blocks, and longer than a zone.
    prop_oneof![
        0..600usize,
        4000..4200usize,
        (0..5usize).prop_map(|b| b * 4096),
        0..40_000usize,
    ]
}

pub(crate) fn steps() -> impl Strategy<Value = Vec<Step>> {
    let act = prop_oneof![
        3 => Just(Act::Bytes),
        3 => Just(Act::Views),
        3 => Just(Act::Frame),
        3 => Just(Act::Record),
        1 => Just(Act::Release),
    ];
    let step = (
        (any::<bool>(), act, an_offset()),
        prop_oneof![
            a_len().prop_map(|len| vec![len]),
            proptest::collection::vec(a_len(), 2..5),
            (1..8usize).prop_map(|n| vec![4096; n]),
        ],
        prop_oneof![Just(0), 1..5000usize],
        any::<u8>(),
        (an_offset(), a_len()),
    )
        .prop_map(|((on_fork, act, offset), parts, lead, fill, read)| Step {
            on_fork,
            act,
            offset,
            parts,
            lead,
            fill,
            read,
        });
    proptest::collection::vec(step, 1..40)
}

/// Who holds a byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    /// The medium, as bytes it owns.
    Owned,
    /// The writer: the address of the writer's byte.
    Lent(usize),
    /// The medium, as a block it copied and holds as a payload.
    Copy,
    /// A record, held by reference and read as its encoding.
    Recorded,
}

struct Pair<F> {
    face: F,
    model: Vec<u8>,
    holder: Vec<Option<Holder>>,
    counters: DevCounters,
    /// Every payload handed in or out, with its bytes at that time.
    loans: Vec<(Payload, Vec<u8>)>,
    /// Every record value written, its bytes its value's own.
    records: Vec<Arc<Encoded<Counted>>>,
}

impl<F: Face> Pair<F> {
    fn in_bounds(offset: u64, len: usize) -> bool {
        offset + len as u64 <= MODEL_BYTES as u64
    }

    fn count(&mut self, ok: bool, len: usize, write: bool) {
        if !ok {
            return;
        }
        let c = &mut self.counters;
        if write {
            c.writes += u64::from(F::CALLS);
            c.bytes_written += len as u64;
        } else {
            c.reads += u64::from(F::CALLS);
            c.bytes_read += len as u64;
        }
    }

    fn apply(&mut self, step: &Step) {
        let (len, at) = (step.len(), step.offset as usize);
        let ok = Self::in_bounds(step.offset, len);
        // The parts of the write in order, each a view of a buffer of its
        // own, and whether each is held.
        let mut parts = Vec::new();
        for (i, &part) in step.parts.iter().enumerate() {
            let fill = step.fill.wrapping_add(i as u8);
            let backing: Payload = (0..step.lead + part + 3)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(fill))
                .collect::<Vec<_>>()
                .into();
            let held = match step.act {
                Act::Frame => (i + step.fill as usize).is_multiple_of(2),
                _ => step.act == Act::Views,
            };
            parts.push((backing.slice(step.lead, part), held));
        }
        let data: Vec<u8> = parts
            .iter()
            .flat_map(|(part, _)| part.iter().copied())
            .collect();
        match step.act {
            Act::Release => {
                let Some(got) = self.face.release(step.offset, len as u64) else {
                    return self.read_back(step.read);
                };
                assert_eq!(got.is_ok(), ok);
                if ok {
                    self.model[at..at + len].fill(0);
                    self.holder[at..at + len].fill(None);
                }
                return self.read_back(step.read);
            }
            Act::Record => return self.write_record(step, &data),
            Act::Bytes => {
                let got = self.face.write_bytes(step.offset, &data);
                assert_eq!(got.is_ok(), ok);
            }
            Act::Views => {
                let mut views = Segments::new();
                parts.iter().for_each(|(view, _)| views.push(view.clone()));
                let Some(got) = self.face.write_views(step.offset, &views) else {
                    return self.read_back(step.read);
                };
                assert_eq!(got.is_ok(), ok);
            }
            Act::Frame => {
                let mut frame = Frame::new();
                for (part, held) in &parts {
                    if *held {
                        frame.hold(part.clone());
                    } else {
                        frame.bytes_mut().extend_from_slice(part);
                    }
                }
                let Some(got) = self.face.write_frame(step.offset, &frame) else {
                    return self.read_back(step.read);
                };
                assert_eq!(got.is_ok(), ok);
            }
        }
        self.count(ok, len, true);
        if ok {
            self.model[at..at + len].copy_from_slice(&data);
            let mut pos = at;
            for (part, held) in &parts {
                for (i, cell) in self.holder[pos..pos + part.len()].iter_mut().enumerate() {
                    *cell = Some(match held {
                        true => Holder::Lent(part.as_ptr() as usize + i),
                        false => Holder::Owned,
                    });
                }
                pos += part.len();
            }
            let aligned = at.is_multiple_of(4096) && len.is_multiple_of(4096);
            if F::BLOCK_COPIES && step.act == Act::Views && aligned {
                // A block that two views make up is a copy.
                for block in self.holder[at..at + len].chunks_mut(4096) {
                    let Some(Holder::Lent(first)) = block[0] else {
                        unreachable!("held")
                    };
                    let one_view = block
                        .iter()
                        .enumerate()
                        .all(|(i, cell)| *cell == Some(Holder::Lent(first + i)));
                    if !one_view {
                        block.fill(Some(Holder::Copy));
                    }
                }
            }
            for (part, _) in &parts {
                self.loans.push((part.clone(), part.to_vec()));
            }
        }
        self.read_back(step.read);
    }

    /// Writes `data` as views of one record whose value has `step.lead`
    /// bytes before them and three after, a view per part, each on its own
    /// at the next offset; then reads back.
    fn write_record(&mut self, step: &Step, data: &[u8]) {
        let lead = (0..step.lead).map(|i| (i as u8).wrapping_mul(7) ^ step.fill);
        let value: Vec<u8> = lead.chain(data.iter().copied()).chain([0xA5; 3]).collect();
        let (shared, record) = Counted::record(value);
        let (mut at, mut from) = (step.offset, 0);
        for &part in &step.parts {
            let view = record.slice((step.lead + from) as u64, part as u64);
            let Some(got) = self.face.write_record(at, view) else {
                return self.read_back(step.read);
            };
            let ok = Self::in_bounds(at, part);
            assert_eq!(got.is_ok(), ok);
            self.count(ok, part, true);
            if ok {
                let range = at as usize..at as usize + part;
                self.model[range.clone()].copy_from_slice(&data[from..from + part]);
                self.holder[range].fill(Some(Holder::Recorded));
            }
            at += part as u64;
            from += part;
        }
        assert_eq!(shared.encodes(), 0, "a record write does not encode");
        self.records.push(shared);
        self.read_back(step.read);
    }

    /// Reads `[offset, offset + len)` back every way the face can.
    fn read_back(&mut self, (offset, len): (u64, usize)) {
        let ok = Self::in_bounds(offset, len);
        let range = offset as usize..offset as usize + len;
        let mut buf = vec![0xEE; len];
        let got = self.face.read_bytes(offset, &mut buf);
        assert_eq!(got.is_ok(), ok);
        self.count(ok, len, false);
        if !ok {
            if let Some(got) = self.face.read_frame(offset, len) {
                assert!(got.is_err());
            }
            if let Some(got) = self.face.read_payload(offset, len) {
                assert!(got.is_err());
            }
            assert_eq!(self.face.traffic(), self.counters);
            return;
        }
        assert!(buf == self.model[range.clone()], "bytes at {offset}+{len}");
        // Piece by piece: each byte as the kind of piece its holder says.
        if let Some(frame) = self.face.read_frame(offset, len) {
            self.check_frame(frame.unwrap(), range.clone());
        }
        // As one payload: a range one buffer holds is that buffer, a whole
        // never-written block is the zero view, and nothing else says zero.
        let Some(got) = self.face.read_payload(offset, len) else {
            return assert_eq!(self.face.traffic(), self.counters);
        };
        let got = got.unwrap();
        self.count(true, len, false);
        assert!(
            got == self.model[range.clone()].to_vec(),
            "payload at {offset}+{len}"
        );
        let lent = match self.holder[range.clone()] {
            [Some(Holder::Lent(first)), ..] => Some(first),
            _ => None,
        };
        let one_buffer = lent.filter(|first| {
            let holders = self.holder[range.clone()].iter().enumerate();
            holders
                .into_iter()
                .all(|(i, h)| *h == Some(Holder::Lent(first + i)))
        });
        if let Some(first) = one_buffer {
            assert_eq!(got.as_ptr() as usize, first, "the writer's buffer");
        }
        let block = len == 4096 && offset.is_multiple_of(4096);
        let never_written = block && self.holder[range].iter().all(Option::is_none);
        assert_eq!(got.is_zeros(), never_written, "zero view at {offset}+{len}");
        if never_written {
            assert!(std::ptr::eq(got.as_ptr(), zero_block().as_ptr()));
        }
        self.loans.push((got.clone(), got.to_vec()));
        assert_eq!(self.face.traffic(), self.counters);
    }

    /// Checks a frame read of `range`: the model's bytes, each handed back
    /// as the kind of piece its holder says.
    fn check_frame(&mut self, frame: Frame, range: std::ops::Range<usize>) {
        let (offset, len) = (range.start, range.len());
        self.count(true, len, false);
        assert!(
            frame.to_vec() == self.model[range.clone()],
            "frame at {offset}+{len}"
        );
        let mut pos = range.start;
        let mut held = frame.held().iter().peekable();
        let mut in_bytes = 0;
        while pos < range.end {
            match held.next_if(|(at, _)| *at == in_bytes) {
                Some((_, view)) => {
                    for (i, holder) in self.holder[pos..pos + view.len()].iter().enumerate() {
                        match holder {
                            Some(Holder::Lent(addr)) => {
                                assert_eq!(view.as_ptr() as usize + i, *addr, "a view, not a copy")
                            }
                            Some(Holder::Copy) => {}
                            other => panic!("{other:?} byte at {} handed out held", pos + i),
                        }
                    }
                    pos += view.len();
                }
                None => {
                    let holder = self.holder[pos];
                    assert!(
                        matches!(holder, None | Some(Holder::Owned | Holder::Recorded)),
                        "{holder:?} byte at {pos} handed out as bytes"
                    );
                    pos += 1;
                    in_bytes += 1;
                }
            }
        }
    }

    fn check_image(&mut self) {
        let mut image = vec![0; MODEL_BYTES];
        self.face.read_bytes(0, &mut image).unwrap();
        assert!(image == self.model, "image differs from the model");
        // The medium owns exactly the bytes byte writes left, and stores
        // exactly the bytes someone holds.
        let owned = self.holder.iter().filter(|h| **h == Some(Holder::Owned));
        assert_eq!(self.face.medium().resident_bytes(), owned.count() as u64);
        let stored = self.holder.iter().filter(|h| h.is_some());
        assert_eq!(self.face.medium().stored_bytes(), stored.count() as u64);
        // What was handed in or out is a loan: later writes, cuts and a
        // diverging clone never reach it.
        for (payload, then) in &self.loans {
            assert!(payload == then, "a loaned buffer changed");
        }
        // However its views were cut, overwritten, released or cloned, a
        // record was encoded at most once.
        for shared in &self.records {
            assert!(shared.encodes() <= 1, "{} encodings", shared.encodes());
        }
    }
}

/// Runs `before` on a fresh `face`, clones it, and runs `after` on the two
/// copies, each step on the one it names.
pub(crate) fn run<F: Face>(face: F, before: &[Step], after: &[Step]) {
    let mut a = Pair {
        face,
        model: vec![0; MODEL_BYTES],
        holder: vec![None; MODEL_BYTES],
        counters: DevCounters::default(),
        loans: Vec::new(),
        records: Vec::new(),
    };
    for step in before {
        a.apply(step);
    }
    let mut b = Pair {
        face: a.face.clone(),
        model: a.model.clone(),
        holder: a.holder.clone(),
        counters: a.counters,
        loans: a.loans.clone(),
        records: a.records.clone(),
    };
    for step in after {
        if step.on_fork {
            b.apply(step);
        } else {
            a.apply(step);
        }
    }
    a.check_image();
    b.check_image();
}
