//! Message payloads.
//!
//! A payload is either **real** bytes (a [`Buf`] view of shared storage, so
//! chunking for the N_DUP pipelines of the paper is zero-copy) or a
//! **phantom** byte count.
//! Phantom payloads let paper-scale benchmarks (multi-GB matrices on 64–512
//! simulated ranks) run in bounded memory: the communication schedule and all
//! modeled times are byte-for-byte identical, only the data is absent.
//! Correctness of the algorithms is established separately at test scale with
//! real payloads. Only this module knows how real bytes are stored and summed.
//!
//! Real bytes live in 8-aligned `u64` words, so `f64` data is read, summed
//! and handed over a word at a time: [`Payload::from_f64_vec`] and
//! [`Payload::into_f64s`] adopt and return the `f64` allocation itself
//! whenever the payload is the only view of its whole buffer, and
//! [`Payload::as_f64s`] lends a word-aligned view's `f64`s in place.
//! [`Payload::concat`] of adjacent views of one buffer is one wider view,
//! so a block split into N_DUP chunks reassembles without a copy.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The bytes of a real payload: bytes `range` of `words`, in native order.
/// Clones and slices share `words`; bytes past the end of an odd-length
/// buffer are zero padding that no view covers.
#[derive(Clone)]
pub struct Buf {
    words: Arc<Vec<u64>>,
    range: Range<usize>,
}

/// Byte and `f64` views of word storage: the crate's one `unsafe`.
#[allow(unsafe_code)]
mod view {
    /// The `f64`s whose bits are the words of `w`.
    pub(super) fn f64s(w: &[u64]) -> &[f64] {
        // SAFETY: `f64` has the size and alignment of `u64` and every bit
        // pattern is a valid `f64`; the result covers exactly `w`,
        // borrowed for `w`'s lifetime.
        unsafe { std::slice::from_raw_parts(w.as_ptr().cast::<f64>(), w.len()) }
    }

    /// The native-order bytes of `w`.
    pub(super) fn bytes(w: &[u64]) -> &[u8] {
        // SAFETY: `u8` has alignment 1 and no invalid values, and the
        // result covers exactly the initialized bytes of `w`, borrowed for
        // `w`'s lifetime.
        unsafe { std::slice::from_raw_parts(w.as_ptr().cast::<u8>(), size_of_val(w)) }
    }

    /// The native-order bytes of `w`, for writing.
    pub(super) fn bytes_mut(w: &mut [u64]) -> &mut [u8] {
        // SAFETY: as in `bytes`; the result takes over the unique borrow of
        // `w`, and every byte pattern written leaves a valid `u64`.
        unsafe { std::slice::from_raw_parts_mut(w.as_mut_ptr().cast::<u8>(), size_of_val(w)) }
    }
}

impl Buf {
    /// A view of the first `len` bytes of `words`.
    fn new(words: Vec<u64>, len: usize) -> Buf {
        debug_assert_eq!(words.len(), len.div_ceil(8));
        Buf {
            words: Arc::new(words),
            range: 0..len,
        }
    }

    /// The view's words, when it starts and ends on a word boundary.
    fn words(&self) -> Option<&[u64]> {
        let Range { start, end } = self.range;
        (start % 8 == 0 && end % 8 == 0).then(|| &self.words[start / 8..end / 8])
    }

    /// Whether the view covers every word of its buffer.
    fn is_whole(&self) -> bool {
        self.range.start == 0 && self.range.end.div_ceil(8) == self.words.len()
    }
}

impl From<Vec<u8>> for Buf {
    fn from(v: Vec<u8>) -> Buf {
        let mut words = vec![0; v.len().div_ceil(8)];
        view::bytes_mut(&mut words)[..v.len()].copy_from_slice(&v);
        Buf::new(words, v.len())
    }
}

impl Deref for Buf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &view::bytes(&self.words)[self.range.clone()]
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        **self == **other
    }
}

/// At most the first 32 bytes, then the count of the rest.
impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for b in self.iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "…(+{})", self.len() - 32)?;
        }
        write!(f, "\"")
    }
}

/// `dst[i] += src[i]` over the native-order `f64`s of two equal-length
/// byte slices — RMA accumulate's sum, in place at any byte offset.
// `chunks_exact(8)` yields exactly-8-byte slices; the conversions cannot
// fail.
#[allow(clippy::unwrap_used)]
pub(crate) fn add_f64s(dst: &mut [u8], src: &[u8]) {
    assert!(
        dst.len() == src.len() && src.len().is_multiple_of(8),
        "f64 sum of unequal or non-f64-aligned byte slices"
    );
    for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
        let x =
            f64::from_ne_bytes(d.try_into().unwrap()) + f64::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&x.to_ne_bytes());
    }
}

/// The native-order 8-byte words of `bytes`, at any byte offset; a
/// trailing partial word is dropped.
fn f64_bits(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .as_chunks::<8>()
        .0
        .iter()
        .map(|c| u64::from_ne_bytes(*c))
}

/// Data carried by a message: real bytes or a modeled byte count.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Actual data; transfers move (reference-counted) bytes end to end.
    Real(Buf),
    /// Size-only stand-in for paper-scale benchmarks.
    Phantom(usize),
}

impl Payload {
    /// A real payload over a `Vec<u8>` (copied into word storage).
    pub fn from_vec(v: Vec<u8>) -> Payload {
        Payload::Real(Buf::from(v))
    }

    /// A real payload holding `f64` values in native byte order.
    pub fn from_f64s(v: &[f64]) -> Payload {
        let words: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        Payload::Real(Buf::new(words, v.len() * 8))
    }

    /// A real payload that adopts `v`'s allocation as its storage.
    pub fn from_f64_vec(v: Vec<f64>) -> Payload {
        let len = v.len() * 8;
        // Same size and alignment: the collect reuses `v`'s allocation.
        let words: Vec<u64> = v.into_iter().map(f64::to_bits).collect();
        Payload::Real(Buf::new(words, len))
    }

    /// Interpret a real payload as `f64` values. Panics on phantom payloads
    /// or lengths that are not a multiple of 8.
    pub fn to_f64s(&self) -> Vec<f64> {
        f64_bits(self.real_f64s()).map(f64::from_bits).collect()
    }

    /// [`to_f64s`](Payload::to_f64s) by value: returns the storage itself
    /// when this payload is the only view of its whole buffer, a copy
    /// otherwise.
    pub fn into_f64s(self) -> Vec<f64> {
        let whole = self.real_f64s().is_whole();
        match self {
            Payload::Real(Buf { words, .. }) if whole => match Arc::try_unwrap(words) {
                // Same size and alignment: the collect reuses the words.
                Ok(w) => w.into_iter().map(f64::from_bits).collect(),
                Err(shared) => shared.iter().map(|&x| f64::from_bits(x)).collect(),
            },
            other => other.to_f64s(),
        }
    }

    /// The `f64`s of a real payload, borrowed in place; `None` for a
    /// phantom or for a view that does not start and end on a word
    /// boundary of its buffer.
    pub fn as_f64s(&self) -> Option<&[f64]> {
        match self {
            Payload::Real(b) => b.words().map(view::f64s),
            Payload::Phantom(_) => None,
        }
    }

    /// The bytes of a real payload of whole `f64`s; panics otherwise.
    fn real_f64s(&self) -> &Buf {
        match self {
            Payload::Real(b) => {
                assert!(
                    b.len() % 8 == 0,
                    "payload length {} not f64-aligned",
                    b.len()
                );
                b
            }
            Payload::Phantom(_) => panic!("cannot read data out of a phantom payload"),
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        match self {
            Payload::Real(b) => b.len(),
            Payload::Phantom(n) => *n,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a phantom payload.
    pub fn is_phantom(&self) -> bool {
        matches!(self, Payload::Phantom(_))
    }

    /// Zero-copy split: returns `(self[..at], self[at..])`. `at` must be
    /// ≤ `len`. For `f64` data keep `at` a multiple of 8.
    pub fn split_at(&self, at: usize) -> (Payload, Payload) {
        let n = self.len();
        assert!(at <= n, "split_at {at} beyond length {n}");
        (self.slice(0, at), self.slice(at, n))
    }

    /// Zero-copy sub-range `self[start..end]`.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(
            start <= end && end <= self.len(),
            "bad slice {start}..{end}"
        );
        match self {
            Payload::Real(b) => Payload::Real(Buf {
                words: b.words.clone(),
                range: b.range.start + start..b.range.start + end,
            }),
            Payload::Phantom(_) => Payload::Phantom(end - start),
        }
    }

    /// The bytes of a real payload for writing, `None` for a phantom.
    /// Copies them first unless this payload is the only view of its
    /// whole buffer, so no clone or slice ever sees the write.
    pub(crate) fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        let Payload::Real(b) = self else {
            return None;
        };
        if !b.is_whole() {
            *b = Buf::from(b.to_vec());
        }
        let len = b.len();
        Some(&mut view::bytes_mut(Arc::make_mut(&mut b.words).as_mut_slice())[..len])
    }

    /// Concatenate (phantom is free). All parts must have the same
    /// representation. Parts that are adjacent views of one buffer, in
    /// order, whose joined view starts and ends on a word boundary make
    /// that one wider view; any other parts are copied into a fresh,
    /// word-aligned buffer.
    pub fn concat(parts: &[Payload]) -> Payload {
        assert!(!parts.is_empty(), "concat of no parts");
        if parts.iter().any(Payload::is_phantom) {
            assert!(
                parts.iter().all(Payload::is_phantom),
                "cannot mix real and phantom payloads"
            );
            return Payload::Phantom(parts.iter().map(Payload::len).sum());
        }
        let bufs: Vec<&Buf> = parts
            .iter()
            .map(|p| match p {
                Payload::Real(b) => b,
                Payload::Phantom(_) => unreachable!(),
            })
            .collect();
        let adjacent = bufs
            .windows(2)
            .all(|w| Arc::ptr_eq(&w[0].words, &w[1].words) && w[0].range.end == w[1].range.start);
        let joined = Buf {
            words: bufs[0].words.clone(),
            range: bufs[0].range.start..bufs[bufs.len() - 1].range.end,
        };
        if adjacent && joined.words().is_some() {
            return Payload::Real(joined);
        }
        let len: usize = parts.iter().map(Payload::len).sum();
        let words = match bufs.iter().map(|b| b.words()).collect::<Option<Vec<_>>>() {
            Some(w) => w.concat(),
            None => {
                let mut words = vec![0; len.div_ceil(8)];
                let mut at = 0;
                let out = view::bytes_mut(&mut words);
                for b in bufs {
                    out[at..at + b.len()].copy_from_slice(b);
                    at += b.len();
                }
                words
            }
        };
        Payload::Real(Buf::new(words, len))
    }

    /// Element-wise `f64` sum of two payloads of equal length into a fresh
    /// buffer (the reduction operator used throughout the paper's kernels).
    /// Phantom + phantom is free; mixing representations panics.
    pub fn reduce_sum_f64(&self, other: &Payload) -> Payload {
        assert_eq!(
            self.len(),
            other.len(),
            "reduce of unequal payloads ({} vs {})",
            self.len(),
            other.len()
        );
        match (self, other) {
            (Payload::Phantom(n), Payload::Phantom(_)) => Payload::Phantom(*n),
            (Payload::Real(a), Payload::Real(b)) => {
                assert!(
                    a.len().is_multiple_of(8),
                    "f64 sum of unequal or non-f64-aligned byte slices"
                );
                let sum = f64_bits(a)
                    .zip(f64_bits(b))
                    .map(|(x, y)| (f64::from_bits(x) + f64::from_bits(y)).to_bits())
                    .collect();
                Payload::Real(Buf::new(sum, a.len()))
            }
            _ => panic!("cannot reduce a real payload with a phantom one"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, 1e300];
        let p = Payload::from_f64s(&v);
        assert_eq!(p.len(), 32);
        assert_eq!(p.to_f64s(), v);
    }

    /// The address of a real payload's word storage.
    fn storage(p: &Payload) -> *const u64 {
        match p {
            Payload::Real(b) => b.words.as_ptr(),
            Payload::Phantom(_) => panic!("phantom payload has no storage"),
        }
    }

    #[test]
    fn split_and_concat_roundtrip() {
        let p = Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]);
        let (a, b) = p.split_at(16);
        assert_eq!(a.to_f64s(), vec![1.0, 2.0]);
        assert_eq!(b.to_f64s(), vec![3.0, 4.0]);
        let back = Payload::concat(&[a.clone(), b.clone()]);
        assert_eq!(back.to_f64s(), vec![1.0, 2.0, 3.0, 4.0]);
        // Adjacent views of one buffer reassemble in place: the same words,
        // and the same bytes as the copy of equal parts in two buffers.
        assert_eq!(storage(&back), storage(&p));
        assert_eq!(
            back.as_f64s().unwrap().as_ptr(),
            p.as_f64s().unwrap().as_ptr()
        );
        let copied = Payload::concat(&[Payload::from_f64s(&[1.0, 2.0]), b.clone()]);
        assert_ne!(storage(&copied), storage(&p));
        assert_eq!(bytes(&copied), bytes(&back));
        let mid = Payload::concat(&[p.slice(8, 16), p.slice(16, 24), p.slice(24, 24)]);
        assert_eq!(
            (storage(&mid), mid.to_f64s()),
            (storage(&p), vec![2.0, 3.0])
        );
        let one = Payload::concat(std::slice::from_ref(&b));
        assert_eq!(
            (storage(&one), one.to_f64s()),
            (storage(&p), vec![3.0, 4.0])
        );
        // Reversed, gapped and cross-buffer parts are copied.
        let twin = Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]);
        for (parts, want) in [
            ([b.clone(), a.clone()], vec![3.0, 4.0, 1.0, 2.0]),
            ([p.slice(0, 8), p.slice(16, 32)], vec![1.0, 3.0, 4.0]),
            ([a.clone(), twin.slice(16, 32)], vec![1.0, 2.0, 3.0, 4.0]),
        ] {
            let out = Payload::concat(&parts);
            assert_ne!(storage(&out), storage(&p), "{want:?}");
            assert_ne!(storage(&out), storage(&twin), "{want:?}");
            assert_eq!(out.to_f64s(), want);
        }
    }

    #[test]
    fn phantom_split_concat() {
        let p = Payload::Phantom(100);
        let (a, b) = p.split_at(30);
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 70);
        assert_eq!(Payload::concat(&[a, b]).len(), 100);
    }

    #[test]
    fn reduce_sums_elementwise() {
        let a = Payload::from_f64s(&[1.0, 2.0]);
        let b = Payload::from_f64s(&[10.0, 20.0]);
        assert_eq!(a.reduce_sum_f64(&b).to_f64s(), vec![11.0, 22.0]);
    }

    #[test]
    fn reduce_phantom_is_free() {
        let a = Payload::Phantom(64);
        let b = Payload::Phantom(64);
        assert_eq!(a.reduce_sum_f64(&b), Payload::Phantom(64));
    }

    #[test]
    #[should_panic(expected = "cannot reduce a real payload with a phantom")]
    fn reduce_mixed_panics() {
        let a = Payload::from_f64s(&[1.0]);
        let b = Payload::Phantom(8);
        a.reduce_sum_f64(&b);
    }

    #[test]
    #[should_panic(expected = "unequal payloads")]
    fn reduce_unequal_panics() {
        Payload::from_f64s(&[1.0]).reduce_sum_f64(&Payload::from_f64s(&[1.0, 2.0]));
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let p = Payload::from_f64s(&[1.0, 2.0, 3.0]);
        let s = p.slice(8, 24);
        assert_eq!(s.to_f64s(), vec![2.0, 3.0]);
        // Word-aligned real views lend their f64s in place; phantoms and
        // views off a word boundary lend nothing.
        assert_eq!(s.as_f64s(), Some(&[2.0, 3.0][..]));
        assert_eq!(
            s.as_f64s().unwrap().as_ptr(),
            p.as_f64s().unwrap()[1..].as_ptr()
        );
        assert_eq!(p.slice(8, 8).as_f64s(), Some(&[][..]));
        assert_eq!(p.slice(4, 20).as_f64s(), None);
        assert_eq!(p.slice(8, 20).as_f64s(), None);
        assert_eq!(Payload::Phantom(24).as_f64s(), None);
    }

    fn bytes(p: &Payload) -> Vec<u8> {
        match p {
            Payload::Real(b) => b.to_vec(),
            Payload::Phantom(_) => panic!("phantom payload has no bytes"),
        }
    }

    #[test]
    fn odd_length_bytes_round_trip_through_slice_concat_and_bytes_mut() {
        let data: Vec<u8> = (1..=13).collect();
        let whole = Payload::from_vec(data.clone());
        assert_eq!(whole.len(), 13);
        assert_eq!(bytes(&whole), data);
        let (head, tail) = whole.split_at(5);
        assert_eq!(bytes(&head), data[..5]);
        assert_eq!(bytes(&tail), data[5..]);
        assert_eq!(bytes(&whole.slice(3, 10)), data[3..10]);
        assert_eq!(Payload::concat(&[head.clone(), tail.clone()]), whole);
        let shuffled = Payload::concat(&[whole.slice(7, 13), whole.slice(0, 3), whole.slice(3, 7)]);
        let want: Vec<u8> = data[7..].iter().chain(&data[..7]).copied().collect();
        assert_eq!(bytes(&shuffled), want);

        let mut mid = whole.slice(2, 9);
        mid.bytes_mut().unwrap().fill(0xff);
        let mut own = Payload::from_vec(data.clone());
        own.bytes_mut().unwrap()[12] = 0;
        let mut copy = whole.clone();
        copy.bytes_mut().unwrap()[0] = 0xee;
        assert_eq!(bytes(&mid), vec![0xff; 7]);
        assert_eq!(own.len(), 13);
        assert_eq!(bytes(&own)[..12], data[..12]);
        assert_eq!(bytes(&own)[12], 0);
        assert_eq!(copy.len(), 13);
        assert_eq!(bytes(&copy)[0], 0xee);
        assert_eq!(bytes(&copy)[1..], data[1..]);
        // Every other view still reads the original bytes.
        assert_eq!(bytes(&whole), data);
        assert_eq!(bytes(&head), data[..5]);
        assert_eq!(bytes(&tail), data[5..]);
        assert_eq!(bytes(&shuffled), want);
        let again = Payload::concat(&[mid, copy.slice(9, 13)]);
        assert_eq!(bytes(&again), [vec![0xff; 7], data[9..].to_vec()].concat());
    }

    #[test]
    fn debug_shows_the_first_32_bytes_then_the_rest_count() {
        let p = Payload::from_vec((0..40).collect());
        assert_eq!(format!("{p:?}"), PIN_DEBUG_40);
        assert_eq!(
            format!("{:?}", p.slice(3, 8)),
            r#"Real(b"\x03\x04\x05\x06\x07")"#
        );
        assert_eq!(format!("{:?}", Payload::Phantom(40)), "Phantom(40)");
    }

    const PIN_DEBUG_40: &str = "Real(b\"\\x00\\x01\\x02\\x03\\x04\\x05\\x06\\x07\\x08\\x09\\x0a\\x0b\\x0c\\x0d\\x0e\\x0f\\x10\\x11\\x12\\x13\\x14\\x15\\x16\\x17\\x18\\x19\\x1a\\x1b\\x1c\\x1d\\x1e\\x1f…(+8)\")";

    #[test]
    fn f64_vecs_are_adopted_and_handed_back_without_a_copy() {
        let v = vec![1.5, -2.0, 3.25, 0.0];
        let addr = v.as_ptr();
        let p = Payload::from_f64_vec(v);
        assert_eq!(p, Payload::from_f64s(&[1.5, -2.0, 3.25, 0.0]));
        let back = p.into_f64s();
        assert_eq!(back, vec![1.5, -2.0, 3.25, 0.0]);
        assert_eq!(back.as_ptr(), addr);
    }

    #[test]
    fn into_f64s_copies_a_shared_or_sliced_payload() {
        let whole = Payload::from_f64_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let before = bytes(&whole);
        let mut shared = whole.clone().into_f64s();
        shared[0] = 9.0;
        let mut tail = whole.slice(8, 32).into_f64s();
        tail[0] = 7.0;
        assert_eq!(
            (shared, tail),
            (vec![9.0, 2.0, 3.0, 4.0], vec![7.0, 3.0, 4.0])
        );
        assert_eq!(bytes(&whole), before);
        // The sole remaining view of part of a buffer is still a copy.
        let head = whole.slice(0, 16);
        drop(whole);
        let mut own = head.clone().into_f64s();
        own[1] = 5.0;
        assert_eq!(head.into_f64s(), vec![1.0, 2.0]);
    }

    #[test]
    fn views_off_word_boundaries_read_and_sum_bytewise() {
        let data: Vec<u8> = [0.5f64, 1.5, -2.0, 8.0]
            .iter()
            .flat_map(|x| x.to_ne_bytes())
            .collect();
        // Three bytes of padding in front: every f64 sits off a word.
        let shifted = Payload::from_vec([vec![0xcc; 3], data.clone()].concat()).slice(3, 35);
        assert_eq!(shifted.to_f64s(), vec![0.5, 1.5, -2.0, 8.0]);
        assert_eq!(shifted.clone().into_f64s(), vec![0.5, 1.5, -2.0, 8.0]);
        let aligned = Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]);
        let want = vec![1.5, 3.5, 1.0, 12.0];
        assert_eq!(shifted.reduce_sum_f64(&aligned).to_f64s(), want);
        assert_eq!(aligned.reduce_sum_f64(&shifted).to_f64s(), want);
        assert_eq!(shifted.as_f64s(), None);
        // Adjacent in one buffer but off its words: still a copy, and the
        // copy is word-aligned.
        let base = Payload::from_vec([vec![0xcc; 3], data.clone()].concat());
        let rejoined = Payload::concat(&[base.slice(3, 11), base.slice(11, 35)]);
        assert_ne!(storage(&rejoined), storage(&base));
        assert_eq!(rejoined.as_f64s(), Some(&[0.5, 1.5, -2.0, 8.0][..]));
        assert_eq!(
            bytes(&Payload::concat(&[shifted, aligned.slice(0, 8)]))[..32],
            data
        );
    }

    #[test]
    fn bytes_mut_leaves_other_views_alone() {
        let whole = Payload::from_f64s(&[1.0, 2.0, 3.0]);
        let mut clone = whole.clone();
        let mut tail = whole.slice(8, 24);
        clone.bytes_mut().unwrap().fill(0);
        tail.bytes_mut().unwrap()[..8].copy_from_slice(&9.0f64.to_ne_bytes());
        assert_eq!(whole.to_f64s(), vec![1.0, 2.0, 3.0]);
        assert_eq!(clone.to_f64s(), vec![0.0; 3]);
        assert_eq!(tail.to_f64s(), vec![9.0, 3.0]);
        assert_eq!(Payload::Phantom(8).bytes_mut(), None);
    }
}
