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

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The bytes of a real payload: `data[range]`. Clones and slices share
/// `data`.
#[derive(Clone)]
pub struct Buf {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl From<Vec<u8>> for Buf {
    fn from(v: Vec<u8>) -> Buf {
        Buf {
            range: 0..v.len(),
            data: Arc::new(v),
        }
    }
}

impl Deref for Buf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
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
/// byte slices — the one sum behind `reduce_sum_f64` and RMA accumulate.
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

/// Data carried by a message: real bytes or a modeled byte count.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Actual data; transfers move (reference-counted) bytes end to end.
    Real(Buf),
    /// Size-only stand-in for paper-scale benchmarks.
    Phantom(usize),
}

impl Payload {
    /// A real payload over a `Vec<u8>`.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        Payload::Real(Buf::from(v))
    }

    /// A real payload holding `f64` values in native byte order.
    pub fn from_f64s(v: &[f64]) -> Payload {
        let mut bytes = vec![0u8; v.len() * 8];
        for (dst, x) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(v) {
            *dst = x.to_ne_bytes();
        }
        Payload::from_vec(bytes)
    }

    /// Interpret a real payload as `f64` values. Panics on phantom payloads
    /// or lengths that are not a multiple of 8.
    pub fn to_f64s(&self) -> Vec<f64> {
        match self {
            Payload::Real(b) => {
                assert!(
                    b.len() % 8 == 0,
                    "payload length {} not f64-aligned",
                    b.len()
                );
                let mut out = vec![0.0; b.len() / 8];
                for (x, c) in out.iter_mut().zip(b.as_chunks::<8>().0) {
                    *x = f64::from_ne_bytes(*c);
                }
                out
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
                data: b.data.clone(),
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
        if b.len() != b.data.len() {
            *b = Buf::from(b.to_vec());
        }
        Some(Arc::make_mut(&mut b.data).as_mut_slice())
    }

    /// Concatenate (copies real data; phantom is free). Both operands must
    /// have the same representation.
    pub fn concat(parts: &[Payload]) -> Payload {
        assert!(!parts.is_empty(), "concat of no parts");
        if parts.iter().any(Payload::is_phantom) {
            assert!(
                parts.iter().all(Payload::is_phantom),
                "cannot mix real and phantom payloads"
            );
            return Payload::Phantom(parts.iter().map(Payload::len).sum());
        }
        let mut out = Vec::with_capacity(parts.iter().map(Payload::len).sum());
        for p in parts {
            match p {
                Payload::Real(b) => out.extend_from_slice(b),
                Payload::Phantom(_) => unreachable!(),
            }
        }
        Payload::from_vec(out)
    }

    /// Element-wise `f64` sum of two payloads of equal length (the reduction
    /// operator used throughout the paper's kernels). Phantom + phantom is
    /// free; mixing representations panics.
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
                let mut out = a.to_vec();
                add_f64s(&mut out, b);
                Payload::from_vec(out)
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

    #[test]
    fn split_and_concat_roundtrip() {
        let p = Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]);
        let (a, b) = p.split_at(16);
        assert_eq!(a.to_f64s(), vec![1.0, 2.0]);
        assert_eq!(b.to_f64s(), vec![3.0, 4.0]);
        let back = Payload::concat(&[a, b]);
        assert_eq!(back.to_f64s(), vec![1.0, 2.0, 3.0, 4.0]);
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
