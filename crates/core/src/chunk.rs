//! Chunk plans: the contiguous N_DUP division of a payload.
//!
//! §III-A of the paper: "data to be communicated is divided into multiple
//! parts and communicated using separate MPI communicators". Chunks are
//! contiguous (the paper warns that repacking costs can cancel the benefit
//! of overlap) and 8-byte aligned so `f64` elements never split.

use ovcomm_simmpi::plan::chunk_bounds;
use ovcomm_simmpi::Payload;

/// A contiguous, aligned partition of `n` bytes into `n_dup` chunks.
///
/// ```
/// use ovcomm_core::ChunkPlan;
/// use ovcomm_simmpi::Payload;
///
/// let payload = Payload::from_f64s(&[0.0, 1.0, 2.0, 3.0, 4.0]);
/// let plan = ChunkPlan::new(payload.len(), 2);
/// let chunks: Vec<Payload> = (0..2).map(|c| plan.slice(&payload, c)).collect();
/// assert_eq!(chunks[0].len() + chunks[1].len(), 40);
/// assert_eq!(plan.concat(&chunks).to_f64s(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    bounds: Vec<usize>,
}

impl ChunkPlan {
    /// Plan for `n` bytes in `n_dup` chunks. Chunks are balanced, 8-byte
    /// aligned (except possibly the last), and cover `n` exactly.
    pub fn new(n: usize, n_dup: usize) -> ChunkPlan {
        assert!(n_dup >= 1, "N_DUP must be at least 1");
        ChunkPlan {
            bounds: chunk_bounds(n, n_dup),
        }
    }

    /// Number of chunks.
    pub fn n_dup(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total bytes.
    pub fn total(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// (start, end) byte offsets of chunk `c`.
    pub fn range(&self, c: usize) -> (usize, usize) {
        (self.bounds[c], self.bounds[c + 1])
    }

    /// Byte length of chunk `c`.
    pub fn len(&self, c: usize) -> usize {
        self.bounds[c + 1] - self.bounds[c]
    }

    /// True iff the plan covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Zero-copy view of chunk `c` of `payload` (which must have exactly
    /// `total()` bytes).
    pub fn slice(&self, payload: &Payload, c: usize) -> Payload {
        assert_eq!(payload.len(), self.total(), "payload does not match plan");
        let (s, e) = self.range(c);
        payload.slice(s, e)
    }

    /// Split an optional payload (present only on roots) into per-chunk
    /// options.
    pub fn split_opt(&self, payload: Option<&Payload>) -> Vec<Option<Payload>> {
        (0..self.n_dup())
            .map(|c| payload.map(|p| self.slice(p, c)))
            .collect()
    }

    /// Reassemble chunks (in order) into the full payload.
    pub fn concat(&self, chunks: &[Payload]) -> Payload {
        assert_eq!(chunks.len(), self.n_dup(), "wrong number of chunks");
        for (c, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.len(), self.len(c), "chunk {c} has wrong length");
        }
        Payload::concat(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_exactly_and_aligned() {
        for (n, d) in [(100usize, 4usize), (1 << 20, 6), (24, 5), (0, 3), (7, 2)] {
            let plan = ChunkPlan::new(n, d);
            assert_eq!(plan.total(), n);
            assert_eq!(plan.n_dup(), d);
            let mut covered = 0;
            for c in 0..d {
                let (s, e) = plan.range(c);
                assert_eq!(s, covered);
                covered = e;
                if c + 1 < d {
                    assert_eq!(e % 8, 0, "interior boundary must be aligned");
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let p = Payload::from_f64s(&data);
        let plan = ChunkPlan::new(p.len(), 3);
        let chunks: Vec<Payload> = (0..3).map(|c| plan.slice(&p, c)).collect();
        assert_eq!(plan.concat(&chunks).to_f64s(), data);
    }

    #[test]
    fn phantom_chunks() {
        let p = Payload::Phantom(1000);
        let plan = ChunkPlan::new(1000, 4);
        let total: usize = (0..4).map(|c| plan.slice(&p, c).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn split_opt_roots_only() {
        let plan = ChunkPlan::new(32, 2);
        let p = Payload::from_f64s(&[1.0, 2.0, 3.0, 4.0]);
        let on_root = plan.split_opt(Some(&p));
        assert!(on_root.iter().all(Option::is_some));
        let off_root = plan.split_opt(None);
        assert!(off_root.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "N_DUP must be at least 1")]
    fn zero_ndup_rejected() {
        ChunkPlan::new(8, 0);
    }
}
