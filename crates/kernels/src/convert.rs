//! Conversions between [`ovcomm_densemat::BlockBuf`] blocks and
//! [`ovcomm_simmpi::Payload`] messages: row-major `f64`s in native byte
//! order for real blocks, the byte count alone for phantoms.
//!
//! A received block that is only read by a multiply stays in its payload
//! and is viewed in place with [`payload_view`]; [`payload_into_block`]
//! is for blocks a kernel returns or mutates.

use ovcomm_densemat::{BlockBuf, BlockRef, MatRef, Matrix};
use ovcomm_simmpi::Payload;

/// Serialize a block for sending.
pub fn block_to_payload(b: &BlockBuf) -> Payload {
    match b {
        BlockBuf::Real(m) => Payload::from_f64s(m.data()),
        BlockBuf::Phantom(..) => Payload::Phantom(b.byte_len()),
    }
}

/// [`block_to_payload`] by value: the payload adopts a real block's
/// storage.
pub fn block_into_payload(b: BlockBuf) -> Payload {
    match b {
        BlockBuf::Real(m) => Payload::from_f64_vec(m.into_vec()),
        BlockBuf::Phantom(..) => Payload::Phantom(b.byte_len()),
    }
}

/// Deserialize a received block with known dimensions; the block adopts
/// the payload's storage when the payload is the only view of its whole
/// buffer.
pub fn payload_into_block(p: Payload, rows: usize, cols: usize) -> BlockBuf {
    match p {
        Payload::Real(_) => {
            assert_eq!(p.len(), rows * cols * 8, "payload size mismatch");
            BlockBuf::Real(Matrix::from_vec(rows, cols, p.into_f64s()))
        }
        Payload::Phantom(n) => {
            assert_eq!(n, rows * cols * 8, "phantom size mismatch");
            BlockBuf::Phantom(rows, cols)
        }
    }
}

/// A received `rows` × `cols` block, read where it landed: a view of the
/// payload's `f64`s, or a phantom's shape. Nothing is copied. Every block
/// the kernels send is whole words of its buffer (blocks serialise
/// word-aligned and chunk plans cut at 8-byte bounds), so a real payload
/// off its buffer's words panics.
pub fn payload_view(p: &Payload, rows: usize, cols: usize) -> BlockRef<'_> {
    match p {
        Payload::Real(_) => {
            assert_eq!(p.len(), rows * cols * 8, "payload size mismatch");
            let Some(data) = p.as_f64s() else {
                panic!("received block is not whole words of its buffer")
            };
            BlockRef::Real(MatRef::new(data, rows, cols))
        }
        Payload::Phantom(n) => {
            assert_eq!(*n, rows * cols * 8, "phantom size mismatch");
            BlockRef::Phantom(rows, cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_roundtrip() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let b = BlockBuf::Real(m.clone());
        let p = block_to_payload(&b);
        assert_eq!(p.len(), 96);
        let back = payload_into_block(p.clone(), 3, 4);
        assert_eq!(back.unwrap_real().max_abs_diff(&m), 0.0);
        let view = payload_view(&p, 3, 4);
        assert!(matches!(view, BlockRef::Real(_)));
        assert_eq!(view.dims(), (3, 4));
        let mut c = BlockBuf::zeros(3, 3, false);
        c.gemm_acc(view, view.t());
        assert_eq!(
            c.unwrap_real(),
            &ovcomm_densemat::gemm_naive(&m, &m.transpose())
        );
    }

    #[test]
    fn by_value_roundtrip_keeps_the_matrix_allocation() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let b = BlockBuf::Real(m.clone());
        let addr = b.unwrap_real().data().as_ptr();
        let p = block_into_payload(b);
        assert_eq!(p, block_to_payload(&BlockBuf::Real(m.clone())));
        assert_eq!(payload_view(&p, 3, 4).t().dims(), (4, 3));
        let back = payload_into_block(p, 3, 4);
        assert_eq!(back.unwrap_real().max_abs_diff(&m), 0.0);
        assert_eq!(back.unwrap_real().data().as_ptr(), addr);
        let phantom = block_into_payload(BlockBuf::Phantom(5, 2));
        assert_eq!(phantom, Payload::Phantom(80));
        assert_eq!(payload_into_block(phantom, 5, 2).dims(), (5, 2));
    }

    #[test]
    fn phantom_roundtrip() {
        let b = BlockBuf::Phantom(5, 2);
        let p = block_to_payload(&b);
        assert_eq!(p, Payload::Phantom(80));
        assert_eq!(payload_view(&p, 5, 2).t().dims(), (2, 5));
        let back = payload_into_block(p, 5, 2);
        assert!(back.is_phantom());
        assert_eq!(back.dims(), (5, 2));
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn real_length_mismatch_panics() {
        let p = block_to_payload(&BlockBuf::Real(Matrix::zeros(3, 4)));
        payload_view(&p, 4, 4);
    }

    #[test]
    #[should_panic(expected = "phantom size mismatch")]
    fn phantom_length_mismatch_panics() {
        payload_into_block(Payload::Phantom(80), 5, 3);
    }
}
