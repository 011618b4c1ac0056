//! Conversions between [`ovcomm_densemat::BlockBuf`] blocks and
//! [`ovcomm_simmpi::Payload`] messages: row-major `f64`s in native byte
//! order for real blocks, the byte count alone for phantoms.

use ovcomm_densemat::{BlockBuf, Matrix};
use ovcomm_simmpi::Payload;

/// Serialize a block for sending.
pub fn block_to_payload(b: &BlockBuf) -> Payload {
    match b {
        BlockBuf::Real(m) => Payload::from_f64s(m.data()),
        BlockBuf::Phantom(..) => Payload::Phantom(b.byte_len()),
    }
}

/// Deserialize a received block with known dimensions.
pub fn payload_to_block(p: &Payload, rows: usize, cols: usize) -> BlockBuf {
    match p {
        Payload::Real(b) => {
            assert_eq!(b.len(), rows * cols * 8, "payload size mismatch");
            BlockBuf::Real(Matrix::from_vec(rows, cols, p.to_f64s()))
        }
        Payload::Phantom(n) => {
            assert_eq!(*n, rows * cols * 8, "phantom size mismatch");
            BlockBuf::Phantom(rows, cols)
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
        let back = payload_to_block(&p, 3, 4);
        assert_eq!(back.unwrap_real().max_abs_diff(&m), 0.0);
    }

    #[test]
    fn phantom_roundtrip() {
        let b = BlockBuf::Phantom(5, 2);
        let p = block_to_payload(&b);
        assert_eq!(p, Payload::Phantom(80));
        let back = payload_to_block(&p, 5, 2);
        assert!(back.is_phantom());
        assert_eq!(back.dims(), (5, 2));
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn real_length_mismatch_panics() {
        let p = block_to_payload(&BlockBuf::Real(Matrix::zeros(3, 4)));
        payload_to_block(&p, 4, 4);
    }

    #[test]
    #[should_panic(expected = "phantom size mismatch")]
    fn phantom_length_mismatch_panics() {
        payload_to_block(&Payload::Phantom(80), 5, 3);
    }
}
