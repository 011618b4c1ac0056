//! The benchmark's own input generator. `--seed` drives this and nothing
//! else: the crates under test receive only the generated inputs, never
//! the seed.

use ovcomm_densemat::Matrix;

/// SplitMix64: a small, well-mixed generator that is fully determined by
/// its 64-bit seed.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, workload)` pair, so adding a
    /// workload never shifts another workload's inputs.
    pub fn for_workload(seed: u64, workload: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in workload.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[centre - radius, centre + radius]`.
    pub fn jitter(&mut self, centre: usize, radius: usize) -> usize {
        let span = 2 * radius as u64 + 1;
        centre - radius + (self.next_u64() % span) as usize
    }
}

/// A dense symmetric `n × n` matrix with entries of magnitude ≲ 1/√n, so
/// that D² and D³ stay O(1) and the 1e-9·n oracle tolerance is meaningful.
pub fn symmetric_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let scale = 1.0 / (n as f64).sqrt();
    let mut m = Matrix::zeros(n, n);
    let data = m.data_mut();
    for i in 0..n {
        for j in i..n {
            let v = (2.0 * rng.next_f64() - 1.0) * scale;
            data[i * n + j] = v;
            data[j * n + i] = v;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_are_independent() {
        let a = symmetric_matrix(&mut Rng::for_workload(7, "w"), 16);
        let b = symmetric_matrix(&mut Rng::for_workload(7, "w"), 16);
        let c = symmetric_matrix(&mut Rng::for_workload(8, "w"), 16);
        let d = symmetric_matrix(&mut Rng::for_workload(7, "x"), 16);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert_ne!(a.data(), d.data());
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn jitter_stays_in_range_and_moves() {
        let mut rng = Rng::for_workload(1, "j");
        let vals: Vec<usize> = (0..200).map(|_| rng.jitter(7645, 32)).collect();
        assert!(vals.iter().all(|&v| (7613..=7677).contains(&v)));
        assert!(vals.iter().any(|&v| v != vals[0]));
    }
}
