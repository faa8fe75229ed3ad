//! SplitMix64: the one deterministic generator of the workspace — workload
//! shaping, fault injection, retry jitter and seeded tests all draw from
//! it, so identical seeds give identical datasets, fault fates and test
//! cases on every platform without a dependency.

/// The SplitMix64 increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 stream. The field is the raw state: `SplitMix64(s)`
/// starts from `s` itself, while [`SplitMix64::new`] seeds it the way the
/// workload generators and fault injection do.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Seeds the generator (the state starts one increment past `seed`).
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(GAMMA))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`. Always draws, even when `p` is zero.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs from seed 0 of the reference SplitMix64
    /// (Vigna's `splitmix64.c`, whose state starts at the seed itself).
    #[test]
    fn raw_state_matches_the_reference_stream() {
        let mut rng = SplitMix64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(SplitMix64::new(0).next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
