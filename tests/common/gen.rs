//! Seeded randomness shared by the generated test suites.

/// SplitMix64: the generated suite's only source of randomness.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Clone>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())].clone()
    }
}

/// The suite's seed: the CI matrix variable when set.
pub fn suite_seed() -> u64 {
    std::env::var("DASH_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(20_170_419)
}
