//! Offline shim for `rand` (0.8-style API).
//!
//! Provides the exact surface the workspace uses: `rngs::StdRng` seeded via
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}` over
//! half-open ranges, and `seq::SliceRandom::choose_multiple`.  The generator
//! is SplitMix64 — statistically solid for simulation workloads and fully
//! deterministic per seed (which the workspace's tests rely on).

use std::ops::Range;

/// Core entropy source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seedable generators (only the `seed_from_u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable uniformly from a half-open range.
pub trait SampleUniform: Sized + Copy {
    /// Uniform draw from `[lo, hi)`.  `lo >= hi` panics, matching rand.
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {
        $(impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u128;
                // Modulo bias is < span / 2^64 — negligible for the span
                // sizes used in this workspace.
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        })*
    };
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        lo + (hi - lo) * rng.next_f64()
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        lo + (hi - lo) * rng.next_f64() as f32
    }
}

/// Types with a "standard" distribution for `Rng::gen`.
pub trait Standard: Sized {
    /// Draws one value (unit interval for floats, full range for ints).
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Standard for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64() as f32
    }
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The user-facing generator trait.
pub trait Rng: RngCore {
    /// Draws from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }

    /// Uniform draw from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(range.start, range.end, self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// SplitMix64: one 64-bit state word, passes BigCrush when used as here
    /// (full 64-bit outputs), and cheap enough to seed per call site.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }
}

pub mod seq {
    //! Slice sampling helpers.

    use super::RngCore;
    use std::collections::HashMap;

    /// Random selection from slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Chooses `amount` distinct elements (fewer if the slice is
        /// shorter), in random order.
        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a Self::Item>;

        /// Chooses one element uniformly, or `None` for an empty slice.
        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a T> {
            let n = self.len();
            let amount = amount.min(n);
            // Partial Fisher–Yates over the index table `0..n`, of which
            // only the displaced entries are stored: step `i` reads slots
            // `i` and `j >= i` and never looks at slot `i` again, so the
            // map holds at most `amount` entries however long the slice.
            // One draw per pick, by the same rule as a dense table — a
            // generator shared with other decisions stays in step.
            let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(amount);
            let mut picked = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = i + (rng.next_u64() as usize) % (n - i);
                let at_i = displaced.remove(&i).unwrap_or(i);
                let at_j = if j == i {
                    at_i
                } else {
                    displaced.insert(j, at_i).unwrap_or(j)
                };
                picked.push(&self[at_j]);
            }
            picked.into_iter()
        }

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() as usize) % self.len()])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            let n = self.len();
            for i in (1..n).rev() {
                let j = (rng.next_u64() as usize) % (i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn float_range_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&v));
        }
    }

    #[test]
    fn int_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_interval_mean_is_half() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn choose_multiple_is_distinct() {
        let data: Vec<usize> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let picked: Vec<usize> = data.choose_multiple(&mut rng, 4).cloned().collect();
        assert_eq!(picked.len(), 4);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "duplicates in {picked:?}");
    }

    /// `choose_multiple` over a materialised index table: what the sparse
    /// version must reproduce, draw for draw.
    fn choose_multiple_dense<'a, T>(data: &'a [T], rng: &mut StdRng, amount: usize) -> Vec<&'a T> {
        use super::RngCore;
        let n = data.len();
        let amount = amount.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..amount {
            let j = i + (rng.next_u64() as usize) % (n - i);
            idx.swap(i, j);
        }
        idx[..amount].iter().map(|&i| &data[i]).collect()
    }

    #[test]
    fn sparse_choose_multiple_matches_the_dense_table() {
        for n in [1usize, 5, 32, 33, 5_000] {
            let data: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            for amount in [0, 1, 32, n, n + 3] {
                for seed in [1u64, 2, 3] {
                    let mut sparse_rng = StdRng::seed_from_u64(seed);
                    let mut dense_rng = sparse_rng.clone();
                    let sparse: Vec<&usize> =
                        data.choose_multiple(&mut sparse_rng, amount).collect();
                    let dense = choose_multiple_dense(&data, &mut dense_rng, amount);
                    assert_eq!(sparse, dense, "n {n} amount {amount} seed {seed}");
                    assert_eq!(
                        sparse_rng.gen::<u64>(),
                        dense_rng.gen::<u64>(),
                        "draw count differs: n {n} amount {amount}"
                    );
                }
            }
        }
    }

    #[test]
    fn choose_multiple_clamps_to_len() {
        let data = [1, 2, 3];
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(data.choose_multiple(&mut rng, 10).count(), 3);
    }
}
