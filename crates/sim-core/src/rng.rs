//! Deterministic, forkable randomness.
//!
//! Every experiment in the workspace is driven by a single `u64` seed.
//! Subsystems (workload generators, scheduler tie-breaking, request
//! arrivals) each get an independent stream via [`SimRng::fork`], so adding
//! randomness consumption to one subsystem never perturbs another — a
//! property the reproduction relies on when comparing five schedulers on
//! identical workloads.
//!
//! The generator is a self-contained ChaCha8 stream cipher core (64-bit
//! block counter, 64-bit stream id), buffered four blocks at a time. Seeding
//! expands the `u64` experiment seed into a 256-bit key with a PCG32 step,
//! and integer ranges are drawn with widening-multiply rejection, so the
//! byte stream and all derived draws are identical across platforms.
//!
//! A refill computes its four blocks side by side: state word *w* is one
//! four-lane vector whose lane *l* belongs to block *l* (counter + *l*), so
//! every quarter-round step advances all four blocks in one instruction.
//! On `x86_64` the lanes are SSE2 registers (SSE2 is part of the baseline,
//! so there is no runtime detection); a 4×4 transpose then stores each
//! block's words contiguously, in the order the one-block-at-a-time
//! `ChaCha8::block` writes them. Other architectures refill through that
//! scalar `block`, which also serves as the test oracle for the lanes.

/// Number of `u32` words buffered per refill (four 16-word ChaCha blocks).
const BUF_WORDS: usize = 64;

/// The ChaCha constant words ("expand 32-byte k").
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha8 block generator state: 256-bit key, 64-bit counter, 64-bit
/// stream id (always zero here).
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means "empty, refill".
    index: usize,
}

#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    fn new(key: [u32; 8]) -> Self {
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// Compute one 64-byte ChaCha8 block for the given counter value.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut s: [u32; 16] = [
            SIGMA[0],
            SIGMA[1],
            SIGMA[2],
            SIGMA[3],
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter as u32,
            (counter >> 32) as u32,
            0,
            0,
        ];
        let init = s;
        // ChaCha8: four double-rounds.
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for i in 0..16 {
            out[i] = s[i].wrapping_add(init[i]);
        }
    }

    fn refill(&mut self) {
        // SAFETY: `sse2_lanes::fill` only requires the SSE2 target feature,
        // which is part of the `x86_64` baseline: every `x86_64` CPU has it
        // and every `x86_64` target enables it.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            sse2_lanes::fill(&self.key, self.counter, &mut self.buf)
        };
        #[cfg(not(target_arch = "x86_64"))]
        self.fill_scalar();
        self.counter = self.counter.wrapping_add(4);
        self.index = 0;
    }

    /// Fill `buf` with the blocks at `counter .. counter + 4`, one
    /// [`ChaCha8::block`] call each.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn fill_scalar(&mut self) {
        for blk in 0..4 {
            let counter = self.counter.wrapping_add(blk as u64);
            let mut words = [0u32; 16];
            self.block(counter, &mut words);
            self.buf[blk * 16..blk * 16 + 16].copy_from_slice(&words);
        }
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Mirror rand_core's BlockRng: consume two adjacent words when
        // available, otherwise stitch across the refill boundary.
        if self.index < BUF_WORDS - 1 {
            let lo = self.buf[self.index];
            let hi = self.buf[self.index + 1];
            self.index += 2;
            (u64::from(hi) << 32) | u64::from(lo)
        } else if self.index >= BUF_WORDS {
            self.refill();
            let lo = self.buf[0];
            let hi = self.buf[1];
            self.index = 2;
            (u64::from(hi) << 32) | u64::from(lo)
        } else {
            let lo = self.buf[BUF_WORDS - 1];
            self.refill();
            let hi = self.buf[0];
            self.index = 1;
            (u64::from(hi) << 32) | u64::from(lo)
        }
    }
}

/// The four-lane ChaCha8 refill on SSE2 (see the module docs).
#[cfg(target_arch = "x86_64")]
mod sse2_lanes {
    use super::{BUF_WORDS, SIGMA};
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// The scalar `quarter_round` on four blocks at once.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(s: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl::<16, 16>(_mm_xor_si128(s[d], s[a]));
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl::<12, 20>(_mm_xor_si128(s[b], s[c]));
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl::<8, 24>(_mm_xor_si128(s[d], s[a]));
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl::<7, 25>(_mm_xor_si128(s[b], s[c]));
    }

    /// Write the blocks at `counter .. counter + 4` (wrapping) into `buf`,
    /// block `l` at words `16l .. 16l + 16`.
    #[target_feature(enable = "sse2")]
    pub(super) fn fill(key: &[u32; 8], counter: u64, buf: &mut [u32; BUF_WORDS]) {
        let splat = |w: u32| _mm_set1_epi32(w as i32);
        // Each lane's counter is a full 64-bit add, so lanes that straddle
        // a carry into the high word (or the wrap) match `block` exactly.
        let ctr: [u64; 4] = std::array::from_fn(|l| counter.wrapping_add(l as u64));
        let lo = |l: usize| ctr[l] as u32 as i32;
        let hi = |l: usize| (ctr[l] >> 32) as u32 as i32;
        let init: [__m128i; 16] = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            _mm_setr_epi32(lo(0), lo(1), lo(2), lo(3)),
            _mm_setr_epi32(hi(0), hi(1), hi(2), hi(3)),
            _mm_setzero_si128(),
            _mm_setzero_si128(),
        ];
        let mut s = init;
        // ChaCha8: four double-rounds.
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        // Transpose each group of four words from word-major lanes to
        // block-major rows: row `l` of group `g` is words `4g .. 4g + 4` of
        // block `l`, stored at `buf[16l + 4g ..]`.
        for g in 0..4 {
            let w = |j: usize| _mm_add_epi32(s[4 * g + j], init[4 * g + j]);
            let (w0, w1, w2, w3) = (w(0), w(1), w(2), w(3));
            let t0 = _mm_unpacklo_epi32(w0, w1); // words 0, 1 of blocks 0, 1
            let t1 = _mm_unpacklo_epi32(w2, w3); // words 2, 3 of blocks 0, 1
            let t2 = _mm_unpackhi_epi32(w0, w1); // words 0, 1 of blocks 2, 3
            let t3 = _mm_unpackhi_epi32(w2, w3); // words 2, 3 of blocks 2, 3
            let rows = [
                _mm_unpacklo_epi64(t0, t1),
                _mm_unpackhi_epi64(t0, t1),
                _mm_unpacklo_epi64(t2, t3),
                _mm_unpackhi_epi64(t2, t3),
            ];
            for (l, row) in rows.into_iter().enumerate() {
                let dst = &mut buf[16 * l + 4 * g..16 * l + 4 * g + 4];
                // SAFETY: `dst` is four in-bounds `u32`s, exactly the 16
                // bytes the store writes, and `storeu` has no alignment
                // requirement.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast::<__m128i>(), row) };
            }
        }
    }
}

/// [`SimRng::normal_clamped`] with its parameters fixed and its clamp
/// bounds checked once, at construction (at compile time in a `const`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampedNormal {
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
}

impl ClampedNormal {
    /// Panics unless `min <= max` (so also for a NaN bound).
    pub const fn new(mean: f64, std_dev: f64, min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid clamp bounds");
        ClampedNormal {
            mean,
            std_dev,
            min,
            max,
        }
    }

    /// One draw from `rng`; the same draws, in the same order, as
    /// [`SimRng::normal_clamped`] with these parameters.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        for _ in 0..16 {
            // Box-Muller transform.
            let u1: f64 = rng.unit().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.unit();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = self.mean + self.std_dev * z;
            if (self.min..=self.max).contains(&v) {
                return v;
            }
        }
        self.mean.clamp(self.min, self.max)
    }
}

/// Expand a `u64` seed into a 256-bit ChaCha key, one 32-bit PCG step per
/// word (the same expansion rand_core uses for `seed_from_u64`).
fn expand_seed(mut state: u64) -> [u32; 8] {
    const MUL: u64 = 6_364_136_223_846_793_005;
    const INC: u64 = 11_634_580_027_462_260_723;
    let mut key = [0u32; 8];
    for w in key.iter_mut() {
        state = state.wrapping_mul(MUL).wrapping_add(INC);
        let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
        let rot = (state >> 59) as u32;
        *w = xorshifted.rotate_right(rot);
    }
    key
}

/// Types that [`SimRng::range`] can sample uniformly from a half-open range.
pub trait UniformSample: Copy + PartialOrd {
    fn sample_range(rng: &mut SimRng, low: Self, high: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $next:ident) => {
        impl UniformSample for $ty {
            fn sample_range(rng: &mut SimRng, low: Self, high: Self) -> Self {
                assert!(low < high, "empty range in SimRng::range");
                let span = (high as $unsigned).wrapping_sub(low as $unsigned);
                // Widening-multiply rejection (Lemire): unbiased and uses
                // one draw in the common case.
                let zone = (span << span.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.chacha.$next() as $unsigned;
                    let m = (v as $large) * (span as $large);
                    let lo = m as $unsigned;
                    if lo <= zone {
                        let hi = (m >> <$unsigned>::BITS) as $unsigned;
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

impl_uniform_int!(u32, u32, u64, next_u32);
impl_uniform_int!(i32, u32, u64, next_u32);
impl_uniform_int!(u64, u64, u128, next_u64);
impl_uniform_int!(i64, u64, u128, next_u64);
impl_uniform_int!(usize, u64, u128, next_u64);

impl UniformSample for f64 {
    fn sample_range(rng: &mut SimRng, low: Self, high: Self) -> Self {
        assert!(low < high, "empty range in SimRng::range");
        let v = low + (high - low) * rng.unit();
        // Guard against rounding up to the excluded endpoint.
        if v < high {
            v
        } else {
            low.max(f64::from_bits(high.to_bits() - 1))
        }
    }
}

/// Seeded random source used throughout the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    chacha: ChaCha8,
}

impl SimRng {
    /// Create a root stream from an experiment seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            chacha: ChaCha8::new(expand_seed(seed)),
        }
    }

    /// Derive an independent child stream.
    ///
    /// The child is keyed by `(parent seed material, label)` so that two
    /// forks with different labels are decorrelated, and forking is
    /// insensitive to how much the parent has already been consumed only in
    /// the sense that the caller controls ordering: fork all children before
    /// drawing from the parent when strict independence is required.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample from a half-open range, e.g. `rng.range(0..8)`.
    pub fn range<T: UniformSample>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Uniform `f64` in `[0, 1)`: 53 random mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    /// Returns `None` for an empty slice.
    pub fn index(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.range(0..len))
        }
    }

    /// Sample an exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u: f64 = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Sample a Poisson-distributed count with the given rate `lambda`.
    ///
    /// Uses Knuth's inversion-by-multiplication for small rates and falls
    /// back to a clamped-normal approximation above `lambda = 30` so the
    /// draw cost stays bounded. `lambda <= 0` returns 0 without consuming
    /// any randomness, mirroring the zero-rate discipline of the fault
    /// injector (disabled fault classes must not perturb other streams).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let v = self.normal_clamped(lambda, lambda.sqrt(), 0.0, lambda * 8.0);
            return v.round() as u64;
        }
        let limit = (-lambda).exp();
        let mut product = self.unit();
        let mut count = 0u64;
        while product > limit {
            product *= self.unit();
            count += 1;
        }
        count
    }

    /// Sample a truncated normal value (resampled into `[min, max]`, with a
    /// clamp fallback after a bounded number of rejections). A caller
    /// that draws with the same parameters in a loop builds a
    /// [`ClampedNormal`] once instead: the bounds check then runs once.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64, max: f64) -> f64 {
        ClampedNormal::new(mean, std_dev, min, max).sample(self)
    }

    /// Next raw 32-bit draw from the stream.
    pub fn next_u32(&mut self) -> u32 {
        self.chacha.next_u32()
    }

    /// Next raw 64-bit draw from the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.chacha.next_u64()
    }

    /// Fill a byte slice from the stream (little-endian word order).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "streams should be decorrelated, {same} collisions"
        );
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let mut root = SimRng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_reproducible() {
        let mut r1 = SimRng::seed_from(9);
        let mut r2 = SimRng::seed_from(9);
        let mut a = r1.fork(5);
        let mut b = r2.fork(5);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!((0..100).all(|_| rng.chance(1.0)));
        assert!((0..100).all(|_| !rng.chance(0.0)));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn index_handles_empty() {
        let mut rng = SimRng::seed_from(6);
        assert_eq!(rng.index(0), None);
        let i = rng.index(5).unwrap();
        assert!(i < 5);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(8);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_zero_rate_consumes_no_randomness() {
        let mut a = SimRng::seed_from(13);
        let mut b = SimRng::seed_from(13);
        assert_eq!(a.poisson(0.0), 0);
        assert_eq!(a.poisson(-1.0), 0);
        // Stream position must be untouched.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = SimRng::seed_from(14);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(3.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_tail() {
        let mut rng = SimRng::seed_from(15);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn poisson_is_deterministic() {
        let mut a = SimRng::seed_from(16);
        let mut b = SimRng::seed_from(16);
        for _ in 0..100 {
            assert_eq!(a.poisson(1.5), b.poisson(1.5));
        }
    }

    #[test]
    #[should_panic(expected = "invalid clamp bounds")]
    fn clamped_normal_rejects_inverted_bounds() {
        ClampedNormal::new(0.0, 1.0, 3.0, -3.0);
    }

    #[test]
    #[should_panic(expected = "invalid clamp bounds")]
    fn clamped_normal_rejects_nan_bounds() {
        ClampedNormal::new(0.0, 1.0, f64::NAN, 3.0);
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = SimRng::seed_from(10);
        for _ in 0..1000 {
            let v = rng.normal_clamped(1.0, 5.0, 0.0, 2.0);
            assert!((0.0..=2.0).contains(&v));
        }
    }

    #[test]
    fn range_draws_inclusive_exclusive() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..100 {
            let v: u32 = rng.range(3..7);
            assert!((3..7).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        let mut a = SimRng::seed_from(12);
        let mut b = SimRng::seed_from(12);
        let mut buf = [0u8; 10];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u32().to_le_bytes();
        let w1 = b.next_u32().to_le_bytes();
        let w2 = b.next_u32().to_le_bytes();
        assert_eq!(&buf[..4], &w0);
        assert_eq!(&buf[4..8], &w1);
        assert_eq!(&buf[8..], &w2[..2]);
    }

    /// The raw keystream for an all-zero key must match the published
    /// ChaCha8 test vector (first block, counter 0).
    #[test]
    fn chacha8_zero_key_test_vector() {
        let mut c = ChaCha8::new([0u32; 8]);
        let expected_first_bytes: [u8; 16] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1,
        ];
        let mut got = [0u8; 16];
        for (i, chunk) in got.chunks_exact_mut(4).enumerate() {
            let _ = i;
            chunk.copy_from_slice(&c.next_u32().to_le_bytes());
        }
        assert_eq!(got, expected_first_bytes);
    }

    /// The refill `next_u32` uses must produce, word for word, what four
    /// scalar `block` calls at `counter .. counter + 4` produce.
    fn assert_refill_matches_blocks(c: &mut ChaCha8) {
        let counter = c.counter;
        c.refill();
        for blk in 0..4 {
            let mut words = [0u32; 16];
            c.block(counter.wrapping_add(blk), &mut words);
            let lane = blk as usize * 16;
            assert_eq!(
                &c.buf[lane..lane + 16],
                &words,
                "block {blk} at counter {counter:#x}"
            );
        }
        assert_eq!(c.counter, counter.wrapping_add(4));
    }

    #[test]
    fn refill_matches_four_scalar_blocks() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut c = ChaCha8::new(expand_seed(seed));
            // Consecutive refills from a fresh stream.
            for _ in 0..5 {
                assert_refill_matches_blocks(&mut c);
            }
            // Lanes straddling the carry into the counter's high word:
            // 2^32 − 2 and − 1 have high word 0, 2^32 and + 1 have 1.
            c.counter = (1 << 32) - 2;
            assert_refill_matches_blocks(&mut c);
            assert_refill_matches_blocks(&mut c);
            // Lanes straddling the wrap of the 64-bit counter.
            c.counter = u64::MAX - 1;
            assert_refill_matches_blocks(&mut c);
            assert_eq!(c.counter, 2);
            assert_refill_matches_blocks(&mut c);
        }
    }

    /// The scalar refill (the path of non-`x86_64` targets) reproduces the
    /// published vector and the refill every target uses.
    #[test]
    fn scalar_refill_matches_refill() {
        let mut scalar = ChaCha8::new([0u32; 8]);
        scalar.fill_scalar();
        assert_eq!(scalar.buf[0], 0x2fef_003e);
        for seed in [3, 77] {
            let mut a = ChaCha8::new(expand_seed(seed));
            let mut b = a.clone();
            for _ in 0..3 {
                a.refill();
                b.fill_scalar();
                b.counter = b.counter.wrapping_add(4);
                assert_eq!(a.buf, b.buf);
            }
        }
    }

    /// Mixed `u32` / `u64` draws read the keystream in order: a `u64` is
    /// the next two words (low first), also when they straddle a refill,
    /// which an odd number of `u32` draws before it forces.
    #[test]
    fn mixed_draws_read_the_block_stream_in_order() {
        for seed in [5, 6, 7, 8] {
            let mut rng = ChaCha8::new(expand_seed(seed));
            let oracle = ChaCha8::new(expand_seed(seed));
            let mut words = Vec::new();
            let mut next_word = |pos: usize| {
                while words.len() <= pos {
                    let mut block = [0u32; 16];
                    oracle.block(words.len() as u64 / 16, &mut block);
                    words.extend_from_slice(&block);
                }
                words[pos]
            };
            let (mut pos, mut stitched) = (0, 0);
            for i in 0..100_000u64 {
                // A fixed, irregular u32/u64 mix.
                if i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0 {
                    assert_eq!(rng.next_u32(), next_word(pos), "seed {seed}, draw {i}");
                    pos += 1;
                } else {
                    stitched += usize::from(pos % BUF_WORDS == BUF_WORDS - 1);
                    let want = u64::from(next_word(pos)) | u64::from(next_word(pos + 1)) << 32;
                    assert_eq!(rng.next_u64(), want, "seed {seed}, draw {i}");
                    pos += 2;
                }
            }
            assert!(stitched > 0, "seed {seed}: no u64 straddled a refill");
        }
    }
}
