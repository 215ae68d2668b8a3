//! Key distributions: uniform and Zipfian.
//!
//! The Zipfian sampler follows Gray et al., *"Quickly generating
//! billion-record synthetic databases"* (SIGMOD '94) — the same algorithm
//! YCSB uses — with an optional scramble (FNV-1a) so that hot keys are
//! spread over the key space instead of clustered at 0.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Which distribution to draw keys from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipfian with parameter θ (paper uses 0.1 for low contention, 0.99
    /// for high contention).
    Zipfian {
        theta: f64,
    },
}

impl KeyDist {
    /// Short label used by the bench harness ("uniform", "zipf(0.99)").
    pub fn label(&self) -> String {
        match self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipfian { theta } => format!("zipf({theta})"),
        }
    }
}

/// Draws keys in `[0, n)` from a [`KeyDist`].
#[derive(Debug, Clone)]
pub struct Sampler {
    n: u64,
    rng: SmallRng,
    kind: SamplerKind,
    scramble: bool,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    Zipfian {
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    },
}

/// ζ(n, θ) = Σ_{i=1..n} 1/i^θ. O(n) but computed once per sampler; for the
/// key counts used here (≤ a few million) this is milliseconds.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Sampler {
    pub fn new(dist: KeyDist, n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty key space");
        let kind = match dist {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipfian { theta } => {
                assert!(
                    (0.0..1.0).contains(&theta),
                    "theta must be in [0, 1): {theta}"
                );
                let zetan = zeta(n, theta);
                let zeta2theta = zeta(2.min(n), theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
                let _ = zeta2theta;
                SamplerKind::Zipfian {
                    theta,
                    alpha,
                    zetan,
                    eta,
                }
            }
        };
        Sampler {
            n,
            rng: SmallRng::seed_from_u64(seed),
            kind,
            scramble: matches!(dist, KeyDist::Zipfian { .. }),
        }
    }

    /// Draw the next key in `[0, n)`.
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        let rank = match &self.kind {
            SamplerKind::Uniform => self.rng.gen_range(0..self.n),
            SamplerKind::Zipfian {
                theta,
                alpha,
                zetan,
                eta,
            } => {
                // Gray et al. constant-time inversion.
                let u: f64 = self.rng.gen();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(*theta) {
                    1
                } else {
                    ((self.n as f64) * (eta * u - eta + 1.0).powf(*alpha)) as u64
                }
            }
        };
        let rank = rank.min(self.n - 1);
        if self.scramble {
            scramble(rank) % self.n
        } else {
            rank
        }
    }

    /// Access to the underlying RNG (for mix decisions that must share the
    /// deterministic stream).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Next value uniform in `[0, bound)` from the shared stream.
    #[inline]
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(0..bound)
    }

    /// Next f64 in `[0, 1)` from the shared stream.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.rng.gen()
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// FNV-1a based scramble, as in YCSB's `ScrambledZipfianGenerator`.
#[inline]
pub fn scramble(x: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h = FNV_OFFSET;
    for i in 0..8 {
        h ^= (x >> (8 * i)) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_small_space() {
        let mut s = Sampler::new(KeyDist::Uniform, 4, 1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.next_key() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn keys_always_in_range() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.1 },
            KeyDist::Zipfian { theta: 0.99 },
        ] {
            let mut s = Sampler::new(dist, 1000, 7);
            for _ in 0..10_000 {
                assert!(s.next_key() < 1000);
            }
        }
    }

    #[test]
    fn zipf_high_theta_is_skewed() {
        let n = 10_000u64;
        let mut s = Sampler::new(KeyDist::Zipfian { theta: 0.99 }, n, 42);
        let mut counts = std::collections::HashMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(s.next_key()).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / draws as f64 > 0.3,
            "θ=0.99: top-10 keys should dominate, got {top10}/{draws}"
        );
    }

    #[test]
    fn zipf_low_theta_is_nearly_uniform() {
        let n = 10_000u64;
        let mut s = Sampler::new(KeyDist::Zipfian { theta: 0.1 }, n, 42);
        let mut counts = std::collections::HashMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(s.next_key()).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            (top10 as f64 / draws as f64) < 0.05,
            "θ=0.1 should be near-uniform, top-10 got {top10}/{draws}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Sampler::new(KeyDist::Zipfian { theta: 0.99 }, 100, 5);
        let mut b = Sampler::new(KeyDist::Zipfian { theta: 0.99 }, 100, 5);
        for _ in 0..1000 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sampler::new(KeyDist::Uniform, 1 << 40, 1);
        let mut b = Sampler::new(KeyDist::Uniform, 1 << 40, 2);
        let same = (0..100).filter(|_| a.next_key() == b.next_key()).count();
        assert!(same < 5);
    }

    #[test]
    fn scramble_is_deterministic_and_spreading() {
        assert_eq!(scramble(1), scramble(1));
        assert_ne!(scramble(1), scramble(2));
        // Consecutive ranks should not map to consecutive keys.
        let d = scramble(11).abs_diff(scramble(10));
        assert!(d > 1000);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_rejected() {
        Sampler::new(KeyDist::Zipfian { theta: 1.0 }, 10, 0);
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn empty_keyspace_rejected() {
        Sampler::new(KeyDist::Uniform, 0, 0);
    }

    #[test]
    fn zeta_matches_hand_computation() {
        let z = zeta(3, 1.0_f64.min(0.99));
        let expect = 1.0 + 1.0 / 2f64.powf(0.99) + 1.0 / 3f64.powf(0.99);
        assert!((z - expect).abs() < 1e-12);
    }
}
