//! Skewed key-choice distributions for YCSB.
//!
//! [`Zipfian`] is the standard YCSB generator (Gray et al.'s rejection-free
//! formula with θ = 0.99), scrambled so hot keys spread over the keyspace.
//! [`Latest`] skews toward recently inserted records (YCSB workload D).

use rand::Rng;

/// Default YCSB skew parameter.
pub const YCSB_THETA: f64 = 0.99;

/// A Zipfian-distributed generator over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Exact up to a cutoff, then the standard integral approximation; YCSB
    // itself incrementally approximates for big n.
    const EXACT: u64 = 100_000;
    if n <= EXACT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let tail =
            ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
        head + tail
    }
}

impl Zipfian {
    /// A scrambled Zipfian over `[0, n)` with the YCSB default θ.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        Zipfian::with_theta(n, YCSB_THETA, true)
    }

    /// Full control over skew and scrambling.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ is not in `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64, scramble: bool) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            scramble,
        }
    }

    /// Draws a key.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zetan;
        let raw = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let raw = raw.min(self.n - 1);
        if self.scramble {
            // FNV-style scramble, folded back into range (YCSB's
            // ScrambledZipfian approach).
            let mut h = raw ^ 0xCBF2_9CE4_8422_2325;
            h = h.wrapping_mul(0x100_0000_01B3);
            h ^= h >> 33;
            h % self.n
        } else {
            raw
        }
    }

    /// The keyspace size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// YCSB's "latest" distribution: Zipfian skew toward the most recent insert.
#[derive(Debug, Clone)]
pub struct Latest {
    zipf: Zipfian,
    max_key: u64,
}

impl Latest {
    /// Skews over the first `initial` records; grows as records insert.
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0`.
    pub fn new(initial: u64) -> Self {
        Latest {
            zipf: Zipfian::with_theta(initial, YCSB_THETA, false),
            max_key: initial,
        }
    }

    /// Notes that a new record was inserted (shifts the hot spot).
    pub fn inserted(&mut self) {
        self.max_key += 1;
        // YCSB recomputes incrementally; rebuilding is fine at our scale and
        // keeps the math obviously correct.
        if self.max_key.is_power_of_two() {
            self.zipf = Zipfian::with_theta(self.max_key, YCSB_THETA, false);
        }
    }

    /// Current number of records.
    pub fn record_count(&self) -> u64 {
        self.max_key
    }

    /// Draws a key, hottest at the most recent insert.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        let back = self.zipf.next(rng).min(self.max_key - 1);
        self.max_key - 1 - back
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::with_theta(10_000, YCSB_THETA, false);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50_000;
        let hot = (0..n).filter(|_| z.next(&mut rng) < 100).count();
        // Top 1% of keys should draw far more than 1% of accesses.
        assert!(
            hot as f64 / n as f64 > 0.2,
            "hot share {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let z = Zipfian::new(10_000);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(z.next(&mut rng));
        }
        // Hot keys exist but are spread across the keyspace, not clustered
        // at the low end.
        let low = seen.iter().filter(|&&k| k < 100).count();
        assert!(
            low < seen.len() / 4,
            "low-end clustering: {low}/{}",
            seen.len()
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let z = Zipfian::new(257);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 257);
        }
        assert!(zeta(2, z.theta) > 1.0);
    }

    #[test]
    fn latest_prefers_recent() {
        let mut l = Latest::new(1000);
        for _ in 0..24 {
            l.inserted();
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 20_000;
        let recent = (0..n)
            .filter(|_| l.next(&mut rng) >= l.record_count() - 100)
            .count();
        assert!(
            recent as f64 / n as f64 > 0.3,
            "recent share {}",
            recent as f64 / n as f64
        );
    }

    #[test]
    fn large_keyspace_zeta_approximation_sane() {
        let z = Zipfian::with_theta(10_000_000, YCSB_THETA, false);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.next(&mut rng) < 10_000_000);
        }
    }
}
