//! Client request timeout and retry policy.
//!
//! Shared between the deterministic sim driver (simulated nanoseconds, sim
//! RNG jitter) and the live driver (wall-clock nanoseconds, thread-local
//! jitter): all fields and results are plain `u64` nanoseconds, and jitter
//! enters as a caller-supplied draw in `[0, 1)` so the policy itself stays
//! deterministic and clock-agnostic.

/// Timeout, exponential backoff and retry budget for one client request.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// How long to wait for a reply before each retry.
    pub timeout_nanos: u64,
    /// Backoff before the first retry; doubles (times `backoff_multiplier`)
    /// per subsequent attempt.
    pub backoff_base_nanos: u64,
    /// Growth factor applied to the backoff per attempt.
    pub backoff_multiplier: f64,
    /// Fraction of the backoff added as random jitter (`0.2` = up to +20%).
    pub jitter_frac: f64,
    /// Give up (surface an error) after this many attempts total.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// 50 ms timeout, 2 ms backoff doubling per attempt with 20% jitter,
    /// 8 attempts — a few seconds of total patience.
    fn default() -> Self {
        RetryPolicy {
            timeout_nanos: 50_000_000,
            backoff_base_nanos: 2_000_000,
            backoff_multiplier: 2.0,
            jitter_frac: 0.2,
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after attempt number `attempt` (1-based) fails,
    /// with `jitter_unit` a uniform draw in `[0, 1)`.
    pub fn backoff_nanos(&self, attempt: u32, jitter_unit: f64) -> u64 {
        debug_assert!(
            (0.0..1.0).contains(&jitter_unit),
            "jitter draw out of range"
        );
        let exp = attempt.saturating_sub(1).min(30);
        let base = self.backoff_base_nanos as f64 * self.backoff_multiplier.powi(exp as i32);
        let jitter = base * self.jitter_frac * jitter_unit;
        (base + jitter) as u64
    }

    /// Whether another attempt is allowed after `attempt` attempts failed.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            timeout_nanos: 1_000,
            backoff_base_nanos: 100,
            backoff_multiplier: 2.0,
            jitter_frac: 0.0,
            max_attempts: 5,
        };
        assert_eq!(p.backoff_nanos(1, 0.0), 100);
        assert_eq!(p.backoff_nanos(2, 0.0), 200);
        assert_eq!(p.backoff_nanos(4, 0.0), 800);
    }

    #[test]
    fn jitter_adds_bounded_fraction() {
        let p = RetryPolicy {
            backoff_base_nanos: 1_000,
            jitter_frac: 0.5,
            ..Default::default()
        };
        let lo = p.backoff_nanos(1, 0.0);
        let hi = p.backoff_nanos(1, 0.999);
        assert_eq!(lo, 1_000);
        assert!(hi > 1_400 && hi < 1_500, "jittered backoff {hi}");
    }

    #[test]
    fn attempt_budget_enforced() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        assert!(p.should_retry(1));
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));
    }
}
