//! Network link timing model.
//!
//! The paper's cluster uses 100 GbE, which is never the bandwidth bottleneck
//! for 4 KiB random I/O; what matters is the propagation/stack latency and,
//! for large sequential I/O, the serialization time. [`Link`] models one
//! direction of a NIC port: messages serialize one after another at the link
//! bandwidth and arrive after an additional fixed latency.

use crate::time::{SimDuration, SimTime};

/// One direction of a network link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One-way base latency (propagation + kernel network stack).
    pub latency: SimDuration,
    /// Serialization bandwidth in bytes/second.
    pub bandwidth: f64,
    busy_until: SimTime,
}

impl Link {
    /// A 100 GbE-like link: 12.5 GB/s, 20 µs one-way latency (kernel TCP
    /// stack dominated; the paper's RTC-v3 floor of 0.8 ms total implies
    /// tens of µs per hop).
    pub fn gbe_100() -> Self {
        Link::new(SimDuration::micros(20), 12.5e9)
    }

    /// Creates a link with the given one-way latency and bandwidth.
    pub fn new(latency: SimDuration, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Link {
            latency,
            bandwidth,
            busy_until: SimTime::ZERO,
        }
    }

    /// Enqueues a `bytes`-long message at `now`; returns its arrival time at
    /// the far end. Serialization is FIFO behind earlier messages.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let serialize = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth);
        self.busy_until = start + serialize;
        self.busy_until + self.latency
    }

    /// The conservative-parallel lookahead bound this link provides: any
    /// message crossing it arrives no earlier than `lookahead()` after it
    /// was sent (serialization only adds to that). The sharded engine uses
    /// the minimum lookahead over all cross-shard links as its LBTS window
    /// (see `Simulation::set_lookahead`).
    pub fn lookahead(&self) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_arrives_after_latency() {
        let mut l = Link::gbe_100();
        let arrive = l.transfer(SimTime::ZERO, 1024);
        // 1 KiB at 12.5 GB/s is 82 ns; latency dominates.
        assert!(arrive >= SimTime::ZERO + l.latency);
        assert!(arrive < SimTime::ZERO + l.latency + SimDuration::micros(1));
    }

    #[test]
    fn serialization_queues_fifo() {
        let mut l = Link::new(SimDuration::ZERO, 1e9); // 1 GB/s, no latency
        let a = l.transfer(SimTime::ZERO, 1_000_000); // 1 ms serialize
        let b = l.transfer(SimTime::ZERO, 1_000_000); // queues behind a
        assert_eq!(a, SimTime::from_nanos(1_000_000));
        assert_eq!(b, SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = Link::new(SimDuration::micros(5), 1e9);
        let _ = l.transfer(SimTime::ZERO, 1000);
        // Much later, no residual queueing.
        let t = SimTime::from_nanos(10_000_000);
        let arrive = l.transfer(t, 1000);
        assert_eq!(
            arrive,
            t + SimDuration::nanos(1_000) + SimDuration::micros(5)
        );
    }
}
