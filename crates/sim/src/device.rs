//! Storage-device timing models.
//!
//! A simulated device is a bank of `ways` internal servers (flash channels /
//! NVM banks). Each I/O occupies the earliest-free way for a service time
//! derived from the device profile: a fixed per-command latency plus a
//! size-proportional transfer term. This reproduces the two envelopes the
//! paper relies on: small-random IOPS saturating at `ways / service_time`,
//! and streaming bandwidth saturating at `bytes_per_sec`.
//!
//! Profiles for the paper's hardware (Samsung PM1725a in FOB and steady
//! state, and a ramdisk-emulated NVM) are provided as constructors.

use crate::time::{SimDuration, SimTime};

/// Direction of an I/O request.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum IoKind {
    /// A read command.
    Read,
    /// A write command.
    Write,
    /// A flush / barrier; occupies a way for the write base latency.
    Flush,
}

/// One I/O request submitted to a simulated device.
#[derive(Copy, Clone, Debug)]
pub struct IoRequest {
    /// Direction.
    pub kind: IoKind,
    /// Transfer length in bytes (0 for flushes).
    pub len: u64,
}

impl IoRequest {
    /// A read of `len` bytes.
    pub fn read(len: u64) -> Self {
        IoRequest {
            kind: IoKind::Read,
            len,
        }
    }
    /// A write of `len` bytes.
    pub fn write(len: u64) -> Self {
        IoRequest {
            kind: IoKind::Write,
            len,
        }
    }
    /// A flush barrier.
    pub fn flush() -> Self {
        IoRequest {
            kind: IoKind::Flush,
            len: 0,
        }
    }
}

/// SSD wear state; fresh-out-of-box devices are faster than steady-state ones
/// (paper §III-A: 330K vs 160K 4 KiB random-write IOPS).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SsdState {
    /// Fresh out of box / transition state.
    FreshOutOfBox,
    /// Steady state after sustained random writes.
    Steady,
}

/// Timing profile of a device.
#[derive(Copy, Clone, Debug)]
pub struct DeviceProfile {
    /// Internal parallelism (number of concurrent commands the device
    /// services at full speed).
    pub ways: usize,
    /// Fixed command overhead for reads.
    pub read_base: SimDuration,
    /// Fixed command overhead for writes.
    pub write_base: SimDuration,
    /// Aggregate read bandwidth in bytes/second.
    pub read_bw: f64,
    /// Aggregate write bandwidth in bytes/second.
    pub write_bw: f64,
}

impl DeviceProfile {
    /// Samsung PM1725a-like NVMe SSD.
    ///
    /// Calibration targets from the paper (§III-A, §V-D): 4 KiB random write
    /// ≈330 K IOPS FOB / ≈160 K steady; ≈750 K 4 KiB random read IOPS;
    /// ≈3 GB/s streaming read, ≈2 GB/s streaming write.
    pub fn nvme_pm1725a(state: SsdState) -> Self {
        // Per-way service = base + len*ways/bw, so a 4 KiB write carries a
        // 16.4 µs transfer term at 2 GB/s across 8 ways.
        let write_base = match state {
            // 8 ways / (7.6+16.4) µs ≈ 333 K IOPS.
            SsdState::FreshOutOfBox => SimDuration::nanos(7_600),
            // 8 ways / (33.6+16.4) µs ≈ 160 K IOPS.
            SsdState::Steady => SimDuration::nanos(33_600),
        };
        DeviceProfile {
            ways: 8,
            // 8 ways / (0.6+10.9) µs ≈ 695 K 4 KiB read IOPS; 3 GB/s streaming.
            read_base: SimDuration::nanos(600),
            write_base,
            read_bw: 3.0e9,
            write_bw: 2.0e9,
        }
    }

    /// Service time for one request on one way.
    pub fn service(&self, req: IoRequest) -> SimDuration {
        let (base, bw) = match req.kind {
            IoKind::Read => (self.read_base, self.read_bw),
            IoKind::Write => (self.write_base, self.write_bw),
            IoKind::Flush => (self.write_base, self.write_bw),
        };
        // Per-way share of aggregate bandwidth: `ways` transfers proceed in
        // parallel and together saturate `bw`.
        let transfer_s = req.len as f64 * self.ways as f64 / bw;
        base + SimDuration::from_secs_f64(transfer_s)
    }
}

/// Cumulative counters of traffic through a simulated device.
#[derive(Copy, Clone, Debug, Default)]
pub struct DeviceStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Flush commands completed.
    pub flushes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Sum of queue+service latency over all commands, in nanoseconds.
    pub total_latency_ns: u64,
}

/// A simulated device instance: profile + per-way occupancy.
#[derive(Debug, Clone)]
pub struct Device {
    profile: DeviceProfile,
    /// `ways[i]` is the time at which internal server `i` becomes free.
    ways: Vec<SimTime>,
    stats: DeviceStats,
    name: String,
    /// Service-time scale factor; > 1.0 models a gray (slow-but-alive)
    /// device, 1.0 is healthy.
    service_multiplier: f64,
}

impl Device {
    /// Creates a device with the given profile.
    pub fn new(name: impl Into<String>, profile: DeviceProfile) -> Self {
        Device {
            ways: vec![SimTime::ZERO; profile.ways],
            profile,
            stats: DeviceStats::default(),
            name: name.into(),
            service_multiplier: 1.0,
        }
    }

    /// Device name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device's timing profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Current service-time multiplier (1.0 when healthy).
    pub fn service_multiplier(&self) -> f64 {
        self.service_multiplier
    }

    /// Scales every subsequent service time by `multiplier`.
    ///
    /// Used by fault injection to model gray failures: the device keeps
    /// completing I/O, only slower. `1.0` restores healthy timing.
    pub fn set_service_multiplier(&mut self, multiplier: f64) {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "service multiplier must be positive and finite, got {multiplier}"
        );
        self.service_multiplier = multiplier;
    }

    /// Submits a request at time `now`; returns the completion time.
    ///
    /// The request occupies the earliest-free way, queueing behind earlier
    /// commands if all ways are busy.
    pub fn submit(&mut self, now: SimTime, req: IoRequest) -> SimTime {
        let (idx, &free_at) = self
            .ways
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("device has at least one way");
        let start = now.max(free_at);
        let svc = self.profile.service(req);
        let svc = if self.service_multiplier == 1.0 {
            svc
        } else {
            SimDuration::nanos((svc.as_nanos() as f64 * self.service_multiplier) as u64)
        };
        let done = start + svc;
        self.ways[idx] = done;
        match req.kind {
            IoKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += req.len;
            }
            IoKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += req.len;
            }
            IoKind::Flush => self.stats.flushes += 1,
        }
        self.stats.total_latency_ns += done.duration_since(now).as_nanos();
        done
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Resets traffic counters (e.g. after warm-up) without clearing way
    /// occupancy.
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_4k_write_iops_near_160k() {
        let mut dev = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        // Saturate: submit 16k writes back-to-back at t=0 and measure completion rate.
        let mut last = SimTime::ZERO;
        let n = 16_000u64;
        for _ in 0..n {
            last = dev.submit(SimTime::ZERO, IoRequest::write(4096));
        }
        let iops = n as f64 / last.as_secs_f64();
        assert!((140_000.0..180_000.0).contains(&iops), "steady iops {iops}");
    }

    #[test]
    fn fob_faster_than_steady() {
        let mut fob = Device::new("f", DeviceProfile::nvme_pm1725a(SsdState::FreshOutOfBox));
        let mut st = Device::new("s", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        let mut tf = SimTime::ZERO;
        let mut ts = SimTime::ZERO;
        for _ in 0..1000 {
            tf = fob.submit(SimTime::ZERO, IoRequest::write(4096));
            ts = st.submit(SimTime::ZERO, IoRequest::write(4096));
        }
        assert!(tf < ts);
    }

    #[test]
    fn streaming_write_bandwidth_near_2gbps() {
        let mut dev = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        let chunk = 128 * 1024u64;
        let n = 4_000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = dev.submit(SimTime::ZERO, IoRequest::write(chunk));
        }
        let bw = (n * chunk) as f64 / last.as_secs_f64();
        assert!((1.6e9..2.4e9).contains(&bw), "write bw {bw}");
    }

    #[test]
    fn unloaded_latency_is_service_time() {
        let mut dev = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        let t = dev.submit(SimTime::ZERO, IoRequest::read(4096));
        let svc = dev.profile().service(IoRequest::read(4096));
        assert_eq!(t, SimTime::ZERO + svc);
    }

    #[test]
    fn gray_multiplier_slows_service_and_restores() {
        let mut dev = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        let healthy = dev.submit(SimTime::ZERO, IoRequest::read(4096));
        let mut gray = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        gray.set_service_multiplier(10.0);
        let slow = gray.submit(SimTime::ZERO, IoRequest::read(4096));
        assert!(
            slow.duration_since(SimTime::ZERO).as_nanos()
                >= 9 * healthy.duration_since(SimTime::ZERO).as_nanos(),
            "gray device should be ~10x slower: {healthy:?} vs {slow:?}"
        );
        gray.set_service_multiplier(1.0);
        let mut fresh = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        let recovered = gray.submit(slow, IoRequest::read(4096));
        let expect = fresh.submit(SimTime::ZERO, IoRequest::read(4096));
        assert_eq!(
            recovered.duration_since(slow),
            expect.duration_since(SimTime::ZERO),
            "restored multiplier returns to healthy service time"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut dev = Device::new("ssd", DeviceProfile::nvme_pm1725a(SsdState::Steady));
        dev.submit(SimTime::ZERO, IoRequest::write(100));
        dev.submit(SimTime::ZERO, IoRequest::read(50));
        dev.submit(SimTime::ZERO, IoRequest::flush());
        let s = dev.stats();
        assert_eq!((s.reads, s.writes, s.flushes), (1, 1, 1));
        assert_eq!((s.bytes_read, s.bytes_written), (50, 100));
        dev.reset_stats();
        assert_eq!(dev.stats().writes, 0);
    }
}
