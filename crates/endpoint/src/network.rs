//! Simulated network: per-endpoint request counters and delay profiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Network characteristics of the path between the federated engine and an
/// endpoint.
#[derive(Debug, Clone, Copy)]
pub struct NetworkProfile {
    /// Round-trip latency added to every request.
    pub latency: Duration,
    /// Link bandwidth in bytes/second; `None` means unmetered.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// If true, requests actually sleep for the simulated time; if false
    /// the time is only accumulated in the stats snapshot.
    pub sleep: bool,
}

impl Default for NetworkProfile {
    /// The local-cluster setting: no delay, accounting only.
    fn default() -> Self {
        NetworkProfile {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: None,
            sleep: false,
        }
    }
}

impl NetworkProfile {
    /// A WAN-like profile that really sleeps: `latency_ms` round-trip
    /// latency and `mbps` megabits/second of bandwidth.
    pub fn wan(latency_ms: u64, mbps: u64) -> Self {
        NetworkProfile {
            latency: Duration::from_millis(latency_ms),
            bandwidth_bytes_per_sec: Some(mbps * 1_000_000 / 8),
            sleep: true,
        }
    }

    /// Transfer time for `bytes` at the profile's bandwidth.
    pub(crate) fn transfer_time(&self, bytes: u64) -> Duration {
        match self.bandwidth_bytes_per_sec {
            Some(bw) if bw > 0 => Duration::from_nanos(bytes.saturating_mul(1_000_000_000) / bw),
            _ => Duration::ZERO,
        }
    }
}

/// Lock-free counters for one endpoint. All counters only ever increase;
/// harnesses snapshot before/after a run and subtract.
#[derive(Debug, Default)]
pub struct NetworkStats {
    ask_requests: AtomicU64,
    select_requests: AtomicU64,
    count_requests: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_returned: AtomicU64,
    rows_returned: AtomicU64,
    virtual_time_ns: AtomicU64,
    faults_injected: AtomicU64,
}

impl NetworkStats {
    pub(crate) fn bump_ask(&self) {
        self.ask_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_select(&self) {
        self.select_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_count(&self) {
        self.count_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_fault(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, sent: u64, returned: u64, rows: u64, time: Duration) {
        self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        self.bytes_returned.fetch_add(returned, Ordering::Relaxed);
        self.rows_returned.fetch_add(rows, Ordering::Relaxed);
        self.virtual_time_ns
            .fetch_add(time.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            ask_requests: self.ask_requests.load(Ordering::Relaxed),
            select_requests: self.select_requests.load(Ordering::Relaxed),
            count_requests: self.count_requests.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_returned: self.bytes_returned.load(Ordering::Relaxed),
            rows_returned: self.rows_returned.load(Ordering::Relaxed),
            virtual_time_ns: self.virtual_time_ns.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            rows_scanned: 0,
        }
    }
}

/// An immutable snapshot of [`NetworkStats`] counters. Supports
/// subtraction to measure a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `ASK` requests issued.
    pub ask_requests: u64,
    /// `SELECT` requests issued.
    pub select_requests: u64,
    /// `COUNT` requests issued.
    pub count_requests: u64,
    /// Serialized request bytes sent to the endpoint.
    pub bytes_sent: u64,
    /// Result bytes returned by the endpoint.
    pub bytes_returned: u64,
    /// Result rows returned by the endpoint.
    pub rows_returned: u64,
    /// Accumulated simulated network time, in nanoseconds.
    pub virtual_time_ns: u64,
    /// Requests that were failed by injected faults (flaky endpoints).
    pub faults_injected: u64,
    /// Store index entries visited while answering requests (see
    /// [`StorageBackend::rows_scanned`](lusail_store::StorageBackend::rows_scanned)).
    /// Maintained by the store itself; endpoint wrappers overlay it into
    /// their snapshots, so `NetworkStats::snapshot` leaves it zero.
    pub rows_scanned: u64,
}

impl StatsSnapshot {
    /// Total requests of any kind.
    pub fn total_requests(&self) -> u64 {
        self.ask_requests + self.select_requests + self.count_requests
    }

    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ask_requests: self.ask_requests - earlier.ask_requests,
            select_requests: self.select_requests - earlier.select_requests,
            count_requests: self.count_requests - earlier.count_requests,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_returned: self.bytes_returned - earlier.bytes_returned,
            rows_returned: self.rows_returned - earlier.rows_returned,
            virtual_time_ns: self.virtual_time_ns - earlier.virtual_time_ns,
            faults_injected: self.faults_injected - earlier.faults_injected,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
        }
    }

    /// Counter-wise sum (aggregating across endpoints).
    pub fn plus(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ask_requests: self.ask_requests + other.ask_requests,
            select_requests: self.select_requests + other.select_requests,
            count_requests: self.count_requests + other.count_requests,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_returned: self.bytes_returned + other.bytes_returned,
            rows_returned: self.rows_returned + other.rows_returned,
            virtual_time_ns: self.virtual_time_ns + other.virtual_time_ns,
            faults_injected: self.faults_injected + other.faults_injected,
            rows_scanned: self.rows_scanned + other.rows_scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = NetworkProfile::wan(50, 8); // 8 Mbit/s = 1 MB/s
        assert_eq!(p.transfer_time(1_000_000), Duration::from_secs(1));
        assert_eq!(p.transfer_time(0), Duration::ZERO);
        let unmetered = NetworkProfile::default();
        assert_eq!(unmetered.transfer_time(1 << 30), Duration::ZERO);
    }

    #[test]
    fn snapshot_window_arithmetic() {
        let stats = NetworkStats::default();
        stats.bump_ask();
        stats.record(10, 20, 2, Duration::from_millis(5));
        let before = stats.snapshot();
        stats.bump_select();
        stats.record(30, 40, 4, Duration::from_millis(7));
        let after = stats.snapshot();
        let window = after.since(&before);
        assert_eq!(window.total_requests(), 1);
        assert_eq!(window.bytes_sent, 30);
        assert_eq!(window.bytes_returned, 40);
        assert_eq!(window.rows_returned, 4);
        assert_eq!(window.virtual_time_ns, 7_000_000);
        let sum = before.plus(&window);
        assert_eq!(sum, after);
    }
}
