//! Simulation output: everything the paper's figures are plotted from.

use hrmc_core::{Alert, AlertRule, HistogramSummary, ReceiverStats, SenderStats, TelemetrySample};
use serde::Serialize;

/// Per-receiver results.
#[derive(Debug, Clone, Serialize)]
pub struct ReceiverReport {
    /// Protocol counters, serialized in full.
    pub stats: ReceiverStats,
    /// Bytes the application absorbed.
    pub bytes: u64,
    /// Simulation time at which the application finished absorbing the
    /// stream (µs), if it did.
    pub completed_at: Option<u64>,
    /// `true` when every byte matched the expected pattern.
    pub intact: bool,
    /// `true` when the receiver declared a terminal session failure
    /// (sender presumed dead or JOIN budget exhausted). Skipped in
    /// serialization so pre-existing JSON fixtures stay stable.
    #[serde(skip)]
    pub failed: bool,
}

/// Latency percentiles collected by the observer pipeline (present when
/// [`SimParams::observe`](crate::sim::SimParams::observe) was set).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyReport {
    /// Sender first-transmission → in-order delivery at a receiver (µs),
    /// all receivers pooled.
    pub delivery: HistogramSummary,
    /// Gap first noted → gap filled, i.e. NAK-to-repair recovery (µs),
    /// all receivers pooled.
    pub recovery: HistogramSummary,
}

/// Complete result of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimReport {
    /// `true` when the transfer completed everywhere before the horizon.
    pub completed: bool,
    /// Wall-clock of the simulation: the time the *last* receiver
    /// finished absorbing the stream (µs).
    pub elapsed_us: u64,
    /// Application-level throughput in Mbit/s: transfer size over
    /// `elapsed_us`, matching the paper's file-transfer metric.
    pub throughput_mbps: f64,
    /// Transfer size in bytes.
    pub transfer_bytes: u64,
    /// Sender counters, serialized in full.
    pub sender: SenderStats,
    /// Figure 3 metric: fraction of buffer-release attempts with complete
    /// receiver information.
    pub complete_info_ratio: f64,
    /// Packets dropped by router loss models (correlated loss).
    pub router_loss_drops: u64,
    /// Packets dropped by router queue overflow.
    pub router_overflow_drops: u64,
    /// Packets dropped at the sender NIC transmit queue (Figure 13).
    pub sender_nic_drops: u64,
    /// Packets dropped by receiver-NIC loss (uncorrelated loss).
    pub nic_rx_drops: u64,
    /// Packets dropped at host RX backlogs (overdriven-CPU load shedding).
    pub host_backlog_drops: u64,
    /// Packets severed by scheduled partitions (fault injection).
    pub partition_drops: u64,
    /// Packets discarded after injected bit corruption tripped the
    /// checksum (fault injection).
    pub corruption_drops: u64,
    /// Extra packet copies delivered by the duplication fault.
    pub duplicates_injected: u64,
    /// Packets delayed by the reordering fault.
    pub reorders_injected: u64,
    /// Packets discarded because the destination host was crashed or its
    /// process frozen (churn fault injection).
    pub churn_drops: u64,
    /// Link-schedule events applied (time-varying link dynamics).
    pub link_events_applied: u64,
    /// Down-path packets lost at an off-path router after a receiver
    /// migrated away mid-flight (mobile churn).
    pub migration_drops: u64,
    /// Feedback packets dropped by the asymmetric up-path impairment.
    pub up_loss_drops: u64,
    /// Sender rate-halving episodes (congestion responses to NAKs and
    /// warning rate requests).
    pub rate_halvings: u64,
    /// Sender urgent stops (URG rate requests freezing transmission).
    pub urgent_stops: u64,
    /// Members ejected without ground-truth justification: the host
    /// never crashed and no scheduled partition severed it. Jitter-only
    /// and bufferbloat episodes must keep this at zero (the
    /// graceful-degradation invariant).
    pub false_ejections: u64,
    /// The sender's final RTT estimate (µs) — the MINBUF clock base.
    pub final_rtt_us: u64,
    /// The sender's final transmission rate (bytes/s).
    pub final_rate_bps: u64,
    /// Delivery- and recovery-latency percentiles, when observed.
    pub latency: Option<LatencyReport>,
    /// Total events popped from the simulator's event queue
    /// (crate-internal unit of work; the scheduler-efficiency metric),
    /// a batched receiver delivery counted once per receiver it reached:
    /// the count per-receiver delivery events would give, which the
    /// hostile matrix's events-per-byte livelock bound is calibrated on.
    pub events_popped: u64,
    /// High-water mark of the pending-event heap (a batched receiver
    /// delivery is one entry).
    pub peak_queue_len: usize,
    /// Engine `on_tick` invocations per host (host 0 is the sender) —
    /// how much jiffy-timer work each host actually did.
    pub host_ticks: Vec<u64>,
    /// Per-receiver reports.
    pub receivers: Vec<ReceiverReport>,
    /// Sim-time telemetry, when
    /// [`SimParams::sample_interval_us`](crate::sim::SimParams::sample_interval_us)
    /// was set: the same [`TelemetrySample`] shape the live stack's
    /// sampler records. Always ends with a final sample at the run's
    /// last instant, so an armed run yields a non-empty series even when
    /// it finishes inside the first interval. Each sample renders itself
    /// losslessly ([`TelemetrySample::to_json_line`]), so it is skipped
    /// here.
    #[serde(skip)]
    pub timeseries: Option<Vec<TelemetrySample>>,
    /// Every online health-monitor transition, in time order (empty
    /// unless [`SimParams::health`](crate::sim::SimParams::health) armed
    /// the monitor). Skipped here because the event log carries each as
    /// its `health_alert` line.
    #[serde(skip)]
    pub alerts: Vec<Alert>,
}

impl SimReport {
    /// Total NAKs sent by all receivers.
    pub fn total_naks(&self) -> u64 {
        self.receivers.iter().map(|r| r.stats.naks_sent).sum()
    }

    /// `true` when every receiver's stream verified intact.
    pub fn all_intact(&self) -> bool {
        self.receivers.iter().all(|r| r.intact)
    }

    /// Number of receivers that declared a terminal session failure.
    pub fn failed_receivers(&self) -> usize {
        self.receivers.iter().filter(|r| r.failed).count()
    }

    /// Raise transitions of `rule` the online monitor emitted.
    pub fn alerts_raised(&self, rule: AlertRule) -> u64 {
        self.alerts
            .iter()
            .filter(|a| a.raised && a.rule == rule)
            .count() as u64
    }

    /// Clear transitions of `rule`.
    pub fn alerts_cleared(&self, rule: AlertRule) -> u64 {
        self.alerts
            .iter()
            .filter(|a| !a.raised && a.rule == rule)
            .count() as u64
    }
}
