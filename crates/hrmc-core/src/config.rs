//! Protocol configuration.
//!
//! A field exists here only if a caller sets it: a driver, the
//! benchmark, a figure cell, an ablation or a test. Every other protocol
//! constant is a named `const` beside the one module that reads it,
//! citing the paper where the paper states it: WARNBUF and the urgent
//! stop in [`crate::receiver`] and [`crate::rate`], the 2 s keepalive cap
//! in [`crate::keepalive`], the 50-jiffy initial update period and its
//! clamps in [`crate::update`], the NAK suppression interval in
//! [`crate::nak`]. A constant that a new caller needs to vary comes back
//! as a field with that caller.

use crate::fec::FecConfig;
use crate::receiver::JOIN_RETRY_US;
use crate::time::{Micros, MS, SEC};
use crate::update::{MAX_PERIOD_JIFFIES, MIN_PERIOD_JIFFIES};

/// Which reliability architecture the engines run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityMode {
    /// The original RMC protocol (paper §2): pure NAK-based reliability.
    /// The sender releases buffers after MINBUF round-trip times without
    /// consulting receiver state; a NAK for released data is answered with
    /// NAK_ERR and reliability is *not* guaranteed. Receivers send no
    /// UPDATEs and the sender sends no PROBEs.
    RmcNakOnly,
    /// H-RMC (paper §3): NAK-based feedback plus per-receiver state,
    /// periodic UPDATEs, and PROBEs before buffer release. Reliability is
    /// guaranteed: "The send window is advanced only when the sender
    /// confirms that all receivers have received the data."
    Hybrid,
}

/// How the receiver's update timer behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// H-RMC's adaptive timer (paper §4.3): period starts at
    /// [`INITIAL_PERIOD_JIFFIES`](crate::update::INITIAL_PERIOD_JIFFIES),
    /// shrinks by one jiffy after a period in which a PROBE arrived, and
    /// grows by one jiffy after a probe-free period.
    Dynamic,
    /// A fixed period in jiffies (the paper's "original design ... fixed
    /// (0.5 seconds)"), kept for the ablation bench. Must lie within
    /// [`MIN_PERIOD_JIFFIES`], [`MAX_PERIOD_JIFFIES`], the clamps of the
    /// dynamic timer.
    Fixed(u64),
    /// No updates at all (RMC baseline).
    Disabled,
}

/// When the sender probes receivers it lacks information from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// Probe at the moment buffer release is attempted and blocked
    /// (H-RMC as published).
    AtRelease,
    /// Probe `lead_rtts` round-trip times *before* a block is predicted to
    /// become release-eligible, so the answer is usually in hand by
    /// release time. This is the paper's future-work item (1): "probing
    /// receivers prior to buffer release time to avoid a stop-and-wait
    /// scenario for small buffers".
    Early {
        /// How many RTTs of lead time to give the probe.
        lead_rtts: u32,
    },
}

/// How PROBE packets are transported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeTransport {
    /// Unicast one PROBE per lacking receiver (H-RMC as published).
    Unicast,
    /// Multicast a single PROBE when the number of lacking receivers
    /// exceeds the threshold; receivers that already confirmed simply
    /// answer with an UPDATE they would have sent anyway. This is the
    /// paper's future-work item (2): "multicasting probes when the number
    /// of receivers to be probed is greater than some threshold".
    MulticastAbove(usize),
}

/// Complete protocol configuration shared by sender and receiver engines.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Reliability architecture; see [`ReliabilityMode`].
    pub mode: ReliabilityMode,

    // ------------------------------------------------------------------
    // Segmentation and buffering
    // ------------------------------------------------------------------
    /// Payload bytes per DATA packet. 1400 keeps header + payload within
    /// Ethernet MTU after IP/UDP encapsulation.
    pub segment_size: usize,
    /// Send buffer (kernel socket buffer) size in bytes — the paper's
    /// primary experimental knob, swept 64 KiB – 1024 KiB and beyond.
    pub sndbuf: usize,
    /// Receive buffer size in bytes.
    pub rcvbuf: usize,

    // ------------------------------------------------------------------
    // Window / buffer-release policy
    // ------------------------------------------------------------------
    /// Minimum residency of a packet in the send buffer, in RTTs to the
    /// most distant receiver. Paper §2: "The minimum time that any data
    /// packet must be buffered is MINBUF round trip times (set to 10)".
    pub minbuf_rtts: u32,
    /// Residency floor applied while the membership table is empty
    /// (Hybrid mode). IP-multicast membership is anonymous until the
    /// first JOIN arrives, and on high-delay paths a JOIN can take
    /// hundreds of milliseconds — longer than MINBUF × the initial RTT
    /// seed — so without this hold the sender can release data it will
    /// owe to receivers it has not yet heard of (the join race). Two
    /// seconds covers several JOIN retries on a 100 ms path.
    pub anonymous_release_hold: Micros,

    // ------------------------------------------------------------------
    // Rate control (two-stage: slow start / congestion avoidance)
    // ------------------------------------------------------------------
    /// Minimum transmission rate in bytes/second; the rate used at
    /// connection start and after an urgent rate request.
    pub min_rate: u64,
    /// Hard cap on the transmission rate in bytes/second (the sender does
    /// not know the link speed; drivers may lower this to model one).
    pub max_rate: u64,

    // ------------------------------------------------------------------
    // Updates (H-RMC)
    // ------------------------------------------------------------------
    /// Update timer behaviour; see [`UpdateMode`].
    pub update_mode: UpdateMode,

    // ------------------------------------------------------------------
    // Probes (H-RMC)
    // ------------------------------------------------------------------
    /// When to probe; see [`ProbePolicy`].
    pub probe_policy: ProbePolicy,
    /// How to transport probes; see [`ProbeTransport`].
    pub probe_transport: ProbeTransport,
    /// Cap on unicast PROBEs emitted per tick. `0` (the default) probes
    /// every eligible laggard each tick — the published protocol. Above
    /// the cap, the sender round-robins through the laggard set across
    /// successive ticks, bounding per-jiffy fan-out at large scale; the
    /// [`ProbeTransport::MulticastAbove`] decision is judged on the full
    /// laggard count *before* capping.
    pub probe_batch_limit: u32,

    // ------------------------------------------------------------------
    // RTT estimation
    // ------------------------------------------------------------------
    /// RTT estimate before any sample has been taken.
    pub initial_rtt: Micros,

    // ------------------------------------------------------------------
    // Connection management
    // ------------------------------------------------------------------
    /// Cap for the JOIN retry exponential backoff, whose first step is
    /// [`JOIN_RETRY_US`]. Defaults to that step, which degenerates to the
    /// original fixed-interval retry; raise it to spread retries out on
    /// lossy paths.
    pub join_retry_max: Micros,
    /// Maximum JOIN attempts before the receiver gives up and fails the
    /// session ([`ReceiverEngine::has_failed`](crate::ReceiverEngine::has_failed)).
    /// `0` retries forever (the original behaviour).
    pub join_retry_limit: u32,
    /// Deterministic jitter fraction applied to each JOIN retry backoff
    /// step, in `[0, 1]`: the effective delay is the backoff step scaled
    /// by `1 ± join_jitter`, with the offset hashed from the receiver's
    /// local port and attempt number. A group of receivers that lost the
    /// same JOIN_RESPONSE burst (a partition heal, a sender restart)
    /// would otherwise retry in lock-step and collide again; the hash
    /// spreads them without drawing from any RNG, so runs stay
    /// reproducible. `0.0` (the default) keeps the original unjittered
    /// backoff.
    pub join_jitter: f64,

    // ------------------------------------------------------------------
    // Failure domains (ejection / death detection)
    // ------------------------------------------------------------------
    /// Eject a member after this many consecutive unanswered PROBEs —
    /// the re-probe of a still-unanswered probe counts one failure. A
    /// crashed receiver otherwise blocks buffer release forever (Hybrid
    /// mode's reliability guarantee turned liveness hole). `0` disables
    /// ejection by probe failure.
    pub probe_failure_limit: u32,
    /// Eject a member once nothing has been heard from it for this long.
    /// Catches receivers that die while fully caught up (no probes are
    /// outstanding for them). `0` disables silence-based ejection.
    pub member_silence_us: Micros,
    /// Receiver-side sender-death detection: declare the session failed
    /// after [`KEEPALIVE_MAX_US`](crate::keepalive::KEEPALIVE_MAX_US) ×
    /// this factor of sender silence. An alive but idle sender keeps the
    /// line warm at that interval, so any factor ≥ 2 tolerates lost
    /// keepalives. `0` disables death detection.
    pub sender_death_factor: u32,

    // ------------------------------------------------------------------
    // Forward error correction (extension; paper future-work item 4)
    // ------------------------------------------------------------------
    /// Optional XOR-parity FEC: one parity packet per `k` data packets,
    /// letting receivers repair single losses without a NAK round trip.
    /// `None` (the default) matches the published protocol.
    pub fec: Option<FecConfig>,

    // ------------------------------------------------------------------
    // Local recovery (extension; paper future-work item 3)
    // ------------------------------------------------------------------
    /// Optional SRM-style local recovery: NAKs are multicast, peers that
    /// hold the requested data answer with multicast repairs after a
    /// port-keyed slot delay, and the sender holds its own retransmission
    /// back one repair window (cancelling it if the group confirms the
    /// data meanwhile). `false` (the default) keeps the paper's
    /// centralized recovery: "Recovery of lost packets is centralized:
    /// the sender is solely responsible for retransmitting data."
    pub local_recovery: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            mode: ReliabilityMode::Hybrid,
            segment_size: 1400,
            sndbuf: 256 * 1024,
            rcvbuf: 256 * 1024,
            minbuf_rtts: 10,
            anonymous_release_hold: 2 * SEC,
            min_rate: 64 * 1024,
            max_rate: 1 << 40,
            update_mode: UpdateMode::Dynamic,
            probe_policy: ProbePolicy::AtRelease,
            probe_transport: ProbeTransport::Unicast,
            probe_batch_limit: 0,
            initial_rtt: 10 * MS,
            join_retry_max: JOIN_RETRY_US,
            join_retry_limit: 0,
            join_jitter: 0.0,
            probe_failure_limit: 0,
            member_silence_us: 0,
            sender_death_factor: 0,
            fec: None,
            local_recovery: false,
        }
    }
}

impl ProtocolConfig {
    /// H-RMC with the paper's defaults.
    pub fn hrmc() -> Self {
        ProtocolConfig::default()
    }

    /// The original RMC baseline: pure NAK reliability, no updates, no
    /// probes, unconditional buffer release after MINBUF RTTs.
    pub fn rmc() -> Self {
        ProtocolConfig {
            mode: ReliabilityMode::RmcNakOnly,
            update_mode: UpdateMode::Disabled,
            ..ProtocolConfig::default()
        }
    }

    /// Enable XOR-parity FEC with block size `k` (overhead 1/k).
    pub fn with_fec(mut self, k: usize) -> Self {
        self.fec = Some(FecConfig { k });
        self
    }

    /// Enable SRM-style local recovery (multicast NAKs + peer repairs).
    pub fn with_local_recovery(mut self) -> Self {
        self.local_recovery = true;
        self
    }

    /// Builder-style buffer size setter (sets both sndbuf and rcvbuf, as
    /// the paper's experiments vary "the per-socket kernel buffer size").
    pub fn with_buffer(mut self, bytes: usize) -> Self {
        self.sndbuf = bytes;
        self.rcvbuf = bytes;
        self
    }

    /// Builder-style JOIN-retry jitter setter (fraction in `[0, 1]`).
    pub fn join_jitter(mut self, jitter: f64) -> Self {
        self.join_jitter = jitter;
        self
    }

    /// Builder-style segment size setter.
    pub fn with_segment_size(mut self, bytes: usize) -> Self {
        self.segment_size = bytes;
        self
    }

    /// Number of whole segments the send buffer can hold.
    pub fn sndbuf_segments(&self) -> usize {
        (self.sndbuf / self.segment_size).max(1)
    }

    /// Validate invariants; engines call this on construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_size == 0 {
            return Err("segment_size must be positive".into());
        }
        if self.sndbuf < self.segment_size || self.rcvbuf < self.segment_size {
            return Err("buffers must hold at least one segment".into());
        }
        if self.min_rate == 0 || self.min_rate > self.max_rate {
            return Err("rates must satisfy 0 < min_rate <= max_rate".into());
        }
        if let UpdateMode::Fixed(j) = self.update_mode {
            if !(MIN_PERIOD_JIFFIES..=MAX_PERIOD_JIFFIES).contains(&j) {
                return Err(format!(
                    "UpdateMode::Fixed({j}) must lie within \
                     [{MIN_PERIOD_JIFFIES}, {MAX_PERIOD_JIFFIES}] jiffies"
                ));
            }
        }
        if self.mode == ReliabilityMode::RmcNakOnly && self.update_mode != UpdateMode::Disabled {
            return Err("RMC mode requires UpdateMode::Disabled".into());
        }
        if self.join_retry_max < JOIN_RETRY_US {
            return Err(format!("join_retry_max must be >= {JOIN_RETRY_US} µs"));
        }
        if !(0.0..=1.0).contains(&self.join_jitter) {
            return Err("join_jitter must be within [0, 1]".into());
        }
        if let Some(fec) = &self.fec {
            fec.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ProtocolConfig::default();
        assert_eq!(c.minbuf_rtts, 10); // MINBUF
        assert_eq!(crate::receiver::WARNBUF_RTTS, 4.0); // WARNBUF
        assert_eq!(crate::rate::URGENT_STOP_RTTS, 2);
        assert_eq!(crate::keepalive::KEEPALIVE_MAX_US, 2_000_000); // 2 s cap
        assert_eq!(crate::update::INITIAL_PERIOD_JIFFIES, 50); // 0.5 s
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rmc_preset_disables_hybrid_machinery() {
        let c = ProtocolConfig::rmc();
        assert_eq!(c.mode, ReliabilityMode::RmcNakOnly);
        assert_eq!(c.update_mode, UpdateMode::Disabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_buffer_sets_both_sides() {
        let c = ProtocolConfig::default().with_buffer(64 * 1024);
        assert_eq!(c.sndbuf, 64 * 1024);
        assert_eq!(c.rcvbuf, 64 * 1024);
    }

    #[test]
    fn sndbuf_segments_counts_whole_segments() {
        let c = ProtocolConfig::default()
            .with_buffer(64 * 1024)
            .with_segment_size(1400);
        assert_eq!(c.sndbuf_segments(), 64 * 1024 / 1400);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // each case mutates one field
    fn validate_rejects_bad_configs() {
        let mut c = ProtocolConfig::default();
        c.segment_size = 0;
        assert!(c.validate().is_err());

        let mut c = ProtocolConfig::default();
        c.sndbuf = 10;
        assert!(c.validate().is_err());

        let mut c = ProtocolConfig::default();
        c.min_rate = 0;
        assert!(c.validate().is_err());

        let mut c = ProtocolConfig::default();
        c.mode = ReliabilityMode::RmcNakOnly; // but updates left on
        assert!(c.validate().is_err());

        // A fixed update period outside the dynamic timer's clamps is an
        // error; both ablation cells (5 and 50 jiffies) are inside.
        let mut c = ProtocolConfig::default();
        for (j, ok) in [(0, false), (1000, false), (5, true), (50, true)] {
            c.update_mode = UpdateMode::Fixed(j);
            assert_eq!(c.validate().is_ok(), ok, "Fixed({j})");
        }
        c.update_mode = UpdateMode::Fixed(0);
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("[2, 500]"), "{msg}");

        let mut c = ProtocolConfig::default();
        c.join_retry_max = JOIN_RETRY_US - 1;
        assert!(c.validate().is_err());

        let mut c = ProtocolConfig::default();
        c.join_jitter = 1.5;
        assert!(c.validate().is_err());
        c.join_jitter = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn failure_domain_handling_is_off_by_default() {
        let c = ProtocolConfig::default();
        assert_eq!(c.probe_failure_limit, 0);
        assert_eq!(c.member_silence_us, 0);
        assert_eq!(c.sender_death_factor, 0);
        assert_eq!(c.join_retry_limit, 0);
        assert_eq!(c.join_retry_max, JOIN_RETRY_US);
        assert!(c.validate().is_ok());
    }
}
