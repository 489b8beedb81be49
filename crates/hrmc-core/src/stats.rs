//! Counters the experiment harnesses read. Every figure in the paper's
//! evaluation is a time series or total over one of these: throughput
//! (bytes delivered / elapsed), NAK counts (Figures 11(b)(d), 13),
//! rate-request counts (Figures 11(a)(c), 15(b), 16(b)), and the
//! buffer-release information-completeness ratio (Figure 3).

use serde::Serialize;

/// Sender-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SenderStats {
    /// DATA packets first-transmitted.
    pub data_packets_sent: u64,
    /// DATA payload bytes first-transmitted.
    pub data_bytes_sent: u64,
    /// DATA packets retransmitted.
    pub retransmissions: u64,
    /// NAK packets received ("the total number of NAKs ... that arrive at
    /// the sender", Figure 11).
    pub naks_received: u64,
    /// CONTROL (rate-request) packets received, warning + urgent.
    pub rate_requests_received: u64,
    /// CONTROL packets with URG set.
    pub urgent_rate_requests_received: u64,
    /// UPDATE packets received.
    pub updates_received: u64,
    /// PROBE packets sent.
    pub probes_sent: u64,
    /// KEEPALIVE packets sent.
    pub keepalives_sent: u64,
    /// NAK_ERR packets sent (RMC mode only; an unsatisfiable NAK).
    pub nak_errs_sent: u64,
    /// Segments released from the send buffer.
    pub segments_released: u64,
    /// Buffer-release attempts: the first time each segment becomes
    /// release-eligible under the MINBUF residency rule (Figure 3's
    /// denominator).
    pub release_attempts: u64,
    /// Release attempts at which the sender already had information from
    /// all receivers confirming the segment (Figure 3's numerator).
    pub release_attempts_with_complete_info: u64,
    /// Releases executed without complete information (RMC mode only —
    /// the reliability hole H-RMC closes).
    pub unsafe_releases: u64,
    /// JOINs processed.
    pub joins: u64,
    /// LEAVEs processed.
    pub leaves: u64,
    /// PARITY packets emitted (FEC extension).
    pub fec_parities_sent: u64,
    /// Delayed retransmissions cancelled because the group confirmed the
    /// data while the sender held back (local-recovery extension).
    pub retransmissions_cancelled: u64,
    /// Members forcibly ejected after unanswered probes or silence.
    /// (Skipped in serialization: pre-existing JSON series and fixture
    /// hashes stay stable.)
    #[serde(skip)]
    pub members_ejected: u64,
    /// Incoming datagrams discarded for checksum failure.
    #[serde(skip)]
    pub checksum_failures: u64,
    /// Release-gate (`all_have`) evaluations — each reads the group
    /// minimum, touching no member.
    #[serde(skip)]
    pub gate_checks: u64,
    /// Members touched by `lacking`/`stale`/`probe_failed` walks: the
    /// release gate's total scan cost.
    #[serde(skip)]
    pub gate_members_scanned: u64,
    /// PROBEs emitted during the most recent tick (gauge).
    #[serde(skip)]
    pub probes_last_tick: u64,
    /// PROBE targets deferred to a later tick by the per-tick fan-out cap
    /// (`probe_batch_limit`).
    #[serde(skip)]
    pub probes_deferred_by_batch: u64,
    /// Incoming packets whose fields failed an adversarial-input sanity
    /// bound (e.g. a NAK span wider than [`crate::MAX_CONTROL_SPAN`]) and
    /// were clamped or dropped instead of trusted.
    #[serde(skip)]
    pub malformed_packets: u64,
}

impl SenderStats {
    /// Figure 3's metric: the fraction of buffer-release attempts at which
    /// the sender had complete receiver information, in `[0, 1]`.
    pub fn complete_info_ratio(&self) -> f64 {
        if self.release_attempts == 0 {
            return 1.0;
        }
        self.release_attempts_with_complete_info as f64 / self.release_attempts as f64
    }

    /// Total receiver feedback packets processed.
    pub fn feedback_received(&self) -> u64 {
        self.naks_received + self.rate_requests_received + self.updates_received
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ReceiverStats {
    /// DATA packets accepted (in order or out of order).
    pub data_packets_received: u64,
    /// Duplicate DATA packets dropped.
    pub duplicates_dropped: u64,
    /// DATA packets dropped for lack of buffer space.
    pub overflow_drops: u64,
    /// DATA packets dropped as beyond the receive window (region R4).
    pub beyond_window_drops: u64,
    /// NAK packets sent.
    pub naks_sent: u64,
    /// CONTROL packets sent (warning + urgent).
    pub rate_requests_sent: u64,
    /// CONTROL packets sent with URG.
    pub urgent_rate_requests_sent: u64,
    /// UPDATE packets sent (periodic + probe responses).
    pub updates_sent: u64,
    /// PROBE packets received.
    pub probes_received: u64,
    /// KEEPALIVE packets received.
    pub keepalives_received: u64,
    /// NAK_ERR packets received (data irrecoverably lost; RMC mode).
    pub nak_errs_received: u64,
    /// Bytes handed to the application.
    pub bytes_delivered: u64,
    /// Packets queued to the backlog while the socket was locked.
    pub backlogged_packets: u64,
    /// PARITY packets received (FEC extension).
    pub fec_parities_received: u64,
    /// Packets reconstructed from parity instead of retransmission.
    pub fec_recoveries: u64,
    /// Repair DATA packets this receiver multicast to peers
    /// (local-recovery extension).
    pub repairs_sent: u64,
    /// Peer NAKs heard (local-recovery extension).
    pub peer_naks_heard: u64,
    /// Terminal session failures declared (sender death / JOIN budget).
    /// (Skipped in serialization: pre-existing JSON series and fixture
    /// hashes stay stable.)
    #[serde(skip)]
    pub session_failures: u64,
    /// Incoming datagrams discarded for checksum failure.
    #[serde(skip)]
    pub checksum_failures: u64,
    /// Incoming packets whose fields failed an adversarial-input sanity
    /// bound (e.g. a control sequence outside the plausible window, or a
    /// span wider than [`crate::MAX_CONTROL_SPAN`]) and were clamped or
    /// dropped instead of trusted.
    #[serde(skip)]
    pub malformed_packets: u64,
}

impl ReceiverStats {
    /// Total feedback packets sent toward the sender.
    pub fn feedback_sent(&self) -> u64 {
        self.naks_sent + self.rate_requests_sent + self.updates_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_info_ratio_edge_cases() {
        let mut s = SenderStats::default();
        assert_eq!(s.complete_info_ratio(), 1.0); // vacuous
        s.release_attempts = 4;
        s.release_attempts_with_complete_info = 3;
        assert_eq!(s.complete_info_ratio(), 0.75);
    }

    #[test]
    fn feedback_totals() {
        let s = SenderStats {
            naks_received: 2,
            rate_requests_received: 3,
            updates_received: 5,
            ..SenderStats::default()
        };
        assert_eq!(s.feedback_received(), 10);

        let r = ReceiverStats {
            naks_sent: 1,
            rate_requests_sent: 2,
            updates_sent: 3,
            ..ReceiverStats::default()
        };
        assert_eq!(r.feedback_sent(), 6);
    }
}
