//! Causal lifecycle reconstruction: fold a time-ordered event stream
//! into the diagnosis reports of [`crate::report`].
//!
//! The analyzer replays each sequence number's lifecycle
//! (sent → lost/arrived → NAK → retransmit → delivered → released) and
//! each member's feedback behaviour, then audits the end state: every
//! sequence must finish released, or its absence must be attributable
//! to an ejected/failed member. Anything else is an unaccounted loss —
//! exactly the thing a post-mortem needs surfaced.

use std::collections::{BTreeMap, BTreeSet};

use hrmc_core::rxwindow::Region;
use hrmc_core::{Event, Histogram};

use crate::parse::{parse_file, parse_str, ParseStats, Source, TraceError, TraceEvent};
use crate::report::{
    AlertAuditReport, Analysis, FlowReport, LifecycleReport, MemberReport, PhaseSpan,
    RegionOccupancy, ReleaseReport, RttReport, SuppressionReport, TransferReport,
};

/// Sender-side lifecycle state of one sequence number.
#[derive(Default)]
struct SeqState {
    sent: bool,
    released: bool,
    released_at: Option<u64>,
    stall_first: Option<u64>,
    probed: bool,
}

/// Receiver-side state of one member source.
struct MemberState {
    source: Source,
    joined_at: Option<u64>,
    join_rtt: Option<u64>,
    delivered_segments: u64,
    delivered: BTreeSet<u64>,
    lost: BTreeSet<u64>,
    recovered: BTreeSet<u64>,
    naks_sent: u64,
    nak_seqs: u64,
    suppression_events: u64,
    naks_suppressed: u64,
    updates_sent: u64,
    recovery: Histogram,
    region: Region,
    region_since: u64,
    occupancy: RegionOccupancy,
    ejected: bool,
    /// When the sender ejected this member (µs).
    ejected_at: Option<u64>,
    /// Timestamp of the member's most recent event — evidence of life
    /// for the false-ejection audit.
    last_activity: u64,
    session_failed: bool,
}

impl MemberState {
    fn new(source: Source, now: u64) -> MemberState {
        MemberState {
            source,
            joined_at: None,
            join_rtt: None,
            delivered_segments: 0,
            delivered: BTreeSet::new(),
            lost: BTreeSet::new(),
            recovered: BTreeSet::new(),
            naks_sent: 0,
            nak_seqs: 0,
            suppression_events: 0,
            naks_suppressed: 0,
            updates_sent: 0,
            recovery: Histogram::new(),
            region: Region::Safe,
            region_since: now,
            occupancy: RegionOccupancy::default(),
            ejected: false,
            ejected_at: None,
            last_activity: now,
            session_failed: false,
        }
    }

    fn credit_region(&mut self, until: u64) {
        let span = until.saturating_sub(self.region_since);
        match self.region {
            Region::Safe => self.occupancy.safe_us += span,
            Region::Warning => self.occupancy.warning_us += span,
            Region::Critical => self.occupancy.critical_us += span,
        }
        self.region_since = until;
    }
}

/// Does this source's member id (or `recvN` label) match the ejected
/// peer id?
fn source_is_peer(source: &Source, peer: u32) -> bool {
    match source {
        Source::Host(_) => source.member() == Some(peer),
        Source::Label(l) => *l == format!("recv{peer}"),
        Source::Anonymous => false,
    }
}

impl Analysis {
    /// Fold a time-ordered event stream into a full diagnosis.
    pub fn from_events(events: &[TraceEvent], parse: ParseStats) -> Analysis {
        let start_us = events.first().map_or(0, |e| e.t_us);
        let end_us = events.last().map_or(0, |e| e.t_us);

        let mut transfer = TransferReport::default();
        let mut release = ReleaseReport::default();
        let mut seqs: BTreeMap<u64, SeqState> = BTreeMap::new();
        let mut members: BTreeMap<Source, MemberState> = BTreeMap::new();

        // Flow-control raw material.
        let mut first_sender_t: Option<u64> = None;
        let mut transitions: Vec<(u64, String, String, u64)> = Vec::new();
        let mut halvings: Vec<u64> = Vec::new();
        let mut urgent_stops = 0u64;
        let mut final_rate = 0u64;

        // RTT raw material.
        let mut rtt_samples: Vec<(u64, u64)> = Vec::new();
        let mut probe_samples = 0u64;

        let mut ejected_peers: Vec<(u64, u32)> = Vec::new();
        let mut stall_latency = Histogram::new();
        let mut alerts = AlertAuditReport::default();

        for te in events {
            let now = te.t_us;
            let mut sender_event = true;
            match &te.event {
                Event::RatePhaseChanged { from, to, rate_bps } => {
                    transitions.push((
                        now,
                        from.name().to_string(),
                        to.name().to_string(),
                        *rate_bps,
                    ));
                    final_rate = *rate_bps;
                }
                Event::RateHalved { rate_bps } => {
                    halvings.push(now);
                    final_rate = *rate_bps;
                }
                Event::UrgentStopped { .. } => urgent_stops += 1,
                Event::RttSample { srtt_us, probe, .. } => {
                    rtt_samples.push((now, *srtt_us));
                    if *probe {
                        probe_samples += 1;
                    }
                }
                Event::ProbeSent { seq, .. } => {
                    release.probes_sent += 1;
                    seqs.entry(u64::from(*seq)).or_default().probed = true;
                }
                Event::KeepaliveSent { .. } => transfer.keepalives_sent += 1,
                Event::ReleaseAttempt {
                    seq,
                    complete,
                    released,
                } => {
                    release.attempts += 1;
                    if *complete {
                        release.complete_info += 1;
                    }
                    let st = seqs.entry(u64::from(*seq)).or_default();
                    if *released {
                        release.released += 1;
                        st.released = true;
                        st.released_at.get_or_insert(now);
                    } else {
                        release.stalled_attempts += 1;
                        st.stall_first.get_or_insert(now);
                    }
                }
                Event::DataSent {
                    seq,
                    bytes,
                    retransmission,
                } => {
                    let st = seqs.entry(u64::from(*seq)).or_default();
                    if *retransmission {
                        transfer.retransmissions += 1;
                    } else {
                        transfer.data_packets += 1;
                        transfer.data_bytes += u64::from(*bytes);
                        st.sent = true;
                    }
                }
                Event::PeerJoined { .. } => {}
                Event::MemberEjected { peer } => ejected_peers.push((now, peer.0)),
                // Online monitor transitions: side-channel evidence, not
                // protocol activity — they never open the sender span and
                // never count as member life signs.
                Event::HealthAlert { rule, raised, .. } => {
                    sender_event = false;
                    if *raised {
                        alerts.raised += 1;
                        if *rule == hrmc_core::health::AlertRule::FalseEjection {
                            alerts.false_ejection_alerts += 1;
                        }
                    } else {
                        alerts.cleared += 1;
                    }
                }
                Event::ChecksumFailed => {
                    transfer.checksum_failures += 1;
                    sender_event = false;
                }
                // ---- receiver side ----
                receiver_event => {
                    sender_event = false;
                    let m = members
                        .entry(te.source.clone())
                        .or_insert_with(|| MemberState::new(te.source.clone(), now));
                    m.last_activity = now;
                    match receiver_event {
                        Event::RegionChanged { to, .. } => {
                            m.credit_region(now);
                            m.region = *to;
                            match to {
                                Region::Warning => m.occupancy.warning_entries += 1,
                                Region::Critical => m.occupancy.critical_entries += 1,
                                Region::Safe => {}
                            }
                        }
                        Event::NakSent { first, count, .. } => {
                            m.naks_sent += 1;
                            m.nak_seqs += u64::from(*count);
                            m.lost.extend(*first..first + u64::from(*count));
                        }
                        Event::NakSuppressed { pending } => {
                            m.suppression_events += 1;
                            m.naks_suppressed += u64::from(*pending);
                        }
                        Event::UpdateSent { .. } => m.updates_sent += 1,
                        Event::Recovered {
                            first,
                            count,
                            elapsed_us,
                        } => {
                            let range = *first..first + u64::from(*count);
                            m.lost.extend(range.clone());
                            m.recovered.extend(range);
                            m.recovery.record(*elapsed_us);
                        }
                        Event::Delivered { first, count } => {
                            m.delivered_segments += u64::from(*count);
                            m.delivered.extend(*first..first + u64::from(*count));
                        }
                        Event::Joined { rtt_us } => {
                            m.joined_at.get_or_insert(now);
                            m.join_rtt.get_or_insert(*rtt_us);
                            transfer.joins_completed += 1;
                        }
                        Event::SessionFailed => m.session_failed = true,
                        _ => unreachable!("sender events handled above"),
                    }
                }
            }
            if sender_event {
                first_sender_t.get_or_insert(now);
            }
        }

        // Sequence end states.
        transfer.unique_seqs = seqs.values().filter(|s| s.sent).count() as u64;
        for st in seqs.values() {
            if let Some(stalled) = st.stall_first {
                release.stalled_seqs += 1;
                if st.probed {
                    release.probe_attributed_seqs += 1;
                }
                if let Some(rel) = st.released_at {
                    stall_latency.record(rel.saturating_sub(stalled));
                }
            }
        }
        release.stall_latency = stall_latency.summary();

        // Flow-control timeline: open the initial span at the first
        // sender event, advance it at every transition, close at trace
        // end, then attribute each halving to its containing span.
        let mut flow = FlowReport {
            transitions: transitions.len() as u64,
            rate_halvings: halvings.len() as u64,
            urgent_stops,
            final_rate_bps: final_rate,
            ..FlowReport::default()
        };
        if let Some(t0) = first_sender_t {
            let mut spans: Vec<PhaseSpan> = Vec::new();
            let initial_phase = transitions
                .first()
                .map_or_else(|| "slow_start".to_string(), |t| t.1.clone());
            spans.push(PhaseSpan {
                phase: initial_phase,
                start_us: t0,
                end_us,
                rate_bps_at_entry: 0,
                halvings: 0,
            });
            for (t, _, to, rate) in &transitions {
                if let Some(prev) = spans.last_mut() {
                    prev.end_us = *t;
                }
                spans.push(PhaseSpan {
                    phase: to.clone(),
                    start_us: *t,
                    end_us,
                    rate_bps_at_entry: *rate,
                    halvings: 0,
                });
            }
            for &h in &halvings {
                if let Some(sp) = spans
                    .iter_mut()
                    .rev()
                    .find(|sp| sp.start_us <= h && h <= sp.end_us)
                {
                    sp.halvings += 1;
                }
            }
            for sp in &spans {
                let d = sp.end_us.saturating_sub(sp.start_us);
                match sp.phase.as_str() {
                    "slow_start" => flow.slow_start_us += d,
                    "congestion_avoidance" => flow.congestion_avoidance_us += d,
                    _ => flow.stopped_us += d,
                }
            }
            flow.spans = spans;
        }

        // RTT convergence: earliest sample after which the smoothed
        // estimate never leaves ±10% of its final value.
        let mut rtt = RttReport {
            samples: rtt_samples.len() as u64,
            probe_samples,
            ..RttReport::default()
        };
        if let Some(&(_, first)) = rtt_samples.first() {
            let (_, fin) = *rtt_samples.last().expect("nonempty");
            rtt.first_srtt_us = first;
            rtt.final_srtt_us = fin;
            let tol = fin / 10;
            let mut idx = rtt_samples.len() - 1;
            while idx > 0 && rtt_samples[idx - 1].1.abs_diff(fin) <= tol {
                idx -= 1;
            }
            rtt.converged_at_us = Some(rtt_samples[idx].0);
            rtt.samples_to_converge = idx as u64 + 1;
        }

        // Member reports.
        for (at, peer) in &ejected_peers {
            for m in members.values_mut() {
                if source_is_peer(&m.source, *peer) {
                    m.ejected = true;
                    m.ejected_at.get_or_insert(*at);
                }
            }
        }
        let mut suppression = SuppressionReport::default();
        let mut member_reports = Vec::with_capacity(members.len());
        let mut false_ejections = 0u64;
        for m in members.values_mut() {
            m.credit_region(end_us);
            suppression.losses_observed += m.lost.len() as u64;
            suppression.naks_sent += m.naks_sent;
            suppression.nak_seqs += m.nak_seqs;
            suppression.suppression_events += m.suppression_events;
            suppression.naks_suppressed += m.naks_suppressed;
            // A member that kept emitting events after its ejection
            // timestamp was alive when the sender cut it loose — the
            // false ejection the jitter invariants guard against.
            let falsely_ejected = m.ejected_at.is_some_and(|at| m.last_activity > at);
            if falsely_ejected {
                false_ejections += 1;
            }
            member_reports.push(MemberReport {
                source: m.source.key(),
                member: m.source.member(),
                joined_at_us: m.joined_at,
                join_rtt_us: m.join_rtt,
                delivered_segments: m.delivered_segments,
                losses: m.lost.len() as u64,
                recovered_seqs: m.recovered.len() as u64,
                unrecovered: m.lost.difference(&m.recovered).count() as u64,
                naks_sent: m.naks_sent,
                nak_seqs: m.nak_seqs,
                suppression_events: m.suppression_events,
                naks_suppressed: m.naks_suppressed,
                updates_sent: m.updates_sent,
                recovery_latency: m.recovery.summary(),
                regions: m.occupancy.clone(),
                ejected: m.ejected,
                ejected_at_us: m.ejected_at,
                falsely_ejected,
                session_failed: m.session_failed,
            });
        }
        let requested = suppression.naks_suppressed + suppression.nak_seqs;
        if requested > 0 {
            suppression.suppression_ratio = suppression.naks_suppressed as f64 / requested as f64;
        }
        if suppression.losses_observed > 0 {
            suppression.naks_per_loss =
                suppression.naks_sent as f64 / suppression.losses_observed as f64;
        }

        // Lifecycle audit: every sent sequence must end released, or be
        // delivered by every live member — otherwise it is unaccounted.
        let live: Vec<&BTreeSet<u64>> = members
            .values()
            .filter(|m| !m.ejected && !m.session_failed)
            .map(|m| &m.delivered)
            .collect();
        let mut lifecycle = LifecycleReport {
            seqs_sent: transfer.unique_seqs,
            ..LifecycleReport::default()
        };
        for (&seq, st) in seqs.iter().filter(|(_, st)| st.sent) {
            if st.released {
                lifecycle.released += 1;
            }
            let everywhere = !live.is_empty() && live.iter().all(|d| d.contains(&seq));
            if everywhere {
                lifecycle.delivered_by_all_live += 1;
            }
            if !st.released && !everywhere {
                lifecycle.incomplete += 1;
                if lifecycle.incomplete_seqs.len() < 16 {
                    lifecycle.incomplete_seqs.push(seq);
                }
            }
        }
        lifecycle.complete = lifecycle.incomplete == 0;

        // Cross-check the online monitor against this audit. An alert
        // line proves the monitor was armed; only then is silence about
        // a real false ejection a miss.
        let monitor_armed = parse.alerts > 0;
        alerts.alert_miss =
            monitor_armed && false_ejections > 0 && alerts.false_ejection_alerts == 0;
        alerts.alert_spurious = alerts.false_ejection_alerts > 0 && false_ejections == 0;

        Analysis {
            parse,
            events: events.len() as u64,
            start_us,
            end_us,
            transfer,
            suppression,
            flow,
            release,
            rtt,
            members: member_reports,
            false_ejections,
            alerts,
            lifecycle,
        }
    }
}

/// Parse and analyze an in-memory JSONL trace.
pub fn analyze_str(input: &str) -> Result<Analysis, TraceError> {
    let (events, stats) = parse_str(input)?;
    Ok(Analysis::from_events(&events, stats))
}

/// Parse and analyze a JSONL trace file.
pub fn analyze_file(path: &std::path::Path) -> Result<Analysis, TraceError> {
    let (events, stats) = parse_file(path)?;
    Ok(Analysis::from_events(&events, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-written trace: sender sends seq 0–2, member host:1
    /// loses seq 1, NAKs it, recovers, delivers all; member host:2
    /// suppresses and delivers all; both release.
    fn synthetic() -> &'static str {
        concat!(
            "{\"schema\":1,\"role\":\"sim\"}\n",
            "{\"t_us\":100,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":1000,\"retransmission\":false}\n",
            "{\"t_us\":200,\"host\":0,\"event\":\"data_sent\",\"seq\":1,\"bytes\":1000,\"retransmission\":false}\n",
            "{\"t_us\":300,\"host\":0,\"event\":\"data_sent\",\"seq\":2,\"bytes\":1000,\"retransmission\":false}\n",
            "{\"t_us\":400,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":450,\"host\":2,\"event\":\"delivered\",\"first\":0,\"count\":3}\n",
            "{\"t_us\":500,\"host\":1,\"event\":\"nak_sent\",\"first\":1,\"count\":1,\"trigger\":\"gap\"}\n",
            "{\"t_us\":520,\"host\":2,\"event\":\"nak_suppressed\",\"pending\":1}\n",
            "{\"t_us\":600,\"host\":0,\"event\":\"data_sent\",\"seq\":1,\"bytes\":1000,\"retransmission\":true}\n",
            "{\"t_us\":700,\"host\":1,\"event\":\"recovered\",\"first\":1,\"count\":1,\"elapsed_us\":200}\n",
            "{\"t_us\":710,\"host\":1,\"event\":\"delivered\",\"first\":1,\"count\":2}\n",
            "{\"t_us\":800,\"host\":0,\"event\":\"release_attempt\",\"seq\":0,\"complete\":false,\"released\":false}\n",
            "{\"t_us\":810,\"host\":0,\"event\":\"probe_sent\",\"seq\":0,\"multicast\":true}\n",
            "{\"t_us\":900,\"host\":0,\"event\":\"release_attempt\",\"seq\":0,\"complete\":true,\"released\":true}\n",
            "{\"t_us\":910,\"host\":0,\"event\":\"release_attempt\",\"seq\":1,\"complete\":true,\"released\":true}\n",
            "{\"t_us\":920,\"host\":0,\"event\":\"release_attempt\",\"seq\":2,\"complete\":true,\"released\":true}\n",
        )
    }

    #[test]
    fn synthetic_trace_full_diagnosis() {
        let a = analyze_str(synthetic()).unwrap();
        assert_eq!(a.events, 15);
        assert_eq!(a.transfer.data_packets, 3);
        assert_eq!(a.transfer.retransmissions, 1);
        assert_eq!(a.transfer.unique_seqs, 3);
        assert_eq!(a.transfer.data_bytes, 3000);

        assert_eq!(a.suppression.losses_observed, 1);
        assert_eq!(a.suppression.naks_sent, 1);
        assert_eq!(a.suppression.naks_suppressed, 1);
        assert!((a.suppression.suppression_ratio - 0.5).abs() < 1e-9);

        assert_eq!(a.release.attempts, 4);
        assert_eq!(a.release.released, 3);
        assert_eq!(a.release.stalled_attempts, 1);
        assert_eq!(a.release.stalled_seqs, 1);
        assert_eq!(a.release.probe_attributed_seqs, 1);
        assert_eq!(a.release.stall_latency.count, 1);

        assert_eq!(a.members.len(), 2);
        let m1 = &a.members[0];
        assert_eq!(m1.source, "host:1");
        assert_eq!(m1.member, Some(0));
        assert_eq!(m1.losses, 1);
        assert_eq!(m1.recovered_seqs, 1);
        assert_eq!(m1.unrecovered, 0);
        assert_eq!(m1.delivered_segments, 3);
        assert_eq!(m1.recovery_latency.count, 1);
        let m2 = &a.members[1];
        assert_eq!(m2.source, "host:2");
        assert_eq!(m2.naks_suppressed, 1);

        assert_eq!(a.lifecycle.seqs_sent, 3);
        assert_eq!(a.lifecycle.released, 3);
        assert_eq!(a.lifecycle.delivered_by_all_live, 3);
        assert!(a.lifecycle.complete);
    }

    #[test]
    fn unaccounted_sequence_flags_incomplete() {
        // seq 0 sent, never released, never delivered anywhere.
        let trace = "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n";
        let a = analyze_str(trace).unwrap();
        assert!(!a.lifecycle.complete);
        assert_eq!(a.lifecycle.incomplete, 1);
        assert_eq!(a.lifecycle.incomplete_seqs, vec![0]);
    }

    #[test]
    fn ejected_member_does_not_gate_lifecycle() {
        let trace = concat!(
            "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n",
            "{\"t_us\":2,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":3,\"host\":2,\"event\":\"nak_sent\",\"first\":0,\"count\":1,\"trigger\":\"timer\"}\n",
            "{\"t_us\":4,\"host\":0,\"event\":\"member_ejected\",\"member\":1}\n",
        );
        let a = analyze_str(trace).unwrap();
        // host:2 (member 1) is ejected: its undelivered seq 0 does not
        // count against completeness; host:1 delivered it.
        assert!(a.members.iter().any(|m| m.source == "host:2" && m.ejected));
        assert_eq!(a.lifecycle.delivered_by_all_live, 1);
        assert!(a.lifecycle.complete);
        // The corpse stayed silent after its ejection: not a false one.
        assert_eq!(a.false_ejections, 0);
        assert!(a.members.iter().all(|m| !m.falsely_ejected));
    }

    #[test]
    fn post_ejection_activity_is_a_false_ejection() {
        let trace = concat!(
            "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n",
            "{\"t_us\":2,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":3,\"host\":0,\"event\":\"member_ejected\",\"member\":0}\n",
            // Member 0 (host:1) keeps delivering after its ejection —
            // it was alive all along, merely slow.
            "{\"t_us\":9,\"host\":1,\"event\":\"delivered\",\"first\":1,\"count\":1}\n",
        );
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.false_ejections, 1);
        let m = a.members.iter().find(|m| m.source == "host:1").unwrap();
        assert!(m.ejected && m.falsely_ejected);
        assert_eq!(m.ejected_at_us, Some(3));
        // The rendered report calls it out.
        let text = a.render_table();
        assert!(
            text.contains("FALSE-EJ"),
            "report must flag false ejections"
        );
        assert!(text.contains("ejected while demonstrably alive"));
    }

    #[test]
    fn online_false_ejection_alert_agreeing_with_audit_is_clean() {
        let trace = concat!(
            "{\"schema\":2,\"role\":\"sim\"}\n",
            "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n",
            "{\"t_us\":3,\"host\":0,\"event\":\"member_ejected\",\"member\":0}\n",
            "{\"t_us\":9,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":10,\"event\":\"health_alert\",\"rule\":\"false_ejection\",\"severity\":\"critical\",\"raised\":true,\"value_m\":0,\"limit_m\":0}\n",
        );
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.false_ejections, 1);
        assert_eq!(a.alerts.raised, 1);
        assert_eq!(a.alerts.false_ejection_alerts, 1);
        assert!(!a.alerts.alert_miss);
        assert!(!a.alerts.alert_spurious);
        let text = a.render_table();
        assert!(text.contains("online alerts agree"));
    }

    #[test]
    fn armed_monitor_missing_a_false_ejection_is_alert_miss() {
        // The monitor was demonstrably armed (a nak_storm alert fired)
        // yet never flagged the false ejection the audit reconstructs.
        let trace = concat!(
            "{\"schema\":2,\"role\":\"sim\"}\n",
            "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n",
            "{\"t_us\":2,\"event\":\"health_alert\",\"rule\":\"nak_storm\",\"severity\":\"warning\",\"raised\":true,\"value_m\":2000,\"limit_m\":1000}\n",
            "{\"t_us\":3,\"host\":0,\"event\":\"member_ejected\",\"member\":0}\n",
            "{\"t_us\":9,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
        );
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.false_ejections, 1);
        assert!(a.alerts.alert_miss);
        assert!(!a.alerts.alert_spurious);
        assert!(a.render_table().contains("ALERT-MISS"));
    }

    #[test]
    fn uncorroborated_false_ejection_alert_is_alert_spurious() {
        // Member 0 went silent after its ejection — the audit sees a
        // clean ejection, so the online false-ejection alert is noise.
        let trace = concat!(
            "{\"schema\":2,\"role\":\"sim\"}\n",
            "{\"t_us\":1,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\"retransmission\":false}\n",
            "{\"t_us\":2,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":3,\"host\":0,\"event\":\"member_ejected\",\"member\":0}\n",
            "{\"t_us\":4,\"event\":\"health_alert\",\"rule\":\"false_ejection\",\"severity\":\"critical\",\"raised\":true,\"value_m\":0,\"limit_m\":0}\n",
        );
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.false_ejections, 0);
        assert!(!a.alerts.alert_miss);
        assert!(a.alerts.alert_spurious);
        assert!(a.render_table().contains("ALERT-SPURIOUS"));
    }

    #[test]
    fn alert_free_trace_reports_no_monitor_verdict() {
        let a = analyze_str(synthetic()).unwrap();
        assert_eq!(a.alerts, Default::default());
        assert!(!a.render_table().contains("health alerts"));
    }

    #[test]
    fn flow_spans_and_rtt_convergence() {
        let trace = concat!(
            "{\"t_us\":0,\"host\":0,\"event\":\"rtt_sample\",\"sample_us\":1000,\"srtt_us\":1000,\"probe\":false}\n",
            "{\"t_us\":10,\"host\":0,\"event\":\"rate_halved\",\"rate_bps\":500}\n",
            "{\"t_us\":20,\"host\":0,\"event\":\"rate_phase_changed\",\"from\":\"slow_start\",\"to\":\"congestion_avoidance\",\"rate_bps\":500}\n",
            "{\"t_us\":30,\"host\":0,\"event\":\"rtt_sample\",\"sample_us\":5000,\"srtt_us\":4000,\"probe\":true}\n",
            "{\"t_us\":40,\"host\":0,\"event\":\"rtt_sample\",\"sample_us\":4000,\"srtt_us\":4100,\"probe\":false}\n",
            "{\"t_us\":50,\"host\":0,\"event\":\"rate_halved\",\"rate_bps\":250}\n",
        );
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.flow.spans.len(), 2);
        assert_eq!(a.flow.spans[0].phase, "slow_start");
        assert_eq!(a.flow.spans[0].halvings, 1);
        assert_eq!(a.flow.spans[1].phase, "congestion_avoidance");
        assert_eq!(a.flow.spans[1].halvings, 1);
        assert_eq!(a.flow.slow_start_us, 20);
        assert_eq!(a.flow.congestion_avoidance_us, 30);
        assert_eq!(a.flow.final_rate_bps, 250);

        assert_eq!(a.rtt.samples, 3);
        assert_eq!(a.rtt.probe_samples, 1);
        assert_eq!(a.rtt.first_srtt_us, 1000);
        assert_eq!(a.rtt.final_srtt_us, 4100);
        // srtt 4000 is within 10% of 4100, srtt 1000 is not.
        assert_eq!(a.rtt.converged_at_us, Some(30));
        assert_eq!(a.rtt.samples_to_converge, 2);
    }

    #[test]
    fn region_occupancy_accumulates() {
        let trace = concat!(
            "{\"t_us\":0,\"host\":1,\"event\":\"delivered\",\"first\":0,\"count\":1}\n",
            "{\"t_us\":100,\"host\":1,\"event\":\"region_changed\",\"from\":\"safe\",\"to\":\"warning\"}\n",
            "{\"t_us\":150,\"host\":1,\"event\":\"region_changed\",\"from\":\"warning\",\"to\":\"critical\"}\n",
            "{\"t_us\":160,\"host\":1,\"event\":\"region_changed\",\"from\":\"critical\",\"to\":\"safe\"}\n",
            "{\"t_us\":200,\"host\":1,\"event\":\"delivered\",\"first\":1,\"count\":1}\n",
        );
        let a = analyze_str(trace).unwrap();
        let m = &a.members[0];
        assert_eq!(m.regions.safe_us, 100 + 40);
        assert_eq!(m.regions.warning_us, 50);
        assert_eq!(m.regions.critical_us, 10);
        assert_eq!(m.regions.warning_entries, 1);
        assert_eq!(m.regions.critical_entries, 1);
    }

    #[test]
    fn renderings_do_not_panic_and_json_is_valid() {
        let a = analyze_str(synthetic()).unwrap();
        let table = a.render_table();
        assert!(table.contains("nak suppression"));
        assert!(table.contains("lifecycle"));
        let json = a.to_json();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("events").and_then(|e| e.as_u64()), Some(15));
    }
}
