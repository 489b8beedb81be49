//! Sim-side observability: per-host forwarding observers feeding one
//! shared collector.
//!
//! The collector correlates the sender's `DataSent` events with each
//! receiver's `Delivered` events under the simulation clock to build a
//! delivery-latency histogram (the time from first multicast transmission
//! to in-order delivery), pools every receiver's `Recovered` latencies
//! (NAK-to-repair), and can mirror the full event stream to a JSONL sink
//! with a `"host"` field identifying the engine that emitted each event.
//!
//! Simulated streams start at sequence 0 (see `Simulation::new`'s
//! `expect_stream_start(0)`), so wrapped wire sequence numbers and the
//! receivers' unwrapped 64-bit numbers coincide for the transfer sizes
//! the experiments use; the send-time table is keyed on that shared
//! value.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use hrmc_core::obs::{event_json_with, header_json};
use hrmc_core::{Alert, Event, HealthConfig, HealthMonitor, Histogram, Micros, ProtocolObserver};

/// Collector shared by every host's [`HostObserver`].
pub struct SharedObs {
    /// First-transmission time per sequence number (retransmissions do
    /// not overwrite, so latency is measured from the original send).
    send_times: HashMap<u64, u64>,
    /// First-send → in-order-delivery latency (µs), all receivers pooled.
    pub delivery: Histogram,
    /// Gap-noted → gap-filled recovery latency (µs), all receivers pooled.
    pub recovery: Histogram,
    /// Optional JSONL event sink.
    log: Option<Box<dyn Write + Send>>,
    /// Optional online health monitor fed the tagged event stream.
    /// Alert transitions it emits are mirrored to the sink as host-less
    /// `health_alert` lines.
    monitor: Option<HealthMonitor>,
    /// Every alert transition the monitor emitted, in time order: the
    /// run's complete [`crate::report::SimReport::alerts`].
    pub(crate) alerts: Vec<Alert>,
}

impl SharedObs {
    /// Empty collector.
    pub fn new() -> SharedObs {
        SharedObs {
            send_times: HashMap::new(),
            delivery: Histogram::new(),
            recovery: Histogram::new(),
            log: None,
            monitor: None,
            alerts: Vec::new(),
        }
    }

    /// Attach a JSONL event sink; the schema header is written
    /// immediately and every subsequent event from any host becomes one
    /// line.
    pub fn set_log(&mut self, mut log: Box<dyn Write + Send>) {
        let mut header = header_json("sim", None);
        header.push('\n');
        let _ = log.write_all(header.as_bytes());
        self.log = Some(log);
    }

    /// Arm an online [`HealthMonitor`] over the pooled event stream.
    pub fn set_monitor(&mut self, cfg: HealthConfig) {
        self.monitor = Some(HealthMonitor::new(cfg));
    }

    /// Mirror one event to the sink, tagged with the host that emitted
    /// it (alerts come from the monitor, host-less).
    fn mirror(&mut self, now: Micros, ev: &Event, host: Option<u32>) {
        if let Some(w) = self.log.as_mut() {
            let extra = host.map(|h| format!("\"host\":{h},")).unwrap_or_default();
            let mut line = event_json_with(now, ev, &extra);
            line.push('\n');
            let _ = w.write_all(line.as_bytes());
        }
    }

    /// Flush the JSONL sink, if any.
    pub fn flush(&mut self) {
        if let Some(w) = self.log.as_mut() {
            let _ = w.flush();
        }
    }
}

impl Default for SharedObs {
    fn default() -> SharedObs {
        SharedObs::new()
    }
}

/// A [`ProtocolObserver`] installed into one host's engine, forwarding
/// into the run's [`SharedObs`].
pub struct HostObserver {
    host: usize,
    shared: Arc<Mutex<SharedObs>>,
}

impl HostObserver {
    /// Observer for `host` (0 = sender) feeding `shared`.
    pub fn new(host: usize, shared: Arc<Mutex<SharedObs>>) -> HostObserver {
        HostObserver { host, shared }
    }
}

impl ProtocolObserver for HostObserver {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        let mut s = self.shared.lock().unwrap();
        match *ev {
            Event::DataSent {
                seq,
                retransmission: false,
                ..
            } if self.host == 0 => {
                s.send_times.entry(u64::from(seq)).or_insert(now);
            }
            Event::Delivered { first, count } => {
                for seq in first..first + u64::from(count) {
                    let sent = s.send_times.get(&seq).copied();
                    if let Some(sent) = sent {
                        s.delivery.record(now.saturating_sub(sent));
                    }
                }
            }
            Event::Recovered { elapsed_us, .. } => {
                s.recovery.record(elapsed_us);
            }
            _ => {}
        }
        let s: &mut SharedObs = &mut s;
        let host = self.host as u32;
        s.mirror(now, ev, Some(host));
        if let Some(mon) = s.monitor.as_mut() {
            // Receiver host h is member h−1 under the sim convention;
            // sender events carry peer ids in their payloads where they
            // matter (member ejection).
            let member = (host > 0).then(|| host - 1);
            mon.on_event_tagged(now, ev, member);
            for a in mon.take_alerts() {
                s.mirror(a.t_us, &a.to_event(), None);
                s.alerts.push(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_latency_correlates_send_and_delivery() {
        let shared = Arc::new(Mutex::new(SharedObs::new()));
        let mut sender = HostObserver::new(0, shared.clone());
        let mut receiver = HostObserver::new(1, shared.clone());
        sender.on_event(
            100,
            &Event::DataSent {
                seq: 0,
                bytes: 1000,
                retransmission: false,
            },
        );
        sender.on_event(
            200,
            &Event::DataSent {
                seq: 1,
                bytes: 1000,
                retransmission: false,
            },
        );
        // A retransmission must not reset the original send time.
        sender.on_event(
            900,
            &Event::DataSent {
                seq: 0,
                bytes: 1000,
                retransmission: true,
            },
        );
        receiver.on_event(1_100, &Event::Delivered { first: 0, count: 2 });
        let s = shared.lock().unwrap();
        assert_eq!(s.delivery.count(), 2);
        assert_eq!(s.delivery.max(), Some(1_000)); // 1100 − 100
        assert_eq!(s.delivery.min(), Some(900)); // 1100 − 200
    }

    #[test]
    fn recovery_latency_pools_elapsed_times() {
        let shared = Arc::new(Mutex::new(SharedObs::new()));
        let mut r = HostObserver::new(2, shared.clone());
        r.on_event(
            5_000,
            &Event::Recovered {
                first: 7,
                count: 3,
                elapsed_us: 4_000,
            },
        );
        let s = shared.lock().unwrap();
        assert_eq!(s.recovery.count(), 1);
        assert_eq!(s.recovery.max(), Some(4_000));
    }

    /// A JSONL sink the test can read back.
    struct Tee(Arc<Mutex<Vec<u8>>>);

    impl Write for Tee {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn log_lines_carry_the_host_field() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(Mutex::new(SharedObs::new()));
        shared.lock().unwrap().set_log(Box::new(Tee(buf.clone())));
        let mut r = HostObserver::new(3, shared.clone());
        r.on_event(42, &Event::Delivered { first: 0, count: 1 });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "{\"schema\":2,\"role\":\"sim\"}");
        assert_eq!(
            lines[1],
            "{\"t_us\":42,\"host\":3,\"event\":\"delivered\",\"first\":0,\"count\":1}"
        );
    }

    /// [`SharedObs::alerts`] (the run's `SimReport::alerts`) is every
    /// transition, not the monitor's 256-entry history ring: a
    /// `backlog_growth` alert that flaps 130 times still matches the
    /// logged `health_alert` lines one for one.
    #[test]
    fn alerts_keep_every_transition_past_the_history_ring() {
        use hrmc_core::NakTrigger;
        let buf = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(Mutex::new(SharedObs::new()));
        shared.lock().unwrap().set_log(Box::new(Tee(buf.clone())));
        shared.lock().unwrap().set_monitor(HealthConfig::default());
        let mut r = HostObserver::new(1, shared.clone());
        let mut t = 0;
        // Each 2 s cycle opens 300 NAKed segments for 1 s (past the rule's
        // 300 ms sustain and 500 ms hold) and repairs them for 1 s.
        for _ in 0..130 {
            let gap = Event::NakSent {
                first: 0,
                count: 300,
                trigger: NakTrigger::Gap,
            };
            r.on_event(t, &gap);
            for _ in 0..10 {
                t += 100_000;
                r.on_event(t, &Event::Delivered { first: 0, count: 1 });
            }
            let repair = Event::Recovered {
                first: 0,
                count: 300,
                elapsed_us: 1,
            };
            r.on_event(t, &repair);
            for _ in 0..10 {
                t += 100_000;
                r.on_event(t, &Event::Delivered { first: 0, count: 1 });
            }
        }
        let alerts = shared.lock().unwrap().alerts.len();
        let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let logged = log
            .lines()
            .filter(|l| l.contains("\"event\":\"health_alert\""))
            .count();
        assert!(alerts > 256, "only {alerts} transitions");
        assert_eq!(alerts, logged);
    }
}
