//! Host processes (paper §5.2): "A host process controls the operation
//! of the H-RMC protocol and underlying operating system on the host, as
//! well as the sending or receiving application."
//!
//! A host couples a protocol engine with an application and a CPU cursor
//! that serializes protocol processing: each packet sent or received
//! costs the paper's measured (10 + 0.025·l) µs of H-RMC processing plus
//! 150 µs of lower-layer processing, charged against a single busy-until
//! cursor exactly as one 300 MHz CPU would.

use hrmc_core::{ReceiverEngine, SenderEngine};

use crate::apps::{SinkApp, SourceApp};
use crate::{protocol_delay_us, LOWER_LAYER_DELAY_US};

/// Largest single application read in [`Host::pump_sink`].
const SINK_READ_MAX: usize = 64 * 1024;

/// The protocol engine running on a host.
pub enum Engine {
    /// The single sender.
    Sender(Box<SenderEngine>),
    /// One of the receivers.
    Receiver(Box<ReceiverEngine>),
}

/// One simulated host.
pub struct Host {
    /// Protocol engine.
    pub engine: Engine,
    /// Data source (sender host only).
    pub source: Option<SourceApp>,
    /// Data sink (receiver hosts only).
    pub sink: Option<SinkApp>,
    /// CPU busy-until cursor for protocol processing.
    pub cpu_free_at: u64,
    /// Scale factor on the paper's processing delays (1.0 = the measured
    /// 300 MHz Pentium II constants; <1.0 models a faster host or DMA
    /// overlap — the regime of the paper's *experimental* Figure 13).
    pub cpu_scale: f64,
    /// Packets dropped because the host's RX processing backlog exceeded
    /// its bound (the kernel's `netdev_max_backlog` analog).
    pub backlog_drops: u64,
    /// Produced-but-not-yet-accepted stream bytes (the application
    /// blocking on a full send buffer).
    pending: Vec<u8>,
    pending_offset: usize,
    /// `true` once `close()` has been issued to the sender engine.
    pub closed: bool,
    /// `true` while the host is crashed (fault injection): its engine is
    /// never ticked and arriving packets are discarded.
    pub crashed: bool,
    /// `true` while the host's protocol process is frozen (fault
    /// injection; sender only): no ticks, arriving packets discarded.
    pub paused: bool,
    /// `true` once the host has been revived after a crash (fault
    /// injection): it re-joins as a best-effort late joiner and the
    /// completion check no longer waits for it.
    pub restarted: bool,
    /// Simulation time at which this receiver finished absorbing the
    /// whole stream (receiver hosts only).
    pub completed_at: Option<u64>,
    /// Engine `on_tick` invocations (scheduler-efficiency metric).
    pub ticks: u64,
}

impl Host {
    /// A sender host.
    pub fn sender(engine: SenderEngine, source: SourceApp) -> Host {
        Host {
            engine: Engine::Sender(Box::new(engine)),
            source: Some(source),
            sink: None,
            cpu_free_at: 0,
            cpu_scale: 1.0,
            backlog_drops: 0,
            pending: Vec::new(),
            pending_offset: 0,
            closed: false,
            crashed: false,
            paused: false,
            restarted: false,
            completed_at: None,
            ticks: 0,
        }
    }

    /// A receiver host.
    pub fn receiver(engine: ReceiverEngine, sink: SinkApp) -> Host {
        Host {
            engine: Engine::Receiver(Box::new(engine)),
            source: None,
            sink: Some(sink),
            cpu_free_at: 0,
            cpu_scale: 1.0,
            backlog_drops: 0,
            pending: Vec::new(),
            pending_offset: 0,
            closed: false,
            crashed: false,
            paused: false,
            restarted: false,
            completed_at: None,
            ticks: 0,
        }
    }

    /// Charge the CPU for processing one packet of payload length `len`
    /// at `now`; returns the completion time.
    pub fn charge_cpu(&mut self, len: usize, now: u64) -> u64 {
        let start = self.cpu_free_at.max(now);
        let cost = ((protocol_delay_us(len) + LOWER_LAYER_DELAY_US) as f64 * self.cpu_scale).round()
            as u64;
        let done = start + cost;
        self.cpu_free_at = done;
        done
    }

    /// How far ahead of `now` the CPU cursor has run (the RX processing
    /// backlog, expressed as time).
    pub fn cpu_backlog(&self, now: u64) -> u64 {
        self.cpu_free_at.saturating_sub(now)
    }

    /// Pump the sending application: produce bytes from the source into
    /// the engine's send buffer, and close the stream once the source is
    /// exhausted and fully submitted.
    pub fn pump_source(&mut self, now: u64) {
        let Engine::Sender(engine) = &mut self.engine else {
            return;
        };
        let Some(source) = &mut self.source else {
            return;
        };
        // Refill the staging buffer from the (possibly rate-limited)
        // source.
        if self.pending_offset >= self.pending.len() && !source.exhausted() {
            self.pending.clear();
            self.pending_offset = 0;
            source.produce(&mut self.pending, 256 * 1024, now);
        }
        // Submit as much staged data as the send window accepts.
        if self.pending_offset < self.pending.len() {
            let n = engine.submit(&self.pending[self.pending_offset..], now);
            self.pending_offset += n;
        }
        if source.exhausted() && self.pending_offset >= self.pending.len() && !self.closed {
            self.closed = true;
            engine.close(now);
        }
    }

    /// Pump the receiving application: read as much as the sink's I/O
    /// profile allows, verifying the engine's buffered payloads in place
    /// and charging each read to the profile once.
    pub fn pump_sink(&mut self, now: u64) {
        let Engine::Receiver(engine) = &mut self.engine else {
            return;
        };
        let Some(sink) = &mut self.sink else { return };
        loop {
            let readable = engine.readable_bytes();
            if readable == 0 {
                break;
            }
            let cap = sink.capacity(now, readable).min(SINK_READ_MAX);
            if cap == 0 {
                break;
            }
            let n = engine.read_with(cap, now, |chunk| sink.verify(chunk));
            if n == 0 {
                break;
            }
            sink.charge(n, now);
        }
        if self.completed_at.is_none() && engine.fully_consumed() {
            self.completed_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::IoProfile;
    use bytes::Bytes;
    use hrmc_core::ProtocolConfig;

    fn sender_host(total: u64) -> Host {
        let engine = SenderEngine::new(
            ProtocolConfig::hrmc().with_buffer(64 * 1024),
            7000,
            7001,
            0,
            0,
        );
        Host::sender(engine, SourceApp::new(total, IoProfile::Memory, 0))
    }

    #[test]
    fn cpu_cursor_serializes_processing() {
        let mut h = sender_host(0);
        // First packet at t=0: 10 + 35 + 150 = 195 µs for 1400 bytes.
        let t1 = h.charge_cpu(1400, 0);
        assert_eq!(t1, 195);
        // Second packet queues behind the first on the CPU.
        let t2 = h.charge_cpu(1400, 0);
        assert_eq!(t2, 390);
        // After an idle gap the cursor snaps forward.
        let t3 = h.charge_cpu(0, 10_000);
        assert_eq!(t3, 10_000 + 160);
    }

    #[test]
    fn source_pump_submits_and_closes() {
        let mut h = sender_host(10_000);
        h.pump_source(0);
        let Engine::Sender(engine) = &h.engine else {
            unreachable!()
        };
        assert_eq!(engine.buffered_bytes(), 10_000);
        assert!(h.closed, "source exhausted and submitted: must close");
    }

    #[test]
    fn source_pump_blocks_at_window_and_resumes() {
        let mut h = sender_host(200_000); // sndbuf is 64 KiB
        h.pump_source(0);
        let Engine::Sender(engine) = &mut h.engine else {
            unreachable!()
        };
        let buffered = engine.buffered_bytes();
        assert!(buffered <= 64 * 1024);
        assert!(!h.closed);
        // Simulate release of the whole window, then pump again.
        let Engine::Sender(engine) = &mut h.engine else {
            unreachable!()
        };
        // (Engine-internal release requires transmission; here we only
        // verify the staging buffer retries without data loss.)
        let before = engine.buffered_bytes();
        h.pump_source(1_000);
        let Engine::Sender(engine) = &h.engine else {
            unreachable!()
        };
        assert!(engine.buffered_bytes() >= before);
    }

    #[test]
    fn sink_pump_respects_profile_and_completes() {
        use hrmc_wire::Packet;
        let engine =
            ReceiverEngine::new(ProtocolConfig::hrmc().with_buffer(64 * 1024), 8000, 7001, 0);
        let mut h = Host::receiver(engine, SinkApp::new(IoProfile::Memory, 0));
        let segment = |seq, bytes: std::ops::Range<u64>| {
            let payload: Vec<u8> = bytes.map(crate::apps::pattern_byte).collect();
            Packet::data(7000, 7001, seq, Bytes::from(payload))
        };
        let Engine::Receiver(r) = &mut h.engine else {
            unreachable!()
        };
        r.handle_packet(&segment(0, 0..100), 10);
        r.handle_packet(&segment(1, 100..150), 20);
        h.pump_sink(30);
        assert_eq!(h.sink.as_ref().unwrap().received(), 150);
        assert!(h.sink.as_ref().unwrap().intact());
        assert_eq!(h.completed_at, None);
        // The last segment carries FIN and one flipped byte.
        let mut last = segment(2, 150..200);
        let mut payload = last.payload.to_vec();
        payload[20] ^= 0x01;
        last.payload = Bytes::from(payload);
        last.header.flags.fin = true;
        let Engine::Receiver(r) = &mut h.engine else {
            unreachable!()
        };
        r.handle_packet(&last, 35);
        h.pump_sink(40);
        assert_eq!(h.sink.as_ref().unwrap().received(), 200);
        assert!(!h.sink.as_ref().unwrap().intact());
        assert_eq!(h.completed_at, Some(40));
    }
}
