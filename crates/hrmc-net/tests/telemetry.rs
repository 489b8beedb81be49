//! Acceptance test for the continuous-telemetry pipeline: a loopback
//! transfer instrumented with [`hrmc_net::Telemetry`] must serve a
//! Prometheus text exposition that includes the reactor's loop-latency
//! and timer-slippage metrics, plus a `/json` dump carrying the latest
//! sample and per-session health. Skipped gracefully if the
//! environment forbids multicast (some CI sandboxes do).

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::Duration;

use hrmc_core::ProtocolConfig;
use hrmc_net::telemetry::scrape;
use hrmc_net::{McastSocket, Reactor, Session, Telemetry};

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

fn multicast_available(port: u16) -> bool {
    let g = SocketAddrV4::new(Ipv4Addr::new(239, 255, 90, 11), port);
    let Ok(rx) = McastSocket::receiver(g, LO) else {
        return false;
    };
    let Ok(tx) = McastSocket::sender(g, LO) else {
        return false;
    };
    let _ = rx.set_read_timeout(Duration::from_millis(500));
    if tx.send_multicast(b"probe").is_err() {
        return false;
    }
    let mut buf = [0u8; 16];
    rx.recv_from(&mut buf).is_ok()
}

fn config() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    c.max_rate = 20 * 1024 * 1024;
    c.initial_rtt = 2_000;
    c.anonymous_release_hold = 500_000;
    c
}

#[test]
fn loopback_transfer_serves_prometheus_and_json() {
    if !multicast_available(46400) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 90, 12), 46401);
    // Private reactor: this test's gauges must not race other tests
    // sharing the global reactor.
    let reactor = Reactor::new().expect("reactor");
    let telemetry = Telemetry::builder()
        .listen(SocketAddr::V4(SocketAddrV4::new(LO, 0)))
        // Well under the transfer's few tens of milliseconds, so the
        // periodic sampler fires during it.
        .sample_interval(Duration::from_millis(5))
        .reactor(reactor.clone())
        .start()
        .expect("telemetry");
    let endpoint = telemetry.local_addr().expect("listener bound");

    let rx = Session::receiver(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .telemetry(&telemetry)
        .bind()
        .expect("join receiver");
    let tx = Session::sender(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .telemetry(&telemetry)
        .bind()
        .expect("bind sender");

    let data: Vec<u8> = (0..200_000).map(|i| (i * 31 % 251) as u8).collect();
    tx.send(&data).expect("send");
    let mut got = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    while got.len() < data.len() {
        let n = rx.recv(&mut buf, Duration::from_secs(20)).expect("recv");
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, data, "transfer intact");
    tx.close_and_wait(Duration::from_secs(20)).expect("close");
    telemetry.sample_now();

    // The acceptance criterion: the exposition includes reactor
    // loop-latency and timer-slippage metrics (with real samples — the
    // reactor ran a transfer) alongside protocol counters.
    let metrics = scrape(endpoint, "/metrics", Duration::from_secs(5)).expect("scrape /metrics");
    assert!(!metrics.is_empty(), "non-empty exposition");
    assert!(
        metrics.contains("# TYPE hrmc_reactor_loop_us summary"),
        "loop-latency metric missing:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE hrmc_reactor_timer_slippage_us summary"),
        "timer-slippage metric missing:\n{metrics}"
    );
    let loop_count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hrmc_reactor_loop_us_count "))
        .expect("loop count line")
        .parse()
        .expect("numeric");
    assert!(loop_count > 0, "loop latency has samples");
    let slip_count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hrmc_reactor_timer_slippage_us_count "))
        .expect("slippage count line")
        .parse()
        .expect("numeric");
    assert!(slip_count > 0, "timer slippage has samples");
    assert!(
        metrics.contains("hrmc_data_packets_sent_total"),
        "protocol counters flow through the shared registry:\n{metrics}"
    );

    // The /json dump: latest sample plus both sessions' health.
    let json = scrape(endpoint, "/json", Duration::from_secs(5)).expect("scrape /json");
    assert!(json.contains("\"sample\":{\"telemetry\":1,"), "{json}");
    assert!(json.contains("\"role\":\"sender\""), "{json}");
    assert!(json.contains("\"role\":\"receiver\""), "{json}");

    // The in-memory time series grew during the transfer, and the
    // sampled counters are monotonic.
    let samples = telemetry.samples();
    assert!(samples.len() >= 2, "got {} samples", samples.len());
    for w in samples.windows(2) {
        assert!(w[1].total("data_packets_sent") >= w[0].total("data_packets_sent"));
    }
    drop(rx);
}
