//! Acceptance test for the continuous-telemetry pipeline: a loopback
//! transfer instrumented with [`hrmc_net::Telemetry`] must serve a
//! Prometheus text exposition that includes the reactor's loop-latency
//! and timer-slippage metrics, plus a `/json` dump carrying the latest
//! sample and per-session health. Skipped gracefully if the
//! environment forbids multicast (some CI sandboxes do).

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::Duration;

use hrmc_net::telemetry::scrape;
use hrmc_net::{Reactor, Session, Telemetry};

mod common;
use common::{config, multicast_available, pattern, LO};

#[test]
fn loopback_transfer_serves_prometheus_and_json() {
    if !multicast_available(46400) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 90, 12), 46401);
    // One reactor for both sessions and the pipeline that reports it.
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
        .observer(telemetry.observer())
        .bind()
        .expect("join receiver");
    let tx = Session::sender(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .observer(telemetry.observer())
        .bind()
        .expect("bind sender");

    let data = pattern(200_000);
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
