//! Differential tests for the io_uring datapath: the `uring` backend
//! must be a drop-in for epoll — identical delivered payload streams,
//! equivalent protocol audits — while doing its work through
//! `io_uring_enter` instead of the wait/recvmmsg/sendmmsg train.
//!
//! Each test probes the running kernel first and skips with a notice
//! when io_uring is unavailable (the runtime fallback means the reactor
//! still works there — it just isn't the backend under test).

#![cfg(feature = "uring")]

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use hrmc_net::{DatapathKind, Reactor, ReactorConfig, Session};

mod common;
use common::{config, multicast_available, pattern, LO};

/// A reactor asked to run io_uring; `None` (skip) when the kernel made
/// it fall back to epoll.
fn uring_reactor() -> Option<Reactor> {
    let r = Reactor::with_config(ReactorConfig {
        datapath: DatapathKind::Uring,
        ..ReactorConfig::default()
    })
    .expect("reactor");
    if r.stats().backend == "uring" {
        Some(r)
    } else {
        eprintln!("skipping: kernel lacks io_uring, reactor fell back to epoll");
        None
    }
}

/// One full transfer on `reactor`: flight-recorded sender + receiver,
/// returns (delivered bytes, concatenated trace, reactor stats).
fn run_transfer(
    reactor: &Reactor,
    group: SocketAddrV4,
    data: &[u8],
) -> (Vec<u8>, String, hrmc_net::ReactorStats) {
    let rx = Session::receiver(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .flight_recorder(2048)
        .bind()
        .expect("join receiver");
    let tx = Session::sender(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .flight_recorder(2048)
        .bind()
        .expect("bind sender");
    let tx_rec = tx.flight_recorder().expect("tx recorder").clone();
    let rx_rec = rx.flight_recorder().expect("rx recorder").clone();

    tx.send(data).expect("send");
    tx.close();
    let mut got = Vec::with_capacity(data.len());
    let mut buf = [0u8; 16 * 1024];
    loop {
        match rx.recv(&mut buf, Duration::from_secs(30)) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => panic!("recv failed: {e}"),
        }
    }
    tx.close_and_wait(Duration::from_secs(60)).expect("close");
    let trace = format!("{}{}", tx_rec.dump(), rx_rec.dump());
    (got, trace, reactor.stats())
}

/// The audit figures the two backends must agree on.
struct Audit {
    data_packets: u64,
    delivered_segments: u64,
    released: bool,
    parse_skipped: u64,
}

fn audit(trace: &str) -> Audit {
    let analysis = hrmc_trace::analyze_str(trace).expect("analyze");
    let member = analysis
        .members
        .iter()
        .find(|m| m.source == "recv")
        .expect("receiver member report");
    Audit {
        data_packets: analysis.transfer.data_packets,
        delivered_segments: member.delivered_segments,
        released: analysis.release.released > 0,
        parse_skipped: analysis.parse.skipped,
    }
}

/// The core differential: the same payload over a loopback pair on each
/// backend delivers identical byte streams and equivalent `hrmc
/// analyze` audits.
#[test]
fn uring_and_epoll_deliver_identical_streams() {
    if !multicast_available(46200) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let Some(uring) = uring_reactor() else {
        return;
    };
    let epoll = Reactor::new().expect("epoll reactor");
    assert_eq!(epoll.stats().backend, "epoll");

    let data = pattern(200_000);
    let g_epoll = SocketAddrV4::new(Ipv4Addr::new(239, 255, 89, 12), 46201);
    let g_uring = SocketAddrV4::new(Ipv4Addr::new(239, 255, 89, 13), 46202);
    let (got_e, trace_e, stats_e) = run_transfer(&epoll, g_epoll, &data);
    let (got_u, trace_u, stats_u) = run_transfer(&uring, g_uring, &data);

    assert_eq!(got_e, data, "epoll stream corrupted");
    assert_eq!(got_u, data, "uring stream corrupted");

    // Equivalent audits: both backends moved the same logical transfer.
    let (a_e, a_u) = (audit(&trace_e), audit(&trace_u));
    assert_eq!(a_e.parse_skipped, 0);
    assert_eq!(a_u.parse_skipped, 0);
    assert!(a_e.data_packets > 0 && a_u.data_packets > 0);
    assert_eq!(
        a_e.delivered_segments, a_u.delivered_segments,
        "backends delivered different segment counts"
    );
    assert!(a_e.released && a_u.released, "release audit missing");

    // And each did it through its own syscall path.
    assert!(stats_e.recvmmsg_calls > 0 && stats_e.sendmmsg_calls > 0);
    assert_eq!(stats_e.uring_enters, 0);
    assert!(stats_u.uring_enters > 0, "uring backend never entered");
    assert_eq!(stats_u.recvmmsg_calls, 0);
    assert_eq!(stats_u.sendmmsg_calls, 0);
    assert!(
        stats_u.packets_rx > 0 && stats_u.packets_tx > 0,
        "no traffic flowed on the uring reactor"
    );
}

/// Several concurrent sessions on one uring reactor: the deferred
/// registration path, slot pool, and cancel-on-deregister all under
/// load.
#[test]
fn uring_reactor_survives_concurrent_sessions() {
    if !multicast_available(46210) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let Some(reactor) = uring_reactor() else {
        return;
    };
    let mut workers = Vec::new();
    for i in 0..6u8 {
        let reactor = reactor.clone();
        workers.push(std::thread::spawn(move || {
            let group =
                SocketAddrV4::new(Ipv4Addr::new(239, 255, 89, 20 + i), 46220 + u16::from(i));
            let rx = Session::receiver(group)
                .interface(LO)
                .config(config())
                .reactor(reactor.clone())
                .bind()
                .expect("join receiver");
            let tx = Session::sender(group)
                .interface(LO)
                .config(config())
                .reactor(reactor)
                .bind()
                .expect("bind sender");
            let data = pattern(30_000 + usize::from(i) * 1_000);
            tx.send(&data).expect("send");
            tx.close();
            let mut got = Vec::new();
            let mut buf = [0u8; 8192];
            loop {
                match rx.recv(&mut buf, Duration::from_secs(30)) {
                    Ok(0) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => panic!("session {i} recv failed: {e}"),
                }
            }
            assert_eq!(got, data, "session {i} stream corrupted");
            tx.close_and_wait(Duration::from_secs(60)).expect("close");
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
    assert_eq!(reactor.session_count(), 0, "sessions leaked");
    let stats = reactor.stats();
    assert_eq!(stats.backend, "uring");
    assert!(stats.uring_enters > 0);
    assert_eq!(stats.tx_drops, 0, "uring backend dropped packets");
}
