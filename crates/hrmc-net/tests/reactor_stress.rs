//! Many-session stress: 16 concurrent sender→receiver transfers on ONE
//! shared reactor. Proves the tentpole claims of the reactor redesign:
//!
//! * thread count is O(1) per reactor, not O(sessions) — creating 32
//!   sessions adds zero threads beyond the reactor's own;
//! * all transfers complete byte-identically under contention;
//! * the batched syscall path actually batches: under 16-way load the
//!   reactor must observe `recvmmsg` batches larger than one datagram;
//! * the telemetry endpoint serves the reactor's own counters.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::Mutex;
use std::time::Duration;

use hrmc_core::ProtocolConfig;
use hrmc_net::telemetry::scrape;
use hrmc_net::{Reactor, Session, Telemetry};

mod common;
use common::{multicast_available, seeded_pattern as pattern, LO};

const PAIRS: usize = 16;
const PAYLOAD: usize = 120_000;

fn config() -> ProtocolConfig {
    let mut c = common::config();
    c.max_rate = 8 * 1024 * 1024;
    c
}

/// Threads currently alive in this process (Linux: task directories),
/// the sibling test's own thread aside: the harness names each test's
/// thread after the test, and that one may still be winding down after
/// it gave up its turn.
fn thread_count() -> usize {
    const SIBLING: &str = "dropping_the_reactor_fails_live_sessions";
    std::fs::read_dir("/proc/self/task").map_or(0, |d| {
        d.flatten()
            .filter(|task| {
                // The kernel keeps the first 15 bytes of a thread's name.
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end() != &SIBLING[..15])
            })
            .count()
    })
}

/// The two tests take turns: one compares process-wide thread counts
/// while the other spawns and joins a reactor thread of its own.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn sixteen_sessions_share_one_reactor_thread() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !multicast_available(48100) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    // One reactor for all 32 sessions, and the pipeline that reports it
    // (started first: its threads are not the sessions').
    let reactor = Reactor::new().expect("reactor");
    let telemetry = Telemetry::builder()
        .listen(SocketAddr::V4(SocketAddrV4::new(LO, 0)))
        .reactor(reactor.clone())
        .start()
        .expect("telemetry");
    let threads_before = thread_count();

    // 16 disjoint groups, each with its own sender and receiver — 32
    // sessions on the one reactor.
    let groups: Vec<SocketAddrV4> = (0..PAIRS as u16)
        .map(|i| SocketAddrV4::new(Ipv4Addr::new(239, 255, 89, 20 + i as u8), 48110 + i))
        .collect();
    let receivers: Vec<_> = groups
        .iter()
        .map(|&g| {
            Session::receiver(g)
                .interface(LO)
                .config(config())
                .reactor(reactor.clone())
                .bind()
                .expect("join receiver")
        })
        .collect();
    let senders: Vec<_> = groups
        .iter()
        .map(|&g| {
            Session::sender(g)
                .interface(LO)
                .config(config())
                .reactor(reactor.clone())
                .bind()
                .expect("bind sender")
        })
        .collect();

    // Thread count is O(1) per reactor: 32 sessions added no threads.
    assert_eq!(
        thread_count(),
        threads_before,
        "sessions must not spawn threads of their own"
    );
    assert_eq!(reactor.session_count(), 2 * PAIRS);
    assert!(reactor.stats().sessions_hwm >= (2 * PAIRS) as u64);

    // Drive all 16 transfers concurrently. Application threads are
    // allowed — it is the *driver* side that must stay single-threaded.
    let readers: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let expect = pattern(i, PAYLOAD);
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(expect.len());
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match r.recv(&mut buf, Duration::from_secs(60)) {
                        Ok(0) => break,
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) => panic!("pair {i}: recv failed: {e}"),
                    }
                }
                assert_eq!(got, expect, "pair {i}: stream corrupted");
            })
        })
        .collect();
    let writers: Vec<_> = senders
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let data = pattern(i, PAYLOAD);
            std::thread::spawn(move || {
                s.send(&data)
                    .unwrap_or_else(|e| panic!("pair {i}: send failed: {e}"));
                s.close_and_wait(Duration::from_secs(120))
                    .unwrap_or_else(|e| panic!("pair {i}: close failed: {e}"));
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer panicked");
    }
    for r in readers {
        r.join().expect("reader panicked");
    }

    let st = reactor.stats();
    // Every datagram of 16 concurrent transfers flowed through the one
    // event loop.
    assert!(
        st.packets_rx as usize >= PAIRS * (PAYLOAD / 1400),
        "implausibly few packets through the reactor: {st:?}"
    );
    // The batching payoff: under 16-way load, bursts queue behind the
    // single thread and recvmmsg must regularly drain more than one
    // datagram per syscall.
    assert!(
        st.rx_batch_max > 1,
        "recvmmsg never batched (max batch {}): {st:?}",
        st.rx_batch_max
    );
    assert!(
        st.rx_batch_mean > 1.0,
        "mean RX batch {} not > 1 under load: {st:?}",
        st.rx_batch_mean
    );
    // Batching holds its measured level, not merely the one-syscall-per-
    // datagram floor: 0.128 syscalls/packet measured here (debug profile,
    // 0.131–0.135 with the machine's cores busy), and the band the
    // retired `BENCH_sim.json` gate used — twice that plus slack, capped
    // at the floor.
    const MEASURED: f64 = 0.128;
    let limit = (2.0 * MEASURED + 0.05).min(1.0);
    assert!(
        st.syscalls_per_packet() < limit,
        "batched I/O regressed past {limit:.3} syscalls/packet: {st:?}"
    );

    // Handles are all dropped: the reactor empties but keeps running.
    assert_eq!(reactor.session_count(), 0);
    assert!(st.sessions_hwm >= (2 * PAIRS) as u64);

    // Quiesced, so the endpoint serves exactly the counters above.
    let addr = telemetry.local_addr().expect("bound");
    let timeout = Duration::from_secs(5);
    let metrics = scrape(addr, "/metrics", timeout).expect("scrape /metrics");
    for (name, value) in [
        ("hrmc_reactor_packets_rx", st.packets_rx),
        ("hrmc_reactor_packets_tx", st.packets_tx),
    ] {
        assert!(
            metrics.lines().any(|l| l == format!("{name} {value}")),
            "{name} {value} missing from exposition:\n{metrics}"
        );
    }
    let json = scrape(addr, "/json", timeout).expect("scrape /json");
    let reactor_json = &json[json.find("\"reactor\":{").expect("reactor section")..];
    assert!(reactor_json.contains("\"sessions\":0,"), "{json}");
    assert!(!json.contains("\"shards\""), "{json}");
}

/// Sessions on a dropped reactor fail fast with `ReactorClosed` rather
/// than wedging their application threads.
#[test]
fn dropping_the_reactor_fails_live_sessions() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !multicast_available(48200) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let reactor = Reactor::new().expect("reactor");
    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 89, 90), 48201);
    let r = Session::receiver(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .bind()
        .expect("join");
    drop(reactor); // last handle: the reactor thread shuts down
    let mut buf = [0u8; 64];
    match r.recv(&mut buf, Duration::from_secs(5)) {
        Err(hrmc_net::NetError::ReactorClosed) => {}
        other => panic!("expected ReactorClosed, got {other:?}"),
    }
    assert!(r.has_failed());
}
