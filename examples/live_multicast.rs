//! Live reliable multicast over real UDP sockets on the loopback
//! interface: one sender, three receivers (all in this process, every
//! session driven by the one shared reactor thread), one reliable
//! stream.
//!
//! ```sh
//! cargo run --release --example live_multicast
//! ```

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use hrmc::net::{Reactor, Session};
use hrmc::ProtocolConfig;

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

fn config() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    c.max_rate = 20 * 1024 * 1024; // stay under the kernel UDP buffers
    c.initial_rtt = 2_000; // loopback RTTs are tiny
    c.anonymous_release_hold = 500_000;
    c
}

fn main() {
    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 42, 7), 47123);
    let payload: Vec<u8> = (0..2_000_000usize).map(|i| (i * 31 % 251) as u8).collect();

    println!(
        "group {group}: 1 sender, 3 receivers, {} bytes",
        payload.len()
    );

    // One reactor thread drives all four sessions; each builder takes a
    // clone. (A session built without `.reactor(..)` would own a thread
    // of its own.)
    let reactor = Reactor::new().expect("reactor");

    // Receivers first ("the receiving application uses setsockopt to
    // join the multicast group").
    let receivers: Vec<_> = (0..3)
        .map(|i| {
            let r = Session::receiver(group)
                .interface(LO)
                .config(config())
                .reactor(reactor.clone())
                .bind()
                .unwrap_or_else(|e| panic!("receiver {i} failed to join: {e}"));
            println!("receiver {i} joined");
            r
        })
        .collect();

    let sender = Session::sender(group)
        .interface(LO)
        .config(config())
        .reactor(reactor.clone())
        .bind()
        .expect("sender bind");

    let readers: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let expect = payload.clone();
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let mut got = Vec::with_capacity(expect.len());
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match r.recv(&mut buf, Duration::from_secs(60)) {
                        Ok(0) => break,
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) => panic!("receiver {i} recv failed: {e}"),
                    }
                }
                assert_eq!(got, expect, "receiver {i} stream corrupted");
                let stats = r.stats();
                println!(
                    "receiver {i}: {} bytes in {:.2} s (naks {}, updates {}, probes seen {})",
                    got.len(),
                    started.elapsed().as_secs_f64(),
                    stats.naks_sent,
                    stats.updates_sent,
                    stats.probes_received,
                );
            })
        })
        .collect();

    let started = std::time::Instant::now();
    sender.send(&payload).expect("send");
    let stats = sender
        .close_and_wait(Duration::from_secs(120))
        .expect("transfer must complete reliably");
    println!(
        "sender: done in {:.2} s — {} data packets, {} retransmissions, rtt {:.1} ms",
        started.elapsed().as_secs_f64(),
        stats.data_packets_sent,
        stats.retransmissions,
        sender.rtt() as f64 / 1000.0,
    );
    for t in readers {
        t.join().expect("reader panicked");
    }
    println!("all receivers verified the stream byte-for-byte");
}
