//! In-tree fuzz harness for the H-RMC packet-in surfaces.
//!
//! The build environment has no `cargo-fuzz`/libFuzzer, so this crate
//! implements the same discipline as a plain library: deterministic,
//! seed-addressable episode generators that throw adversarial input at
//! the three trust boundaries —
//!
//! 1. **Wire decode** ([`fuzz_wire`]): arbitrary bytes, checked-in
//!    corpus seeds, and structure-aware mutations of valid packets fed
//!    to [`Packet::decode`] and [`Header::decode`]. Anything that
//!    decodes must re-encode and decode back to the same packet, and
//!    the checksum verdict must match a scalar RFC 1071 oracle.
//! 2. **Receiver engine** ([`fuzz_receiver`]): a live receiver (every
//!    protocol mode) fed hostile but wire-reachable packets interleaved
//!    with ticks and reads. Must never panic; suspicious input lands in
//!    `stats.malformed_packets`, not in a crash.
//! 3. **Sender engine** ([`fuzz_sender`]): same contract for the sender
//!    with a rotating cast of forged peers.
//!
//! Every episode derives its RNG from `(seed, episode index)`, so a CI
//! failure message names the exact episode to replay locally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use bytes::Bytes;
use hrmc_core::{PeerId, ProtocolConfig, ReceiverEngine, SenderEngine};
use hrmc_wire::header::CHECKSUM_OFFSET;
use hrmc_wire::{checksum, Flags, Header, Packet, PacketType, HEADER_LEN};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Outcome counters from one fuzz run. The run itself is the assertion
/// (an episode that panics aborts the process with a replay line); the
/// counters exist so smoke tests can check the harness actually
/// exercised both accept and reject paths.
#[derive(Debug, Default, Clone, Copy)]
pub struct FuzzReport {
    /// Episodes completed.
    pub episodes: u64,
    /// `Packet::decode` calls returning `Ok`.
    pub decode_ok: u64,
    /// `Packet::decode` calls returning `Err`.
    pub decode_err: u64,
    /// Packets fed into an engine's `handle_packet`.
    pub packets_fed: u64,
    /// Packets an engine flagged via `stats.malformed_packets`.
    pub malformed_flagged: u64,
}

/// Directory holding the checked-in corpus seed files (`*.hex`, one
/// whitespace-separated hex byte stream per file).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Load corpus seeds from `corpus_dir()`. Missing or malformed files
/// are skipped — the fuzzers fall back to [`builtin_seeds`] so the
/// harness works even from a stripped checkout.
pub fn load_corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(corpus_dir()) else {
        return out;
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hex"))
        .collect();
    paths.sort();
    for p in paths {
        let Ok(text) = std::fs::read_to_string(&p) else {
            continue;
        };
        if let Some(bytes) = parse_hex(&text) {
            out.push(bytes);
        }
    }
    out
}

/// Parse a whitespace-separated stream of two-digit hex bytes,
/// tolerating `#` comment lines.
pub fn parse_hex(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for tok in line.split_whitespace() {
            out.push(u8::from_str_radix(tok, 16).ok()?);
        }
    }
    Some(out)
}

/// Representative valid encodings of every packet type plus boundary
/// field values — the in-code twin of the checked-in corpus.
pub fn builtin_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    for ptype in PacketType::ALL {
        if ptype == PacketType::Data {
            continue;
        }
        let mut pkt = Packet::control(ptype, 7000, 7001, 42);
        pkt.header.length = 3;
        pkt.header.rate_adv = 1_000_000;
        seeds.push(pkt.encode());
    }
    seeds.push(Packet::data(7000, 7001, 0, Bytes::new()).encode());
    seeds.push(Packet::data(7000, 7001, 1, Bytes::copy_from_slice(b"payload")).encode());
    seeds.push(Packet::data(7000, 7001, u32::MAX, Bytes::copy_from_slice(&[0xAA; 64])).encode());
    // Boundary control packets: max span, wrapped sequence, urgent stop.
    let mut nak = Packet::control(PacketType::Nak, 8000, 7001, u32::MAX - 1);
    nak.header.length = u32::MAX;
    seeds.push(nak.encode());
    let mut ctl = Packet::control(PacketType::Control, 8000, 7001, 0x8000_0000);
    ctl.header.flags = Flags {
        urg: true,
        fin: false,
    };
    ctl.header.rate_adv = 1;
    seeds.push(ctl.encode());
    let mut ka = Packet::control(PacketType::Keepalive, 7000, 7001, 0);
    ka.header.flags = Flags {
        urg: false,
        fin: true,
    };
    seeds.push(ka.encode());
    seeds
}

fn episode_rng(seed: u64, i: u64) -> SmallRng {
    // splitmix64 of the episode index, xored into the run seed, so
    // consecutive episodes draw unrelated streams.
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    SmallRng::seed_from_u64(seed ^ (z ^ (z >> 31)))
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[(rng.gen::<u64>() % items.len() as u64) as usize]
}

/// Field values chosen to straddle every interesting boundary: zero,
/// one, the control-span clamp, the signed-wrap midpoint, and the top.
const EDGE_U32: [u32; 9] = [
    0,
    1,
    2,
    hrmc_core::MAX_CONTROL_SPAN - 1,
    hrmc_core::MAX_CONTROL_SPAN,
    hrmc_core::MAX_CONTROL_SPAN + 1,
    i32::MAX as u32,
    0x8000_0000,
    u32::MAX,
];

fn edge_or_random_u32(rng: &mut SmallRng) -> u32 {
    if rng.gen_bool(0.6) {
        *pick(rng, &EDGE_U32)
    } else {
        rng.gen::<u32>()
    }
}

/// A structure-aware arbitrary packet: any type, extreme field values.
/// DATA keeps `length == payload.len()` (the decode invariant every
/// driver enforces before an engine sees the packet); all other fields
/// and types are unconstrained.
pub fn arbitrary_packet(rng: &mut SmallRng) -> Packet {
    let ptype = *pick(rng, &PacketType::ALL);
    let mut header = Header::new(ptype, rng.gen::<u16>(), rng.gen::<u16>(), 0);
    header.seq = edge_or_random_u32(rng);
    header.rate_adv = edge_or_random_u32(rng);
    header.tries = rng.gen::<u8>();
    header.flags = Flags {
        urg: rng.gen_bool(0.25),
        fin: rng.gen_bool(0.25),
    };
    let payload = if ptype == PacketType::Data || (ptype == PacketType::Parity && rng.gen_bool(0.7))
    {
        let len = (rng.gen::<u64>() % 256) as usize;
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        Bytes::from(v)
    } else {
        Bytes::new()
    };
    header.length = if ptype == PacketType::Data {
        payload.len() as u32
    } else {
        edge_or_random_u32(rng)
    };
    Packet { header, payload }
}

/// Mutate an encoded packet: bit flips, truncation, extension, field
/// stomps, or splicing with a second buffer.
fn mutate(rng: &mut SmallRng, mut buf: Vec<u8>, other: &[u8]) -> Vec<u8> {
    match rng.gen::<u64>() % 5 {
        0 => {
            // Bit flips.
            let flips = 1 + (rng.gen::<u64>() % 8) as usize;
            for _ in 0..flips {
                if buf.is_empty() {
                    break;
                }
                let i = (rng.gen::<u64>() % buf.len() as u64) as usize;
                buf[i] ^= 1 << (rng.gen::<u64>() % 8);
            }
        }
        1 => {
            // Truncate anywhere, including inside the header.
            let keep = (rng.gen::<u64>() % (buf.len() as u64 + 1)) as usize;
            buf.truncate(keep);
        }
        2 => {
            // Extend with garbage (length-field mismatch pressure).
            let extra = (rng.gen::<u64>() % 64) as usize;
            let mut tail = vec![0u8; extra];
            rng.fill_bytes(&mut tail);
            buf.extend_from_slice(&tail);
        }
        3 => {
            // Stomp one 4-byte field with an edge value.
            if buf.len() >= HEADER_LEN {
                let off = [0usize, 4, 8, 12][(rng.gen::<u64>() % 4) as usize];
                buf[off..off + 4].copy_from_slice(&edge_or_random_u32(rng).to_be_bytes());
            }
        }
        _ => {
            // Splice: head of one packet, tail of another.
            if !other.is_empty() {
                let cut = (rng.gen::<u64>() % (buf.len() as u64 + 1)) as usize;
                let from = (rng.gen::<u64>() % other.len() as u64) as usize;
                buf.truncate(cut);
                buf.extend_from_slice(&other[from..]);
            }
        }
    }
    buf
}

fn guarded<F: FnOnce() -> R, R>(target: &str, seed: u64, episode: u64, f: F) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            eprintln!(
                "fuzz target `{target}` panicked: replay with --seed {seed} \
                 (episode {episode})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// The oracle for `checksum::verify_with_field`: RFC 1071 as written,
/// on a copy with the field zeroed, one big-endian 16-bit word at a time.
fn scalar_verify(input: &[u8], at: usize) -> bool {
    let stored = u16::from_be_bytes([input[at], input[at + 1]]);
    let mut buf = input.to_vec();
    buf[at..at + 2].fill(0);
    let mut sum: u64 = buf
        .chunks(2)
        .map(|w| u64::from(u16::from_be_bytes([w[0], w.get(1).copied().unwrap_or(0)])))
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16) == stored
}

/// Fuzz `Packet::decode` / `Header::decode` for `iters` inputs; every
/// input long enough to hold the checksum field is also a differential
/// between the wire crate's word-wide checksum and `scalar_verify`.
pub fn fuzz_wire(seed: u64, iters: u64) -> FuzzReport {
    let mut corpus = load_corpus();
    if corpus.is_empty() {
        corpus = builtin_seeds();
    }
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut rng = episode_rng(seed, i);
        let input = guarded("wire", seed, i, || {
            let other = pick(&mut rng, &corpus).clone();
            match rng.gen::<u64>() % 4 {
                0 => {
                    // Fully arbitrary bytes, biased short to hammer the
                    // header boundary.
                    let len = if rng.gen_bool(0.5) {
                        (rng.gen::<u64>() % 32) as usize
                    } else {
                        (rng.gen::<u64>() % 1600) as usize
                    };
                    let mut v = vec![0u8; len];
                    rng.fill_bytes(&mut v);
                    v
                }
                1 => {
                    let base = pick(&mut rng, &corpus).clone();
                    mutate(&mut rng, base, &other)
                }
                2 => {
                    let base = arbitrary_packet(&mut rng).encode();
                    mutate(&mut rng, base, &other)
                }
                _ => arbitrary_packet(&mut rng).encode(),
            }
        });
        guarded("wire", seed, i, || {
            if input.len() >= CHECKSUM_OFFSET + 2 {
                assert_eq!(
                    checksum::verify_with_field(&input, CHECKSUM_OFFSET),
                    scalar_verify(&input, CHECKSUM_OFFSET),
                    "word-wide checksum disagrees with the scalar RFC 1071 sum"
                );
            }
            // Header::decode must be total over any byte string.
            let _ = Header::decode(&input);
            match Packet::decode(&input) {
                Ok(pkt) => {
                    report.decode_ok += 1;
                    // Accepted packets must round-trip exactly.
                    let re = pkt.encode();
                    let again = Packet::decode(&re).expect("re-encoded packet must decode");
                    assert_eq!(again, pkt, "decode/encode round-trip diverged");
                }
                Err(_) => report.decode_err += 1,
            }
        });
        report.episodes += 1;
    }
    report
}

fn fuzz_configs() -> Vec<ProtocolConfig> {
    vec![
        ProtocolConfig::hrmc().with_buffer(32 * 1024),
        ProtocolConfig::hrmc().with_buffer(32 * 1024).with_fec(4),
        ProtocolConfig::hrmc()
            .with_buffer(32 * 1024)
            .with_local_recovery(),
        ProtocolConfig::rmc().with_buffer(32 * 1024),
    ]
}

/// Ask every question a host asks a receiver instead of draining an
/// event queue; each must answer on any state, consistently.
fn check_receiver_queries(r: &ReceiverEngine) {
    let _ = (r.readable_bytes(), r.has_failed());
    assert!(
        !r.fully_consumed() || r.stream_complete(),
        "fully consumed before the stream completed"
    );
}

/// The sender's counterpart of [`check_receiver_queries`].
fn check_sender_queries(s: &SenderEngine) {
    let _ = s.ejected_members();
    assert!(
        !s.is_finished() || s.is_closed(),
        "finished a stream that was never closed"
    );
}

/// Fuzz the receiver engine: `iters` episodes, each a fresh engine fed
/// a mix of honest traffic and hostile wire-reachable packets.
pub fn fuzz_receiver(seed: u64, iters: u64) -> FuzzReport {
    let configs = fuzz_configs();
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut rng = episode_rng(seed, i);
        let cfg = configs[(i % configs.len() as u64) as usize].clone();
        guarded("receiver", seed, i, || {
            let mut r = ReceiverEngine::new(cfg, rng.gen::<u16>(), 7001, 0);
            let mut now: u64 = 0;
            // Attach the window with a little honest in-order data so
            // hostile control packets land on live state.
            let honest = 1 + (rng.gen::<u64>() % 4);
            for seq in 0..honest {
                let pkt = Packet::data(7000, 7001, seq as u32, Bytes::copy_from_slice(&[7u8; 32]));
                r.handle_packet(&pkt, now);
                report.packets_fed += 1;
            }
            let steps = 8 + (rng.gen::<u64>() % 25);
            for _ in 0..steps {
                now += rng.gen::<u64>() % 50_000;
                match rng.gen::<u64>() % 8 {
                    0 => r.on_tick(now),
                    1 => {
                        let mut buf = [0u8; 512];
                        let _ = r.read(&mut buf, now);
                    }
                    2 => {
                        while r.poll_output().is_some() {}
                        check_receiver_queries(&r);
                    }
                    3 => r.note_checksum_failure(now),
                    _ => {
                        let pkt = arbitrary_packet(&mut rng);
                        r.handle_packet(&pkt, now);
                        report.packets_fed += 1;
                    }
                }
            }
            // Drain everything once more; poll paths must also be total.
            r.on_tick(now + 1_000_000);
            while r.poll_output().is_some() {}
            check_receiver_queries(&r);
            report.malformed_flagged += r.stats.malformed_packets;
        });
        report.episodes += 1;
    }
    report
}

/// Fuzz the sender engine: `iters` episodes of forged peer traffic
/// against a sender mid-transfer.
pub fn fuzz_sender(seed: u64, iters: u64) -> FuzzReport {
    let configs = fuzz_configs();
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut rng = episode_rng(seed, i);
        let cfg = configs[(i % configs.len() as u64) as usize].clone();
        guarded("sender", seed, i, || {
            let mut s = SenderEngine::new(cfg, 7000, 7001, rng.gen::<u32>() % 1024, 0);
            let mut now: u64 = 0;
            // A couple of honest members so probes/ejections have
            // someone to act on.
            for p in 0..2u32 {
                let join = Packet::control(PacketType::Join, 8000 + p as u16, 7001, 0);
                s.handle_packet(&join, PeerId(p), now);
                report.packets_fed += 1;
            }
            let _ = s.submit(&[0x5A; 4096], now);
            let steps = 8 + (rng.gen::<u64>() % 25);
            for _ in 0..steps {
                now += rng.gen::<u64>() % 50_000;
                match rng.gen::<u64>() % 8 {
                    0 => s.on_tick(now),
                    1 => {
                        let _ = s.submit(&[0xA5; 512], now);
                    }
                    2 => {
                        while s.poll_output().is_some() {}
                        check_sender_queries(&s);
                    }
                    3 => s.note_checksum_failure(now),
                    _ => {
                        let pkt = arbitrary_packet(&mut rng);
                        // Forged packets arrive from known and unknown
                        // peers alike.
                        let peer = PeerId(rng.gen::<u32>() % 4);
                        s.handle_packet(&pkt, peer, now);
                        report.packets_fed += 1;
                    }
                }
            }
            if rng.gen_bool(0.3) {
                s.close(now);
            }
            s.on_tick(now + 1_000_000);
            while s.poll_output().is_some() {}
            check_sender_queries(&s);
            report.malformed_flagged += s.stats.malformed_packets;
        });
        report.episodes += 1;
    }
    report
}

/// Write the built-in seed set into `corpus_dir()` as `.hex` files.
/// Used once to produce the checked-in corpus; re-running is
/// idempotent.
pub fn write_corpus() -> std::io::Result<usize> {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir)?;
    let seeds = builtin_seeds();
    for (i, seed) in seeds.iter().enumerate() {
        let mut text = String::from("# hrmc-fuzz corpus seed (hex bytes)\n");
        for chunk in seed.chunks(16) {
            let line: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
            text.push_str(&line.join(" "));
            text.push('\n');
        }
        std::fs::write(dir.join(format!("seed_{i:02}.hex")), text)?;
    }
    Ok(seeds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_parses_and_round_trips() {
        assert_eq!(parse_hex("0a ff\n# note\n00"), Some(vec![0x0a, 0xff, 0x00]));
        assert_eq!(parse_hex("zz"), None);
    }

    #[test]
    fn builtin_seeds_all_decode() {
        for seed in builtin_seeds() {
            Packet::decode(&seed).expect("builtin corpus seed must be a valid packet");
        }
    }

    #[test]
    fn episodes_are_reproducible() {
        let a = fuzz_wire(7, 200);
        let b = fuzz_wire(7, 200);
        assert_eq!(a.decode_ok, b.decode_ok);
        assert_eq!(a.decode_err, b.decode_err);
        // Both accept and reject paths must actually be exercised.
        assert!(a.decode_ok > 0, "no input ever decoded");
        assert!(a.decode_err > 0, "no input was ever rejected");
    }
}
