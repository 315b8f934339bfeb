//! Hostile bytes at the UDP transport's socket — the outermost trust
//! boundary a daemon has. Whatever arrives, from a peer it talks to or
//! from an address it has never heard of, `poll` must neither panic nor
//! claim memory the datagram does not pay for: counts and lengths inside
//! a coalesced body are checked against the bytes that are there, ack
//! fields release at most what is outstanding, and an ack or an unknown
//! kind from a stranger allocates nothing at all.
//!
//! The datagrams are forged here from the layout `runtime::udp`
//! documents, not with its builders, so the documentation is under test
//! too.
//!
//! One frame a daemon reads off that transport is a peer's row of the
//! stability matrix, `5 | uvar n | n × uvar`. Its decoding is total and
//! held to the same ceiling; a decoded row counts only with one entry per
//! member, and a merged row never lowers an entry, of the matrix or of
//! the frontier it sets.
//!
//! Two more are the anti-entropy probe, `6 | uvar from | windows`, and
//! the reply, `7 | config | uvar count | count × (uvar len | frame)`.
//! Their decoding is total and held to the same ceiling: a forged window,
//! exception or message count — a reply's above `SYNC_REPLY_MAX`
//! included — is refused before anything is reserved for it, and a
//! window list whose senders or exceptions do not strictly rise is
//! refused.

use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};

use bytes::Bytes;
use pcb_bench::alloc::{counted, CountingAlloc};
use pcb_broadcast::endpoint::{Input, Output};
use pcb_broadcast::wire::{checksum64, ListWriter};
use pcb_broadcast::{fragment, Endpoint, PcbConfig, WireError, SYNC_REPLY_MAX};
use pcb_clock::{KeySet, KeySpace, ProcessId};
use pcb_runtime::daemon::{decode_msg, DaemonMsg, StabilityRows};
use pcb_runtime::{UdpConfig, UdpEvent, UdpTransport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap bytes one datagram may make `poll` claim per byte of its own,
/// plus a flat allowance. Honest traffic copies each frame once and
/// keeps a map node per held-back frame; the flat part covers the one
/// thing a small datagram may legitimately reserve — a reassembly table
/// for a fragment that announces up to `fragment::MAX_FRAGMENTS` (1024)
/// siblings — and first-use growth of the transport's own buffers.
const CEILING_PER_BYTE: u64 = 16;
const CEILING_FLAT: u64 = 64 * 1024;

const KIND_FRAME: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_COALESCED: u8 = 2;
const KIND_FRAGMENT: u8 = 3;

fn loopback() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}

fn uvar(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn seal(out: &mut Vec<u8>) {
    let sum = checksum64(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// `kind | epoch | acknowledged epoch | cumulative | body | checksum`,
/// an epoch being two varints (incarnation, fences).
fn datagram(kind: u8, epoch: (u64, u64), ack: (u64, u64, u64), body: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    for half in [epoch.0, epoch.1, ack.0, ack.1, ack.2] {
        uvar(&mut out, half);
    }
    out.extend_from_slice(body);
    seal(&mut out);
    out
}

/// A number that is sometimes small, sometimes at a boundary.
fn number(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..4u32) {
        0 => rng.random_range(0..4u64),
        1 => rng.random_range(0..200u64),
        2 => u64::from(u32::MAX) + rng.random_range(0..3u64) - 1,
        _ => u64::MAX - rng.random_range(0..2u64),
    }
}

fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    (0..rng.random_range(0..=max)).map(|_| rng.random_range(0..=u8::MAX)).collect()
}

/// A header whose every field is drawn by [`number`], except that the
/// acknowledged epoch is often the victim's real one, so forged
/// cumulatives actually reach its send window.
fn header(rng: &mut StdRng) -> ((u64, u64), (u64, u64, u64)) {
    let epoch = (number(rng), number(rng));
    let ack_epoch = if rng.random_bool(0.5) { (1, 0) } else { (number(rng), number(rng)) };
    (epoch, (ack_epoch.0, ack_epoch.1, number(rng)))
}

/// One datagram that is well-formed down to the checksum, with counts,
/// lengths, sequence numbers and ack fields a sender could only have
/// made up.
fn forged(rng: &mut StdRng) -> Vec<u8> {
    let (epoch, ack) = header(rng);
    let mut body = Vec::new();
    let kind = match rng.random_range(0..5u32) {
        0 => {
            uvar(&mut body, number(rng));
            body.extend(bytes(rng, 120));
            KIND_FRAME
        }
        1 => KIND_ACK,
        2 => {
            // The count and each entry's length lie independently.
            let entries = rng.random_range(0..6u64);
            uvar(&mut body, if rng.random_bool(0.5) { entries } else { number(rng) });
            for _ in 0..entries {
                uvar(&mut body, number(rng));
                let frame = bytes(rng, 40);
                let len = if rng.random_bool(0.7) { frame.len() as u64 } else { number(rng) };
                uvar(&mut body, len);
                body.extend(frame);
            }
            KIND_COALESCED
        }
        3 => {
            // A real fragment of a real frame, under a forged sequence
            // number — or a fragment header that is itself made up.
            uvar(&mut body, number(rng));
            if rng.random_bool(0.5) {
                let frame = Bytes::from(bytes(rng, 400));
                let fragments = fragment(number(rng), &frame, 64).expect("fragments");
                body.extend_from_slice(&fragments[rng.random_range(0..fragments.len())]);
            } else {
                // version | frame id | index | count | len | payload | sum
                let count =
                    if rng.random_bool(0.5) { rng.random_range(1..=1024) } else { number(rng) };
                let mut frag = vec![1];
                for field in [number(rng), rng.random_range(0..4u64), count] {
                    uvar(&mut frag, field);
                }
                let payload = bytes(rng, 30);
                uvar(&mut frag, payload.len() as u64);
                frag.extend(payload);
                seal(&mut frag);
                body.extend(frag);
            }
            KIND_FRAGMENT
        }
        _ => {
            body.extend(bytes(rng, 60));
            rng.random_range(4..=u8::MAX)
        }
    };
    datagram(kind, epoch, ack, &body)
}

/// [`forged`], then damaged the way a link damages things: left alone,
/// truncated, a bit flipped, four bytes overwritten with `0xff` — and,
/// half the time, sealed again so the damage is read as fields instead
/// of stopping at the checksum.
fn hostile(rng: &mut StdRng) -> Vec<u8> {
    let mut raw = forged(rng);
    let sealed = raw.len() - 8;
    match rng.random_range(0..4u32) {
        0 => return raw,
        1 => raw.truncate(rng.random_range(0..=raw.len())),
        2 => {
            let at = rng.random_range(0..raw.len());
            raw[at] ^= 1 << rng.random_range(0..8u32);
        }
        _ => {
            let at = rng.random_range(0..raw.len().saturating_sub(3).max(1));
            let end = (at + 4).min(raw.len());
            raw[at..end].fill(0xff);
        }
    }
    if rng.random_bool(0.5) {
        raw.truncate(sealed.min(raw.len()));
        seal(&mut raw);
    }
    raw
}

/// The daemon's row frame kind.
const MSG_ROW: u8 = 5;
/// Members of the cluster the forged rows are merged into.
const MEMBERS: usize = 3;

/// A row frame whose count may lie about its entries, then truncated, a
/// bit flipped, or trailed by bytes nobody asked for.
fn hostile_row(rng: &mut StdRng) -> Vec<u8> {
    let entries = if rng.random_bool(0.5) { MEMBERS } else { rng.random_range(0..6usize) };
    let mut raw = vec![MSG_ROW];
    uvar(&mut raw, if rng.random_bool(0.8) { entries as u64 } else { number(rng) });
    for _ in 0..entries {
        uvar(&mut raw, number(rng));
    }
    match rng.random_range(0..4u32) {
        0 => {}
        1 => raw.truncate(rng.random_range(0..=raw.len())),
        2 => {
            let at = rng.random_range(0..raw.len());
            raw[at] ^= 1 << rng.random_range(0..8u32);
        }
        _ => raw.extend(bytes(rng, 8)),
    }
    raw
}

/// Decodes `raw` with the counter armed and, if it is a row, merges it
/// as a member drawn at random (or one past the last): refused unless it
/// has one entry per member, never lowering an entry, and reporting a
/// rise exactly when an entry rose.
fn row_within_ceiling(
    rows: &mut StabilityRows,
    raw: &[u8],
    rng: &mut StdRng,
) -> Result<(), String> {
    let frame = Bytes::from(raw.to_vec());
    let (_, claimed, decoded) = counted(|| decode_msg(&frame));
    let ceiling = CEILING_PER_BYTE * raw.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        return Err(format!("a {}-byte row allocated {claimed} B: {raw:?}", raw.len()));
    }
    let Ok(DaemonMsg::Row(row)) = decoded else { return Ok(()) };
    let member = rng.random_range(0..=MEMBERS);
    let (before, frontier) = (rows.clone(), rows.frontier());
    let reported = rows.merge(member, &row);
    let accepted = member < MEMBERS && row.len() == MEMBERS;
    let raises =
        accepted && row.iter().zip(before.row(member).expect("member")).any(|(n, o)| n > o);
    if reported != raises || (!accepted && before != *rows) {
        return Err(format!("member {member} row {row:?}: merge reported a rise = {reported}"));
    }
    let rose = |old: &[u64], new: &[u64]| old.iter().zip(new).all(|(o, n)| n >= o);
    for m in 0..MEMBERS {
        let (old, new) = (before.row(m).expect("member"), rows.row(m).expect("member"));
        if !rose(old, new) || (m != member && old != new) {
            return Err(format!("row {m} went {old:?} -> {new:?} merging {row:?} as {member}"));
        }
    }
    if !rose(&frontier, &rows.frontier()) {
        return Err(format!("frontier fell: {frontier:?} -> {:?}", rows.frontier()));
    }
    Ok(())
}

/// The daemon's probe and reply kinds.
const MSG_PROBE: u8 = 6;
const MSG_REPLY: u8 = 7;

/// A window or exception count, or a sender or sequence number, that is
/// sometimes honest, sometimes made up.
fn count(rng: &mut StdRng, honest: u64) -> u64 {
    if rng.random_bool(0.7) {
        honest
    } else {
        number(rng)
    }
}

/// Real frames of one sender's chain at `R = 16`: what an honest reply
/// carries, so forged counts meet frames that decode.
fn chain_frames() -> Vec<Bytes> {
    let keys = KeySet::from_entries(KeySpace::new(16, 2).expect("space"), &[3, 9]).expect("keys");
    let mut sender = Endpoint::new(ProcessId::new(1), keys, PcbConfig::default(), None);
    let mut list = ListWriter::default();
    (0..8u32)
        .flat_map(|payload| sender.handle(Input::Broadcast(payload), 1_000))
        .filter_map(|o| if let Output::SendFrame(m) = o { Some(list.encode(&m)) } else { None })
        .collect()
}

/// A probe whose window and exception counts may lie and whose senders
/// and exceptions may not rise, or a reply whose message count may lie
/// (past `SYNC_REPLY_MAX` too) over real frames, forged ones, or frames
/// whose length lies; then damaged as a row is.
fn hostile_sync(rng: &mut StdRng, frames: &[Bytes]) -> Vec<u8> {
    let mut raw;
    if rng.random_bool(0.5) {
        raw = vec![MSG_PROBE];
        uvar(&mut raw, count(rng, 1));
        let windows = rng.random_range(0..5u64);
        uvar(&mut raw, count(rng, windows));
        let mut sender = 0u64;
        for _ in 0..windows {
            let next = sender.saturating_add(rng.random_range(1..3u64));
            sender = count(rng, next);
            uvar(&mut raw, sender);
            let prefix = rng.random_range(0..50u64);
            let mut seq = count(rng, prefix);
            uvar(&mut raw, seq);
            let exceptions = rng.random_range(0..4u64);
            uvar(&mut raw, count(rng, exceptions));
            for _ in 0..exceptions {
                let next = seq.saturating_add(rng.random_range(1..4u64));
                seq = count(rng, next);
                uvar(&mut raw, seq);
            }
        }
    } else {
        raw = vec![MSG_REPLY, 0, 16, 2, 0];
        let entries = rng.random_range(0..=frames.len());
        let claimed = match rng.random_range(0..3u32) {
            0 => SYNC_REPLY_MAX as u64 + rng.random_range(1..3u64),
            1 => number(rng),
            _ => entries as u64,
        };
        uvar(&mut raw, claimed);
        for frame in &frames[..entries] {
            let frame = if rng.random_bool(0.8) { frame.to_vec() } else { bytes(rng, 40) };
            uvar(&mut raw, count(rng, frame.len() as u64));
            raw.extend(frame);
        }
    }
    match rng.random_range(0..4u32) {
        0 => {}
        1 => raw.truncate(rng.random_range(0..=raw.len())),
        2 => {
            let at = rng.random_range(0..raw.len());
            raw[at] ^= 1 << rng.random_range(0..8u32);
        }
        _ => raw.extend(bytes(rng, 8)),
    }
    raw
}

/// Decodes `raw` with the counter armed: within the ceiling, and a probe
/// that decodes has its windows in exported form, a reply no more than
/// `SYNC_REPLY_MAX` messages.
fn sync_within_ceiling(raw: &[u8]) -> Result<(), String> {
    let frame = Bytes::from(raw.to_vec());
    let (_, claimed, decoded) = counted(|| decode_msg(&frame));
    let ceiling = CEILING_PER_BYTE * raw.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        return Err(format!("a {}-byte probe or reply allocated {claimed} B: {raw:?}", raw.len()));
    }
    match decoded {
        Ok(DaemonMsg::Probe(_, windows)) => {
            let senders_rise = windows.windows(2).all(|pair| pair[0].0 < pair[1].0);
            let exceptions_rise = windows.iter().all(|(_, prefix, exceptions)| {
                exceptions.first().is_none_or(|first| first > prefix)
                    && exceptions.windows(2).all(|pair| pair[0] < pair[1])
            });
            if !senders_rise || !exceptions_rise {
                return Err(format!("windows not in exported form decoded: {windows:?}"));
            }
        }
        Ok(DaemonMsg::Reply(_, messages)) if messages.len() > SYNC_REPLY_MAX => {
            return Err(format!("a reply of {} messages decoded", messages.len()));
        }
        _ => {}
    }
    Ok(())
}

/// Sends `raw` from `from` and polls the victim once with the counter
/// armed. Loopback queues the datagram inside `send_to`, so one poll
/// reads it.
fn poll_within_ceiling(
    victim: &mut UdpTransport,
    from: &UdpSocket,
    raw: &[u8],
    now_us: u64,
    events: &mut Vec<UdpEvent>,
) -> Result<u64, String> {
    let to = victim.local_addr().expect("victim address");
    from.send_to(raw, to).expect("loopback send");
    let before = victim.stats().0.datagrams_received;
    let (_, claimed, ()) = counted(|| victim.poll_into(now_us, events));
    if victim.stats().0.datagrams_received != before + 1 {
        return Err(format!("datagram of {} bytes was not read by one poll", raw.len()));
    }
    let ceiling = CEILING_PER_BYTE * raw.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        return Err(format!(
            "a {}-byte datagram made poll allocate {claimed} B, ceiling {ceiling} B: {raw:?}",
            raw.len()
        ));
    }
    Ok(claimed)
}

// One test in this binary: the counter is process-wide, and a second
// test thread's allocations would land in this one's tally.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn poll_is_total_and_claims_no_more_than_a_datagram_pays_for(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = UdpConfig::default();
        let mut victim = UdpTransport::bind(loopback(), 0, cfg.clone(), 1).expect("bind victim");
        let victim_addr = victim.local_addr().expect("victim address");
        let peer = UdpSocket::bind(loopback()).expect("bind peer");
        let stranger = UdpSocket::bind(loopback()).expect("bind stranger");
        let mut events = Vec::with_capacity(64);
        let mut now_us = 0u64;

        // The victim talks to `peer` (so acks from there mean something:
        // a window of frames is outstanding under epoch (1, 0)) and has
        // never heard of `stranger`.
        for i in 0..rng.random_range(1..40u32) {
            victim.send(peer.local_addr().expect("peer address"), Bytes::from(vec![i as u8; 20]), 0);
        }
        victim.flush(0);
        // One poll before the counter is armed grows the transport's own
        // scratch lists to the peer count.
        victim.poll_into(0, &mut events);

        // What a stranger cannot do: leave state behind with anything
        // that carries no frame.
        for _ in 0..4 {
            let (epoch, ack) = header(&mut rng);
            let kind = if rng.random_bool(0.5) { KIND_ACK } else { rng.random_range(4..=u8::MAX) };
            let raw = datagram(kind, epoch, ack, &bytes(&mut rng, 30));
            let claimed = poll_within_ceiling(&mut victim, &stranger, &raw, now_us, &mut events);
            prop_assert_eq!(claimed, Ok(0), "an ack or unknown kind from a stranger allocated");
            prop_assert!(events.is_empty());
        }

        for _ in 0..24 {
            now_us += rng.random_range(0..20_000u64);
            let raw = match rng.random_range(0..3u32) {
                0 => bytes(&mut rng, 200),
                1 => {
                    // Noise behind a checksum that holds.
                    let mut raw = bytes(&mut rng, 120);
                    seal(&mut raw);
                    raw
                }
                _ => hostile(&mut rng),
            };
            let from = if rng.random_bool(0.7) { &peer } else { &stranger };
            let verdict = poll_within_ceiling(&mut victim, from, &raw, now_us, &mut events);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        // Whatever the two of them did, it stayed on their own streams: a
        // newcomer's first frame still goes straight through.
        let mut honest = UdpTransport::bind(loopback(), 0, cfg, 2).expect("bind honest");
        honest.send(victim_addr, Bytes::from_static(b"still here"), now_us);
        honest.flush(now_us);
        let from = honest.local_addr().expect("honest address");
        let mut seen = false;
        for _ in 0..10_000 {
            victim.poll_into(now_us, &mut events);
            seen |= events.contains(&UdpEvent::Frame { from, frame: Bytes::from_static(b"still here") });
            if seen {
                break;
            }
        }
        prop_assert!(seen, "an honest frame no longer gets through");

        let mut rows = StabilityRows::new(MEMBERS);
        for _ in 0..16 {
            let raw = hostile_row(&mut rng);
            let verdict = row_within_ceiling(&mut rows, &raw, &mut rng);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        let frames = chain_frames();
        // The layout, as documented, decodes.
        let mut honest = vec![MSG_REPLY, 0, 16, 2, 0];
        uvar(&mut honest, frames.len() as u64);
        for frame in &frames {
            uvar(&mut honest, frame.len() as u64);
            honest.extend_from_slice(frame);
        }
        let decoded = decode_msg(&Bytes::from(honest));
        prop_assert!(
            matches!(&decoded, Ok(DaemonMsg::Reply(_, messages)) if messages.len() == frames.len()),
            "{decoded:?}"
        );
        for _ in 0..16 {
            let raw = hostile_sync(&mut rng, &frames);
            let verdict = sync_within_ceiling(&raw);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
        // Counts with nothing behind them, and a reply one message longer
        // than a store answers with: refused, with nothing reserved for
        // them (the one window whose bytes are there has its slot).
        let mut reply = vec![MSG_REPLY, 0, 16, 2, 0];
        uvar(&mut reply, SYNC_REPLY_MAX as u64 + 1);
        let mut windows = vec![MSG_PROBE, 1];
        uvar(&mut windows, u64::MAX);
        let mut exceptions = vec![MSG_PROBE, 1, 1, 0, 0];
        uvar(&mut exceptions, u64::MAX);
        let window = std::mem::size_of::<(ProcessId, u64, Vec<u64>)>() as u64;
        for (raw, refusal, reserved) in [
            (reply, WireError::LongReply(SYNC_REPLY_MAX + 1), 0),
            (windows, WireError::Truncated, 0),
            (exceptions, WireError::Truncated, window),
        ] {
            let frame = Bytes::from(raw);
            let (_, claimed, decoded) = counted(|| decode_msg(&frame).err());
            prop_assert_eq!((claimed, decoded), (reserved, Some(refusal)));
        }
    }
}
