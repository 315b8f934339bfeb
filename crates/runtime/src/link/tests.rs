//! The link's behaviour, one case at a time, over the test network in
//! synthetic time.
//!
//! Test code only: `link.rs` declares this module under `#[cfg(test)]`.

use std::ops::Range;

use bytes::Bytes;
use pcb_broadcast::MIN_MTU;

use super::net::{Net, Weather, A, B};
use super::*;

fn byte_frames(range: Range<u8>) -> Vec<Bytes> {
    range.map(|i| Bytes::from(vec![i])).collect()
}

fn numbered(range: Range<u32>) -> Vec<Bytes> {
    range.map(|i| Bytes::from(i.to_be_bytes().to_vec())).collect()
}

/// A timeout and retry budget short enough for a synthetic clock.
fn probing_cfg() -> UdpConfig {
    UdpConfig { rto_initial_us: 2_000, rto_max_us: 8_000, max_retries: 3, ..UdpConfig::default() }
}

/// Frames and fences at `end` once the ends have taken turns, the clock
/// moving to the next deadline whenever nothing is in flight, until
/// `done`.
fn run(net: &mut Net, mut done: impl FnMut(&Net) -> bool) {
    for _ in 0..100_000 {
        if done(net) {
            return;
        }
        net.read(A);
        net.read(B);
        if !net.in_flight() && !done(net) {
            assert!(net.tick(), "stalled with nothing to wait for");
        }
    }
    panic!("never done");
}

/// Polls `end` every millisecond of the synthetic clock until `done`
/// ([`Net::poll`] checks the next deadline is still ahead each time).
fn step_until(net: &mut Net, end: usize, mut done: impl FnMut(&Net) -> bool) {
    while !done(net) {
        assert!(net.now_us < 1_000_000, "never done");
        net.now_us += 1_000;
        net.poll(end);
    }
}

/// Frames and fences not yet acknowledged or still queued at `end`.
fn outstanding(net: &Net, end: usize) -> usize {
    let link = &net.ends[end].link;
    link.unacked.len() + link.queued.len()
}

/// One whole-frame datagram, as `ship` builds it.
fn frame_datagram(epoch: u64, ack: (u64, u64), seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut raw = Vec::new();
    open_outer(&mut raw, KIND_FRAME, epoch, ack);
    put_uvar(&mut raw, seq);
    raw.extend_from_slice(frame);
    seal_outer(&mut raw, 0);
    raw
}

/// A standalone ack sent under `own` for `(epoch, cumulative)`.
fn ack_datagram(own: u64, epoch: u64, cumulative: u64) -> Vec<u8> {
    let mut raw = Vec::new();
    open_outer(&mut raw, KIND_ACK, own, (epoch, cumulative));
    seal_outer(&mut raw, 0);
    raw
}

#[test]
fn frames_arrive_in_order_over_a_clean_link() {
    let mut net = Net::new(UdpConfig::default());
    for frame in numbered(0..50) {
        net.send(A, frame);
    }
    run(&mut net, |n| n.frames(B).len() == 50);
    assert_eq!(net.frames(B), numbered(0..50));
}

#[test]
fn large_frames_fragment_and_reassemble() {
    let mut net = Net::new(UdpConfig::default());
    let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    net.send(A, big.clone());
    run(&mut net, |n| !n.frames(B).is_empty());
    assert_eq!(net.frames(B), [Bytes::from(big)]);
    assert!(net.stats(A).fragments_sent > 1);
}

#[test]
fn heavy_faults_do_not_break_ordered_delivery() {
    let mut net = Net::new(UdpConfig { rto_initial_us: 5_000, ..UdpConfig::default() });
    net.weather[B] = Weather::Storm { state: 1, drop: 250, dup: 150, late: 150, corrupt: 100 };
    // Every fifth frame is three MTUs long, the size of a sync reply or
    // a join grant: each of its fragments is dropped, duplicated, delayed
    // or corrupted on its own, and the frame must still reassemble, in
    // its place in the stream.
    let frame = |i: u32| -> Bytes {
        if i.is_multiple_of(5) {
            let large = (0..3 * pcb_broadcast::DEFAULT_MTU).map(|j| (i as usize + j) as u8);
            Bytes::from(large.collect::<Vec<u8>>())
        } else {
            Bytes::from(i.to_be_bytes().to_vec())
        }
    };
    for i in 0..80u32 {
        net.send(A, frame(i));
    }
    run(&mut net, |n| n.frames(B).len() == 80);
    assert_eq!(net.frames(B), (0..80).map(frame).collect::<Vec<_>>(), "in order, each once");
    assert_eq!(net.stats(B).frames_reassembled, 16, "every large frame, reassembled once");
    assert!(net.stats(B).decode_errors > 0, "corrupt datagrams were counted");
    assert_eq!(net.stats(A).give_ups, 0);
}

#[test]
fn lossy_link_with_coalescing_still_delivers_in_order() {
    let mut net = Net::new(UdpConfig { rto_initial_us: 5_000, ..UdpConfig::default() });
    net.weather[B] = Weather::Storm { state: 7, drop: 250, dup: 200, late: 200, corrupt: 100 };
    for frame in numbered(0..60) {
        net.send(A, frame);
    }
    run(&mut net, |n| n.frames(B).len() == 60);
    assert_eq!(net.frames(B), numbered(0..60), "coalesced traffic must survive the faults");
    assert!(net.stats(A).coalesced_sent > 0);
}

#[test]
fn silent_peer_is_declared_unreachable_then_recovers() {
    let mut net = Net::new(probing_cfg());
    // B never reads: A's retries exhaust.
    net.send(A, vec![1, 2, 3]);
    step_until(&mut net, A, |n| n.stats(A).peer_down > 0);
    assert_eq!(net.stats(A).peer_down, 1, "peer should be declared unreachable");
    assert!(net.ends[A].link.unreachable);
    // B reads what piled up while it was away: the abandoned epoch.
    net.read(B);
    net.ends[B].events.clear();

    // New traffic after recovery flows again under the bumped epoch.
    net.send(A, vec![9, 9]);
    run(&mut net, |n| !n.frames(B).is_empty() && n.stats(A).peer_up > 0);
    assert_eq!(net.frames(B), [Bytes::from(vec![9, 9])]);
    assert_eq!(net.stats(A).peer_up, 1, "an ack from the revived peer counts it up");
    assert!(!net.ends[A].link.unreachable);
}

#[test]
fn give_up_drops_queued_frames_with_the_dead_epoch() {
    // One frame in flight, so the two behind it are guaranteed to be
    // still queued when the give-up fires.
    let mut net = Net::new(UdpConfig { window: 1, ..probing_cfg() });
    for frame in [b"X", b"Y", b"Z"] {
        net.send(A, &frame[..]);
    }
    net.flush(A);
    step_until(&mut net, A, |n| n.stats(A).peer_down > 0);
    assert_eq!((net.stats(A).give_ups, net.stats(A).peer_down), (1, 1));
    assert_eq!(net.fences(A), 1);
    net.read(B);
    net.ends[B].events.clear();

    // The frames queued at give-up time belonged to the dead epoch and
    // never surface: anti-entropy owns that gap.
    net.send(A, &b"W"[..]);
    run(&mut net, |n| !n.frames(B).is_empty());
    assert_eq!(net.frames(B), [Bytes::from_static(b"W")]);
}

#[test]
fn a_silent_peer_gets_one_retransmit_per_timeout_not_a_window() {
    let cfg = probing_cfg();
    let mut net = Net::new(cfg.clone());
    // A full window in flight to a peer that never reads.
    for frame in byte_frames(0..cfg.window as u8) {
        net.send(A, frame);
    }
    net.flush(A);
    assert_eq!(net.ends[A].link.unacked.len(), cfg.window);
    step_until(&mut net, A, |n| n.stats(A).give_ups > 0);
    // Retransmitting every frame on its own timer cost window ×
    // max_retries here (192): the receiver can only take the head.
    let stats = net.stats(A);
    assert_eq!(stats.retransmits, u64::from(cfg.max_retries));
    assert_eq!((stats.give_ups, stats.peer_down), (1, 1));
    assert!(net.ends[A].link.unacked.is_empty(), "the give-up fence abandons the window");
}

/// Two frames in flight to a silent `B` and the head retransmitted once:
/// the peer let a whole timeout pass.
fn head_retrying(net: &mut Net) {
    for frame in byte_frames(0..2) {
        net.send(A, frame);
    }
    net.flush(A);
    step_until(net, A, |n| n.stats(A).retransmits == 1);
    let retries = net.ends[A].link.unacked.values().map(|f| f.retries).collect::<Vec<_>>();
    assert_eq!(retries, [1, 0]);
}

#[test]
fn while_the_head_retries_new_frames_wait_in_the_queue() {
    let cfg = probing_cfg();
    let mut net = Net::new(cfg.clone());
    head_retrying(&mut net);
    let (t, sent) = (net.now_us, net.stats(A).bytes_sent);
    for frame in byte_frames(2..5) {
        net.send(A, frame);
    }
    net.flush(A);
    net.poll(A);
    assert_eq!(net.stats(A).bytes_sent, sent, "nothing new left for a silent peer");
    assert_eq!((net.ends[A].link.unacked.len(), net.ends[A].link.queued.len()), (2, 3));
    // The frame behind the head timed out long ago; the deadline is the
    // head's, doubled once, not that one's.
    assert_eq!(net.ends[A].link.next_deadline_us(), Some(t + 2 * cfg.rto_initial_us));
    // Through the give-up the queue is held, the head alone retried.
    step_until(&mut net, A, |n| n.stats(A).give_ups > 0);
    assert_eq!(net.stats(A).retransmits, u64::from(cfg.max_retries));
}

#[test]
fn the_ack_that_releases_the_head_sends_the_queue_in_the_same_poll() {
    let mut net = Net::new(probing_cfg());
    head_retrying(&mut net);
    for frame in byte_frames(2..6) {
        net.send(A, frame);
    }
    // The peer answers: it reads both frames (one coalesced datagram)
    // and the retransmission, and acknowledges them at once.
    assert_eq!(net.read(B), 2);
    assert_eq!(net.frames(B), byte_frames(0..2));
    assert_eq!(net.stats(B).acks_sent, 1);
    // One turn reads the ack and ships all four queued frames.
    assert_eq!(net.read(A), 1);
    assert!(net.ends[A].link.queued.is_empty());
    assert_eq!(net.ends[A].link.unacked.keys().copied().collect::<Vec<_>>(), [3, 4, 5, 6]);
    assert_eq!(net.read(B), 4);
    assert_eq!(net.frames(B), byte_frames(0..6), "in order, each once");
    assert_eq!(net.stats(A).retransmits, 1);
}

#[test]
fn restarted_sender_epoch_resets_the_receive_stream() {
    let mut net = Net::new(UdpConfig::default());
    net.send(A, vec![1]);
    net.send(A, vec![2]);
    run(&mut net, |n| n.frames(B).len() == 2);
    // A restarts: higher incarnation, fresh sequence space.
    net.restart(A);
    net.send(A, vec![7]);
    run(&mut net, |n| n.frames(B).len() == 3);
    assert_eq!(net.frames(B)[2], [7][..], "a fresh epoch is not mistaken for a replay");
}

#[test]
fn restarted_receiver_resyncs_without_a_give_up() {
    // A window of 4 so the restart finds frames in every send-side
    // state: in flight, parked in the coalescing buffer, and queued.
    let mut net = Net::new(UdpConfig { window: 4, ..UdpConfig::default() });
    // B is a known peer of A (one frame back), and six frames A→B are
    // delivered and acknowledged: two frames or more are acknowledged at
    // once, where a lone one would wait for a clock that is frozen.
    net.send(B, &b"hello"[..]);
    net.flush(B);
    net.settle();
    assert_eq!(net.frames(A), [Bytes::from_static(b"hello")]);
    for batch in [0..4, 4..6] {
        for frame in byte_frames(batch) {
            net.send(A, frame);
        }
        net.flush(A);
        net.settle();
        assert_eq!(outstanding(&net, A), 0);
    }
    assert_eq!(net.frames(B), byte_frames(0..6));

    // B dies. A keeps sending: two frames flushed into the void, two
    // parked in the coalescing buffer, two queued behind the window.
    net.weather[B] = Weather::Cut;
    for (i, frame) in byte_frames(6..12).into_iter().enumerate() {
        net.send(A, frame);
        if i == 1 {
            net.flush(A);
        }
    }
    assert_eq!(outstanding(&net, A), 6);

    // B′: next incarnation, nothing remembered. It speaks first; A has
    // one more frame to send.
    net.restart(B);
    net.weather[B] = Weather::Clear;
    net.send(B, &b"back"[..]);
    net.flush(B);
    net.send(A, vec![12]);
    net.settle();
    assert_eq!(net.frames(A), [Bytes::from_static(b"hello"), Bytes::from_static(b"back")]);
    // B's previous life acknowledged frames 1–6: the seven behind them
    // continue a stream whose start it took with it, and go with the old
    // epoch from every send-side state alike.
    assert!(net.frames(B).is_empty(), "frames of the old stream surfaced");
    assert_eq!(outstanding(&net, A), 0);
    let stats = net.stats(A);
    assert_eq!(stats.peer_restarts, 1);
    assert_eq!((stats.give_ups, stats.retransmits), (0, 0), "the clock never moved");
    assert_eq!(net.ends[A].link.send_epoch, epoch_base(0) + 1);
    // The new epoch numbers from 1, and B′ takes it from there.
    for frame in byte_frames(13..15) {
        net.send(A, frame);
    }
    net.flush(A);
    net.settle();
    assert_eq!(net.frames(B), byte_frames(13..15));
    assert_eq!(net.stats(B).frames_received, 2);
}

#[test]
fn restart_after_a_give_up_is_offered_the_whole_new_epoch() {
    let mut net = Net::new(probing_cfg());
    // B is known to A (it spoke once), then dies.
    net.send(B, &b"hello"[..]);
    net.flush(B);
    net.read(A);
    net.weather[B] = Weather::Cut;
    // A frame to the dead B exhausts its retries. The three sent after
    // the give-up open the next epoch at 1, and the dead B acknowledged
    // none of them.
    net.send(A, &b"lost"[..]);
    net.flush(A);
    step_until(&mut net, A, |n| n.stats(A).give_ups == 1);
    for frame in byte_frames(1..4) {
        net.send(A, frame);
    }
    net.flush(A);

    // B′ speaks, and gets that epoch whole, in order, once.
    net.restart(B);
    net.weather[B] = Weather::Clear;
    net.send(B, &b"back"[..]);
    net.flush(B);
    net.settle();
    assert_eq!(net.frames(A), [Bytes::from_static(b"hello"), Bytes::from_static(b"back")]);
    assert_eq!(net.frames(B), byte_frames(1..4));
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(A).peer_restarts, 1);
    assert_eq!(net.stats(B).frames_received, 3);
}

#[test]
fn reordered_stale_ack_does_not_fence() {
    let mut net = Net::new(UdpConfig::default());
    net.send(B, &b"hello"[..]);
    net.flush(B);
    for frame in byte_frames(0..5) {
        net.send(A, frame);
    }
    net.flush(A);
    net.settle();
    assert_eq!(net.frames(B), byte_frames(0..5));
    assert_eq!(outstanding(&net, A), 0);
    // Two more leave A; B has not read them yet.
    for frame in byte_frames(5..7) {
        net.send(A, frame);
    }
    net.flush(A);
    // Acks B sent early in this epoch ("nothing of yours delivered yet",
    // then "three delivered") surface late, after the ack for all five.
    // They look exactly like a restarted listener's — which is why a
    // regressed ack is not taken as a restart signal.
    let (own, epoch) = (net.ends[B].link.send_epoch, net.ends[A].link.send_epoch);
    for cumulative in [0, 3] {
        net.inject(A, ack_datagram(own, epoch, cumulative));
    }
    assert!(net.deliver(A) && net.deliver(A), "both stale acks were read");
    net.poll(A);
    assert_eq!(net.stats(A).peer_restarts, 0);
    assert_eq!(net.ends[A].link.send_epoch, epoch);
    assert_eq!(net.ends[A].link.unacked.len(), 2, "stale acks release nothing");
    net.settle();
    assert_eq!(net.frames(B), byte_frames(0..7));
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(A).retransmits, 0);
}

#[test]
fn peer_that_refenced_after_a_give_up_converges_without_a_counter_fence() {
    let mut net = Net::new(UdpConfig {
        rto_initial_us: 1_000,
        rto_max_us: 1_000,
        max_retries: 2,
        ..UdpConfig::default()
    });
    // Two frames each way: a pair is acknowledged at once, a lone frame's
    // ack would wait for a clock this test keeps still.
    for tag in [1u8, 2] {
        net.send(A, vec![b'a', tag]);
        net.send(B, vec![b'b', tag]);
    }
    net.flush(A);
    net.flush(B);
    net.settle();
    assert_eq!((outstanding(&net, A), outstanding(&net, B)), (0, 0));
    assert_eq!((net.frames(A).len(), net.frames(B).len()), (2, 2));

    // B stops reading; A's frame exhausts its retries on the synthetic
    // clock and A fences its send side by itself.
    net.send(A, &b"lost"[..]);
    net.flush(A);
    step_until(&mut net, A, |n| n.stats(A).peer_down > 0);
    let fenced = net.ends[A].link.send_epoch;
    assert_eq!(incarnation_of(fenced), incarnation_of(fenced - 1), "a fence, not a restart");

    // B reads again: the abandoned frame's copies are still on their way
    // (one delivery), then traffic resumes both ways. A's higher epoch
    // resets B's receive stream and nothing else — B's send side, and
    // A's in answer, keep their epochs however many frames cross.
    let b_epoch = net.ends[B].link.send_epoch;
    let (seen_a, seen_b) = (net.frames(A).len(), net.frames(B).len());
    for round in 0..3u8 {
        net.send(A, vec![b'a', round]);
        net.send(B, vec![b'b', round]);
    }
    net.flush(A);
    net.flush(B);
    net.settle();
    assert_eq!((outstanding(&net, A), outstanding(&net, B)), (0, 0));
    let expect = |tag: u8| (0..3u8).map(|r| Bytes::from(vec![tag, r])).collect::<Vec<_>>();
    assert_eq!(net.frames(A)[seen_a..], expect(b'b')[..]);
    let at_b = &net.frames(B)[seen_b..];
    assert_eq!(at_b[at_b.len() - 3..], expect(b'a')[..]);
    assert!(at_b[..at_b.len() - 3].iter().all(|f| f.as_ref() == b"lost"));
    assert_eq!(net.ends[A].link.send_epoch, fenced);
    assert_eq!(net.ends[B].link.send_epoch, b_epoch);
    assert_eq!((net.stats(A).peer_restarts, net.stats(B).peer_restarts), (0, 0));
    assert_eq!(net.stats(B).epoch_resets, 2, "first contact, then A's fence");
}

#[test]
fn oversize_frame_is_refused_and_counted_not_numbered() {
    let mut net = Net::new(UdpConfig { mtu: MIN_MTU + OUTER_OVERHEAD, ..UdpConfig::default() });
    let limit = max_frame_len(MIN_MTU);
    net.send(A, vec![7u8; limit + 1]);
    assert_eq!(net.stats(A).oversize_refused, 1);
    assert_eq!(net.stats(A).frames_sent, 0);
    assert_eq!(net.next_deadline_us(), None, "nothing was numbered, nothing retries");
    // The stream behind it is not stalled.
    net.send(A, vec![8u8; 100]);
    net.settle();
    assert_eq!(net.frames(B), [Bytes::from(vec![8u8; 100])]);
}

#[test]
fn corrupt_datagrams_are_counted_not_delivered() {
    let raw = frame_datagram(1 << 32, (0, 0), 1, &[0u8; 8]);
    let mut bad = raw.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(parse_outer(&raw).is_some());
    assert!(parse_outer(&bad).is_none());
    assert!(parse_outer(&raw[..raw.len() - 1]).is_none());
    assert!(parse_outer(&[]).is_none());
    let mut net = Net::new(UdpConfig::default());
    net.inject(A, bad);
    net.read(A);
    assert_eq!((net.stats(A).decode_errors, net.stats(A).frames_received), (1, 0));
}

#[test]
fn coalesced_body_roundtrips_entry_by_entry() {
    let entries =
        vec![(3u64, Bytes::from(vec![1, 2, 3])), (4, Bytes::from(vec![9])), (5, Bytes::new())];
    let mut raw = Vec::new();
    open_outer(&mut raw, KIND_COALESCED, 7 << 32 | 2, (9 << 32, 300));
    put_coalesced_body(&mut raw, &entries);
    seal_outer(&mut raw, 0);
    let outer = parse_outer(&raw).expect("sealed datagram parses");
    assert_eq!(
        (outer.kind, outer.epoch, outer.ack_epoch, outer.cumulative),
        (KIND_COALESCED, 7 << 32 | 2, 9 << 32, 300)
    );
    let mut body = outer.body;
    assert_eq!(take_uvar(&mut body), Ok(3));
    for (seq, frame) in &entries {
        let (got_seq, got_frame) = take_coalesced_entry(&mut body).expect("entry within count");
        assert_eq!(got_seq, *seq);
        assert_eq!(got_frame, frame.as_ref());
    }
    assert!(body.is_empty(), "no trailing bytes after the last entry");
    assert!(take_coalesced_entry(&mut body).is_none());
}

#[test]
fn small_frame_bursts_coalesce_into_fewer_datagrams() {
    let mut net = Net::new(UdpConfig::default());
    for frame in numbered(0..40) {
        net.send(A, frame);
    }
    run(&mut net, |n| n.frames(B).len() == 40);
    assert_eq!(net.frames(B), numbered(0..40));
    let (sent, recv) = (net.stats(A), net.stats(B));
    assert!(sent.coalesced_sent > 0, "a burst of tiny frames must pack");
    assert_eq!(recv.coalesced_received, sent.coalesced_sent, "each packed datagram unpacked");
}

#[test]
fn explicit_flush_ships_buffered_frames_without_waiting() {
    let mut net = Net::new(UdpConfig::default());
    for frame in numbered(0..5) {
        net.send(A, frame);
    }
    assert_eq!(net.stats(A).bytes_sent, 0, "nothing leaves before the flush");
    net.flush(A);
    assert_eq!(net.wire[B].len(), 1);
    net.settle();
    assert_eq!(net.frames(B), numbered(0..5));
    assert_eq!(net.stats(A).coalesced_sent, 1, "one packed datagram carries all five");
}

#[test]
fn coalescing_and_plain_peers_interoperate_both_ways() {
    let mut net = Net::new(UdpConfig::default());
    // A sender that flushes after every frame never packs: one frame per
    // datagram, as a link before coalescing sent them.
    for i in 0..30u32 {
        net.send(A, i.to_be_bytes().to_vec());
        net.flush(A);
        net.send(B, (100 + i).to_be_bytes().to_vec());
    }
    net.flush(B);
    net.settle();
    assert_eq!(net.frames(B), numbered(0..30));
    assert_eq!(net.frames(A), numbered(100..130));
    assert_eq!(net.stats(A).coalesced_sent, 0, "a sender flushing every frame never packs");
    assert!(net.stats(B).coalesced_sent > 0, "one flush after thirty frames packs");
}

#[test]
fn listen_only_peer_restart_is_found_by_its_ack() {
    let mut net = Net::new(UdpConfig::default());
    // B only ever listens. Its acks are all A hears from it — and they
    // name its incarnation.
    for frame in byte_frames(0..4) {
        net.send(A, frame);
    }
    net.flush(A);
    net.settle();
    assert_eq!(net.frames(B), byte_frames(0..4));
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(B).frames_sent, 0);
    assert_eq!(net.ends[A].link.remote_incarnation, 1);
    assert_eq!(net.ends[A].link.remote_epoch, 0, "no frame stream from B, ever");

    // B dies; two frames go into the void. B′, the next incarnation,
    // still only listens.
    net.weather[B] = Weather::Cut;
    for frame in byte_frames(4..6) {
        net.send(A, frame);
    }
    net.flush(A);
    net.restart(B);
    net.weather[B] = Weather::Clear;
    // The next frame reaches B′ numbered 7 where it expects 1: held back,
    // and acknowledged at once as the gap it is. That ack is B′'s first
    // word, its incarnation is higher, and A fences in the same turn.
    // What it held follows frames 1–4, which B's previous life
    // acknowledged, so it goes with the old epoch.
    net.send(A, vec![6]);
    net.flush(A);
    net.settle();
    assert!(net.frames(B).is_empty(), "frames of the old stream surfaced");
    assert_eq!(outstanding(&net, A), 0);
    let stats = net.stats(A);
    assert_eq!(stats.peer_restarts, 1);
    assert_eq!((stats.give_ups, stats.retransmits), (0, 0), "the clock never moved");
    assert_eq!(net.ends[A].link.send_epoch, epoch_base(0) + 1);
    // The new epoch reaches B′ from 1.
    for frame in byte_frames(7..9) {
        net.send(A, frame);
    }
    net.flush(A);
    net.settle();
    assert_eq!(net.frames(B), byte_frames(7..9));
    assert_eq!(net.stats(B).frames_sent, 0, "B′ never said anything but acks");
}

#[test]
fn symmetric_traffic_sends_no_standalone_acks() {
    let mut net = Net::new(UdpConfig::default());
    const ROUNDS: u8 = 50;
    for round in 0..ROUNDS {
        net.send(A, vec![b'a', round]);
        net.send(B, vec![b'b', round]);
        net.flush(A);
        net.flush(B);
        net.settle();
    }
    let frames = |tag| (0..ROUNDS).map(|r| Bytes::from(vec![tag, r])).collect::<Vec<_>>();
    assert_eq!(net.frames(A), frames(b'b'));
    assert_eq!(net.frames(B), frames(b'a'));
    for end in [A, B] {
        let stats = net.stats(end);
        assert_eq!(stats.acks_sent, 0, "every ack had a frame to ride on");
        assert_eq!(stats.acks_piggybacked, u64::from(ROUNDS) - 1);
        assert_eq!(stats.retransmits, 0);
        // All but the last frame were acknowledged by the next one coming
        // the other way.
        assert_eq!(outstanding(&net, end), 1);
    }
}

#[test]
fn one_way_traffic_acks_every_second_frame_or_after_the_delay() {
    let cfg = UdpConfig::default();
    let delay = cfg.rto_initial_us / 2;
    let mut net = Net::new(cfg);
    const FRAMES: u64 = 20;
    for i in 0..FRAMES {
        // One frame per datagram, each read before the next leaves.
        net.send(A, vec![i as u8]);
        net.flush(A);
        net.settle();
    }
    assert_eq!(net.stats(B).frames_received, FRAMES);
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(B).acks_sent, FRAMES / 2, "one ack per two datagrams");

    // A lone frame's ack waits for company, but not past the delay —
    // counted from the last poll that did not find it yet.
    let t0 = 1_000;
    net.now_us = t0;
    net.poll(B);
    net.send(A, &b"odd one"[..]);
    net.flush(A);
    net.settle();
    assert_eq!(net.stats(B).frames_received, FRAMES + 1);
    assert_eq!(net.stats(B).acks_sent, FRAMES / 2);
    assert_eq!(net.ends[B].link.next_deadline_us(), Some(t0 + delay));
    net.now_us = t0 + delay - 1;
    net.poll(B);
    assert_eq!(net.stats(B).acks_sent, FRAMES / 2, "not before the delay has passed");
    net.now_us = t0 + delay;
    net.poll(B);
    assert_eq!(net.stats(B).acks_sent, FRAMES / 2 + 1, "and no later");
    assert_eq!(net.ends[B].link.next_deadline_us(), None);
    net.settle();
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(A).retransmits, 0, "the delay is half of the first timeout");

    // An owner that was away for most of the sender's timeout does not
    // add the delay on top: the frame may have been waiting since the
    // last poll, so its ack is overdue already.
    net.send(A, &b"late read"[..]);
    net.flush(A);
    net.now_us += 20_000;
    net.settle();
    assert_eq!(outstanding(&net, A), 0);
    assert_eq!(net.stats(B).acks_sent, FRAMES / 2 + 2);
    assert_eq!(net.stats(A).retransmits, 0);
}

#[test]
fn duplicate_and_gap_are_acknowledged_at_once() {
    let mut net = Net::new(UdpConfig::default());
    let epoch = net.ends[B].link.send_epoch;
    let from_b = |net: &mut Net, seq: u64, frame: &[u8]| {
        net.inject(A, frame_datagram(epoch, (0, 0), seq, frame));
    };
    // Frame 2 before frame 1: held back, and the gap acknowledged in the
    // same turn — a lone frame in order would have waited.
    from_b(&mut net, 2, b"two");
    net.read(A);
    assert!(net.frames(A).is_empty());
    assert_eq!(net.stats(A).acks_sent, 1);
    assert_eq!(net.ends[A].link.holdback.len(), 1);
    // Frame 1 closes the gap: both surface, and the sender hears of it.
    from_b(&mut net, 1, b"one");
    net.read(A);
    assert_eq!(net.frames(A), [Bytes::from_static(b"one"), Bytes::from_static(b"two")]);
    assert_eq!(net.stats(A).acks_sent, 2);
    // A retransmission of something already delivered means the ack was
    // lost: repeat it now.
    from_b(&mut net, 1, b"one");
    net.read(A);
    assert_eq!(net.stats(A).acks_sent, 3);
    // So does a copy of something still held back.
    from_b(&mut net, 4, b"four");
    from_b(&mut net, 4, b"four");
    net.read(A);
    assert_eq!(net.ends[A].link.holdback.len(), 1);
    assert_eq!(net.stats(A).frames_received, 2);
    assert_eq!(net.stats(A).decode_errors, 0);
}

#[test]
fn one_way_burst_never_waits_on_the_ack_timer() {
    let cfg = UdpConfig::default();
    let delay = cfg.rto_initial_us / 2;
    let mut net = Net::new(cfg);
    const BURST: u64 = 2_000;
    for frame in numbered(0..BURST as u32) {
        net.send(A, frame);
    }
    // The clock creeps one microsecond a round: the ack delay never
    // comes, so every window that opens was opened by an ack sent for
    // the frames themselves.
    while net.stats(B).frames_received < BURST && net.now_us < delay {
        net.now_us += 1;
        net.flush(A);
        net.read(A);
        net.read(B);
    }
    assert_eq!(net.stats(B).frames_received, BURST, "stalled at {} µs", net.now_us);
    assert_eq!(net.frames(B), numbered(0..BURST as u32));
    assert_eq!(net.stats(A).retransmits, 0);
    assert!(net.stats(B).acks_sent <= BURST / 2);
}

#[test]
fn a_frame_that_fits_rides_in_one_layer_of_framing() {
    let mut net = Net::new(UdpConfig::default());
    let frame = Bytes::from(vec![0x5a; 40]);
    net.send(A, frame.clone());
    net.flush(A);
    net.settle();
    assert_eq!(net.frames(B), [frame]);
    // kind, two epochs of two one-byte varints, cumulative, seq, the
    // frame, the checksum: 15 bytes around it, no fragment header.
    assert_eq!(net.stats(A).bytes_sent, 1 + 2 + 2 + 1 + 1 + 40 + 8);
    assert_eq!(net.stats(A).fragments_sent, 0);
    assert_eq!(net.stats(B).frames_reassembled, 0);
    assert_eq!(net.ends[B].link.reassembler.partials(), 0);
}

#[test]
fn a_straggler_from_a_dead_incarnation_is_discarded_whole() {
    // The enumerator's first find. A's two frames reach B one at a time;
    // B's first life answers frame 1 with a frame of its own, carrying
    // the ack, and that datagram is slow. B restarts, and B′'s first word
    // — the gap it sees at frame 2 — reaches A before the straggler.
    let mut net = Net::new(UdpConfig::default());
    for frame in byte_frames(0..2) {
        net.send(A, frame);
        net.flush(A);
    }
    net.send(B, &b"from the dead"[..]);
    assert!(net.deliver(B));
    net.poll(B);
    let straggler = net.wire[A].pop_back().expect("B answered");
    net.restart(B);
    net.read(B);
    net.inject(A, straggler);
    net.read(A);
    // A knows B only as B′: the straggler acknowledges and surfaces
    // nothing, so frame 1 is still owed to B′.
    assert_eq!(net.stats(A).decode_errors, 1);
    assert!(net.frames(A).is_empty());
    assert_eq!(net.ends[A].link.unacked.len(), 2);
    // Its retransmission reaches B′, which then takes both, in order.
    run(&mut net, |n| n.frames(B).len() == 2);
    assert_eq!(net.frames(B), byte_frames(0..2));
    assert_eq!(net.stats(A).give_ups, 0);
}
