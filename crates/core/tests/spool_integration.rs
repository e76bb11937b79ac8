//! Store-and-forward integration: the offline engine spools compressed
//! egress through a long disconnect, then `run_session` drains it over
//! the uplink with ACK-gated GC (the 48h-disconnect simulation smoke).
//!
//! Logical time is compressed: one ingested segment per "minute", 48h =
//! 2880 segments, egress drained to the spool every 10 minutes. The
//! reconnect is then driven through its failure modes in order: an
//! interrupted first drain whose ACKs never reach the spool, a spool
//! node crash and recovery at full backlog depth, the real drain with
//! incremental GC, and finally a drain from fully stale ACK state that
//! the receiver must dedup to zero.

use adaedge_codecs::{CodecId, CodecRegistry, CompressedBlock};
use adaedge_core::spooling::{decode_block, encode_block, spool_offline_egress};
use adaedge_core::uplink::{
    run_session, Ack, Capture, FaultSpec, FaultyLink, Receiver, SessionReport, Transport, Uplink,
    UplinkConfig, UplinkFrame,
};
use adaedge_core::{AggKind, OfflineAdaEdge, OfflineConfig, OptimizationTarget};
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource};
use adaedge_storage::spool::{Spool, SpoolConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-spool-int-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn spool_cfg(dir: &Path) -> SpoolConfig {
    let mut cfg = SpoolConfig::new(dir);
    // Durability is driven explicitly (each drain syncs); the timer
    // would add nondeterminism here.
    cfg.sync_interval = Duration::from_secs(3600);
    cfg.segment_max_bytes = 64 * 1024;
    cfg
}

/// Hands frames on to `inner`, checking on the way that each one fits
/// the default payload cap (fragment headers included) and recording
/// which records each frame completes.
struct CapChecked<'a> {
    inner: &'a mut dyn Transport,
    /// Frames sent: first sends, retransmits and probes.
    frames: u64,
    /// Sequences whose last fragment went out, in send order.
    completed: Vec<u64>,
}

impl Transport for CapChecked<'_> {
    fn send_frame(&mut self, now: u64, frame: UplinkFrame) {
        let cfg = UplinkConfig::default().frame;
        let used: usize = frame
            .fragments
            .iter()
            .map(|f| cfg.fragment_overhead + f.bytes.len())
            .sum();
        assert!(
            used <= cfg.payload_cap,
            "frame {} carries {used} bytes, cap {}",
            frame.frame_id,
            cfg.payload_cap
        );
        self.frames += 1;
        let done = frame.fragments.iter().filter(|f| f.last).map(|f| f.seq);
        self.completed.extend(done);
        self.inner.send_frame(now, frame);
    }
    fn send_ack(&mut self, now: u64, ack: Ack) {
        self.inner.send_ack(now, ack);
    }
    fn poll_frames(&mut self, now: u64) -> Vec<UplinkFrame> {
        self.inner.poll_frames(now)
    }
    fn poll_acks(&mut self, now: u64) -> Vec<Ack> {
        self.inner.poll_acks(now)
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Released records as `(seq, payload)`, in release order.
type Released = Vec<(u64, Vec<u8>)>;

/// Drain the spool backlog over `link` (no new captures), returning the
/// report, the released records, each checked to decode end to end, and
/// the sequences whose last fragment was sent. Every frame on the wire
/// is checked against the payload cap and counted against the sender's
/// counters.
fn drain(
    spool: &mut Spool,
    up: &mut Uplink,
    rx: &mut Receiver,
    link: &mut dyn Transport,
    max_ticks: u64,
) -> (SessionReport, Released, Vec<u64>) {
    let registry = CodecRegistry::new(4);
    let mut released = Vec::new();
    let before = up.counters();
    let mut link = CapChecked {
        inner: link,
        frames: 0,
        completed: Vec::new(),
    };
    let report = run_session(
        spool,
        up,
        rx,
        &mut link,
        max_ticks,
        |_| Capture::Done,
        |seq, bytes| {
            let block = decode_block(&bytes).expect("every released record decodes");
            registry.decompress(&block).expect("and decompresses");
            released.push((seq, bytes));
        },
    )
    .expect("session");
    let (u, b) = (&report.uplink, &before);
    assert_eq!(
        link.frames,
        (u.frames_sent - b.frames_sent)
            + (u.retries - b.retries)
            + (u.half_open_probes - b.half_open_probes),
        "every frame on the wire is counted"
    );
    (report, released, link.completed)
}

const MINUTES: u64 = 48 * 60; // 2880 segments, one per logical minute
const DRAIN_EVERY: u64 = 10;

#[test]
fn forty_eight_hour_disconnect_spools_and_replays_exactly_once() {
    let dir = tmpdir("48h");
    let cfg = spool_cfg(&dir);

    // --- Disconnect: 48h of ingest, egress drained into the spool. ---
    let mut engine_cfg = OfflineConfig::new(4 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    let mut spool = Spool::open(cfg.clone()).expect("spool");

    let mut spooled = 0u64;
    for minute in 0..MINUTES {
        edge.ingest(&stream.next_segment()).expect("ingest");
        if (minute + 1) % DRAIN_EVERY == 0 {
            let (blocks, _) =
                spool_offline_egress(&mut edge, &mut spool, usize::MAX, minute).expect("drain");
            assert_eq!(blocks as u64, DRAIN_EVERY, "drain ships the whole backlog");
            spooled += blocks as u64;
        }
    }
    assert_eq!(edge.store().len(), 0, "every segment left the store");
    assert_eq!(spooled, MINUTES);

    let depth = spool.stats();
    assert_eq!(depth.records, MINUTES);
    assert!(depth.closed_segments > 10, "48h must span many segments");
    assert!(
        depth.newest_ts - depth.oldest_ts >= MINUTES - DRAIN_EVERY - 1,
        "spool age gauge covers the disconnect window"
    );
    assert_eq!(depth.durable_seq, MINUTES, "drains sync at ship boundaries");

    // --- Reconnect attempt 1: every ACK is lost on the way back. ---
    // The receiver ingests a prefix in capture order, but the sender
    // never hears an ACK, so the spool is never trimmed.
    let mut rx = Receiver::new();
    let mut dead_acks = FaultyLink::new(
        FaultSpec {
            ack_drop: 1.0,
            ..FaultSpec::clean(1)
        },
        1,
    );
    let (cut, prefix, _) = drain(
        &mut spool,
        &mut Uplink::new(UplinkConfig::default()),
        &mut rx,
        &mut dead_acks,
        400,
    );
    assert!(!cut.completed);
    let ingested = prefix.len() as u64;
    assert!(ingested > 0, "the receiver got a prefix");
    assert!(prefix.iter().zip(1..).all(|((seq, _), want)| *seq == want));
    assert_eq!(
        cut.final_acked_seq, ingested,
        "the cursor covers the prefix"
    );
    assert_eq!(cut.uplink.acks_received, 0);
    assert_eq!(spool.stats().records, MINUTES, "no ACKs, no GC");

    // --- Spool node power-cycles with the full backlog on disk. ---
    drop(spool);
    let mut spool = Spool::open(cfg.clone()).expect("recovery");
    assert_eq!(spool.stats().records, MINUTES, "synced backlog survives");

    // --- Reconnect attempt 2: a rebooted sender drains the backlog over
    // a one-frame-per-tick link, with incremental GC. The receiver's
    // cursor is the resume authority. Neither the spool (it never heard
    // an ACK) nor the rebooted sender knows that cursor until the first
    // ACK names it, so the frames sent before then resend the start of
    // the prefix (under one accept window); from that ACK on, the sender
    // resumes exactly at the cursor.
    let mut up = Uplink::new(UplinkConfig {
        frames_per_tick: 1,
        ..UplinkConfig::default()
    });
    let accept_limit = UplinkConfig::default().accept_limit as u64;
    let (report, rest, sent) = drain(
        &mut spool,
        &mut up,
        &mut rx,
        &mut FaultyLink::new(FaultSpec::clean(1), 0),
        100_000,
    );
    assert!(report.completed);
    assert_eq!(report.delivered_records, MINUTES - ingested);
    assert!(rest
        .iter()
        .zip(ingested + 1..)
        .all(|((seq, _), want)| *seq == want));
    let (resent, fresh): (Vec<u64>, Vec<u64>) = sent.iter().partition(|&&seq| seq <= ingested);
    assert!(
        resent.iter().copied().eq(1..=resent.len() as u64),
        "only the start of the prefix is resent before the first ACK: {resent:?}"
    );
    assert!(
        fresh.iter().copied().eq(ingested + 1..=MINUTES),
        "resumes at the receiver's cursor and sends each record once"
    );
    // Offers before the first ACK: the resent frames plus records still
    // queued when the ACK made them stale.
    let early = report.replayed_records - (MINUTES - ingested);
    assert!(
        resent.len() as u64 <= early && early < accept_limit,
        "{early} records offered before the cursor was known"
    );
    assert_eq!(report.uplink.retries, 0);
    assert_eq!(report.receiver.duplicate_records, 0);
    assert_eq!(report.receiver.records_lost, 0);
    assert_eq!(report.final_acked_seq, MINUTES);
    assert!(
        report.ticks >= report.uplink.frames_sent + report.uplink.retries,
        "link capacity respected"
    );
    let after = spool.stats();
    assert!(after.gc_segments > 0, "GC runs during the drain");
    assert_eq!(
        after.closed_segments, 0,
        "every fully-ACKed closed segment was collected"
    );
    assert!(
        after.records < MINUTES / 10,
        "spool drained down to the open-segment tail"
    );

    // Conservation: every spooled record was released exactly once
    // across both attempts.
    assert_eq!(report.receiver.records_delivered, MINUTES);

    // --- Worst case: total ACK-state loss on the device side. A
    // restarted spool and sender resend whatever still exists; the
    // receiver dedups all of it — at-least-once delivery, exactly-once
    // ingest.
    drop(spool);
    let mut spool = Spool::open(cfg).expect("reopen");
    let (stale, none, _) = drain(
        &mut spool,
        &mut Uplink::new(UplinkConfig::default()),
        &mut rx,
        &mut FaultyLink::new(FaultSpec::clean(1), 0),
        100_000,
    );
    assert!(stale.completed);
    assert!(
        stale.replayed_records > 0,
        "the open-segment tail is resent"
    );
    assert!(none.is_empty(), "nothing re-released");
    assert_eq!(
        stale.receiver.records_delivered, MINUTES,
        "nothing re-ingested"
    );
    assert_eq!(
        stale.receiver.records_lost, 0,
        "GC'd ranges are not data loss"
    );
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

fn raw_block(i: u64) -> Vec<u8> {
    encode_block(&CompressedBlock {
        codec: CodecId::Raw,
        n_points: 12,
        payload: (0..96u8).map(|b| b.wrapping_mul(i as u8 | 1)).collect(),
    })
}

#[test]
fn retention_pressure_surfaces_bounded_disk_loss_in_replay_report() {
    let dir = tmpdir("retention");
    let mut cfg = spool_cfg(&dir);
    cfg.segment_max_bytes = 2048;
    cfg.max_spool_bytes = Some(16 * 1024);
    let mut spool = Spool::open(cfg).expect("spool");

    // A disconnect longer than the disk can hold: 1000 blocks against a
    // 16 KiB cap forces drop-oldest on closed segments.
    let n = 1000u64;
    for i in 0..n {
        spool.append(i, &raw_block(i)).expect("spool block");
    }
    spool.sync().expect("sync");
    let depth = spool.stats();
    assert!(depth.bytes <= 16 * 1024, "byte cap enforced");
    assert!(depth.dropped_segments > 0);
    assert_eq!(
        depth.dropped_unacked_records, depth.dropped_records,
        "nothing was ACKed, so every drop is surfaced as un-ACKed loss"
    );

    // Reconnect: the dropped prefix reaches the receiver as lost, the
    // survivors as releases, and the cursor still reaches the end.
    let mut rx = Receiver::new();
    let (report, released, _) = drain(
        &mut spool,
        &mut Uplink::new(UplinkConfig::default()),
        &mut rx,
        &mut FaultyLink::new(FaultSpec::clean(1), 0),
        100_000,
    );
    assert!(report.completed);
    let lost = report.receiver.records_lost;
    assert!(lost > 0, "retention loss must be visible");
    assert_eq!(lost, depth.dropped_records);
    assert_eq!(
        report.delivered_records + lost,
        n,
        "conservation: every record is either released or accounted lost"
    );
    assert_eq!(released.len() as u64, report.delivered_records);
    assert_eq!(report.receiver.duplicate_records, 0);
    assert_eq!(
        report.final_acked_seq, n,
        "the cursor advances past the loss"
    );
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_gap_releases_survivors_and_counts_the_range_lost() {
    // Live delivery, then a disconnect longer than the disk: retention
    // drops un-ACKed records out of the middle of the sequence. On
    // reconnect the gap must not wedge the consumer: the survivors after
    // it are released in capture order, byte-identical, the range is
    // counted lost, and the ACK cursor reaches the last sequence.
    let dir = tmpdir("retention-gap");
    let mut cfg = spool_cfg(&dir);
    cfg.segment_max_bytes = 2048;
    cfg.max_spool_bytes = Some(16 * 1024);
    let mut spool = Spool::open(cfg).expect("spool");
    let mut up = Uplink::new(UplinkConfig::default());
    let mut rx = Receiver::new();

    let live = 10u64;
    for i in 0..live {
        spool.append(i, &raw_block(i)).expect("append");
    }
    let (first, _, _) = drain(
        &mut spool,
        &mut up,
        &mut rx,
        &mut FaultyLink::new(FaultSpec::clean(1), 0),
        1_000,
    );
    assert!(first.completed);
    assert_eq!(up.acked_seq(), live);

    let n = 600u64;
    for i in live..n {
        spool.append(i, &raw_block(i)).expect("append");
    }
    let depth = spool.stats();
    let lost = depth.dropped_unacked_records;
    assert!(lost > 0, "the disconnect outgrew the disk");

    // Reconnect over a lossy link: retransmits carry the floor too.
    let mut link = FaultyLink::new(FaultSpec::lossy(1, 0.1), 5);
    let (report, released, _) = drain(&mut spool, &mut up, &mut rx, &mut link, 100_000);
    assert!(
        report.completed,
        "the gap must not wedge the drain: {report:?}"
    );
    assert_eq!(
        report.receiver.records_lost, lost,
        "the range is counted lost"
    );
    let first_survivor = live + lost + 1;
    assert_eq!(released.len() as u64, n - first_survivor + 1);
    for (i, (seq, bytes)) in released.iter().enumerate() {
        let want = first_survivor + i as u64;
        assert_eq!(*seq, want, "survivors in capture order");
        assert_eq!(bytes, &raw_block(want - 1), "seq {seq} byte-identical");
    }
    assert_eq!(
        report.final_acked_seq, n,
        "the cursor reaches the last sequence"
    );
    assert_eq!(up.acked_seq(), n);
    assert_eq!(rx.pending_release(), 0);
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spooled_payloads_roundtrip_through_block_codec() {
    // decode(encode(block)) is identity for a real engine-produced block.
    let mut engine_cfg = OfflineConfig::new(1 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    for _ in 0..8 {
        edge.ingest(&stream.next_segment()).expect("ingest");
    }
    let shipped = edge.drain(usize::MAX).expect("drain");
    assert!(!shipped.is_empty());
    for (_, block) in &shipped {
        let bytes = adaedge_core::spooling::encode_block(block);
        assert_eq!(decode_block(&bytes).as_ref(), Some(block));
    }
}
