//! Tier-1 gate for the store-and-forward subsystem: a fast end-to-end
//! disconnect → crash → reconnect cycle through the `adaedge` facade.
//! The exhaustive fault suites live with their crates
//! (`crates/storage/tests/spool_recovery.rs`,
//! `crates/core/tests/spool_integration.rs`); this test keeps the happy
//! path plus one crash under the root `cargo test` umbrella.

use adaedge::codecs::faultkit;
use adaedge::codecs::CodecRegistry;
use adaedge::core::spooling::{decode_block, spool_offline_egress};
use adaedge::core::uplink::{
    run_session, Ack, Capture, FaultSpec, FaultyLink, Receiver, Transport, Uplink, UplinkConfig,
    UplinkFrame,
};
use adaedge::core::{AggKind, OfflineAdaEdge, OfflineConfig, OptimizationTarget};
use adaedge::datasets::{CbfConfig, CbfStream, SegmentSource};
use adaedge::storage::{Spool, SpoolConfig};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-saf-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A clean link that checks every frame against the default payload
/// cap (fragment headers included) and counts the frames sent.
struct CapCheckedLink {
    inner: FaultyLink,
    frames: u64,
}

impl Transport for CapCheckedLink {
    fn send_frame(&mut self, now: u64, frame: UplinkFrame) {
        let cfg = UplinkConfig::default().frame;
        let used: usize = frame
            .fragments
            .iter()
            .map(|f| cfg.fragment_overhead + f.bytes.len())
            .sum();
        assert!(used <= cfg.payload_cap, "frame over cap: {used}");
        self.frames += 1;
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

#[test]
fn disconnect_crash_reconnect_delivers_every_segment_exactly_once() {
    let dir = tmpdir();
    let mut cfg = SpoolConfig::new(&dir);
    cfg.segment_max_bytes = 8 * 1024;
    cfg.sync_interval = Duration::from_secs(3600);

    // Disconnect: compress 60 segments under the storage budget, draining
    // egress into the durable spool every 10 segments.
    let mut engine_cfg = OfflineConfig::new(1 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    let mut spool = Spool::open(cfg.clone()).expect("spool");
    let mut spooled = 0;
    for tick in 0..60u64 {
        edge.ingest(&stream.next_segment()).expect("ingest");
        if (tick + 1) % 10 == 0 {
            let (blocks, _) =
                spool_offline_egress(&mut edge, &mut spool, usize::MAX, tick).expect("drain");
            spooled += blocks;
        }
    }
    assert_eq!(spooled, 60);
    let durable = spool.stats().durable_seq;
    assert_eq!(durable, 60, "drains sync at ship boundaries");

    // Power cut: tear the open segment's unsynced tail, then recover.
    let path = spool.open_segment_path().expect("open segment");
    let synced = spool.open_segment_synced_bytes();
    let len = spool.open_segment_len();
    drop(spool);
    if len > synced {
        faultkit::file_truncate_at(&path, synced + (len - synced) / 2).expect("tear");
    }
    let mut spool = Spool::open(cfg).expect("crash recovery");
    assert_eq!(
        spool.stats().next_seq - 1,
        60,
        "everything below the durable horizon survives the crash"
    );

    // Reconnect: drain the spool over the uplink, ACK-gated GC, dedup.
    let registry = CodecRegistry::new(4);
    let mut rx = Receiver::new();
    let mut released = Vec::new();
    let mut link = CapCheckedLink {
        inner: FaultyLink::new(FaultSpec::clean(1), 0),
        frames: 0,
    };
    let report = run_session(
        &mut spool,
        &mut Uplink::new(UplinkConfig::default()),
        &mut rx,
        &mut link,
        10_000,
        |_| Capture::Done,
        |seq, bytes| released.push((seq, bytes)),
    )
    .expect("reconnect");

    assert!(report.completed);
    assert_eq!(released.len(), 60, "exactly once");
    for (i, (seq, bytes)) in released.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "capture order");
        let block = decode_block(bytes).expect("decodes");
        registry.decompress(&block).expect("decompresses");
    }
    assert_eq!(report.receiver.duplicate_records, 0);
    assert_eq!(report.receiver.records_lost, 0);
    assert_eq!(report.final_acked_seq, 60);
    assert!(link.frames > 0);
    assert_eq!(report.uplink.retries, 0);
    assert_eq!(link.frames, report.uplink.frames_sent);
    assert_eq!(
        spool.stats().closed_segments,
        0,
        "ACK-gated GC collected the backlog"
    );

    // A second drain from a restarted sender delivers nothing new: the
    // receiver's cursor is the authority.
    let report2 = run_session(
        &mut spool,
        &mut Uplink::new(UplinkConfig::default()),
        &mut rx,
        &mut FaultyLink::new(FaultSpec::clean(1), 0),
        10_000,
        |_| Capture::Done,
        |seq, _| panic!("seq {seq} released twice"),
    )
    .expect("reconnect again");
    assert!(report2.completed);
    assert_eq!(report2.delivered_records, 0);
    assert_eq!(report2.final_acked_seq, 60);
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}
