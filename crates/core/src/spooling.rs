//! Store-and-forward wiring between the engines and the durable segment
//! spool (DESIGN.md §6d).
//!
//! During a disconnect the offline pipeline keeps compressing under its
//! storage budget; [`spool_offline_egress`] lands its egress in the
//! [`adaedge_storage::Spool`] as CRC-framed, sequenced records
//! ([`encode_block`]). Nothing here sends anything: every record leaves
//! the device through [`crate::uplink::run_session`], which drains the
//! spool backlog in capture order through the [`crate::uplink::Uplink`]
//! and reports the receiver's cumulative ACK back to the spool, which
//! garbage-collects only fully-ACKed closed segments. On the receiving
//! side the [`IngestLedger`] admits each sequence exactly once and
//! advances past ranges the sender declares lost. Together:
//! at-least-once delivery, exactly-once ingest.

use crate::error::AdaEdgeError;
use crate::offline::OfflineAdaEdge;
use adaedge_codecs::{CodecId, CompressedBlock};
use adaedge_storage::spool::{Spool, SpoolError};
use std::collections::BTreeSet;

/// Errors from the store-and-forward layer: either the durable spool or
/// the compression engine feeding it.
#[derive(Debug)]
pub enum RelayError {
    /// The spool failed (I/O, configuration).
    Spool(SpoolError),
    /// The engine failed while producing egress.
    Engine(AdaEdgeError),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::Spool(e) => write!(f, "relay spool error: {e}"),
            RelayError::Engine(e) => write!(f, "relay engine error: {e}"),
        }
    }
}

impl std::error::Error for RelayError {}

impl From<SpoolError> for RelayError {
    fn from(e: SpoolError) -> Self {
        RelayError::Spool(e)
    }
}

impl From<AdaEdgeError> for RelayError {
    fn from(e: AdaEdgeError) -> Self {
        RelayError::Engine(e)
    }
}

/// Serialize a compressed block into a spool-record payload.
///
/// Format (little-endian): codec-name len `u8` + name bytes, `n_points:
/// u32`, payload len `u32`, payload bytes — the same name-keyed idiom as
/// the persist formats, so the record survives codec-enum reordering.
/// Integrity is the spool frame's CRC-32C; no second checksum here.
pub fn encode_block(block: &CompressedBlock) -> Vec<u8> {
    let name = block.codec.name().as_bytes();
    let mut out = Vec::with_capacity(1 + name.len() + 8 + block.payload.len());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.extend_from_slice(&block.n_points.to_le_bytes());
    out.extend_from_slice(&(block.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&block.payload);
    out
}

/// Deserialize a spool-record payload written by [`encode_block`].
/// Returns `None` on any structural mismatch (defensive: the spool frame
/// CRC already rejects bit rot, so this only fires on logic errors or
/// foreign payloads).
pub fn decode_block(bytes: &[u8]) -> Option<CompressedBlock> {
    let (&name_len, rest) = bytes.split_first()?;
    let name_len = name_len as usize;
    if rest.len() < name_len + 8 {
        return None;
    }
    let (name, rest) = rest.split_at(name_len);
    let codec = CodecId::from_name(std::str::from_utf8(name).ok()?)?;
    let (n_points_bytes, rest) = rest.split_at(4);
    let n_points = u32::from_le_bytes(n_points_bytes.try_into().ok()?);
    let (len_bytes, rest) = rest.split_at(4);
    let payload_len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    if rest.len() != payload_len {
        return None;
    }
    Some(CompressedBlock {
        codec,
        n_points,
        payload: rest.to_vec(),
    })
}

/// Drain the offline pipeline's freshest segments (its reconnection
/// egress plan) into the spool — the "disconnect" leg of store-and-
/// forward — and sync at the ship boundary. Returns `(blocks, encoded
/// payload bytes)` spooled.
pub fn spool_offline_egress(
    edge: &mut OfflineAdaEdge,
    spool: &mut Spool,
    byte_budget: usize,
    timestamp: u64,
) -> Result<(usize, u64), RelayError> {
    let shipped = edge.drain(byte_budget)?;
    let mut bytes = 0u64;
    for (_, block) in &shipped {
        spool.append(timestamp, &encode_block(block))?;
        bytes += block.payload.len() as u64;
    }
    spool.sync()?;
    Ok((shipped.len(), bytes))
}

/// The ingest side's idempotent at-least-once ledger.
///
/// The uplink may deliver a sequence more than once — a retransmit
/// whose first copy landed, or a spool replay after a breaker trip
/// resending everything above the last ACK the sender saw.
/// [`IngestLedger::accept`] admits each sequence exactly once;
/// `acked_seq` is the highest *contiguous* sequence durably ingested,
/// which is what the spool's ACK-gated GC keys on. Known-lost ranges
/// (spool gaps, announced by the sender's frame floor) advance the
/// cursor without counting as ingested.
#[derive(Debug, Clone, Default)]
pub struct IngestLedger {
    acked: u64,
    out_of_order: BTreeSet<u64>,
    accepted: u64,
    duplicates: u64,
    lost: u64,
}

impl IngestLedger {
    /// Fresh ledger (nothing ingested; `acked_seq() == 0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one delivered sequence. Returns `true` when it is new (the
    /// caller should ingest the payload), `false` for a duplicate (drop
    /// it — idempotency). Sequence 0 is never valid.
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq == 0 || seq <= self.acked || self.out_of_order.contains(&seq) {
            self.duplicates += 1;
            return false;
        }
        self.out_of_order.insert(seq);
        self.accepted += 1;
        self.advance();
        true
    }

    /// Record that every sequence up to `to` not yet admitted is
    /// unrecoverable at the source (spool bit rot or retention drop): the
    /// contiguity cursor moves past them so delivery of the surviving
    /// backlog can still be ACKed. Costs O(out-of-order entries drained),
    /// never O(range width); a `to` at or below the cursor does nothing.
    pub fn mark_lost_through(&mut self, to: u64) {
        if to <= self.acked {
            return;
        }
        let above = self.out_of_order.split_off(&(to + 1));
        let admitted = std::mem::replace(&mut self.out_of_order, above).len() as u64;
        self.lost += to - self.acked - admitted;
        self.acked = to;
        self.advance();
    }

    fn advance(&mut self) {
        while self.out_of_order.remove(&(self.acked + 1)) {
            self.acked += 1;
        }
    }

    /// Whether `seq` has already been admitted (contiguously or out of
    /// order). Receivers use this to drop duplicate fragments *before*
    /// spending reassembly work on a record the ledger would refuse.
    pub fn seen(&self, seq: u64) -> bool {
        seq != 0 && (seq <= self.acked || self.out_of_order.contains(&seq))
    }

    /// Highest contiguous sequence ingested (or known lost).
    pub fn acked_seq(&self) -> u64 {
        self.acked
    }

    /// Sequences accepted exactly once.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Duplicate deliveries dropped.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Sequences recorded lost at the source.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Accepted-but-not-yet-contiguous sequences (waiting on a hole).
    pub fn pending_out_of_order(&self) -> usize {
        self.out_of_order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uplink::{
        run_session, Ack, Capture, FaultSpec, FaultyLink, Receiver, SessionReport, Transport,
        Uplink, UplinkConfig, UplinkFrame,
    };
    use adaedge_codecs::CodecRegistry;
    use adaedge_storage::spool::SpoolConfig;
    use std::time::Duration;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adaedge-spooling-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn spool(dir: &std::path::Path) -> Spool {
        let mut c = SpoolConfig::new(dir);
        c.sync_interval = Duration::from_secs(3600);
        c.segment_max_bytes = 4096;
        Spool::open(c).unwrap()
    }

    fn sample_block(i: u64) -> CompressedBlock {
        CompressedBlock {
            codec: CodecId::Raw,
            n_points: 4,
            payload: (0..32u8).map(|b| b.wrapping_add(i as u8)).collect(),
        }
    }

    #[test]
    fn block_roundtrips_through_spool_payload() {
        let block = sample_block(3);
        let bytes = encode_block(&block);
        assert_eq!(decode_block(&bytes).unwrap(), block);
        // Structural damage is rejected, not panicked on.
        assert!(decode_block(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_block(&[]).is_none());
        let mut wrong_name = bytes.clone();
        wrong_name[1] = b'?';
        assert!(decode_block(&wrong_name).is_none());
    }

    #[test]
    fn ledger_dedups_and_tracks_contiguity() {
        let mut ledger = IngestLedger::new();
        assert!(ledger.accept(1));
        assert!(ledger.accept(3));
        assert_eq!(ledger.acked_seq(), 1, "3 waits on the hole at 2");
        assert!(!ledger.accept(3), "duplicate dropped");
        assert!(ledger.accept(2));
        assert_eq!(ledger.acked_seq(), 3);
        assert!(!ledger.accept(1), "already contiguous");
        assert!(!ledger.accept(0), "seq 0 invalid");
        assert_eq!(ledger.accepted(), 3);
        assert_eq!(ledger.duplicates(), 3);
    }

    #[test]
    fn ledger_lost_ranges_advance_cursor_without_counting_ingest() {
        let mut ledger = IngestLedger::new();
        assert!(ledger.accept(1));
        ledger.mark_lost_through(4);
        assert_eq!(ledger.acked_seq(), 4);
        assert_eq!(ledger.lost(), 3);
        assert!(ledger.accept(5));
        assert_eq!(ledger.acked_seq(), 5);
        assert_eq!(ledger.accepted(), 2);
        // A "lost" record that later shows up is a duplicate.
        assert!(!ledger.accept(3));
    }

    #[test]
    fn ledger_mark_lost_through_costs_pending_entries_not_range_width() {
        let mut ledger = IngestLedger::new();
        assert!(ledger.accept(1));
        for seq in [5, 9, 1 << 39] {
            assert!(ledger.accept(seq));
        }
        let start = std::time::Instant::now();
        ledger.mark_lost_through(1 << 40);
        assert!(start.elapsed() < Duration::from_secs(1), "returns at once");
        assert_eq!(ledger.acked_seq(), 1 << 40);
        assert_eq!(
            ledger.lost(),
            (1 << 40) - 1 - 3,
            "exact: admitted sequences inside the range are not lost"
        );
        assert_eq!(ledger.accepted(), 4);
        assert_eq!(ledger.pending_out_of_order(), 0);
        // A bound at or below the cursor changes nothing.
        ledger.mark_lost_through(10);
        assert_eq!(ledger.lost(), (1 << 40) - 4);
        // Admitted sequences right above a range join the cursor.
        assert!(ledger.accept((1 << 40) + 2));
        ledger.mark_lost_through((1 << 40) + 1);
        assert_eq!(ledger.acked_seq(), (1 << 40) + 2);
        assert_eq!(ledger.lost(), (1 << 40) - 3);
    }

    /// A clean link that checks every frame against the default
    /// payload cap (fragment headers included) and counts frames.
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

    /// A session over `spool` and a clean link that captures nothing
    /// and collects what is released. Every frame fits the payload cap,
    /// and the link saw exactly the frames the sender counted (first
    /// sends, retransmits, probes).
    fn drain(
        spool: &mut Spool,
        up: &mut Uplink,
        rx: &mut Receiver,
        max_ticks: u64,
    ) -> (SessionReport, Vec<(u64, Vec<u8>)>) {
        let mut link = CapCheckedLink {
            inner: FaultyLink::new(FaultSpec::clean(1), 0),
            frames: 0,
        };
        let before = up.counters();
        let mut released = Vec::new();
        let report = run_session(
            spool,
            up,
            rx,
            &mut link,
            max_ticks,
            |_| Capture::Done,
            |seq, bytes| released.push((seq, bytes)),
        )
        .unwrap();
        let (u, b) = (&report.uplink, &before);
        assert_eq!(
            link.frames,
            (u.frames_sent - b.frames_sent)
                + (u.retries - b.retries)
                + (u.half_open_probes - b.half_open_probes)
        );
        (report, released)
    }

    fn uplink() -> Uplink {
        Uplink::new(UplinkConfig {
            accept_limit: 16,
            ..UplinkConfig::default()
        })
    }

    #[test]
    fn reconnect_replays_everything_exactly_once_and_gcs() {
        let dir = tmpdir("reconnect");
        let mut sp = spool(&dir);
        for i in 0..200u64 {
            sp.append(i, &encode_block(&sample_block(i))).unwrap();
        }
        sp.sync().unwrap();
        let closed_before = sp.stats().closed_segments;
        let reg = CodecRegistry::new(4);
        let (mut up, mut rx) = (uplink(), Receiver::new());

        // The link drops mid-drain: ACK-gated GC has already trimmed the
        // delivered prefix, and the rest is still on disk.
        let (cut, mut released) = drain(&mut sp, &mut up, &mut rx, 20);
        assert!(!cut.completed);
        let mid = sp.stats();
        assert!(mid.gc_segments > 0, "GC runs during the drain");
        assert!(mid.closed_segments > 0 && mid.closed_segments < closed_before);

        let (report, rest) = drain(&mut sp, &mut up, &mut rx, 10_000);
        assert!(report.completed);
        released.extend(rest);
        assert_eq!(released.len(), 200, "every record exactly once");
        assert_eq!(cut.replayed_records + report.replayed_records, 200);
        for (i, (seq, bytes)) in released.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "capture order");
            let block = decode_block(bytes).expect("decodes");
            assert_eq!(block, sample_block(i as u64), "byte-identical");
            assert!(reg.decompress(&block).is_ok());
        }
        assert_eq!(report.final_acked_seq, 200);
        assert_eq!(report.receiver.duplicate_records, 0);
        assert_eq!(report.receiver.records_lost, 0);
        assert!(report.uplink.frames_sent > 0);
        // Only the open segment's records remain on disk.
        assert_eq!(sp.stats().closed_segments, 0);

        // A second drain from a sender that lost its ACK state resends
        // the open-segment tail; the receiver delivers nothing new.
        let (again, none) = drain(&mut sp, &mut uplink(), &mut rx, 10_000);
        assert!(again.completed);
        assert!(again.replayed_records > 0, "the tail is still on disk");
        assert!(none.is_empty());
        assert_eq!(again.final_acked_seq, 200);
        assert_eq!(again.receiver.records_delivered, 200);
        assert_eq!(again.receiver.records_lost, 0, "GC'd ranges are not loss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconnect_resumes_mid_backlog_idempotently() {
        let dir = tmpdir("resume");
        let mut sp = spool(&dir);
        let (mut up, mut rx) = (uplink(), Receiver::new());
        for i in 0..20u64 {
            sp.append(i, &encode_block(&sample_block(i))).unwrap();
        }
        // First link window: the receiver ingests and ACKs 20 records.
        let (first, _) = drain(&mut sp, &mut up, &mut rx, 10_000);
        assert!(first.completed);
        assert_eq!(up.acked_seq(), 20);
        for i in 20..50u64 {
            sp.append(i, &encode_block(&sample_block(i))).unwrap();
        }
        let (report, released) = drain(&mut sp, &mut up, &mut rx, 10_000);
        assert!(report.completed);
        assert_eq!(report.replayed_records, 30, "only the un-ACKed tail");
        assert_eq!(report.delivered_records, 30);
        assert_eq!(released.first().map(|r| r.0), Some(21));
        assert_eq!(report.receiver.records_delivered, 50);
        std::fs::remove_dir_all(&dir).ok();
    }
}
