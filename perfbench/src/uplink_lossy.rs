//! `uplink_lossy`: a single-threaded device path in virtual time, driven
//! call by call.
//!
//! Every tick the device captures one segment, picks an arm with
//! `select_arm_biased` under the uplink's own pressure gauge, compresses,
//! reports the ratio, encodes the block, appends it to the spool (synced
//! in batches) and offers it to the uplink. The uplink is ticked over a
//! `FaultyLink` whose schedule repeats every round: lossy with duplicates,
//! reordering and corruption, then a stall long enough to trip the
//! breaker, then recovery. Sequences the breaker hands back, and records
//! captured while the uplink could not take them, are re-read from the
//! spool's replayer. The receiver side runs `on_frame`, `take_ordered`,
//! `decode_block` and `decompress`. Every released record must arrive
//! once, in capture order, as exactly the bytes that were spooled, and
//! decode to the values that were captured. The spool is ACKed for
//! GC every tick. The link carries one frame per tick, less than the raw
//! capture rate, so only a good ratio keeps up.
//!
//! Spool, uplink, receiver and decode do most of the work here; the
//! sharded engines and the fleet are bypassed.

use crate::pool::{round_seed, Pool, PRECISION};
use crate::trace::Tracer;
use crate::{stats, Measured, Workload};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::selector::{LosslessSelector, SelectorConfig};
use adaedge_core::spooling::{decode_block, encode_block};
use adaedge_core::uplink::{
    BackoffConfig, BreakerConfig, FaultSpec, FaultyLink, LinkCounters, LinkPressure, Phase,
    PressureGauge, Receiver, Transport, Uplink, UplinkConfig,
};
use adaedge_core::FrameConfig;
use adaedge_storage::spool::{ReplayItem, Replayer, Spool, SpoolConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SEG_LEN: usize = 256;
const RAW_BYTES: u64 = SEG_LEN as u64 * 8;
/// Segments per regime block of the pool.
const BLOCK: usize = 16;
const BLOCKS: usize = 32;
/// Records captured per round, one per tick.
const RECORDS: u64 = 600;
/// Round schedule, in ticks from the round's start.
const LOSSY_UNTIL: u64 = 240;
const STALL_UNTIL: u64 = 360;
/// A round that has not drained this many ticks after its start fails.
const MAX_ROUND_TICKS: u64 = 20_000;
/// Appends between batched spool syncs.
const SYNC_EVERY: u64 = 512;
/// Spool segment size: about one rotation and one GC per round.
const SPOOL_SEGMENT_BYTES: u64 = 1 << 20;
/// Delivery latencies kept for the percentiles; later ones are dropped
/// so memory does not grow with run length.
const DELIVER_SAMPLES: usize = 100_000;
const PAYLOAD_CAP: usize = 1200;
const FRAGMENT_OVERHEAD: usize = 12;
/// Mismatching records described in the check output, at most.
const REPORTED_MISMATCHES: usize = 5;

fn lossy_spec() -> FaultSpec {
    FaultSpec {
        drop: 0.05,
        duplicate: 0.05,
        corrupt: 0.03,
        reorder: 0.2,
        jitter_ticks: 4,
        ack_drop: 0.05,
        ack_corrupt: 0.02,
        ack_duplicate: 0.05,
        ..FaultSpec::clean(2)
    }
}

fn uplink_config(seed: u64) -> UplinkConfig {
    UplinkConfig {
        frame: FrameConfig {
            payload_cap: PAYLOAD_CAP,
            fragment_overhead: FRAGMENT_OVERHEAD,
        },
        window: 8,
        deadline_ticks: 24,
        max_retries: 4,
        frames_per_tick: 1,
        accept_limit: 128,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 16,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 3,
            open_ticks: 32,
            probes_to_close: 2,
        },
        seed,
        ..UplinkConfig::default()
    }
}

fn new_selector(seed: u64) -> LosslessSelector {
    LosslessSelector::new(
        CodecRegistry::lossless_candidates(),
        SelectorConfig {
            seed,
            ..SelectorConfig::default()
        },
    )
}

/// One captured record awaiting release at the receiver.
struct Pending {
    pool_idx: usize,
    capture_tick: u64,
    /// The encoded block as spooled; the receiver must release exactly
    /// these bytes.
    encoded: Vec<u8>,
}

pub struct UplinkLossy {
    seed: u64,
    pool: Pool,
    reg: CodecRegistry,
    scratch: CodecScratch,
    seg: Vec<f64>,
    decoded: Vec<f64>,
    selector: LosslessSelector,
    uplink: Uplink,
    gauge: PressureGauge,
    rx: Receiver,
    spool: Spool,
    replayer: Option<Replayer>,
    /// The spool's open segment when `replayer` was built.
    replay_open: Option<PathBuf>,
    /// Virtual clock; runs on across rounds.
    now: u64,
    /// Pool index the next capture reads.
    pos: usize,
    /// Last sequence appended to the spool.
    captured: u64,
    /// Next sequence to offer to the uplink; everything below was offered.
    next_offer: u64,
    /// Last sequence released and verified.
    released: u64,
    /// Captured records not yet released, in sequence order.
    pending: VecDeque<Pending>,
    rounds: u64,
    mismatches: usize,
    /// Decoded values equal to the captured ones but with the other sign
    /// of zero: quantizing codecs decode -0.0 as +0.0.
    zero_sign_flips: u64,
    deliver_ticks: Vec<f64>,
    link_totals: LinkCounters,
    trips: Vec<f64>,
    replayed: Vec<f64>,
}

impl UplinkLossy {
    pub fn setup(seed: u64, dir: &Path) -> Self {
        let spool_dir: PathBuf = dir.join("spool");
        let _ = std::fs::remove_dir_all(&spool_dir);
        let mut spool_cfg = SpoolConfig::new(&spool_dir);
        spool_cfg.segment_max_bytes = SPOOL_SEGMENT_BYTES;
        // Syncs are batched by append count (`SYNC_EVERY`), not by time.
        spool_cfg.sync_interval = Duration::from_secs(3600);
        let spool = Spool::open(spool_cfg).expect("open the spool");
        let uplink = Uplink::new(uplink_config(seed));
        let gauge = uplink.pressure();
        Self {
            seed,
            pool: Pool::alternating(seed, SEG_LEN, BLOCK, BLOCKS),
            reg: CodecRegistry::new(PRECISION),
            scratch: CodecScratch::new(),
            seg: Vec::with_capacity(SEG_LEN),
            decoded: Vec::with_capacity(SEG_LEN),
            selector: new_selector(seed),
            uplink,
            gauge,
            rx: Receiver::new(),
            spool,
            replayer: None,
            replay_open: None,
            now: 0,
            pos: 0,
            captured: 0,
            next_offer: 1,
            released: 0,
            pending: VecDeque::new(),
            rounds: 0,
            mismatches: 0,
            zero_sign_flips: 0,
            deliver_ticks: Vec::new(),
            link_totals: LinkCounters::default(),
            trips: Vec::new(),
            replayed: Vec::new(),
        }
    }

    fn schedule(t0: u64) -> Vec<Phase> {
        vec![
            Phase {
                until_tick: t0 + LOSSY_UNTIL,
                spec: lossy_spec(),
            },
            Phase {
                until_tick: t0 + STALL_UNTIL,
                spec: FaultSpec::stalled(),
            },
            Phase {
                until_tick: u64::MAX,
                spec: FaultSpec::clean(2),
            },
        ]
    }

    /// Capture one segment and carry it through select, compress, report,
    /// encode and spool append; offer it live when nothing older waits.
    /// Returns the encoded size and whether selection ran degraded.
    fn capture(&mut self, tr: &mut Tracer, out: &mut Measured) -> (u64, bool) {
        let now = self.now;
        let seq = self.captured + 1;
        let idx = self.pos;
        self.pos = (self.pos + 1) % self.pool.segs.len();
        let (seg, pool) = (&mut self.seg, &self.pool);
        tr.span("datasets.fill", seq, || {
            seg.clear();
            seg.extend_from_slice(&pool.segs[idx]);
        });
        let level = self.gauge.level();
        let selector = &mut self.selector;
        let (arm, codec) = tr.span("selector.select", seq, || selector.select_arm_biased(level));
        let (reg, scratch, seg) = (&self.reg, &mut self.scratch, &self.seg);
        let block = tr.span("codecs.compress", seq, || {
            reg.compress_into(codec, seg, scratch).map(|b| b.to_block())
        });
        let block = match block {
            Ok(b) => {
                let ratio = b.ratio();
                tr.span("selector.report", seq, || selector.report_ratio(arm, ratio));
                b
            }
            Err(_) => {
                // Contained, as in the engines: the record counts as
                // failed, the arm is penalized and the segment ships Raw.
                out.failed += 1;
                tr.span("selector.report", seq, || selector.record_failure(arm));
                reg.compress_into(CodecId::Raw, seg, scratch)
                    .expect("raw encoding cannot fail")
                    .to_block()
            }
        };
        let bytes = tr.span("spooling.encode_block", seq, || encode_block(&block));
        let spool = &mut self.spool;
        match tr.span("spool.append", seq, || spool.append(now, &bytes)) {
            Ok(s) => out.check(s == seq, || {
                format!("spool assigned seq {s}, expected {seq}")
            }),
            Err(e) => out.check(false, || format!("spool append failed: {e}")),
        }
        self.captured = seq;
        self.pending.push_back(Pending {
            pool_idx: idx,
            capture_tick: now,
            encoded: bytes.clone(),
        });
        if seq.is_multiple_of(SYNC_EVERY) {
            if let Err(e) = tr.span("spool.sync", 0, || spool.sync()) {
                out.check(false, || format!("spool sync failed: {e}"));
            }
        }
        let size = bytes.len() as u64;
        if self.next_offer == seq && self.uplink.can_accept(now) {
            let uplink = &mut self.uplink;
            let ok = tr.span("uplink.offer", seq, || uplink.offer(now, seq, bytes));
            out.check(ok, || format!("live offer of seq {seq} refused"));
            self.next_offer = seq + 1;
        }
        (size, level != LinkPressure::Nominal)
    }

    /// Offer spooled records the uplink has not taken yet, read back
    /// through the spool's replayer. Returns the records offered.
    fn drain_backlog(&mut self, tr: &mut Tracer, out: &mut Measured) -> u64 {
        let now = self.now;
        let mut offered = 0;
        let mut fresh = false;
        // A replayer keeps the path of the segment that was open when it
        // was built; an append that rotates that segment renames the file,
        // and the replayer then reports its records as a gap. Rebuild the
        // replayer after every rotation.
        if self.replayer.is_some() && self.spool.open_segment_path() != self.replay_open {
            self.replayer = None;
        }
        while self.next_offer <= self.captured && self.uplink.can_accept(now) {
            let acked = self.uplink.acked_seq();
            if self.next_offer <= acked {
                // The receiver confirmed these meanwhile; their spool
                // segments may already be collected.
                self.next_offer = acked + 1;
                self.replayer = None;
                continue;
            }
            if self.replayer.is_none() {
                let from = self.next_offer - 1;
                let spool = &mut self.spool;
                match tr.span("spool.replayer", 0, || spool.replayer(from)) {
                    Ok(r) => {
                        self.replayer = Some(r);
                        self.replay_open = self.spool.open_segment_path();
                    }
                    Err(e) => {
                        out.check(false, || format!("spool replayer failed: {e}"));
                        return offered;
                    }
                }
                fresh = true;
            }
            let replayer = self.replayer.as_mut().expect("built above");
            match tr.span("spool.replay", self.next_offer, || replayer.next()) {
                Some(ReplayItem::Record(rec)) => {
                    let seq = rec.seq;
                    out.check(seq == self.next_offer, || {
                        format!("replayer yielded seq {seq}, expected {}", self.next_offer)
                    });
                    let uplink = &mut self.uplink;
                    let ok = tr.span("uplink.offer", seq, || uplink.offer(now, seq, rec.payload));
                    out.check(ok || seq <= self.uplink.acked_seq(), || {
                        format!("replayed offer of seq {seq} refused")
                    });
                    offered += u64::from(ok);
                    self.next_offer = seq + 1;
                }
                Some(ReplayItem::Gap { from_seq, to_seq }) => {
                    out.check(to_seq <= self.uplink.acked_seq(), || {
                        format!("spool lost un-ACKed records {from_seq}..={to_seq}")
                    });
                    self.next_offer = to_seq + 1;
                }
                None => {
                    // The snapshot ends before the newest captures.
                    self.replayer = None;
                    if fresh {
                        break;
                    }
                }
            }
        }
        offered
    }

    /// Check one released record: capture order, exactly once, the bytes
    /// released identical to the bytes spooled, and the decoded values
    /// equal to the captured segment's.
    fn verify(&mut self, seq: u64, bytes: &[u8], tr: &mut Tracer, out: &mut Measured) {
        if seq != self.released + 1 {
            out.failed += 1;
            out.check(false, || {
                format!(
                    "released seq {seq} after {}: not capture order",
                    self.released
                )
            });
            return;
        }
        self.released = seq;
        let Some(p) = self.pending.pop_front() else {
            out.failed += 1;
            out.check(false, || format!("released seq {seq} was never captured"));
            return;
        };
        if self.deliver_ticks.len() < DELIVER_SAMPLES {
            self.deliver_ticks.push((self.now - p.capture_tick) as f64);
        }
        let block = tr.span("spooling.decode_block", seq, || decode_block(bytes));
        let (reg, scratch, decoded) = (&self.reg, &mut self.scratch, &mut self.decoded);
        let result = block.as_ref().map(|b| {
            tr.span("codecs.decompress", seq, || {
                reg.decompress_into(b, scratch, decoded)
            })
        });
        let want = &self.pool.segs[p.pool_idx];
        let (same, flips) = tr.span("verify.compare", seq, || {
            let same = bytes == p.encoded.as_slice()
                && matches!(result, Some(Ok(())))
                && decoded.len() == want.len()
                && decoded.iter().zip(want).all(|(a, b)| a == b);
            let flips = decoded
                .iter()
                .zip(want)
                .filter(|(a, b)| a.to_bits() != b.to_bits() && a == b)
                .count() as u64;
            (same, flips)
        });
        self.zero_sign_flips += flips;
        if !same {
            out.failed += 1;
            self.mismatches += 1;
            if self.mismatches <= REPORTED_MISMATCHES {
                let codec = block.map(|b| b.codec.name());
                out.check(false, || {
                    format!("seq {seq} ({codec:?}) not delivered intact: decode {result:?}")
                });
            }
        }
    }
}

impl Workload for UplinkLossy {
    fn round(&mut self, tr: &mut Tracer, out: &mut Measured) {
        let t0 = self.now;
        self.rounds += 1;
        // Each round is one device session over a fresh link with a fresh
        // selector, both seeded from the workload seed, so a run's median
        // averages over fault patterns and bandit trajectories. Spool,
        // uplink and receiver carry on.
        let mut link =
            FaultyLink::with_schedule(Self::schedule(t0), round_seed(!self.seed, self.rounds));
        self.selector = new_selector(round_seed(self.seed, self.rounds));
        let up0 = self.uplink.counters();
        let rx0 = self.rx.counters();
        let spool0 = self.spool.stats();
        let released0 = self.released;
        let (mut captures, mut degraded, mut encoded, mut replayed) = (0u64, 0u64, 0u64, 0u64);
        let (mut backlog_max, mut depth_max) = (0usize, 0u64);
        let start = Instant::now();
        loop {
            let now = self.now;
            let frames = tr.span("link.poll_frames", 0, || link.poll_frames(now));
            for frame in frames {
                let rx = &mut self.rx;
                if let Some(ack) = tr.span("uplink.rx_on_frame", 0, || rx.on_frame(&frame)) {
                    tr.span("link.send_ack", 0, || link.send_ack(now, ack));
                }
            }
            let rx = &mut self.rx;
            for (seq, bytes) in tr.span("uplink.rx_take_ordered", 0, || rx.take_ordered()) {
                self.verify(seq, &bytes, tr, out);
            }
            let uplink = &mut self.uplink;
            tr.span("uplink.tick", 0, || uplink.tick(now, &mut link));
            if let Some(&first) = self.uplink.take_rewind().iter().min() {
                if first < self.next_offer {
                    self.next_offer = first;
                    self.replayer = None;
                }
            }
            if captures < RECORDS {
                let (size, deg) = self.capture(tr, out);
                captures += 1;
                encoded += size;
                degraded += u64::from(deg);
            }
            replayed += self.drain_backlog(tr, out);
            self.uplink
                .set_external_backlog((self.captured + 1 - self.next_offer) as usize);
            let (spool, acked) = (&mut self.spool, self.uplink.acked_seq());
            if let Err(e) = tr.span("spool.ack", 0, || spool.ack(acked)) {
                out.check(false, || format!("spool ack failed: {e}"));
            }
            backlog_max = backlog_max.max(self.uplink.backlog());
            depth_max = depth_max.max(self.spool.stats().records);
            self.now += 1;
            if captures == RECORDS
                && self.released == self.captured
                && self.uplink.idle()
                && link.is_empty()
            {
                break;
            }
            if self.now - t0 > MAX_ROUND_TICKS {
                let missing = self.captured - self.released;
                out.failed += missing;
                out.check(false, || {
                    format!("round {} left {missing} records undelivered", self.rounds)
                });
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let ticks = self.now - t0;
        let up = self.uplink.counters();
        let rx = self.rx.counters();
        let lc = link.counters();
        out.attempted += RECORDS;
        out.done(RECORDS, secs);
        out.egress
            .push(encoded as f64 / (RECORDS * RAW_BYTES) as f64);
        let goodput = (self.released - released0) * RAW_BYTES;
        out.sample(
            "uplink.goodput_raw_bytes_per_tick",
            goodput as f64 / ticks as f64,
        );
        let frames_sent = up.frames_sent - up0.frames_sent;
        let retries = up.retries - up0.retries;
        out.sample("uplink.retries", retries as f64);
        out.sample(
            "uplink.retry_ratio",
            retries as f64 / frames_sent.max(1) as f64,
        );
        out.sample("uplink.timeouts", (up.timeouts - up0.timeouts) as f64);
        out.sample("uplink.trips", (up.trips - up0.trips) as f64);
        out.sample("uplink.requeues", (up.requeues - up0.requeues) as f64);
        out.sample("uplink.backlog_max", backlog_max as f64);
        out.sample(
            "uplink.rx_duplicate_records",
            (rx.duplicate_records - rx0.duplicate_records) as f64,
        );
        out.sample(
            "uplink.rx_frames_rejected",
            (rx.frames_rejected - rx0.frames_rejected) as f64,
        );
        out.sample(
            "uplink.link_frames_dropped",
            lc.frames_dropped_by_link() as f64,
        );
        out.sample("spool.depth_max_records", depth_max as f64);
        let spool1 = self.spool.stats();
        out.sample(
            "spool.gc_segments",
            (spool1.gc_segments - spool0.gc_segments) as f64,
        );
        out.sample("spool.syncs", (spool1.syncs - spool0.syncs) as f64);
        out.sample("spool.replayed_records", replayed as f64);
        out.sample(
            "selector.degraded_pick_frac",
            degraded as f64 / captures.max(1) as f64,
        );
        self.trips.push((up.trips - up0.trips) as f64);
        self.replayed.push(replayed as f64);
        let t = &mut self.link_totals;
        t.frames_sent += lc.frames_sent;
        t.frames_dropped += lc.frames_dropped;
        t.frames_duplicated += lc.frames_duplicated;
        t.frames_corrupted += lc.frames_corrupted;
        t.frames_reordered += lc.frames_reordered;
        t.acks_sent += lc.acks_sent;
        t.acks_dropped += lc.acks_dropped;
        t.acks_corrupted += lc.acks_corrupted;
        t.acks_duplicated += lc.acks_duplicated;
    }

    fn finish(&mut self, out: &mut Measured) {
        let n = self.deliver_ticks.len();
        for (metric, q) in [
            ("uplink.deliver_ticks_p50", 0.5),
            ("uplink.deliver_ticks_p99", 0.99),
        ] {
            // A single round has too few samples for a p99.
            if let Some(v) = stats::percentile(&self.deliver_ticks, q) {
                out.fixed.insert(metric, v);
            }
        }
        if let (Some(p50), Some(p99)) = (
            out.fixed.get("uplink.deliver_ticks_p50"),
            out.fixed.get("uplink.deliver_ticks_p99"),
        ) {
            out.lines.push(format!(
                "{:<16} p50 {p50} ticks, p99 {p99} ticks over {n} records (capture tick to in-order release)",
                "deliver_ticks"
            ));
        }
        if let Some(goodput) = out
            .samples
            .get("uplink.goodput_raw_bytes_per_tick")
            .and_then(|xs| stats::summarize(xs))
        {
            out.lines.push(format!(
                "{:<16} {:.3} B/tick median of {} rounds; q1 {:.3} q3 {:.3}",
                "goodput", goodput.median, goodput.n, goodput.q1, goodput.q3
            ));
        }
        out.notes.push(format!(
            "{} decoded values equal the captured ones but with the other sign of zero (quantizing codecs decode -0.0 as +0.0)",
            self.zero_sign_flips
        ));
        let lc = self.link_totals;
        out.notes.push(format!(
            "link counters over {} rounds: {lc:?}",
            self.trips.len()
        ));
        out.notes.push(format!(
            "capture {RAW_BYTES} raw B per tick against one {PAYLOAD_CAP}-byte frame per tick; lossy until tick {LOSSY_UNTIL}, stalled until {STALL_UNTIL}, then clean"
        ));
        let min_trips = self.trips.iter().copied().fold(f64::INFINITY, f64::min);
        let min_replayed = self.replayed.iter().copied().fold(f64::INFINITY, f64::min);
        out.notes.push(format!(
            "per round: breaker trips min {min_trips}, spool-replayed records min {min_replayed}"
        ));
        out.check(min_trips >= 1.0 && min_replayed > 0.0, || {
            format!("a round without a breaker trip ({min_trips}) or spool replay ({min_replayed})")
        });
        out.check(
            lc.frames_dropped > 0
                && lc.frames_duplicated > 0
                && lc.frames_corrupted > 0
                && lc.frames_reordered > 0,
            || format!("the lossy phase injected too few faults: {lc:?}"),
        );
        self.deliver_ticks.clear();
        self.zero_sign_flips = 0;
        self.trips.clear();
        self.replayed.clear();
        self.link_totals = LinkCounters::default();
    }
}
