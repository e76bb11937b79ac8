//! Uplink chaos suite: exactly-once, capture-order delivery under every
//! fault mix the `FaultyLink` can inject.
//!
//! Each scenario spools its records on disk and drains them with
//! `run_session` — the one `Spool → Uplink → Transport → Receiver` path
//! — over a seeded fault-injecting link in virtual time, then checks the
//! strongest property the transport claims: the receiver releases
//! **every captured record exactly once, byte-identical, in capture
//! order** — no matter what the link dropped, duplicated, reordered,
//! corrupted or stalled, on the frame path *or* the ACK path. The
//! blackout tests capture live while the link goes dark: the circuit
//! breaker trips into spool-only store-and-forward mode, capture
//! continues into the spool, and after half-open recovery the same
//! session re-drains the backlog from the spool with zero loss.

use adaedge_codecs::{CodecId, CodecRegistry};
use adaedge_core::spooling::{decode_block, encode_block};
use adaedge_core::uplink::{
    run_session, BackoffConfig, BreakerConfig, BreakerState, Capture, FaultSpec, FaultyLink, Phase,
    Receiver, SessionReport, Uplink, UplinkConfig,
};
use adaedge_core::FrameConfig;
use adaedge_datasets::{SegmentSource, SineStream};
use adaedge_storage::spool::{Spool, SpoolConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-uplink-chaos-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn open_spool(dir: &Path) -> Spool {
    let mut cfg = SpoolConfig::new(dir);
    cfg.sync_interval = Duration::from_secs(3600);
    cfg.segment_max_bytes = 4096;
    Spool::open(cfg).expect("spool")
}

/// Deterministic capture-order records with varied sizes; ~5% are larger
/// than the frame payload cap so retransmits exercise re-fragmentation.
fn records(n: u64, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (1..=n)
        .map(|seq| {
            let len = rng.gen_range(8..=300) + if rng.gen::<f64>() < 0.05 { 1500 } else { 0 };
            let bytes = (0..len)
                .map(|i| (seq as u8).wrapping_mul(31).wrapping_add(i as u8) ^ rng.gen::<u8>())
                .collect();
            (seq, bytes)
        })
        .collect()
}

/// An uplink config hardened for fault mixes where the breaker must NOT
/// trip (the drive helper asserts it stays closed): generous retries, a
/// deadline past the worst-case jittered round trip, a breaker that only
/// trips on a genuinely dead link.
fn chaos_cfg() -> UplinkConfig {
    UplinkConfig {
        // A small radio-profile frame so every run spans many frames —
        // otherwise the packer batches the whole stream into a handful
        // and the fault probabilities barely get to fire.
        frame: FrameConfig {
            payload_cap: 256,
            fragment_overhead: 12,
        },
        window: 8,
        deadline_ticks: 32,
        max_retries: 40,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 16,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 10_000,
            open_ticks: 64,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    }
}

/// Spool `recs` and drain them through a fresh uplink/receiver over
/// `link` with `run_session`, collecting every record the receiver
/// releases so callers can assert byte-identical capture-order delivery.
fn drain(
    recs: &[(u64, Vec<u8>)],
    cfg: UplinkConfig,
    link: &mut FaultyLink,
    max_ticks: u64,
) -> (Vec<(u64, Vec<u8>)>, SessionReport) {
    let dir = tmpdir(&format!("drive-{}", recs.len()));
    let mut spool = open_spool(&dir);
    for (seq, p) in recs {
        assert_eq!(spool.append(0, p).expect("append"), *seq);
    }
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let report = run_session(
        &mut spool,
        &mut Uplink::new(cfg),
        &mut Receiver::new(),
        link,
        max_ticks,
        |_| Capture::Done,
        |seq, bytes| delivered.push((seq, bytes)),
    )
    .expect("session");
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
    (delivered, report)
}

/// [`drain`] over a link that is lossy but never dead.
fn drive(
    recs: &[(u64, Vec<u8>)],
    cfg: UplinkConfig,
    link: &mut FaultyLink,
    max_ticks: u64,
) -> (Vec<(u64, Vec<u8>)>, SessionReport) {
    let (delivered, report) = drain(recs, cfg, link, max_ticks);
    assert_eq!(
        report.uplink.trips, 0,
        "breaker must stay closed in this scenario"
    );
    (delivered, report)
}

/// The exactly-once contract: the delivered sequence IS the capture
/// sequence — same seqs, same order, same bytes.
fn assert_exactly_once(
    recs: &[(u64, Vec<u8>)],
    delivered: &[(u64, Vec<u8>)],
    report: &SessionReport,
) {
    assert_eq!(
        delivered.len(),
        recs.len(),
        "every record exactly once ({} delivered of {})",
        delivered.len(),
        recs.len()
    );
    for ((want_seq, want), (got_seq, got)) in recs.iter().zip(delivered) {
        assert_eq!(want_seq, got_seq, "capture order");
        assert_eq!(want, got, "seq {want_seq} byte-identical");
    }
    assert_eq!(report.receiver.records_delivered, recs.len() as u64);
}

#[test]
fn clean_link_delivers_everything_exactly_once() {
    let recs = records(80, 1);
    let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 5_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert_eq!(report.uplink.retries, 0, "a clean link needs no retries");
    assert_eq!(report.final_acked_seq, 80);
}

#[test]
fn twenty_percent_loss_delivers_exactly_once_in_order() {
    let recs = records(80, 2);
    let mut link = FaultyLink::new(FaultSpec::lossy(2, 0.20), 2);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    let lc = link.counters();
    assert!(lc.frames_dropped > 0, "the loss must actually fire");
    assert!(
        report.uplink.retries > 0,
        "loss must be repaired by retries"
    );
    // Sender-side conservation: every link transmission is accounted for.
    assert_eq!(
        lc.frames_sent,
        report.uplink.frames_sent + report.uplink.retries + report.uplink.half_open_probes
    );
}

#[test]
fn duplicate_heavy_link_is_deduped() {
    let recs = records(60, 3);
    let spec = FaultSpec {
        duplicate: 0.5,
        ack_duplicate: 0.5,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 3);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert!(link.counters().frames_duplicated > 0);
    assert!(
        report.receiver.duplicate_fragments > 0 || report.receiver.duplicate_records > 0,
        "duplicates must reach the dedup path, not vanish"
    );
}

#[test]
fn reorder_heavy_link_releases_in_capture_order() {
    let recs = records(60, 4);
    let spec = FaultSpec {
        reorder: 0.8,
        jitter_ticks: 12,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 4);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert!(link.counters().frames_reordered > 0);
}

#[test]
fn corrupted_frames_are_rejected_and_retried() {
    let recs = records(60, 5);
    let spec = FaultSpec {
        corrupt: 0.3,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 5);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert!(link.counters().frames_corrupted > 0);
    assert_eq!(
        report.receiver.frames_rejected,
        link.counters().frames_corrupted,
        "every corrupted frame is caught by the CRC, none ingested"
    );
}

#[test]
fn ack_path_faults_cause_no_duplicates_or_loss() {
    // Frames arrive fine; the ACKs get mangled. The sender retransmits
    // records the receiver already has — the ledger must absorb all of
    // it without double-release.
    let recs = records(60, 6);
    let spec = FaultSpec {
        ack_drop: 0.4,
        ack_corrupt: 0.2,
        ack_duplicate: 0.3,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 6);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    let lc = link.counters();
    assert!(lc.acks_dropped > 0 && lc.acks_corrupted > 0);
    // A corrupted ACK may also be duplicated, so the sender can reject
    // more copies than the link counted corruption events.
    assert!(report.uplink.acks_rejected >= lc.acks_corrupted);
    assert!(
        report.receiver.duplicate_fragments > 0 || report.receiver.duplicate_records > 0,
        "lost ACKs must force spurious retransmits that the receiver dedups"
    );
}

#[test]
fn combined_fault_mix_survives() {
    let recs = records(80, 7);
    let spec = FaultSpec {
        drop: 0.10,
        duplicate: 0.10,
        corrupt: 0.05,
        reorder: 0.30,
        jitter_ticks: 8,
        ack_drop: 0.15,
        ack_corrupt: 0.05,
        ack_duplicate: 0.10,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 7);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 40_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
}

#[test]
fn phase_schedule_heavy_loss_then_clean_completes() {
    // 40% loss for the first 200 ticks, then a clean link: everything
    // still in flight at the phase boundary finishes promptly.
    let recs = records(80, 8);
    let schedule = vec![
        Phase {
            until_tick: 200,
            spec: FaultSpec::lossy(2, 0.40),
        },
        Phase {
            until_tick: u64::MAX,
            spec: FaultSpec::clean(2),
        },
    ];
    let mut link = FaultyLink::with_schedule(schedule, 8);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 20_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert!(link.counters().frames_dropped > 0);
    assert!(report.uplink.retries > 0);
}

#[test]
fn stall_then_recovery_trips_breaker_and_redelivers_everything() {
    // A total blackout mid-stream: frames time out, the breaker trips,
    // cancelled records are handed back, and `run_session` re-reads
    // them from the spool once the link heals — nothing is lost,
    // nothing doubles.
    let recs = records(40, 9);
    let schedule = vec![
        Phase {
            until_tick: 20,
            spec: FaultSpec::clean(2),
        },
        Phase {
            until_tick: 300,
            spec: FaultSpec::stalled(),
        },
        Phase {
            until_tick: u64::MAX,
            spec: FaultSpec::clean(2),
        },
    ];
    let mut link = FaultyLink::with_schedule(schedule, 9);
    let cfg = UplinkConfig {
        // Small frames + one frame per tick: the stream is still mid-air
        // when the blackout starts, so the stall has frames to kill.
        frame: FrameConfig {
            payload_cap: 256,
            fragment_overhead: 12,
        },
        frames_per_tick: 1,
        deadline_ticks: 12,
        max_retries: 2,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 8,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 2,
            open_ticks: 40,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    };
    let (delivered, report) = drain(&recs, cfg, &mut link, 20_000);
    assert!(report.completed, "recovery must finish: {report:?}");
    assert_exactly_once(&recs, &delivered, &report);
    assert_eq!(report.delivered_records, 40);
    assert_eq!(report.final_acked_seq, 40);
    assert!(
        report.uplink.trips >= 1,
        "the blackout must trip the breaker"
    );
    assert!(
        report.uplink.half_open_probes >= 1,
        "recovery goes through half-open probing"
    );
    assert!(
        report.uplink.cancelled_on_trip > 0,
        "tripping hands in-flight records back for replay"
    );
    assert_eq!(report.receiver.records_delivered, 40);
}

#[test]
fn seeded_fault_sweep_is_exactly_once_everywhere() {
    // Twenty random fault mixes, all derived deterministically from the
    // sweep seed: the exactly-once contract holds for every one.
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let spec = FaultSpec {
            drop: rng.gen::<f64>() * 0.25,
            duplicate: rng.gen::<f64>() * 0.25,
            corrupt: rng.gen::<f64>() * 0.10,
            reorder: rng.gen::<f64>() * 0.50,
            jitter_ticks: rng.gen_range(1..=10),
            ack_drop: rng.gen::<f64>() * 0.30,
            ack_corrupt: rng.gen::<f64>() * 0.10,
            ack_duplicate: rng.gen::<f64>() * 0.25,
            ..FaultSpec::clean(rng.gen_range(1..=4))
        };
        let recs = records(50, seed);
        let mut link = FaultyLink::new(spec, seed);
        let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 60_000);
        assert!(report.completed, "seed {seed} did not drain: {spec:?}");
        assert_exactly_once(&recs, &delivered, &report);
    }
}

#[test]
fn long_soak_smoke_under_sustained_faults() {
    // A longer stream under a sustained moderate fault mix — the seeded
    // soak CI runs in release mode.
    let recs = records(400, 10);
    let spec = FaultSpec {
        drop: 0.10,
        duplicate: 0.10,
        reorder: 0.20,
        jitter_ticks: 6,
        ack_drop: 0.20,
        ..FaultSpec::clean(1)
    };
    let mut link = FaultyLink::new(spec, 10);
    let (delivered, report) = drive(&recs, chaos_cfg(), &mut link, 200_000);
    assert!(report.completed);
    assert_exactly_once(&recs, &delivered, &report);
    assert_eq!(
        link.counters().frames_sent,
        report.uplink.frames_sent + report.uplink.retries + report.uplink.half_open_probes
    );
}

/// The blackout uplink: short deadlines and a hair-trigger breaker, so a
/// stalled link trips it within a few frames.
fn blackout_cfg() -> UplinkConfig {
    UplinkConfig {
        window: 4,
        deadline_ticks: 12,
        max_retries: 1,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 8,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 2,
            open_ticks: 40,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    }
}

/// Clean until `dark_from`, stalled until `dark_until`, then `after`.
fn blackout_link(dark_from: u64, dark_until: u64, after: FaultSpec, seed: u64) -> FaultyLink {
    let schedule = vec![
        Phase {
            until_tick: dark_from,
            spec: FaultSpec::clean(2),
        },
        Phase {
            until_tick: dark_until,
            spec: FaultSpec::stalled(),
        },
        Phase {
            until_tick: u64::MAX,
            spec: after,
        },
    ];
    FaultyLink::with_schedule(schedule, seed)
}

#[test]
fn blackout_trips_to_spool_only_and_recovers_via_reconnect() {
    // The full store-and-forward loop with a real on-disk spool:
    //
    //   capture ──▶ spool (always, durability) ──▶ uplink ──▶ FaultyLink ──▶ receiver
    //
    // A blackout trips the breaker; live sends stop (spool-only mode)
    // while capture continues into the spool. When the link heals the
    // breaker probes half-open, closes, and the same session re-drains
    // the backlog from the spool into the same receiver — every captured
    // record lands exactly once, with ACK-gated GC along the way.
    let dir = tmpdir("blackout");
    let mut spool = open_spool(&dir);
    let mut link = blackout_link(30, 250, FaultSpec::clean(2), 11);
    let mut up = Uplink::new(blackout_cfg());
    let mut rx = Receiver::new();

    let total = 40u64;
    let payload =
        |seq: u64| -> Vec<u8> { (0..160u8).map(|i| i.wrapping_mul(seq as u8 | 1)).collect() };
    // Capture continues at one record per 3 ticks, blackout or not.
    let mut captured = 0u64;
    let report = run_session(
        &mut spool,
        &mut up,
        &mut rx,
        &mut link,
        4_000,
        |now| {
            if captured == total {
                Capture::Done
            } else if now % 3 == 0 {
                captured += 1;
                Capture::Record(payload(captured))
            } else {
                Capture::Idle
            }
        },
        |_, _| {},
    )
    .expect("session");
    assert!(report.completed, "the backlog must drain: {report:?}");
    assert_eq!(report.captured_records, total);
    assert!(
        report.uplink.trips >= 1,
        "the blackout must trip the breaker"
    );
    assert_eq!(
        up.breaker_state(report.ticks),
        BreakerState::Closed,
        "the breaker must close again on a healed link"
    );
    assert!(report.uplink.half_open_probes >= 2);
    assert!(report.uplink.cancelled_on_trip > 0);
    assert!(
        report.replayed_records > 0,
        "the blackout must leave a backlog to re-drain from the spool"
    );
    assert_eq!(report.final_acked_seq, total);
    assert_eq!(report.receiver.records_lost, 0, "zero un-ACKed loss");
    assert_eq!(
        report.receiver.records_delivered, total,
        "exactly-once overall"
    );
    assert_eq!(report.delivered_records, total);
    let depth = spool.stats();
    assert_eq!(depth.acked_seq, total, "the spool heard the final ACK");
    assert_eq!(depth.closed_segments, 0, "ACK-gated GC trimmed the backlog");
    assert!(depth.gc_segments > 0);
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blackout_releases_every_captured_record_in_capture_order() {
    // The consumer's view of a blackout: real compressed segments are
    // captured every tick, the link goes dark and then comes back lossy,
    // and what the receiver *releases* must be every captured record,
    // byte-identical, in capture order, each one decoding back to the
    // segment that was captured. Counting ingests is not enough: a record
    // the ledger admits but nobody releases is lost to the consumer.
    let dir = tmpdir("blackout-release");
    let mut spool = open_spool(&dir);
    let mut link = blackout_link(25, 200, FaultSpec::lossy(2, 0.15), 12);
    let mut up = Uplink::new(UplinkConfig {
        max_retries: 8,
        ..blackout_cfg()
    });
    let mut rx = Receiver::new();
    let registry = CodecRegistry::new(4);
    let codecs = [CodecId::Gorilla, CodecId::Sprintz, CodecId::Snappy];
    let mut stream = SineStream::new(64, 0.1, 4, 12);
    let total = 120usize;
    let mut segments: Vec<Vec<f64>> = Vec::new();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let mut released: Vec<(u64, Vec<u8>)> = Vec::new();
    let report = run_session(
        &mut spool,
        &mut up,
        &mut rx,
        &mut link,
        20_000,
        |_| {
            if segments.len() == total {
                return Capture::Done;
            }
            let seg = stream.next_segment();
            let codec = codecs[segments.len() % codecs.len()];
            let block = registry.get(codec).compress(&seg).expect("compress");
            let bytes = encode_block(&block);
            segments.push(seg);
            encoded.push(bytes.clone());
            Capture::Record(bytes)
        },
        |seq, bytes| released.push((seq, bytes)),
    )
    .expect("session");
    assert!(report.completed, "recovery must finish: {report:?}");
    assert!(
        report.uplink.trips >= 1,
        "the blackout must trip the breaker"
    );
    assert!(
        report.replayed_records > 0,
        "the backlog drains from the spool"
    );
    assert_eq!(released.len(), total, "every captured record is released");
    for (i, (seq, bytes)) in released.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "capture order");
        assert_eq!(bytes, &encoded[i], "seq {seq} byte-identical");
        let block = decode_block(bytes).expect("decodes");
        let values = registry.decompress(&block).expect("decompresses");
        assert_eq!(values, segments[i], "seq {seq} decodes to its segment");
    }
    assert_eq!(report.receiver.records_lost, 0);
    assert_eq!(rx.pending_release(), 0, "nothing admitted but unreleased");
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}
