//! The multithreaded ingest → compress pipeline (§IV-C workflow, §V
//! scalability experiment), sharded per core.
//!
//! The pipeline runs **S independent shards** (S = worker threads) on the
//! `ShardedRuntime`: each shard owns a bounded segment queue, a recycle
//! pool sized by the per-shard pigeonhole bound
//! ([`crate::shard::shard_pool_size`]), and a
//! local [`ReplicaSelector`] that makes every arm decision lock-free from
//! its own copy of the bandit state. Replicas publish per-batch outcome
//! deltas into a [`SharedOutcomeTable`] with plain `fetch_add`s and fold
//! foreign deltas back every [`EngineConfig::sync_interval`] decisions —
//! there is **zero mutex traffic per segment** in the steady state, which
//! the report's `selector_lock_acquisitions` counter proves.
//!
//! The ingestion stage round-robins batches across shard queues (skipping
//! shards whose pool is momentarily empty, so a slow shard cannot stall
//! ingest), and workers **steal** from foreign shard queues when their own
//! runs dry, so a shard pinned on an expensive or quarantined arm cannot
//! idle the others. A stolen batch is decided by the *stealing* worker's
//! replica and its buffers return to the *home* shard's recycle pool.
//!
//! Segments move in batches of [`EngineConfig::batch_segments`] (K): one
//! arm decision held sticky per batch, outcomes accumulated locally and
//! reported through [`ReplicaSelector::report_batch`]. S = 1 reproduces
//! the centralized selector bit for bit (single replica, same seed, no
//! foreign deltas), and K = 1 on top of that reproduces per-segment
//! scheduling exactly — the bandit-exact mode the equivalence tests pin.

use crate::error::Result;
use crate::offline::{has_room, recode_order, required_mean_ratio, RECODE_FACTOR};
use crate::selector::{ArmOutcome, SelectorConfig};
use crate::shard::{
    join_all, lock, wait_timeout, Batch, Producer, ReplicaSelector, ShardedRuntime,
    SharedOutcomeTable, Worker,
};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch, CompressedBlockRef};
use adaedge_datasets::SegmentSource;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of compression worker threads — one pipeline shard each.
    /// `0` means one per core (`std::thread::available_parallelism`).
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments, split evenly across the
    /// shard queues; ingestion that finds a shard's queue full counts a
    /// spill.
    pub buffer_segments: usize,
    /// Lossless candidate arms, replicated into every shard's selector.
    pub lossless_arms: Vec<CodecId>,
    /// MAB hyper-parameters (each shard's replica derives its RNG stream
    /// from `selector.seed` and its shard id; shard 0 uses the seed
    /// unchanged).
    pub selector: SelectorConfig,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Segments per scheduling batch (K). Workers pull K segments per
    /// queue op, keep the selected arm sticky across the batch, and
    /// report the K accumulated rewards in one replica update. `1`
    /// (the default) is the bandit-exact mode: selection, reward order and
    /// queue traffic are identical to per-segment scheduling.
    pub batch_segments: usize,
    /// Arm decisions between delta-sync folds: how often each shard's
    /// replica pulls the other shards' published outcomes into its local
    /// estimates. Lower = fresher cross-shard state, more fold work;
    /// `1` folds after every decision. With a single shard the value is
    /// irrelevant (there are never foreign deltas).
    pub sync_interval: usize,
    /// Deterministic fault injection for containment tests: every compress
    /// call for this codec panics inside the workers (see
    /// [`CodecRegistry::inject_compress_panic`]). Production configurations
    /// leave this `None`.
    pub fault_injection: Option<CodecId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n_compression_threads: 1,
            buffer_segments: 64,
            lossless_arms: CodecRegistry::lossless_candidates(),
            selector: SelectorConfig::default(),
            precision: 4,
            batch_segments: 1,
            sync_interval: DEFAULT_SYNC_INTERVAL,
            fault_injection: None,
        }
    }
}

/// Default decisions-between-folds: frequent enough that quarantine and
/// posterior drift propagate within a few hundred segments at typical K,
/// rare enough that the O(arms) fold stays invisible in profiles.
pub const DEFAULT_SYNC_INTERVAL: usize = 32;

/// The ingestion stage both engines run on the calling thread: refill a
/// recycled buffer set from the least-backlogged pool the round-robin
/// sweep over the `shards` pools finds and dispatch it on its home shard.
fn ingest(
    producer: &mut Producer<'_, ()>,
    shards: usize,
    source: &mut dyn SegmentSource,
    n_segments: usize,
    k: usize,
) {
    let mut next = 0usize;
    let mut remaining = n_segments;
    while remaining > 0 {
        let Some((home, mut segs)) = producer.acquire(next, k.min(remaining)) else {
            break;
        };
        next = (home + 1) % shards;
        for seg in segs.iter_mut() {
            source.next_segment_into(seg);
        }
        remaining -= segs.len();
        if !producer.dispatch(Batch {
            home,
            segs,
            meta: (),
        }) {
            break;
        }
    }
}

/// Compress one segment with `codec`, containing codec errors and panics
/// by degrading the segment to Raw (which rebuilds its output from
/// scratch, so an arena a panic left mid-write is harmless). Returns the
/// arm's outcome and, unless Raw failed too, the codec used and `keep` of
/// its block.
pub(crate) fn compress_contained<R>(
    reg: &CodecRegistry,
    codec: CodecId,
    data: &[f64],
    scratch: &mut CodecScratch,
    keep: impl Fn(CompressedBlockRef<'_>) -> R,
) -> (ArmOutcome, Option<(CodecId, R)>) {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        reg.compress_into(codec, data, scratch)
            .map(|b| (b.ratio(), keep(b)))
    }));
    match attempt {
        Ok(Ok((ratio, kept))) => (ArmOutcome::Ratio(ratio), Some((codec, kept))),
        _ => {
            let raw = reg.compress_into(CodecId::Raw, data, scratch);
            (
                ArmOutcome::Failure,
                raw.ok().map(|b| (CodecId::Raw, keep(b))),
            )
        }
    }
}

/// Aggregate pipeline results.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Segments compressed.
    pub segments: u64,
    /// Data points processed.
    pub points: u64,
    /// Raw bytes in.
    pub bytes_in: u64,
    /// Compressed bytes out.
    pub bytes_out: u64,
    /// Wall-clock runtime.
    pub elapsed_seconds: f64,
    /// Achieved throughput in points per second.
    pub points_per_sec: f64,
    /// Times the ingestion stage found a shard queue full.
    pub spills: u64,
    /// How often each codec was selected.
    pub codec_counts: HashMap<CodecId, u64>,
    /// Contained codec failures (errors or panics caught inside workers).
    /// Each failed segment was degraded to Raw rather than lost.
    pub codec_failures: u64,
    /// Arms quarantined (on any shard) after repeated consecutive
    /// failures; verdicts propagate to every shard at its next sync.
    pub quarantined: Vec<CodecId>,
    /// Pipeline shards (= worker threads) the run used.
    pub shards: usize,
    /// Batches a worker took from a foreign shard's queue.
    pub stolen_batches: u64,
    /// Delta-sync folds performed across all shard replicas.
    pub selector_syncs: u64,
    /// Mutex acquisitions on the per-segment selector hot path. The
    /// sharded engine has none — this is the lock-freedom proof the
    /// shard-equivalence suite asserts stays 0.
    pub selector_lock_acquisitions: u64,
}

/// Run `n_segments` from `source` through the sharded pipeline and report
/// aggregate throughput.
///
/// Codec errors and panics are contained per segment (the segment is
/// stored Raw and the arm penalized); `Err(AdaEdgeError::WorkerFailed)`
/// is returned only if a worker thread dies outside that contained
/// region.
pub fn run_pipeline(
    source: &mut dyn SegmentSource,
    n_segments: usize,
    config: &EngineConfig,
) -> Result<EngineReport> {
    let mut reg = CodecRegistry::new(config.precision);
    if let Some(id) = config.fault_injection {
        reg.inject_compress_panic(id);
    }
    let reg = reg;
    let k = config.batch_segments.max(1);
    let sync_interval = config.sync_interval.max(1);
    let rt = ShardedRuntime::new(config.n_compression_threads, config.buffer_segments, k);
    let table = SharedOutcomeTable::new(config.lossless_arms.len());
    let bytes_out = AtomicU64::new(0);
    let segment_len = source.segment_len();
    let segment_points = segment_len as u64;

    let start = Instant::now();
    let work = |w: &mut Worker<'_, ()>| {
        let mut replica = ReplicaSelector::new(
            config.lossless_arms.clone(),
            config.selector,
            w.shard(),
            &table,
            sync_interval,
        );
        let mut scratch = CodecScratch::new();
        let mut local_counts: HashMap<CodecId, u64> = HashMap::new();
        let mut outcomes: Vec<ArmOutcome> = Vec::with_capacity(k);
        while let Some(batch) = w.next_batch() {
            // One lock-free decision per batch, arm held sticky; outcomes
            // accumulate locally and publish as one atomic delta.
            let (arm, codec) = replica.select_arm();
            outcomes.clear();
            for data in &batch.segs {
                let (outcome, kept) =
                    compress_contained(&reg, codec, data, &mut scratch, |b| b.compressed_bytes());
                outcomes.push(outcome);
                if let Some((used, bytes)) = kept {
                    bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
                    *local_counts.entry(used).or_insert(0) += 1;
                }
            }
            replica.report_batch(arm, &outcomes);
            w.recycle(batch.home, batch.segs);
        }
        // Final fold so the replica's view is complete at exit.
        replica.sync();
        local_counts
    };
    let (locals, ()) = rt.run(segment_len, "compression worker", work, |p| {
        ingest(p, rt.shards(), source, n_segments, k)
    })?;
    let mut codec_counts: HashMap<CodecId, u64> = HashMap::new();
    for (codec, count) in locals.into_iter().flatten() {
        *codec_counts.entry(codec).or_insert(0) += count;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let points = n_segments as u64 * segment_points;
    Ok(EngineReport {
        segments: n_segments as u64,
        points,
        bytes_in: points * 8,
        bytes_out: bytes_out.load(Ordering::Relaxed),
        elapsed_seconds: elapsed,
        points_per_sec: points as f64 / elapsed.max(1e-9),
        spills: rt.spills(),
        codec_counts,
        codec_failures: table.failure_total(),
        quarantined: table.quarantined_arms(&config.lossless_arms),
        shards: rt.shards(),
        stolen_batches: rt.stolen_batches(),
        selector_syncs: table.syncs(),
        selector_lock_acquisitions: table.selector_locks(),
    })
}

/// Offline-mode engine configuration: the paper's thread layout
/// (ingestion, compression, recoding, evaluation; reward evaluation runs
/// inside the recoding step here), sharded like [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct OfflineEngineConfig {
    /// Compression worker threads — one pipeline shard each; `0` means one
    /// per core.
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments, split across shards.
    pub buffer_segments: usize,
    /// Hard storage budget in bytes.
    pub storage_budget_bytes: usize,
    /// Recoding trigger fraction (paper: 0.8).
    pub recode_threshold: f64,
    /// Lossless candidate arms.
    pub lossless_arms: Vec<CodecId>,
    /// Lossy candidate arms.
    pub lossy_arms: Vec<CodecId>,
    /// MAB hyper-parameters.
    pub selector: SelectorConfig,
    /// Workload target for the recoding MABs.
    pub target: crate::targets::OptimizationTarget,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Segments per scheduling batch (K), as in
    /// [`EngineConfig::batch_segments`]. Also bounds how many recode
    /// victims the recoding thread drains per pass.
    pub batch_segments: usize,
    /// Arm decisions between delta-sync folds, as in
    /// [`EngineConfig::sync_interval`].
    pub sync_interval: usize,
}

impl OfflineEngineConfig {
    /// Defaults for a given budget and target.
    pub fn new(storage_budget_bytes: usize, target: crate::targets::OptimizationTarget) -> Self {
        Self {
            n_compression_threads: 1,
            buffer_segments: 64,
            storage_budget_bytes,
            recode_threshold: 0.8,
            lossless_arms: CodecRegistry::lossless_candidates(),
            lossy_arms: CodecRegistry::lossy_candidates(),
            selector: SelectorConfig::offline(),
            target,
            precision: 4,
            batch_segments: 1,
            sync_interval: DEFAULT_SYNC_INTERVAL,
        }
    }
}

/// Results of an offline engine run.
#[derive(Debug, Clone)]
pub struct OfflineEngineReport {
    /// Segments stored.
    pub segments: u64,
    /// Data points ingested.
    pub points: u64,
    /// Final stored bytes.
    pub stored_bytes: usize,
    /// Final utilization of the budget.
    pub utilization: f64,
    /// Total recoding passes performed by the recoding thread.
    pub recodes: u64,
    /// Segments dropped because the budget could not be met in time.
    pub drops: u64,
    /// Wall-clock runtime.
    pub elapsed_seconds: f64,
    /// Achieved throughput in points/s.
    pub points_per_sec: f64,
    /// Contained codec failures (errors or panics caught inside workers).
    pub codec_failures: u64,
    /// Lossless arms quarantined (on any shard) after repeated failures.
    pub quarantined: Vec<CodecId>,
    /// Pipeline shards (= worker threads) the run used.
    pub shards: usize,
    /// Batches a worker took from a foreign shard's queue.
    pub stolen_batches: u64,
    /// Delta-sync folds performed across all shard replicas.
    pub selector_syncs: u64,
    /// Mutex acquisitions on the per-segment selector hot path (0: the
    /// lossless replicas are lock-free and the recoding thread *owns* its
    /// banded lossy selector outright).
    pub selector_lock_acquisitions: u64,
}

/// Run the multithreaded offline pipeline: ingestion (caller thread) →
/// sharded queues → compression workers → shared budgeted store, with a
/// dedicated recoding thread draining space via the banded lossy MAB it
/// owns outright (no selector mutex anywhere).
///
/// Codec failures are contained per segment exactly as in
/// [`run_pipeline`]; `Err(AdaEdgeError::WorkerFailed)` means a worker or
/// the recoding thread died outside the contained region.
pub fn run_offline_pipeline(
    source: &mut dyn SegmentSource,
    n_segments: usize,
    config: &OfflineEngineConfig,
) -> Result<OfflineEngineReport> {
    use crate::selector::BandedLossySelector;
    use crate::targets::RewardEvaluator;
    use adaedge_storage::SegmentStore;

    let reg = CodecRegistry::new(config.precision);
    let store = Mutex::new(SegmentStore::with_budget(config.storage_budget_bytes));
    let evaluator = RewardEvaluator::new(config.target.clone(), None, 0);
    // The recoding thread is the banded lossy selector's only user, so it
    // owns the selector outright — no mutex, no contention.
    let mut lossy = BandedLossySelector::new(config.lossy_arms.clone(), config.selector, evaluator);
    let workers_done = std::sync::atomic::AtomicBool::new(false);
    // Signals any change to the store's occupancy: workers wake the recoder
    // after a put, the recoder wakes blocked workers after freeing space, and
    // the ingestion thread wakes everyone at shutdown. Waits pair with the
    // store mutex; short timeouts guard the flag-set/notify window.
    let store_cv = Condvar::new();
    // Bytes of the puts currently blocked on a full store. The recoder
    // counts them as occupancy (the room rule, `offline::has_room`), so
    // a block larger than (1−θ)·budget still gets room made for it.
    // Updated and read under the store lock.
    let pending = AtomicUsize::new(0);
    let recodes = AtomicU64::new(0);
    let drops = AtomicU64::new(0);
    let k = config.batch_segments.max(1);
    let sync_interval = config.sync_interval.max(1);
    let rt = ShardedRuntime::new(config.n_compression_threads, config.buffer_segments, k);
    let table = SharedOutcomeTable::new(config.lossless_arms.len());
    let segment_len = source.segment_len();
    let segment_points = segment_len as u64;
    let threshold = config.recode_threshold;

    let start = Instant::now();
    std::thread::scope(|scope| -> Result<()> {
        // Recoding thread: frees space whenever occupancy plus the pending
        // puts cross θ·budget. Victims are drained in batches of up to K
        // per pass: one store lock to snapshot them, recodes through the
        // thread-owned selector, one store lock to commit the winners.
        let recoder = {
            let store = &store;
            let reg = &reg;
            let workers_done = &workers_done;
            let recodes = &recodes;
            let store_cv = &store_cv;
            let pending = &pending;
            scope.spawn(move || loop {
                // Sleep until occupancy plus pending puts crosses θ·budget or
                // the pipeline drains; puts notify the condvar, so no
                // busy-wait.
                {
                    let mut guard = lock(store);
                    while has_room(&guard, pending.load(Ordering::Relaxed), threshold) {
                        if workers_done.load(Ordering::Acquire) {
                            return;
                        }
                        guard = wait_timeout(store_cv, guard, Duration::from_millis(50));
                    }
                }
                // Snapshot up to K victims under one lock; recode outside.
                let victims = {
                    let guard = lock(store);
                    let r_req = required_mean_ratio(&guard, threshold);
                    let (order, above) = recode_order(&guard, r_req, k);
                    // Up to K victims still above the required ratio; when
                    // none is, the best-effort fallback alone, as the
                    // per-segment scheduler did.
                    let take = if above == 0 { 1 } else { above };
                    order
                        .into_iter()
                        .take(take)
                        .map(|id| {
                            let seg = guard.peek(id).expect("victims are stored");
                            let block = seg.block().expect("victims are compressed").clone();
                            // Halve outright instead of flooring at r_req as
                            // OfflineAdaEdge does: a floored target frees less
                            // per recode, so getting under θ takes more passes,
                            // each a full recode plus two store locks while
                            // workers wait to put. On the offline benchmark
                            // that cost about 14% of records/s at the same
                            // egress ratio.
                            (id, block, seg.ratio() * RECODE_FACTOR)
                        })
                        .collect::<Vec<_>>()
                };
                if victims.is_empty() {
                    // Nothing recodable yet; wait for the store to change.
                    drop(wait_timeout(
                        store_cv,
                        lock(store),
                        Duration::from_millis(5),
                    ));
                    continue;
                }
                // The selector is thread-owned: recodes report their
                // rewards directly, no lock to acquire or batch around.
                let results: Vec<_> = victims
                    .iter()
                    .map(|(_, block, target_ratio)| lossy.recode(reg, block, None, *target_ratio))
                    .collect();
                let mut committed = false;
                {
                    let mut guard = lock(store);
                    for ((id, block, _), result) in victims.iter().zip(results) {
                        let old_bytes = block.compressed_bytes();
                        let Ok(sel) = result else { continue };
                        if sel.block.compressed_bytes() >= old_bytes {
                            continue;
                        }
                        // The segment may have been touched meanwhile; only
                        // commit if it still holds the block we recoded.
                        let unchanged = guard
                            .peek(*id)
                            .and_then(|s| s.block())
                            .map(|b| b.compressed_bytes() == old_bytes)
                            .unwrap_or(false);
                        if unchanged && guard.replace(*id, sel.block).is_ok() {
                            recodes.fetch_add(1, Ordering::Relaxed);
                            committed = true;
                        }
                    }
                }
                if committed {
                    // Space was freed; wake any worker blocked on put.
                    store_cv.notify_all();
                } else {
                    // No victim made progress this pass; back off briefly
                    // instead of spinning.
                    drop(wait_timeout(
                        store_cv,
                        lock(store),
                        Duration::from_millis(1),
                    ));
                }
            })
        };

        // Compression workers, one shard each.
        let work = |w: &mut Worker<'_, ()>| {
            let mut replica = ReplicaSelector::new(
                config.lossless_arms.clone(),
                config.selector,
                w.shard(),
                &table,
                sync_interval,
            );
            let mut scratch = CodecScratch::new();
            let mut outcomes: Vec<ArmOutcome> = Vec::with_capacity(k);
            let mut blocks = Vec::with_capacity(k);
            while let Some(batch) = w.next_batch() {
                // One lock-free decision per batch (arm held sticky), one
                // replica report, then the store puts.
                let (arm, codec) = replica.select_arm();
                outcomes.clear();
                blocks.clear();
                for data in &batch.segs {
                    // The store takes ownership, so the scratch-backed
                    // block is materialized once.
                    let (outcome, kept) =
                        compress_contained(&reg, codec, data, &mut scratch, |b| b.to_block());
                    outcomes.push(outcome);
                    match kept {
                        Some((_, block)) => blocks.push(block),
                        None => {
                            drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                replica.report_batch(arm, &outcomes);
                w.recycle(batch.home, batch.segs);
                for block in blocks.drain(..) {
                    // Wait (bounded) for the recoder to clear space,
                    // sleeping on the condvar between attempts instead of
                    // spinning.
                    let mut stored = false;
                    let deadline = Instant::now() + Duration::from_secs(2);
                    let bytes = block.compressed_bytes();
                    let mut published = false;
                    {
                        let mut guard = lock(&store);
                        loop {
                            if guard.put_compressed(block.clone()).is_ok() {
                                stored = true;
                                break;
                            }
                            if Instant::now() >= deadline {
                                break;
                            }
                            if !published {
                                // Publish the room this put needs, so the
                                // recoder works even while occupancy sits
                                // at or below θ·budget; it may be asleep
                                // then, so wake it (above θ it already
                                // works, and a wake would only stir the
                                // other blocked workers).
                                pending.fetch_add(bytes, Ordering::Relaxed);
                                published = true;
                                if has_room(&guard, 0, threshold) {
                                    store_cv.notify_all();
                                }
                            }
                            guard = wait_timeout(&store_cv, guard, Duration::from_millis(10));
                        }
                        if published {
                            pending.fetch_sub(bytes, Ordering::Relaxed);
                        }
                    }
                    if stored {
                        // The store grew; the recoder may now be over θ.
                        store_cv.notify_all();
                    } else {
                        drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            replica.sync();
        };
        let workers = rt.run(segment_len, "compression worker", work, |p| {
            ingest(p, rt.shards(), source, n_segments, k)
        });
        // The recoder exits once it sees the flag; join it before deciding
        // the outcome so the scope never exits with an unjoined thread.
        workers_done.store(true, Ordering::Release);
        store_cv.notify_all();
        let recoder = join_all(vec![recoder], "recoding thread");
        workers?;
        recoder?;
        Ok(())
    })?;

    let elapsed = start.elapsed().as_secs_f64();
    let guard = lock(&store);
    let points = n_segments as u64 * segment_points;
    Ok(OfflineEngineReport {
        segments: guard.len() as u64,
        points,
        stored_bytes: guard.used_bytes(),
        utilization: guard.utilization(),
        recodes: recodes.load(Ordering::Relaxed),
        drops: drops.load(Ordering::Relaxed),
        elapsed_seconds: elapsed,
        points_per_sec: points as f64 / elapsed.max(1e-9),
        codec_failures: table.failure_total(),
        quarantined: table.quarantined_arms(&config.lossless_arms),
        shards: rt.shards(),
        stolen_batches: rt.stolen_batches(),
        selector_syncs: table.syncs(),
        selector_lock_acquisitions: table.selector_locks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_datasets::SineStream;

    fn run(threads: usize, segments: usize) -> EngineReport {
        let mut source = SineStream::new(1000, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: threads,
            ..Default::default()
        };
        run_pipeline(&mut source, segments, &config).expect("pipeline")
    }

    #[test]
    fn processes_all_segments() {
        let report = run(2, 50);
        assert_eq!(report.segments, 50);
        assert_eq!(report.points, 50_000);
        assert_eq!(report.bytes_in, 400_000);
        assert!(report.bytes_out > 0);
        assert!(report.bytes_out < report.bytes_in);
        let total: u64 = report.codec_counts.values().sum();
        assert_eq!(total, 50);
        assert_eq!(report.codec_failures, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.shards, 2);
        assert_eq!(report.selector_lock_acquisitions, 0);
    }

    #[test]
    fn injected_codec_panic_is_contained() {
        let mut source = SineStream::new(1000, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: 2,
            lossless_arms: vec![CodecId::Gzip, CodecId::Snappy],
            fault_injection: Some(CodecId::Gzip),
            ..Default::default()
        };
        let report = run_pipeline(&mut source, 60, &config).expect("faulty arm must be contained");
        // Every segment still lands somewhere: the healthy arm or Raw.
        let total: u64 = report.codec_counts.values().sum();
        assert_eq!(total, 60);
        assert_eq!(report.codec_counts.get(&CodecId::Gzip), None);
        // The failures were observed, routed to Raw, and the arm ended up
        // quarantined on at least one shard (optimistic init keeps
        // re-picking it until then); the verdict lands in the report via
        // the shared table.
        assert!(report.codec_failures >= 3, "{}", report.codec_failures);
        assert_eq!(
            report.codec_counts.get(&CodecId::Raw).copied().unwrap_or(0),
            report.codec_failures
        );
        assert_eq!(report.quarantined, vec![CodecId::Gzip]);
    }

    #[test]
    fn throughput_is_positive_and_reported() {
        let report = run(1, 20);
        assert!(report.points_per_sec > 0.0);
        assert!(report.elapsed_seconds > 0.0);
        assert_eq!(report.shards, 1);
        // A single shard can never steal from itself.
        assert_eq!(report.stolen_batches, 0);
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let mut source = SineStream::new(500, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: 0,
            ..Default::default()
        };
        let report = run_pipeline(&mut source, 10, &config).expect("pipeline");
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(report.shards, cores);
        assert_eq!(report.segments, 10);
    }

    #[test]
    fn offline_engine_bounds_space_under_pressure() {
        use crate::query::AggKind;
        use crate::targets::OptimizationTarget;
        let mut source = SineStream::new(1000, 0.3, 4, 3);
        let config = OfflineEngineConfig {
            storage_budget_bytes: 60_000,
            ..OfflineEngineConfig::new(60_000, OptimizationTarget::agg(AggKind::Sum))
        };
        let report = run_offline_pipeline(&mut source, 100, &config).expect("pipeline");
        assert_eq!(report.segments + report.drops, 100);
        assert!(report.drops <= 2, "drops {}", report.drops);
        assert!(report.utilization <= 1.0 + 1e-9);
        assert!(report.recodes > 0, "recoder never ran");
        assert!(report.stored_bytes <= 60_000);
        assert_eq!(report.selector_lock_acquisitions, 0);
    }

    #[test]
    fn offline_engine_makes_room_for_blocks_larger_than_the_headroom() {
        use crate::query::AggKind;
        use crate::targets::OptimizationTarget;
        // Lossless blocks of these noisy segments are larger than
        // (1−θ)·budget = 4 000 B, so a put can fail while occupancy is
        // still at or below θ·budget: the recoder must wake on the
        // blocked put, not on occupancy alone.
        let mut source = SineStream::new(1000, 0.3, 4, 3);
        let config = OfflineEngineConfig::new(20_000, OptimizationTarget::agg(AggKind::Sum));
        let report = run_offline_pipeline(&mut source, 100, &config).expect("pipeline");
        assert_eq!(report.drops, 0);
        assert_eq!(report.segments, 100);
        assert!(report.stored_bytes <= 20_000);
    }

    #[test]
    fn offline_engine_without_pressure_keeps_everything_lossless() {
        use crate::query::AggKind;
        use crate::targets::OptimizationTarget;
        let mut source = SineStream::new(500, 0.1, 4, 5);
        let config = OfflineEngineConfig::new(10 << 20, OptimizationTarget::agg(AggKind::Sum));
        let report = run_offline_pipeline(&mut source, 30, &config).expect("pipeline");
        assert_eq!(report.segments, 30);
        assert_eq!(report.drops, 0);
        assert_eq!(report.recodes, 0);
        assert_eq!(report.codec_failures, 0);
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn multiple_threads_do_not_lose_segments() {
        for threads in [1, 2, 4, 8] {
            let report = run(threads, 40);
            let total: u64 = report.codec_counts.values().sum();
            assert_eq!(total, 40, "{threads} threads");
            assert_eq!(report.shards, threads);
            assert_eq!(report.selector_lock_acquisitions, 0);
        }
    }
}
