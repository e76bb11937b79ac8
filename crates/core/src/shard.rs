//! The sharded runtime every pipeline runs on, plus selector replication
//! with delta-sync (the CStream-style parallel-scaling layer).
//!
//! `ShardedRuntime` owns the scaffolding the online engine, the offline
//! engine and the fleet share: S shards, each with a bounded work queue
//! and a recycle pool of segment buffers; workers that take from their
//! own queue, steal from foreign ones and park on a [`WorkGate`] when all
//! are empty; a producer that draws buffers from the pools and dispatches
//! filled batches, counting spills; and one `finish` that closes the
//! queues, wakes the workers and joins them, mapping any panic to
//! [`AdaEdgeError::WorkerFailed`]. The pipelines plug in only their
//! per-batch work and their extra threads (recoder, egress packer).
//!
//! The rest of the module is the **local selector replica** each shard
//! uses to make every arm decision lock-free from its own copy of the
//! bandit state. Replicas stay coherent through a [`SharedOutcomeTable`]:
//! per-batch outcome deltas are published with plain `fetch_add`s (no
//! mutex anywhere on the segment hot path), and every
//! [`ReplicaSelector::sync_interval`] decisions a replica folds the
//! *foreign* deltas — everything other shards published since its last
//! sync — back into its local policy via [`adaedge_bandit::Policy::fold`].
//!
//! Staleness semantics: between syncs a replica's estimates lag the global
//! posterior by at most `(S − 1) · sync_interval` decisions' worth of
//! foreign outcomes. For sample-average policies the fold itself is exact
//! (posteriors depend only on per-arm sums and counts), so a replica that
//! has just synced holds, up to the table's ~2⁻³² fixed-point quantization,
//! exactly the centralized posterior. With a single shard there are no
//! foreign deltas at all and the replica *is* the centralized selector,
//! bit for bit — that is the bandit-exact mode the equivalence suites pin.
//!
//! Fault containment composes the same way: quarantine verdicts
//! ([`crate::selector::QUARANTINE_AFTER`] consecutive local failures) are
//! published as bits in the table and imposed on every other replica at
//! its next sync, while consecutive-failure *streaks* stay shard-local so
//! one shard's pathological data cannot quarantine a codec that works
//! elsewhere.

use crate::error::{AdaEdgeError, Result};
use crate::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use adaedge_codecs::CodecId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// Lock `m`, recovering the guard if a panicking holder poisoned it. A
/// lock is only poisoned by a panic outside a contained region, which
/// already surfaces as [`AdaEdgeError::WorkerFailed`]; the threads still
/// shutting down keep using the data.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` for at most `timeout`, recovering a poisoned guard as
/// [`lock`] does.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Fixed-point scale for reward sums in the shared table: rewards lie in
/// `[0, 1]`, so 2³² units per unit reward keeps published sums exact to
/// ~2⁻³³ while a `u64` accumulator lasts ~4 billion pulls before overflow.
const REWARD_UNIT: f64 = (1u64 << 32) as f64;

/// Quantize a reward into table units (round-to-nearest).
#[inline]
fn to_units(reward: f64) -> u64 {
    (reward * REWARD_UNIT).round() as u64
}

/// Resolve a configured thread/shard count: `0` means "one per core"
/// (`std::thread::available_parallelism`), anything else is taken as is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Per-shard recycle-pool size for a shard whose queue holds `batch_cap`
/// batches in a pipeline with `n_shards` worker shards.
///
/// Derivation (the pigeonhole no-deadlock argument, re-derived for
/// sharding with work-stealing): a shard's batches can simultaneously sit
/// in (a) its own queue — at most `batch_cap`, since the producer only
/// enqueues a batch on its home shard's queue; (b) workers' hands — at
/// most `n_shards`, because **any** worker may steal and hold one batch
/// from this shard, not just the shard's own worker; (c) the producer's
/// hand — at most 1. With `batch_cap + n_shards + 1` batches in the pool,
/// at least one is therefore always in (or headed to) the recycle channel
/// and the producer's blocking `recv` cannot deadlock. The pre-shard
/// global bound (`cap + threads + 1`) naively ported per shard would give
/// `batch_cap + 1 + 1` (one worker per shard) and under-provisions by the
/// `n_shards − 1` batches stealing can strand in foreign workers' hands.
pub fn shard_pool_size(batch_cap: usize, n_shards: usize) -> usize {
    batch_cap + n_shards + 1
}

/// A parked-wake rendezvous between the threads that make work available
/// and the threads that wait for it.
///
/// A worker that sweeps every shard queue and finds them all empty must
/// not sleep through a batch that lands on *any* of them; the gate gives
/// it one place to park that every enqueue wakes. The producer parks on a
/// gate per reason it waits (room in a full queue, a finished batch).
///
/// * A waker calls [`WorkGate::notify`]: one `fetch_add` on the epoch plus
///   a sleeper check — it takes the mutex only when somebody is actually
///   parked, so the hot path with busy consumers costs two uncontended
///   atomics.
/// * A waiter calls [`WorkGate::park_unless`], which registers it as a
///   sleeper, snapshots the epoch, re-checks for work and only then parks,
///   re-checking the epoch under the gate lock before sleeping.
///
/// The sleeper registration *precedes* the final re-check and the waker
/// bumps the epoch *before* checking for sleepers, so every interleaving
/// either lets the waiter find the work in its re-check or leaves the
/// epoch visibly changed when it tries to park — there is no window where
/// a notify slips between check and sleep unnoticed. A coarse safety
/// timeout (50 ms) bounds the damage of any future protocol regression
/// without ever being load-bearing.
#[derive(Debug, Default)]
pub struct WorkGate {
    /// Bumped by every notify; waiters park against a snapshot of it.
    epoch: AtomicU64,
    /// Waiters currently between registration and wake.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Safety net for [`WorkGate::park_unless`]: never load-bearing (the epoch
/// protocol guarantees wakeups), only bounding a hypothetical regression.
const PARK_SAFETY_TIMEOUT: Duration = Duration::from_millis(50);

impl WorkGate {
    /// Create an idle gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// One park round: register as a sleeper, run `check`, and park unless
    /// it found something — until the epoch moves past the snapshot taken
    /// before the check, or the safety timeout lapses. Returns what `check`
    /// found; `None` means the caller should look again.
    pub fn park_unless<R>(&self, check: impl FnOnce() -> Option<R>) -> Option<R> {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let ticket = self.epoch.load(Ordering::SeqCst);
        let found = check();
        if found.is_none() {
            let guard = lock(&self.lock);
            if self.epoch.load(Ordering::SeqCst) == ticket {
                drop(wait_timeout(&self.cv, guard, PARK_SAFETY_TIMEOUT));
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        found
    }

    /// Signal that work became available (or that the pipeline is
    /// shutting down and parked waiters should re-check).
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.lock);
            self.cv.notify_all();
        }
    }
}

/// A set of segment buffers: one recycle-pool entry.
pub(crate) type Buffers = Vec<Vec<f64>>;

/// A unit of work: segment buffers from shard `home`'s recycle pool plus
/// the pipeline's payload. It travels on `home`'s queue, and its buffers
/// return to `home`'s pool even when a foreign worker stole it.
pub(crate) struct Batch<T> {
    /// The shard whose pool owns the buffers and whose queue carries them.
    pub home: usize,
    /// The filled segment buffers.
    pub segs: Buffers,
    /// Pipeline payload (the fleet's stream handle; `()` in the engines).
    pub meta: T,
}

/// S shards, each a bounded work queue plus a recycle pool, shared by one
/// producer (the calling thread) and S workers; [`Self::run`] is the
/// whole lifecycle. Work queues are the only multi-consumer queues
/// (workers steal): `Mutex<VecDeque>` rings woken only through the `work`
/// gate. Recycle pools have one consumer, the producer: `mpsc` channels.
pub(crate) struct ShardedRuntime<T> {
    batch_segments: usize,
    batch_cap: usize,
    pool: usize,
    queues: Vec<Mutex<VecDeque<Batch<T>>>>,
    closed: AtomicBool,
    live_workers: AtomicUsize,
    /// Workers park here; pushes and the close notify it.
    work: WorkGate,
    /// The producer parks here for room in a full queue; a pop from a
    /// full queue and a worker exit notify it.
    room: WorkGate,
    /// The producer parks here in [`Producer::wait_until`];
    /// [`Worker::notify_producer`] and a worker exit notify it.
    progress: WorkGate,
    stolen: AtomicU64,
    spills: AtomicU64,
}

impl<T> ShardedRuntime<T> {
    /// Size a runtime: `threads` shards (`0` = one per core), K =
    /// `batch_segments` segments per batch. The queues are bounded in *batches*; `buffer_segments` keeps its
    /// meaning (segments of in-flight buffer) by dividing through K and
    /// splitting the result across the shards. The floor of two batches
    /// per shard lets a worker drain one batch while the producer parks
    /// the next — a single-slot queue serializes the two stages.
    pub fn new(threads: usize, buffer_segments: usize, batch_segments: usize) -> Self {
        let n_shards = resolve_threads(threads);
        let batch_segments = batch_segments.max(1);
        let batch_cap = buffer_segments
            .max(1)
            .div_ceil(batch_segments)
            .div_ceil(n_shards)
            .max(2);
        Self {
            batch_segments,
            batch_cap,
            pool: shard_pool_size(batch_cap, n_shards),
            queues: (0..n_shards)
                .map(|_| Mutex::new(VecDeque::with_capacity(batch_cap)))
                .collect(),
            closed: AtomicBool::new(false),
            live_workers: AtomicUsize::new(0),
            work: WorkGate::new(),
            room: WorkGate::new(),
            progress: WorkGate::new(),
            stolen: AtomicU64::new(0),
            spills: AtomicU64::new(0),
        }
    }

    /// Shards (= worker threads).
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Batches a worker took from a foreign shard's queue.
    pub fn stolen_batches(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Segments in batches that found their queue full at dispatch.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Close the queues, wake every parked worker so it drains what is
    /// left and exits, and join them all.
    fn finish<R>(
        &self,
        workers: Vec<ScopedJoinHandle<'_, R>>,
        stage: &'static str,
    ) -> Result<Vec<R>> {
        self.close();
        join_all(workers, stage)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.work.notify();
    }

    /// One non-blocking sweep for the worker of shard `me`: its own queue
    /// first, then a steal pass over foreign queues, starting just past
    /// its own shard so contending stealers fan out over different
    /// victims.
    fn take(&self, me: usize) -> Option<Batch<T>> {
        let n = self.queues.len();
        for off in 0..n {
            let j = (me + off) % n;
            let mut q = lock(&self.queues[j]);
            let was_full = q.len() >= self.batch_cap;
            if let Some(batch) = q.pop_front() {
                drop(q);
                if was_full {
                    self.room.notify();
                }
                if j != me {
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                }
                return Some(batch);
            }
        }
        None
    }
}

impl<T: Send> ShardedRuntime<T> {
    /// Run once: seed every recycle pool with `segment_len`-capacity
    /// buffers, spawn one worker per shard running `work`, run `produce`
    /// on the calling thread, then finish. Returns each worker's result
    /// (in shard order) and the producer's. A worker that dies outside its
    /// contained region cannot hang the producer: its exit wakes the
    /// producer, whose waits then return, and `finish` reports the death.
    pub fn run<R: Send, P>(
        &self,
        segment_len: usize,
        stage: &'static str,
        work: impl Fn(&mut Worker<'_, T>) -> R + Sync,
        produce: impl FnOnce(&mut Producer<'_, T>) -> P,
    ) -> Result<(Vec<R>, P)> {
        let n = self.shards();
        let mut senders = Vec::with_capacity(n);
        let mut pools = Vec::with_capacity(n);
        for _ in 0..n {
            // Bounded by the pool size, so a recycle send never blocks and
            // the channel never allocates after seeding.
            let (tx, rx) = sync_channel::<Buffers>(self.pool);
            for _ in 0..self.pool {
                let bufs = (0..self.batch_segments)
                    .map(|_| Vec::with_capacity(segment_len))
                    .collect();
                tx.try_send(bufs)
                    .expect("a fresh pool has room for its seed");
            }
            senders.push(tx);
            pools.push(rx);
        }
        self.live_workers.store(n, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let mut worker = Worker {
                        rt: self,
                        me,
                        recycle: senders.clone(),
                    };
                    scope.spawn(move || work(&mut worker))
                })
                .collect();
            // Only the workers hold senders now: once they are all gone a
            // blocked `acquire` fails instead of waiting forever.
            drop(senders);
            let mut producer = Producer {
                rt: self,
                pools,
                segment_len,
            };
            let out = produce(&mut producer);
            drop(producer);
            Ok((self.finish(handles, stage)?, out))
        })
    }
}

/// Join every handle before deciding the outcome, so one dead thread
/// cannot leave the scope with unjoined panics; any panic becomes
/// [`AdaEdgeError::WorkerFailed`] naming `stage`.
pub(crate) fn join_all<R>(
    handles: Vec<ScopedJoinHandle<'_, R>>,
    stage: &'static str,
) -> Result<Vec<R>> {
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    joined
        .into_iter()
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| AdaEdgeError::WorkerFailed { stage })
}

/// A worker's handle on the runtime, owned by its thread.
pub(crate) struct Worker<'r, T> {
    rt: &'r ShardedRuntime<T>,
    me: usize,
    recycle: Vec<SyncSender<Buffers>>,
}

impl<T> Worker<'_, T> {
    /// This worker's shard.
    pub fn shard(&self) -> usize {
        self.me
    }

    /// The next batch: own queue, then a steal sweep, then a park on the
    /// runtime's work gate that any enqueue ends. `None` once the queues
    /// are closed and drained.
    pub fn next_batch(&mut self) -> Option<Batch<T>> {
        let rt = self.rt;
        loop {
            // Read the flag before sweeping: the producer closes only after
            // its last push, so a close seen here means the sweep saw every
            // batch there will ever be.
            let closed = rt.closed.load(Ordering::SeqCst);
            if let Some(batch) = rt.take(self.me) {
                return Some(batch);
            }
            if closed {
                return None;
            }
            if let Some(batch) = rt.work.park_unless(|| rt.take(self.me)) {
                return Some(batch);
            }
        }
    }

    /// Return a drained batch's buffers to shard `home`'s recycle pool
    /// (fails harmlessly once the producer is done).
    pub fn recycle(&self, home: usize, segs: Buffers) {
        let _ = self.recycle[home].try_send(segs);
    }

    /// Wake the producer if it waits in [`Producer::wait_until`].
    pub fn notify_producer(&self) {
        self.rt.progress.notify();
    }
}

impl<T> Drop for Worker<'_, T> {
    fn drop(&mut self) {
        // Runs on a panic too, so a producer waiting on this worker
        // re-checks and sees it gone.
        self.rt.live_workers.fetch_sub(1, Ordering::SeqCst);
        self.rt.room.notify();
        self.rt.progress.notify();
    }
}

/// The producer's handle on the runtime: the recycle pools' receiving
/// ends. Dropping it closes the queues, so a panicking producer still
/// releases the workers.
pub(crate) struct Producer<'r, T> {
    rt: &'r ShardedRuntime<T>,
    pools: Vec<Receiver<Buffers>>,
    segment_len: usize,
}

impl<T> Producer<'_, T> {
    /// Take a recycled buffer set resized to exactly `n` buffers,
    /// sweeping the pools from shard `start` and blocking on `start` only
    /// when every pool is momentarily drained (the per-shard pool bound
    /// guarantees a set comes back). Returns the supplying shard, or
    /// `None` once every worker is gone.
    pub fn acquire(&mut self, start: usize, n: usize) -> Option<(usize, Buffers)> {
        let s = self.pools.len();
        let found = (0..s)
            .map(|off| (start + off) % s)
            .find_map(|sh| self.pools[sh].try_recv().ok().map(|bufs| (sh, bufs)));
        let (sh, mut segs) = match found {
            Some(got) => got,
            None => (start, self.pools[start].recv().ok()?),
        };
        // Shrink for a final partial batch, regrow a set an earlier one
        // shrank, so short batches cannot permanently shed pool buffers.
        let segment_len = self.segment_len;
        segs.truncate(n);
        segs.resize_with(n, || Vec::with_capacity(segment_len));
        Some((sh, segs))
    }

    /// Enqueue `batch` on its home shard's queue. A full queue counts its
    /// segments as spilled and waits for room. Returns `false` (batch
    /// dropped) if a worker died meanwhile.
    pub fn dispatch(&mut self, batch: Batch<T>) -> bool {
        let (rt, home) = (self.rt, batch.home);
        let mut queue = lock(&rt.queues[home]);
        if queue.len() >= rt.batch_cap {
            drop(queue);
            rt.spills
                .fetch_add(batch.segs.len() as u64, Ordering::Relaxed);
            if !self.wait_on(&rt.room, || lock(&rt.queues[home]).len() < rt.batch_cap) {
                return false;
            }
            // The producer is the only pusher, so the room it saw stays.
            queue = lock(&rt.queues[home]);
        }
        queue.push_back(batch);
        drop(queue);
        rt.work.notify();
        true
    }

    /// Park until `ready` holds; a worker wakes the producer through
    /// [`Worker::notify_producer`]. Returns `false` once any worker has
    /// died: the run ends in `WorkerFailed` anyway, and a batch stranded
    /// in the dead worker's hands might be exactly what `ready` waits for.
    pub fn wait_until(&self, ready: impl FnMut() -> bool) -> bool {
        self.wait_on(&self.rt.progress, ready)
    }

    /// [`Self::wait_until`] on `gate`: one gate per reason to wait, so a
    /// wakeup for one never costs the other a spurious round trip.
    fn wait_on(&self, gate: &WorkGate, mut ready: impl FnMut() -> bool) -> bool {
        // Workers exit normally only after the producer is done, so while
        // it runs a missing worker is a dead one.
        let all_alive = || self.rt.live_workers.load(Ordering::SeqCst) == self.pools.len();
        while !ready() {
            if !all_alive() {
                return false;
            }
            gate.park_unless(|| (ready() || !all_alive()).then_some(()));
        }
        true
    }
}

impl<T> Drop for Producer<'_, T> {
    fn drop(&mut self) {
        self.rt.close();
    }
}

/// One arm's shared accumulators.
#[derive(Debug, Default)]
struct ArmCell {
    /// Successful pulls published for this arm, across all shards.
    pulls: AtomicU64,
    /// Fixed-point reward sum ([`REWARD_UNIT`] units) for those pulls.
    reward_units: AtomicU64,
    /// Cumulative contained failures (codec errors / caught panics).
    failures: AtomicU64,
}

/// The shared, mutex-free outcome table replicas publish to and fold from.
///
/// Every field is an atomic counter: the segment hot path touches it only
/// through `fetch_add` / `fetch_or`, never a lock. The table also carries
/// the selector contention counter so a report can *prove* the hot path
/// stayed lock-free.
#[derive(Debug)]
pub struct SharedOutcomeTable {
    arms: Vec<ArmCell>,
    /// Quarantine verdict bitmask (bit `i` = arm `i`); `fetch_or` to set.
    quarantined_bits: AtomicU64,
    /// Delta-sync folds performed across all replicas.
    syncs: AtomicU64,
    /// Mutex acquisitions on the per-segment selector hot path. The
    /// sharded pipelines have no such path, so this stays 0; any engine
    /// code that reintroduces a shared selector lock must count it here,
    /// and the shard-equivalence suite asserts the report shows zero.
    selector_locks: AtomicU64,
}

impl SharedOutcomeTable {
    /// Create a table for `n_arms` arms (at most 64, for the quarantine
    /// bitmask — the codec roster is an order of magnitude smaller).
    pub fn new(n_arms: usize) -> Self {
        assert!(n_arms <= 64, "quarantine bitmask holds at most 64 arms");
        Self {
            arms: (0..n_arms).map(|_| ArmCell::default()).collect(),
            quarantined_bits: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            selector_locks: AtomicU64::new(0),
        }
    }

    /// Number of arms tracked.
    pub fn n_arms(&self) -> usize {
        self.arms.len()
    }

    /// Publish a batch's outcome delta for `arm`: `pulls` successful
    /// compressions totalling `reward_units` fixed-point reward.
    ///
    /// The reward sum is added *before* the pull count with a `Release`
    /// increment, so a reader that observes the pulls (`Acquire`) is
    /// guaranteed to observe at least the matching reward units; any
    /// excess units from a concurrently publishing shard are clamped at
    /// fold time and picked up by the next sync.
    fn publish(&self, arm: usize, pulls: u64, reward_units: u64) {
        if pulls == 0 {
            return;
        }
        self.arms[arm]
            .reward_units
            .fetch_add(reward_units, Ordering::Relaxed);
        self.arms[arm].pulls.fetch_add(pulls, Ordering::Release);
    }

    /// Record one contained failure for `arm`.
    fn record_failure(&self, arm: usize) {
        self.arms[arm].failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish a quarantine verdict for `arm`.
    fn quarantine(&self, arm: usize) {
        self.quarantined_bits
            .fetch_or(1u64 << arm, Ordering::Release);
    }

    /// Current quarantine bitmask.
    pub fn quarantine_bits(&self) -> u64 {
        self.quarantined_bits.load(Ordering::Acquire)
    }

    /// Globally quarantined arms, mapped through the engine's arm roster.
    pub fn quarantined_arms(&self, roster: &[CodecId]) -> Vec<CodecId> {
        let bits = self.quarantine_bits();
        roster
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (bits & (1u64 << i) != 0).then_some(c))
            .collect()
    }

    /// Total contained failures across all arms and shards.
    pub fn failure_total(&self) -> u64 {
        self.arms
            .iter()
            .map(|c| c.failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Delta-sync folds performed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Hot-path selector-mutex acquisitions (0 in the sharded engines).
    pub fn selector_locks(&self) -> u64 {
        self.selector_locks.load(Ordering::Relaxed)
    }

    /// Count one hot-path selector-mutex acquisition. No sharded pipeline
    /// calls this; it exists so any future locked path is forced to show
    /// up in the report the equivalence suite pins to zero.
    pub fn count_selector_lock(&self) {
        self.selector_locks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A shard-local selector replica: a full [`LosslessSelector`] plus the
/// delta-sync bookkeeping that keeps it coherent with the other shards.
///
/// All decision-making ([`Self::select_arm`]) and reward accounting
/// ([`Self::report_batch`]) run on the owning shard's thread with no
/// locking; the only cross-shard traffic is `fetch_add` publication and
/// the periodic fold.
pub struct ReplicaSelector<'t> {
    inner: LosslessSelector,
    table: &'t SharedOutcomeTable,
    sync_interval: usize,
    decisions_since_sync: usize,
    /// Per-arm global pulls already reflected in `inner` (own published
    /// plus previously folded foreign).
    accounted_pulls: Vec<u64>,
    /// Per-arm table reward units already reflected in `inner`.
    accounted_units: Vec<u64>,
}

impl std::fmt::Debug for ReplicaSelector<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSelector")
            .field("inner", &self.inner)
            .field("sync_interval", &self.sync_interval)
            .finish()
    }
}

impl<'t> ReplicaSelector<'t> {
    /// Create the replica for `shard_id`.
    ///
    /// Shard 0 keeps the configured RNG seed unchanged — with a single
    /// shard the replica reproduces the centralized selector bit for bit.
    /// Other shards decorrelate their exploration streams by folding the
    /// shard id into the seed (identical streams would explore the same
    /// arms in lock-step, wasting the fleet's exploration budget).
    pub fn new(
        arms: Vec<CodecId>,
        config: SelectorConfig,
        shard_id: usize,
        table: &'t SharedOutcomeTable,
        sync_interval: usize,
    ) -> Self {
        assert_eq!(arms.len(), table.n_arms(), "table/roster arm mismatch");
        let mut config = config;
        config.seed ^= (shard_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let n = arms.len();
        Self {
            inner: LosslessSelector::new(arms, config),
            table,
            sync_interval: sync_interval.max(1),
            decisions_since_sync: 0,
            accounted_pulls: vec![0; n],
            accounted_units: vec![0; n],
        }
    }

    /// The configured decisions-per-fold interval.
    pub fn sync_interval(&self) -> usize {
        self.sync_interval
    }

    /// The local selector state (estimates, pulls, quarantine — for
    /// reports and the equivalence tests).
    pub fn local(&self) -> &LosslessSelector {
        &self.inner
    }

    /// Pick an arm from the local replica. Lock-free: no shared state is
    /// touched at all.
    pub fn select_arm(&mut self) -> (usize, CodecId) {
        self.inner.select_arm()
    }

    /// Report one batch of outcomes for `arm`: apply them to the local
    /// replica with exactly the centralized arithmetic, publish the delta
    /// to the shared table (two `fetch_add`s per batch plus one per
    /// failure), and fold foreign deltas if the sync interval elapsed.
    ///
    /// Counts as **one decision** toward the sync interval, matching the
    /// one `select_arm` call that produced the batch.
    pub fn report_batch(&mut self, arm: usize, outcomes: &[ArmOutcome]) {
        let mut batch_pulls = 0u64;
        let mut batch_units = 0u64;
        for &outcome in outcomes {
            match outcome {
                ArmOutcome::Ratio(ratio) => {
                    let reward = self.inner.report_ratio(arm, ratio);
                    batch_pulls += 1;
                    batch_units += to_units(reward);
                }
                ArmOutcome::Failure => {
                    let was = self.inner.is_quarantined(arm);
                    let now = self.inner.record_failure(arm);
                    self.table.record_failure(arm);
                    if now && !was {
                        self.table.quarantine(arm);
                    }
                }
            }
        }
        self.accounted_pulls[arm] += batch_pulls;
        self.accounted_units[arm] += batch_units;
        self.table.publish(arm, batch_pulls, batch_units);
        self.decisions_since_sync += 1;
        if self.decisions_since_sync >= self.sync_interval {
            self.sync();
        }
    }

    /// Fold all foreign deltas (outcomes other shards published since the
    /// last sync) into the local replica, and impose any quarantine
    /// verdicts from the table. Allocation-free; O(arms).
    pub fn sync(&mut self) {
        self.decisions_since_sync = 0;
        for arm in 0..self.accounted_pulls.len() {
            let g_pulls = self.table.arms[arm].pulls.load(Ordering::Acquire);
            let g_units = self.table.arms[arm].reward_units.load(Ordering::Relaxed);
            let dp = g_pulls - self.accounted_pulls[arm];
            if dp == 0 {
                continue;
            }
            // Clamp the unit delta to `dp` whole rewards: a concurrently
            // publishing shard may have its reward units visible before
            // the matching pull count (units are added first). The excess
            // stays unaccounted and is folded by the next sync, once its
            // pull is visible too.
            let du = g_units.saturating_sub(self.accounted_units[arm]);
            let cap = ((dp as u128) << 32).min(u64::MAX as u128) as u64;
            let du = du.min(cap);
            self.inner.fold_foreign(arm, dp, du as f64 / REWARD_UNIT);
            self.accounted_pulls[arm] = g_pulls;
            self.accounted_units[arm] += du;
        }
        let bits = self.table.quarantine_bits();
        if bits != 0 {
            for arm in 0..self.accounted_pulls.len() {
                if bits & (1u64 << arm) != 0 {
                    self.inner.quarantine_arm(arm);
                }
            }
        }
        self.table.syncs.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_codecs::CodecRegistry;

    fn arms() -> Vec<CodecId> {
        CodecRegistry::lossless_candidates()
    }

    fn config(seed: u64) -> SelectorConfig {
        SelectorConfig {
            epsilon: 0.1,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn single_shard_replica_is_bit_identical_to_centralized() {
        let table = SharedOutcomeTable::new(arms().len());
        let mut replica = ReplicaSelector::new(arms(), config(9), 0, &table, 1);
        let mut central = LosslessSelector::new(arms(), config(9));
        for step in 0..200u64 {
            let (arm_r, codec_r) = replica.select_arm();
            let (arm_c, codec_c) = central.select_arm();
            assert_eq!((arm_r, codec_r), (arm_c, codec_c), "step {step}");
            let outcomes = [
                ArmOutcome::Ratio((step % 7) as f64 / 10.0),
                ArmOutcome::Ratio((step % 3) as f64 / 5.0),
            ];
            replica.report_batch(arm_r, &outcomes);
            central.report_batch(arm_c, &outcomes);
        }
        // No foreign deltas exist, so the fold must not have perturbed
        // anything: estimates are bit-identical, not merely close.
        assert_eq!(replica.local().estimates(), central.estimates());
        assert_eq!(replica.local().pulls(), central.pulls());
        assert!(table.syncs() >= 200);
    }

    #[test]
    fn quarantine_propagates_between_replicas_at_sync() {
        let table = SharedOutcomeTable::new(arms().len());
        let mut a = ReplicaSelector::new(arms(), config(1), 0, &table, 1);
        let mut b = ReplicaSelector::new(arms(), config(1), 1, &table, 1);
        let victim = 2usize;
        // Shard A burns out the arm locally.
        a.report_batch(
            victim,
            &[
                ArmOutcome::Failure,
                ArmOutcome::Failure,
                ArmOutcome::Failure,
            ],
        );
        assert!(a.local().is_quarantined(victim));
        assert_ne!(table.quarantine_bits() & (1 << victim), 0);
        // Shard B has seen no failures of its own, but its next sync
        // imposes the verdict.
        assert!(!b.local().is_quarantined(victim));
        b.report_batch(0, &[ArmOutcome::Ratio(0.5)]);
        assert!(b.local().is_quarantined(victim));
        // B's failure streak for the victim stays untouched (shard-local).
        assert_eq!(table.failure_total(), 3);
    }

    #[test]
    fn foreign_folds_converge_to_global_posterior() {
        let roster = arms();
        let table = SharedOutcomeTable::new(roster.len());
        let mut a = ReplicaSelector::new(roster.clone(), config(5), 0, &table, 1);
        let mut b = ReplicaSelector::new(roster.clone(), config(5), 1, &table, 1);
        // Interleave prescribed outcomes across both replicas, then
        // compare against one centralized selector fed the same stream.
        let mut central = LosslessSelector::new(roster, config(5));
        let script: Vec<(usize, f64)> = (0..300)
            .map(|i| (i % 4, ((i * 37) % 100) as f64 / 100.0))
            .collect();
        for (i, &(arm, ratio)) in script.iter().enumerate() {
            let outcome = [ArmOutcome::Ratio(ratio)];
            if i % 2 == 0 {
                a.report_batch(arm, &outcome);
            } else {
                b.report_batch(arm, &outcome);
            }
            central.report_batch(arm, &outcome);
        }
        a.sync();
        b.sync();
        // Sample-average folds are exact up to the table's fixed-point
        // quantization of foreign contributions.
        for arm in 0..central.arms().len() {
            assert_eq!(a.local().pulls()[arm], central.pulls()[arm]);
            assert_eq!(b.local().pulls()[arm], central.pulls()[arm]);
            assert!(
                (a.local().estimates()[arm] - central.estimates()[arm]).abs() < 1e-6,
                "arm {arm}: {} vs {}",
                a.local().estimates()[arm],
                central.estimates()[arm]
            );
            assert!((b.local().estimates()[arm] - central.estimates()[arm]).abs() < 1e-6);
        }
    }

    #[test]
    fn resolve_threads_zero_means_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(0), cores);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn pool_bound_accounts_for_stealing_workers() {
        // Regression for the per-shard re-derivation: with S shards, up to
        // S workers can simultaneously hold one of a shard's batches, so
        // the pool must exceed the naive per-shard port of the old global
        // bound (batch_cap + 1 worker + 1 producer) by S − 1.
        assert_eq!(shard_pool_size(1, 4), 6);
        assert_eq!(shard_pool_size(8, 1), 10);
        for s in 1..=8 {
            assert!(shard_pool_size(2, s) > 2 + 1 + 1 || s == 1);
        }
    }

    #[test]
    fn work_gate_wakes_parked_consumer_on_notify() {
        let gate = WorkGate::new();
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Give the consumer a moment to actually park.
                std::thread::sleep(Duration::from_millis(5));
                gate.notify();
            });
            assert_eq!(gate.park_unless(|| None::<()>), None);
        });
        // Far below the 50 ms safety timeout: the notify woke us.
        assert!(start.elapsed() < Duration::from_millis(45));
    }

    #[test]
    fn work_gate_notify_between_snapshot_and_park_prevents_sleep() {
        let gate = WorkGate::new();
        let start = std::time::Instant::now();
        // The notify lands after the ticket snapshot, inside the re-check:
        // the epoch moved, so the park must return immediately.
        gate.park_unless(|| {
            gate.notify();
            None::<()>
        });
        assert!(start.elapsed() < Duration::from_millis(45));
    }

    #[test]
    fn work_gate_found_work_cancels_the_park() {
        let gate = WorkGate::new();
        assert_eq!(gate.park_unless(|| Some(7)), Some(7));
        // No sleepers left: notify must stay on the cheap path.
        assert_eq!(gate.sleepers.load(Ordering::SeqCst), 0);
        gate.notify();
        assert_eq!(gate.epoch.load(Ordering::SeqCst), 1);
    }

    fn push(rt: &ShardedRuntime<()>, home: usize) {
        lock(&rt.queues[home]).push_back(Batch {
            home,
            segs: Vec::new(),
            meta: (),
        });
    }

    #[test]
    fn runtime_counts_only_foreign_takes_as_steals() {
        let rt = ShardedRuntime::<()>::new(2, 8, 1);
        push(&rt, 0);
        assert_eq!(rt.take(0).map(|b| b.home), Some(0));
        assert_eq!(rt.stolen_batches(), 0, "an own-queue take is not a steal");
        push(&rt, 1);
        assert_eq!(rt.take(0).map(|b| b.home), Some(1));
        assert_eq!(rt.stolen_batches(), 1, "a foreign take is a steal");
        assert!(rt.take(1).is_none());
        assert_eq!(rt.stolen_batches(), 1);
    }

    #[test]
    fn runtime_full_queue_counts_a_spill_and_waits_for_room() {
        // One shard, two-batch queue: the third dispatch spills and only
        // lands once the worker, held back until that spill, makes room.
        let rt = ShardedRuntime::<()>::new(1, 1, 1);
        let (taken, dispatched) = rt
            .run(
                4,
                "test worker",
                |w| {
                    while rt.spills() == 0 {
                        std::thread::yield_now();
                    }
                    let mut taken = 0;
                    while let Some(b) = w.next_batch() {
                        taken += 1;
                        w.recycle(b.home, b.segs);
                    }
                    taken
                },
                |p| {
                    (0..3)
                        .filter(|_| {
                            let (home, segs) = p.acquire(0, 1).expect("pool");
                            p.dispatch(Batch {
                                home,
                                segs,
                                meta: (),
                            })
                        })
                        .count()
                },
            )
            .unwrap();
        assert_eq!(dispatched, 3);
        assert_eq!(taken, vec![3]);
        assert_eq!(rt.spills(), 1);
    }

    #[test]
    fn runtime_worker_panic_fails_the_run_without_hanging_the_producer() {
        // Every worker dies outside any contained region after taking one
        // batch. The producer must still return — its pools and queues go
        // quiet for good — and `finish` must map the panics.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = ShardedRuntime::<()>::new(2, 2, 1);
            let result = rt.run(
                4,
                "test worker",
                |w| {
                    if w.next_batch().is_some() {
                        panic!("worker died outside the contained region");
                    }
                },
                |p| {
                    let mut dispatched = 0;
                    for i in 0..1000 {
                        let Some((home, segs)) = p.acquire(i % 2, 1) else {
                            break;
                        };
                        if !p.dispatch(Batch {
                            home,
                            segs,
                            meta: (),
                        }) {
                            break;
                        }
                        dispatched += 1;
                    }
                    dispatched
                },
            );
            done_tx.send(result.map(|(_, n)| n)).unwrap();
        });
        let result = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the producer hung after every worker died");
        assert!(matches!(
            result,
            Err(AdaEdgeError::WorkerFailed {
                stage: "test worker"
            })
        ));
    }

    #[test]
    fn reward_quantization_error_is_negligible() {
        for &r in &[0.0, 1e-9, 0.123456789, 0.5, 0.999999999, 1.0] {
            let units = to_units(r);
            assert!((units as f64 / REWARD_UNIT - r).abs() < 1e-9, "{r}");
        }
    }
}
