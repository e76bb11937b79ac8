//! `offline_budget`: `run_offline_pipeline` at S = nproc shards with a CBF
//! pool, an `agg(Sum)` target and a storage budget small enough that the
//! recoder runs for most of each round.
//!
//! This is the only workload for the paper's offline mode: the recoder,
//! the banded lossy selector, lossy codecs and the `SegmentStore` budget.
//! Spool, uplink and the fleet are bypassed.

use crate::pool::{round_seed, Pool, PoolSource, PRECISION};
use crate::trace::Tracer;
use crate::{host, Measured, Workload};
use adaedge_core::engine::{run_offline_pipeline, OfflineEngineConfig};
use adaedge_core::query::AggKind;
use adaedge_core::selector::SelectorConfig;
use adaedge_core::targets::OptimizationTarget;
use std::time::Instant;

const SEG_LEN: usize = 1000;
const POOL: usize = 512;
/// Segments per round.
const SEGMENTS: usize = 200;
/// Storage budget: a tenth of a round's raw bytes, so the store crosses
/// the recode trigger after about a quarter of the round.
const BUDGET: usize = 160_000;

pub struct OfflineBudget {
    seed: u64,
    rounds: u64,
    pool: Pool,
    config: OfflineEngineConfig,
    pos: usize,
    recodes: Vec<f64>,
    utilization: Vec<f64>,
}

impl OfflineBudget {
    pub fn setup(seed: u64) -> Self {
        let config = OfflineEngineConfig {
            n_compression_threads: 0,
            precision: PRECISION,
            selector: SelectorConfig {
                seed,
                ..SelectorConfig::offline()
            },
            ..OfflineEngineConfig::new(BUDGET, OptimizationTarget::agg(AggKind::Sum))
        };
        Self {
            seed,
            rounds: 0,
            pool: Pool::cbf(seed, SEG_LEN, POOL),
            config,
            pos: 0,
            recodes: Vec::new(),
            utilization: Vec::new(),
        }
    }
}

impl Workload for OfflineBudget {
    fn round(&mut self, tr: &mut Tracer, out: &mut Measured) {
        self.rounds += 1;
        self.config.selector.seed = round_seed(self.seed, self.rounds);
        let call = tr.enter("engine.run_offline_pipeline", 0);
        let mut src = PoolSource::new(&self.pool, self.pos, tr);
        let t = Instant::now();
        let result = run_offline_pipeline(&mut src, SEGMENTS, &self.config);
        let secs = t.elapsed().as_secs_f64();
        let (pulls, pos) = (src.pulls, src.position());
        tr.exit(call);
        self.pos = pos;
        let n = SEGMENTS as u64;
        out.attempted += n;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += n;
                out.check(false, || format!("run_offline_pipeline failed: {e}"));
                return;
            }
        };
        out.check(report.segments + report.drops == n && pulls == n, || {
            format!(
                "segment accounting: {n} sent, {pulls} pulled, {} stored + {} dropped",
                report.segments, report.drops
            )
        });
        out.check(report.points == n * SEG_LEN as u64, || {
            format!("points {} != {}", report.points, n * SEG_LEN as u64)
        });
        out.check(report.stored_bytes <= BUDGET, || {
            format!(
                "stored {} bytes over the {BUDGET}-byte budget",
                report.stored_bytes
            )
        });
        out.check(report.selector_lock_acquisitions == 0, || {
            format!(
                "selector_lock_acquisitions = {}",
                report.selector_lock_acquisitions
            )
        });
        out.check(report.shards == host::nproc(), || {
            format!("{} shards, {} cores", report.shards, host::nproc())
        });
        out.failed += report.drops + report.codec_failures;
        let raw = (n * SEG_LEN as u64 * 8) as f64;
        out.done(n, secs);
        out.egress.push(report.stored_bytes as f64 / raw);
        out.sample("engine.offline_recodes", report.recodes as f64);
        out.sample(
            "engine.offline_recodes_per_record",
            report.recodes as f64 / n as f64,
        );
        out.sample("engine.offline_drops", report.drops as f64);
        out.sample("storage.utilization", report.utilization);
        out.sample("engine.stolen_batches", report.stolen_batches as f64);
        out.sample("engine.selector_syncs", report.selector_syncs as f64);
        out.sample(
            "engine.selector_lock_acquisitions",
            report.selector_lock_acquisitions as f64,
        );
        out.sample("engine.codec_failures", report.codec_failures as f64);
        self.recodes.push(report.recodes as f64);
        self.utilization.push(report.utilization);
    }

    fn finish(&mut self, out: &mut Measured) {
        let theta = self.config.recode_threshold;
        let min_recodes = self.recodes.iter().copied().fold(f64::INFINITY, f64::min);
        let min_util = self
            .utilization
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        out.notes.push(format!(
            "budget {BUDGET} B for {} raw B per round; recodes per round min {min_recodes}; final utilization min {min_util:.4} (theta {theta})",
            SEGMENTS * SEG_LEN * 8
        ));
        // The recoder sleeps until occupancy crosses theta * budget, so a
        // recode proves the round reached the trigger.
        out.check(min_recodes > 0.0, || {
            "a round never reached the theta trigger: no recodes".into()
        });
        self.recodes.clear();
        self.utilization.clear();
    }
}
