//! `engine_shift`: `run_pipeline` at S = nproc shards, K = 8, one stream.
//!
//! The source alternates blocks of high-entropy CBF segments with blocks
//! of low-entropy small-alphabet segments, so the best arm flips at every
//! block. This is the CPU-bound path through the engine, its shards, the
//! replica selectors and the codecs; regime flips make replica staleness
//! cost egress. Spool and uplink are bypassed.

use crate::pool::{best_arm, regime_ratios, round_seed, Pool, PoolSource, Regime, PRECISION};
use crate::trace::Tracer;
use crate::{host, Measured, Workload};
use adaedge_codecs::CodecId;
use adaedge_core::engine::{run_pipeline, EngineConfig};
use adaedge_core::selector::SelectorConfig;
use std::collections::BTreeMap;
use std::time::Instant;

const SEG_LEN: usize = 1000;
/// Segments per regime block.
const BLOCK: usize = 32;
const BLOCKS: usize = 8;
/// Segments per round.
const SEGMENTS: usize = 8192;
const BATCH: usize = 8;

pub struct EngineShift {
    seed: u64,
    rounds: u64,
    pool: Pool,
    config: EngineConfig,
    /// Pool index the next round starts at: the stream continues.
    pos: usize,
    best: Vec<(Regime, CodecId, f64)>,
    codec_mix: BTreeMap<CodecId, u64>,
    flips: Vec<f64>,
}

impl EngineShift {
    pub fn setup(seed: u64) -> Self {
        let pool = Pool::alternating(seed, SEG_LEN, BLOCK, BLOCKS);
        let config = EngineConfig {
            n_compression_threads: 0,
            batch_segments: BATCH,
            precision: PRECISION,
            selector: SelectorConfig {
                seed,
                ..SelectorConfig::nonstationary()
            },
            ..EngineConfig::default()
        };
        let best = regime_ratios(&pool, &config.lossless_arms, 4)
            .into_iter()
            .map(|(regime, ratios)| {
                let (arm, ratio) = best_arm(&ratios);
                (regime, arm, ratio)
            })
            .collect();
        Self {
            seed,
            rounds: 0,
            pool,
            config,
            pos: 0,
            best,
            codec_mix: BTreeMap::new(),
            flips: Vec::new(),
        }
    }
}

impl Workload for EngineShift {
    fn round(&mut self, tr: &mut Tracer, out: &mut Measured) {
        // Every round draws a fresh selector seed from the workload seed,
        // so a run's median averages over bandit trajectories.
        self.rounds += 1;
        self.config.selector.seed = round_seed(self.seed, self.rounds);
        let call = tr.enter("engine.run_pipeline", 0);
        let mut src = PoolSource::new(&self.pool, self.pos, tr);
        let t = Instant::now();
        let result = run_pipeline(&mut src, SEGMENTS, &self.config);
        let secs = t.elapsed().as_secs_f64();
        let (pulls, flips, pos) = (src.pulls, src.flips, src.position());
        tr.exit(call);
        self.pos = pos;
        out.attempted += SEGMENTS as u64;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += SEGMENTS as u64;
                out.check(false, || format!("run_pipeline failed: {e}"));
                return;
            }
        };
        let n = SEGMENTS as u64;
        let chosen: u64 = report.codec_counts.values().sum();
        out.check(report.segments == n && chosen == n && pulls == n, || {
            format!(
                "segment accounting: {n} sent, {pulls} pulled, {} reported, {chosen} compressed",
                report.segments
            )
        });
        let raw = n * SEG_LEN as u64 * 8;
        out.check(report.bytes_in == raw, || {
            format!("bytes_in {} != {raw}", report.bytes_in)
        });
        out.check(report.bytes_out > 0 && report.bytes_out < raw, || {
            format!("bytes_out {} outside (0, {raw})", report.bytes_out)
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
        out.failed += report.codec_failures;
        out.done(n, secs);
        out.egress
            .push(report.bytes_out as f64 / report.bytes_in as f64);
        out.sample("engine.stolen_batches", report.stolen_batches as f64);
        out.sample("engine.spills", report.spills as f64);
        out.sample("engine.selector_syncs", report.selector_syncs as f64);
        out.sample(
            "engine.selector_lock_acquisitions",
            report.selector_lock_acquisitions as f64,
        );
        out.sample("engine.codec_failures", report.codec_failures as f64);
        for (codec, count) in report.codec_counts {
            *self.codec_mix.entry(codec).or_insert(0) += count;
        }
        self.flips.push(flips as f64);
    }

    fn finish(&mut self, out: &mut Measured) {
        let arms: Vec<String> = self
            .best
            .iter()
            .map(|(regime, arm, ratio)| format!("{regime:?}: {arm} ({ratio:.4})"))
            .collect();
        out.notes.push(format!(
            "best arm per regime, {SEG_LEN}-point segments in blocks of {BLOCK}: {}",
            arms.join(", ")
        ));
        let flips = crate::stats::median(&self.flips).unwrap_or(0.0);
        out.notes.push(format!(
            "regime flips per round: {flips} over {SEGMENTS} segments"
        ));
        let total: u64 = self.codec_mix.values().sum();
        let mix: Vec<String> = self
            .codec_mix
            .iter()
            .map(|(c, n)| format!("{c} {:.1}%", *n as f64 / total.max(1) as f64 * 100.0))
            .collect();
        out.notes
            .push(format!("engine codec mix: {}", mix.join(", ")));
        out.check(
            self.best.len() == 2 && self.best[0].1 != self.best[1].1,
            || {
                format!(
                    "the best arm does not flip between regimes: {}",
                    arms.join(", ")
                )
            },
        );
        out.check(flips >= (SEGMENTS / BLOCK - 1) as f64, || {
            format!("only {flips} regime flips per round")
        });
        self.codec_mix.clear();
        self.flips.clear();
    }
}
