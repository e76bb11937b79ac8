//! Generated inputs: pre-generated segment pools and the benchmark's own
//! segment source over them.
//!
//! Pools are made from the seed before measuring, so generation cost is
//! set-up, not throughput. Two regimes exist: high-entropy CBF data and
//! the low-entropy small-alphabet data a `ShiftStream` emits after its
//! shift. A pool can alternate blocks of the two, so the best codec flips
//! at every block boundary.

use crate::trace::Tracer;
use adaedge_codecs::{CodecId, CodecRegistry};
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource, ShiftStream};

/// Distinct values in the low-entropy regime.
const ALPHABET: usize = 8;
/// Decimal precision of every generated value and of every codec registry.
pub const PRECISION: u8 = 4;

/// The selector seed of round `round` of a run with workload seed `seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Which regime a segment was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// CBF instances.
    High,
    /// Small-alphabet tiling.
    Low,
}

/// A pre-generated pool of segments with the regime of each.
#[derive(Debug)]
pub struct Pool {
    /// The segments, in pull order.
    pub segs: Vec<Vec<f64>>,
    /// The regime of each segment.
    pub regimes: Vec<Regime>,
}

impl Pool {
    /// `blocks` blocks of `block` segments, alternating high- and
    /// low-entropy, starting high.
    pub fn alternating(seed: u64, seg_len: usize, block: usize, blocks: usize) -> Self {
        let cfg = CbfConfig {
            seed,
            ..CbfConfig::default()
        };
        let mut high = CbfStream::new(cfg, seg_len);
        let mut low = ShiftStream::new(cfg, seg_len, 0, ALPHABET);
        let mut segs = Vec::with_capacity(block * blocks);
        let mut regimes = Vec::with_capacity(block * blocks);
        for b in 0..blocks {
            let regime = if b % 2 == 0 {
                Regime::High
            } else {
                Regime::Low
            };
            for _ in 0..block {
                segs.push(match regime {
                    Regime::High => high.next_segment(),
                    Regime::Low => low.next_segment(),
                });
                regimes.push(regime);
            }
        }
        Self { segs, regimes }
    }

    /// `n` segments of CBF data.
    pub fn cbf(seed: u64, seg_len: usize, n: usize) -> Self {
        let mut high = CbfStream::new(
            CbfConfig {
                seed,
                ..CbfConfig::default()
            },
            seg_len,
        );
        Self {
            segs: (0..n).map(|_| high.next_segment()).collect(),
            regimes: vec![Regime::High; n],
        }
    }

    /// Points per segment.
    pub fn seg_len(&self) -> usize {
        self.segs[0].len()
    }
}

/// The benchmark's segment source: cycles a pool, records a
/// `datasets.fill` span around every pull, and counts regime flips in the
/// pulled sequence.
pub struct PoolSource<'a> {
    pool: &'a Pool,
    next: usize,
    tr: &'a mut Tracer,
    /// Segments pulled.
    pub pulls: u64,
    /// Pulls whose regime differs from the previous pull's.
    pub flips: u64,
}

impl<'a> PoolSource<'a> {
    /// A source starting at pool index `start`.
    pub fn new(pool: &'a Pool, start: usize, tr: &'a mut Tracer) -> Self {
        Self {
            pool,
            next: start % pool.segs.len(),
            tr,
            pulls: 0,
            flips: 0,
        }
    }

    /// Pool index the next pull reads.
    pub fn position(&self) -> usize {
        self.next
    }
}

impl SegmentSource for PoolSource<'_> {
    fn segment_len(&self) -> usize {
        self.pool.seg_len()
    }

    fn next_segment(&mut self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.segment_len());
        self.next_segment_into(&mut out);
        out
    }

    fn next_segment_into(&mut self, out: &mut Vec<f64>) {
        let i = self.next;
        let span = self.tr.enter("datasets.fill", self.pulls + 1);
        out.clear();
        out.extend_from_slice(&self.pool.segs[i]);
        self.tr.exit(span);
        let prev = (i + self.pool.segs.len() - 1) % self.pool.segs.len();
        if self.pulls > 0 && self.pool.regimes[prev] != self.pool.regimes[i] {
            self.flips += 1;
        }
        self.pulls += 1;
        self.next = (i + 1) % self.pool.segs.len();
    }
}

/// Mean compression ratio of every arm over up to `sample` segments of
/// each regime, compressed directly through the codec registry: the
/// input property behind "the best arm flips with the regime".
pub fn regime_ratios(
    pool: &Pool,
    arms: &[CodecId],
    sample: usize,
) -> Vec<(Regime, Vec<(CodecId, f64)>)> {
    let reg = CodecRegistry::new(PRECISION);
    [Regime::High, Regime::Low]
        .into_iter()
        .filter_map(|regime| {
            let segs: Vec<&Vec<f64>> = pool
                .segs
                .iter()
                .zip(&pool.regimes)
                .filter(|(_, r)| **r == regime)
                .map(|(s, _)| s)
                .take(sample)
                .collect();
            if segs.is_empty() {
                return None;
            }
            let ratios = arms
                .iter()
                .map(|&arm| {
                    let total: f64 = segs
                        .iter()
                        .map(|s| reg.get(arm).compress(s).expect("lossless compress").ratio())
                        .sum();
                    (arm, total / segs.len() as f64)
                })
                .collect();
            Some((regime, ratios))
        })
        .collect()
}

/// The best (lowest-ratio) arm of a [`regime_ratios`] row.
pub fn best_arm(ratios: &[(CodecId, f64)]) -> (CodecId, f64) {
    ratios
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"))
        .expect("at least one arm")
}
