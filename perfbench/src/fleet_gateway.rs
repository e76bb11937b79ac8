//! `fleet_gateway`: `run_fleet` with thousands of warm-started streams at
//! S = nproc shards, K = 8, and a residency bound below the stream count.
//!
//! The same shard workers as `engine_shift`, used differently: per-stream
//! decisions, the stream table, evict/restore through the posterior
//! archive and frame packing dominate. Every stream resumes a converged
//! posterior from the archive, as a gateway whose tenants return would.
//! Spool and uplink are bypassed (`run_fleet` discards its frames).

use crate::pool::{round_seed, Pool, PRECISION};
use crate::trace::Tracer;
use crate::{host, Measured, Workload};
use adaedge_core::fleet::{run_fleet, FleetConfig, StreamSpec};
use adaedge_core::frame::Priority;
use adaedge_core::selector::SelectorConfig;
use adaedge_datasets::SharedCycleSource;
use adaedge_storage::{save_posteriors, StreamPosterior};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SEG_LEN: usize = 1000;
const POOL: usize = 256;
const STREAMS: usize = 2048;
/// Segments each stream contributes per round: one full and one partial
/// batch, so per-stream decisions stay frequent.
const SEGS_PER_STREAM: usize = 12;
const RESIDENT: usize = 256;
const BATCH: usize = 8;
/// Segments the posterior that every stream resumes was trained on.
const TRAIN_SEGMENTS: usize = 512;

pub struct FleetGateway {
    seed: u64,
    pool: Arc<Vec<Vec<f64>>>,
    config: FleetConfig,
    archive: PathBuf,
    /// The archive as set up, restored before every round so each round
    /// resumes the same posteriors.
    pristine: Vec<u8>,
    round: usize,
    restore_share: Vec<f64>,
}

impl FleetGateway {
    pub fn setup(seed: u64, dir: &Path) -> Self {
        let pool = Arc::new(Pool::cbf(seed, SEG_LEN, POOL).segs);
        let archive = dir.join("posteriors.aeps");
        let _ = std::fs::remove_file(&archive);
        let mut config = FleetConfig {
            n_compression_threads: 0,
            batch_segments: BATCH,
            buffer_segments: 1024,
            max_resident_streams: RESIDENT,
            precision: PRECISION,
            selector: SelectorConfig {
                seed,
                ..SelectorConfig::default()
            },
            ..FleetConfig::default()
        };
        // Train one stream to steady state and stamp its posterior onto
        // every stream id.
        let train = run_fleet(
            vec![StreamSpec::new(
                0,
                Priority::Normal,
                TRAIN_SEGMENTS,
                Box::new(SharedCycleSource::new(pool.clone(), 0)),
            )],
            &config,
        )
        .expect("training run");
        let proto = &train.stream_reports[0];
        let posteriors: Vec<StreamPosterior> = (0..STREAMS as u64)
            .map(|id| StreamPosterior {
                stream_id: id,
                arms: train.arms.clone(),
                pulls: proto.pulls.clone(),
                estimates: proto.estimates.clone(),
                failure_totals: proto.failure_totals.clone(),
                quarantine_bits: proto.quarantine_bits,
            })
            .collect();
        save_posteriors(&archive, posteriors.iter()).expect("write the posterior archive");
        let pristine = std::fs::read(&archive).expect("read the posterior archive");
        config.posterior_path = Some(archive.clone());
        Self {
            seed,
            pool,
            config,
            archive,
            pristine,
            round: 0,
            restore_share: Vec::new(),
        }
    }
}

impl Workload for FleetGateway {
    fn round(&mut self, tr: &mut Tracer, out: &mut Measured) {
        std::fs::write(&self.archive, &self.pristine).expect("reset the posterior archive");
        // Streams start at different pool phases, moving on every round.
        let offset = self.round * SEGS_PER_STREAM;
        self.round += 1;
        let specs: Vec<StreamSpec> = (0..STREAMS as u64)
            .map(|id| {
                StreamSpec::new(
                    id,
                    Priority::ALL[id as usize % Priority::ALL.len()],
                    SEGS_PER_STREAM,
                    Box::new(SharedCycleSource::new(
                        self.pool.clone(),
                        id as usize + offset,
                    )),
                )
            })
            .collect();
        self.config.selector.seed = round_seed(self.seed, self.round as u64);
        let n = (STREAMS * SEGS_PER_STREAM) as u64;
        out.attempted += n;
        let call = tr.enter("fleet.run_fleet", 0);
        let t = Instant::now();
        let result = run_fleet(specs, &self.config);
        let secs = t.elapsed().as_secs_f64();
        tr.exit(call);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += n;
                out.check(false, || format!("run_fleet failed: {e}"));
                return;
            }
        };
        let streams = STREAMS as u64;
        out.check(report.segments == n && report.streams == streams, || {
            format!(
                "accounting: {} segments of {n}, {} streams of {streams}",
                report.segments, report.streams
            )
        });
        out.check(report.bytes_in == n * SEG_LEN as u64 * 8, || {
            format!("bytes_in {}", report.bytes_in)
        });
        out.check(report.restores == streams, || {
            format!("{} restores for {streams} warm streams", report.restores)
        });
        out.check(report.evictions == streams, || {
            format!("{} evictions for {streams} streams", report.evictions)
        });
        out.check(report.peak_resident <= RESIDENT, || {
            format!(
                "peak resident {} over the bound {RESIDENT}",
                report.peak_resident
            )
        });
        let f = report.frames;
        out.check(f.max_frame_used <= f.payload_cap, || {
            format!(
                "frame of {} bytes over the {} cap",
                f.max_frame_used, f.payload_cap
            )
        });
        let payload: u64 = report
            .stream_reports
            .iter()
            .map(|r| r.egress.payload_bytes)
            .sum();
        let fragments: u64 = report
            .stream_reports
            .iter()
            .map(|r| r.egress.fragments)
            .sum();
        let shipped: u64 = report
            .stream_reports
            .iter()
            .map(|r| r.egress.segments)
            .sum();
        out.check(payload == report.bytes_out && shipped == n, || {
            format!(
                "per-stream egress {payload} B / {shipped} segments vs {} B / {n} compressed",
                report.bytes_out
            )
        });
        let overhead = self.config.frame.fragment_overhead as u64;
        out.check(f.bytes == payload + fragments * overhead, || {
            format!(
                "frame bytes {} != payload {payload} + {fragments} fragments x {overhead}",
                f.bytes
            )
        });
        out.check(report.shards == host::nproc(), || {
            format!("{} shards, {} cores", report.shards, host::nproc())
        });
        out.failed += report.codec_failures;
        out.done(n, secs);
        out.egress
            .push(report.bytes_out as f64 / report.bytes_in as f64);
        out.sample("fleet.restores", report.restores as f64);
        out.sample("fleet.evictions", report.evictions as f64);
        out.sample("fleet.peak_resident", report.peak_resident as f64);
        out.sample(
            "fleet.per_stream_state_bytes",
            report.per_stream_state_bytes as f64,
        );
        out.sample("fleet.stolen_batches", report.stolen_batches as f64);
        out.sample("frame.frames", f.frames as f64);
        out.sample(
            "frame.fill_ratio",
            f.bytes as f64 / (f.frames.max(1) * f.payload_cap as u64) as f64,
        );
        self.restore_share
            .push(report.restores as f64 / report.streams.max(1) as f64);
    }

    fn finish(&mut self, out: &mut Measured) {
        let min_share = self
            .restore_share
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        out.notes.push(format!(
            "{STREAMS} streams, {SEGS_PER_STREAM} segments per stream vs K = {BATCH} ({} decisions each), residency bound {RESIDENT}, restore share min {min_share}",
            SEGS_PER_STREAM.div_ceil(BATCH)
        ));
        out.check(min_share == 1.0, || {
            format!("restore share {min_share}: not every stream warm-started")
        });
        self.restore_share.clear();
    }
}
