//! Diagnostic: per-codec damage distribution inside the offline store
//! after a Figure-12-style run. Not part of the figure set.

use adaedge_bench::{frozen_model, offline_ml_config, ModelKind, INSTANCE_LEN, SEGMENT_LEN};
use adaedge_core::OfflineAdaEdge;
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource};
use adaedge_ml::metrics;
use std::collections::HashMap;

fn main() {
    let model = frozen_model(ModelKind::KMeans, 17);
    let mut edge = OfflineAdaEdge::new(offline_ml_config(1_400_000, &model)).unwrap();
    let mut src = CbfStream::new(CbfConfig::default(), SEGMENT_LEN);
    for _ in 0..1000 {
        edge.ingest(&src.next_segment()).unwrap();
    }
    // Per codec: count, mean ratio, total loss contribution.
    let mut stats: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
    for (id, rec, orig) in edge.reconstruct_all().unwrap() {
        let orig = orig.unwrap();
        let seg = edge.store().peek(id).unwrap();
        let codec = seg.block().unwrap().codec.name();
        let orows: Vec<Vec<f64>> = orig
            .chunks_exact(INSTANCE_LEN)
            .map(|c| c.to_vec())
            .collect();
        let lrows: Vec<Vec<f64>> = rec.chunks_exact(INSTANCE_LEN).map(|c| c.to_vec()).collect();
        let loss = 1.0 - metrics::ml_accuracy(&model, &orows, &lrows);
        let e = stats.entry(codec).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += seg.ratio();
        e.2 += loss;
    }
    println!(
        "{:>12} {:>7} {:>10} {:>12} {:>12}",
        "codec", "count", "mean r", "mean loss", "loss share"
    );
    let total_loss: f64 = stats.values().map(|v| v.2).sum();
    let mut rows: Vec<_> = stats.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.partial_cmp(&a.1 .2).unwrap());
    for (codec, (count, ratio_sum, loss_sum)) in rows {
        println!(
            "{:>12} {:>7} {:>10.4} {:>12.4} {:>11.1}%",
            codec,
            count,
            ratio_sum / count as f64,
            loss_sum / count as f64,
            100.0 * loss_sum / total_loss.max(1e-12)
        );
    }
}
