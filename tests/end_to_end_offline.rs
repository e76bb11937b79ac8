//! End-to-end offline-mode tests: the recoding cascade under a hard
//! budget, MAB vs fixed-pair baselines, and the CodecDB failure mode.

use adaedge::codecs::{CodecId, CodecRegistry};
use adaedge::core::baselines::{CodecDbBaseline, FixedPair};
use adaedge::core::{OfflineAdaEdge, OfflineConfig, OptimizationTarget, PolicyKind};
use adaedge::datasets::{CbfConfig, CbfGenerator, CbfStream, SegmentSource};
use adaedge::ml::{metrics, Dataset, KMeansConfig, Model};

const SEGMENT: usize = 1024;
const INSTANCE: usize = 128;

fn kmeans_model() -> Model {
    let mut gen = CbfGenerator::new(CbfConfig {
        seed: 23,
        ..Default::default()
    });
    let (rows, _) = gen.dataset(40);
    Model::train_kmeans(
        &Dataset::unlabeled(rows),
        KMeansConfig {
            k: 3,
            ..Default::default()
        },
    )
}

fn offline_accuracy(edge: &OfflineAdaEdge, model: &Model) -> f64 {
    let mut orig_rows = Vec::new();
    let mut lossy_rows = Vec::new();
    for (_, rec, orig) in edge.reconstruct_all().unwrap() {
        let orig = orig.expect("originals kept");
        for (o, l) in orig.chunks_exact(INSTANCE).zip(rec.chunks_exact(INSTANCE)) {
            orig_rows.push(o.to_vec());
            lossy_rows.push(l.to_vec());
        }
    }
    metrics::ml_accuracy(model, &orig_rows, &lossy_rows)
}

#[test]
fn mab_cascade_stays_within_budget_and_keeps_accuracy() {
    let model = kmeans_model();
    let budget = 200 * 1024;
    let mut config = OfflineConfig::new(budget, OptimizationTarget::ml());
    config.model = Some(model.clone());
    config.instance_len = INSTANCE;
    let mut edge = OfflineAdaEdge::new(config).unwrap();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    for _ in 0..150 {
        let report = edge.ingest(&stream.next_segment()).unwrap();
        assert!(report.utilization <= 1.0 + 1e-9, "budget breached");
    }
    assert!(edge.total_recodes() > 0);
    assert_eq!(edge.store().len(), 150);
    let acc = offline_accuracy(&edge, &model);
    // ~6x overcommit: the MAB should keep most cluster assignments intact.
    assert!(acc > 0.7, "offline accuracy {acc}");
}

#[test]
fn mab_beats_a_poor_fixed_pair() {
    let model = kmeans_model();
    let budget = 160 * 1024;
    let n_segments = 120;
    let base = || {
        let mut config = OfflineConfig::new(budget, OptimizationTarget::ml());
        config.model = Some(model.clone());
        config.instance_len = INSTANCE;
        config
    };
    // Both methods run the same cascade: the MAB pipeline, and a
    // deliberately poor fixed pair — snappy (weak lossless on floats) +
    // RRD-sample (crude lossy) — as the same pipeline with one arm per
    // roster.
    let pair = FixedPair::new(CodecId::Snappy, CodecId::RrdSample);
    let [mab_acc, pair_acc] = [base(), pair.offline_config(base())].map(|config| {
        let mut edge = OfflineAdaEdge::new(config).unwrap();
        let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
        for _ in 0..n_segments {
            edge.ingest(&stream.next_segment()).unwrap();
        }
        offline_accuracy(&edge, &model)
    });

    assert!(
        mab_acc >= pair_acc,
        "MAB {mab_acc} should not lose to snappy_rrdsample {pair_acc}"
    );
}

#[test]
fn codecdb_baseline_fails_at_recode_time() {
    // CodecDB has no lossy path: once storage pressure demands ratios below
    // lossless reach, it cannot continue (Figure 12's "CodecDB fails").
    let reg = CodecRegistry::new(4);
    let mut db = CodecDbBaseline::new(CodecRegistry::lossless_candidates(), 1);
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    // Let it commit, then demand an impossible ratio.
    for _ in 0..12 {
        db.compress(&reg, &stream.next_segment()).unwrap();
    }
    assert!(db.committed().is_some());
    let err = db
        .compress_for_ratio(&reg, &stream.next_segment(), 0.05)
        .unwrap_err();
    assert!(matches!(
        err,
        adaedge::core::AdaEdgeError::NoFeasibleArm { .. }
    ));
}

#[test]
fn fifo_and_lru_policies_both_bound_space() {
    let model = kmeans_model();
    for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::QueryCount] {
        let mut config = OfflineConfig::new(120 * 1024, OptimizationTarget::ml());
        config.model = Some(model.clone());
        config.instance_len = INSTANCE;
        config.policy = policy;
        let mut edge = OfflineAdaEdge::new(config).unwrap();
        let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
        for _ in 0..80 {
            let report = edge.ingest(&stream.next_segment()).unwrap();
            assert!(report.utilization <= 1.0 + 1e-9, "{policy:?}");
        }
        assert_eq!(edge.store().len(), 80, "{policy:?}");
    }
}

#[test]
fn lru_keeps_fresh_segments_lossless() {
    // "AdaEdge consistently delivers 100% accuracy for fresh segments"
    // (§V-B2): the most recent segments should still be losslessly stored.
    let model = kmeans_model();
    let mut config = OfflineConfig::new(150 * 1024, OptimizationTarget::ml());
    config.model = Some(model.clone());
    config.instance_len = INSTANCE;
    let mut edge = OfflineAdaEdge::new(config).unwrap();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    let mut last_id = None;
    for _ in 0..100 {
        last_id = Some(edge.ingest(&stream.next_segment()).unwrap().id);
    }
    let freshest = edge.store().peek(last_id.unwrap()).unwrap();
    assert!(
        freshest.block().unwrap().codec.is_lossless(),
        "freshest segment was lossy-compressed: {:?}",
        freshest.block().unwrap().codec
    );
}
