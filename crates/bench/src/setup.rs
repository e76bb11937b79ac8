//! Shared experiment setup: frozen models, the stream geometry and the
//! offline ML figures' pipeline configuration and loss.

use adaedge_core::{OfflineAdaEdge, OfflineConfig, OptimizationTarget};
use adaedge_datasets::{CbfConfig, CbfGenerator};
use adaedge_ml::{metrics, Dataset, ForestConfig, KMeansConfig, Model, TreeConfig};

/// Points per streamed segment (8 CBF instances).
pub const SEGMENT_LEN: usize = 1024;
/// Points per dataset instance (classic CBF length).
pub const INSTANCE_LEN: usize = 128;

/// Which frozen model an experiment evaluates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// CART decision tree.
    DTree,
    /// Random forest.
    RForest,
    /// K-nearest neighbours.
    Knn,
    /// K-means clustering.
    KMeans,
}

impl ModelKind {
    /// Display name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::DTree => "dtree",
            ModelKind::RForest => "rforest",
            ModelKind::Knn => "knn",
            ModelKind::KMeans => "kmeans",
        }
    }

    /// The four models of Figure 7.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::DTree,
        ModelKind::RForest,
        ModelKind::Knn,
        ModelKind::KMeans,
    ];
}

/// Train the §IV-D frozen model on raw CBF data (centralized training on
/// the raw format; predictions on raw data are ground truth).
pub fn frozen_model(kind: ModelKind, seed: u64) -> Model {
    let mut gen = CbfGenerator::new(CbfConfig {
        seed,
        ..Default::default()
    });
    let (rows, labels) = gen.dataset(40);
    match kind {
        ModelKind::DTree => Model::train_dtree(
            &Dataset::new(rows, labels),
            TreeConfig {
                max_depth: 10,
                ..Default::default()
            },
        ),
        ModelKind::RForest => Model::train_rforest(
            &Dataset::new(rows, labels),
            ForestConfig {
                n_trees: 15,
                ..Default::default()
            },
        ),
        ModelKind::Knn => Model::train_knn(&Dataset::new(rows, labels), 3),
        ModelKind::KMeans => Model::train_kmeans(
            &Dataset::unlabeled(rows),
            KMeansConfig {
                k: 3,
                ..Default::default()
            },
        ),
    }
}

/// The offline pipeline every offline ML figure runs: `budget_bytes` of
/// storage, recodes scored by `model` on CBF instances.
pub fn offline_ml_config(budget_bytes: usize, model: &Model) -> OfflineConfig {
    OfflineConfig {
        model: Some(model.clone()),
        instance_len: INSTANCE_LEN,
        ..OfflineConfig::new(budget_bytes, OptimizationTarget::ml())
    }
}

/// ML accuracy loss over everything `edge` stores: each segment's
/// reconstruction scored against its kept original, instance by instance.
pub fn offline_ml_loss(model: &Model, edge: &OfflineAdaEdge) -> f64 {
    let mut orig_rows = Vec::new();
    let mut lossy_rows = Vec::new();
    for (_, rec, orig) in edge.reconstruct_all().expect("stored segments decode") {
        let orig = orig.expect("offline figures keep originals");
        for (o, l) in orig
            .chunks_exact(INSTANCE_LEN)
            .zip(rec.chunks_exact(INSTANCE_LEN))
        {
            orig_rows.push(o.to_vec());
            lossy_rows.push(l.to_vec());
        }
    }
    1.0 - metrics::ml_accuracy(model, &orig_rows, &lossy_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_train_and_predict() {
        for kind in ModelKind::ALL {
            let model = frozen_model(kind, 5);
            assert_eq!(model.dim(), INSTANCE_LEN);
            assert_eq!(model.name(), kind.name());
        }
    }
}
